"""Hypothesis fuzzing of the two text records, densecap-net v1 and densecap-kernel v1.

Mutated records either load or raise a DensecapError; serialized records
load back bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecap.errors import DensecapError, ParseError
from densecap.kernels import deserialize_kernel, induce_kernel, serialize_kernel
from densecap.networks import deserialize_network, random_network, serialize_network

# field values a damaged or hostile file may hold: NaN, a float overflow,
# no number, a negative or huge count, and nothing at all
BAD_FIELDS = ["nan", "1e400", "x", "-1", "99999999999", ""]


@st.composite
def small_networks(draw):
    L, d0, dL = draw(st.integers(2, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    d = math.lcm(d0, dL) * draw(st.integers(1, 2))
    B = draw(st.floats(L + 2, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_network(L, d0, dL, d, B, rng)


@st.composite
def mutated(draw, text):
    """``text`` after one to three edits: a field replaced, a line deleted or
    inserted, or the text cut short."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["field", "delete", "insert", "cut"]))
        if edit == "field":
            fields = lines[i].split(" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(BAD_FIELDS))
            lines[i] = " ".join(fields)
        elif edit == "delete" and len(lines) > 1:
            del lines[i]
        elif edit == "insert":
            lines.insert(i, draw(st.sampled_from(lines + BAD_FIELDS)))
        elif edit == "cut":
            joined = "\n".join(lines)
            lines = joined[: draw(st.integers(0, len(joined)))].split("\n")
    return "\n".join(lines)


def loads_or_refuses(parse, text):
    try:
        parse(text)
    except DensecapError:
        pass  # anything else escaping fails the test


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_network_records_load_or_raise_a_densecap_error(data):
    text = serialize_network(data.draw(small_networks()))
    loads_or_refuses(deserialize_network, data.draw(mutated(text)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_kernel_records_load_or_raise_a_densecap_error(data):
    text = serialize_kernel(induce_kernel(data.draw(small_networks())))
    loads_or_refuses(deserialize_kernel, data.draw(mutated(text)))


@settings(max_examples=50, deadline=None)
@given(small_networks())
def test_records_round_trip_bitwise(net):
    back = deserialize_network(serialize_network(net))
    assert (back.L, back.d0, back.dL, back.d, back.B) == (net.L, net.d0, net.dL, net.d, net.B)
    for a, b in zip(net.weights + net.biases, back.weights + back.biases):
        assert a.tobytes() == b.tobytes()
    ck = induce_kernel(net)
    kback = deserialize_kernel(serialize_kernel(ck))
    assert (kback.layers, kback.B) == (ck.layers, ck.B)
    assert kback.kernel.coeffs.tobytes() == ck.kernel.dense().coeffs.tobytes()


@settings(max_examples=30, deadline=None)
@given(small_networks(), st.data())
def test_a_cut_short_record_names_its_first_missing_line(net, data):
    for parse, text in (
        (deserialize_network, serialize_network(net)),
        (deserialize_kernel, serialize_kernel(induce_kernel(net))),
    ):
        lines = text.splitlines(keepends=True)
        kept = data.draw(st.integers(0, len(lines) - 1))
        with pytest.raises(ParseError, match="truncated record: missing") as exc:
            parse("".join(lines[:kept]))
        assert exc.value.line == kept + 1
