"""What the package's modules import, and what importing the package costs."""

import ast
import subprocess
import sys
from pathlib import Path

import densecap

from conftest import package_env

SRC = Path(densecap.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def imported_names(tree, lines):
    """(name, line, kept) for each name a module imports.

    ``kept`` marks an import line with ``# noqa: F401``: imported on purpose
    though the module never reads it.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                kept = "# noqa: F401" in lines[alias.lineno - 1]
                yield alias.asname or alias.name.split(".")[0], alias.lineno, kept


def unused_imports(path):
    """Names a module imports and never reads, with their line numbers.

    An import line marked ``# noqa: F401`` is kept on purpose and skipped.
    """
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    imported = {name: line for name, line, kept in imported_names(tree, text.splitlines())
                if not kept}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def traced_attributes():
    """(module, attribute) pairs in the benchmark tracer's ``WRAPPED``, read as source.

    A module is written dotted from the package, for example
    ``densecap.regularity``; a name the tracer imports with ``from`` is
    expanded to its dotted path.
    """
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    (entries,) = (
        node.value.elts for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED"
    )
    out = set()
    for owner, attr, _ in (entry.elts for entry in entries):
        head, dot, rest = ast.unparse(owner).partition(".")
        out.add((aliases.get(head, head) + dot + rest, ast.literal_eval(attr)))
    return out


def test_no_module_imports_a_name_it_does_not_use():
    # the package __init__ files import to re-export
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py" and (unused := unused_imports(path))
    }
    assert found == {}


def test_every_kept_import_is_a_name_the_tracer_wraps():
    # a name kept only for bench/tracing.py to patch goes stale once the
    # tracer stops wrapping it there
    wrapped = traced_attributes()
    kept = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(("densecap",) + path.relative_to(SRC).with_suffix("").parts)
        text = path.read_text(encoding="utf-8")
        names = imported_names(ast.parse(text), text.splitlines())
        kept |= {(module, name) for name, _, is_kept in names if is_kept}
    assert kept and kept <= wrapped, sorted(kept - wrapped)


def test_importing_the_package_leaves_the_thread_pool_unimported():
    # concurrent.futures imports logging; threads.spread imports it when called
    code = "import sys, densecap; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=package_env(), check=True)
    assert out.stdout.strip() == "False"
