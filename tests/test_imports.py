"""What the package's modules import, and what importing the package costs."""

import ast
import subprocess
import sys
from pathlib import Path

import densecap

from conftest import package_env

SRC = Path(densecap.__file__).parent


def unused_imports(path):
    """Names a module imports and never reads, with their line numbers.

    An import line marked ``# noqa: F401`` is kept on purpose and skipped.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    # the package __init__ files import to re-export
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py" and (unused := unused_imports(path))
    }
    assert found == {}


def test_importing_the_package_leaves_the_thread_pool_unimported():
    # concurrent.futures imports logging; threads.spread imports it when called
    code = "import sys, densecap; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=package_env(), check=True)
    assert out.stdout.strip() == "False"
