"""numpy stays the only runtime dependency of the package."""

import ast
import sys
from pathlib import Path

import mksvdd

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mksvdd"}


def test_modules_import_only_stdlib_numpy_and_mksvdd():
    package = Path(mksvdd.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside mksvdd
            outside += [
                f"{path.name}: {name}" for name in names if name.split(".")[0] not in ALLOWED
            ]
    assert outside == []
