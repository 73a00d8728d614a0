"""numpy stays the only runtime dependency: every module of the package
imports from the standard library, numpy or the package itself, and nothing
else."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "daplab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "daplab"}


def test_package_imports_only_the_standard_library_numpy_and_itself():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one, inside the package
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not outside, outside
