import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "subincompat"


def test_the_package_imports_only_the_standard_library_and_numpy():
    # the one runtime dependency is NumPy: every import in the package,
    # at module level or inside a function, names a standard-library module,
    # numpy, or the package itself
    allowed = set(sys.stdlib_module_names) | {"numpy", "subincompat"}
    seen = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["subincompat" if node.level else node.module]
            else:
                continue
            seen += [(path.name, name) for name in names]
    assert seen
    outside = [(f, name) for f, name in seen if name.split(".")[0] not in allowed]
    assert outside == []
