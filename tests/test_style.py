"""Layout and dependency rules for the sources that no installed linter
checks."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_line_exceeds_79_columns():
    long = []
    for folder in ("src/homlattice", "tests", "scripts"):
        for source in sorted((ROOT / folder).rglob("*.py")):
            lines = source.read_text().splitlines()
            long += [f"{source.relative_to(ROOT)}:{number}"
                     for number, line in enumerate(lines, 1)
                     if len(line) > 79]
    assert long == []


def test_package_imports_only_the_standard_library():
    """The library and its scripts stay dependency-free: every absolute
    import under src/homlattice and scripts names a standard-library
    module or the package."""
    allowed = sys.stdlib_module_names | {"homlattice"}
    imported = set()
    sources = [source for folder in ("src/homlattice", "scripts")
               for source in sorted((ROOT / folder).rglob("*.py"))]
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert "functools" in imported
    assert imported - allowed == set()
