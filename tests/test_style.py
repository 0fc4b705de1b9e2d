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


def _nested_functions(function):
    """The functions defined in function's own body, not deeper."""
    found = []
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node)
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def test_recursive_closures_are_deleted():
    """A nested function that calls itself holds a reference to itself
    through its closure, so it and everything it reaches stay alive until
    the cyclic collector runs. Its enclosing function must ``del`` it
    once done, so reference counting frees them at once."""
    kept = []
    for source in sorted((ROOT / "src/homlattice").rglob("*.py")):
        for outer in ast.walk(ast.parse(source.read_text())):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            deleted = {target.id for node in ast.walk(outer)
                       if isinstance(node, ast.Delete)
                       for target in node.targets
                       if isinstance(target, ast.Name)}
            for inner in _nested_functions(outer):
                calls = {node.func.id for node in ast.walk(inner)
                         if isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name)}
                if inner.name in calls and inner.name not in deleted:
                    kept.append(f"{source.relative_to(ROOT)}:"
                                f"{outer.name}.{inner.name}")
    assert kept == []


def _decorator_name(node):
    """The name a decorator calls or is, such as ``lru_cache`` for
    ``@functools.lru_cache(maxsize=8)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_function_caches_are_bounded():
    """Every ``lru_cache`` under src/homlattice names an integer maxsize,
    so no cache grows for the life of the process; ``functools.cache``,
    a bare ``@lru_cache`` and ``maxsize=None`` are unbounded."""
    unbounded = []
    for source in sorted((ROOT / "src/homlattice").rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                if _decorator_name(deco) not in ("lru_cache", "cache"):
                    continue
                sizes = [] if not isinstance(deco, ast.Call) else (
                    deco.args[:1] + [k.value for k in deco.keywords
                                     if k.arg == "maxsize"])
                if not any(isinstance(size, ast.Constant)
                           and type(size.value) is int for size in sizes):
                    unbounded.append(f"{source.relative_to(ROOT)}:"
                                     f"{node.name}")
    assert unbounded == []
