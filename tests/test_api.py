"""The public names of ``homlattice``, pinned so that any change to the
API shows up in this file's diff."""

import ast
import subprocess
import sys
import types
from pathlib import Path

import homlattice

PUBLIC = [
    "BasisExpansion",
    "BudgetError",
    "DEFAULT_PATTERN_LIMIT",
    "EMB",
    "ExpansionTerm",
    "Flat",
    "FlatLattice",
    "GadgetTree",
    "Graph",
    "HOM",
    "HomlatticeError",
    "HostError",
    "LI",
    "LinearCombination",
    "ParseError",
    "PartitionError",
    "PatternSizeError",
    "Restriction",
    "TreeError",
    "VertexPartition",
    "apply_restriction",
    "biclique",
    "brute_hom",
    "brute_restricted",
    "brute_restricted_quotient",
    "brute_subgraphs",
    "build_gadget",
    "canonical_form",
    "canonical_representative",
    "clique",
    "count_automorphisms",
    "count_restricted",
    "count_subtrees",
    "count_tree_embeddings",
    "custom_restriction",
    "cycle",
    "edgeless",
    "enumerate_flats",
    "evaluate",
    "evaluate_combination",
    "expand",
    "generate",
    "hom_count",
    "hom_to_embedding_basis",
    "identity_matrix",
    "is_congruent",
    "is_isomorphic",
    "locally_injective",
    "max_minor_treewidth",
    "parse_restriction",
    "path",
    "permanent_direct",
    "permanent_ryser",
    "quotient",
    "serialize_expansion",
    "spider",
    "spider_contraction",
    "star",
    "tree_automorphism_count",
    "treewidth_exact",
    "verify_permanent_identity",
    "windmill",
    "windmill_contraction",
]


def test_public_names_are_pinned():
    """``dir`` also lists the names that load on first access."""
    names = sorted(
        name for name in dir(homlattice)
        if not name.startswith("_")
        and not isinstance(getattr(homlattice, name), types.ModuleType))
    assert names == PUBLIC


def test_submodules_resolve_before_any_lazy_name():
    """In a fresh interpreter ``import homlattice`` loads neither the
    oracle nor the permanent gadget, and each then resolves as an
    attribute of the package, before any name inside it is touched."""
    src = str(Path(homlattice.__file__).resolve().parent.parent)
    code = (
        f"import sys\nsys.path.insert(0, {src!r})\nimport homlattice\n"
        "def loaded():\n"
        "    return sorted({'homlattice.oracle', 'homlattice.permtree'}"
        " & set(sys.modules))\n"
        "print(loaded(), {'oracle', 'permtree'} <= set(dir(homlattice)))\n"
        "brute_hom = homlattice.oracle.brute_hom\n"
        "print(loaded(), brute_hom is homlattice.brute_hom)\n"
        "print(homlattice.permtree.__name__, len(loaded()))\n")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[] True", "['homlattice.oracle'] True", "homlattice.permtree 2"]


def test_public_names_are_the_defining_modules_objects():
    namespace = {}
    exec("from homlattice import *", namespace)
    for name in PUBLIC:
        value = getattr(homlattice, name)
        assert namespace[name] is value
        module = getattr(value, "__module__", "")
        if module.startswith("homlattice."):
            assert getattr(sys.modules[module], name) is value


def test_sibling_imports_inside_functions_are_the_lazy_loads():
    """A package module imported inside a function body hides a dependency
    (or an import cycle) from the module header. The only such imports are
    the deliberate lazy loads of the oracle and the permanent gadget."""
    sources = list(Path(homlattice.__file__).parent.glob("*.py"))
    siblings = {source.stem for source in sources}
    found = set()
    for source in sources:
        for func in ast.walk(ast.parse(source.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    module = ".".join(filter(None, (
                        "homlattice" if node.level else "", node.module)))
                    names = [module] + [f"{module}.{alias.name}"
                                        for alias in node.names]
                else:
                    continue
                for name in names:
                    parts = name.split(".")
                    if (parts[0] == "homlattice" and len(parts) > 1
                            and parts[1] in siblings):
                        found.add((source.stem, parts[1]))
    assert found == {("__init__", "oracle"), ("__init__", "permtree"),
                     ("cli", "oracle"), ("cli", "permtree")}


MODULE_IMPORTS = {
    "__init__": {"basis", "errors", "flats", "graphs", "restrictions",
                 "treedp"},
    "__main__": {"cli"},
    "basis": {"cache", "errors", "flats", "graphs", "restrictions",
              "treedp"},
    "cache": set(),
    "cli": {"basis", "errors", "graphs", "restrictions", "treedp"},
    "errors": set(),
    "flats": {"errors", "graphs"},
    "graphs": {"errors"},
    "oracle": {"errors", "graphs", "restrictions"},
    "permtree": {"errors", "graphs", "oracle"},
    "restrictions": {"errors", "flats", "graphs", "treedp"},
    "treedp": {"cache", "errors", "graphs"},
}


def test_module_imports_are_pinned():
    """The sibling modules each module imports at its top level, so that
    a new dependency between modules shows up in this file's diff."""
    found = {}
    for source in Path(homlattice.__file__).parent.glob("*.py"):
        imported = found[source.stem] = set()
        for node in ast.parse(source.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    imported.add(node.module.split(".")[0])
                else:
                    imported.update(alias.name for alias in node.names)
    assert found == MODULE_IMPORTS


def test_no_module_reads_the_environment():
    """Limits and every other setting come from the caller's arguments,
    so no package module reads ``os.environ``, ``os.environb`` or
    ``os.getenv``, under any import alias."""
    readers = {"environ", "environb", "getenv"}
    found = []
    for source in Path(homlattice.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                found.append((source.stem, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [(source.stem, alias.name) for alias in node.names
                          if alias.name in readers]
    assert found == []
