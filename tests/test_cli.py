import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import homlattice
from homlattice.basis import expand
from homlattice.cli import main, parse_graph, parse_manifest, serialize_graph
from homlattice.errors import ParseError
from homlattice.graphs import Graph, clique, cycle, path, windmill
from homlattice.restrictions import LI, max_minor_treewidth


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        target = tmp_path / name
        target.write_text(text)
        return str(target)
    return _write


@pytest.fixture
def graph_file(write):
    def _graph_file(name, graph):
        return write(name, serialize_graph(graph))
    return _graph_file


def test_graph_round_trip():
    text = serialize_graph(path(3))
    assert text == "p edge 3 2\ne 1 2\ne 2 3\n"
    assert parse_graph(text) == path(3)
    assert serialize_graph(parse_graph(text)) == text


graph_strategy = st.integers(1, 7).flatmap(
    lambda n: st.builds(
        Graph,
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]),
            max_size=15,
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(graph_strategy)
def test_round_trip_any_graph(g):
    assert parse_graph(serialize_graph(g)) == g


def test_parse_graph_rejects_malformed():
    cases = [
        "",
        "p edge 2 1\ne 1 1\n",
        "p edge 2 2\ne 1 2\n",
        "p edge 2 1\ne 1 2\ne 1 2\n",
        "p edge 2 1\ne 0 2\n",
        "p edge 2 1\ne 1 3\n",
        "e 1 2\n",
        "p edge 2 1\np edge 2 1\ne 1 2\n",
        "q edge 2 1\n",
        "p edge 2 1\ne 1 two\n",
    ]
    for text in cases:
        with pytest.raises(ParseError):
            parse_graph(text)


def test_comments_and_blank_lines_ignored():
    text = "c a triangle\n\np edge 3 3\nc body\ne 1 2\ne 2 3\ne 1 3\n"
    assert parse_graph(text) == clique(3)


def test_count_command(capsys, graph_file):
    p3 = graph_file("p3.g", path(3))
    k3 = graph_file("k3.g", clique(3))
    assert main(["count", "--tau", "li", "--pattern", p3,
                 "--host", k3]) == 0
    assert capsys.readouterr().out == "6\n"
    assert main(["count", "--tau", "li", "--pattern", p3, "--host", k3,
                 "--method", "oracle"]) == 0
    assert capsys.readouterr().out == "6\n"
    assert main(["count", "--tau", "emb", "--pattern",
                 graph_file("k2.g", path(2)), "--host", k3]) == 0
    assert capsys.readouterr().out == "6\n"


def test_expand_command(capsys, graph_file):
    p3 = graph_file("p3.g", path(3))
    assert main(["expand", "--tau", "li", "--pattern", p3]) == 0
    assert capsys.readouterr().out == "+1\t3\t1-3;2-3\n-1\t2\t1-2\n"
    assert main(["expand", "--tau", "hom", "--pattern", p3]) == 0
    out = capsys.readouterr().out
    assert out.startswith("+1\t3\t") and out.count("\n") == 1


def test_minors_command(capsys, graph_file):
    p3 = graph_file("p3.g", path(3))
    assert main(["minors", "--tau", "li", "--pattern", p3]) == 0
    out = capsys.readouterr().out
    assert out.endswith("max-treewidth: 1\n")
    assert main(["minors", "--tau", "li", "--pattern",
                 graph_file("w3.g", windmill(3))]) == 0
    out = capsys.readouterr().out
    assert out.endswith("max-treewidth: 3\n")


def test_minors_on_the_empty_pattern(capsys, write):
    empty = write("empty.g", "p edge 0 0\n")
    assert main(["minors", "--tau", "li", "--pattern", empty]) == 0
    assert capsys.readouterr().out == "0\t-1\t\nmax-treewidth: -1\n"
    minors = expand(LI, Graph(0))
    assert max_minor_treewidth(minors) == -1


def test_lincomb_command(capsys, write, graph_file):
    graph_file("p3.g", path(3))
    graph_file("k3.g", clique(3))
    graph_file("c3.g", cycle(3))
    k4 = graph_file("k4.g", clique(4))
    manifest = write("combo.lc", "1 hom p3.g\n1 li k3.g\n1 emb c3.g\n")
    assert main(["lincomb", "--manifest", manifest, "--host", k4]) == 0
    captured = capsys.readouterr()
    assert captured.out == "84\n"
    assert captured.err == "congruent: yes\n"
    commented = write("commented.lc",
                      "# weights\n1 hom p3.g\n\n  #li next\n1 li k3.g\n"
                      "1 emb c3.g\n")
    assert main(["lincomb", "--manifest", commented, "--host", k4]) == 0
    captured = capsys.readouterr()
    assert captured.out == "84\n"
    assert captured.err == "congruent: yes\n"
    empty = write("empty.lc", "")
    assert main(["lincomb", "--manifest", empty, "--host", k4]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0\n"
    assert captured.err == "congruent: yes\n"
    graph_file("k2.g", path(2))
    mixed = write("mixed.lc", "1 hom k2.g\n1 hom k3.g\n")
    assert main(["lincomb", "--manifest", mixed, "--host", k4]) == 0
    captured = capsys.readouterr()
    assert captured.err == "congruent: no\n"
    frac = write("frac.lc", "1/7 hom p3.g\n")
    k3 = graph_file("k3b.g", clique(3))
    assert main(["lincomb", "--manifest", frac, "--host", k3]) == 0
    assert capsys.readouterr().out == "12/7\n"


def test_manifest_paths_resolve_relative_to_manifest(tmp_path, write):
    sub = tmp_path / "inner"
    sub.mkdir()
    (sub / "k3.g").write_text(serialize_graph(clique(3)))
    manifest = write("inner/combo.lc", "2 hom k3.g\n")
    entries = parse_manifest((sub / "combo.lc").read_text(), str(sub))
    assert len(entries) == 1 and entries[0][2] == clique(3)
    assert main(["lincomb", "--manifest", manifest,
                 "--host", str(sub / "k3.g")]) == 0


def test_manifest_rejects_bad_lines(write, graph_file):
    graph_file("k3.g", clique(3))
    for text in ("1 hom\n", "zero hom k3.g\n", "0 hom k3.g\n",
                 "-1 hom k3.g\n", "1 zig k3.g\n", "1/0 hom k3.g\n"):
        manifest = write("bad.lc", text)
        host = graph_file("host.g", clique(3))
        assert main(["lincomb", "--manifest", manifest,
                     "--host", host]) == 2


def test_perm_gadget_command(capsys, write):
    id5 = "\n".join(" ".join("1" if i == j else "0" for j in range(5))
                    for i in range(5))
    matrix = write("id5.mat", f"5\n{id5}\n")
    assert main(["perm-gadget", "--matrix", matrix]) == 0
    assert capsys.readouterr().out == "perm=1 subtrees=1 match=yes\n"
    assert main(["perm-gadget", "--matrix", matrix, "--check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "perm=1 subtrees=1 match=yes\n"
    assert "agree" in captured.err
    # The gadget reads no pattern, so it takes no pattern-size limit.
    assert main(["perm-gadget", "--matrix", matrix, "--limit", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--limit" in captured.err


def test_perm_gadget_check_skips_past_the_direct_limit(capsys, write):
    """Direct enumeration stops at n = 7; past it the check reports the
    oracle's budget on stderr and the answer and exit code stay."""
    ones = "\n".join(" ".join("1" if j in (i, (i + 1) % 8) else "0"
                              for j in range(8)) for i in range(8))
    matrix = write("cyc8.mat", f"8\n{ones}\n")
    assert main(["perm-gadget", "--matrix", matrix, "--check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "perm=2 subtrees=2 match=yes\n"
    assert captured.err == ("check: direct enumeration skipped (direct "
                            "permanent enumeration limited to n <= 7)\n")


def test_perm_gadget_small_matrix_is_a_precondition_error(capsys, write):
    matrix = write("id2.mat", "2\n1 0\n0 1\n")
    assert main(["perm-gadget", "--matrix", matrix]) == 1
    assert "n >= 5" in capsys.readouterr().err


def test_exit_codes(capsys, write, graph_file):
    p3 = graph_file("p3.g", path(3))
    k3 = graph_file("k3.g", clique(3))
    assert main(["count", "--tau", "zig", "--pattern", p3,
                 "--host", k3]) == 2
    capsys.readouterr()
    assert main(["count", "--tau", "hom", "--pattern",
                 write("bad.g", "e 1 2\n"), "--host", k3]) == 2
    capsys.readouterr()
    assert main(["count", "--tau", "hom", "--pattern", "/does/not/exist",
                 "--host", k3]) == 1
    capsys.readouterr()
    assert main(["count", "--tau", "hom"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    p7 = graph_file("p7.g", path(7))
    assert main(["expand", "--tau", "li", "--pattern", p7,
                 "--limit", "5"]) == 3
    capsys.readouterr()
    assert main(["expand", "--tau", "li", "--pattern", p7]) == 0
    capsys.readouterr()


def test_limit_env_variable(capsys, graph_file, monkeypatch):
    """The limit comes from ``--limit`` alone; HOMLATTICE_LIMIT is not
    read."""
    p7 = graph_file("p7.g", path(7))
    monkeypatch.setenv("HOMLATTICE_LIMIT", "5")
    assert main(["expand", "--tau", "li", "--pattern", p7]) == 0
    capsys.readouterr()
    assert main(["expand", "--tau", "li", "--pattern", p7,
                 "--limit", "5"]) == 3
    capsys.readouterr()
    monkeypatch.setenv("HOMLATTICE_LIMIT", "12")
    assert main(["count", "--tau", "hom", "--pattern", p7, "--host", p7,
                 "--limit", "6"]) == 3
    capsys.readouterr()
    monkeypatch.setenv("HOMLATTICE_LIMIT", "five")
    assert main(["expand", "--tau", "li", "--pattern", p7]) == 0
    capsys.readouterr()


def test_determinism(capsys, graph_file):
    w3 = graph_file("w3.g", windmill(3))
    assert main(["expand", "--tau", "li", "--pattern", w3]) == 0
    first = capsys.readouterr().out
    assert main(["expand", "--tau", "li", "--pattern", w3]) == 0
    assert capsys.readouterr().out == first


def test_module_entry_point(graph_file):
    p3 = graph_file("p3.g", path(3))
    k3 = graph_file("k3.g", clique(3))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "homlattice", "count", "--tau", "li",
         "--pattern", p3, "--host", k3],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert result.stdout == "6\n"


def test_import_leaves_heavy_modules_out(write, graph_file):
    graph_file("p3.g", path(3))
    k3 = graph_file("k3.g", clique(3))
    manifest = write("fifth.lc", "1/5 hom p3.g\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = (
        f"import sys\nsys.path.insert(0, {src!r})\nimport homlattice\n"
        "print(sorted({'dataclasses', 'fractions', 'inspect'}"
        " & set(sys.modules)))\n"
        "from homlattice.cli import main\n"
        f"main(['lincomb', '--manifest', {manifest!r}, '--host', {k3!r}])\n")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n12/5\n"


def test_oracle_and_gadget_load_on_first_use(write, graph_file):
    p3 = graph_file("p3.g", path(3))
    k3 = graph_file("k3.g", clique(3))
    manifest = write("fifth.lc", "1/5 hom p3.g\n")
    id5 = "\n".join(" ".join("1" if i == j else "0" for j in range(5))
                    for i in range(5))
    matrix = write("id5.mat", f"5\n{id5}\n")
    graphs = ["--pattern", p3, "--host", k3]
    runs = [["count", "--tau", "li"] + graphs,
            ["expand", "--tau", "emb", "--pattern", p3],
            ["minors", "--tau", "li", "--pattern", p3],
            ["lincomb", "--manifest", manifest, "--host", k3],
            ["count", "--tau", "li", "--method", "oracle"] + graphs,
            ["perm-gadget", "--matrix", matrix]]
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = (
        f"import io, sys\nsys.path.insert(0, {src!r})\nimport homlattice\n"
        "from homlattice.cli import main\n"
        "def loaded():\n"
        "    return sorted({'homlattice.oracle', 'homlattice.permtree'}"
        " & set(sys.modules))\n"
        "print('build_gadget' in dir(homlattice), loaded())\n"
        f"for argv in {runs!r}:\n"
        "    out, sys.stdout = sys.stdout, io.StringIO()\n"
        "    status = main(argv)\n"
        "    sys.stdout = out\n"
        "    print(argv[0], status, loaded())\n")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    both = "['homlattice.oracle', 'homlattice.permtree']"
    assert result.stdout.splitlines() == [
        "True []", "count 0 []", "expand 0 []", "minors 0 []",
        "lincomb 0 []", "count 0 ['homlattice.oracle']",
        f"perm-gadget 0 {both}"]
    with pytest.raises(AttributeError, match="no_such_name"):
        homlattice.no_such_name
