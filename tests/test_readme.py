import json
import os
import pathlib
import re
import subprocess
import sys
from random import Random

from homlattice import treedp
from helpers import random_host

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

MATRIX = """5
0 1 1 0 0
1 0 0 1 0
0 1 0 0 1
1 0 1 1 0
0 0 1 0 1
"""


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_demo_script_runs(tmp_path):
    """The permanent demo runs from the repository root as the README
    shows, on its built-in sample and on a 5x5 matrix file."""
    script = "scripts/perm_gadget_demo.py"
    assert f"python3 {script}" in README.read_text()
    matrix = tmp_path / "a5.mat"
    matrix.write_text(MATRIX)
    for extra in ([], ["--matrix", str(matrix)]):
        run = subprocess.run([sys.executable, script, *extra], cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[0].startswith("matrix order 5,")
        assert run.stdout.rstrip().endswith(": agree")


def test_demo_script_runs_from_any_directory(tmp_path):
    """The demo finds the package beside itself, not through the working
    directory or ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "perm_gadget_demo.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.rstrip().endswith(": agree")


def test_host_scale_script_runs():
    """The host-scale script builds the tests' uniform host for its seed
    and reports its build time, its memory and hom(path(3), host), the
    sum of the squared degrees."""
    script = "scripts/host_scale.py"
    assert f"python3 {script} " in README.read_text()
    run = subprocess.run([sys.executable, script, "--n", "2000", "--m",
                          "6000", "--seed", "3"], cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = dict(line.split(": ") for line in run.stdout.splitlines())
    assert list(lines) == ["host", "build_s", "rss_growth_mb", "vmhwm_mb",
                           "hom(path(3))"]
    assert lines["host"] == "2000 vertices, 6000 edges, seed 3"
    build_s, growth, peak = (float(lines[key]) for key in
                             ("build_s", "rss_growth_mb", "vmhwm_mb"))
    assert build_s > 0 and peak > growth
    host = random_host(Random(3), 2000, 6000)
    assert int(lines["hom(path(3))"]) == \
        sum(host.degree(v) ** 2 for v in range(host.n))


def test_host_scale_script_drops_hosts():
    """With ``--drop K`` the script counts on K hosts of consecutive seeds
    in turn and reports resident memory before and after dropping them."""
    script = "scripts/host_scale.py"
    assert f"python3 {script} " in README.read_text()
    assert "--drop 4" in README.read_text()
    run = subprocess.run([sys.executable, script, "--n", "300", "--m",
                          "900", "--seed", "3", "--drop", "2"], cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = dict(line.split(": ") for line in run.stdout.splitlines())
    assert list(lines) == ["seed 3 hom(path(3))", "seed 4 hom(path(3))",
                           "vmrss_before_mb", "vmrss_after_mb"]
    for seed in (3, 4):
        host = random_host(Random(seed), 300, 900)
        assert int(lines[f"seed {seed} hom(path(3))"]) == \
            sum(host.degree(v) ** 2 for v in range(host.n))
    assert float(lines["vmrss_after_mb"]) > 0


def test_code_lines_script_runs(tmp_path):
    """The code-line script counts every module of the package and their
    total, and on a sample package it skips blank lines, comments and
    docstrings, but not a string that is code."""
    script = "scripts/code_lines.py"
    assert f"python3 {script}" in README.read_text()
    run = subprocess.run([sys.executable, script], cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    counts = dict(line.split(": ") for line in run.stdout.splitlines())
    package = ROOT / "src" / "homlattice"
    modules = sorted(str(source.relative_to(package))
                     for source in package.rglob("*.py"))
    assert list(counts) == modules + ["total"]
    assert int(counts.pop("total")) == sum(map(int, counts.values()))
    sample = tmp_path / "sample"
    sample.mkdir()
    (sample / "a.py").write_text(
        '"""A module\n\ndocstring."""\n\n# a comment\nX = 1  # code\n\n\n'
        'def f(x):\n    """One line."""\n    return (x +\n            1)\n')
    (sample / "b.py").write_text('Y = """a string\nthat is code"""\n')
    run = subprocess.run([sys.executable, script, str(sample)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "a.py: 4\nb.py: 2\ntotal: 6\n"


def test_warm_query_script_runs():
    """The warm-query script times every query over the graphs with at
    most 3 vertices under four restrictions on two tiny hosts, and
    reports a median per term count that covers every query; it refuses
    more hosts than the hom-count memo keeps stores for."""
    script = "scripts/warm_query.py"
    assert f"python3 {script} " in README.read_text()
    run = subprocess.run([sys.executable, script, "--max-n", "3", "--hosts",
                          "2", "--seed", "3", "--passes", "2"], cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert list(report) == ["median_ns", "queries", "timer_ns"]
    # 0-3 vertices hold 1 + 1 + 2 + 4 classes, asked under 4 restrictions
    # on each host.
    assert sum(report["queries"].values()) == 8 * 4 * 2
    assert list(report["median_ns"]) == list(report["queries"]) != []
    assert "1" in report["queries"]
    assert all(ns > 0 for ns in report["median_ns"].values())
    assert report["timer_ns"] >= 0
    # Past the hosts whose stores the hom-count memo keeps, no query
    # would stay warm: a usage error, before any query runs.
    hosts = str(treedp._MEMO_HOSTS + 1)
    run = subprocess.run([sys.executable, script, "--hosts", hosts],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    assert f"--hosts {hosts} exceeds" in run.stderr


def _synopsis_variants(words):
    """Each way to write a synopsis line: every optional ``[...]`` part
    left out, or given with each of its ``a|b`` alternatives."""
    line = " ".join(words)
    match = re.search(r"\[(.*?)\]", line)
    if match is None:
        return [words]
    *flag, choices = match.group(1).split()
    head = line[:match.start()].split()
    tail = line[match.end():].split()
    options = [[]] + [flag + [choice] for choice in choices.split("|")]
    return [variant for option in options
            for variant in _synopsis_variants(head + option + tail)]


def test_readme_command_lines_run(tmp_path):
    """Each line of the README's command-line synopsis runs as
    ``python -m homlattice`` on small files, with every optional flag
    left out and given."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    files = {
        "P.g": "p edge 3 2\ne 1 2\ne 2 3\n",
        "G.g": "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n",
        "M.txt": "1 li P.g\n2 emb P.g\n",
        "A.txt": MATRIX,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    runs = 0
    for line in block.splitlines():
        prog, *words = line.split()
        assert prog == "homlattice"
        for args in _synopsis_variants(words):
            run = subprocess.run(
                [sys.executable, "-m", "homlattice", *args], cwd=tmp_path,
                capture_output=True, text=True, env=env, timeout=60)
            assert run.returncode == 0, (args, run.stderr)
            assert run.stdout.strip(), args
            runs += 1
    assert runs == 8
