import pathlib
import re
import subprocess
import sys

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
