"""The demos and the README's python examples and command lines run as
published."""
import contextlib
import glob
import io
import os
import re
import shlex
import subprocess
import sys

from conftest import run_cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
# a README line `print(...)  # text` promises that the call prints `text`
EXPECTED = re.compile(r"^print\(.*\)\s+# (.*)$")


def test_demos_and_readme_examples_run():
    demos = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
    assert demos
    stdout = {}
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, demo], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, (demo, proc.stderr)
        assert "Traceback" not in proc.stderr, demo
        stdout[os.path.basename(demo)] = proc.stdout.splitlines()

    # the GF(2) table's identity column: it holds for every dyadic k and for
    # neither non-dyadic pair
    table = stdout["gf2_cylinder_tables.py"]
    dyadic = [line.split()[-1] for line in table if re.match(r"\s*\d+\s+1/4", line)]
    assert dyadic == ["True"] * 8, table
    assert [line.split()[-1] for line in table if "identity holds:" in line] == ["False"] * 2

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
    assert blocks
    for block in blocks:
        expected = [m.group(1).strip() for m in map(EXPECTED.match, block.splitlines()) if m]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        assert out.getvalue().splitlines() == expected, block


# The README's inline command examples, with the exit code its text gives each;
# every line of its `## Command line` block exits 0.
INLINE_COMMANDS = {
    "ergolab rigidity --construction chacon": 1,
    "ergolab rigidity --construction odometer --r 3 --expect-rigid 27,54": 0,
    "ergolab rigidity --construction chacon --expect-rigid ''": 0,
    "ergolab poisson --samples 10": 2,
    "ergolab build --construction chacon --r 3": 2,
}


def test_readme_command_lines_run_as_published(tmp_path, monkeypatch):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    (block,) = re.findall(r"## Command line\n\n```\n(.*?)```", readme, re.S)
    commands = dict.fromkeys(block.splitlines(), 0)
    assert len(commands) > 5
    assert set(INLINE_COMMANDS) <= set(re.findall(r"`(ergolab [^`]*)`", readme))
    monkeypatch.chdir(tmp_path)  # where `--out report.json` lands
    for line, code in {**commands, **INLINE_COMMANDS}.items():
        program, *argv = shlex.split(line)
        assert program == "ergolab"
        proc = run_cli(*argv)
        assert proc.returncode == code, (line, proc.stderr)
