"""The demos and the README's python examples run as published."""
import contextlib
import glob
import io
import os
import re
import subprocess
import sys

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
