"""Each demo's stdout, and that of the README's Library quickstart, byte
for byte against a recorded copy under tests/data/demos/. The demos
print exact rationals and partitions only, so any change in their output
is a change in a result."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "data" / "demos"
QUICKSTART = "readme_quickstart"


def run_python(args: list[str]) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=120, check=True,
    )
    return done.stdout


def quickstart_code() -> str:
    """The first python block under the README's Library quickstart."""
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_output_is_unchanged(name):
    stdout = run_python([str(ROOT / "demos" / f"{name}.py")])
    assert stdout == (RECORDED / f"{name}.out").read_bytes()


def test_readme_quickstart_output_is_unchanged():
    code = quickstart_code()
    stdout = run_python(["-c", code])
    assert stdout == (RECORDED / f"{QUICKSTART}.out").read_bytes()
    # Outputs the README states in comments, e.g. "print(x)  # True",
    # appear as printed lines, in order.
    stated = re.findall(r"^print\(.*\)[ \t]+# (.+)$", code, re.M)
    lines = iter(stdout.decode().splitlines())
    assert stated and all(value in lines for value in stated)


def test_every_demo_has_a_recorded_output():
    demos = {p.stem for p in (ROOT / "demos").glob("*.py")}
    assert demos | {QUICKSTART} == {p.stem for p in RECORDED.glob("*.out")}
