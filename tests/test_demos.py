"""Each demo's stdout, byte for byte, against a recorded copy under
tests/data/demos/. The demos print exact rationals and partitions only,
so any change in their output is a change in a result."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "data" / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in RECORDED.glob("*.out")))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True, env=env, timeout=120, check=True,
    )
    assert done.stdout == (RECORDED / f"{name}.out").read_bytes()


def test_every_demo_has_a_recorded_output():
    demos = {p.stem for p in (ROOT / "demos").glob("*.py")}
    assert demos == {p.stem for p in RECORDED.glob("*.out")}
