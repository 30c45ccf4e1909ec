"""Recorded Myerson CLI reports, compared byte for byte.

Each case runs one `partition myerson`, `stability --model myerson` or
`myerson value` command from inside tests/data/myerson (so the graph and
partition paths in a report are the same relative names everywhere) and
compares its output with the report recorded in
tests/data/myerson/reports/<case>.json. Only `timing_seconds` is
masked. The recorded reports pin the exact trace, allocation polynomials
and stability verdicts, so any change to the Myerson engine that alters
a single gain, tie or witness shows up here.

To record the reports again (only when a change of output is intended):

    PYTHONPATH=src python tests/test_myerson_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

from coopgraph.cli import cli_dispatch

DATA = Path(__file__).resolve().parent / "data" / "myerson"
REPORTS = DATA / "reports"
_TIMING = re.compile(r'"timing_seconds": [-+.0-9eE]+')

# (graph, split partition file) per graph.
GRAPHS = (
    ("example1", "example1_split.json"),
    ("example2", "example2_split.json"),
    ("karate", "karate_split.json"),
    ("planted30.edges", "planted30_split.json"),
)
DISCOUNTS = (("half", "1/2"), ("seven_eighths", "7/8"))


def _stem(graph: str) -> str:
    return graph.split(".")[0]


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for graph, split in GRAPHS:
        g = _stem(graph)
        for tag, r in DISCOUNTS:
            for init in ("singletons", split):
                start = "singletons" if init == "singletons" else "split"
                cases[f"partition_{g}_{tag}_{start}"] = [
                    "partition", "myerson", "--graph", graph, "--r", r, "--init", init,
                ]
            for check in ("nash", "external"):
                argv = ["stability", "--graph", graph, "--partition", split,
                        "--model", "myerson", "--r", r]
                cases[f"stability_{g}_{tag}_{check}"] = argv + (["--external"] if check == "external" else [])
    for graph, policy in (("example2", "greedy"), ("planted30.edges", "random")):
        cases[f"partition_{_stem(graph)}_half_{policy}"] = [
            "partition", "myerson", "--graph", graph, "--r", "1/2", "--init", "singletons",
            "--schedule", policy, "--seed", "5",
        ]
    # Two beneficial entries are blocked by an incumbent on the second
    # planted partition before an unblocked one is found.
    for graph, partition in (("karate", "karate_split_15_19.json"), ("planted30.edges", "planted30_blocked.json")):
        cases[f"stability_{_stem(partition)}_half_external"] = [
            "stability", "--graph", graph, "--partition", partition,
            "--model", "myerson", "--r", "1/2", "--external",
        ]
    for name, graph, coalition in (
        ("example1_adef", "example1", "A,D,E,F"),
        ("example1_grand", "example1", "A,B,C,D,E,F"),
        ("example1_disconnected", "example1", "B,E,F"),
        ("karate_hub", "karate", "1,2,3,4,8,14,33,34"),
    ):
        base = ["myerson", "value", "--graph", graph, "--coalition", coalition]
        cases[f"value_{name}"] = base
        cases[f"value_{name}_at_r"] = base + ["--r", "3/4"]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> str:
    """The command's output text (report file or stdout), timing masked."""
    with _chdir(DATA):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli_dispatch(argv)
        assert status == 0, argv
    return _TIMING.sub('"timing_seconds": 0', out.getvalue())


@contextlib.contextmanager
def _chdir(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_the_recorded_one(case):
    expected = (REPORTS / f"{case}.json").read_text()
    assert run_case(CASES[case]) == expected


def test_every_recorded_report_has_a_case():
    assert sorted(p.stem for p in REPORTS.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    REPORTS.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (REPORTS / f"{case}.json").write_text(run_case(argv))
    print(f"recorded {len(CASES)} reports in {REPORTS}", file=sys.stderr)
