"""The alpha-sweep benchmark workload's outputs, checked without a
benchmark run.

Rebuilds the default-seed alpha-sweep suite with perfbench/planted.py,
runs the workload's sweep command in-process on each graph and compares
the output's digest (perfbench/gate.py) with the one recorded in
perfbench/reference.json. The test only reads perfbench/.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from coopgraph.cli import cli_dispatch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    # Loaded under a name of its own and without writing bytecode there.
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_alpha_sweep_outputs_match_the_recorded_digests(tmp_path):
    planted, gate = _load("planted"), _load("gate")
    manifest = json.loads((PERFBENCH / "workloads.json").read_text())
    spec = manifest["workloads"]["alpha-sweep"]
    reference = json.loads((PERFBENCH / "reference.json").read_text())["alpha-sweep"]
    gen = spec["generator"]
    assert len(reference) == spec["graphs"] == 5
    assert spec["command"][spec["command"].index("--grid") + 1] == "20"
    for i, expected in enumerate(reference):
        seed = f"{manifest['default_seed']}.{i}"
        edges = planted.planted_edges(gen["n"], gen["groups"], gen["p_in"], gen["p_out"], gen["max_mult"], seed)
        graph, out = tmp_path / f"g{i}.edges", tmp_path / f"g{i}.csv"
        graph.write_text(planted.edge_list_text(edges))
        assert cli_dispatch([a.format(graph=graph, out=out) for a in spec["command"]]) == 0
        text = out.read_text()
        assert gate.check_output(spec["check"], text, edges) == []
        assert gate.output_digest(spec["check"], text) == expected
