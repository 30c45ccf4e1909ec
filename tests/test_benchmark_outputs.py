"""The alpha-sweep benchmark workload's outputs, checked without a
benchmark run.

Rebuilds the default-seed alpha-sweep suite with perfbench/planted.py,
runs the workload's sweep command in-process on each graph and compares
the output's digest (perfbench/gate.py) with the one recorded in
perfbench/reference.json. The test only reads perfbench/.
"""

from __future__ import annotations

import json

from coopgraph.cli import cli_dispatch

from conftest import PERFBENCH, benchmark_suite, perfbench_module


def test_alpha_sweep_outputs_match_the_recorded_digests(tmp_path):
    planted, gate = perfbench_module("planted"), perfbench_module("gate")
    spec = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]["alpha-sweep"]
    reference = json.loads((PERFBENCH / "reference.json").read_text())["alpha-sweep"]
    suite = benchmark_suite("alpha-sweep")
    assert len(reference) == len(suite) == 5
    assert spec["command"][spec["command"].index("--grid") + 1] == "20"
    for i, (edges, expected) in enumerate(zip(suite, reference)):
        graph, out = tmp_path / f"g{i}.edges", tmp_path / f"g{i}.csv"
        graph.write_text(planted.edge_list_text(edges))
        assert cli_dispatch([a.format(graph=graph, out=out) for a in spec["command"]]) == 0
        text = out.read_text()
        assert gate.check_output(spec["check"], text, edges) == []
        assert gate.output_digest(spec["check"], text) == expected
