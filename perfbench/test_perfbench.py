"""Tests of the benchmark's own parts: generator, gate, metric names, tracing.

Run with `python -m pytest perfbench` from the repository root. The
tracing tests start real sample processes on small graphs.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from gate import check_output, output_digest  # noqa: E402
from planted import edge_list_text, planted_edges  # noqa: E402
import run  # noqa: E402
from spans import NAMES  # noqa: E402

SMALL = {"n": 24, "groups": 3, "p_in": 0.5, "p_out": 0.05}


def _spec(name: str, max_mult: int) -> dict:
    spec = dict(run.MANIFEST["workloads"][name])
    spec["generator"] = dict(SMALL, max_mult=max_mult)
    return spec


def _run_cli(tmp_path, edges, argv):
    from coopgraph.cli import cli_dispatch

    graph = tmp_path / "g.edges"
    graph.write_text(edge_list_text(edges))
    out = tmp_path / "out"
    status = cli_dispatch([a.format(graph=str(graph), out=str(out)) for a in argv])
    assert status == 0
    return out.read_text()


def test_generator_is_deterministic_per_seed():
    a = planted_edges(40, 4, 0.3, 0.05, 3, "7.0")
    assert a == planted_edges(40, 4, 0.3, 0.05, 3, "7.0")
    assert a != planted_edges(40, 4, 0.3, 0.05, 3, "8.0")
    assert all(1 <= w <= 3 and u < v for u, v, w in a)
    assert edge_list_text(a) == edge_list_text(planted_edges(40, 4, 0.3, 0.05, 3, "7.0"))


def test_generated_edge_list_parses_to_the_same_graph():
    from coopgraph.multigraph import parse_edge_list

    edges = planted_edges(30, 3, 0.4, 0.05, 3, "1.0")
    g = parse_edge_list(edge_list_text(edges))
    assert g.m == sum(w for _, _, w in edges)
    assert all(g.multiplicity(u, v) == w for u, v, w in edges)


def test_gate_rejects_a_tampered_partition_report(tmp_path):
    edges = planted_edges(**dict(SMALL, max_mult=3), seed="1.0")
    text = _run_cli(tmp_path, edges, run.MANIFEST["workloads"]["modularity-planted"]["command"])
    assert check_output("modularity", text, edges) == []
    report = json.loads(text)

    def tampered(change):
        bad = json.loads(text)
        change(bad)
        return json.dumps(bad)

    retimed = tampered(lambda r: r.update(timing_seconds=123.0))
    assert output_digest("modularity", retimed) == output_digest("modularity", text)
    assert check_output("modularity", tampered(lambda r: r.update(status="CapReached")), edges)
    assert check_output("modularity", tampered(lambda r: r["stability"].update(nash_stable=False)), edges)
    assert check_output("modularity", tampered(lambda r: r["potential"].update(value="0")), edges)

    def move_one(r):
        blocks = r["partition"]["blocks"]
        blocks[-1].append(blocks[0].pop())
        r["partition"]["blocks"] = [b for b in blocks if b]

    moved = tampered(move_one)
    assert check_output("modularity", moved, edges)
    assert output_digest("modularity", moved) != output_digest("modularity", text)
    assert output_digest("modularity", tampered(lambda r: r["trace"].pop())) != output_digest("modularity", text)
    assert report["status"] == "Stable"


def test_gate_rejects_a_sweep_table_with_a_gap(tmp_path):
    edges = planted_edges(**dict(SMALL, max_mult=1), seed="1.0")
    text = _run_cli(tmp_path, edges, run.MANIFEST["workloads"]["alpha-sweep"]["command"])
    assert check_output("sweep", text, edges) == []
    header, first, *rest = text.splitlines()
    assert rest, "the sweep should have more than one row"
    gap = first.replace(first.split(",")[1], "1/1000000", 1)
    assert check_output("sweep", "\n".join([header, gap, *rest]) + "\n", edges)
    assert check_output("sweep", "\n".join([header, first]) + "\n", edges)


def test_metric_names_are_well_formed_and_unique():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in bench[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {w["name"] for w in bench["workloads"]} == set(run.MANIFEST["workloads"])


def _traced_calls(tmp_path, name, max_mult, times):
    g = run.GraphInput(name, _spec(name, max_mult), "1.0", tmp_path / name, None)
    samples = [g.sample(traced=True) for _ in range(times)]
    assert all(s.ok for s in samples), [s.problems for s in samples]
    return [{n: s.result["trace"]["functions"][n]["calls"] for n in NAMES} for s in samples]


def test_traced_myerson_samples_repeat_and_skip_the_hedonic_layer(tmp_path):
    first, second = _traced_calls(tmp_path, "myerson-planted", 3, times=2)
    # Each sample is a fresh process, so the allocation cache starts cold
    # and the path-counting work repeats exactly.
    assert first == second
    assert first["multigraph.node_path_counts"] > 0
    assert all(first[n] == 0 for n in NAMES if n.startswith("hedonic."))


def test_traced_hedonic_sample_counts_every_binding(tmp_path):
    (calls,) = _traced_calls(tmp_path, "modularity-planted", 3, times=1)
    # potential is called through hedonic once per accepted move and
    # through cli once for the report; both bindings are wrapped.
    assert calls["hedonic.potential"] == calls["partition.apply_move"] + 1
    assert calls["hedonic.nash_stable"] == 1
    assert calls["multigraph.node_path_counts"] == 0


class _FakeGraph:
    """Stands in for a GraphInput whose samples pass at once."""

    def sample(self, traced):
        return run.Sample({"solve_s": 1.0, "setup_s": 0.1, "reference_s": run.REFERENCE_S, "peak_rss_mb": 20.0}, [])


def test_timed_run_takes_whole_passes_over_the_suite():
    suite = [_FakeGraph(), _FakeGraph(), _FakeGraph()]
    # The deadline has passed before the first sample ends, yet the pass
    # is completed, so every graph is sampled once.
    samples, passes = run._measure(suite, 0.0, trace=False)
    assert len(samples) == 3 and [len(p) for p in passes] == [3]


def test_solve_time_is_the_geometric_mean_of_per_graph_scaled_medians():
    ref = run.REFERENCE_S
    passes = [
        [run.Sample({"solve_s": a, "setup_s": 0.1, "reference_s": r * ref, "peak_rss_mb": 20.0}, []) for a, r in row]
        for row in ([(1.0, 1.0), (16.0, 2.0)], [(6.0, 2.0), (4.0, 1.0)], [(1.0, 1.0), (2.0, 1.0)])
    ]
    metrics = run._end_to_end_metrics(passes)
    # Scaled solve times are (1, 3, 1) and (8, 4, 2): sqrt(median(1, 3, 1) * median(8, 4, 2)).
    assert metrics["solve_s"] == (pytest.approx(2.0), "s")
    # Scaled set-up times are 0.1 four times and 0.05 twice.
    assert metrics["setup_s"] == (pytest.approx(0.1), "s")
    assert metrics["peak_rss_mb"] == (20.0, "MiB")


def test_untraced_sample_reports_end_to_end_measurements(tmp_path):
    g = run.GraphInput("alpha-sweep", _spec("alpha-sweep", 1), "1.0", tmp_path / "s", None)
    s = g.sample(traced=False)
    assert s.ok, s.problems
    assert s.result["solve_s"] > 0 and s.result["setup_s"] > 0 and s.result["peak_rss_mb"] > 0
    assert s.result["reference_s"] > 0
    assert "trace" not in s.result


@pytest.mark.parametrize("name", list(run.MANIFEST["workloads"]))
def test_recorded_reference_covers_the_default_seed(name):
    digests = json.loads(run.REFERENCE.read_text())[name]
    assert len(digests) == run.MANIFEST["workloads"][name]["graphs"]
