"""coopgraph benchmark: closed loop, one client, one cold process per sample.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's src/ directory. A run generates the workload's suite of
graphs from the seed (planted.py, graph i drawn from "<seed>.<i>"), then
times samples, each a new python process (sample.py) that runs one
coopgraph CLI command through coopgraph.cli.cli_dispatch on one graph
and writes its report. Every sample passes the correctness gate
(gate.py), and its output digest must match the reference recorded in
reference.json for the default seed or, for another seed, the digest of
the first sample on the same graph.

With --trace 0, the run makes whole passes over the suite, one sample
per graph in each, and stops at the pass boundary nearest --seconds (at
least one pass). Every graph is therefore sampled equally often however
fast the machine runs. Each sample also times a fixed reference
workload (sample.timed_reference), half just before the command and
half just after it, and its set-up and solve times are scaled by
REFERENCE_S / that time: on a shared host the CPU runs up to 1.8x
slower for seconds to minutes at a time, and the scaling cancels most
of that, giving seconds on a CPU that runs the reference in
REFERENCE_S. solve_s is the geometric mean
over the graphs of each graph's median scaled solve time over the
passes; setup_s and peak_rss_mb are medians over all samples. With
--trace 1, traced and untraced samples alternate on the suite's first
graph and the result carries per-layer metrics from the traced ones,
whose call counts must repeat exactly. --workload all runs every
workload in turn; --record stores the output digests of the default
seed in reference.json.

Human-readable lines go first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gate import check_output, output_digest
from planted import edge_list_text, planted_edges
from spans import NAMES, ROOT, SERIALIZERS

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
MANIFEST = json.loads((HERE / "workloads.json").read_text())
REFERENCE = HERE / "reference.json"
MIN_TRACED = 2
# Time of the two halves of sample.timed_reference on an uncontended
# 2-core 2 GHz Xeon VM, about their fastest there; scaled times are
# seconds at that speed.
REFERENCE_S = 0.1
SAMPLE_TIMEOUT_S = 150


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Sample:
    """One finished sample: its measurements and the gate's verdict."""

    def __init__(self, result: dict, problems: list[str], digest: str | None = None):
        self.result = result
        self.problems = problems
        self.digest = digest

    @property
    def ok(self) -> bool:
        return not self.problems


class GraphInput:
    """One generated graph of a workload's suite, in its own directory."""

    def __init__(self, name: str, spec: dict, seed: str, work: Path, reference: str | None):
        gen = spec["generator"]
        self.kind = spec["check"]
        self.edges = planted_edges(gen["n"], gen["groups"], gen["p_in"], gen["p_out"], gen["max_mult"], seed)
        self.work = work
        self.work.mkdir()
        graph = f"{name}.edges"
        self.out = work / f"{name}.out"
        (work / graph).write_text(edge_list_text(self.edges))
        self.argv = [a.format(graph=graph, out=self.out.name) for a in spec["command"]]
        self.reference = reference

    def describe(self) -> str:
        return f"n={len({u for e in self.edges for u in e[:2]})} m={sum(e[2] for e in self.edges)}"

    def sample(self, traced: bool) -> Sample:
        if self.out.exists():
            self.out.unlink()
        cmd = [sys.executable, str(HERE / "sample.py")]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [*cmd, repr(spawned), "1" if traced else "0", *self.argv],
                cwd=self.work,
                env=_env(),
                capture_output=True,
                text=True,
                timeout=SAMPLE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return Sample({}, [f"sample exceeded {SAMPLE_TIMEOUT_S} s"])
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return Sample({}, [f"sample process exited {proc.returncode}: {proc.stderr.strip()[-500:]}"])
        result = json.loads(lines[-1])
        result["wall_s"] = time.monotonic() - spawned
        if not Path(result["module"]).resolve().is_relative_to(SRC):
            return Sample(result, [f"imported coopgraph from {result['module']}, not {SRC}"])
        if result["status"] != 0:
            return Sample(result, [f"coopgraph exited {result['status']}: {proc.stderr.strip()[-500:]}"])
        if not self.out.exists():
            return Sample(result, ["coopgraph wrote no output file"])
        text = self.out.read_text()
        problems = check_output(self.kind, text, self.edges)
        digest = output_digest(self.kind, text)
        if self.reference is None and not problems:
            self.reference = digest
        if digest != self.reference:
            problems.append(f"output digest {digest[:12]} differs from the reference {str(self.reference)[:12]}")
        return Sample(result, problems, digest)


def make_suite(name: str, seed: int, work: Path, recorded: bool = True) -> list[GraphInput]:
    """The workload's graphs; with `recorded`, each checked against its
    digest in reference.json when the seed is the default one."""
    spec = MANIFEST["workloads"][name]
    digests = [None] * spec["graphs"]
    if recorded and seed == MANIFEST["default_seed"]:
        digests = json.loads(REFERENCE.read_text())[name]
        if len(digests) != spec["graphs"]:
            raise RuntimeError(f"reference.json holds {len(digests)} digests for {name}, not {spec['graphs']}; rerun --record")
    return [
        GraphInput(name, spec, f"{seed}.{i}", work / f"g{i}", digests[i])
        for i in range(spec["graphs"])
    ]


@contextlib.contextmanager
def _work_dir(name: str):
    """A fresh directory for one run's inputs and outputs, removed afterwards."""
    work_root = ROOT_DIR / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def warm_up() -> None:
    """Import the package once so every timed sample finds its bytecode cached."""
    subprocess.run([sys.executable, "-c", "import coopgraph.cli"], env=_env(), check=True, timeout=SAMPLE_TIMEOUT_S)


def _spread(values) -> str:
    if len(values) < 2:
        return f"{len(values)} sample"
    q = statistics.quantiles(values, n=4)
    return f"q1 {q[0]:.6g}  q3 {q[2]:.6g}  ({len(values)} samples)"


def _scaled(s: Sample, key: str) -> float:
    """The sample's `key` time in seconds at the reference CPU speed."""
    return s.result[key] * REFERENCE_S / s.result["reference_s"]


def _end_to_end_metrics(passes: list[list[Sample]]) -> dict:
    """solve_s is the geometric mean over the suite's graphs of each
    graph's median scaled solve time over the passes; setup_s (scaled)
    and peak_rss_mb, which hardly depend on the graph, are medians over
    all samples."""
    timed = [s for p in passes for s in p]
    per_graph = [statistics.median(_scaled(p[i], "solve_s") for p in passes) for i in range(len(passes[0]))]
    solve = statistics.geometric_mean(per_graph)
    raw = statistics.geometric_mean(
        [statistics.median(p[i].result["solve_s"] for p in passes) for i in range(len(passes[0]))])
    metrics = {"solve_s": (solve, "s")}
    print(f"  {'solve_s':<12} geometric mean {solve:.6g} s over {len(per_graph)} graphs of the median over"
          f" {len(passes)} passes; graph medians {min(per_graph):.6g} .. {max(per_graph):.6g} s;"
          f" unscaled {raw:.6g} s")
    references = [s.result["reference_s"] for s in timed]
    print(f"  {'reference':<12} median {statistics.median(references):.6g} s, scale to {REFERENCE_S} s;"
          f" {_spread(references)}")
    for key, unit, values in (
        ("setup_s", "s", [_scaled(s, "setup_s") for s in timed]),
        ("peak_rss_mb", "MiB", [s.result["peak_rss_mb"] for s in timed]),
    ):
        metrics[key] = (statistics.median(values), unit)
        print(f"  {key:<12} median {metrics[key][0]:.6g} {unit}; {_spread(values)}")
    return metrics


def _layer_metrics(traced: list[Sample], untraced: list[Sample]) -> tuple[dict, list[str]]:
    summaries = [s.result["trace"] for s in traced]
    first = summaries[0]
    problems = []
    calls = {n: first["functions"][n]["calls"] for n in NAMES}
    for other in summaries[1:]:
        again = {n: other["functions"][n]["calls"] for n in NAMES}
        if again != calls or other["payoff_evals"] != first["payoff_evals"]:
            problems.append("traced call counts did not repeat")

    def self_s(name):
        return statistics.median(t["functions"][name]["self_s"] for t in summaries)

    metrics = {}
    for name in NAMES:
        if name != ROOT:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_s(name), "s")
    evals = first["payoff_evals"]
    lookups = calls["myerson.myerson_allocation"]
    metrics["partition.payoff_evals"] = (evals, "count")
    metrics["partition.accept_ratio"] = (calls["partition.apply_move"] / evals if evals else 0.0, "ratio")
    metrics["myerson.allocation_hit_ratio"] = (
        1 - calls["multigraph.node_path_counts"] / lookups if lookups else 0.0,
        "ratio",
    )
    metrics["reports.serialize_s"] = (sum(self_s(name) for name in SERIALIZERS), "s")
    metrics["cli.self_s"] = (self_s(ROOT), "s")
    traced_solve = statistics.median(_scaled(s, "solve_s") for s in traced)
    untraced_solve = statistics.median(_scaled(s, "solve_s") for s in untraced)
    metrics["trace.overhead_s"] = (traced_solve - untraced_solve, "s")
    print(f"  scaled solve_s median traced {traced_solve:.6g} s, untraced {untraced_solve:.6g} s;"
          f" {first['spans']} spans, {first['bindings']} wrapped bindings")
    hot = sorted(((metrics[f"{n}.self_s"][0], n) for n in NAMES if n != ROOT), reverse=True)[:5]
    print("  largest self times: " + ", ".join(f"{n} {v:.3f} s" for v, n in hot))
    return metrics, problems


def _measure(suite: list[GraphInput], seconds: float, trace: bool):
    """Samples taken, plus the whole passes over the suite (trace 0) or
    the (traced, untraced) samples on the first graph (trace 1)."""
    samples: list[Sample] = []
    began = time.monotonic()
    if trace:
        traced, untraced = [], []
        while True:
            want = len(traced) <= len(untraced)
            s = suite[0].sample(traced=want)
            samples.append(s)
            (traced if want else untraced).append(s)
            enough = min(len(traced), len(untraced)) >= MIN_TRACED
            if not s.ok or (enough and time.monotonic() - began + s.result["wall_s"] > seconds):
                return samples, (traced, untraced)
    passes: list[list[Sample]] = []
    while True:
        pass_began = time.monotonic()
        passes.append([])
        for g in suite:
            s = g.sample(traced=False)
            samples.append(s)
            passes[-1].append(s)
            if not s.ok:
                return samples, passes
        now = time.monotonic()
        # Stop at the pass boundary nearest the deadline, so that a run
        # lasts about `seconds` on average.
        if (now - began) + (now - pass_began) / 2 > seconds:
            return samples, passes


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    with _work_dir(name) as work:
        suite = make_suite(name, seed, work)
        warm_up()
        samples, grouped = _measure(suite, seconds, trace)

    failed = sum(not s.ok for s in samples)
    print(f"workload {name} seed {seed}: {len(suite)} graphs ({'; '.join(g.describe() for g in suite)}),"
          f" {len(samples)} samples")
    print(f"  {'failed_frac':<12} {failed}/{len(samples)} = {failed / len(samples):.6g}")
    for i, s in enumerate(samples):
        for problem in s.problems:
            print(f"  sample {i} failed: {problem}")
    problems = []
    if failed:
        metrics = {}
    elif trace:
        metrics, problems = _layer_metrics(*grouped)
    else:
        metrics = _end_to_end_metrics(grouped)
    for problem in problems:
        print(f"  {problem}")

    if metrics and {k: u for k, (_, u) in metrics.items()} != declared:
        raise RuntimeError(f"metric names or units differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record(name: str) -> None:
    seed = MANIFEST["default_seed"]
    with _work_dir(name) as work:
        digests = []
        for g in make_suite(name, seed, work, recorded=False):
            s = g.sample(traced=False)
            if not s.ok:
                raise SystemExit(f"{name} seed {seed}: not recorded, a sample failed: {s.problems}")
            digests.append(s.digest)
    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    recorded[name] = digests
    REFERENCE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"{name} seed {seed}: {' '.join(d[:12] for d in digests)}")


def main(argv=None) -> int:
    names = list(MANIFEST["workloads"])
    ap = argparse.ArgumentParser(description="coopgraph benchmark")
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, default=MANIFEST["default_seed"])
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true", help="record the output digests of the default seed")
    args = ap.parse_args(argv)

    if not (SRC / "coopgraph" / "cli.py").is_file():
        print(f"error: no coopgraph sources at {SRC}; run inside a coopgraph checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    correct = True
    for name in names if args.workload == "all" else [args.workload]:
        if args.record:
            record(name)
            continue
        result = run_workload(name, args.seed, seconds, bool(args.trace), declared)
        print(json.dumps(result))
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
