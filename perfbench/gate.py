"""Correctness gate for one benchmark sample.

A sample passes only when the command exited 0 and its output checks
out against the generated graph, recomputed here without coopgraph:

- partition reports: status Stable, nash_stable true, the partition
  covers every node once, n and m match the edge list, and for the
  modularity model the reported potential equals the exact modularity
  potential of the reported partition;
- sweep tables: rows tile [0, 1] without gaps or overlaps, every row's
  partition covers every node once, and its intercept and slope equal the
  link and pair counts of that partition.

`output_digest` hashes the output with `timing_seconds` and `stats`
removed, for comparison against a recorded reference digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction

VOLATILE_KEYS = ("timing_seconds", "stats")


def output_digest(kind: str, text: str) -> str:
    if kind == "sweep":
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
    report = {k: v for k, v in json.loads(text).items() if k not in VOLATILE_KEYS}
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cover_problem(blocks, labels) -> str | None:
    members = [u for b in blocks for u in b]
    if len(members) != len(set(members)) or set(members) != labels:
        return "partition does not cover every node exactly once"
    return None


def _degrees(edges):
    deg: dict[str, int] = {}
    for u, v, w in edges:
        deg[u] = deg.get(u, 0) + w
        deg[v] = deg.get(v, 0) + w
    return deg


def _modularity_potential(edges, blocks) -> Fraction:
    # Sum over within-block pairs of A_uv - d_u d_v / 2m (gamma 1, beta 1).
    m2 = 2 * sum(w for _, _, w in edges)
    deg = _degrees(edges)
    block_of = {u: k for k, b in enumerate(blocks) for u in b}
    links = sum(w for u, v, w in edges if block_of[u] == block_of[v])
    pairs = Fraction(0)
    for b in blocks:
        total = sum(deg[u] for u in b)
        pairs += Fraction(total * total - sum(deg[u] ** 2 for u in b), 2 * m2)
    return links - pairs


def check_partition_report(kind: str, text: str, edges) -> list[str]:
    labels = {u for e in edges for u in e[:2]}
    try:
        report = json.loads(text)
        problems = []
        if report["status"] != "Stable":
            problems.append(f"status {report['status']!r}, expected 'Stable'")
        if report["stability"]["nash_stable"] is not True:
            problems.append("nash_stable is not true")
        if report["input"]["n"] != len(labels) or report["input"]["m"] != sum(e[2] for e in edges):
            problems.append("reported n or m differs from the edge list")
        blocks = report["partition"]["blocks"]
        cover = _cover_problem(blocks, labels)
        if cover:
            return problems + [cover]
        if kind == "modularity":
            expected = _modularity_potential(edges, blocks)
            if Fraction(report["potential"]["value"]) != expected:
                problems.append(f"potential {report['potential']['value']} != {expected}")
        if kind == "myerson" and set(report["allocation"]) != labels:
            problems.append("allocation does not list every node")
        return problems
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


def check_sweep(text: str, edges) -> list[str]:
    labels = {u for e in edges for u in e[:2]}
    adjacent = {frozenset(e[:2]) for e in edges}
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            return ["sweep table is empty"]
        problems = []
        edge = Fraction(0)
        for i, row in enumerate(rows):
            lo, hi = Fraction(row["alpha_lo"]), Fraction(row["alpha_hi"])
            if lo != edge or not lo < hi:
                problems.append(f"row {i}: [{lo}, {hi}] does not continue from {edge}")
            edge = hi
            blocks = [b.split(",") for b in row["partition_canonical"].split("|")]
            cover = _cover_problem(blocks, labels)
            if cover:
                problems.append(f"row {i}: {cover}")
                continue
            links = sum(
                1
                for b in blocks
                for x in range(len(b))
                for y in range(x + 1, len(b))
                if frozenset((b[x], b[y])) in adjacent
            )
            pairs = sum(len(b) * (len(b) - 1) // 2 for b in blocks)
            if Fraction(row["potential_intercept"]) != links or Fraction(row["potential_slope"]) != -pairs:
                problems.append(f"row {i}: potential form differs from ({links}, {-pairs})")
        if edge != 1:
            problems.append(f"rows end at {edge}, not 1")
        return problems
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed sweep table: {exc!r}"]


def check_output(kind: str, text: str, edges) -> list[str]:
    """Problems found in one command's output; empty when it passes."""
    if kind == "sweep":
        return check_sweep(text, edges)
    return check_partition_report(kind, text, edges)
