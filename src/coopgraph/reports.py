"""Serialization: rationals, partition and trace JSON, sweep CSV, digests.

Formats are deterministic so that repeated runs produce identical bytes.
Rationals are always "p/q" strings (plain integers allowed), never
floats.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from typing import Iterable, Optional

from .errors import _RATIONAL_RE, _exact
from .hedonic import SweepTable
from .multigraph import Multigraph, serialize_edge_list
from .partition import Move, Partition, Trace, canonical_form

def format_rational(q) -> str:
    q = _exact(q, "rational")
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or integer strings; floats are rejected on purpose."""
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"expected a rational like '3/4' or '2', got {text!r}")
    return Fraction(text)


def partition_to_obj(p: Partition) -> dict:
    """JSON-ready form with blocks and members in canonical order."""
    return {"blocks": sorted(sorted(b) for b in p.blocks)}


def partition_from_obj(obj, universe: Optional[Iterable[str]] = None) -> Partition:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ValueError("partition JSON must be an object with a 'blocks' key")
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError("'blocks' must be a list of lists of node labels")
    return Partition(blocks, universe=universe)


def partition_to_json(p: Partition) -> str:
    return json.dumps(partition_to_obj(p), indent=2) + "\n"


def partition_from_json(text: str, universe: Optional[Iterable[str]] = None) -> Partition:
    return partition_from_obj(json.loads(text), universe=universe)


def move_to_obj(mv: Optional[Move]) -> Optional[dict]:
    """{"node", "from", "to"} row of a move, "to" a block index or "fresh"; None for None."""
    if mv is None:
        return None
    return {"node": mv.node, "from": mv.source, "to": "fresh" if mv.is_fresh else mv.target}


def trace_to_obj(trace: Trace) -> list[dict]:
    """Accepted moves as move_to_obj rows with an added "gain"."""
    return [{**move_to_obj(step.move), "gain": format_rational(step.gain)} for step in trace.steps]


def sweep_to_csv(table: SweepTable) -> str:
    """CSV with exact rational columns; partition ids are assigned by first
    appearance in the table."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "alpha_lo",
            "alpha_hi",
            "partition_id",
            "partition_canonical",
            "potential_intercept",
            "potential_slope",
        ]
    )
    ids: dict[bytes, str] = {}
    for row in table.rows:
        key = canonical_form(row.partition)
        if key not in ids:
            ids[key] = f"P{len(ids)}"
        writer.writerow(
            [
                format_rational(row.alpha_lo),
                format_rational(row.alpha_hi),
                ids[key],
                key.decode("utf-8"),
                format_rational(row.intercept),
                format_rational(row.slope),
            ]
        )
    return buf.getvalue()


def graph_digest(g: Multigraph) -> str:
    """SHA-256 of the canonical edge-list serialization."""
    return hashlib.sha256(serialize_edge_list(g).encode("utf-8")).hexdigest()
