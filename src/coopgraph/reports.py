"""Serialization: rationals, partition and trace JSON, sweep CSV, digests.

Formats are deterministic so that repeated runs produce identical bytes.
Rationals are always "p/q" strings (plain integers allowed), never
floats, written by errors._ratio, as CharPoly's coefficients are. Trace
rows come from a Trace (trace_to_obj) or straight from a dynamics
state's log of scaled integer gains (log_to_obj), written alike.

graph_digest takes SHA-256 from the interpreter's built-in module,
_sha2 from Python 3.12 on and _sha256 before, as CPython's random
module takes _sha512: hashlib loads OpenSSL, about 4 ms and 3.5 MiB at
the start of every command, for one digest of a short edge list.
Without either module it falls back to hashlib; the digest is the same.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Iterable, Optional

from .errors import _RATIONAL_RE, _exact, _ratio
from .hedonic import SweepTable
from .multigraph import Multigraph, serialize_edge_list
from .partition import Move, Partition, Trace, canonical_form

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def format_rational(q) -> str:
    q = _exact(q, "rational")
    return _ratio(q.numerator, q.denominator)


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
    return _row(mv.node, mv.source, mv.target)


def _row(node: str, source: int, target: Optional[int]) -> dict:
    return {"node": node, "from": source, "to": "fresh" if target is None else target}


def trace_to_obj(trace: Trace) -> list[dict]:
    """Accepted moves as move_to_obj rows with an added "gain"."""
    return [{**move_to_obj(step.move), "gain": format_rational(step.gain)} for step in trace.steps]


def log_to_obj(log: Iterable[tuple], den: int) -> list[dict]:
    """trace_to_obj's rows straight from a dynamics state's log, whose
    entries are (node label, source, target, gain) with gain an int over
    den (see partition.DynamicsState); no Move, TraceStep or Fraction is
    built."""
    return [{**_row(node, s, t), "gain": _ratio(gain, den)} for node, s, t, gain in log]


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
    return sha256(serialize_edge_list(g).encode("utf-8")).hexdigest()
