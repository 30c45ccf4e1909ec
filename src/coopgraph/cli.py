"""Command-line surface: partition, myerson, stability, threshold, sweep, dataset.

Rational parameters are passed as "p/q" strings (plain integers allowed)
so thresholds stay exact end to end. Exit status: 0 on success, 2 on
input errors, 3 when a size-gated exact enumeration refuses the input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .datasets import dataset_info, dataset_names, load_dataset
from .errors import _INTEGER_RE, SizeGateError
from .hedonic import (
    AlphaModel,
    Modularity,
    alpha_sweep,
    better_response,
    nash_stable,
    potential,
    potential_form,
    partition_threshold,
)
from .multigraph import Multigraph, parse_edge_list, serialize_edge_list
from .myerson import (
    CharPoly,
    MyersonModel,
    _check_r,
    external_stability_check,
    myerson_allocation,
    myerson_nash_stable,
)
from .partition import _POLICIES, ROUND_ROBIN, Partition, Schedule
from .reports import (
    format_rational,
    graph_digest,
    move_to_obj,
    parse_rational,
    partition_from_json,
    partition_to_obj,
    sweep_to_csv,
    trace_to_obj,
)

def _resolve_graph(arg: str) -> Multigraph:
    if arg in dataset_names():
        return load_dataset(arg)
    path = Path(arg)
    if not path.exists():
        raise ValueError(
            f"graph {arg!r} is neither a dataset ({', '.join(dataset_names())}) "
            "nor an existing file"
        )
    return parse_edge_list(path.read_bytes())


def _resolve_init(arg: str, g: Multigraph) -> Partition:
    if arg == "singletons":
        return Partition.singletons(g.labels)
    if arg == "grand":
        return Partition.grand(g.labels)
    return _load_partition(arg, g)


def _load_partition(path: str, g: Multigraph) -> Partition:
    try:
        # UTF-8 less a leading byte-order mark, as parse_edge_list reads bytes.
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
        return partition_from_json(text, universe=g.labels)
    except ValueError as exc:
        raise ValueError(f"partition file {path!r}: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _hedonic_model(args, g: Multigraph):
    if (args.alpha is None) == (not args.modularity):
        raise ValueError("choose exactly one of --alpha p/q or --modularity")
    if args.alpha is not None:
        for flag in ("gamma", "beta"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies to --modularity only")
        vf = AlphaModel(parse_rational(args.alpha))
        return vf, {"kind": "alpha", "alpha": format_rational(vf.alpha)}
    beta_arg = "uniform:1" if args.beta is None else args.beta
    if beta_arg == "degree-norm":
        beta: Optional[Fraction] = None
        beta_desc = "degree-normalized"
    elif beta_arg.startswith("uniform:"):
        beta = parse_rational(beta_arg.split(":", 1)[1])
        beta_desc = format_rational(beta)
    else:
        raise ValueError(f"--beta must be 'uniform:p/q' or 'degree-norm', got {beta_arg!r}")
    vf = Modularity(gamma=parse_rational("1" if args.gamma is None else args.gamma), beta=beta)
    return vf, {"kind": "modularity", "gamma": format_rational(vf.gamma), "beta": beta_desc}


def _schedule(args) -> Schedule:
    return Schedule(policy=args.schedule, seed=args.seed, max_steps=args.max_steps)


def _emit_partition_report(args, g, command, model, final, trace, elapsed, **fields) -> int:
    report = {
        "command": command,
        "input": {"graph": args.graph, "digest": graph_digest(g), "n": g.n, "m": g.m},
        "model": model,
        "schedule": {"policy": args.schedule, "seed": args.seed, "max_steps": args.max_steps},
        "status": trace.status,
        "partition": partition_to_obj(final),
        **fields,
        "trace": trace_to_obj(trace),
        "timing_seconds": round(elapsed, 6),
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _cmd_partition_hedonic(args) -> int:
    g = _resolve_graph(args.graph)
    vf, model = _hedonic_model(args, g)
    start = _resolve_init(args.init, g)
    began = time.monotonic()
    final, trace = better_response(vf, g, start, _schedule(args))
    elapsed = time.monotonic() - began
    stable, witness = nash_stable(vf, g, final)
    pot = potential(vf, g, final)
    pot_obj = {"value": format_rational(pot.value)}
    if pot.intercept is not None:
        pot_obj["intercept"] = format_rational(pot.intercept)
        pot_obj["slope"] = format_rational(pot.slope)
    return _emit_partition_report(
        args, g, "partition-hedonic", model, final, trace, elapsed,
        potential=pot_obj,
        stability={"nash_stable": stable, "witness": move_to_obj(witness)},
    )


def _cmd_partition_myerson(args) -> int:
    g = _resolve_graph(args.graph)
    r = parse_rational(args.r)
    start = _resolve_init(args.init, g)
    began = time.monotonic()
    # One model for the run and both verifiers, which read its cached tables.
    model = MyersonModel.bind(g, r)
    final, trace = model.better_response(start, _schedule(args))
    elapsed = time.monotonic() - began
    stable, witness = model.nash_stable(final)
    externally_stable, entry = model.external_stability(final)
    # Release the model's tables: the allocations below build their own.
    del model
    allocation = {}
    for block in sorted(sorted(b) for b in final.blocks):
        alloc = myerson_allocation(g, frozenset(block))
        for node in block:
            allocation[node] = alloc[node].power_strings()
    return _emit_partition_report(
        args, g, "partition-myerson", {"kind": "myerson", "r": format_rational(r)}, final, trace, elapsed,
        allocation=allocation,
        stability={
            "nash_stable": stable,
            "witness": move_to_obj(witness),
            "externally_stable": externally_stable,
            "external_witness": (
                None if entry is None else {"node": entry[0], "block": entry[1]}
            ),
        },
    )


def _cmd_myerson_value(args) -> int:
    g = _resolve_graph(args.graph)
    # Labels are split at commas; a backslash before a comma or another
    # backslash makes that character literal, as in canonical_form.
    label = r"(?:\\[,\\]|[^,\\]|\\(?![,\\]))+"
    if not re.fullmatch(rf"{label}(?:,{label})*", args.coalition):
        raise ValueError(f"--coalition must list nonempty labels: {args.coalition!r}")
    parts = re.findall(label, args.coalition)
    coalition = [re.sub(r"\\([,\\])", r"\1", part) for part in parts]
    repeated = [u for u, c in Counter(coalition).items() if c > 1]
    if repeated:
        raise ValueError(f"--coalition lists node {repeated[0]!r} more than once")
    allocation = myerson_allocation(g, coalition)
    # Per component the payoffs sum to its worth, so the coalition's
    # worth needs no second table.
    value = sum(allocation.values(), CharPoly.zero())
    out = {
        "graph": args.graph,
        "coalition": sorted(coalition),
        "value": {"poly": value.power_strings(), "str": str(value)},
        "allocation": {
            node: {"poly": poly.power_strings(), "str": str(poly)}
            for node, poly in sorted(allocation.items())
        },
    }
    if args.r is not None:
        r = _check_r(parse_rational(args.r))
        out["r"] = format_rational(r)
        out["value_at_r"] = format_rational(value.evaluate(r))
        out["allocation_at_r"] = {
            node: format_rational(poly.evaluate(r))
            for node, poly in sorted(allocation.items())
        }
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0


def _cmd_stability(args) -> int:
    g = _resolve_graph(args.graph)
    p = _load_partition(args.partition, g)
    if args.model == "hedonic":
        if args.alpha is None:
            raise ValueError("--model hedonic needs --alpha p/q")
        if args.external:
            raise ValueError("--external applies to the myerson model only")
        if args.r is not None:
            raise ValueError("--r applies to the myerson model only")
        vf = AlphaModel(parse_rational(args.alpha))
        stable, witness = nash_stable(vf, g, p)
        out = {
            "model": "hedonic",
            "alpha": format_rational(vf.alpha),
            "check": "nash",
            "stable": stable,
            "witness": move_to_obj(witness),
        }
    else:
        if args.r is None:
            raise ValueError("--model myerson needs --r p/q")
        if args.alpha is not None:
            raise ValueError("--alpha applies to the hedonic model only")
        r = parse_rational(args.r)
        if args.external:
            stable, entry = external_stability_check(g, p, r)
            witness = None if entry is None else {"node": entry[0], "block": entry[1]}
            check = "external"
        else:
            stable, mv = myerson_nash_stable(g, p, r)
            witness = move_to_obj(mv)
            check = "nash"
        out = {
            "model": "myerson",
            "r": format_rational(r),
            "check": check,
            "stable": stable,
            "witness": witness,
        }
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0


def _cmd_threshold(args) -> int:
    g = _resolve_graph(args.graph)
    p1 = _load_partition(args.p1, g)
    p2 = _load_partition(args.p2, g)
    cross = partition_threshold(g, p1, p2)
    if cross is None:
        if potential_form(g, p1) == potential_form(g, p2):
            sys.stderr.write("potentials are identical for every alpha\n")
        sys.stdout.write("none\n")
    else:
        sys.stdout.write(format_rational(cross) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    g = _resolve_graph(args.graph)
    starts = [_load_partition(path, g) for path in args.starts]
    table = alpha_sweep(g, starts=starts or None, grid=args.grid)
    _emit(sweep_to_csv(table), args.out)
    return 0


def _cmd_dataset(args) -> int:
    if args.emit == "edgelist":
        sys.stdout.write(serialize_edge_list(load_dataset(args.name)))
    else:
        sys.stdout.write(json.dumps(dataset_info(args.name), indent=2) + "\n")
    return 0


def _integer(text: str) -> int:
    # Read as edge-list multiplicities are: int() would also take "1_0".
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _add_schedule_flags(sub) -> None:
    sub.add_argument("--schedule", choices=sorted(_POLICIES), default=ROUND_ROBIN)
    sub.add_argument("--seed", type=_integer, default=0)
    sub.add_argument("--max-steps", type=_integer, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopgraph",
        description="Community detection via cooperative games, in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_partition = sub.add_parser("partition", help="run better-response dynamics")
    engines = p_partition.add_subparsers(dest="engine", required=True)

    ph = engines.add_parser("hedonic", help="hedonic game dynamics")
    ph.add_argument("--graph", required=True)
    ph.add_argument("--alpha")
    ph.add_argument("--modularity", action="store_true")
    ph.add_argument("--gamma")
    ph.add_argument("--beta")
    ph.add_argument("--init", default="singletons")
    _add_schedule_flags(ph)
    ph.add_argument("--out")
    ph.set_defaults(func=_cmd_partition_hedonic)

    pm = engines.add_parser("myerson", help="Myerson-value dynamics")
    pm.add_argument("--graph", required=True)
    pm.add_argument("--r", required=True)
    pm.add_argument("--init", default="singletons")
    _add_schedule_flags(pm)
    pm.add_argument("--out")
    pm.set_defaults(func=_cmd_partition_myerson)

    p_myerson = sub.add_parser("myerson", help="Myerson value queries")
    msub = p_myerson.add_subparsers(dest="query", required=True)
    mv = msub.add_parser("value", help="coalition worth and allocation")
    mv.add_argument("--graph", required=True)
    mv.add_argument(
        "--coalition", required=True,
        help="comma-separated labels; write \\, for a comma in a label, \\\\ for a backslash",
    )
    mv.add_argument("--r")
    mv.set_defaults(func=_cmd_myerson_value)

    st = sub.add_parser("stability", help="verify a partition")
    st.add_argument("--graph", required=True)
    st.add_argument("--partition", required=True)
    st.add_argument("--model", choices=["hedonic", "myerson"], required=True)
    st.add_argument("--alpha")
    st.add_argument("--r")
    st.add_argument("--external", action="store_true")
    st.set_defaults(func=_cmd_stability)

    th = sub.add_parser("threshold", help="exact alpha where two partitions tie")
    th.add_argument("--graph", required=True)
    th.add_argument("--p1", required=True)
    th.add_argument("--p2", required=True)
    th.set_defaults(func=_cmd_threshold)

    sw = sub.add_parser("sweep", help="alpha sweep table")
    sw.add_argument("--graph", required=True)
    sw.add_argument("--starts", nargs="*", default=[])
    sw.add_argument("--grid", type=_integer, default=20)
    sw.add_argument("--out")
    sw.set_defaults(func=_cmd_sweep)

    ds = sub.add_parser("dataset", help="bundled datasets")
    ds.add_argument("--name", required=True)
    ds.add_argument("--emit", choices=["edgelist", "info"], required=True)
    ds.set_defaults(func=_cmd_dataset)

    return parser


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SizeGateError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
