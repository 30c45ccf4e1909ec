"""In-memory spans around coopgraph's layer functions.

`Tracer.install` replaces each listed function at every module attribute
of the loaded `coopgraph` package that binds it, so a call is recorded
whichever module it is made through (`potential` is bound in `hedonic`
and `cli`, `node_path_counts` in `multigraph` and `myerson`, and so on).
Each call becomes one span: name, start, end and the index of the span
that was open when it began. Spans are kept in flat arrays until
`summary` folds them into per-function call counts and self times, a
span's self time being its duration minus the durations of its children
(calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, function) pairs that are traced; the metric prefix is
# "<module>.<function>".
TRACED = (
    ("cli", "cli_dispatch"),
    ("multigraph", "parse_edge_list"),
    ("multigraph", "induced_subgraph"),
    ("multigraph", "_bfs_counts"),
    ("multigraph", "node_path_counts"),
    ("partition", "run_dynamics"),
    ("partition", "enumerate_deviations"),
    ("partition", "apply_move"),
    ("partition", "canonical_form"),
    ("hedonic", "potential"),
    ("hedonic", "move_gain"),
    ("hedonic", "pair_value"),
    ("hedonic", "potential_form"),
    ("hedonic", "alpha_sweep"),
    ("hedonic", "nash_stable"),
    ("myerson", "myerson_gain"),
    ("myerson", "myerson_allocation"),
    ("myerson", "myerson_nash_stable"),
    ("myerson", "external_stability_check"),
    ("reports", "trace_to_obj"),
    ("reports", "partition_to_obj"),
    ("reports", "sweep_to_csv"),
    ("reports", "graph_digest"),
)

NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
ROOT = "cli.cli_dispatch"
PAYOFFS = ("hedonic.move_gain", "myerson.myerson_gain")
SERIALIZERS = (
    "reports.trace_to_obj",
    "reports.partition_to_obj",
    "reports.sweep_to_csv",
    "reports.graph_digest",
)


class Tracer:
    """Span recorder for one process; `install` it after importing
    `coopgraph.cli` and before the traced call."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.bindings = 0

    def _wrap(self, name_id: int, fn):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every binding of every TRACED function in the loaded
        coopgraph modules; raises if a listed function is missing."""
        modules = [m for key, m in sys.modules.items() if key == "coopgraph" or key.startswith("coopgraph.")]
        for name_id, (mod, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"coopgraph.{mod}"], fn_name)
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.bindings += 1

    def summary(self) -> dict:
        """Per-function {"calls", "self_s"}, plus the number of payoff
        evaluations made by run_dynamics."""
        n = len(self.name)
        if self._open != [-1]:
            raise RuntimeError("summary taken while spans are still open")
        self_s = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in NAMES}
        payoff_evals = 0
        dynamics = NAMES.index("partition.run_dynamics")
        payoff_ids = {NAMES.index(name) for name in PAYOFFS}
        for i in range(n):
            name = NAMES[self.name[i]]
            out[name]["calls"] += 1
            out[name]["self_s"] += self_s[i]
            p = self.parent[i]
            if self.name[i] in payoff_ids and p >= 0 and self.name[p] == dynamics:
                payoff_evals += 1
        return {"functions": out, "payoff_evals": payoff_evals, "spans": n}
