"""Partitions of a node set and single-node better-response machinery.

One schedule loop, settle, drives every dynamics run. It asks a state
object for the exact gain of each deviation (a state may skip those
that cannot be positive), accepts a move only on strictly positive
gain, and returns how it stopped (Stable, CycleDetected or CapReached).
The state logs accepted moves as plain numbers; run_schedule builds the
trace from the log. run_dynamics adapts a payoff callback to it; the
hedonic and Myerson engines share one index-array state, _IndexState,
and nash_scan finds the first improving deviation of any state.
Potential games stop Stable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Optional, Protocol

from .errors import PartitionError, _exact

ROUND_ROBIN = "round-robin"
SEEDED_RANDOM = "random"
GREEDY_BEST = "greedy"
_POLICIES = (ROUND_ROBIN, SEEDED_RANDOM, GREEDY_BEST)

STABLE = "Stable"
CAP_REACHED = "CapReached"
CYCLE_DETECTED = "CycleDetected"


@dataclass(frozen=True)
class Move:
    """Relocation of one node from blocks[source] to blocks[target].

    target None means "open a fresh block"."""

    node: str
    source: int
    target: Optional[int]

    def __post_init__(self):
        if isinstance(self.source, bool) or not isinstance(self.source, int):
            raise PartitionError(f"move source must be an int, got {self.source!r}")
        t = self.target
        if t is not None and (isinstance(t, bool) or not isinstance(t, int)):
            raise PartitionError(f"move target must be an int or None, got {t!r}")
        if t == self.source:
            raise PartitionError("move target equals source")

    @property
    def is_fresh(self) -> bool:
        return self.target is None


class Partition:
    """Disjoint nonempty blocks covering a node set."""

    __slots__ = ("_blocks", "_block_of", "_covers")

    def __init__(self, blocks: Iterable[Iterable[str]], universe: Optional[Iterable[str]] = None):
        blks = []
        block_of: dict[str, int] = {}
        for k, block in enumerate(blocks):
            block = tuple(block)
            if not block:
                raise PartitionError("blocks must be nonempty")
            for node in map(_label, block):
                if node in block_of:
                    if block_of[node] == k:
                        raise PartitionError(f"node listed twice in one block: {node!r}")
                    raise PartitionError(f"node in two blocks: {node!r}")
                block_of[node] = k
            blks.append(frozenset(block))
        self._blocks = tuple(blks)
        self._block_of = block_of
        self._covers = None
        if universe is not None:
            self.check_cover(universe)

    @classmethod
    def singletons(cls, nodes: Iterable[str]) -> "Partition":
        return cls([u] for u in nodes)

    @classmethod
    def grand(cls, nodes: Iterable[str]) -> "Partition":
        """One block of all the nodes, each once; no block when there are none."""
        members = set(map(_label, nodes))
        return cls([members] if members else [])

    @property
    def blocks(self) -> tuple[frozenset[str], ...]:
        return self._blocks

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._block_of)

    def check_cover(self, universe: Iterable[str]) -> None:
        """Raise PartitionError unless the blocks cover exactly the universe.
        A tuple found covered is remembered, so checking it again is free."""
        if universe is self._covers:
            return
        labels = set(map(_label, universe))
        missing = labels - self._block_of.keys()
        extra = self._block_of.keys() - labels
        if missing:
            raise PartitionError(f"blocks do not cover: {sorted(missing)}")
        if extra:
            raise PartitionError(f"blocks contain unknown nodes: {sorted(extra)}")
        if type(universe) is tuple:
            self._covers = universe

    def block_of(self, node: str) -> int:
        try:
            return self._block_of[node]
        except KeyError:
            raise PartitionError(f"node not in partition: {node!r}") from None

    def __len__(self) -> int:
        return len(self._blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return frozenset(self._blocks) == frozenset(other._blocks)

    def __hash__(self) -> int:
        return hash(frozenset(self._blocks))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(sorted(b)) + "}" for b in self._blocks)
        return f"Partition({inner})"


def _label(node) -> str:
    # Labels are checked before they are hashed, so an unhashable one is
    # refused like any other non-string.
    if not isinstance(node, str):
        raise PartitionError(f"node label must be a string: {node!r}")
    return node


def canonical_form(p: Partition) -> bytes:
    """Canonical byte encoding: members sorted within blocks, blocks sorted
    by least member, members joined by "," and blocks by "|". A label's
    backslashes, commas and bars are escaped with a backslash, so two
    partitions are equal iff their encodings are."""
    blocks = sorted(sorted(b) for b in p.blocks)
    text = "|".join(",".join(b) for b in blocks)
    # Some label needs escaping exactly when the plain text has a
    # backslash or as many separators as members. Sweeps encode every
    # candidate, so the usual case skips the per-label pass.
    if "\\" in text or text.count(",") + text.count("|") >= sum(map(len, blocks)):
        text = "|".join(",".join(map(_escape, b)) for b in blocks)
    return text.encode("utf-8")


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace(",", "\\,").replace("|", "\\|")


def _index_blocks(g, p: Partition) -> list[list[int]]:
    # The one way a partition enters an engine: p must cover exactly the
    # Multigraph g's nodes, and its blocks are returned as graph indices.
    p.check_cover(g.labels)
    index = g.index_of
    return [[index(u) for u in block] for block in p.blocks]


def _check_move(p: Partition, mv: Move) -> None:
    # Block indices are checked before use: a negative one would wrap.
    blocks = p.blocks
    if not (0 <= mv.source < len(blocks)) or mv.node not in blocks[mv.source]:
        raise PartitionError(f"node {mv.node!r} not in source block {mv.source}")
    if mv.target is not None and not (0 <= mv.target < len(blocks)):
        raise PartitionError(f"no such target block: {mv.target}")


def apply_move(p: Partition, mv: Move) -> Partition:
    """Apply a single-node move. The vacated block is dropped when it
    empties; a fresh block is appended at the end."""
    _check_move(p, mv)
    blocks = [set(b) for b in p.blocks]
    blocks[mv.source].discard(mv.node)
    if mv.is_fresh:
        blocks.append({mv.node})
    else:
        blocks[mv.target].add(mv.node)
    return Partition(b for b in blocks if b)


def enumerate_deviations(p: Partition, node: str) -> list[Move]:
    """Every deviation available to the node: each other existing block in
    index order, then a fresh block unless the node is already alone."""
    src = p.block_of(node)
    moves = [Move(node, src, k) for k in range(len(p.blocks)) if k != src]
    if len(p.blocks[src]) > 1:
        moves.append(Move(node, src, None))
    return moves


@dataclass(frozen=True)
class Schedule:
    """Deviation scheduling policy for run_dynamics.

    Policies: round-robin (nodes in label order, first improving move),
    random (per-pass node order drawn from the seed), greedy (best gain
    over all node-move pairs each step). seed is an int; max_steps is a
    positive int, or None to let the runner default to 1000 * n accepted
    moves. Bools are neither.
    """

    policy: str = ROUND_ROBIN
    seed: int = 0
    max_steps: Optional[int] = None

    def __post_init__(self):
        if self.policy not in _POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; expected one of {_POLICIES}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        steps = self.max_steps
        if steps is not None and (isinstance(steps, bool) or not isinstance(steps, int) or steps < 1):
            raise PartitionError(f"max_steps must be None or a positive int, got {steps!r}")


@dataclass(frozen=True)
class TraceStep:
    """An accepted move and the mover's exact gain."""

    move: Move
    gain: Fraction


@dataclass(frozen=True)
class Trace:
    """Accepted moves of a dynamics run plus how the run stopped."""

    steps: tuple[TraceStep, ...]
    status: str


PayoffFn = Callable[[Partition, Move], Fraction]


class DynamicsState(Protocol):
    """Mutable partition state driven by settle.

    nodes lists the nodes in label order, as labels for _CallbackState
    and graph indices for the engines' _IndexState. deviations yields
    (handle, gain) for the deviations of a node, lazily and in
    enumerate_deviations order, and may skip any that cannot gain; gains
    are exact, den times the mover's payoff change. accept applies one
    and appends (node label, source, target, gain) to log; run_schedule
    builds the trace from log and den, only when a trace is asked for.
    move(node, handle) names a deviation as a Move on the current
    partition, for nash_scan (_CallbackState, never scanned, has none).
    cycle_key is a hashable key, equal for two partitions iff they are
    equal, or None where a potential rules out cycles.
    """

    nodes: list
    log: list
    den: int

    def deviations(self, node) -> Iterator[tuple[object, object]]: ...

    def accept(self, node, handle, gain) -> None: ...

    def move(self, node, handle) -> Move: ...

    def cycle_key(self) -> Optional[Hashable]: ...

    def partition(self) -> Partition: ...


def settle(state: DynamicsState, schedule: Schedule = Schedule()) -> str:
    """Apply strictly improving single-node deviations until none is left,
    and return how the run stopped.

    A deviation is accepted only when its gain is strictly positive, so
    ties keep the current coalition. Round-robin visits the nodes in
    order and takes each node's first improving deviation; random does
    the same in a per-pass order drawn from the seed; greedy takes the
    first strict maximum over all node-deviation pairs.

    Stops Stable when no node has an improving deviation, CycleDetected
    when a previously seen partition reappears (possible only for payoffs
    without a potential), or CapReached after max_steps accepted moves.
    """
    nodes = state.nodes
    cap = schedule.max_steps if schedule.max_steps is not None else 1000 * max(len(nodes), 1)
    rng = random.Random(schedule.seed)
    key = state.cycle_key()
    seen = None if key is None else {key}
    accepted = 0

    def accept(node, handle, gain) -> Optional[str]:
        nonlocal accepted
        state.accept(node, handle, gain)
        accepted += 1
        if seen is not None:
            key = state.cycle_key()
            if key in seen:
                return CYCLE_DETECTED
            seen.add(key)
        if accepted >= cap:
            return CAP_REACHED
        return None

    if schedule.policy == GREEDY_BEST:
        while True:
            best = None
            for node in nodes:
                for handle, gain in state.deviations(node):
                    if gain > 0 and (best is None or gain > best[2]):
                        best = (node, handle, gain)
            if best is None:
                return STABLE
            stop = accept(*best)
            if stop is not None:
                return stop

    while True:
        order = nodes if schedule.policy == ROUND_ROBIN else rng.sample(nodes, len(nodes))
        moved = False
        for node in order:
            for handle, gain in state.deviations(node):
                if gain > 0:
                    moved = True
                    stop = accept(node, handle, gain)
                    if stop is not None:
                        return stop
                    break
        if not moved:
            return STABLE


def run_schedule(state: DynamicsState, schedule: Schedule = Schedule()) -> tuple[Partition, Trace]:
    """settle, then the final partition and the trace of the run, built
    from the state's log with exact gains gain / den."""
    status = settle(state, schedule)
    den = state.den
    steps = tuple(TraceStep(Move(node, s, t), Fraction(gain, den)) for node, s, t, gain in state.log)
    return state.partition(), Trace(steps, status)


def nash_scan(state) -> tuple[bool, Optional[Move]]:
    """(True, None) when no node of the dynamics state has a strictly
    improving deviation; otherwise False and the first one, in node order
    and then deviation order, as state.move(node, handle) gives it."""
    for node in state.nodes:
        for handle, gain in state.deviations(node):
            if gain > 0:
                return False, state.move(node, handle)
    return True, None


class _IndexState:
    """The engines' DynamicsState less deviations, over graph indices.

    block[i] is the position of node i's block, numbered as apply_move
    numbers them (an emptied block is dropped and later positions shift
    down; a fresh block is appended); size and total hold each block's
    member count and sum of weight. Gains stay scaled integers, in the
    log too. A game without a potential overrides cycle_key.
    """

    def __init__(self, labels, blocks, weight, den: int):
        self.labels, self.weight, self.den = labels, weight, den
        position = {i: k for k, members in enumerate(blocks) for i in members}
        self.block = [position[i] for i in range(len(labels))]
        self.size = [len(members) for members in blocks]
        self.total = [sum(weight[i] for i in members) for members in blocks]
        self.nodes = sorted(range(len(labels)), key=labels.__getitem__)
        self.log: list[tuple] = []

    def move(self, i: int, target: Optional[int]) -> Move:
        return Move(self.labels[i], self.block[i], target)

    def accept(self, i: int, target: Optional[int], gain: int) -> None:
        block, size, total = self.block, self.size, self.total
        s, w = block[i], self.weight[i]
        self.log.append((self.labels[i], s, target, gain))
        if target is None:
            target = len(size)
            size.append(0)
            total.append(0)
        size[s] -= 1
        total[s] -= w
        size[target] += 1
        total[target] += w
        block[i] = target
        if size[s] == 0:
            del size[s], total[s]
            block[:] = [b - (b > s) for b in block]

    def cycle_key(self) -> None:
        return None

    def partition(self) -> Partition:
        blocks: list[list[str]] = [[] for _ in self.size]
        for label, b in zip(self.labels, self.block):
            blocks[b].append(label)
        p = Partition(blocks)
        p._covers = self.labels  # the graph's label tuple, each placed once
        return p


class _CallbackState:
    """Immutable Partition values advanced by apply_move, with gains from a
    payoff callback."""

    def __init__(self, payoff: PayoffFn, start: Partition):
        self.payoff = payoff
        self.p = start
        self.nodes = sorted(start.nodes)
        self.log: list[tuple] = []
        self.den = 1

    def deviations(self, node):
        p = self.p
        for mv in enumerate_deviations(p, node):
            yield mv, _exact(self.payoff(p, mv), "gain")

    def accept(self, node, mv: Move, gain) -> None:
        self.p = apply_move(self.p, mv)
        self.log.append((node, mv.source, mv.target, gain))

    def cycle_key(self) -> bytes:
        return canonical_form(self.p)

    def partition(self) -> Partition:
        return self.p


def run_dynamics(
    payoff: PayoffFn, start: Partition, schedule: Schedule = Schedule()
) -> tuple[Partition, Trace]:
    """run_schedule with gains from a payoff callback.

    payoff(partition, move) must return an exact gain, an int, a Fraction
    or a "p/q" string; a float or bool raises ValueError at the first
    deviation. The trace records each accepted move with its gain. Every
    accepted partition is kept for cycle detection, since a callback need
    not come from a potential.
    """
    return run_schedule(_CallbackState(payoff, start), schedule)
