"""The frozen public records: Move, Schedule, TraceStep, Trace,
AlphaModel, Modularity, Potential, HedonicModel, SweepRow, SweepTable,
PathProfile and NodePathProfile. Each keeps the behaviour it had as a
frozen dataclass: the repr text, equality within one class only, a hash
over the fields (identity for HedonicModel), no assignment or deletion,
positional, keyword and default arguments, class patterns by position,
and every check's message."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from coopgraph import (
    AlphaModel,
    HedonicModel,
    Modularity,
    Move,
    Partition,
    PartitionError,
    Potential,
    Schedule,
    load_dataset,
)
from coopgraph.hedonic import SweepRow, SweepTable
from coopgraph.multigraph import NodePathProfile, PathProfile
from coopgraph.partition import Trace, TraceStep

STEP = TraceStep(Move("A", 0, 1), Fraction(1, 2))
ROW = SweepRow(Fraction(0), Fraction(1), Partition([{"A"}, {"B"}]), Fraction(1), Fraction(-1))

# (record, its repr, one of its fields)
RECORDS = [
    (Move("A", 0, None), "Move(node='A', source=0, target=None)", "node"),
    (Schedule(), "Schedule(policy='round-robin', seed=0, max_steps=None)", "policy"),
    (STEP, "TraceStep(move=Move(node='A', source=0, target=1), gain=Fraction(1, 2))", "gain"),
    (
        Trace((STEP,), "Stable"),
        "Trace(steps=(TraceStep(move=Move(node='A', source=0, target=1), gain=Fraction(1, 2)),), status='Stable')",
        "status",
    ),
    (AlphaModel("1/2"), "AlphaModel(alpha=Fraction(1, 2))", "alpha"),
    (Modularity(), "Modularity(gamma=Fraction(1, 1), beta=Fraction(1, 1))", "beta"),
    (Potential(Fraction(3)), "Potential(value=Fraction(3, 1), intercept=None, slope=None)", "value"),
    (
        ROW,
        "SweepRow(alpha_lo=Fraction(0, 1), alpha_hi=Fraction(1, 1), partition=Partition({A}, {B}), "
        "intercept=Fraction(1, 1), slope=Fraction(-1, 1))",
        "partition",
    ),
    (
        SweepTable((ROW,)),
        "SweepTable(rows=(SweepRow(alpha_lo=Fraction(0, 1), alpha_hi=Fraction(1, 1), partition=Partition({A}, {B}), "
        "intercept=Fraction(1, 1), slope=Fraction(-1, 1)),))",
        "rows",
    ),
    (PathProfile((2, 1)), "PathProfile(counts=(2, 1))", "counts"),
    (NodePathProfile({"A": (1,)}, 1), "NodePathProfile(counts={'A': (1,)}, max_distance=1)", "max_distance"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.fixture
def bound():
    return HedonicModel.bind(AlphaModel(0), load_dataset("example1"))


@pytest.mark.parametrize("record, text, field", RECORDS, ids=IDS)
def test_repr(record, text, field):
    assert repr(record) == text


def test_hedonic_model_repr(bound):
    assert repr(bound) == (
        "HedonicModel(vf=AlphaModel(alpha=Fraction(0, 1)), g=Multigraph(n=6, m=9), "
        "a=({1: 1, 2: 1, 3: 1}, {0: 1, 2: 1}, {0: 1, 1: 1}, {0: 1, 4: 1, 5: 1}, {3: 1, 5: 1}, {3: 1, 4: 1}), "
        "c=(1, 1, 1, 1, 1, 1), lam=1, kap=0, den=1)"
    )


@pytest.mark.parametrize("record, text, field", RECORDS, ids=IDS)
def test_assignment_and_deletion_are_refused(record, text, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert repr(record) == text


def test_hedonic_model_is_frozen(bound):
    with pytest.raises(AttributeError):
        bound.lam = 2
    with pytest.raises(AttributeError):
        del bound.den


@pytest.mark.parametrize("record, text, field", RECORDS, ids=IDS)
def test_a_copy_is_equal(record, text, field):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and not twin != record
        assert repr(twin) == text


def test_equal_records_hash_alike():
    assert Move("A", 0, 1) == Move(node="A", source=0, target=1)
    assert hash(Move("A", 0, 1)) == hash(Move(node="A", source=0, target=1))
    assert len({Schedule(), Schedule("round-robin", 0, None), Schedule(seed=1)}) == 2
    assert hash(AlphaModel("1/2")) == hash(AlphaModel(Fraction(1, 2)))
    assert Potential(1) == Potential(Fraction(1), None, None)
    assert hash(PathProfile((2, 1))) == hash(PathProfile(counts=(2, 1)))
    assert Move("A", 0, 1) != Move("A", 0, 2)


def test_records_equal_only_records_of_their_own_class():
    assert Move("A", 0, 1) != ("A", 0, 1)
    assert ("A", 0, 1) != Move("A", 0, 1)
    assert PathProfile((1,)) != SweepTable((1,))

    class Twin(PathProfile):
        pass

    assert Twin((1,)) != PathProfile((1,))
    assert Twin((1,)) == Twin((1,))
    assert repr(Twin((1,))) == "test_records_equal_only_records_of_their_own_class.<locals>.Twin(counts=(1,))"


def test_hedonic_model_compares_and_hashes_by_identity(bound):
    twin = HedonicModel.bind(AlphaModel(0), load_dataset("example1"))
    assert bound == bound and bound != twin
    assert hash(bound) == object.__hash__(bound)
    assert len({bound, twin}) == 2


def test_defaults_and_keywords():
    assert Schedule() == Schedule("round-robin", 0, None)
    assert Schedule(max_steps=5) == Schedule("round-robin", 0, 5)
    assert Schedule("random", max_steps=3).seed == 0
    assert Modularity() == Modularity(Fraction(1), Fraction(1))
    assert Modularity(beta=None).gamma == 1
    assert Potential(Fraction(2)).slope is None
    assert Move(target=None, node="A", source=0) == Move("A", 0, None)


def test_class_patterns_match_by_position():
    match Trace((STEP,), "Stable"):
        case Trace((TraceStep(Move(node, source, target), gain),), status):
            assert (node, source, target, gain, status) == ("A", 0, 1, Fraction(1, 2), "Stable")
        case _:
            pytest.fail("no positional match")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Move("A", 0),
        lambda: Move("A", 0, 1, 2),
        lambda: Move("A", 0, 1, extra=2),
        lambda: Move("A", 0, node="B"),
        lambda: Schedule("random", policy="greedy"),
        lambda: Potential(),
        lambda: TraceStep(gain=1),
        lambda: SweepTable(),
    ],
    ids=["missing", "too-many", "unknown-keyword", "repeated", "repeated-default", "no-value", "missing-first", "empty"],
)
def test_a_missing_or_unknown_argument_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Move("A", True, 1), PartitionError, "move source must be an int, got True"),
        (lambda: Move("A", "0", 1), PartitionError, "move source must be an int, got '0'"),
        (lambda: Move("A", 0, "1"), PartitionError, "move target must be an int or None, got '1'"),
        (lambda: Move("A", 0, False), PartitionError, "move target must be an int or None, got False"),
        (lambda: Move("A", 1, 1), PartitionError, "move target equals source"),
        (
            lambda: Schedule("bogus"),
            ValueError,
            "unknown policy 'bogus'; expected one of ('round-robin', 'random', 'greedy')",
        ),
        (lambda: Schedule(seed=1.0), ValueError, "seed must be an int, got 1.0"),
        (lambda: Schedule(seed=True), ValueError, "seed must be an int, got True"),
        (lambda: Schedule(max_steps=0), PartitionError, "max_steps must be None or a positive int, got 0"),
        (lambda: Schedule(max_steps=True), PartitionError, "max_steps must be None or a positive int, got True"),
        (
            lambda: AlphaModel(0.5),
            ValueError,
            "alpha must be an int, a Fraction or a 'p/q' string, got the float 0.5",
        ),
        (lambda: AlphaModel(2), ValueError, "alpha must lie in [0, 1], got 2"),
        (lambda: AlphaModel("-1/2"), ValueError, "alpha must lie in [0, 1], got -1/2"),
        (
            lambda: Modularity(gamma="x"),
            ValueError,
            "gamma must be an int, a Fraction or a 'p/q' string, got the str 'x'",
        ),
        (
            lambda: Modularity(beta=True),
            ValueError,
            "beta must be an int, a Fraction or a 'p/q' string, got the bool True",
        ),
    ],
)
def test_every_check_keeps_its_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_checks_rebind_their_fields():
    assert AlphaModel("1/2").alpha == Fraction(1, 2)
    assert type(Modularity(gamma=2, beta="1/3").beta) is Fraction
