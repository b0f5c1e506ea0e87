"""The frozen records: loops, tree nodes and formula nodes.

Each is a slotted frozen dataclass whose `__init__` comes from
`records.slot_init`; everything but the constructor's speed is the
dataclass's own.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from symwcet import cft, symbolic
from symwcet.awcet import ZERO
from symwcet.cfg import TOP, LoopInfo, loop_ref
from symwcet.records import slot_init

A, B = cft.Leaf("a", 1), cft.Leaf("b", "w")
W1, W2 = symbolic.WcetId("w1"), symbolic.WcetId("w2")

RECORDS = [
    LoopInfo("h", 0, 1, ((2, 1),), ((0, 1),), ((1, 3),), "n"),
    cft.Annotation(loop_ref("h"), 2),
    cft.Leaf("a", 1, cft.Annotation(TOP, 1)),
    cft.Alt((A, B)),
    cft.Seq((A, B), cft.Annotation(TOP, 4)),
    cft.Loop("h", A, 2, B),
    symbolic.Const(ZERO),
    W1,
    symbolic.Plus((W1, W2)),
    symbolic.Max((W1, W2)),
    symbolic.Scalar(2, W1),
    symbolic.Power(W1, W2, "h", "n"),
    symbolic.Restrict(W1, "TOP", 2),
]
IDS = [type(r).__name__ for r in RECORDS]


def _values(r) -> dict:
    # The fields a constructor takes; a sum's or maximum's terms are
    # derived from its operands.
    return {f.name: getattr(r, f.name) for f in dataclasses.fields(r)
            if f.init}


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(r):
    assert not hasattr(r, "__dict__")
    for name, value in _values(r).items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, name)
        assert getattr(r, name) is value


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_equal_fields_equal_records(r):
    cls, values = type(r), _values(r)
    for twin in (cls(*values.values()), cls(**values),
                 dataclasses.replace(r), copy.deepcopy(r),
                 pickle.loads(pickle.dumps(r))):
        assert type(twin) is cls
        assert twin == r and hash(twin) == hash(r)
    assert repr(r) == "{}({})".format(
        cls.__name__, ", ".join(f"{k}={v!r}" for k, v in values.items()))


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_replace_changes_one_field(r):
    values = _values(r)
    name = next(iter(values))
    other = dataclasses.replace(r, **{name: "other"})
    assert type(other) is type(r) and other != r
    assert _values(other) == {**values, name: "other"}
    assert _values(r) == values


def test_equality_is_class_exact():
    assert cft.Alt((A, B)) != cft.Seq((A, B))
    assert symbolic.Plus((W1, W2)) != symbolic.Max((W1, W2))
    assert cft.Alt((A, B)) == cft.Alt((A, B))


def test_defaults_and_post_init():
    assert cft.Leaf("a", 1).annotation is None
    assert cft.Loop(header="h", body=A, bound=2, exit=B).annotation is None
    with pytest.raises(AssertionError, match="at least two children"):
        cft.Alt((A,))
    with pytest.raises(AssertionError, match="at least two children"):
        dataclasses.replace(cft.Alt((A, B)), children=(A,))
    with pytest.raises(TypeError):
        cft.Leaf("a")
    with pytest.raises(TypeError):
        cft.Leaf("a", 1, None, None)
    with pytest.raises(TypeError):
        cft.Leaf("a", 1, label="b")


def test_slot_init_refuses_what_it_cannot_store():
    with pytest.raises(TypeError, match="slotted"):
        @slot_init
        @dataclasses.dataclass(frozen=True)
        class Unslotted:
            x: int

    with pytest.raises(TypeError, match="plain defaults"):
        @slot_init
        @dataclasses.dataclass(frozen=True, slots=True)
        class Factory:
            x: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="plain defaults, on init fields"):
        @slot_init
        @dataclasses.dataclass(frozen=True, slots=True)
        class DerivedDefault:
            x: int
            y: int = dataclasses.field(init=False, default=0)


def test_slot_init_leaves_derived_fields_to_post_init():
    @slot_init
    @dataclasses.dataclass(frozen=True, slots=True)
    class Doubled:
        x: int
        twice: int = dataclasses.field(init=False, repr=False, compare=False)

        def __post_init__(self):
            object.__setattr__(self, "twice", 2 * self.x)

    d = Doubled(3)
    assert d.twice == 6 and repr(d).endswith(".Doubled(x=3)")
    assert dataclasses.replace(d, x=4).twice == 8
    with pytest.raises(TypeError):
        Doubled(3, 6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.twice = 7
    twin = copy.deepcopy(d)
    assert twin == d and twin.twice == 6
