"""The result and option records: construction, equality, hashing, repr,
immutability and validation, the same for every record type."""

import copy
import pickle

import pytest

from ncdet import (
    CheckResult,
    CHWitness,
    CommutatorDefect,
    IntegerRing,
    Matrix,
    MatrixDocument,
    SupermatrixProfile,
    VerifyReport,
)
from ncdet.verify import VerifyOptions, _OptionReader

from oracles import AxiomReport

M = Matrix(IntegerRing(), [[1, 2], [3, 4]])
N = Matrix(IntegerRing(), [[0, 1], [1, 0]])

# (record type, the fields given, in order, the defaults of the fields left
# out, one field with a different value, hashable: false for a record with
# a list, dict or set field)
RECORDS = [
    (CommutatorDefect, {"scalar": -2, "defect": M}, {}, ("scalar", 2), True),
    (SupermatrixProfile, {"n": 3, "t": 1}, {}, ("t", 2), True),
    (
        MatrixDocument,
        {"ring": IntegerRing(), "n": 1, "entries": (("7",),)},
        {"t": None},
        ("n", 2),
        True,
    ),
    (AxiomReport, {"trials": 5}, {"results": {}, "failures": []}, ("trials", 6), False),
    (CHWitness, {"lambdas": (1, -5, 2), "right_defects": (M,), "left_defects": (N,)}, {}, ("lambdas", (1,)), True),
    (CheckResult, {"name": "c", "passed": True, "elapsed_ms": 1.5}, {"detail": ""}, ("passed", False), True),
    (VerifyReport, {"suite": "all"}, {"checks": []}, ("suite", "thm2_1"), False),
    (
        VerifyOptions,
        {"n": 3},
        {"k": None, "t": None, "rank": None, "trials": None, "seed": 42},
        ("n", 4),
        True,
    ),
    (_OptionReader, {"options": VerifyOptions(n=3)}, {"read": set()}, ("options", VerifyOptions()), False),
]


@pytest.mark.parametrize(
    "cls, given, defaults, changed, hashable", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_record_semantics(cls, given, defaults, changed, hashable):
    by_position = cls(*given.values())
    by_keyword = cls(**given)
    fields = {**given, **defaults}
    for record in (by_position, by_keyword):
        assert {name: getattr(record, name) for name in fields} == fields
    # a mutable default is made afresh for each record
    for name, value in defaults.items():
        if isinstance(value, (list, dict, set)):
            assert getattr(by_position, name) is not getattr(by_keyword, name)

    assert by_position == by_keyword
    assert not by_position != by_keyword
    name, value = changed
    assert cls(**{**given, name: value}) != by_position
    assert by_position != tuple(given.values())

    assert copy.deepcopy(by_position) == by_position
    assert pickle.loads(pickle.dumps(by_position)) == by_position

    text = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_position) == f"{cls.__name__}({text})"

    with pytest.raises(AttributeError):
        setattr(by_position, name, value)
    with pytest.raises(AttributeError):
        delattr(by_position, name)
    assert getattr(by_position, name) == given[name]
    if hashable:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1
    else:
        with pytest.raises(TypeError):
            hash(by_position)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SupermatrixProfile(n=3, t=0), "block split t=0 invalid for n=3"),
        (lambda: SupermatrixProfile(3, 3), "block split t=3 invalid for n=3"),
        (lambda: VerifyOptions(n=0), "n=0 is outside the supported range 1..6"),
        (lambda: VerifyOptions(n=7), "n=7 is outside the supported range 1..6"),
        (lambda: VerifyOptions(k=0), "k must be at least 1"),
        (lambda: VerifyOptions(t=0), "t must be at least 1"),
        (lambda: VerifyOptions(rank=17), "rank=17 is outside the supported range 0..16"),
        (lambda: VerifyOptions(trials=0), "trials must be at least 1"),
    ],
)
def test_records_validate_on_construction(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: CheckResult("c", True),
        lambda: CheckResult("c", True, 1.5, "", "extra"),
        lambda: CheckResult("c", True, 1.5, name="d"),
        lambda: CheckResult("c", True, 1.5, colour="red"),
    ],
    ids=["missing", "too many", "twice", "unknown"],
)
def test_records_refuse_bad_arguments(build):
    with pytest.raises(TypeError):
        build()
