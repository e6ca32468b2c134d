"""The record classes of trig, sweep and kummer: immutability, value
equality, hashing, repr, copying and construction, and the import they
save: a fresh ``import trigrat`` loads neither ``dataclasses`` nor
``inspect`` and the modules that come with it."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from trigrat import (
    Angle,
    Case,
    Classification,
    GroupReport,
    Hit,
    MetaGaloisElem,
    RootMembershipVerdict,
    SubsetFactor,
    SweepConfig,
    SweepReport,
    TrigFunc,
    ValueDescriptor,
    Violation,
    nth_root_in_cyclotomic,
    subset_factorizations,
)
from trigrat._record import FrozenRecord

COS, SIN, TAN = TrigFunc.COS, TrigFunc.SIN, TrigFunc.TAN

# one record of each frozen class, built afresh on each call, with its repr
FROZEN = {
    Angle: (lambda: Angle(1, 3), "Angle(p=1, q=3)"),
    Classification: (
        lambda: Classification(COS, Angle(1, 3), Case.VALUE_RATIONAL, Fraction(1, 2)),
        "Classification(func=<TrigFunc.COS: 'cos'>, angle=Angle(p=1, q=3),"
        " case=<Case.VALUE_RATIONAL: 'value_rational'>, value=Fraction(1, 2))",
    ),
    ValueDescriptor: (
        lambda: ValueDescriptor(-1, Fraction(3, 4)),
        "ValueDescriptor(sign=-1, square=Fraction(3, 4))",
    ),
    SweepConfig: (
        lambda: SweepConfig(4, 3, (TAN,)),
        "SweepConfig(q_max=4, n_max=3, funcs=(<TrigFunc.TAN: 'tan'>,))",
    ),
    Hit: (
        lambda: Hit(COS, Angle(1, 3), 1, Fraction(1, 2)),
        "Hit(func=<TrigFunc.COS: 'cos'>, angle=Angle(p=1, q=3), n=1, value=Fraction(1, 2))",
    ),
    Violation: (
        lambda: Violation(SIN, Angle(1, 6), 2, "odd power of an irrational value is rational", Fraction(1, 4)),
        "Violation(func=<TrigFunc.SIN: 'sin'>, angle=Angle(p=1, q=6), n=2,"
        " reason='odd power of an irrational value is rational', value=Fraction(1, 4))",
    ),
    SubsetFactor: (
        lambda: subset_factorizations(4, 2)[0],
        "SubsetFactor(subset=frozenset({0}), factor=RatPoly(x - 2), cofactor=RatPoly(x + 2))",
    ),
    MetaGaloisElem: (lambda: MetaGaloisElem(5, 2, 3), "MetaGaloisElem(n=5, a=2, c=3)"),
    GroupReport: (
        lambda: GroupReport(5, 20, False, True),
        "GroupReport(n=5, order=20, abelian=False, relation_holds=True)",
    ),
    RootMembershipVerdict: (
        lambda: nth_root_in_cyclotomic(Fraction(2), 2, 8),
        "RootMembershipVerdict(alpha=Fraction(2, 1), n=2, modulus=8, member=True,"
        " justification=<RootJustification.GALOIS_INVARIANCE: 'galois_invariance'>,"
        " witness=CycElem(m=8, z8 - z8^3))",
    ),
}
frozen_classes = pytest.mark.parametrize("cls", list(FROZEN), ids=lambda cls: cls.__name__)


def _report():
    return SweepReport(SweepConfig(4, 3, (TAN,)), [Hit(TAN, Angle(1, 4), 1, Fraction(1))], [],
                       {TAN: {Case.VALUE_RATIONAL: 1}}, 3)


REPORT_REPR = (
    "SweepReport(config=SweepConfig(q_max=4, n_max=3, funcs=(<TrigFunc.TAN: 'tan'>,)),"
    " hits=[Hit(func=<TrigFunc.TAN: 'tan'>, angle=Angle(p=1, q=4), n=1, value=Fraction(1, 1))],"
    " violations=[], case_counts={<TrigFunc.TAN: 'tan'>: {<Case.VALUE_RATIONAL: 'value_rational'>: 1}},"
    " queries=3)"
)


def _fields(record):
    return {name: getattr(record, name) for name in type(record).__slots__}


@frozen_classes
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = FROZEN[cls][0]()
    before = _fields(record)
    for name, value in before.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert _fields(record) == before


@frozen_classes
def test_records_with_equal_fields_are_equal_and_hash_equal(cls):
    first, second = FROZEN[cls][0](), FROZEN[cls][0]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@frozen_classes
def test_a_record_equals_no_tuple_and_no_other_record_class(cls):
    record = FROZEN[cls][0]()
    values = tuple(_fields(record).values())
    twin = type(cls.__name__, (FrozenRecord,), {"__slots__": cls.__slots__})
    lookalike = object.__new__(twin)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(lookalike, name, value)
    assert repr(lookalike) == repr(record)
    assert record != values and values != record
    assert record != lookalike and lookalike != record
    assert record != list(values)


@frozen_classes
def test_repr_names_every_field(cls):
    make, text = FROZEN[cls]
    assert repr(make()) == text


@frozen_classes
def test_copy_deepcopy_and_pickle_round_trip(cls):
    record = FROZEN[cls][0]()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record and hash(clone) == hash(record)


@frozen_classes
def test_keyword_construction(cls):
    record = FROZEN[cls][0]()
    assert cls(**_fields(record)) == record


def test_defaults():
    assert SweepConfig(q_max=4, n_max=3).funcs == (COS, SIN, TAN)
    assert Violation(COS, Angle(1, 3), None, "pole misclassified").value is None
    first, second = SweepReport(config=SweepConfig(4, 3)), SweepReport(config=SweepConfig(4, 3))
    assert (first.hits, first.violations, first.case_counts, first.queries) == ([], [], {}, 0)
    first.hits.append(Hit(TAN, Angle(1, 4), 1, Fraction(1)))
    assert second.hits == []  # each report starts with lists of its own


def test_sweep_report_is_mutable_unhashable_and_compared_by_fields():
    report = _report()
    assert report == _report() and report != _report().config
    assert repr(report) == REPORT_REPR
    with pytest.raises(TypeError):
        hash(report)
    report.queries += 1
    assert report != _report()
    for clone in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert clone == report
    assert copy.deepcopy(report).hits is not report.hits
    assert SweepReport(**_fields(report)) == report


@pytest.mark.parametrize("args, message", [
    ((1, 0), "denominator must be positive, got 0"),
    ((2, 4), "2/4 is not in lowest terms"),
    ((7, 3), r"numerator 7 outside \[0, 6\) for denominator 3"),
    ((-1, 3), r"numerator -1 outside \[0, 6\) for denominator 3"),
])
def test_angle_refuses_values_outside_the_normal_form(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Angle(*args)


@pytest.mark.parametrize("args, message", [
    ((2, Fraction(1)), "sign must be -1, 0 or 1, got 2"),
    ((1, Fraction(-1, 4)), "square must be nonnegative"),
    ((0, Fraction(1)), "sign 0 iff square 0"),
    ((1, Fraction(0)), "sign 0 iff square 0"),
])
def test_value_descriptor_refuses_values_outside_the_canonical_form(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ValueDescriptor(*args)


@pytest.mark.parametrize("module", ["trigrat", "trigrat.cli"])
def test_import_loads_no_dataclasses_or_inspect(module):
    """A fresh import of the package or its CLI leaves ``dataclasses``,
    ``inspect`` and the modules ``inspect`` pulls in unloaded: they cost a
    third of trigrat's import time, and nothing in trigrat needs them."""
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    code = f"import sys, {module}; print(sorted(set({heavy!r}) & sys.modules.keys()))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
