import copy
import pickle
from fractions import Fraction as F

import pytest

from hermops import FactoredSpec, HermiteBasis, HermiteDiffOp, RatPoly, RealityTable, Verdict, Witness
from hermops.classify import Basis, RealityRow
from hermops.laguerre import LaguerreParam
from hermops.reporting import CheckReport


def test_passing_line():
    report = CheckReport("demo", 12)
    assert report.passed
    assert report.line() == "PASS demo (12 checks)"


def test_failing_line_counts_and_first_message():
    report = CheckReport("demo", 10, failures=("k=3 off by 1/2", "k=5 off by 2"))
    assert not report.passed
    assert report.line() == "FAIL demo (2 of 10 checks failed; first: k=3 off by 1/2)"


def test_notes_do_not_affect_status():
    report = CheckReport("demo", 1, notes=("informational",))
    assert report.passed


def test_data_defaults_to_fresh_dict():
    a = CheckReport("a", 1)
    b = CheckReport("b", 1)
    assert a.data == {}
    assert a.data is not b.data


# -- the result types as immutable value records ------------------------------

P = RatPoly([1, F(1, 2)])
X = RatPoly([0, 1])


def _family(n):
    return [X] * (n + 1)


# (class, field names, positional values, a record differing in one compared field, repr)
RECORDS = [
    (Witness, ("basis", "input_poly", "image_poly"), ("standard", P, X), Witness("standard", P, P),
     "Witness(basis='standard', input_poly=RatPoly('1/2*x + 1'), image_poly=RatPoly('x'))"),
    (Verdict, ("status", "reason", "witness", "bound"), ("falsified", "why", None, 3), Verdict("falsified", "why", None, 4),
     "Verdict(status='falsified', reason='why', witness=None, bound=3)"),
    (Basis, ("label", "family"), ("b", _family), Basis("c", _family), "Basis(label='b')"),
    (RealityRow, ("k", "real_rooted", "q"), (2, True, P), RealityRow(2, False, P),
     "RealityRow(k=2, real_rooted=True, q=RatPoly('1/2*x + 1'))"),
    (RealityTable, ("alpha", "p_shift", "rows"), (F(1), 0, ()), RealityTable(F(1), 1, ()),
     "RealityTable(alpha=Fraction(1, 1), p_shift=0, rows=())"),
    (HermiteDiffOp, ("alpha", "p_shift", "qpolys"), (F(1), 0, (P,)), HermiteDiffOp(F(1), 0, (X,)),
     "HermiteDiffOp(alpha=Fraction(1, 1), p_shift=0, qpolys=(RatPoly('1/2*x + 1'),))"),
    (FactoredSpec, ("c", "m", "sigma", "zeros"), (F(2), 1, F(1, 2), (F(3),)), FactoredSpec(F(2), 1, F(1, 2), (F(4),)),
     "FactoredSpec(c=Fraction(2, 1), m=1, sigma=Fraction(1, 2), zeros=(Fraction(3, 1),))"),
    (LaguerreParam, ("alpha", "a"), (F(0), F(1)), LaguerreParam(F(0), F(2)),
     "LaguerreParam(alpha=Fraction(0, 1), a=Fraction(1, 1))"),
    (CheckReport, ("name", "checked", "failures", "notes", "data"), ("demo", 3, ("bad",), (), {"rows": [1]}),
     CheckReport("demo", 3, ("bad",), (), {"rows": [2]}),
     "CheckReport(name='demo', checked=3, failures=('bad',), notes=(), data={'rows': [1]})"),
]


@pytest.mark.parametrize("cls, names, values, other, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, names, values, other, text):
    record = cls(*values)
    assert [getattr(record, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == record
    assert record != other and record != values
    assert record.__eq__(values) is NotImplemented
    assert repr(record) == text
    if cls is not CheckReport:  # its data dict is compared, so it has no hash
        assert hash(cls(*values)) == hash(record)
        assert len({record, cls(*values), other}) == 2
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and repr(twin) == text
        for name in names + ("extra",):
            with pytest.raises(AttributeError):
                setattr(twin, name, values[0])
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


def test_record_defaults_and_coercions():
    assert Verdict("inconclusive", "why") == Verdict("inconclusive", "why", None, None)
    assert FactoredSpec() == FactoredSpec(F(1), 0, F(0), ())
    assert FactoredSpec(m=1, sigma="1/2", zeros=(3,)) == FactoredSpec(2 * F(1, 2), 1, F(1, 2), (F(3),))
    assert HermiteDiffOp(1, 0, [P]).qpolys == (P,)
    assert CheckReport("a", 1) == CheckReport("a", 1, (), (), {})
    # Bases compare and hash by label: these two hold different lambdas.
    a, b = HermiteBasis(1), HermiteBasis(1)
    assert a.family is not b.family
    assert a == b and hash(a) == hash(b) and repr(a) == "Basis(label='hermite(1)')"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FactoredSpec(c=0), "leading constant c must be positive"),
        (lambda: FactoredSpec(m=-1), "zero multiplicity m must be nonnegative"),
        (lambda: FactoredSpec(sigma=-1), "sigma must be nonnegative"),
        (lambda: FactoredSpec(zeros=(-1,)), "all x_k must be positive"),
        (lambda: LaguerreParam(-1, 0), "Laguerre parameter must exceed -1, got -1"),
        (lambda: HermiteDiffOp(1, -1, (P,)), "p_shift must be nonnegative"),
        (lambda: HermiteDiffOp(1, 0, ()), "an operator needs at least the order-zero coefficient"),
        (lambda: HermiteDiffOp(-1, 0, (P,)), "alpha"),
    ],
)
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError, match=message):
        build()
