"""The package's immutable records: equality, hashing, immutability, copying,
keyword construction and their reprs."""

import copy
import pickle

import pytest

from tcore._rat import QQ
from tcore.contour import ExtractionResult, GaussianRational, QuadratureConfig
from tcore.cyclo import Cyclo
from tcore.npoint import NPointResult, SValue, brute_force_Ft
from tcore.qseries import QQ_DOMAIN, BiSeries, CycloDomain, QSeries, TaylorDomain, TaylorZ
from tcore.quadext import SqrtExt
from tcore.symfunc import SpecPoint
from tcore.theta import ThetaArg

# each record built twice from equal fields, once from other fields, and
# the text of its repr
RECORDS = {
    "GaussianRational": (
        lambda: GaussianRational(QQ(1, 2), QQ(0)),
        lambda: GaussianRational(QQ(1, 2), QQ(1)),
        "GaussianRational(real=Fraction(1, 2), imag=Fraction(0, 1))",
    ),
    "QuadratureConfig": (
        lambda: QuadratureConfig(16, 64, (QQ(3), 1.5), QQ(1, 100)),
        lambda: QuadratureConfig(32, 64, (QQ(3), 1.5), QQ(1, 100)),
        "QuadratureConfig(M=16, precision_bits=64, radii=(Fraction(3, 1), Fraction(3, 2)), "
        "Q=Fraction(1, 100))",
    ),
    "ExtractionResult": (
        lambda: ExtractionResult(GaussianRational(QQ(1, 4), QQ(-3, 8)), 64, 96, True, 1.5e-20),
        lambda: ExtractionResult(GaussianRational(QQ(1, 4), QQ(-3, 8)), 64, 96, False, 1.5e-20),
        "ExtractionResult(value=GaussianRational(real=Fraction(1, 4), imag=Fraction(-3, 8)), "
        "M=64, precision_bits=96, converged=True, est_error=1.5e-20)",
    ),
    "SValue": (
        lambda: SValue(QQ(9, 4), QQ(-3, 2)),
        lambda: SValue(QQ(9, 4), QQ(3, 2)),
        "SValue(s=Fraction(9, 4), sqrt_s=Fraction(-3, 2))",
    ),
    "NPointResult": (
        lambda: NPointResult("closed_Ft", 3, 1, (SValue(4, 2),), "x", 10, terms=3),
        lambda: NPointResult("closed_Ft", 3, 1, (SValue(4, 2),), "x", 10, terms=4),
        "NPointResult(method='closed_Ft', t=3, n=1, s=(SValue(s=Fraction(4, 1), "
        "sqrt_s=Fraction(2, 1)),), value='x', order2=10, q2=None, r=None, elapsed_ms=None, "
        "terms=3)",
    ),
    "SpecPoint": (
        lambda: SpecPoint(QQ(9, 4), (3, 1, 1)),
        lambda: SpecPoint(QQ(9, 4), (3, 1)),
        "SpecPoint(q=Fraction(9, 4), shift=(3, 1, 1))",
    ),
    "ThetaArg": (
        lambda: ThetaArg(4, 2),
        lambda: ThetaArg(4, -2),
        "ThetaArg(value=Fraction(4, 1), sqrt_value=Fraction(2, 1), dom=Q)",
    ),
}

CASES = pytest.mark.parametrize("name", list(RECORDS))


@CASES
def test_equal_fields_give_equal_records_with_equal_hashes(name):
    build, other, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other()
    # a record equals only a record of its own class
    assert a != a._fields(a)


@CASES
def test_a_field_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name][0]()
    field = type(record).__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.other = 1
    assert getattr(record, field) is before


@CASES
def test_copy_and_pickle_give_an_equal_record(name):
    record = RECORDS[name][0]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)


@CASES
def test_the_repr_is_the_field_by_field_text(name):
    _, _, text = RECORDS[name]
    assert repr(RECORDS[name][0]()) == text


def test_records_take_their_fields_by_keyword():
    cfg = QuadratureConfig(M=16, precision_bits=64, radii=(QQ(3), 1.5), Q=QQ(1, 100))
    assert cfg == RECORDS["QuadratureConfig"][0]()
    result = NPointResult(
        method="closed_Ft", t=3, n=1, s=(SValue(s=4, sqrt_s=2),), value="x", order2=10, terms=3
    )
    assert result == RECORDS["NPointResult"][0]()
    assert GaussianRational(real=QQ(1, 2)) == RECORDS["GaussianRational"][0]()
    assert ExtractionResult(
        value=GaussianRational(QQ(1, 4), QQ(-3, 8)),
        M=64,
        precision_bits=96,
        converged=True,
        est_error=1.5e-20,
    ) == RECORDS["ExtractionResult"][0]()
    assert SpecPoint(q=QQ(9, 4), shift=[3, 1, 1]) == RECORDS["SpecPoint"][0]()
    assert ThetaArg(value=4, sqrt_value=2) == RECORDS["ThetaArg"][0]()


def test_records_normalise_their_fields_on_construction():
    # a rational q or s is stored as a Fraction, a shift as a tuple, and a
    # radius as the exact rational it holds
    assert SpecPoint(2) == SpecPoint(QQ(2)) and type(SpecPoint(2).q) is QQ
    assert SpecPoint(4, [2, 2]).shift == (2, 2)
    assert SValue(4, 2).s == QQ(4) and type(SValue(4, 2).s) is QQ
    assert QuadratureConfig(8, 64, (2, 1.5), 0.01).radii == (QQ(2), QQ(3, 2))
    assert GaussianRational(QQ(1, 2)).imag == 0
    assert hash(GaussianRational(QQ(3))) == hash(GaussianRational(QQ(6, 2), QQ(0)))


# the scalars and series, which are immutable but not records, and the
# records that hold them
VALUES = {
    "Cyclo": lambda: Cyclo(12, (1, QQ(2, 3), 0, -1)),
    "SqrtExt": lambda: SqrtExt(2, QQ(1, 2), -3),
    "TaylorZ": lambda: TaylorZ.variable(TaylorDomain(CycloDomain(6), 3)) + 2,
    "QSeries": lambda: QSeries(QQ_DOMAIN, 4, {0: QQ(1), 3: QQ(-1, 2)}),
    "QSeries of TaylorZ": lambda: QSeries(
        TaylorDomain(QQ_DOMAIN, 2), 2, {2: TaylorZ.variable(TaylorDomain(QQ_DOMAIN, 2))}
    ),
    "BiSeries": lambda: BiSeries(QQ_DOMAIN, 4, {(0, 2): QQ(3), (2, 2): QQ(-1, 5)}),
    "ThetaArg over Q(zeta6)": lambda: ThetaArg.scaled_root(4, 3, 1),
    "NPointResult of a QSeries": lambda: NPointResult(
        "enumeration", 2, 1, (SValue(4, 2),), brute_force_Ft(2, (4,), 3), 6
    ),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_copy_and_pickle_give_an_equal_scalar_or_series(name):
    value = VALUES[name]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        dom = getattr(twin, "dom", None)
        assert dom is None or dom == value.dom
