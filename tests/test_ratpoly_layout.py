"""`RatPoly` as integer numerators over one denominator, against the Fraction-tuple oracle.

Every operation is run on both layouts from the same coefficients, and the
results must agree in every observable: the Fraction coefficients, the
rendered text and JSON, and the value at a point.  The canonical form
(lowest terms, positive denominator, no trailing zeros) is what makes
equality and hashing a comparison of two integer tuples, so the same
polynomial built by different routes must give the same stored pair.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermops.diffop import build_operator
from hermops.hermite import hermite_polys
from hermops.jensen import GammaSeq
from hermops.laguerre import laguerre_polys
from hermops.ratpoly import ZERO, RatPoly, _int_coeffs, rat
from oracles import (
    FractionPoly,
    fraction_hermite_polys,
    fraction_laguerre_polys,
    hermite_sum_qpolys,
    lcm_int_coeffs,
)

F = Fraction

small_rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)
big_rats = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**25))
coeffs = st.one_of(small_rats, big_rats, st.integers(-50, 50))
coeff_lists = st.lists(coeffs, max_size=7)


def assert_same(p: RatPoly, q: FractionPoly):
    assert isinstance(p, RatPoly)
    assert p.coeffs == q.coeffs
    assert all(type(c) is Fraction for c in p.coeffs)
    assert (p.degree, p.is_zero, p.leading) == (q.degree, q.is_zero, q.leading)
    assert [p.coeff(i) for i in range(-1, p.degree + 3)] == [q.coeff(i) for i in range(-1, q.degree + 3)]
    assert p.to_text() == q.to_text()
    assert p.to_json_dict() == q.to_json_dict()
    assert RatPoly(q.coeffs) == p and hash(RatPoly(q.coeffs)) == hash(p)


def both(cs):
    return RatPoly(cs), FractionPoly(cs)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(min_value=0, max_value=7), coeffs)
def test_ring_operations_match_the_fraction_oracle(a, b, keep, scalar):
    # a + cancel agrees with a + b below index `keep` and is zero from there up
    cancel = [(b[i] if i < len(b) else 0) if i < keep else -rat(c) for i, c in enumerate(a)]
    negated = [-rat(c) for c in a]
    for x, y in ((a, b), (a, cancel), (a, negated), (a, []), ([], b)):
        (p, fp), (q, fq) = both(x), both(y)
        assert_same(p + q, fp + fq)
        assert_same(p - q, fp - fq)
        assert_same(p * q, fp * fq)
        assert_same(-p, -fp)
        assert (p == q) == (fp == fq)
    p, fp = both(a)
    assert_same(p * scalar, fp * scalar)
    assert_same(scalar * p, scalar * fp)
    assert_same(p + scalar, fp + scalar)
    assert_same(scalar - p, scalar - fp)
    if rat(scalar):
        assert_same(p / scalar, fp / scalar)
    else:
        with pytest.raises(ZeroDivisionError):
            p / scalar


@settings(max_examples=150, deadline=None)
@given(coeff_lists, st.lists(coeffs, max_size=3), st.integers(min_value=0, max_value=8), coeffs)
def test_calculus_and_evaluation_match_the_fraction_oracle(a, inner, order, x0):
    (p, fp), (q, fq) = both(a), both(inner)
    assert_same(p.derivative(order), fp.derivative(order))
    assert_same(p.compose(q), fp.compose(fq))
    assert p(x0) == fp(x0)
    assert type(p(x0)) is Fraction
    if not p.is_zero:
        assert_same(p.monic(), fp.monic())
    if not q.is_zero:
        (quo, rem), (fquo, frem) = divmod(p, q), divmod(fp, fq)
        assert_same(quo, fquo)
        assert_same(rem, frem)


@settings(max_examples=150, deadline=None)
@given(coeff_lists)
def test_int_coeffs_is_the_lcm_route_and_shares_primitive_numerators(a):
    p = RatPoly(a)
    assert list(_int_coeffs(p)) == lcm_int_coeffs(FractionPoly(a))
    if p.is_zero or all(c == q for c, q in zip(_int_coeffs(p), p._num)):
        assert _int_coeffs(p) is p._num


def test_same_polynomial_three_ways_is_one_canonical_form():
    from_fractions = RatPoly([F(1, 2), F(-3, 4), F(0), F(5, 6)])
    from_text = RatPoly(["1/2", "-3/4", 0, "5/6"])
    # numerators and denominator share the factor 7, with a trailing zero
    from_numerators = RatPoly._reduced([42, -63, 0, 70, 0], 84)
    for p in (from_text, from_numerators):
        assert p == from_fractions
        assert hash(p) == hash(from_fractions)
        assert p.coeffs == from_fractions.coeffs == (F(1, 2), F(-3, 4), F(0), F(5, 6))
        assert (p._num, p._den) == ((6, -9, 0, 10), 12)
    ints = RatPoly([4, -6, 2])
    assert ints == RatPoly([F(4), "-6", F(10, 5)]) == RatPoly._reduced([12, -18, 6], 3)
    assert (ints._num, ints._den) == ((4, -6, 2), 1)
    for zero in (RatPoly([0, F(0), "0"]), RatPoly._reduced([0, 0], 5), RatPoly([1]) - RatPoly([1]), RatPoly([3]) * ZERO):
        assert zero == ZERO and hash(zero) == hash(ZERO)
        assert (zero._num, zero._den) == ((), 1)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=9, max_denominator=11)),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=18),
    st.integers(min_value=1, max_value=4),
)
def test_build_operator_integer_numerators_match_the_hermite_sum(alpha, values, order, p):
    """Q_k from numerators over step_den^(k//2)*den*k!, against the Fraction-built
    Hermite sum, at alpha = 0 and shifts p > 0 too."""
    seq = GammaSeq.from_values(values)
    for shift in (0, p):
        for q, expected in zip(build_operator(alpha, seq, order, shift).qpolys, hermite_sum_qpolys(alpha, seq, order, shift)):
            assert q == expected and hash(q) == hash(expected)
            assert q.coeffs == expected.coeffs


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=9, max_denominator=11), st.integers(min_value=0, max_value=14))
def test_hermite_polys_match_the_fraction_recurrence_oracle(alpha, n_max):
    polys = hermite_polys(n_max, alpha)
    assert len(polys) == n_max + 1
    for p, q in zip(polys, fraction_hermite_polys(n_max, alpha)):
        assert_same(p, q)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-1, max_value=9, max_denominator=11).filter(lambda a: a > -1), st.integers(min_value=0, max_value=12))
def test_laguerre_polys_match_the_fraction_closed_form_oracle(alpha, n_max):
    for p, q in zip(laguerre_polys(n_max, alpha), fraction_laguerre_polys(n_max, alpha), strict=True):
        assert_same(p, q)
