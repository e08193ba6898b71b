"""sympy as an independent oracle for the exact gcd, squarefree and Sturm code.

sympy is a test-only dependency: the module is skipped when it is missing,
and nothing in the package imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermops import ratpoly
from hermops.ratpoly import (
    RatPoly,
    count_real_roots,
    is_real_rooted,
    poly_gcd,
    squarefree_part,
)
from oracles import from_roots

sympy = pytest.importorskip("sympy")

x = sympy.Symbol("x")

small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polys = st.lists(small_rats, min_size=1, max_size=7).map(RatPoly).filter(bool)
# Repeated rational roots times an arbitrary factor, so gcds and squarefree
# parts are nontrivial.
with_repeats = st.builds(
    lambda roots, reps, q: from_roots(roots * reps) * q,
    st.lists(small_rats, max_size=3),
    st.integers(min_value=1, max_value=3),
    polys,
)


def to_sympy(p: RatPoly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)


def from_sympy(poly) -> RatPoly:
    return RatPoly(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


@settings(max_examples=60, deadline=None)
@given(with_repeats)
def test_count_real_roots_matches_sympy(p):
    # sympy's count_roots counts distinct real roots, as count_real_roots does.
    assert count_real_roots(p) == (to_sympy(p).count_roots() if p.degree > 0 else 0)


@settings(max_examples=60, deadline=None)
@given(with_repeats, with_repeats)
def test_poly_gcd_matches_sympy(p, q):
    assert poly_gcd(p, q) == from_sympy(sympy.gcd(to_sympy(p), to_sympy(q)).monic())


@settings(max_examples=60, deadline=None)
@given(with_repeats)
def test_squarefree_part_and_root_test_match_sympy(p):
    sf = to_sympy(p).sqf_part().monic() if p.degree > 0 else sympy.Poly(1, x)
    assert squarefree_part(p) == from_sympy(sf)
    # deg p - deg gcd(p, p'), read off the end of p's Sturm chain as a shortfall reads it
    assert p.degree - (len(ratpoly._sturm_chain(tuple(ratpoly._int_coeffs(p)))[-1]) - 1) == sf.degree()
    assert is_real_rooted(p) == (sf.count_roots() == sf.degree() if p.degree > 0 else True)
