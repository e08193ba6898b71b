import hashlib
import json
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from hermops.classify import LaguerreBasis, falsify_sequence
from hermops.jensen import GammaSeq
from hermops.laguerre import (
    check_eigen_action,
    from_laguerre_basis,
    laguerre_operator_apply,
    laguerre_polys,
    operator_coefficients,
    to_laguerre_basis,
    validate_laguerre_alpha,
)
from hermops.ratpoly import ONE, X, RatPoly, is_real_rooted, rat_str

F = Fraction


def test_validate_alpha():
    assert validate_laguerre_alpha(F(-1, 2)) == F(-1, 2)
    with pytest.raises(ValueError):
        validate_laguerre_alpha(F(-1))
    for build, bad in ((lambda: check_eigen_action(-1, 0, 3), -1), (lambda: laguerre_operator_apply(-2, 0, ONE), -2)):
        with pytest.raises(ValueError, match=f"^Laguerre parameter must exceed -1, got {bad}$"):
            build()


def test_low_degree_values():
    alpha = F(2)
    L = laguerre_polys(2, alpha)
    assert L[0] == ONE
    assert L[1] == (alpha + 1) - X
    # L_2 = x^2/2 - (alpha+2)x + (alpha+1)(alpha+2)/2
    assert L[2] == X**2 / 2 - (alpha + 2) * X + F(4 * 3, 2)


def test_value_at_zero_is_binomial():
    for alpha in (F(0), F(1), F(3)):
        for n in range(8):
            expected = comb(n + int(alpha), n)
            assert laguerre_polys(n, alpha)[n](F(0)) == expected


def test_leading_coefficient_sign():
    for n in range(7):
        p = laguerre_polys(n, F(1, 2))[n]
        assert p.degree == n
        assert p.leading == F((-1) ** n, factorial(n))


def test_eigen_action_grid():
    for alpha in (F(0), F(1, 2), F(1), F(2)):
        for a in (F(-1), F(0), F(1), alpha + 1, alpha + 2):
            report = check_eigen_action(alpha, a, 10)
            assert report.passed, (alpha, a)


def test_operator_apply_explicit():
    L4 = laguerre_polys(4, F(2))[4]
    assert laguerre_operator_apply(F(2), F(3), L4) == 7 * L4
    assert laguerre_operator_apply(F(2), F(3), ONE) == RatPoly([3])


def test_operator_coefficients_are_real_rooted():
    for alpha in (F(0), F(1), F(5, 2)):
        for a in (F(-4), F(0), F(7)):
            for q in operator_coefficients(alpha, a):
                assert is_real_rooted(q)
                assert q.degree <= 1


def test_basis_round_trip_seeded():
    rng = random.Random(17)
    alpha = F(1)
    for _ in range(25):
        deg = rng.randint(0, 8)
        p = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg + 1)])
        coeffs = to_laguerre_basis(p, alpha)
        assert from_laguerre_basis(coeffs, alpha) == p


def test_expansion_of_laguerre_poly_is_unit_vector():
    alpha = F(1, 2)
    coeffs = to_laguerre_basis(laguerre_polys(3, alpha)[3], alpha)
    assert coeffs == [F(0), F(0), F(0), F(1)]


def test_counterexample_demo_statuses():
    # The boundary demo's verdicts, each joined to the reality of (Q_0, Q_1, Q_2) as a JSON entry without its reason.
    entries = []
    for a in (F(-1), F(0), F(1), F(2), F(3)):
        entry = falsify_sequence(GammaSeq.linear(a), LaguerreBasis(F(1)), 6).to_json_dict()
        del entry["reason"]
        real = all(is_real_rooted(q) for q in operator_coefficients(F(1), a))
        entries.append({"a": rat_str(a), "coefficients_real_rooted": real, **entry})
    by_a = {entry["a"]: entry for entry in entries}
    assert by_a["-1/1"]["status"] == "falsified"
    assert by_a["3/1"]["status"] == "falsified"
    for a in ("0/1", "1/1", "2/1"):
        assert by_a[a]["status"] == "inconclusive"
        assert by_a[a]["bound"] == 6
    for entry in entries:
        assert entry["coefficients_real_rooted"] is True
    # `hermops examples` prints no witness bytes; this pins them.
    digest = hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()
    assert digest == "b74ae1ed0cabfdd012d05f2edaf445b48c1bfef49c9ec30f1ac061d14a8ece88"
