import random
from fractions import Fraction

import pytest

from hermops import hermite
from hermops.hermite import (
    _classical_hermite_polys,
    check_identities,
    from_hermite_basis,
    hermite_polys,
    three_term,
    to_hermite_basis,
    validate_alpha,
)
from hermops.laguerre import laguerre_polys
from hermops.ratpoly import ONE, X, RatPoly
from oracles import closed_form_physicists_hermite, from_roots, hermite_product_expand

F = Fraction


def test_validate_alpha():
    assert validate_alpha(F(1, 2)) == F(1, 2)
    assert validate_alpha(0) == 0
    with pytest.raises(ValueError):
        validate_alpha(F(-1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: hermite_polys(-1, 1),
        lambda: laguerre_polys(-1, 0),
        lambda: _classical_hermite_polys(-1),
    ],
    ids=["hermite", "laguerre", "physicists-hermite"],
)
def test_three_term_refuses_a_negative_degree_for_every_family(build):
    with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
        build()


def test_a_bad_parameter_is_reported_before_a_negative_degree():
    with pytest.raises(ValueError, match="^alpha must be nonnegative"):
        hermite_polys(-1, -1)
    with pytest.raises(ValueError, match="^Laguerre parameter must exceed -1"):
        laguerre_polys(-1, -1)


def test_low_degree_values():
    alpha = F(3, 2)
    H = hermite_polys(4, alpha)
    assert H[0] == ONE
    assert H[1] == X
    assert H[2] == X**2 - alpha
    assert H[3] == X**3 - 3 * alpha * X
    assert H[4] == X**4 - 6 * alpha * X**2 + 3 * alpha**2


def test_alpha_zero_is_monomials():
    H = hermite_polys(6, 0)
    for n, h in enumerate(H):
        assert h == X**n


def test_derivative_identity():
    alpha = F(2, 3)
    H = hermite_polys(10, alpha)
    for n in range(1, 11):
        assert H[n].derivative() == n * H[n - 1]


def test_eigen_identity():
    alpha = F(1, 2)
    H = hermite_polys(10, alpha)
    for n in range(11):
        lhs = n * H[n]
        rhs = X * H[n].derivative() - alpha * H[n].derivative(2)
        assert lhs == rhs


@pytest.mark.parametrize("alpha,root", [(F(1, 2), 1), (F(2), 2)])
def test_classical_rescaling(alpha, root):
    H, classical = hermite_polys(8, alpha), hermite._classical_hermite_polys(8)
    for n in range(9):
        scaled = classical[n].compose(X / root)
        assert scaled == F(2, root) ** n * H[n]


def test_classical_hermite_list_is_built_once_by_the_recurrence():
    polys = hermite._classical_hermite_polys(12)
    assert len(polys) == 13
    for n in range(1, 12):
        assert polys[n + 1] == 2 * X * polys[n] - 2 * n * polys[n - 1]
    assert [hermite._classical_hermite_polys(n) for n in range(13)] == [polys[: n + 1] for n in range(13)]
    assert hermite._classical_hermite_polys(0) == [ONE]


def test_classical_hermite_values():
    assert hermite._classical_hermite_polys(3) == [ONE, 2 * X, 4 * X**2 - 2, 8 * X**3 - 12 * X]


def test_classical_hermite_matches_the_closed_form():
    assert hermite._classical_hermite_polys(20) == [closed_form_physicists_hermite(n) for n in range(21)]


def _recurrence_on_ratpolys(n_max, step):
    """w_n*p_n = (a_n*x + b_n)*p_(n-1) - c_n*p_(n-2), one `RatPoly` division per member."""
    polys = [ONE]
    for n in range(1, n_max + 1):
        a, b, c, w = step(n)
        before = polys[n - 2] if n > 1 else RatPoly()
        polys.append(((a * X + b) * polys[n - 1] - c * before) / w)
    return polys


def test_three_term_with_no_third_term_multiplies_linear_factors():
    assert three_term(7, lambda n: (1, -n, 0, 1)) == [from_roots(range(1, n + 1)) for n in range(8)]
    assert three_term(5, lambda n: (2 * n, 1, 0, 1))[5] == from_roots(F(-1, 2 * n) for n in range(1, 6)) * (2**5 * 120)


@pytest.mark.parametrize(
    "step",
    [
        lambda n: (3, -1, 2 * n, n + 1),  # w_n = n + 1
        lambda n: (-5, 7 * n, n * n - 3, 10),  # a_n < 0, c_n of both signs, w_n = 10 shares factors with the numerators
        lambda n: (1, 0, n - 1, 2**n),  # the Hermite shape over a growing w_n
    ],
)
def test_three_term_divides_by_the_product_of_the_w_n(step):
    assert three_term(12, step) == _recurrence_on_ratpolys(12, step)


def test_three_term_at_degree_zero_is_one_and_never_steps():
    def step(n):
        raise AssertionError("step called")

    assert three_term(0, step) == [ONE]


def test_basis_round_trip_seeded():
    rng = random.Random(31)
    alpha = F(5, 4)
    for _ in range(25):
        deg = rng.randint(0, 9)
        p = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)])
        exp = to_hermite_basis(p, alpha)
        assert from_hermite_basis(exp, alpha) == p


def test_expansion_of_hermite_poly_is_unit_vector():
    alpha = F(1)
    assert to_hermite_basis(hermite_polys(5, alpha)[5], alpha) == [F(0)] * 5 + [F(1)]


def test_product_expansion_matches_direct_multiplication():
    alpha = F(3, 4)
    for n in range(7):
        for m in range(7):
            exp = hermite_product_expand(n, m, alpha)
            H = hermite_polys(max(n, m), alpha)
            assert from_hermite_basis(exp, alpha) == H[n] * H[m]


def test_product_expansion_support():
    # Only indices n+m, n+m-2, ..., |n-m| appear.
    exp = hermite_product_expand(4, 2, F(1))
    support = [i for i, c in enumerate(exp) if c != 0]
    assert support == [2, 4, 6]


def test_check_identities_passes():
    report = check_identities(12, F(1))
    assert report.passed
    assert report.checked > 0
    assert report.line() == "PASS hermite-identities (51 checks)"


def test_check_identities_alpha_zero():
    # The eigenvalue identity needs alpha > 0; the report should still pass by
    # covering the remaining identities.
    assert check_identities(8, 0).passed
