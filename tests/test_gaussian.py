"""Bivariate Gaussian quadrant probabilities and the stability report."""

import math
import random
import warnings

import pytest

import oracles
from smcsp.gaussian import (DEFAULT_GRID, check_gamma_inequalities, gamma,
                            gamma_mc, gamma_power, gamma_recursive)


def test_zero_correlation_factorizes():
    for mu, nu in [(0.2, 0.7), (0.5, 0.5), (0.9, 0.1)]:
        assert abs(gamma(0.0, mu, nu) - mu * nu) < 1e-10


def test_full_mass_marginals():
    for v in (0.1, 0.4, 0.8):
        assert abs(gamma(0.3, 1.0, v) - v) < 1e-10
        assert abs(gamma(0.3, v, 1.0) - v) < 1e-10
        assert abs(gamma(0.3, 0.0, v)) < 1e-10
        assert abs(gamma(0.3, v, 0.0)) < 1e-10


def test_orthant_closed_form():
    for rho in (-0.8, -0.3, 0.0, 0.4, 0.9):
        assert abs(gamma(rho, 0.5, 0.5)
                   - oracles.gamma_orthant(rho)) < 1e-9


def test_symmetric_orthant_is_one_sixth_at_half_correlation():
    # asin(1/2) = pi/6 gives exactly 1/6
    assert abs(gamma(0.5, 0.5, 0.5) - 1 / 6) < 1e-10


def test_monte_carlo_agrees_with_quadrature():
    est, se = gamma_mc(0.5, 0.5, 0.5, n=10**6, seed=20250814)
    assert abs(est - gamma(0.5, 0.5, 0.5)) <= 4 * se


def test_blocked_monte_carlo_matches_one_shot_draws_bit_for_bit():
    # across a partial block, an exact block multiple and a short tail
    for rho, mu, nu, n, seed in [(0.5, 0.5, 0.5, 1000, 20250814),
                                 (0.5, 0.5, 0.5, 2 ** 19, 1),
                                 (0.3, 0.2, 0.7, 2 ** 18 + 1, 7),
                                 (-0.6, 0.9, 0.4, 600_007, 20250814)]:
        got = gamma_mc(rho, mu, nu, n=n, seed=seed)
        assert got == oracles.gamma_mc(rho, mu, nu, n=n, seed=seed)
        assert type(got[0]) is float


def test_monotone_in_mu_and_nu():
    prev = 0.0
    for mu in (0.1, 0.3, 0.5, 0.7, 0.9):
        cur = gamma(0.4, mu, 0.6)
        assert cur >= prev - 1e-12
        prev = cur


def test_correlation_moves_mass_against_the_quadrant():
    # the quadrant pairs a low X with a high Y, so positive correlation
    # hurts and negative helps
    assert gamma(0.8, 0.4, 0.4) < gamma(0.0, 0.4, 0.4) < gamma(-0.8, 0.4,
                                                               0.4)


def test_gamma_recursive_matches_pairwise_composition():
    got = gamma_recursive([0.3, 0.5], [0.6, 0.7, 0.8])
    want = gamma(0.3, 0.6, gamma(0.5, 0.7, 0.8))
    assert abs(got - want) < 1e-9


def test_gamma_power_iterates_equal_arguments():
    got = gamma_power(0.4, 0.6, 3)
    want = gamma(0.4, 0.6, gamma(0.4, 0.6, 0.6))
    assert abs(got - want) < 1e-9
    assert gamma_power(0.4, 0.6, 1) == 0.6


@pytest.mark.parametrize("call, message", [
    (lambda: gamma_recursive([], []), "need at least one mass argument"),
    (lambda: gamma_recursive([0.5], [0.3]),
     "1 masses need 0 correlations, got 1"),
    (lambda: gamma_power(0.5, 0.5, 0), "k must be a positive integer"),
])
def test_bad_composition_arguments_pinned(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_probability_arguments_validated():
    with pytest.raises(ValueError):
        gamma(0.5, -0.1, 0.5)
    with pytest.raises(ValueError):
        gamma(0.5, 0.5, 1.3)
    with pytest.raises(ValueError):
        gamma(1.5, 0.5, 0.5)


def test_inequality_report_shape():
    report = check_gamma_inequalities(thetas=[0.3, 0.5], lambdas=[0.5],
                                      k_max=3, tol=1e-6)
    assert set(report) == {"checked", "violations", "ok"}
    # one pair check plus two nested checks per grid point
    assert report["checked"] == 2 * 3
    assert report["ok"] == (not report["violations"])


def test_power_bound_is_reported_not_assumed():
    # the claimed lower bound theta**(1/lambda) does not hold everywhere;
    # the checker reports violations instead of hiding them
    report = check_gamma_inequalities(thetas=[0.1], lambdas=[0.2],
                                      tol=1e-6)
    assert not report["ok"]
    first = report["violations"][0]
    assert first["theta"] == 0.1
    assert first["value"] < first["bound"]
    assert math.isfinite(first["value"])


def test_closed_form_matches_quadrature_on_the_criterion_10_grid():
    for theta in DEFAULT_GRID:
        for lam in DEFAULT_GRID:
            rho = 1 - lam
            assert abs(gamma(rho, theta, theta)
                       - oracles.gamma_quad(rho, theta, theta)) < 1e-12


def test_closed_form_matches_quadrature_off_the_grid():
    # mu = 1/2 or nu = 1/2 puts a zero in the Owen's T form, which has
    # its own branches
    rng = random.Random(1956)
    for _ in range(20):
        rho = rng.uniform(-0.99, 0.99)
        mu, nu = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
        for m, n in [(mu, nu), (0.5, nu), (mu, 0.5), (0.5, 0.5)]:
            assert abs(gamma(rho, m, n)
                       - oracles.gamma_quad(rho, m, n)) < 1e-12


def test_criterion_10_witnesses_hold_at_30_digits():
    # theta = 0.1, lambda = 0.2: the 30-digit integral lies a factor of
    # about 6.7 below the bound, far beyond any float error
    first = check_gamma_inequalities()["violations"][0]
    assert (first["theta"], first["lambda"]) == (0.1, 0.2)
    exact = oracles.gamma_mp(0.8, 0.1, 0.1)
    assert abs(first["value"] - float(exact)) < 1e-15
    assert exact < first["bound"] - 1e-6
    assert 1.4958e-6 < exact < 1.4959e-6
    # the README's witnesses for the both-low readings against
    # theta^(1/lambda); both low at correlation r is gamma(-r, ...)
    for r, lam in [(0.3, 0.7), (0.9, 0.9)]:
        assert oracles.gamma_mp(-r, 0.1, 0.1) < 0.1 ** (1 / lam) - 1e-6


def test_vanishing_mass_is_exactly_zero_without_warnings():
    # 1 - 1e-17 rounds to 1.0, so the upper quantile is +inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gamma(0.5, 0.3, 1e-17) == 0.0
        check_gamma_inequalities()


def test_gamma_is_a_plain_float_on_every_branch():
    args = [(0.5, 0.0, 0.3), (0.5, 1.0, 0.3), (0.5, 0.3, 1.0),
            (0.0, 0.3, 0.4), (1.0, 0.7, 0.4), (-1.0, 0.3, 0.4),
            (0.5, 0.3, 1e-17), (0.5, 0.5, 0.5), (0.5, 0.5, 0.3),
            (0.5, 0.3, 0.5), (0.5, 0.3, 0.4), (0.5, 1, 1), (0, 1, 1)]
    assert {type(gamma(*a)) for a in args} == {float}
