"""Gaussian noise-stability quantities.

``gamma(rho, mu, nu)`` is the mass that a rho-correlated standard
normal pair places on {X below the mu-quantile} x {Y at or above the
(1-nu)-quantile}; equivalently the inner product, under the Gaussian
measure, of the lower-indicator of mass mu with the noise operator
applied to the upper-indicator of mass nu.  The reduction to a
bivariate-normal rectangle probability was validated against a Monte
Carlo sampler before being trusted (see tests).

All results are floats.  ``gamma`` is a closed form, not a quadrature:
the event is Phi2(a, -b; -rho) with a = Phi^-1(mu), b = Phi^-1(1 - nu),
and Phi2 is written through Owen's T function (Owen, Ann. Math. Statist.
1956).  Against 30-digit mpmath integrals its error is a few units of
1e-16; documented accuracy is 1e-8.  The recursive form feeds each
level's value in as the second argument of the next level.
"""

from __future__ import annotations

import math
from typing import Sequence


def _check_prob(value: float, name: str) -> float:
    value = float(value)
    if math.isnan(value) or not 0 <= value <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def gamma(rho: float, mu: float, nu: float) -> float:
    """P[X < t_mu and Y >= t_{1-nu}] for rho-correlated standard normals.

    Accurate to 1e-8 (a few units of 1e-16 against mpmath); exact at the
    boundary cases rho in {-1, 0, 1} and mu, nu in {0, 1}.  Always a
    plain ``float``.
    """
    rho = float(rho)
    if math.isnan(rho) or not -1 <= rho <= 1:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    mu = _check_prob(mu, "mu")
    nu = _check_prob(nu, "nu")
    if mu == 0 or nu == 0:
        return 0.0
    if mu == 1:
        return nu
    if nu == 1:
        return mu
    if rho == 0:
        return mu * nu
    if rho == 1:
        # Y = X: the strip t_{1-nu} <= X < t_mu.
        return max(0.0, mu - (1 - nu))
    if rho == -1:
        # Y = -X: X < t_mu and X <= t_nu.
        return min(mu, nu)

    # imported here, not at the top: scipy.special adds about 0.35 s to
    # ``import smcsp``, and only this closed form and gamma_mc use it
    from scipy.special import ndtr, ndtri, owens_t

    # {X < a, Y >= b} is {X < h, -Y <= k} with h = a, k = -b and
    # corr(X, -Y) = -rho: the bivariate normal CDF Phi2(h, k; -rho), in
    # Owen's T form, which has no Phi(a) - Phi2(a, b; rho) cancellation
    h = ndtri(mu)
    k = -ndtri(1 - nu)
    if k == -math.inf:
        # 1 - nu rounds to 1.0 and Y >= +inf has no mass; h is finite
        # for 0 < mu < 1 (ndtri of the least subnormal is about -38.5)
        return 0.0
    s = math.sqrt(1 - rho * rho)
    if h == 0 and k == 0:
        value = 0.25 - math.asin(rho) / (2 * math.pi)
    elif h == 0 or k == 0:
        # symmetric in (h, k), and the zero one drops out
        t = h or k
        value = 0.5 * ndtr(t) - owens_t(t, rho / s)
    else:
        value = (0.5 * (ndtr(h) + ndtr(k))
                 - owens_t(h, (k + rho * h) / (h * s))
                 - owens_t(k, (h + rho * k) / (k * s))
                 - (0.0 if h * k > 0 else 0.5))
    return float(min(1.0, max(0.0, value)))


def gamma_mc(rho: float, mu: float, nu: float, n: int = 10**7,
             seed: int = 0) -> tuple:
    """Monte Carlo check of ``gamma``: returns (estimate, standard_error).

    One generator draws the n x-samples, then the n noise samples; both
    streams are read in blocks of 2**18, so memory stays bounded.
    """
    import numpy as np
    from scipy.special import ndtri

    xs, zs = np.random.default_rng(seed), np.random.default_rng(seed)
    blocks = [min(1 << 18, n - i) for i in range(0, n, 1 << 18)]
    for size in blocks:  # advance the noise stream past the x-draws
        zs.standard_normal(size)
    a, b, s = ndtri(mu), ndtri(1 - nu), math.sqrt(1 - rho * rho)
    hits = 0
    for size in blocks:
        x = xs.standard_normal(size)
        y = rho * x + s * zs.standard_normal(size)
        hits += int(np.count_nonzero((x < a) & (y >= b)))
    p = hits / n
    se = math.sqrt(max(p * (1 - p), 1e-30) / n)
    return p, se


def gamma_recursive(rhos: Sequence[float], mus: Sequence[float]) -> float:
    """Nested form: level j computes gamma(rhos[j], mus[j], <level j+1>)."""
    if len(mus) == 0:
        raise ValueError("need at least one mass argument")
    if len(rhos) != len(mus) - 1:
        raise ValueError(f"{len(mus)} masses need {len(mus) - 1} "
                         f"correlations, got {len(rhos)}")
    if len(mus) == 1:
        return _check_prob(mus[0], "mu")
    inner = gamma_recursive(rhos[1:], mus[1:])
    return gamma(rhos[0], mus[0], inner)


def gamma_power(rho: float, mu: float, k: int) -> float:
    """The k-fold nesting with all correlations rho and all masses mu."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return gamma_recursive([rho] * (k - 1), [mu] * k)


DEFAULT_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


def check_gamma_inequalities(thetas: Sequence[float] = DEFAULT_GRID,
                             lambdas: Sequence[float] = DEFAULT_GRID,
                             k_max: int = 4,
                             tol: float = 1e-6) -> dict:
    """Grid report for the two stability lower bounds.

    At each grid point with rho = 1 - lambda, checks
    ``gamma(rho, theta, theta) >= theta**(1/lambda) - tol`` and, for
    2 <= k <= k_max, the nested analogue against theta**(1/lambda**k).
    Returns every violation rather than raising; the pairwise check is
    reused inside the nested one, so the levels' rounding errors add up
    rather than compound.
    """
    checked = 0
    violations = []
    for theta in thetas:
        for lam in lambdas:
            rho = 1 - lam
            value = gamma(rho, theta, theta)
            bound = theta ** (1 / lam)
            checked += 1
            if value < bound - tol:
                violations.append({"kind": "pair", "theta": theta,
                                   "lambda": lam, "value": value,
                                   "bound": bound})
            nested = value
            for k in range(2, k_max + 1):
                if k > 2:
                    nested = gamma(rho, theta, nested)
                nested_bound = theta ** (1 / lam ** k)
                checked += 1
                if nested < nested_bound - tol:
                    violations.append({"kind": "nested", "k": k,
                                       "theta": theta, "lambda": lam,
                                       "value": nested,
                                       "bound": nested_bound})
    return {"checked": checked, "violations": violations,
            "ok": not violations}
