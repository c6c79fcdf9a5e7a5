"""Gaussian quadrant probabilities and the stability lower bound.

gamma(rho, mu, nu) is the mass a rho-correlated normal pair puts on
{X below the mu-quantile} x {Y above the (1-nu)-quantile}, computed in
closed form through Owen's T function.  The closed forms at the boundary
and a Monte Carlo run cross-check it; the tests also hold it to a
quadrature and to 30-digit mpmath integrals.

Criterion 10 encodes the lower bound gamma(1-lam, theta, theta) >=
theta^(1/lam): X low, Y high, rho = 1 - lam.  On the 81 pairwise grid
points (tolerance 1e-6) it fails at 56.  Other readings, on the same
points; "both low" is P[X < t, Y < t] = gamma(-rho, theta, theta):
  both low, rho = 1 - lam, theta^(1/lam):  31 fail
  both low, rho = lam,     theta^(1/lam):  21 fail
  both low, rho = 1 - lam, theta^(2/lam):   0 fail
30-digit mpmath witnesses (theta, lam: value < bound):
  as encoded           0.1, 0.2: 1.4958e-06 < 1.0000e-05
  both low, 1 - lam    0.1, 0.7: 0.021616   < 0.037276
  both low, rho = lam  0.1, 0.9: 0.068865   < 0.077426
The one reading that holds does so for a reason that needs no Gaussian
analysis: with rho >= 0 both-low mass is at least theta^2 (Slepian),
and theta^2 >= theta^(2/lam) for lam <= 1.

Verdict: the bound is misstated, not miscomputed.  The witnesses lie
far outside any float error, and the readings with exponent 1/lam fail
under either event.  Criterion 10 keeps its bound, grid, event and
tolerance and keeps failing; this demo reports the readings beside it.
"""

import math

from smcsp import check_gamma_inequalities, gamma, gamma_mc, gamma_power
from smcsp.gaussian import DEFAULT_GRID

print("boundary identities:")
print(f"  gamma(0, 0.3, 0.7)  = {gamma(0.0, 0.3, 0.7):.10f}  (= 0.21)")
print(f"  gamma(0.4, 1, 0.35) = {gamma(0.4, 1.0, 0.35):.10f}  (= 0.35)")
print(f"  gamma(0.5, 0.5, 0.5) = {gamma(0.5, 0.5, 0.5):.10f}  (= 1/6, "
      "since asin(1/2) = pi/6)")

est, se = gamma_mc(0.5, 0.5, 0.5, n=10**6, seed=1)
print(f"\nMonte Carlo at the same point: {est:.6f} +- {se:.6f}")

print(f"\nnested form gamma_power(0.5, 0.4, 3) = "
      f"{gamma_power(0.5, 0.4, 3):.8f}")

theta, lam = 0.1, 0.2
value = gamma(1 - lam, theta, theta)
bound = theta ** (1 / lam)
print(f"\nclaimed bound at theta={theta}, lambda={lam}:")
print(f"  gamma(1-lambda, theta, theta) = {value:.3e}")
print(f"  theta^(1/lambda)              = {bound:.3e}")
print(f"  bound holds: {value >= bound}  "
      f"(off by a factor of {bound / value:.1f})")

report = check_gamma_inequalities(tol=1e-6)
print(f"\nfull grid: {len(report['violations'])} violations out of "
      f"{report['checked']} checks")
worst = max(report["violations"],
            key=lambda v: v["bound"] / max(v["value"], 1e-300))
print(f"worst case: {worst['kind']} theta={worst['theta']} "
      f"lambda={worst['lambda']}, value {worst['value']:.3e} vs "
      f"bound {worst['bound']:.3e}")
assert math.isfinite(worst["value"])

# (reading, correlation passed to gamma, exponent numerator); both low
# with correlation rho is gamma(-rho, theta, theta)
readings = [
    ("as encoded: X low, Y high, rho = 1 - lam, theta^(1/lam)",
     lambda lam: 1 - lam, 1),
    ("both low, rho = 1 - lam, theta^(1/lam)", lambda lam: lam - 1, 1),
    ("both low, rho = lam, theta^(1/lam)", lambda lam: -lam, 1),
    ("both low, rho = 1 - lam, theta^(2/lam)", lambda lam: lam - 1, 2),
]
print("\nreadings of the pairwise bound, 81 points, tolerance 1e-6:")
for name, corr, p in readings:
    fails = sum(1 for theta in DEFAULT_GRID for lam in DEFAULT_GRID
                if gamma(corr(lam), theta, theta) < theta ** (p / lam) - 1e-6)
    print(f"  {fails:2d} fail  {name}")
pairwise = [v for v in report["violations"] if v["kind"] == "pair"]
print(f"criterion 10 itself (as encoded): {len(pairwise)} pairwise "
      "violations, reported, not replaced")
