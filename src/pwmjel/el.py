"""One-dimensional empirical likelihood for a mean.

Given points z_1..z_m and a hypothesized mean mu, the EL weights are
``p_k = 1 / (m * (1 + lam * (z_k - mu)))`` where the multiplier lam solves

    (1/m) * sum_k (z_k - mu) / (1 + lam * (z_k - mu)) = 0.

The score is strictly decreasing in lam on the feasibility interval
``(-1/(max z - mu), 1/(mu - min z))``, so the root is unique whenever mu
lies strictly inside the hull of the points (Owen 1988).  The log ratio
``l = -sum_k log(1 + lam * (z_k - mu))`` is never positive and ``-2 l`` is
the usual chi-square calibrated statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, HullError, PwmInputError

__all__ = [
    "ELSolution",
    "hull_contains",
    "solve_lambda",
    "neg2_log_ratio",
    "neg2_log_ratio_and_slope",
]

# Relative shrink applied to the feasibility endpoints before bracketing.
_EDGE_MARGIN = 1e-12


@dataclass(frozen=True)
class ELSolution:
    """Solved multiplier with its weights and log likelihood ratio."""

    lam: float
    weights: np.ndarray
    log_ratio: float
    iterations: int
    converged: bool


def _validate_points(z, mu):
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise PwmInputError("EL points must be one-dimensional")
    if z.size < 2:
        raise PwmInputError("EL needs at least two points")
    if not np.isfinite(z).all():
        raise PwmInputError("EL points contain non-finite values")
    if not np.isfinite(mu):
        raise PwmInputError("hypothesized mean must be finite")
    return z, float(mu)


def hull_contains(z, mu) -> bool:
    """True when mu lies strictly between min(z) and max(z)."""
    z, mu = _validate_points(z, mu)
    return bool(z.min() < mu < z.max())


def solve_lambda(z, mu, tol: float = 1e-10, max_iter: int = 100,
                 lam0: float = 0.0) -> ELSolution:
    """Solve the EL score equation for the multiplier.

    Newton iteration started at ``lam0`` (at 0 when ``lam0`` is not strictly
    feasible for this mu), safeguarded by bisection against
    the feasibility bracket, which keeps every iterate on the side where
    all weights stay positive (also after a slope underflow).  Convergence
    means |score| <= ``tol * max(|mu|, max|z - mu|)``, a scale-free test.

    Raises
    ------
    HullError
        If mu is not strictly inside the hull of z (a constant z fails for
        every mu, including its own value).
    ConvergenceError
        If the budget runs out; the best iterate rides along as ``best``.
    """
    z, mu = _validate_points(z, mu)
    d = z - mu
    dmin, dmax = float(d.min()), float(d.max())
    if not (dmin < 0.0 < dmax):
        raise HullError(
            f"mean {mu} is not interior to the sample hull [{z.min()}, {z.max()}]"
        )
    m = z.size
    gtol = tol * max(abs(mu), -dmin, dmax)

    lo = (-1.0 / dmax) * (1.0 - _EDGE_MARGIN)
    hi = (-1.0 / dmin) * (1.0 - _EDGE_MARGIN)
    u = np.empty_like(d)

    def score_and_slope(lam):
        # u = d / (1 + lam*d) in one buffer; add.reduce(u) / m is the sum
        # np.mean takes, without its wrapper (np.dot would sum in another
        # order and move the last bits)
        np.multiply(d, lam, out=u)
        np.add(u, 1.0, out=u)
        np.divide(d, u, out=u)
        g = float(np.add.reduce(u)) / m
        np.multiply(u, u, out=u)
        return g, -float(np.add.reduce(u)) / m

    lam = float(lam0) if lo < lam0 < hi else 0.0
    a, b = lo, hi  # invariant: score(a) > 0 > score(b)
    g, gp = score_and_slope(lam)
    iterations = 0
    converged = abs(g) <= gtol
    while not converged and iterations < max_iter:
        if g > 0.0:
            a = lam
        else:
            b = lam
        step = lam - g / gp if gp else math.nan
        lam = step if a < step < b else 0.5 * (a + b)
        g, gp = score_and_slope(lam)
        iterations += 1
        converged = abs(g) <= gtol

    w = 1.0 / (m * (1.0 + lam * d))
    # rounding can push the ratio epsilon-positive at lam ~ 0
    log_ratio = min(0.0, -float(np.sum(np.log1p(lam * d))))
    solution = ELSolution(
        lam=float(lam),
        weights=w,
        log_ratio=log_ratio,
        iterations=iterations,
        converged=converged,
    )
    if not converged:
        raise ConvergenceError(
            f"EL multiplier did not converge in {max_iter} iterations "
            f"(|score| = {abs(g):.3e}, tol = {gtol:.3e})",
            best=solution,
        )
    return solution


def neg2_log_ratio(z, mu) -> float:
    """Minus twice the log empirical likelihood ratio for mean mu.

    Returns ``math.inf`` when mu falls outside the open hull of z, which is
    the natural limit of the statistic and lets interval searches treat the
    hull boundary as an infinitely rejected point.
    """
    return neg2_log_ratio_and_slope(z, mu)[0]


def neg2_log_ratio_and_slope(z, mu, lam0: float = 0.0) -> tuple[float, float, float]:
    """:func:`neg2_log_ratio` with its derivative in mu and the multiplier.

    By the envelope theorem the derivative of ``-2 log R`` in mu is
    ``-2 * m * lam`` at the solved multiplier (Owen 1988), so the slope
    costs nothing beyond the solve.  ``lam0`` warm-starts the solve.
    Outside the open hull of z the result is ``(inf, nan, lam0)``.
    """
    try:
        sol = solve_lambda(z, mu, lam0=lam0)
    except HullError:
        return math.inf, math.nan, lam0
    return max(0.0, -2.0 * sol.log_ratio), -2.0 * sol.weights.size * sol.lam, sol.lam
