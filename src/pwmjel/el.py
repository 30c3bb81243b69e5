"""One-dimensional empirical likelihood for a mean.

Given points z_1..z_m and a hypothesized mean mu, the EL weights are
``p_k = 1 / (m * (1 + lam * (z_k - mu)))`` where the multiplier lam solves

    (1/m) * sum_k (z_k - mu) / (1 + lam * (z_k - mu)) = 0.

The score is strictly decreasing in lam on the feasibility interval
``(-1/(max z - mu), 1/(mu - min z))``, so the root is unique whenever mu
lies strictly inside the hull of the points (Owen 1988).  The log ratio
``l = -sum_k log(1 + lam * (z_k - mu))`` is never positive and ``-2 l`` is
the usual chi-square calibrated statistic.

:func:`solve_lambda` solves one point set.  :func:`solve_rows` solves a
stack of equal-size point sets, one per row, and is what every interval
and test runs on.  A stack of at least ``_VECTOR_ROWS`` rows runs the same
iteration on every row at once, so many independent problems cost one pass
of array operations per Newton step; a shorter one, such as the two
endpoint searches of one interval, is solved row by row with
:func:`solve_lambda`, whose setup is cheaper.  Either way a row's result is
bit for bit what :func:`solve_lambda` returns on that row: the row sums
reduce each contiguous row in the pairwise order of the one-dimensional sum.
A row that fails carries the exception :func:`solve_lambda` raises on it,
with the same type and message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, HullError, PwmError, PwmInputError

__all__ = [
    "ELSolution",
    "RowSolutions",
    "solve_lambda",
    "solve_rows",
    "neg2_log_ratio",
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
    """``z`` as a float array, float ``mu``, the offsets ``d = z - mu`` and
    their extremes; raises what :func:`solve_lambda` raises before its
    first step."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise PwmInputError("EL points must be one-dimensional")
    if z.size < 2:
        raise PwmInputError("EL needs at least two points")
    if not np.isfinite(z).all():
        raise PwmInputError("EL points contain non-finite values")
    if not np.isfinite(mu):
        raise PwmInputError("hypothesized mean must be finite")
    mu = float(mu)
    d = z - mu
    dmin, dmax = float(d.min()), float(d.max())
    if not (dmin < 0.0 < dmax):
        raise HullError(
            f"mean {mu} is not interior to the sample hull [{z.min()}, {z.max()}]"
        )
    return z, mu, d, dmin, dmax


def _not_converged(max_iter: int, g: float, gtol: float, best) -> ConvergenceError:
    return ConvergenceError(
        f"EL multiplier did not converge in {max_iter} iterations "
        f"(|score| = {abs(g):.3e}, tol = {gtol:.3e})",
        best=best,
    )


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
    z, mu, d, dmin, dmax = _validate_points(z, mu)
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
        raise _not_converged(max_iter, g, gtol, solution)
    return solution


# solve_rows hands stacks of fewer rows than this to solve_lambda one row at
# a time: below it the vectorised loop's array setup costs more than the
# Newton steps it shares (crossover measured at n = 50, 300 and 3000).
_VECTOR_ROWS = 4


@dataclass(frozen=True)
class RowSolutions:
    """Per-row results of :func:`solve_rows`.

    ``lam``, ``log_ratio`` and ``iterations`` are what :func:`solve_lambda`
    returns on the row (its best iterate where it raises ConvergenceError);
    ``last_weight`` is the EL weight of the row's last point.  ``errors``
    maps each failed row to the exception :func:`solve_lambda` raises on it.
    Rows that fail before the first step (mu outside the hull, non-finite
    input) keep their ``lam0``, a log ratio of -inf and no iterations.
    """

    lam: np.ndarray
    log_ratio: np.ndarray
    iterations: np.ndarray
    last_weight: np.ndarray
    errors: dict[int, PwmError]


def _solve_row(z, mu, lam0, tol, max_iter) -> tuple:
    """One row of :func:`solve_rows` by :func:`solve_lambda`, as the row's
    ``(lam, log_ratio, iterations, last_weight)`` and its error or None."""
    try:
        # looked up as a module global, so that tracers see each solve
        sol = solve_lambda(z, mu, tol, max_iter, lam0)
    except ConvergenceError as exc:
        return (exc.best.lam, exc.best.log_ratio, exc.best.iterations,
                exc.best.weights[-1]), exc
    except PwmError as exc:
        return (lam0, -math.inf, 0, math.nan), exc
    return (sol.lam, sol.log_ratio, sol.iterations, sol.weights[-1]), None


def solve_rows(z: np.ndarray, mu: np.ndarray, lam0: np.ndarray, tol: float = 1e-10,
               max_iter: int = 100) -> RowSolutions:
    """:func:`solve_lambda` on every row of a C-contiguous ``(k, m)`` array.

    Row i solves for mean ``mu[i]`` from ``lam0[i]``, with the same
    safeguarded Newton step, feasibility bracket and score tolerance.
    Failures are collected in ``errors``, never raised, so one bad row
    leaves the others untouched.  A stack of fewer than ``_VECTOR_ROWS``
    rows is solved one row at a time by :func:`solve_lambda`; a taller one
    runs the vectorised loop, where all rows start together and a row
    leaves the active set at the step where it converges, so one shared
    step counter gives each row's iteration count.
    """
    if z.ndim != 2 or z.shape[1] < 2:
        raise PwmInputError("EL rows must be a (k, m) array with m >= 2")
    k, m = z.shape
    mu = np.asarray(mu, dtype=float)
    lam0 = np.asarray(lam0, dtype=float)
    if 0 < k < _VECTOR_ROWS:
        rows, errors = zip(*(_solve_row(z[i], mu[i], lam0[i], tol, max_iter)
                             for i in range(k)))
        return RowSolutions(*(np.array(field) for field in zip(*rows)),
                            {i: exc for i, exc in enumerate(errors) if exc is not None})
    lam_out = lam0.copy()
    log_ratio = np.full(k, -math.inf)
    iterations = np.zeros(k, dtype=int)
    last_weight = np.full(k, math.nan)
    errors = {}

    with np.errstate(invalid="ignore"):
        d_all = z - mu[:, None]
    dmin, dmax = d_all.min(axis=1), d_all.max(axis=1)
    inside = np.isfinite(z).all(axis=1) & np.isfinite(mu) & (dmin < 0.0) & (dmax > 0.0)
    for i in np.flatnonzero(~inside).tolist():
        try:
            _validate_points(z[i], mu[i])
        except PwmError as exc:
            errors[i] = exc

    solved = np.flatnonzero(inside)
    d_solved = d_all[solved]
    rows, d, dmin, dmax = solved, d_solved, dmin[solved], dmax[solved]
    gtol = tol * np.maximum(np.maximum(np.abs(mu[rows]), -dmin), dmax)
    with np.errstate(over="ignore"):  # subnormal spreads, as in float arithmetic
        a = (-1.0 / dmax) * (1.0 - _EDGE_MARGIN)
        b = (-1.0 / dmin) * (1.0 - _EDGE_MARGIN)
    start = lam0[rows]
    lam = np.where((a < start) & (start < b), start, 0.0)
    buf = np.empty_like(d)

    def score_and_slope(d, lam):
        # the steps of solve_lambda's score_and_slope, one row each
        u = buf[:d.shape[0]]
        np.multiply(d, lam[:, None], out=u)
        np.add(u, 1.0, out=u)
        np.divide(d, u, out=u)
        g = np.add.reduce(u, axis=1) / m
        np.multiply(u, u, out=u)
        return g, -np.add.reduce(u, axis=1) / m

    g, gp = score_and_slope(d, lam)
    step_count = 0
    stalled = []  # (row, score, tolerance) of the rows that ran out of budget
    while rows.size:
        converged = np.abs(g) <= gtol
        if step_count == max_iter:
            lam_out[rows] = lam
            iterations[rows] = step_count
            stalled = zip(*(v[~converged].tolist() for v in (rows, g, gtol)))
            break
        if converged.any():
            lam_out[rows[converged]] = lam[converged]
            iterations[rows[converged]] = step_count
            keep = ~converged
            rows, d, gtol, lam, a, b, g, gp = (
                v[keep] for v in (rows, d, gtol, lam, a, b, g, gp))
            if not rows.size:
                break
        positive = g > 0.0
        a = np.where(positive, lam, a)
        b = np.where(positive, b, lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = lam - g / gp
        # a zero slope gives a non-finite step, which takes the midpoint
        lam = np.where((a < step) & (step < b), step, 0.5 * (a + b))
        g, gp = score_and_slope(d, lam)
        step_count += 1

    lam = lam_out[solved]
    last_weight[solved] = 1.0 / (m * (1.0 + lam * d_solved[:, -1]))
    s = -np.add.reduce(np.log1p(d_solved * lam[:, None]), axis=1)
    # rounding can push the ratio epsilon-positive at lam ~ 0
    log_ratio[solved] = np.where(s < 0.0, s, 0.0)
    for i, g_i, gtol_i in stalled:
        best = ELSolution(float(lam_out[i]), 1.0 / (m * (1.0 + lam_out[i] * d_all[i])),
                          float(log_ratio[i]), max_iter, False)
        errors[i] = _not_converged(max_iter, g_i, gtol_i, best)
    return RowSolutions(lam_out, log_ratio, iterations, last_weight, errors)


def neg2_log_ratio(z, mu) -> float:
    """Minus twice the log empirical likelihood ratio for mean mu.

    Returns ``math.inf`` when mu falls outside the open hull of z, which is
    the natural limit of the statistic.
    """
    try:
        sol = solve_lambda(z, mu)
    except HullError:
        return math.inf
    return max(0.0, -2.0 * sol.log_ratio)
