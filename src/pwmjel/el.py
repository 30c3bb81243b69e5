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
of array operations per Newton step; a shorter one, such as the last few
endpoint searches of a call, is solved row by row with
:func:`solve_lambda`, whose setup is cheaper.  Either way a row's result is
bit for bit what :func:`solve_lambda` returns on that row: the row sums
reduce each contiguous row in the pairwise order of the one-dimensional sum.
A row that fails carries the exception :func:`solve_lambda` raises on it,
with the same type and message.

Both kernels also return the score ``g`` and its Newton slope ``g'`` at the
returned multiplier, which the last Newton step computed anyway.  With
``u_k = d_k / (1 + lam d_k)`` they are ``mean(u)`` and ``-mean(u^2)``, and
since ``1 / (1 + lam d) = 1 - lam u`` they give the sums behind the
multiplier's derivative in mu and the ratio's curvature (see
:class:`pwmjel.inference._StackedRatio`) without another pass over the
points.  Where mu is the mean of the points to within the score tolerance,
the multiplier is 0 before any Newton step; :func:`_solved_at_zero` finds
those rows of a stack and their score and slope without a solve.
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

# Score tolerance of every solve, relative to max(|mu|, max|z - mu|).
_SCORE_TOL = 1e-10


@dataclass(frozen=True)
class ELSolution:
    """Solved multiplier with its weights and log likelihood ratio, and
    the score and its slope in the multiplier at it."""

    lam: float
    weights: np.ndarray
    log_ratio: float
    iterations: int
    converged: bool
    score: float
    score_slope: float


def _validate_points(z, mu):
    """``z`` as a float array, float ``mu``, the offsets ``d = z - mu`` and
    their extremes; raises what :func:`solve_lambda` raises before its
    first step."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise PwmInputError("EL points must be one-dimensional")
    if z.size < 2:
        raise PwmInputError("EL needs at least two points")
    # a non-finite point makes an extreme non-finite (nan propagates)
    zmin, zmax = float(z.min()), float(z.max())
    if not (-math.inf < zmin and zmax < math.inf):
        raise PwmInputError("EL points contain non-finite values")
    if not np.isfinite(mu):
        raise PwmInputError("hypothesized mean must be finite")
    mu = float(mu)
    d = z - mu
    # the extremes of d, as rounding is monotone
    dmin, dmax = zmin - mu, zmax - mu
    if not (dmin < 0.0 < dmax):
        raise HullError(f"mean {mu} is not interior to the sample hull [{zmin}, {zmax}]")
    return z, mu, d, dmin, dmax


def _not_converged(max_iter: int, g: float, gtol: float, best) -> ConvergenceError:
    return ConvergenceError(
        f"EL multiplier did not converge in {max_iter} iterations "
        f"(|score| = {abs(g):.3e}, tol = {gtol:.3e})",
        best=best,
    )


def solve_lambda(z, mu, tol: float = _SCORE_TOL, max_iter: int = 100,
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
    log_ratio = min(0.0, -float(np.add.reduce(np.log1p(lam * d))))
    solution = ELSolution(
        lam=float(lam),
        weights=w,
        log_ratio=log_ratio,
        iterations=iterations,
        converged=converged,
        score=g,
        score_slope=gp,
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

    ``lam``, ``log_ratio``, ``iterations``, ``score`` and ``score_slope``
    are what :func:`solve_lambda` returns on the row (its best iterate where
    it raises ConvergenceError); ``last_weight`` is the EL weight of the
    row's last point.  ``errors`` maps each failed row to the exception
    :func:`solve_lambda` raises on it.  Rows that fail before the first step
    (mu outside the hull, non-finite input) keep their ``lam0``, a log ratio
    of -inf, no iterations and a nan score, score slope and last weight.
    """

    lam: np.ndarray
    log_ratio: np.ndarray
    iterations: np.ndarray
    last_weight: np.ndarray
    score: np.ndarray
    score_slope: np.ndarray
    errors: dict[int, PwmError]


def _interior(mu, dmin, dmax, tol):
    """Which stacked rows, with extremes ``dmin``, ``dmax`` of their offsets
    ``d = z - mu``, have finite points and mu strictly inside their hull, and
    every row's score tolerance ``tol * max(|mu|, -dmin, dmax)``, the rule
    of :func:`solve_lambda`.  A non-finite point or mu makes an extreme
    non-finite (nan propagates), so such a row is not inside."""
    inside = (-math.inf < dmin) & (dmin < 0.0) & (0.0 < dmax) & (dmax < math.inf)
    return inside, tol * np.maximum(np.maximum(np.abs(mu), -dmin), dmax)


def _solve_row(z, mu, lam0, max_iter) -> tuple:
    """One row of :func:`solve_rows` by :func:`solve_lambda`, as the row's
    ``(lam, log_ratio, iterations, last_weight, score, score_slope)`` and its
    error or None."""
    error = None
    try:
        # looked up as a module global, so that tracers see each solve
        sol = solve_lambda(z, mu, max_iter=max_iter, lam0=lam0)
    except ConvergenceError as exc:
        sol, error = exc.best, exc
    except PwmError as exc:
        return (lam0, -math.inf, 0, math.nan, math.nan, math.nan), exc
    return (sol.lam, sol.log_ratio, sol.iterations, sol.weights[-1], sol.score,
            sol.score_slope), error


def solve_rows(z: np.ndarray, mu: np.ndarray, lam0: np.ndarray,
               max_iter: int = 100) -> RowSolutions:
    """:func:`solve_lambda` on every row of a C-contiguous ``(k, m)`` array.

    Row i solves for mean ``mu[i]`` from ``lam0[i]``, with the same
    safeguarded Newton step, feasibility bracket and score tolerance.
    Failures are collected in ``errors``, never raised, so one bad row
    leaves the others untouched.  A stack of fewer than ``_VECTOR_ROWS``
    rows is solved one row at a time by :func:`solve_lambda`; a taller one
    runs the vectorised loop, where all rows start together and a row
    leaves the active set at the step where it converges, so one shared
    step counter gives each row's iteration count.  Outside its Newton
    steps the loop passes over the stack only for the offsets ``d = z -
    mu``, their row extremes and the log ratio; a row that is not finite
    with mu strictly inside goes to :func:`solve_lambda` alone.
    """
    if z.ndim != 2 or z.shape[1] < 2:
        raise PwmInputError("EL rows must be a (k, m) array with m >= 2")
    k, m = z.shape
    mu = np.asarray(mu, dtype=float)
    lam0 = np.asarray(lam0, dtype=float)
    if 0 < k < _VECTOR_ROWS:
        rows, errors = zip(*(_solve_row(z[i], mu[i], lam0[i], max_iter)
                             for i in range(k)))
        return RowSolutions(*(np.array(field) for field in zip(*rows)),
                            {i: exc for i, exc in enumerate(errors) if exc is not None})
    lam_out = lam0.copy()
    log_ratio = np.full(k, -math.inf)
    iterations = np.zeros(k, dtype=int)
    last_weight = np.full(k, math.nan)
    score_out = np.full(k, math.nan)
    slope_out = np.full(k, math.nan)
    errors = {}

    with np.errstate(invalid="ignore"):
        d_all = z - mu[:, None]
    dmin, dmax = d_all.min(axis=1), d_all.max(axis=1)
    inside, gtol = _interior(mu, dmin, dmax, _SCORE_TOL)
    for i in np.flatnonzero(~inside).tolist():
        row, exc = _solve_row(z[i], mu[i], lam0[i], max_iter)
        (lam_out[i], log_ratio[i], iterations[i], last_weight[i], score_out[i],
         slope_out[i]) = row
        if exc is not None:
            errors[i] = exc

    solved = np.flatnonzero(inside)
    if solved.size == k:
        d_solved, start = d_all, lam0
    else:
        d_solved, start = d_all[solved], lam0[solved]
        dmin, dmax, gtol = dmin[solved], dmax[solved], gtol[solved]
    rows, d = solved, d_solved
    with np.errstate(over="ignore"):  # subnormal spreads, as in float arithmetic
        a = (-1.0 / dmax) * (1.0 - _EDGE_MARGIN)
        b = (-1.0 / dmin) * (1.0 - _EDGE_MARGIN)
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
            score_out[rows], slope_out[rows] = g, gp
            stalled = zip(*(v[~converged].tolist() for v in (rows, g, gtol)))
            break
        if converged.any():
            done = rows[converged]
            lam_out[done] = lam[converged]
            iterations[done] = step_count
            score_out[done], slope_out[done] = g[converged], gp[converged]
            keep = ~converged
            rows, d, gtol, lam, a, b, g, gp = (
                v[keep] for v in (rows, d, gtol, lam, a, b, g, gp))
            if not rows.size:
                break
        positive = g > 0.0
        a = np.where(positive, lam, a)
        b = np.where(positive, b, lam)
        # a zero slope (either sign) leaves a nan step, which takes the
        # midpoint, as solve_lambda's does
        step = lam - np.divide(g, gp, out=np.full_like(g, math.nan), where=gp != 0.0)
        lam = np.where((a < step) & (step < b), step, 0.5 * (a + b))
        g, gp = score_and_slope(d, lam)
        step_count += 1

    lam = lam_out[solved]
    last_weight[solved] = 1.0 / (m * (1.0 + lam * d_solved[:, -1]))
    np.multiply(d_solved, lam[:, None], out=buf)
    s = -np.add.reduce(np.log1p(buf, out=buf), axis=1)
    # rounding can push the ratio epsilon-positive at lam ~ 0
    log_ratio[solved] = np.where(s < 0.0, s, 0.0)
    for i, g_i, gtol_i in stalled:
        best = ELSolution(float(lam_out[i]), 1.0 / (m * (1.0 + lam_out[i] * d_all[i])),
                          float(log_ratio[i]), max_iter, False, g_i, float(slope_out[i]))
        errors[i] = _not_converged(max_iter, g_i, gtol_i, best)
    return RowSolutions(lam_out, log_ratio, iterations, last_weight, score_out, slope_out,
                        errors)


def _solved_at_zero(z: np.ndarray, mu: np.ndarray):
    """The rows of a ``(k, m)`` stack that :func:`solve_rows` started at
    ``lam0 = 0`` returns at ``lam = 0`` without a Newton step, as a mask,
    with the score and its slope there for those rows.

    At ``lam = 0`` every weight is ``1/m`` and ``u = d = z - mu``, so the
    score is ``mean(d)`` and its slope ``-mean(d^2)`` (Owen 1988); both are
    computed as the kernels compute them, so they are bit for bit what
    :func:`solve_rows` returns.  A row qualifies when :func:`_interior` takes
    it and its score meets the kernels' tolerance.  Such a row has log ratio
    0 and last weight ``1/m``.
    """
    m = z.shape[1]
    zmin, zmax = z.min(axis=1), z.max(axis=1)
    finite = np.isfinite(zmin) & np.isfinite(zmax) & np.isfinite(mu)
    if not finite.all():
        # such a row cannot qualify: points at 0 and mu at 1 leave it
        # outside its hull, and nothing below warns
        z = np.where(finite[:, None], z, 0.0)
        zmin, zmax, mu = (np.where(finite, v, fill)
                          for v, fill in ((zmin, 0.0), (zmax, 0.0), (mu, 1.0)))
    d = z - mu[:, None]
    # the kernels' extremes of d, as rounding is monotone
    inside, gtol = _interior(mu, zmin - mu, zmax - mu, _SCORE_TOL)
    score = np.add.reduce(d, axis=1) / m
    slope = -np.add.reduce(np.multiply(d, d, out=d), axis=1) / m
    return inside & (np.abs(score) <= gtol), score, slope


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
