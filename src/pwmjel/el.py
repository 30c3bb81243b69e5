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
points.
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

# Score tolerance of every solve, relative to max(|mu|, max|z - mu|), and
# the Newton step budget of every solve.
_SCORE_TOL = 1e-10
_MAX_ITER = 100


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


def _not_converged(g: float, gtol: float, best) -> ConvergenceError:
    return ConvergenceError(
        f"EL multiplier did not converge in {_MAX_ITER} iterations "
        f"(|score| = {abs(g):.3e}, tol = {gtol:.3e})",
        best=best,
    )


def solve_lambda(z, mu, lam0: float = 0.0) -> ELSolution:
    """Solve the EL score equation for the multiplier.

    Newton iteration started at ``lam0`` (at 0 when ``lam0`` is not strictly
    feasible for this mu), safeguarded by bisection against
    the feasibility bracket, which keeps every iterate on the side where
    all weights stay positive (also after a slope underflow).  Convergence
    means |score| <= ``_SCORE_TOL * max(|mu|, max|z - mu|)``, a scale-free
    test, within ``_MAX_ITER`` steps.

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
    gtol = _SCORE_TOL * max(abs(mu), -dmin, dmax)

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
    while not converged and iterations < _MAX_ITER:
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
        raise _not_converged(g, gtol, solution)
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


def _solve_row(z, mu, lam0) -> tuple:
    """One row of :func:`solve_rows` by :func:`solve_lambda`, as the row's
    ``(lam, log_ratio, iterations, last_weight, score, score_slope)`` and its
    error or None."""
    error = None
    try:
        # looked up as a module global, so that tracers see each solve
        sol = solve_lambda(z, mu, lam0)
    except ConvergenceError as exc:
        sol, error = exc.best, exc
    except PwmError as exc:
        return (lam0, -math.inf, 0, math.nan, math.nan, math.nan), exc
    return (sol.lam, sol.log_ratio, sol.iterations, sol.weights[-1], sol.score,
            sol.score_slope), error


def solve_rows(z: np.ndarray, mu: np.ndarray, lam0: np.ndarray) -> RowSolutions:
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
        rows, errors = zip(*(_solve_row(z[i], mu[i], lam0[i]) for i in range(k)))
        return RowSolutions(*(np.array(field) for field in zip(*rows)),
                            {i: exc for i, exc in enumerate(errors) if exc is not None})
    # every row's fields are set below, by _solve_row or by the loop
    lam_out, log_ratio, last_weight, score_out, slope_out = np.empty((5, k))
    iterations = np.empty(k, dtype=int)
    errors = {}
    # one scope for the whole loop: a zero slope's step is infinite or nan
    # and takes the midpoint, a subnormal spread's bound overflows, and a
    # non-finite row gives nan offsets that leave it outside
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = z - mu[:, None]
        dmin, dmax = d.min(axis=1), d.max(axis=1)
        # solve_lambda's tolerance; a non-finite point or mu makes it
        # infinite or nan (nan propagates), so such a row is not inside
        gtol = _SCORE_TOL * np.maximum(np.maximum(np.abs(mu), -dmin), dmax)
        inside = (dmin < 0.0) & (0.0 < dmax) & (gtol < math.inf)
        solved, start = slice(None), lam0
        if np.count_nonzero(inside) < k:
            for i in np.flatnonzero(~inside).tolist():
                row, exc = _solve_row(z[i], mu[i], lam0[i])
                (lam_out[i], log_ratio[i], iterations[i], last_weight[i], score_out[i],
                 slope_out[i]) = row
                if exc is not None:
                    errors[i] = exc
            solved = np.flatnonzero(inside)
            d, start = d[solved], lam0[solved]
            dmin, dmax, gtol = dmin[solved], dmax[solved], gtol[solved]
        d_solved, rows = d, np.arange(k)[solved]
        a = (-1.0 / dmax) * (1.0 - _EDGE_MARGIN)
        b = (-1.0 / dmin) * (1.0 - _EDGE_MARGIN)
        lam = np.where((a < start) & (start < b), start, 0.0)
        buf = np.empty_like(d)

        def score_and_slope(d, lam):
            # the steps of solve_lambda's score_and_slope, one row each;
            # -s / m and s / -m are the same float
            u = buf[:d.shape[0]]
            np.multiply(d, lam[:, None], out=u)
            np.add(u, 1.0, out=u)
            np.divide(d, u, out=u)
            g = np.add.reduce(u, axis=1) / m
            np.multiply(u, u, out=u)
            return g, np.add.reduce(u, axis=1) / -m

        g, gp = score_and_slope(d, lam)
        step_count = 0
        while True:
            converged = np.abs(g) <= gtol
            count = np.count_nonzero(converged)
            if count == rows.size or step_count == _MAX_ITER:
                lam_out[rows] = lam
                iterations[rows] = step_count
                score_out[rows], slope_out[rows] = g, gp
                # (row, score, tolerance) of the rows that ran out of budget
                stalled = (zip(*(v[~converged].tolist() for v in (rows, g, gtol)))
                           if count < rows.size else ())
                break
            if count:
                done = rows[converged]
                lam_out[done] = lam[converged]
                iterations[done] = step_count
                score_out[done], slope_out[done] = g[converged], gp[converged]
                keep = ~converged
                rows, d, gtol, lam, a, b, g, gp = (
                    v[keep] for v in (rows, d, gtol, lam, a, b, g, gp))
            # the bracket moves to lam on the side of the score's sign (a
            # nan score moves b)
            positive = g > 0.0
            np.copyto(a, lam, where=positive)
            np.copyto(b, lam, where=~positive)
            step = lam - g / gp
            # the step inside the bracket, else the midpoint, formed in place
            lam = np.add(a, b)
            lam *= 0.5
            np.copyto(lam, step, where=(a < step) & (step < b))
            g, gp = score_and_slope(d, lam)
            step_count += 1

    np.multiply(d_solved, lam_out[solved][:, None], out=buf)
    last_weight[solved] = 1.0 / (m * (1.0 + buf[:, -1]))
    s = -np.add.reduce(np.log1p(buf, out=buf), axis=1)
    # rounding can push the ratio epsilon-positive at lam ~ 0
    log_ratio[solved] = np.where(s < 0.0, s, 0.0)
    for i, g_i, gtol_i in stalled:
        best = ELSolution(float(lam_out[i]), 1.0 / (m * (1.0 + lam_out[i] * (z[i] - mu[i]))),
                          float(log_ratio[i]), _MAX_ITER, False, g_i, float(slope_out[i]))
        errors[i] = _not_converged(g_i, gtol_i, best)
    return RowSolutions(lam_out, log_ratio, iterations, last_weight, score_out, slope_out,
                        errors)


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
