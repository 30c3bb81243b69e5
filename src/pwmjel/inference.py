"""Jackknife empirical likelihood inference for probability weighted moments.

The statistic treats the jackknife pseudo-values of the U-statistic
estimator as if they were an i.i.d. sample and profiles their mean with
empirical likelihood; minus twice the log ratio is asymptotically
chi-square with one degree of freedom (Jing, Yuan and Zhou 2009).

The adjusted variant appends one synthetic point so the hypothesized value
always lands inside the hull (after Chen, Variyath and Abraham 2008).  Two
augmentation rules are supported:

* ``centered`` (default): center the pseudo-values at the hypothesized
  value, append ``-(a_n/n) * sum`` of the centered values, and test mean
  zero.  The ratio is finite for every hypothesis and never exceeds the
  unadjusted ratio, so adjusted intervals contain unadjusted ones.
* ``literal``: append ``-(a_n/n) * sum`` of the raw pseudo-values and test
  the hypothesized mean directly on the enlarged set.  The synthetic point
  sits far below the data whenever the estimate is positive, which shifts
  and widens intervals; kept for compatibility with that convention.

DNEL and VXL, the comparison baselines, run the same EL directly on the
summands of the two plug-in estimators (see :mod:`pwmjel.estimators` for
why they run wide).

All four methods share one pipeline: a point set and a hypothesized mean
give an EL ratio, which is either tested against chi-square(1) or inverted
for an interval.  One type carries a batch from its samples to the
stacked EL solve: a ``_RowSet`` is a matrix with one row per sample that
has one and the error of every other sample.  ``_method_problems`` alone
turns samples into row sets: it stacks and sorts a batch's samples once,
into one row set, and builds every method's points and estimates with row
operations on that block (the row functions of :mod:`pwmjel.estimators`,
whose one-row case its per-sample functions are), one row set per method
from ``_METHODS``.  One engine evaluates and inverts the ratios of many
rows together, one batched EL solve per search step; the row sets of one
point width and kind share its stack whatever their method, up to a
measured size, and ``_by_stack`` maps the stack's results back to the
samples.  :func:`confidence_intervals` and :func:`ratio_tests` run it on
many samples, and :func:`confidence_interval` and :func:`ratio_test` are
their one-sample case.  A stack alone maps values between its rows'
power-of-two coordinates and the data's, and ``_Searches`` builds a call's
endpoint searches from its stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import el as _el
from .distributions import chi2_1_cdf, chi2_1_quantile
from .errors import ConvergenceError, DegenerateSampleError, HullError, PwmError, PwmInputError
from .estimators import (
    PseudoValues,
    SortedSample,
    pseudo_value_rows,
    sorted_rows,
    summand_rows,
)

__all__ = [
    "CI_METHODS",
    "ConfidenceInterval",
    "TestResult",
    "adjustment_constant",
    "check_options",
    "confidence_interval",
    "confidence_intervals",
    "ratio_test",
    "ratio_tests",
    "jel_neg2_ratio",
    "ajel_neg2_ratio",
    "jel_confidence_interval",
    "ajel_confidence_interval",
    "jel_test",
    "ajel_test",
    "plugin_el_ci",
    "plugin_el_test",
]

_RULES = ("centered", "literal")

# Endpoint search controls: residual tolerance on the ratio at the returned
# endpoint, relative beta tolerance, hull shrink, and evaluation budgets
# per endpoint (overall, and before the finite-ratio side must cross).
_RESIDUAL_TOL = 1e-6
_BETA_TOL = 1e-8
_HULL_SHRINK = 1e-12
_MAX_STEPS = 200
_MAX_EXPAND = 100


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    method: str
    point_estimate: float
    endpoint_iterations: int

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest test class, wherever it is imported by name

    statistic: float
    threshold: float
    reject: bool
    method: str
    null_value: float
    alpha: float

    @property
    def p_value(self) -> float:
        """The chi-square(1) upper tail at the statistic; 0 where it is infinite."""
        return 1.0 - chi2_1_cdf(self.statistic) if math.isfinite(self.statistic) else 0.0


def adjustment_constant(n: int) -> float:
    """Augmentation weight ``a_n = max(1, log(n/2))``."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise PwmInputError(f"adjustment constant needs an integer n >= 2, got {n!r}")
    return max(1.0, math.log(n / 2.0))


@dataclass(frozen=True)
class _RowSet:
    """A batch's samples as the rows of one matrix: row ``values[j]``
    belongs to sample ``rows[j]``.  ``status[i]`` is None exactly while
    sample i has a row, else what stands in for it: its PwmError, or in the
    block of sorted samples the caller's :class:`PseudoValues`.

    A method's rows (``method`` set) are its EL point sets, tested for mean
    beta, with each row's ``estimate`` and ``seed``, where its ratio bottoms
    out; the two differ only under the literal adjustment rule.  Under the
    centered adjustment (``adjust`` set to its ``a``) the rows are the
    pseudo-values, centered at beta and augmented before the EL test of mean
    zero; otherwise the hull of a row's points bounds its interval search.
    The block of pseudo-values holds each row's U-statistic ``estimate``.
    """

    status: list
    rows: list
    values: np.ndarray | None
    estimate: np.ndarray | None = None
    seed: np.ndarray | None = None
    method: str | None = None
    adjust: float | None = None


def _failing(status: list, rows: list, exc: PwmError) -> _RowSet:
    """No rows, and ``status`` with ``exc`` for each of the samples ``rows``."""
    out = list(status)
    for i in rows:
        out[i] = exc
    return _RowSet(out, [], None)


def _without(rows: _RowSet, bad: np.ndarray, error) -> _RowSet:
    """``rows`` less the rows flagged in ``bad``, whose samples get ``error()``."""
    drop = np.flatnonzero(bad).tolist()
    if not drop:
        return rows
    status = list(rows.status)
    for j in drop:
        status[rows.rows[j]] = error()
    keep = np.flatnonzero(~bad)
    values = rows.values[keep]
    values.flags.writeable = False
    return _RowSet(status, [rows.rows[j] for j in keep.tolist()], values,
                   None if rows.estimate is None else rows.estimate[keep])


def _joined(parts: list) -> tuple[list, np.ndarray]:
    """The ``(rows, matrix)`` pairs ``parts`` as one pair."""
    if len(parts) == 1:
        return parts[0]
    return [i for rows, _ in parts for i in rows], np.concatenate([x for _, x in parts])


def _sample_block(samples) -> _RowSet:
    """The samples sorted along the rows of one block, in which a sample
    that :meth:`SortedSample.from_data` rejects, or a caller's malformed
    :class:`PseudoValues`, gets its error; raises :class:`PwmInputError`
    unless the other samples share one size."""
    status = [s if isinstance(s, PseudoValues) else None for s in samples]
    for i, pv in enumerate(status):
        if pv is not None and not (isinstance(pv.values, np.ndarray) and pv.values.ndim == 1
                                   and 0 < pv.values.size == pv.n):
            status[i] = PwmInputError(
                f"pseudo-values must be a non-empty one-dimensional array of their n = "
                f"{pv.n!r} values, got {getattr(pv.values, 'shape', type(pv.values).__name__)}")
    presorted = [i for i, s in enumerate(samples) if isinstance(s, SortedSample)]
    raw = [i for i, s in enumerate(samples) if status[i] is None
           and not isinstance(s, SortedSample)]
    errors, blocks = sorted_rows([samples[i] for i in raw])
    for i, exc in zip(raw, errors):
        status[i] = exc
    parts = [([raw[j] for j in index], x) for index, x in blocks.values()]
    if presorted:
        parts.append((presorted, np.stack([samples[i].values for i in presorted])))
    sizes = {x.shape[1] for _, x in parts} | {s.n for s in status if isinstance(s, PseudoValues)}
    if len(sizes) > 1:
        raise PwmInputError("batched inference needs samples of one size")
    return _RowSet(status, *_joined(parts)) if parts else _RowSet(status, [], None)


def _checked(block: _RowSet, r) -> _RowSet:
    """The pseudo-values of a block of sorted samples: built for all its
    rows at once and joined by the caller's :class:`PseudoValues` that were
    built for ``r``, less the degenerate rows, whose samples get an error."""
    status = [s if isinstance(s, PwmError) else None for s in block.status]
    parts, estimate = [], []  # parts: (rows, values)
    if block.rows:
        try:
            values, beta = pseudo_value_rows(block.values, r)
        except PwmError as exc:
            status = _failing(status, block.rows, exc).status
        else:
            parts.append((block.rows, values))
            estimate.append(beta)
    for i, pv in enumerate(block.status):
        if isinstance(pv, PseudoValues):
            if pv.r != r:
                status[i] = PwmInputError(
                    f"pseudo-values were built for r = {pv.r}, requested r = {r}"
                )
            else:
                parts.append(([i], pv.values[None]))
                estimate.append([pv.ustat_estimate])
    if not parts:
        return _RowSet(status, [], None)
    rows, values = _joined(parts)
    values.flags.writeable = False
    # constant input leaves rounding noise of a few n*eps relative to the
    # pseudo-values, so the spread is compared against that floor
    vmax, vmin = values.max(axis=1), values.min(axis=1)
    flat = vmax - vmin <= 64.0 * values.shape[1] * np.finfo(float).eps * np.maximum(vmax, -vmin)
    return _without(_RowSet(status, rows, values, np.concatenate(estimate)), flat,
                    lambda: DegenerateSampleError(
                        "all jackknife pseudo-values are identical; the likelihood "
                        "ratio carries no information"))


class _StackedRatio:
    """The rows of one or more row sets of one point width and one kind
    (plain, or centered), of one or more methods, stacked so that one
    :func:`el.solve_rows` call evaluates the ratio of any subset.

    Each row runs in its own coordinates, ``beta * 2**-exponent[i]``, with
    the power of two that brings the row's largest point magnitude into
    [1/2, 1); ``points`` holds the scaled rows, and beta, the multiplier and
    the derivatives are in these coordinates.  Scaling by a power of two is
    exact, so the EL solves and the endpoint searches see the same numbers
    at every data scale, and the multiplier's derivatives, which scale with
    the inverse square of the data, neither over- nor underflow.  The rows
    are scaled straight from the sets' matrices, with no copy in between.
    Only the stack knows them: :meth:`scaled` maps values in (seeds,
    estimates, beta), :meth:`unscaled` maps them out (endpoints).

    The slope is the ratio's derivative in beta, which by the envelope
    theorem comes free with the solved multiplier (Owen 1988): ``-2 m lam``
    for plain EL on m points.  Under the centered adjustment the appended
    point ``-(a/n) * sum(values - beta)`` moves with beta at rate ``a`` and
    the others at rate -1, which makes it ``-2 m lam (1 - (1 + a) p_last)``,
    with ``p_last`` the EL weight of the appended point.

    The curvature needs the multiplier's derivative ``lam'`` in beta, from
    the implicit-function theorem on the score equation (Hall and La Scala
    1990).  With ``w_k = 1 / (1 + lam z_k)`` it takes ``sum w^2`` and
    ``sum z^2 w^2``, and since ``w = 1 - lam u`` with ``u = z w`` both follow
    from the score ``g`` and its slope ``g'`` at the solved multiplier:
    ``sum w^2 = m (1 - 2 lam g - lam^2 g')`` and ``sum z^2 w^2 = -m g'``.
    Plain EL has ``lam' = -sum w^2 / sum z^2 w^2`` and curvature
    ``-2 m lam'``.  Under the centered adjustment, with ``w_last = m p_last``,
    ``lam' = ((1 + a) w_last^2 - sum w^2) / sum z^2 w^2`` and the curvature
    is ``-2 m (lam' (1 - (1 + a) p_last) - lam (1 + a) p_last')``, where
    ``p_last' = -w_last^2 (lam' z_last + lam a) / m``.

    Calling the stack gives all of these, for the interval searches;
    :meth:`statistics` gives the ratio alone, for tests, and
    :meth:`at_seeds` gives the searches' start values without a solve.
    """

    def __init__(self, sets: list[_RowSet]):
        self.sets = sets
        self.points = np.empty((sum(len(s.rows) for s in sets), sets[0].values.shape[1]))
        # frexp's int32 exponents keep ldexp on its fast loop
        self.exponent = np.frexp(np.concatenate(
            [np.maximum(s.values.max(axis=1), -s.values.min(axis=1)) for s in sets]))[1]
        lo = 0
        for s in sets:
            hi = lo + len(s.rows)
            np.ldexp(s.values, -self.exponent[lo:hi, None], out=self.points[lo:hi])
            lo = hi
        self.adjust = (None if sets[0].adjust is None
                       else np.repeat([s.adjust for s in sets], [len(s.rows) for s in sets]))

    def scaled(self, beta) -> np.ndarray:
        """``beta``, one value or one per row, in the rows' coordinates, held
        within +-2**60: farther out every point (at most 1 in magnitude)
        rounds away against beta, so the ratio no longer changes (infinite
        for plain EL, on its plateau under the centered adjustment).  Beta's
        mantissa is scaled, so that nothing overflows on the way."""
        mantissa, exponent = np.frexp(beta)
        scaled = np.ldexp(mantissa, np.minimum(exponent - self.exponent, 61))
        return scaled.clip(-2.0 ** 60, 2.0 ** 60)

    def unscaled(self, x, rows) -> np.ndarray:
        """``x[j]``, in the coordinates of stacked row ``rows[j]``, in the data's."""
        return np.ldexp(x, self.exponent[rows])

    def seeds(self) -> np.ndarray:
        """Each row's seed and estimate, in its coordinates, as two rows."""
        return self.scaled(np.array([np.concatenate([s.seed for s in self.sets]),
                                     np.concatenate([s.estimate for s in self.sets])]))

    def _el_rows(self, rows, beta):
        """The EL point sets and hypothesized means of stacked row ``rows[j]``
        at ``beta[j]``, with the rows' adjustment constants: the row at
        beta, or under the centered adjustment (``a`` not None) the row
        centered at beta and augmented, at mean zero."""
        beta = np.asarray(beta, dtype=float)
        points = self.points[rows]
        if self.adjust is None:
            return points, beta, None
        a = self.adjust[rows]
        c = points - beta[:, None]
        n = c.shape[1]
        z = np.empty((c.shape[0], n + 1))
        z[:, :n] = c
        z[:, n] = -(a / n) * np.add.reduce(c, axis=1)
        return z, np.zeros(beta.size), a

    def _ratios(self, sol):
        """The ratios of a solve and ``{j: error}`` for its failed rows; a
        plain row's hull failure is no error but an infinite ratio, as
        :func:`el.solve_rows` leaves the row at log ratio -inf."""
        errors = {j: exc for j, exc in sol.errors.items()
                  if self.adjust is not None or not isinstance(exc, HullError)}
        ratio = -2.0 * sol.log_ratio
        return np.where(ratio > 0.0, ratio, 0.0), errors

    def statistics(self, beta0: float) -> list:
        """The ratio of every row at ``beta0``, from one batched solve, or
        the error the row's solve fails with; the ratio is infinite outside
        the hull of a plain row."""
        beta = self.scaled(float(beta0))
        z, mu, _ = self._el_rows(slice(None), beta)
        ratio, errors = self._ratios(_el.solve_rows(z, mu, np.zeros(beta.size)))
        ratio = ratio.tolist()
        for j, exc in errors.items():
            ratio[j] = exc
        return ratio

    def __call__(self, rows, beta, lam0):
        """Ratio, slope, multiplier, the multiplier's derivative and the
        ratio's curvature of stacked row ``rows[j]`` at ``beta[j]`` from
        ``lam0[j]``, as arrays, and ``{j: error}`` for the rows whose solve
        fails.  Outside the hull of a plain row the ratio is infinite,
        the slope, derivative and curvature nan and the multiplier
        ``lam0[j]``."""
        z, mu, a = self._el_rows(rows, beta)
        sol = _el.solve_rows(z, mu, lam0)
        m = z.shape[1]
        slope = (-2.0 * m) * sol.lam
        if a is not None:
            slope *= 1.0 - (1.0 + a) * sol.last_weight
        dlam, curvature = _derivatives(m, sol.lam, sol.score, sol.score_slope, a,
                                       sol.last_weight, z[:, -1])
        ratio, errors = self._ratios(sol)
        if len(errors) < len(sol.errors):
            slope[[j for j in sol.errors if j not in errors]] = math.nan
        return ratio, slope, sol.lam, dlam, curvature, errors

    def at_seeds(self, seeds):
        """The ratio, multiplier and multiplier's derivative of every row
        at its seed ``seeds[i]`` from ``lam0 = 0``, as arrays, and ``{i:
        error}``, bit for bit what ``self`` returns there.

        Where the seed is the mean of the EL points to within the kernel's
        score tolerance, the multiplier is 0 with no Newton step (Owen 1988),
        so the ratio is 0 and the derivative is :func:`_derivatives` at
        ``lam = 0``, where ``sum w^2 = m`` and ``sum d^2 w^2 = sum d^2`` for
        the offsets ``d`` of the EL points; only the other rows are solved.
        """
        seeds = np.asarray(seeds, dtype=float)
        k = len(seeds)
        z, mu, a = self._el_rows(slice(None), seeds)
        m = z.shape[1]
        at_zero, score, score_slope = _el._solved_at_zero(z, mu)
        rest = np.flatnonzero(~at_zero).tolist()
        closed = np.flatnonzero(at_zero) if rest else slice(None)
        # the kernel's last weight at lam = 0 is 1 / (m (1 + 0 d)) = 1 / m
        dlam = _derivatives(m, 0.0, score[closed], score_slope[closed],
                            None if a is None else a[closed], 1.0 / m, z[closed, -1])[0]
        ratio, lam, errors = np.zeros(k), np.zeros(k), {}
        if rest:
            closed_dlam, dlam = dlam, np.full(k, math.nan)
            dlam[closed] = closed_dlam
            got = self(rest, seeds[rest], np.zeros(len(rest)))
            ratio[rest], lam[rest], dlam[rest] = got[0], got[2], got[3]
            errors = {rest[t]: exc for t, exc in got[5].items()}
        return ratio, lam, dlam, errors


def _derivatives(m: int, lam, score, score_slope, a, p, z_last):
    """The multiplier's derivative in beta and the ratio's curvature of
    stacked rows, from the multiplier ``lam`` solved on ``m`` points and the
    score and its slope there; under the centered adjustment (``a`` not
    None) also from the appended points ``z_last`` and their EL weights
    ``p``.  The formulas are in :class:`_StackedRatio`."""
    sum_w2 = m * (1.0 - 2.0 * lam * score - lam * lam * score_slope)
    sum_zw2 = -m * score_slope
    if a is None:
        dlam = -sum_w2 / sum_zw2
        return dlam, (-2.0 * m) * dlam
    w_last2 = (m * p) ** 2
    dlam = ((1.0 + a) * w_last2 - sum_w2) / sum_zw2
    dp = -w_last2 * (dlam * z_last + lam * a) / m
    return dlam, (-2.0 * m) * (dlam * (1.0 - (1.0 + a) * p) - lam * (1.0 + a) * dp)


def _jel_problems(pv: _RowSet, r, rule, a_n) -> _RowSet:
    return _RowSet(pv.status, pv.rows, pv.values, pv.estimate, pv.estimate, "JEL")


def _ajel_problems(pv: _RowSet, r, rule, a_n) -> _RowSet:
    if not pv.rows:
        return pv
    n = pv.values.shape[1]
    a = adjustment_constant(n) if a_n is None else float(a_n)
    if rule == "centered":
        return _RowSet(pv.status, pv.rows, pv.values, pv.estimate, pv.estimate, "AJEL", a)
    # the augmented set does not depend on the tested value, so the ratio
    # bottoms out at the augmented mean rather than at the point estimate
    aug = np.empty((len(pv.rows), n + 1))
    aug[:, :n] = pv.values
    aug[:, n] = -(a / n) * np.add.reduce(pv.values, axis=1)
    aug.flags.writeable = False
    return _RowSet(pv.status, pv.rows, aug, pv.estimate,
                   np.add.reduce(aug, axis=1) / (n + 1), "AJEL")


def _plugin_problems(method: str):
    def build(block: _RowSet, r, rule, a_n) -> _RowSet:
        status = [PwmInputError(f"{method} needs the sample, not its pseudo-values")
                  if isinstance(s, PseudoValues) else s for s in block.status]
        if not block.rows:
            return _RowSet(status, [], None)
        try:
            z = summand_rows(block.values, r, method)
        except PwmError as exc:
            return _failing(status, block.rows, exc)
        z.flags.writeable = False
        rows = _without(_RowSet(status, block.rows, z), z.max(axis=1) - z.min(axis=1) == 0.0,
                        lambda: DegenerateSampleError(
                            f"{method} summands are all identical; no likelihood spread"))
        estimate = np.add.reduce(rows.values, axis=1) / rows.values.shape[1]
        return _RowSet(rows.status, rows.rows, rows.values, estimate, estimate, method)
    return build


# The method table: each entry turns the batch's block of sorted samples (for
# JEL and AJEL its checked pseudo-values), r, rule and a_n into the method's
# rows, one per sample whose build succeeds, and the error of each other
# sample; both the test and the interval run on them.
# ``rule`` and ``a_n`` only shape AJEL.
_METHODS = {
    "DNEL": _plugin_problems("DNEL"),
    "VXL": _plugin_problems("VXL"),
    "JEL": _jel_problems,
    "AJEL": _ajel_problems,
}
CI_METHODS = tuple(_METHODS)

# The methods whose rows are built from the jackknife pseudo-values.
_ON_PSEUDO_VALUES = frozenset({"JEL", "AJEL"})


def check_options(methods, rule: str = "centered", a_n=None, *, level=None,
                  alpha=None, beta0=None) -> tuple[str, ...]:
    """Check the options of an interval or test, before any numeric work.

    ``level`` and ``alpha`` must lie in (0, 1) and ``beta0`` must be finite
    (each is checked unless None); ``methods`` must be a non-empty sequence of
    names from :data:`CI_METHODS` other than a string, ``rule`` must be
    ``centered`` or ``literal``, and ``a_n``, unless None, must be positive and
    finite.  Raises :class:`PwmInputError`; returns the methods as a tuple.
    """
    if level is not None and not 0.0 < level < 1.0:
        raise PwmInputError(f"confidence level must be in (0, 1), got {level}")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise PwmInputError(f"test size must be in (0, 1), got {alpha}")
    if beta0 is not None and not math.isfinite(float(beta0)):
        raise PwmInputError("hypothesized value must be finite")
    if isinstance(methods, str):
        raise PwmInputError(f"methods must be a sequence of names, not the string {methods!r}")
    methods = tuple(methods)
    bad = [m for m in methods if m not in _METHODS]
    if bad:
        raise PwmInputError(f"unknown methods {bad}; expected subset of {CI_METHODS}")
    if not methods:
        raise PwmInputError("at least one method is required")
    if rule not in _RULES:
        raise PwmInputError(f"unknown adjustment rule {rule!r}; expected {_RULES}")
    if a_n is not None:
        a = float(a_n)
        if not np.isfinite(a) or a <= 0:
            raise PwmInputError(f"adjustment constant must be positive, got {a_n!r}")
    return methods


def _raised(result):
    """``result`` of a one-sample call, raised if it is an error."""
    if isinstance(result, PwmError):
        raise result
    return result


def confidence_interval(sample, r: int, level: float, method: str,
                        rule: str = "centered", a_n=None) -> ConfidenceInterval:
    """Interval for ``beta_r`` from inverting ``method``'s EL ratio.

    ``method`` is one of :data:`CI_METHODS`; ``rule`` and ``a_n`` apply to
    AJEL only but are checked for every method.  Endpoints solve
    ``ratio(beta) = chi-square quantile`` on each side of the ratio's
    minimum by a safeguarded Halley search on ``sqrt(ratio) -
    sqrt(quantile)``, which takes the ratio's slope and curvature from each
    EL solve.  At the minimum, the seed, the multiplier is 0 in closed
    form (the seed is the mean of the EL points to within the solver's
    tolerance), so the ratio there and the multiplier's derivative take no
    EL solve.  The search starts a skew-corrected step from the seed,
    warm-starts each solve along the multiplier's tangent, and stops at
    ratio residual <= 1e-6 with a Newton step <= 1e-8 * beta_scale, where
    ``beta_scale`` is the larger of the estimate's magnitude and the EL
    points' spread around it.  ``endpoint_iterations`` counts the ratio
    evaluations of both searches, which are then all the EL solves the
    interval takes.  The search runs on the data scaled by a power of two,
    so the endpoints scale exactly with the data.  It is the one-sample
    case of :func:`confidence_intervals`, whose searches step together as
    arrays (:class:`_Searches`).
    """
    return _raised(confidence_intervals([sample], r, level, (method,), rule, a_n)[0][0])


def ratio_test(sample, r: int, beta0: float, alpha: float, method: str,
               rule: str = "centered", a_n=None) -> TestResult:
    """Chi-square calibrated test of ``beta_r = beta0`` on ``method``'s ratio."""
    return _raised(ratio_tests([sample], r, beta0, alpha, (method,), rule, a_n)[0][0])


def confidence_intervals(samples, r: int, level: float, methods,
                         rule: str = "centered", a_n=None) -> list[tuple]:
    """:func:`confidence_interval` for every sample and method, in lockstep.

    ``samples`` must share one size; a sample's :class:`PseudoValues` may
    stand in for it (JEL and AJEL only).  JEL, DNEL and VXL share one stack
    up to a measured size, AJEL has its own (see :func:`_by_stack`), and the
    searches of all stacks advance together, one batched EL solve per stack
    and round.  Returns one tuple per sample, in the order of ``methods``,
    holding the interval or the :class:`PwmError` that
    :func:`confidence_interval` raises for that sample alone.
    """
    methods = check_options(methods, rule, a_n, level=level)
    return _by_stack(_method_problems(samples, r, methods, rule, a_n),
                     lambda stacks: _lockstep_intervals(stacks, level),
                     lambda rows, j, ends: ConfidenceInterval(
                         ends[0], ends[1], level, rows.method, float(rows.estimate[j]), ends[2]))


def ratio_tests(samples, r: int, beta0: float, alpha: float, methods,
                rule: str = "centered", a_n=None) -> list[tuple]:
    """:func:`ratio_test` for every sample and method, one batched EL solve
    per stack of :func:`confidence_intervals`; returned as it returns
    intervals."""
    methods = check_options(methods, rule, a_n, alpha=alpha, beta0=beta0)
    threshold = chi2_1_quantile(1.0 - alpha)
    return _by_stack(_method_problems(samples, r, methods, rule, a_n),
                     lambda stacks: [_StackedRatio(sets).statistics(beta0) for sets in stacks],
                     lambda rows, j, s: TestResult(s, threshold, bool(s > threshold),
                                                   rows.method, beta0, alpha))


def _method_problems(samples, r: int, methods, rule: str, a_n) -> list[_RowSet]:
    """Each method's rows for the samples, one :class:`_RowSet` per method,
    with the PwmError that building it raises for each other sample.

    The samples are built as one block: they are stacked and sorted along
    rows once, and every method's points and estimates come from row
    operations on the block; a sample that fails leaves the rows.  A sample
    may be given as its :class:`PseudoValues`, which only JEL and AJEL
    take; the pseudo-values of the block, or each sample's error building or
    checking them, are made once and shared by those two methods.
    """
    block = _sample_block(samples)
    pseudo = None
    sets = []
    for method in methods:
        if method in _ON_PSEUDO_VALUES:
            if pseudo is None:
                pseudo = _checked(block, r)
            sets.append(_METHODS[method](pseudo, r, rule, a_n))
        else:
            sets.append(_METHODS[method](block, r, rule, a_n))
    return sets


# The most points, rows times point width, that the rows of several methods
# share one stack with (see _by_stack): below it one stack saves the search
# rounds and per-solve setup of the others, above it it costs more than
# separate stacks.  Time of one stack of the JEL, DNEL and VXL rows of k
# exponential samples of size n over that of three stacks, fastest of 15
# alternated calls in one process on a 2-vCPU VM (Python 3.11, NumPy 2.4);
# intervals at level 0.95, tests at the true moment:
#
#     k x n      points   intervals   tests
#     1 x 300       900        0.58    0.86
#     1 x 3000     9000        0.86    0.89
#     10 x 300     9000        0.75    0.56
#     50 x 100    15000        0.87    0.71
#     10 x 1000   30000        0.96    0.70
#     50 x 200    30000        0.96    0.87
#     10 x 1500   45000        1.11    1.09
#     50 x 300    45000        1.00    1.04
#     64 x 300    57600        1.12    1.02
#     50 x 400    60000        1.28    1.17
#     50 x 1000  150000        1.32    1.37
#     50 x 3000  450000        1.14    1.57
_STACK_POINTS = 1 << 15


def _by_stack(sets: list[_RowSet], engine, result) -> list[tuple]:
    """``engine`` run on the stacks of the row sets ``sets``, one per
    method, as one tuple per sample holding each method's result or error.

    ``engine`` maps a list of stacks, each a list of row sets, to one list
    per stack of its rows' values or PwmErrors, in the order of its sets'
    rows; ``result(rows, j, value)`` makes the result of row j of the set
    ``rows`` from its value.  Sets whose rows have one point width and kind
    (plain, or centered) go to one call, so their rows share one stack: JEL,
    DNEL and VXL, which all have n plain points, share one, and AJEL has its
    own under either rule.  A stack takes the next set of its kind while it
    holds at most ``_STACK_POINTS`` points; past that it splits between
    sets, never within one, so a set alone is one stack at any size.  A
    row's value does not depend on its stack.
    """
    stacks = {}  # (width, bounded) -> [set indices of each stack], the last one open
    for c, rows in enumerate(sets):
        if not rows.rows:
            continue
        kind = stacks.setdefault((rows.values.shape[1], rows.adjust is None), [])
        if kind and sum(sets[d].values.size for d in kind[-1]) + rows.values.size <= _STACK_POINTS:
            kind[-1].append(c)
        else:
            kind.append([c])
    groups = [stack for kind in stacks.values() for stack in kind]
    columns = [rows.status for rows in sets]
    for stack, values in zip(groups, engine([[sets[c] for c in stack] for stack in groups])
                                     if groups else ()):
        values = iter(values)
        for c in stack:
            rows = sets[c]
            columns[c] = column = list(rows.status)
            # zip takes one value per row, and no more
            for j, (i, value) in enumerate(zip(rows.rows, values)):
                column[i] = value if isinstance(value, PwmError) else result(rows, j, value)
    return list(zip(*columns))


def _between(x, a, b):
    return (np.minimum(a, b) < x) & (x < np.maximum(a, b))


def _warm_start(lam, dlam, bend, dx):
    """The multiplier's guess ``dx`` away, ``lam + (dlam + bend * dx) * dx``,
    or ``lam`` where that is not finite."""
    guess = lam + (dlam + bend * dx) * dx
    np.copyto(guess, lam, where=~np.isfinite(guess))
    return guess


class _Searches:
    """The lower and upper endpoint searches of the rows of one or more
    stacks, as arrays over the searches still running, in the rows'
    coordinates: built from the stacks, one lockstep round per
    :meth:`advance`, read by :meth:`results`.  A row whose seed fails is not
    searched.  Search ``key`` is the lower (even) or upper search of stacked
    row ``row``; stack t's searched rows ``rows[t]`` have keys from ``first[t]``.

    Start.  The seed is the mean of the row's m points, with central moments
    ``m2`` and ``m3``.  The first Newton step from it, ``delta =
    sqrt(threshold * m2 / m)``, is skewed by ``kappa = delta * m3 / (3
    m2^2)``: the searches start at ``seed - delta (1 - kappa)`` and ``seed +
    delta (1 + kappa)``, where a skewed ratio crosses the threshold to third
    order.  Kappa is held within [-1/2, 1/2], since past 1 (a far outlier at
    a high level) a start would cross the seed.  There the first solve
    starts from the multiplier's second-order expansion about the seed,
    where it is 0 and its second derivative is ``2 dlam^2 m3 / m2``.  The
    step tolerance is ``beta_tol = 1e-8 * beta_scale``, the larger of the
    estimate's magnitude and its largest distance to a point (from the
    extremes, as rounding is monotone).  The hull of a bounded row's points,
    shrunk on both sides, bounds its searches; a start beyond it moves to
    the middle of the bracket.  The sums and extremes of the points are one
    set of reductions along each stack's rows, bit for bit the row-by-row
    ones.  The points are at most 1 in magnitude, so nothing overflows.

    Step.  A search takes Halley's step on ``h = sqrt(ratio) -
    sqrt(threshold)``, which is nearly linear in beta, or Newton's where
    Halley's denominator is not positive or a term is not finite.  The
    bracket runs from ``inside`` (ratio below the threshold, the seed at
    first) to ``outside``.  On a bounded row ``outside`` starts at the hull
    bound on the search's side, unevaluated, and a step that reaches it
    probes it once (``unprobed``), for its ratio alone.  Where the ratio
    stays finite the bound is nan, and so is ``outside`` until the search
    crosses; until then it doubles its distance from the seed.  Steps that
    leave the bracket become midpoints.  A search stops at a point whose
    ratio residual is at most ``_RESIDUAL_TOL`` and whose next Newton step
    is at most ``beta_tol``.  When the bracket closes to ``beta_tol`` or to
    float resolution, or after ``_MAX_STEPS`` evaluations, it returns its
    best point, the first with the least residual in ``history``, if that
    is within tolerance.

    Every search evaluates once per round, probes included, so ``evals``
    is the evaluation count of each search still running.  The solve at
    ``x`` starts from ``lam0``, the multiplier's tangent from the last point
    solved, ``solved_at``.  ``probe`` marks the searches whose ``x`` is
    their bound, or is None.  Results land in ``endpoint``, ``evaluations``
    and ``failure`` by key.
    """

    _STATE = ("key", "row", "seed", "bound", "unprobed", "beta_tol", "inside", "outside",
              "solved_at", "lam", "dlam", "x")

    def __init__(self, stacks: list[_StackedRatio], threshold: float):
        self.stacks, self.threshold, self.root_threshold = stacks, threshold, math.sqrt(threshold)
        self.outs, self.rows = [], []  # per stack: each row's result (None if searched), rows
        columns = []  # per stack: rows, m, m2, m3, extremes, hull bounds (or nan), at the seeds
        for ratio in stacks:
            seed, estimate = ratio.seeds()
            at_seed, lam, dlam, errors = ratio.at_seeds(seed)
            out = [None] * seed.size
            for j in np.flatnonzero(~(at_seed < threshold)).tolist():
                out[j] = ConvergenceError(
                    f"ratio at the point estimate ({at_seed[j]:.4g}) already exceeds "
                    f"the chi-square threshold ({threshold:.4g}); no interval exists")
            for j, exc in errors.items():
                out[j] = exc
            rows = np.array([j for j, o in enumerate(out) if o is None], dtype=int)
            points = ratio.points
            if rows.size < len(out):
                points, estimate, seed, lam, dlam = (
                    c[rows] for c in (points, estimate, seed, lam, dlam))
            m = points.shape[1]
            c = points - (np.add.reduce(points, axis=1) / m)[:, None]
            c2 = c * c
            m2 = np.add.reduce(c2, axis=1) / m
            m3 = np.add.reduce(np.multiply(c2, c, out=c2), axis=1) / m
            vmin, vmax = points.min(axis=1), points.max(axis=1)
            shrink = _HULL_SHRINK * (vmax - vmin) if ratio.adjust is None else math.nan
            self.outs.append(out)
            self.rows.append(rows)
            columns.append((rows, np.full(rows.size, m), m2, m3, vmin, vmax,
                            vmin + shrink, vmax - shrink, estimate, seed, lam, dlam))
        self.first = np.cumsum([0] + [2 * rows.size for rows in self.rows])
        columns = columns[0] if len(stacks) == 1 else [np.concatenate(c) for c in zip(*columns)]
        rows, m, m2, m3, vmin, vmax, lower, upper, estimate, seed, lam, dlam = columns
        scale = np.maximum(np.maximum(np.abs(estimate), vmax - estimate), estimate - vmin)
        delta = np.sqrt(threshold * m2 / m)
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = np.minimum(np.maximum(delta * m3 / (3.0 * m2 * m2), -0.5), 0.5)
            bend = dlam * dlam * m3 / m2
        flat = m2 == 0.0  # no spread: no skew
        if np.count_nonzero(flat):
            kappa[flat] = bend[flat] = 0.0

        def by_key(lower, upper=None):  # each row's value for its two searches
            if upper is None:
                return np.repeat(lower, 2)
            out = np.empty(2 * lower.size)
            out[0::2], out[1::2] = lower, upper
            return out

        x = by_key(seed - delta * (1.0 - kappa), seed + delta * (1.0 + kappa))
        seed, bound = by_key(seed), by_key(lower, upper)
        unprobed = ~np.isnan(bound)
        np.copyto(x, 0.5 * (seed + bound), where=unprobed & ~_between(x, seed, bound))
        lam, dlam = by_key(lam), by_key(dlam)
        with np.errstate(invalid="ignore", over="ignore"):
            self.lam0 = _warm_start(lam, dlam, by_key(bend), x - seed)
        self.key, self.row, self.seed, self.bound = np.arange(seed.size), by_key(rows), seed, bound
        self.unprobed, self.beta_tol = unprobed, by_key(_BETA_TOL * scale)
        self.inside, self.outside = seed.copy(), bound.copy()
        self.solved_at, self.lam, self.dlam, self.x = seed, lam, dlam, x
        self.probe, self.evals, self.history, self.failure = None, 0, [], {}
        self.reaching = bool(np.count_nonzero(np.isnan(self.outside)))
        self.endpoint = np.full(self.key.size, math.nan)
        self.evaluations = np.zeros(self.key.size, dtype=int)

    def advance(self) -> None:
        """One lockstep round: one batched solve per stack at its running
        searches' points, and one step of all of them."""
        ends = np.searchsorted(self.key, self.first).tolist()
        spans = [(ratio, a, b) for ratio, a, b in zip(self.stacks, ends, ends[1:]) if a < b]
        parts = [ratio(self.row[a:b], self.x[a:b], self.lam0[a:b]) for ratio, a, b in spans]
        if len(parts) == 1:
            self._step(*parts[0])
        else:
            self._step(*(np.concatenate(field) for field in list(zip(*parts))[:5]),
                       {a + t: exc for part, (_, a, _) in zip(parts, spans)
                        for t, exc in part[5].items()})

    def results(self) -> list:
        """Per stack, its rows' ``(lower, upper, evaluations)`` in the data's
        coordinates, or the error at the seed, else the lower, else the upper
        search's."""
        for ratio, rows, out, a in zip(self.stacks, self.rows, self.outs, self.first.tolist()):
            keys = slice(a, a + 2 * rows.size)
            # a failed search's endpoint is never read and may lie far out
            with np.errstate(over="ignore"):
                ends = ratio.unscaled(self.endpoint[keys], rows.repeat(2)).tolist()
            evals = self.evaluations[keys].tolist()
            for t, j in zip(range(0, len(ends), 2), rows.tolist()):
                out[j] = self.failure.get(a + t) or self.failure.get(a + t + 1) or (
                    ends[t], ends[t + 1], evals[t] + evals[t + 1])
        return self.outs

    def _unscaled(self, j: int, x: float) -> float:
        """``x``, in the coordinates of running search ``j``, in the data's."""
        t = int(np.searchsorted(self.first, self.key[j], side="right")) - 1
        return float(self.stacks[t].unscaled(x, self.row[j]))

    def _step(self, ratio, slope, lam, dlam, curvature, errors: dict) -> None:
        """One step of every search from the evaluation at its ``x``, as
        :class:`_StackedRatio` returns it, with ``{position: error}`` for the
        failed solves.  A failed lower search ends its upper search too."""
        x, probe, beta_tol = self.x, self.probe, self.beta_tol
        inside, outside = self.inside, self.outside
        self.evals += 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            resid = ratio - self.threshold
            size = np.abs(resid)
            root = np.sqrt(ratio)
            h = root - self.root_threshold
            two_root = 2.0 * root
            # Newton's step; not finite at a zero slope, which every bracket
            # test but the probe's takes as it takes nan
            step = x - two_root * h / slope
            done = (size <= _RESIDUAL_TOL) & (np.abs(step - x) <= beta_tol)
            dh = slope / two_root
            d2h = (curvature - slope * dh / root) / two_root
            denominator = 2.0 * dh * dh - h * d2h
            halley = x - 2.0 * h * dh / denominator
            # a ratio of 0 or not finite, or a slope or curvature not finite,
            # leaves the denominator nan or infinite
            halley_ok = (0.0 < denominator) & (denominator < math.inf) & np.isfinite(halley)
            np.copyto(step, halley, where=halley_ok)
            below = resid < 0.0
            below_bound = expand_failed = None
            if probe is None:
                solved_at = x
                np.copyto(inside, x, where=below)
            else:  # a probe reads the ratio alone
                regular = ~probe
                below_bound = probe & (ratio < self.threshold)
                done &= regular
                np.copyto(inside, x, where=below & regular)
                below |= probe
                size = np.where(probe, math.inf, size)
                solved_at = np.where(probe, self.solved_at, x)
                np.copyto(lam, self.lam, where=probe)
                np.copyto(dlam, self.dlam, where=probe)
                self.unprobed &= regular
            np.copyto(outside, x, where=~below)
            self.history.append((self.key, x, size))
            # the step inside the bracket, else the midpoint (both nan while
            # there is no outside end)
            x = 0.5 * (inside + outside)
            lo, hi = np.minimum(inside, outside), np.maximum(inside, outside)
            stride = (lo < step) & (step < hi)
            stop = hi - lo <= beta_tol
            if probe is not None:
                stride &= regular
                stop &= regular
            np.copyto(x, step, where=stride)
            midpoint, probe = ~stride, None
            if np.count_nonzero(midpoint):
                reaches = midpoint & self.unprobed & (outside == self.bound)
                if np.count_nonzero(reaches):  # Newton's step is nan at a zero slope
                    reaches &= (((step - self.bound) * (self.bound - self.seed) >= 0.0)
                                & (halley_ok | (slope != 0.0)))
                    probe = reaches if np.count_nonzero(reaches) else None
                resolved = midpoint & ((x == inside) | (x == outside))
                stop |= resolved if probe is None else resolved & ~probe
            if self.reaching:
                far = np.isnan(outside)
                self.reaching = bool(np.count_nonzero(far))
                if self.reaching:
                    reach = self.seed + 2.0 * (inside - self.seed)
                    np.copyto(reach, step, where=_between(step, inside, reach))
                    np.copyto(x, reach, where=far)
                    if self.evals >= _MAX_EXPAND:
                        expand_failed = far & ~done
            if self.evals >= _MAX_STEPS:
                stop |= True if probe is None else ~probe
            ended = done | stop
            for failed in (below_bound, expand_failed):
                if failed is not None:
                    ended |= failed
            if errors:
                done[list(errors)] = False
                ended[list(errors)] = True
            self.solved_at, self.lam, self.dlam = solved_at, lam, dlam
            self.x, self.probe = x, probe
            if probe is not None:
                np.copyto(x, self.bound, where=probe)
            if np.count_nonzero(ended):
                self._retire(ended, done, errors, below_bound, expand_failed)
            self.lam0 = _warm_start(self.lam, self.dlam, 0.0, self.x - self.solved_at)

    def _retire(self, ended, done, errors: dict, below_bound, expand_failed) -> None:
        """Record the results of the searches that ``ended`` and drop them,
        with the upper search of each failed lower one."""
        key = self.key
        self.endpoint[key], self.evaluations[key] = self.solved_at, self.evals
        for j in np.flatnonzero(ended & ~done).tolist():
            k = int(key[j])
            if j in errors:
                exc = errors[j]
            elif below_bound is not None and below_bound[j]:
                exc = ConvergenceError("ratio stays below the threshold out to the hull bound "
                                       f"{self._unscaled(j, self.bound[j]):.6g}")
            elif expand_failed is not None and expand_failed[j]:
                exc = ConvergenceError("adjusted ratio appears bounded below the threshold; "
                                       "the interval does not close on this side")
            else:
                best, best_resid = math.nan, math.inf
                for keys, xs, sizes in self.history:
                    t = int(np.searchsorted(keys, k))
                    if t < keys.size and keys[t] == k and sizes[t] < best_resid:
                        best, best_resid = float(xs[t]), float(sizes[t])
                if best_resid <= _RESIDUAL_TOL:
                    self.endpoint[k] = best
                    continue
                exc = ConvergenceError(
                    f"interval endpoint stalled with ratio residual {best_resid:.3e}",
                    best=self._unscaled(j, best))
            self.failure[k] = exc
            if k % 2 == 0 and j + 1 < key.size and key[j + 1] == k + 1:
                ended[j + 1] = True
        keep = np.flatnonzero(~ended)
        for name in self._STATE:
            setattr(self, name, getattr(self, name)[keep])
        if self.probe is not None:
            probe = self.probe[keep]
            self.probe = probe if np.count_nonzero(probe) else None


def _lockstep_intervals(stacks: list, level: float) -> list:
    """The interval ends of every row of each of ``stacks`` (each a list of
    row sets), as :meth:`_Searches.results` gives them.  A failure ends its
    own row only, so a row's result does not depend on the batch."""
    searches = _Searches([_StackedRatio(sets) for sets in stacks], chi2_1_quantile(level))
    while searches.key.size:
        searches.advance()
    return searches.results()


def jel_neg2_ratio(sample, r: int, beta0: float) -> float:
    """Minus twice the log EL ratio of the pseudo-values at ``beta0``.

    Infinite when beta0 lies outside the open hull of the pseudo-values.
    """
    return ratio_test(sample, r, beta0, 0.5, "JEL").statistic


def ajel_neg2_ratio(sample, r: int, beta0: float, rule: str = "centered", a_n=None) -> float:
    """Adjusted version of :func:`jel_neg2_ratio`.

    Under the default centered rule the result is finite for every finite
    beta0 and bounded above by the unadjusted ratio.  Under the literal
    rule the hull constraint applies to the augmented point set, so the
    infinite marker can still occur.
    """
    return ratio_test(sample, r, beta0, 0.5, "AJEL", rule, a_n).statistic


def jel_confidence_interval(sample, r: int, level: float = 0.95) -> ConfidenceInterval:
    """Confidence interval from inverting the pseudo-value EL ratio.

    The search stays inside the open hull of the pseudo-values, where the
    ratio is finite and grows without bound; see :func:`confidence_interval`
    for the stopping rule.
    """
    return confidence_interval(sample, r, level, "JEL")


def ajel_confidence_interval(sample, r: int, level: float = 0.95,
                             rule: str = "centered", a_n=None) -> ConfidenceInterval:
    """Adjusted-ratio confidence interval.

    With the centered rule the ratio is finite everywhere, so the search may
    leave the pseudo-value hull, doubling its reach until the threshold is
    crossed; the result always contains the unadjusted interval.  With the
    literal rule the search stays inside the hull of the augmented point set.
    """
    return confidence_interval(sample, r, level, "AJEL", rule, a_n)


def jel_test(sample, r: int, beta0: float, alpha: float = 0.05) -> TestResult:
    """Chi-square calibrated test of ``beta_r = beta0``."""
    return ratio_test(sample, r, beta0, alpha, "JEL")


def ajel_test(sample, r: int, beta0: float, alpha: float = 0.05,
              rule: str = "centered", a_n=None) -> TestResult:
    """Adjusted-ratio test of ``beta_r = beta0``."""
    return ratio_test(sample, r, beta0, alpha, "AJEL", rule, a_n)


def _plugin_method(method: str) -> str:
    if method not in ("DNEL", "VXL"):
        raise PwmInputError(f"unknown comparison method {method!r}; expected ('DNEL', 'VXL')")
    return method


def plugin_el_ci(sample, r: int, level: float = 0.95, method: str = "DNEL") -> ConfidenceInterval:
    """EL interval on the DNEL or VXL summands, centered at their mean."""
    return confidence_interval(sample, r, level, _plugin_method(method))


def plugin_el_test(sample, r: int, beta0: float, alpha: float = 0.05,
                   method: str = "DNEL") -> TestResult:
    """EL test of ``mean(summands) = beta0``; infinite ratio outside the hull."""
    return ratio_test(sample, r, beta0, alpha, _plugin_method(method))
