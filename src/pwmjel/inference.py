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
for an interval.  ``_METHODS`` maps each method name to the ratio problems
it builds, and ``_method_problems`` alone turns samples into problems: it
stacks and sorts a batch's samples once and builds every method's points
and estimates with row operations on that block (the row functions of
:mod:`pwmjel.estimators`, whose one-row case its per-sample functions
are).  One engine evaluates and inverts the ratios of many problems
together, one batched EL solve per search step; problems of one point width
and kind share its stack whatever their method, up to a measured size
(``_by_stack``).  :func:`confidence_intervals` and :func:`ratio_tests` run
it on many samples, and :func:`confidence_interval` and :func:`ratio_test`
are their one-sample case.
"""

from __future__ import annotations

import itertools
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
class _RatioProblem:
    """One method's EL ratio in beta, with what its inversion needs.

    Row ``row`` of ``source`` (the method's point sets of the whole batch,
    one row per sample) is the EL point set, tested for mean beta; under the
    centered adjustment (``adjust`` set to its ``a``) it is the
    pseudo-values, which are centered at beta and augmented before the EL
    test of mean zero.  ``seed`` is where the ratio bottoms out, which
    differs from ``estimate`` only under the literal adjustment rule; the
    hull of the points bounds the interval search unless the problem is
    centered.  ``method`` names the method whose problem this is.
    """

    source: np.ndarray
    row: int
    estimate: float
    seed: float
    method: str
    adjust: float | None = None

    @property
    def bounded(self) -> bool:
        return self.adjust is None


@dataclass(frozen=True)
class _Block:
    """A batch's samples as the rows of one matrix of their one size ``n``:
    row ``values[j]`` belongs to sample ``rows[j]``.  ``status[i]`` is None
    while sample i is usable, else what stands in for it: its PwmError, or
    in a block of sorted samples the caller's :class:`PseudoValues`.  A
    block of pseudo-values also holds each row's U-statistic estimate."""

    status: list
    rows: list
    values: np.ndarray | None
    n: int | None
    estimate: list | None = None


def _failing(status: list, rows: list, exc: PwmError) -> list:
    """``status`` with ``exc`` for each of the samples ``rows`` still usable."""
    out = list(status)
    for i in rows:
        if out[i] is None:
            out[i] = exc
    return out


def _joined(parts: list) -> tuple[list, np.ndarray]:
    """The ``(rows, matrix)`` pairs ``parts`` as one pair."""
    if len(parts) == 1:
        return parts[0]
    return [i for rows, _ in parts for i in rows], np.concatenate([x for _, x in parts])


def _sample_block(samples) -> _Block:
    """The samples sorted along the rows of one block, in which a sample
    that :meth:`SortedSample.from_data` rejects gets its error; raises
    :class:`PwmInputError` unless the other samples share one size."""
    status = [s if isinstance(s, PseudoValues) else None for s in samples]
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
    rows, x = _joined(parts) if parts else ([], None)
    return _Block(status, rows, x, sizes.pop() if sizes else None)


def _checked(block: _Block, r) -> _Block:
    """The block of pseudo-values of a block of sorted samples: built for
    all its rows at once and joined by the caller's :class:`PseudoValues`
    that were built for ``r``, with an error for each degenerate row."""
    status = [s if isinstance(s, PwmError) else None for s in block.status]
    parts, estimate = [], []  # parts: (rows, values)
    if block.rows:
        try:
            values, beta = pseudo_value_rows(block.values, r)
        except PwmError as exc:
            status = _failing(status, block.rows, exc)
        else:
            parts.append((block.rows, values))
            estimate += beta.tolist()
    for i, pv in enumerate(block.status):
        if isinstance(pv, PseudoValues):
            if pv.r != r:
                status[i] = PwmInputError(
                    f"pseudo-values were built for r = {pv.r}, requested r = {r}"
                )
            else:
                parts.append(([i], pv.values[None]))
                estimate.append(pv.ustat_estimate)
    if not parts:
        return _Block(status, [], None, block.n, [])
    rows, values = _joined(parts)
    values.flags.writeable = False
    # constant input leaves rounding noise of a few n*eps relative to the
    # pseudo-values, so the spread is compared against that floor
    vmax, vmin = values.max(axis=1), values.min(axis=1)
    flat = vmax - vmin <= 64.0 * block.n * np.finfo(float).eps * np.maximum(vmax, -vmin)
    for j in np.flatnonzero(flat).tolist():
        status[rows[j]] = DegenerateSampleError(
            "all jackknife pseudo-values are identical; the likelihood "
            "ratio carries no information"
        )
    return _Block(status, rows, values, block.n, estimate)


class _StackedRatio:
    """Ratio problems of one point width and one kind (plain, or centered),
    of one or more methods, stacked so that one :func:`el.solve_rows` call
    evaluates the ratio of any subset.

    Each row runs in its own coordinates, ``beta * 2**-exponent[i]``, with
    the power of two that brings the row's largest point magnitude into
    [1/2, 1); ``points`` holds the scaled rows, and beta, the multiplier and
    the derivatives are in these coordinates.  Scaling by a power of two is
    exact, so the EL solves and the endpoint searches see the same numbers
    at every data scale, and the multiplier's derivatives, which scale with
    the inverse square of the data, neither over- nor underflow.  The rows
    are scaled straight from the problems' sources: the problems of one
    method that follow each other in the stack are one run of rows of its
    source, all of it where they are every row in order.

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

    def __init__(self, problems: list[_RatioProblem]):
        self.points = np.empty((len(problems), problems[0].source.shape[1]))
        self.exponent = []
        for _, run in itertools.groupby(problems, lambda p: id(p.source)):
            run = list(run)
            source, rows = run[0].source, [p.row for p in run]
            if rows != list(range(len(source))):
                source = source[rows]
            # frexp's int32 exponents keep ldexp on its fast loop
            exponent = np.frexp(np.maximum(source.max(axis=1), -source.min(axis=1)))[1]
            lo = len(self.exponent)
            np.ldexp(source, -exponent[:, None], out=self.points[lo:lo + len(run)])
            self.exponent += exponent.tolist()
        self.adjust = (None if problems[0].adjust is None
                       else np.array([p.adjust for p in problems]))

    def _el_rows(self, rows, beta):
        """The EL point sets and hypothesized means of problem ``rows[j]``
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
        plain problem's hull failure is no error but an infinite ratio, as
        :func:`el.solve_rows` leaves the row at log ratio -inf."""
        errors = {j: exc for j, exc in sol.errors.items()
                  if self.adjust is not None or not isinstance(exc, HullError)}
        ratio = -2.0 * sol.log_ratio
        return np.where(ratio > 0.0, ratio, 0.0), errors

    def statistics(self, rows, beta, lam0):
        """The ratio of problem ``rows[j]`` at ``beta[j]`` from ``lam0[j]``,
        as a list, and ``{j: error}`` for the rows whose solve fails; the
        ratio is infinite outside the hull of a plain problem."""
        z, mu, _ = self._el_rows(rows, beta)
        ratio, errors = self._ratios(_el.solve_rows(z, mu, lam0))
        return ratio.tolist(), errors

    def __call__(self, rows, beta, lam0):
        """Ratio, slope, multiplier, the multiplier's derivative and the
        ratio's curvature of problem ``rows[j]`` at ``beta[j]`` from
        ``lam0[j]``, as arrays, and ``{j: error}`` for the rows whose solve
        fails.  Outside the hull of a plain problem the ratio is infinite,
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
        """The ratio, multiplier and multiplier's derivative of every problem
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


def _problems(status: list, rows: list, points, estimate: list, seed: list, method: str,
              adjust: float | None = None) -> list:
    """One entry per sample: the error in ``status``, or for sample
    ``rows[j]`` the ``method`` problem on row ``j`` of ``points``, with
    ``estimate[j]`` and ``seed[j]``."""
    out = list(status)
    for j, i in enumerate(rows):
        if out[i] is None:
            out[i] = _RatioProblem(points, j, estimate[j], seed[j], method, adjust)
    return out


def _jel_problems(pv: _Block, r, rule, a_n) -> list:
    return _problems(pv.status, pv.rows, pv.values, pv.estimate, pv.estimate, "JEL")


def _ajel_problems(pv: _Block, r, rule, a_n) -> list:
    if not pv.rows:
        return pv.status
    try:
        a = adjustment_constant(pv.n) if a_n is None else float(a_n)
    except PwmError as exc:
        return _failing(pv.status, pv.rows, exc)
    if rule == "centered":
        return _problems(pv.status, pv.rows, pv.values, pv.estimate, pv.estimate, "AJEL", a)
    # the augmented set does not depend on the tested value, so the ratio
    # bottoms out at the augmented mean rather than at the point estimate
    k, m = pv.values.shape
    aug = np.empty((k, m + 1))
    aug[:, :m] = pv.values
    aug[:, m] = -(a / pv.n) * np.add.reduce(pv.values, axis=1)
    aug.flags.writeable = False
    seed = (np.add.reduce(aug, axis=1) / (m + 1)).tolist()
    return _problems(pv.status, pv.rows, aug, pv.estimate, seed, "AJEL")


def _plugin_problems(method: str):
    def problems(block: _Block, r, rule, a_n) -> list:
        status = [PwmInputError(f"{method} needs the sample, not its pseudo-values")
                  if isinstance(s, PseudoValues) else s for s in block.status]
        if not block.rows:
            return status
        try:
            z = summand_rows(block.values, r, method)
        except PwmError as exc:
            return _failing(status, block.rows, exc)
        z.flags.writeable = False
        for j in np.flatnonzero(z.max(axis=1) - z.min(axis=1) == 0.0).tolist():
            status[block.rows[j]] = DegenerateSampleError(
                f"{method} summands are all identical; no likelihood spread"
            )
        estimate = (np.add.reduce(z, axis=1) / block.n).tolist()
        return _problems(status, block.rows, z, estimate, estimate, method)
    return problems


# The method table: each entry turns the batch's block of sorted samples (for
# JEL and AJEL its checked pseudo-values), r, rule and a_n into one ratio
# problem per sample, or the sample's error; both the test and the interval
# run on it.
# ``rule`` and ``a_n`` only shape AJEL.
_METHODS = {
    "DNEL": _plugin_problems("DNEL"),
    "VXL": _plugin_problems("VXL"),
    "JEL": _jel_problems,
    "AJEL": _ajel_problems,
}
CI_METHODS = tuple(_METHODS)

# The methods whose problems are built from the jackknife pseudo-values.
_ON_PSEUDO_VALUES = frozenset({"JEL", "AJEL"})


def check_options(methods, rule: str = "centered", a_n=None, *, level=None,
                  alpha=None, beta0=None) -> tuple[str, ...]:
    """Check the options of an interval or test, before any numeric work.

    ``level`` and ``alpha`` must lie in (0, 1) and ``beta0`` must be finite
    (each is checked unless None); ``methods`` must be a non-empty sequence of
    names from :data:`CI_METHODS`, ``rule`` must be ``centered`` or
    ``literal``, and ``a_n``, unless None, must be positive and finite.  Raises
    :class:`PwmInputError`; returns the methods as a tuple.
    """
    if level is not None and not 0.0 < level < 1.0:
        raise PwmInputError(f"confidence level must be in (0, 1), got {level}")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise PwmInputError(f"test size must be in (0, 1), got {alpha}")
    if beta0 is not None and not math.isfinite(float(beta0)):
        raise PwmInputError("hypothesized value must be finite")
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


def _neg2_ratio(sample, r, beta0, method: str, rule: str = "centered", a_n=None) -> float:
    check_options((method,), rule, a_n, beta0=beta0)
    (problems,) = _method_problems([sample], r, (method,), rule, a_n)
    return _raised(_statistics(problems, beta0)[0])


def _raised(result):
    """``result`` of a one-problem lockstep call, raised if it is an error."""
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
    columns = _by_stack(_method_problems(samples, r, methods, rule, a_n),
                        lambda stacks: _lockstep_intervals(stacks, level))
    return list(zip(*columns))


def ratio_tests(samples, r: int, beta0: float, alpha: float, methods,
                rule: str = "centered", a_n=None) -> list[tuple]:
    """:func:`ratio_test` for every sample and method, one batched EL solve
    per stack of :func:`confidence_intervals`; returned as it returns
    intervals."""
    methods = check_options(methods, rule, a_n, alpha=alpha, beta0=beta0)
    threshold = chi2_1_quantile(1.0 - alpha)

    def tests(stacks):
        return [[s if isinstance(s, PwmError)
                 else TestResult(s, threshold, bool(s > threshold), p.method, beta0, alpha)
                 for p, s in zip(problems, _statistics(problems, beta0))]
                for problems in stacks]
    return list(zip(*_by_stack(_method_problems(samples, r, methods, rule, a_n), tests)))


def _method_problems(samples, r: int, methods, rule: str, a_n) -> list:
    """For each method, its ratio problem for every sample, or the PwmError
    building it raises.

    The samples are built as one block: they are stacked and sorted along
    rows once, and every method's points and estimates come from row
    operations on the block, with row masks picking out the samples that
    fail.  A sample may be given as its :class:`PseudoValues`, which only
    JEL and AJEL take; the pseudo-values of the block, or each sample's
    error building or checking them, are made once and shared by those two
    methods.
    """
    block = _sample_block(samples)
    pseudo = None
    columns = []
    for method in methods:
        if method in _ON_PSEUDO_VALUES:
            if pseudo is None:
                pseudo = _checked(block, r)
            columns.append(_METHODS[method](pseudo, r, rule, a_n))
        else:
            columns.append(_METHODS[method](block, r, rule, a_n))
    return columns


# The most points, rows times point width, that problems of several methods
# share one stack with (see _by_stack): below it one stack saves the search
# rounds and per-solve setup of the others, above it it costs more than
# separate stacks.  Time of one stack of the JEL, DNEL and VXL problems of k
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


def _by_stack(columns: list, engine) -> list:
    """``engine``, which maps a list of stacks, each a list of problems (or
    pass-through PwmError), to their results, run on the stacks of
    ``columns``, one such list per method, with each column's results in
    its place.

    Columns whose problems have one point width and kind (plain, or
    centered) go to one call, so their rows share one stack: JEL, DNEL and
    VXL, which all have n plain points, share one, and AJEL has its own
    under either rule.  A stack takes the next column of its kind while it
    holds at most ``_STACK_POINTS`` points; past that it splits between
    columns, never within one, so a column alone is one stack at any size.
    A problem's result does not depend on its stack.
    """
    out = list(columns)
    stacks = {}  # (width, bounded) -> [(columns, points)], the last one open
    for c, problems in enumerate(columns):
        live = [p for p in problems if isinstance(p, _RatioProblem)]
        if not live:
            continue
        width = live[0].source.shape[1]
        kind = stacks.setdefault((width, live[0].bounded), [])
        points = len(live) * width
        if kind and kind[-1][1] + points <= _STACK_POINTS:
            kind[-1] = (kind[-1][0] + [c], kind[-1][1] + points)
        else:
            kind.append(([c], points))
    groups = [stack for kind in stacks.values() for stack, _ in kind]
    for stack, results in zip(groups, engine([[p for c in stack for p in columns[c]]
                                              for stack in groups])):
        results = iter(results)
        for c in stack:
            out[c] = list(itertools.islice(results, len(columns[c])))
    return out


def _statistics(problems: list, beta0: float) -> list:
    """The ratio statistic of every problem (or pass-through PwmError) at
    ``beta0``, or the error its solve fails with, from one batched solve."""
    out = [p if isinstance(p, PwmError) else None for p in problems]
    live = [i for i, p in enumerate(problems) if out[i] is None]
    if live:
        ratio = _StackedRatio([problems[i] for i in live])
        stats, errors = ratio.statistics(
            slice(None), [_scaled_beta(float(beta0), e) for e in ratio.exponent],
            np.zeros(len(live)))
        for j, i in enumerate(live):
            out[i] = errors.get(j, stats[j])
    return out


def _scaled_beta(beta: float, exponent: int) -> float:
    """``beta`` in the coordinates of a stacked row with this ``exponent``.

    Held within +-2**60 there: farther out every point (at most 1 in
    magnitude) rounds away against beta, so the ratio no longer changes; it
    is infinite for plain EL and at its plateau under the centered
    adjustment, whose point set is then exactly proportional to beta.
    """
    if math.frexp(beta)[1] - exponent > 60:
        return math.copysign(2.0 ** 60, beta)
    return math.ldexp(beta, -exponent)


def _between(x, a, b):
    return (np.minimum(a, b) < x) & (x < np.maximum(a, b))


def _warm_start(lam, dlam, bend, dx):
    """The multiplier's guess ``dx`` away, ``lam + (dlam + bend * dx) * dx``,
    or ``lam`` where that is not finite."""
    guess = lam + (dlam + bend * dx) * dx
    np.copyto(guess, lam, where=~np.isfinite(guess))
    return guess


class _Searches:
    """The endpoint searches of one or more stacks, as arrays over the
    searches still running; :func:`_endpoint_searches` builds them and
    :meth:`advance` takes all of them one step.

    Search ``key`` is the lower (even ``key``) or upper endpoint search of
    row ``row`` of its stack, in that row's coordinates.  It takes Halley's
    step on ``h = sqrt(ratio) - sqrt(threshold)``, which is nearly linear in
    beta, or Newton's where Halley's denominator is not positive or a term
    is not finite.  The bracket runs from ``inside`` (ratio below the
    threshold, the seed at first) to ``outside``.  On a bounded problem
    ``outside`` starts at the hull bound on the search's side, unevaluated,
    and a step that reaches it probes it once (``unprobed``), for its ratio
    alone.  Where the ratio stays finite the bound is nan, and so is
    ``outside`` until the search crosses; until then it doubles its
    distance from the seed.  Steps that leave the bracket become midpoints.
    A search stops at a point whose ratio residual is at most
    ``_RESIDUAL_TOL`` and whose next Newton step is at most ``beta_tol``.
    When the bracket closes to ``beta_tol`` or to float resolution, or
    after ``_MAX_STEPS`` evaluations, it returns its best point, the first
    with the least residual in ``history``, if that is within tolerance.

    Every search evaluates once per round, probes included, so ``evals``
    is the evaluation count of each search still running.  The solve at
    ``x`` starts from ``lam0``, the multiplier's tangent from the last point
    solved, ``solved_at``.  ``probe`` marks the searches whose ``x`` is
    their bound, or is None.  Results land in ``endpoint``, ``evaluations``
    and ``failure`` by key, with an error's bound and best point scaled back
    by ``2**exponent[key // 2]``.
    """

    _STATE = ("key", "row", "seed", "bound", "unprobed", "beta_tol", "inside", "outside",
              "solved_at", "lam", "dlam", "x")

    def __init__(self, threshold: float, exponent: np.ndarray, **state):
        self.threshold, self.root_threshold = threshold, math.sqrt(threshold)
        self.exponent = exponent
        self.__dict__.update(state)
        self.probe, self.evals, self.history, self.failure = None, 0, [], {}
        self.reaching = bool(np.count_nonzero(np.isnan(self.outside)))
        self.endpoint = np.full(self.key.size, math.nan)
        self.evaluations = np.zeros(self.key.size, dtype=int)

    def advance(self, ratio, slope, lam, dlam, curvature, errors: dict) -> None:
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
            e = int(self.exponent[k // 2])
            if j in errors:
                exc = errors[j]
            elif below_bound is not None and below_bound[j]:
                exc = ConvergenceError("ratio stays below the threshold out to the hull bound "
                                       f"{math.ldexp(float(self.bound[j]), e):.6g}")
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
                    best=math.ldexp(best, e))
            self.failure[k] = exc
            if k % 2 == 0 and j + 1 < key.size and key[j + 1] == k + 1:
                ended[j + 1] = True
        keep = np.flatnonzero(~ended)
        for name in self._STATE:
            setattr(self, name, getattr(self, name)[keep])
        if self.probe is not None:
            probe = self.probe[keep]
            self.probe = probe if np.count_nonzero(probe) else None


def _endpoint_searches(stacks: list, threshold: float) -> _Searches:
    """The lower and upper endpoint searches of the given rows of one or
    more stacks, keys ``2 t`` and ``2 t + 1`` for the t-th row counted over
    all stacks.  Each entry of ``stacks`` holds a :class:`_StackedRatio`,
    its rows to search, and their exponents, and estimates, seeds,
    multipliers and multiplier's derivatives in the rows' coordinates
    (entries after those are the caller's).  The sums and extremes of the
    points are one set of reductions along each stack's rows, bit for bit
    the row-by-row ones; the rest is arithmetic on arrays over the rows.

    The seed is the mean of the m points, with central moments ``m2`` and
    ``m3``.  The first Newton step from it, ``delta = sqrt(threshold * m2 /
    m)``, is skewed by ``kappa = delta * m3 / (3 m2^2)``: the searches start
    at ``seed - delta (1 - kappa)`` and ``seed + delta (1 + kappa)``, where a
    skewed ratio crosses the threshold to third order.  Kappa is held within
    [-1/2, 1/2], since past 1 (a far outlier at a high level) a start would
    cross the seed.  There the first solve starts from the multiplier's
    second-order expansion about the seed, where it is 0 and its second
    derivative is ``2 dlam^2 m3 / m2``.  The step tolerance is ``beta_tol =
    1e-8 * beta_scale``, where ``beta_scale`` is the larger of the
    estimate's magnitude and the largest distance from it to a point (taken
    from the extremes, as rounding is monotone); when the problem is
    bounded the hull of its points, shrunk on both sides, bounds the
    search, and a start beyond it moves to the middle of the bracket.  The
    points are at most 1 in magnitude, so none of this can overflow.
    """
    columns = []  # per stack: rows, m, m2, m3, extremes, hull bounds (or nan), given
    for ratio, rows, *given in stacks:
        points = ratio.points if len(rows) == len(ratio.points) else ratio.points[rows]
        m = points.shape[1]
        c = points - (np.add.reduce(points, axis=1) / m)[:, None]
        c2 = c * c
        m2 = np.add.reduce(c2, axis=1) / m
        m3 = np.add.reduce(np.multiply(c2, c, out=c2), axis=1) / m
        vmin, vmax = points.min(axis=1), points.max(axis=1)
        shrink = _HULL_SHRINK * (vmax - vmin) if ratio.adjust is None else math.nan
        columns.append((rows, np.full(len(rows), m), m2, m3, vmin, vmax,
                        vmin + shrink, vmax - shrink, *given[:5]))
    columns = columns[0] if len(stacks) == 1 else [np.concatenate(c) for c in zip(*columns)]
    rows, m, m2, m3, vmin, vmax, lower, upper, exponent, estimate, seed, lam, dlam = columns
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
        lam0 = _warm_start(lam, dlam, by_key(bend), x - seed)
    return _Searches(
        threshold, exponent, key=np.arange(seed.size), row=by_key(rows), seed=seed,
        bound=bound, unprobed=unprobed, beta_tol=by_key(_BETA_TOL * scale), inside=seed.copy(),
        outside=bound.copy(), solved_at=seed, lam=lam, dlam=dlam, x=x, lam0=lam0)


def _lockstep_intervals(stacks: list, level: float) -> list:
    """The interval of every problem (or pass-through PwmError) of each of
    ``stacks``, or the error that ends it, as one list per stack.

    Each problem's ratio is inverted on both sides of its seed.  The
    searches of all stacks advance together as arrays (:class:`_Searches`):
    a round is one batched solve per stack at the running searches' points
    and one masked step of all of them, and a search leaves the arrays when
    it finishes or fails.  A failure ends its own problem only; a lower
    endpoint's failure wins and ends the upper search, so a problem's
    result does not depend on the others in the batch.
    """
    threshold = chi2_1_quantile(level)
    outs = [[p if isinstance(p, PwmError) else None for p in problems] for problems in stacks]
    searched = []  # (ratio, rows, their columns, live problems, their places, results)
    for problems, out in zip(stacks, outs):
        at = [i for i, p in enumerate(problems) if out[i] is None]
        if not at:
            continue
        live = [problems[i] for i in at]
        ratio = _StackedRatio(live)
        exponent = np.array(ratio.exponent)
        seeds = np.ldexp([p.seed for p in live], -exponent)
        at_seed, lam, dlam, errors = ratio.at_seeds(seeds)
        for j in np.flatnonzero(~(at_seed < threshold)).tolist():
            out[at[j]] = ConvergenceError(
                f"ratio at the point estimate ({at_seed[j]:.4g}) already exceeds "
                f"the chi-square threshold ({threshold:.4g}); no interval exists")
        for j, exc in errors.items():
            out[at[j]] = exc
        rows = [j for j, i in enumerate(at) if out[i] is None]
        if rows:
            estimate = np.ldexp([p.estimate for p in live], -exponent)
            columns = (exponent, estimate, seeds, lam, dlam)
            if len(rows) < len(live):
                columns = tuple(c[rows] for c in columns)
            searched.append((ratio, np.array(rows), *columns, live, at, out))
    if not searched:
        return outs
    searches = _endpoint_searches(searched, threshold)
    first = np.cumsum([0] + [2 * stack[1].size for stack in searched])  # keys per stack
    while searches.key.size:
        ends = np.searchsorted(searches.key, first).tolist()
        spans = [(stack[0], a, b) for stack, a, b in zip(searched, ends, ends[1:]) if a < b]
        parts = [ratio(searches.row[a:b], searches.x[a:b], searches.lam0[a:b])
                 for ratio, a, b in spans]
        if len(parts) == 1:
            searches.advance(*parts[0])
        else:
            searches.advance(*(np.concatenate(field) for field in list(zip(*parts))[:5]),
                             {a + t: exc for part, (_, a, _) in zip(parts, spans)
                              for t, exc in part[5].items()})
    endpoint, evaluations = searches.endpoint.tolist(), searches.evaluations.tolist()
    key = 0
    failure = searches.failure
    for _, rows, exponent, *_, live, at, out in searched:
        for j, e in zip(rows.tolist(), exponent.tolist()):
            out[at[j]] = failure.get(key) or failure.get(key + 1) or ConfidenceInterval(
                math.ldexp(endpoint[key], e), math.ldexp(endpoint[key + 1], e), level,
                live[j].method, live[j].estimate, evaluations[key] + evaluations[key + 1])
            key += 2
    return outs


def jel_neg2_ratio(sample, r: int, beta0: float) -> float:
    """Minus twice the log EL ratio of the pseudo-values at ``beta0``.

    Infinite when beta0 lies outside the open hull of the pseudo-values.
    """
    return _neg2_ratio(sample, r, beta0, "JEL")


def ajel_neg2_ratio(sample, r: int, beta0: float, rule: str = "centered", a_n=None) -> float:
    """Adjusted version of :func:`jel_neg2_ratio`.

    Under the default centered rule the result is finite for every finite
    beta0 and bounded above by the unadjusted ratio.  Under the literal
    rule the hull constraint applies to the augmented point set, so the
    infinite marker can still occur.
    """
    return _neg2_ratio(sample, r, beta0, "AJEL", rule, a_n)


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
