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
their one-sample case.  The build puts each row in its own power-of-two
frame, and ``_Searches`` builds a call's endpoint searches from its stacks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import el as _el
from .distributions import chi2_1_cdf, chi2_1_quantile
from .errors import ConvergenceError, DegenerateSampleError, HullError, PwmError, PwmInputError
from .estimators import pseudo_value_rows, sorted_rows, summand_rows

__all__ = [
    "ADJUSTMENT_RULES",
    "CI_METHODS",
    "ConfidenceInterval",
    "TestResult",
    "adjustment_constant",
    "check_options",
    "check_probability",
    "confidence_interval",
    "confidence_intervals",
    "ratio_test",
    "ratio_tests",
    "jel_neg2_ratio",
    "ajel_neg2_ratio",
    "jel_confidence_interval",
    "ajel_confidence_interval",
    "jel_test",
    "plugin_el_ci",
]

# The augmentation rules of AJEL, as the module docstring describes them.
ADJUSTMENT_RULES = ("centered", "literal")

# Endpoint search controls: ratio residual tolerance at the returned endpoint,
# relative beta tolerance, hull shrink, and evaluation budget per endpoint.
_RESIDUAL_TOL = 1e-6
_BETA_TOL = 1e-8
_HULL_SHRINK = 1e-12
_MAX_STEPS = 200


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
    belongs to sample ``rows[j]``, in sample order.  ``status[i]`` is None
    exactly while sample i has a row, else its PwmError.  Each row is in
    its own frame, the data times ``2**-exponent[j]``, which is exact: the
    block of sorted samples is scaled into [-1, 1), so nothing built on it
    overflows, and :func:`_framed` scales each method's rows again.

    A method's rows (``method`` set) are its EL point sets, tested for mean
    beta, with extremes ``lo`` and ``hi`` and each row's ``estimate`` and
    ``seed``, where its ratio bottoms out; the two differ only under the
    literal adjustment rule.  The build keeps a row only where its seed is
    strictly inside its points (:func:`_seeded`).  Under the
    centered adjustment (``adjust`` set to its ``a``) the rows are the
    pseudo-values, centered at beta and augmented before the EL test of mean
    zero; otherwise the hull of a row's points bounds its interval search.
    The block of pseudo-values holds each row's U-statistic ``estimate``,
    which is also its ``seed``.
    """

    status: list
    rows: list
    values: np.ndarray | None
    exponent: np.ndarray | None = None
    estimate: np.ndarray | None = None
    seed: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    method: str | None = None
    adjust: float | None = None


_ROW_FIELDS = ("values", "exponent", "estimate", "seed", "lo", "hi")


def _without(rows: _RowSet, checks) -> _RowSet:
    """``rows`` less the rows that fail one of ``checks``, pairs of a mask of
    the failing rows (or True for all) and an error maker; the sample of
    such a row gets ``error()`` of the first check that the row fails."""
    drop = np.zeros(len(rows.rows), dtype=bool)
    for bad, _ in checks:
        drop |= bad
    if not np.count_nonzero(drop):
        return rows
    status, left = list(rows.status), drop.copy()
    for bad, error in checks:
        for j in np.flatnonzero(bad & left).tolist():
            status[rows.rows[j]] = error()
        left &= np.logical_not(bad)
    keep = np.flatnonzero(~drop)
    fields = {name: None if getattr(rows, name) is None else getattr(rows, name)[keep]
              for name in _ROW_FIELDS}
    fields["values"].flags.writeable = False
    return replace(rows, status=status, rows=[rows.rows[j] for j in keep.tolist()], **fields)


def _framed(rows: _RowSet, values, estimate, seed, method=None) -> _RowSet:
    """The EL points ``values`` built on ``rows``, in its frames, with their
    ``estimate`` and ``seed``, each row scaled (the points in place) by the
    power of two that brings its largest point magnitude into [1/2, 1).
    The points' extremes are taken here once."""
    lo, hi = values.min(axis=1), values.max(axis=1)
    # frexp's int32 exponents keep ldexp on its fast loop
    e = np.frexp(np.maximum(hi, -lo))[1]
    np.ldexp(values, -e[:, None], out=values)
    values.flags.writeable = False
    return _RowSet(rows.status, rows.rows, values, rows.exponent + e, np.ldexp(estimate, -e),
                   np.ldexp(seed, -e), np.ldexp(lo, -e), np.ldexp(hi, -e), method)


def _seeded(rows: _RowSet, points: str, *checks) -> _RowSet:
    """``rows``, whose EL points are named ``points``, less those that fail
    ``checks``, then those whose seed is not strictly inside their
    extremes.  So each seed left, the mean of its points, is where the
    searches start at multiplier 0."""
    inside = (rows.lo < rows.seed) & (rows.seed < rows.hi)
    return _without(rows, (*checks, (~inside, lambda: DegenerateSampleError(
        f"the mean of the {points} is not strictly inside their range; the "
        "likelihood ratio carries no information"))))


def _sample_block(samples) -> _RowSet:
    """The samples, read once, sorted along the rows of one block and scaled
    in place into [-1, 1), in which a sample that
    :meth:`SortedSample.from_data` rejects gets its error; raises
    :class:`PwmInputError` unless the other samples share one size."""
    status, blocks = sorted_rows(samples)
    if len(blocks) > 1:
        raise PwmInputError("batched inference needs samples of one size")
    if not blocks:
        return _RowSet(status, [], None)
    rows, x = blocks.popitem()[1]
    # a sorted row's largest magnitude is at one of its ends
    exponent = np.frexp(np.maximum(-x[:, 0], x[:, -1]))[1]
    np.ldexp(x, -exponent[:, None], out=x)
    return _RowSet(status, rows, x, exponent)


def _checked(block: _RowSet, r) -> _RowSet:
    """The pseudo-values of a block of sorted samples, built for all its
    rows at once, with their U-statistic estimates, which are also the seeds
    of JEL and centered AJEL, less the rows that :func:`_seeded` drops or
    that are degenerate, whose samples get an error."""
    if not block.rows:
        return block
    try:
        values, estimate = pseudo_value_rows(block.values, r)
    except PwmError as exc:
        return _without(block, [(True, lambda: exc)])
    pv = _framed(block, values, estimate, estimate)
    # constant input leaves rounding noise of a few n*eps relative to the
    # pseudo-values, so the spread is compared against that floor
    flat = pv.hi - pv.lo <= 64.0 * values.shape[1] * np.finfo(float).eps * np.maximum(pv.hi, -pv.lo)
    return _seeded(pv, "jackknife pseudo-values", (flat, lambda: DegenerateSampleError(
        "all jackknife pseudo-values are identical; the likelihood ratio carries no "
        "information")))


class _StackedRatio:
    """The rows of one or more row sets of one point width and one kind
    (plain, or centered), of one or more methods, stacked so that one
    :func:`el.solve_rows` call evaluates the ratio of any subset.

    The rows, and beta, the multiplier and the derivatives with them, are
    in the rows' frames (see :class:`_RowSet`), where the multiplier's
    derivatives, which scale with the inverse square of the data, neither
    over- nor underflow.  The stack only concatenates its sets' fields;
    :meth:`scaled` maps a hypothesized value in and :meth:`unscaled`
    endpoints out.

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
    :meth:`at_seeds` gives the multiplier's derivative at the seeds, where
    the searches start, without a solve.
    """

    def __init__(self, sets: list[_RowSet]):
        self.points, self.exponent, self.estimate, self.seed, self.lo, self.hi = (
            getattr(sets[0], name) if len(sets) == 1
            else np.concatenate([getattr(s, name) for s in sets]) for name in _ROW_FIELDS)
        self.adjust = sets[0].adjust  # a centered stack holds one call's AJEL rows

    def scaled(self, beta) -> np.ndarray:
        """``beta``, one value or one per row, in the rows' frames, held
        within +-2**60: farther out every point (at most 1 in magnitude)
        rounds away against beta, so the ratio no longer changes (infinite
        for plain EL, on its plateau under the centered adjustment).  Beta's
        mantissa is scaled, so that nothing overflows on the way."""
        mantissa, exponent = np.frexp(beta)
        scaled = np.ldexp(mantissa, np.minimum(exponent - self.exponent, 61))
        return scaled.clip(-2.0 ** 60, 2.0 ** 60)

    def unscaled(self, x, rows) -> np.ndarray:
        """``x[j]``, in the frame of stacked row ``rows[j]``, in the data's."""
        return np.ldexp(x, self.exponent[rows])

    def _el_rows(self, rows, beta):
        """The EL point sets and hypothesized means of stacked row ``rows[j]``
        at ``beta[j]``, with the stack's adjustment constant: the row at
        beta, or under the centered adjustment (``a`` not None) the row
        centered at beta and augmented, at mean zero."""
        beta = np.asarray(beta, dtype=float)
        points = self.points[rows]
        if self.adjust is None:
            return points, beta, None
        a = self.adjust
        k, n = points.shape
        z = np.empty((k, n + 1))
        # the centered points in place; each row's sum is over its n
        # contiguous values, bit for bit a one-dimensional sum
        c = np.subtract(points, beta[:, None], out=z[:, :n])
        z[:, n] = -(a / n) * np.add.reduce(c, axis=1)
        return z, np.zeros(k), a

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

    def plateau(self) -> float:
        """Every row's ratio's limit as beta goes to +-inf: inf for plain rows, else
        that of mean 0 on m points at -1 and one at ``a``, which the centered
        ratio rises toward on both sides (Emerson and Owen 2009)."""
        a, m = self.adjust, self.points.shape[1]
        return math.inf if a is None else 2.0 * (
            m * math.log(m * (1.0 + a) / ((m + 1) * a)) + math.log((1.0 + a) / (m + 1)))

    def at_seeds(self):
        """The multiplier's derivative in beta of every row at its seed,
        bit for bit what ``self`` returns there.

        The build leaves only rows whose seed is the mean of their EL
        points, strictly inside them, where the multiplier is 0 in closed
        form (Owen 1988) and so is the ratio.  The derivative is
        :func:`_derivatives` at ``lam = 0``, where ``sum w^2 = m`` and ``sum
        d^2 w^2 = sum d^2`` for the offsets ``d`` of the EL points, summed as
        the kernels sum them.
        """
        z, mu, a = self._el_rows(slice(None), self.seed)
        m = z.shape[1]
        d = z - mu[:, None]
        score_slope = -np.add.reduce(np.multiply(d, d, out=d), axis=1) / m
        # the kernel's last weight at lam = 0 is 1 / (m (1 + 0 d)) = 1 / m
        return _derivatives(m, 0.0, 0.0, score_slope, a, 1.0 / m, z[:, -1])[0]


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
    return replace(pv, method="JEL")


def _ajel_problems(pv: _RowSet, r, rule, a_n) -> _RowSet:
    if not pv.rows:
        return pv
    n = pv.values.shape[1]
    a = adjustment_constant(n) if a_n is None else float(a_n)
    if rule == "centered":
        return replace(pv, method="AJEL", adjust=a)
    # the augmented set does not depend on the tested value, so the ratio
    # bottoms out at the augmented mean rather than at the point estimate
    aug = np.empty((len(pv.rows), n + 1))
    aug[:, :n] = pv.values
    aug[:, n] = -(a / n) * np.add.reduce(pv.values, axis=1)
    seed = np.add.reduce(aug, axis=1) / (n + 1)
    return _seeded(_framed(pv, aug, pv.estimate, seed, "AJEL"), "augmented pseudo-values")


def _plugin_problems(method: str):
    def build(block: _RowSet, r, rule, a_n) -> _RowSet:
        if not block.rows:
            return block
        try:
            z = summand_rows(block.values, r, method)
        except PwmError as exc:
            return _without(block, [(True, lambda: exc)])
        estimate = np.add.reduce(z, axis=1) / z.shape[1]
        rows = _framed(block, z, estimate, estimate, method)
        return _seeded(rows, f"{method} summands", (rows.lo == rows.hi, lambda: (
            DegenerateSampleError(f"{method} summands are all identical; no likelihood spread"))))
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


def _real(value) -> float:
    """``value`` as a float if it is a real number (not a bool) in the float
    range, else nan, which every option check rejects."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def check_probability(value, name: str) -> None:
    """Raise :class:`PwmInputError` unless ``value``, the option ``name``
    (a confidence level or a test size), is a real number in (0, 1)."""
    if not 0.0 < _real(value) < 1.0:
        raise PwmInputError(f"{name} must be in (0, 1), got {value!r}")


def check_options(methods, rule: str = "centered", a_n=None) -> tuple[str, ...]:
    """Check the methods and adjustment of an interval or test, before any
    numeric work: ``methods`` is a non-empty sequence of names from
    :data:`CI_METHODS` other than a string, ``rule`` is one of
    :data:`ADJUSTMENT_RULES` and ``a_n`` is None (for
    :func:`adjustment_constant`) or a positive finite real number.  Raises
    :class:`PwmInputError`; returns the methods as a tuple."""
    if isinstance(methods, str):
        raise PwmInputError(f"methods must be a sequence of names, not the string {methods!r}")
    methods = tuple(methods)
    bad = [m for m in methods if m not in _METHODS]
    if bad:
        raise PwmInputError(f"unknown methods {bad}; expected subset of {CI_METHODS}")
    if not methods:
        raise PwmInputError("at least one method is required")
    if rule not in ADJUSTMENT_RULES:
        raise PwmInputError(f"unknown adjustment rule {rule!r}; expected {ADJUSTMENT_RULES}")
    if a_n is not None and not 0.0 < _real(a_n) < math.inf:
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
    form (the seed is the mean of the EL points, strictly inside them, as
    the build checks), so the ratio there and the multiplier's derivative
    take no EL solve.  The search starts a skew-corrected step from the seed,
    warm-starts each solve along the multiplier's tangent, and stops at
    ratio residual <= 1e-6 with a Newton step <= 1e-8 * beta_scale, where
    ``beta_scale`` is the larger of the estimate's magnitude and the EL
    points' spread around it.  ``endpoint_iterations`` counts the ratio
    evaluations of both searches, which are then all the EL solves the
    interval takes: none where the centered AJEL ratio's limit far out is at
    most the threshold, and the interval is ``(-inf, inf)``.  Each row is
    built and searched in a power-of-two frame, so the endpoints and the
    estimate scale exactly with the data over the float range.  It is the
    one-sample case of :func:`confidence_intervals`, whose searches step
    together as arrays (:class:`_Searches`).
    """
    return _raised(confidence_intervals([sample], r, level, (method,), rule, a_n)[0][0])


def ratio_test(sample, r: int, beta0: float, alpha: float, method: str,
               rule: str = "centered", a_n=None) -> TestResult:
    """Chi-square calibrated test of ``beta_r = beta0`` on ``method``'s ratio."""
    return _raised(ratio_tests([sample], r, beta0, alpha, (method,), rule, a_n)[0][0])


def confidence_intervals(samples, r: int, level: float, methods,
                         rule: str = "centered", a_n=None) -> list[tuple]:
    """:func:`confidence_interval` for every sample and method, in lockstep.

    ``samples``, an iterable read once, holds arrays of real numbers or
    :class:`SortedSample` objects of one size; anything else, a sample's
    :class:`PseudoValues` too, fails its own row.  JEL, DNEL and VXL share
    one stack up to a measured size, AJEL has its own (see
    :func:`_by_stack`), and the searches of all stacks advance together,
    one batched EL solve per stack and round.  Returns one tuple per
    sample, in the order of ``methods``, holding the interval or the
    :class:`PwmError` that :func:`confidence_interval` raises for that
    sample alone.
    """
    check_probability(level, "confidence level")
    methods = check_options(methods, rule, a_n)

    def intervals(rows):
        estimates = np.ldexp(rows.estimate, rows.exponent).tolist()
        return lambda j, ends: ConfidenceInterval(ends[0], ends[1], level, rows.method,
                                                  estimates[j], ends[2])

    return _by_stack(_method_problems(samples, r, methods, rule, a_n),
                     lambda stacks: _lockstep_intervals(stacks, level), intervals)


def ratio_tests(samples, r: int, beta0: float, alpha: float, methods,
                rule: str = "centered", a_n=None) -> list[tuple]:
    """:func:`ratio_test` for every sample and method, one batched EL solve
    per stack of :func:`confidence_intervals`; returned as it returns
    intervals."""
    check_probability(alpha, "test size")
    if not math.isfinite(_real(beta0)):
        raise PwmInputError(f"hypothesized value must be a finite number, got {beta0!r}")
    methods = check_options(methods, rule, a_n)
    threshold = chi2_1_quantile(1.0 - alpha)
    return _by_stack(_method_problems(samples, r, methods, rule, a_n),
                     lambda stacks: [_StackedRatio(sets).statistics(beta0) for sets in stacks],
                     lambda rows: lambda j, s: TestResult(s, threshold, s > threshold,
                                                          rows.method, beta0, alpha))


def _method_problems(samples, r: int, methods, rule: str, a_n) -> list[_RowSet]:
    """Each method's rows for the samples, one :class:`_RowSet` per method,
    with the PwmError that building it raises for each other sample.

    The samples are built as one block: they are stacked and sorted along
    rows once, and every method's points and estimates come from row
    operations on the block; a sample that fails leaves the rows.  The
    pseudo-values of the block, or each sample's error building or checking
    them, are made once and shared by JEL and AJEL.
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


def _by_stack(sets: list[_RowSet], engine, results) -> list[tuple]:
    """``engine`` run on the stacks of the row sets ``sets``, one per
    method, as one tuple per sample holding each method's result or error.

    ``engine`` maps a list of stacks, each a list of row sets, to one list
    per stack of its rows' values or PwmErrors, in the order of its sets'
    rows; ``results(rows)`` gives the function of ``(j, value)`` that makes
    the result of row j of the set ``rows`` from its value.  Sets whose rows
    have one point width and kind (plain, or centered) go to one call, so
    their rows share one stack: JEL, DNEL and VXL, which all have n plain
    points, share one, and AJEL has its own under either rule.  A stack
    takes the next set of its kind while it holds at most ``_STACK_POINTS``
    points; past that it splits between sets, never within one, so a set
    alone is one stack at any size.  A row's value does not depend on its
    stack.
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
            result = results(rows)
            # zip takes one value per row, and no more
            for j, (i, value) in enumerate(zip(rows.rows, values)):
                column[i] = value if isinstance(value, PwmError) else result(j, value)
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
    stacks, as arrays over the searches still running, in the rows' frames:
    built from the stacks, one lockstep round per :meth:`advance`, read by
    :meth:`results` after the rounds left.  Search ``key`` is the lower
    (even) or upper search of stacked row ``row``; stack t's rows have keys
    from ``first[t]``, two per row, in row order.

    Start.  The seed is the mean of the row's m points, strictly inside
    them (the build drops every other row), where the ratio and the
    multiplier are 0; the points have central moments ``m2`` and ``m3``
    there.  The first Newton step from it, ``delta =
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
    the middle of the bracket.  The extremes come from the build, and the
    sums are one set of reductions along each stack's rows, bit for bit the
    row-by-row ones.  The points are at most 1 in magnitude.

    Step.  A search takes Halley's step on ``h = sqrt(ratio) -
    sqrt(threshold)``, which is nearly linear in beta, or Newton's where
    Halley's denominator is not positive or a term is not finite.  The
    bracket runs from ``inside`` (ratio below the threshold, the seed at
    first) to ``outside``.  On a bounded row ``outside`` starts at the hull
    bound on the search's side, where the ratio diverges, so the bound
    closes the bracket unevaluated.  Where the ratio stays finite the bound
    is nan, and so is ``outside`` until the search crosses, as it does above
    its plateau; until then it doubles its distance from the seed.  Steps
    that leave the bracket become midpoints.  A search stops at a point whose
    ratio residual is at most ``_RESIDUAL_TOL`` and whose next Newton step
    is at most ``beta_tol``.  When the bracket closes to ``beta_tol`` or to
    float resolution, or after ``_MAX_STEPS`` evaluations, it returns its
    best point ``best``, the first with the least residual ``best_size``, if
    that is within tolerance.

    Every search evaluates once per round, so ``evals`` is the evaluation
    count of each search still running.  The solve at ``x`` starts from
    ``lam0``, the multiplier's tangent from the last point solved,
    ``solved_at``.  Each quantity of the running searches is one array in
    ``_STATE``, and an ended search leaves all of them at once.  Results
    land in ``endpoint``, ``evaluations`` and ``failure`` by key.
    """

    _STATE = ("key", "row", "seed", "beta_tol", "inside", "outside", "solved_at", "lam",
              "dlam", "x", "best", "best_size")

    def __init__(self, stacks: list[_StackedRatio], threshold: float):
        self.stacks, self.threshold, self.root_threshold = stacks, threshold, math.sqrt(threshold)
        columns = []  # per stack: rows, m, m2, m3, extremes, hull bounds (or nan), at the seeds
        for ratio in stacks:
            points, vmin, vmax = ratio.points, ratio.lo, ratio.hi
            k, m = points.shape
            c = points - (np.add.reduce(points, axis=1) / m)[:, None]
            c2 = c * c
            m2 = np.add.reduce(c2, axis=1) / m
            m3 = np.add.reduce(np.multiply(c2, c, out=c2), axis=1) / m
            shrink = _HULL_SHRINK * (vmax - vmin) if ratio.adjust is None else math.nan
            columns.append((np.arange(k), np.full(k, m), m2, m3, vmin, vmax, vmin + shrink,
                            vmax - shrink, ratio.estimate, ratio.seed, ratio.at_seeds()))
        self.first = np.cumsum([0] + [2 * len(ratio.points) for ratio in stacks])
        columns = columns[0] if len(stacks) == 1 else [np.concatenate(c) for c in zip(*columns)]
        rows, m, m2, m3, vmin, vmax, lower, upper, estimate, seed, dlam = columns
        scale = np.maximum(np.maximum(np.abs(estimate), vmax - estimate), estimate - vmin)
        delta = np.sqrt(threshold * m2 / m)
        # m2 > 0: each seed is strictly inside points whose largest magnitude is in [1/2, 1)
        kappa = np.minimum(np.maximum(delta * m3 / (3.0 * m2 * m2), -0.5), 0.5)
        bend = dlam * dlam * m3 / m2

        def by_key(lower, upper=None):  # each row's value for its two searches
            if upper is None:
                return np.repeat(lower, 2)
            out = np.empty(2 * lower.size)
            out[0::2], out[1::2] = lower, upper
            return out

        x = by_key(seed - delta * (1.0 - kappa), seed + delta * (1.0 + kappa))
        seed, bound = by_key(seed), by_key(lower, upper)
        np.copyto(x, 0.5 * (seed + bound), where=~np.isnan(bound) & ~_between(x, seed, bound))
        lam, dlam = np.zeros(x.size), by_key(dlam)
        with np.errstate(invalid="ignore", over="ignore"):
            self.lam0 = _warm_start(lam, dlam, by_key(bend), x - seed)
        self.key, self.row, self.seed = np.arange(seed.size), by_key(rows), seed
        self.beta_tol, self.inside, self.outside = by_key(_BETA_TOL * scale), seed.copy(), bound
        self.solved_at, self.lam, self.dlam, self.x = seed, lam, dlam, x
        self.evals, self.failure = 0, {}
        self.best, self.best_size = np.full(seed.size, math.nan), np.full(seed.size, math.inf)
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
        coordinates, or the error of the lower, else the upper search."""
        while self.key.size:
            self.advance()
        out, first = [], self.first.tolist()
        for ratio, a, b in zip(self.stacks, first, first[1:]):
            # a failed search's endpoint is never read and may lie far out
            with np.errstate(over="ignore"):
                ends = ratio.unscaled(self.endpoint[a:b], np.arange(b - a) // 2).tolist()
            evals = self.evaluations[a:b].tolist()
            out.append([self.failure.get(a + t) or self.failure.get(a + t + 1) or (
                ends[t], ends[t + 1], evals[t] + evals[t + 1]) for t in range(0, b - a, 2)])
        return out

    def _unscaled(self, j: int, x: float) -> float:
        """``x``, in the frame of running search ``j``, in the data's."""
        t = int(np.searchsorted(self.first, self.key[j], side="right")) - 1
        return float(self.stacks[t].unscaled(x, self.row[j]))

    def _step(self, ratio, slope, lam, dlam, curvature, errors: dict) -> None:
        """One step of every search from the evaluation at its ``x``, as
        :class:`_StackedRatio` returns it, with ``{position: error}`` for the
        failed solves.  A failed lower search ends its upper search too."""
        x, beta_tol = self.x, self.beta_tol
        inside, outside = self.inside, self.outside
        self.evals += 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            resid = ratio - self.threshold
            size = np.abs(resid)
            better = size < self.best_size
            np.copyto(self.best, x, where=better)
            np.copyto(self.best_size, size, where=better)
            root = np.sqrt(ratio)
            h = root - self.root_threshold
            two_root = 2.0 * root
            # Newton's step; not finite at a zero slope, which the bracket
            # tests take as they take nan
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
            np.copyto(inside, x, where=below)
            np.copyto(outside, x, where=~below)
            self.solved_at, self.lam, self.dlam = x, lam, dlam
            # the step inside the bracket, else the midpoint (both nan while
            # there is no outside end)
            x = 0.5 * (inside + outside)
            lo, hi = np.minimum(inside, outside), np.maximum(inside, outside)
            stride = (lo < step) & (step < hi)
            stop = hi - lo <= beta_tol
            np.copyto(x, step, where=stride)
            if np.count_nonzero(stride) < stride.size:  # a midpoint
                stop |= ~stride & ((x == inside) | (x == outside))
            far = np.isnan(outside)
            if np.count_nonzero(far):
                reach = self.seed + 2.0 * (inside - self.seed)
                np.copyto(reach, step, where=_between(step, inside, reach))
                np.copyto(x, reach, where=far)
            ended = done | stop | (self.evals >= _MAX_STEPS)
            if errors:
                done[list(errors)] = False
                ended[list(errors)] = True
            self.x = x
            if np.count_nonzero(ended):
                self._retire(ended, done, errors)
            self.lam0 = _warm_start(self.lam, self.dlam, 0.0, self.x - self.solved_at)

    def _retire(self, ended, done, errors: dict) -> None:
        """Record the results of the searches that ``ended`` and drop them,
        with the upper search of each failed lower one."""
        key = self.key
        self.endpoint[key], self.evaluations[key] = self.solved_at, self.evals
        for j in np.flatnonzero(ended & ~done).tolist():
            k = int(key[j])
            if j in errors:
                exc = errors[j]
            elif self.best_size[j] <= _RESIDUAL_TOL:
                self.endpoint[k] = self.best[j]
                continue
            else:
                exc = ConvergenceError(
                    f"interval endpoint stalled with ratio residual {self.best_size[j]:.3e}",
                    best=self._unscaled(j, self.best[j]))
            self.failure[k] = exc
            if k % 2 == 0 and j + 1 < key.size and key[j + 1] == k + 1:
                ended[j + 1] = True
        keep = np.flatnonzero(~ended)
        for name in self._STATE:
            setattr(self, name, getattr(self, name)[keep])


def _lockstep_intervals(stacks: list, level: float) -> list:
    """The interval ends of each of ``stacks``' rows (a stack is a list of row
    sets) as :meth:`_Searches.results` gives them, or ``(-inf, inf, 0)`` where
    the stack's plateau is at most the threshold; a failure ends its own row."""
    threshold = chi2_1_quantile(level)
    ratios = [_StackedRatio(sets) for sets in stacks]
    closing = [ratio for ratio in ratios if ratio.plateau() > threshold]
    ends = iter(_Searches(closing, threshold).results() if closing else ())
    return [next(ends) if ratio in closing else [(-math.inf, math.inf, 0)] * len(ratio.points)
            for ratio in ratios]


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

    With the centered rule the ratio is finite and bounded, so the interval
    may leave the pseudo-value hull, or be the whole line; it always contains
    the unadjusted interval.  With the literal rule the search stays inside
    the hull of the augmented point set.
    """
    return confidence_interval(sample, r, level, "AJEL", rule, a_n)


def jel_test(sample, r: int, beta0: float, alpha: float = 0.05) -> TestResult:
    """Chi-square calibrated test of ``beta_r = beta0``."""
    return ratio_test(sample, r, beta0, alpha, "JEL")


def _plugin_method(method: str) -> str:
    if method not in ("DNEL", "VXL"):
        raise PwmInputError(f"unknown comparison method {method!r}; expected ('DNEL', 'VXL')")
    return method


def plugin_el_ci(sample, r: int, level: float = 0.95, method: str = "DNEL") -> ConfidenceInterval:
    """EL interval on the DNEL or VXL summands, centered at their mean."""
    return confidence_interval(sample, r, level, _plugin_method(method))
