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
for an interval.  ``_METHODS`` maps each method name to the ratio problem
it builds from a sample.  One engine evaluates and inverts the ratios of
many problems of one method together, one batched EL solve per search
step: :func:`confidence_intervals` and :func:`ratio_tests` run it on many
samples, and :func:`confidence_interval` and :func:`ratio_test` are its
one-sample case.
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
    dnel_summands,
    jackknife_pseudo_values,
    vxl_summands,
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
    statistic: float
    threshold: float
    p_value: float
    reject: bool
    method: str
    null_value: float
    alpha: float


def adjustment_constant(n: int) -> float:
    """Augmentation weight ``a_n = max(1, log(n/2))``."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise PwmInputError(f"adjustment constant needs an integer n >= 2, got {n!r}")
    return max(1.0, math.log(n / 2.0))


@dataclass(frozen=True)
class _RatioProblem:
    """One method's EL ratio in beta, with what its inversion needs.

    ``points`` is the EL point set, tested for mean beta; under the centered
    adjustment (``adjust`` set to its ``a``) it is the pseudo-values, which
    are centered at beta and augmented before the EL test of mean zero.
    ``seed`` is where the ratio bottoms out, which differs from ``estimate``
    only under the literal adjustment rule; the hull of ``points`` bounds
    the interval search unless the problem is centered.
    """

    points: np.ndarray
    estimate: float
    seed: float
    adjust: float | None = None

    @property
    def bounded(self) -> bool:
        return self.adjust is None


def _el_problem(points: np.ndarray, estimate: float, seed=None) -> _RatioProblem:
    """Plain EL on ``points``: infinite ratio outside their open hull."""
    return _RatioProblem(points, estimate, estimate if seed is None else seed)


def _pseudo_values_for(sample, r) -> PseudoValues:
    if isinstance(sample, PseudoValues):
        pv = sample
        if pv.r != r:
            raise PwmInputError(
                f"pseudo-values were built for r = {pv.r}, requested r = {r}"
            )
    else:
        pv = jackknife_pseudo_values(sample, r)
    # constant input leaves rounding noise of a few n*eps relative to the
    # pseudo-values, so the spread is compared against that floor
    scale = float(np.max(np.abs(pv.values)))
    if np.ptp(pv.values) <= 64.0 * pv.n * np.finfo(float).eps * scale:
        raise DegenerateSampleError(
            "all jackknife pseudo-values are identical; the likelihood "
            "ratio carries no information"
        )
    return pv


class _StackedRatio:
    """The ratio problems of one method on samples of one size, stacked so
    that one :func:`el.solve_rows` call evaluates the ratio of any subset.

    The slope is the ratio's derivative in beta, which by the envelope
    theorem comes free with the solved multiplier (Owen 1988): ``-2 m lam``
    for plain EL on m points.  Under the centered adjustment the appended
    point ``-(a/n) * sum(values - beta)`` moves with beta at rate ``a`` and
    the others at rate -1, which makes it ``-2 m lam (1 - (1 + a) p_last)``,
    with ``p_last`` the EL weight of the appended point.
    """

    def __init__(self, problems: list[_RatioProblem]):
        self.points = np.stack([p.points for p in problems])
        self.adjust = (None if problems[0].adjust is None
                       else np.array([p.adjust for p in problems]))

    def __call__(self, rows, beta, lam0):
        """Ratio, slope and multiplier of problem ``rows[j]`` at ``beta[j]``
        from ``lam0[j]``, as lists, and ``{j: error}`` for the rows whose
        solve fails.  Outside the hull of a plain problem the ratio is
        infinite, the slope nan and the multiplier ``lam0[j]``."""
        beta = np.asarray(beta, dtype=float)
        points = self.points[rows]
        if self.adjust is None:
            sol = _el.solve_rows(points, beta, lam0)
            slope = (-2.0 * points.shape[1]) * sol.lam
        else:
            a = self.adjust[rows]
            g = points - beta[:, None]
            n = g.shape[1]
            z = np.empty((g.shape[0], n + 1))
            z[:, :n] = g
            z[:, n] = -(a / n) * np.add.reduce(g, axis=1)
            sol = _el.solve_rows(z, np.zeros(beta.size), lam0)
            slope = (-2.0 * (n + 1)) * sol.lam * (1.0 - (1.0 + a) * sol.last_weight)
        slope = slope.tolist()
        errors = {}
        for j, exc in sol.errors.items():
            if isinstance(exc, HullError) and self.adjust is None:
                # solve_rows leaves the row at log ratio -inf and its lam0
                slope[j] = math.nan
            else:
                errors[j] = exc
        ratio = [max(0.0, -2.0 * v) for v in sol.log_ratio.tolist()]
        return ratio, slope, sol.lam.tolist(), errors


def _jel_problem(sample, r, rule, a_n) -> _RatioProblem:
    pv = _pseudo_values_for(sample, r)
    return _el_problem(pv.values, pv.ustat_estimate)


def _ajel_problem(sample, r, rule, a_n) -> _RatioProblem:
    pv = _pseudo_values_for(sample, r)
    a = adjustment_constant(pv.n) if a_n is None else float(a_n)
    if rule == "centered":
        return _RatioProblem(pv.values, pv.ustat_estimate, pv.ustat_estimate, adjust=a)
    # the augmented set does not depend on the tested value, so the ratio
    # bottoms out at the augmented mean rather than at the point estimate
    aug = np.append(pv.values, -(a / pv.n) * pv.values.sum())
    return _el_problem(aug, pv.ustat_estimate, seed=float(aug.mean()))


def _plugin_problem(summands):
    def problem(sample, r, rule, a_n) -> _RatioProblem:
        sv = summands(sample, r)
        if np.ptp(sv.values) == 0.0:
            raise DegenerateSampleError(
                f"{sv.method} summands are all identical; no likelihood spread"
            )
        return _el_problem(sv.values, sv.estimate)
    return problem


# The method table: each entry turns (sample, r, rule, a_n) into the ratio
# problem that both the test and the interval run on.  ``rule`` and ``a_n``
# only shape AJEL.
_METHODS = {
    "DNEL": _plugin_problem(dnel_summands),
    "VXL": _plugin_problem(vxl_summands),
    "JEL": _jel_problem,
    "AJEL": _ajel_problem,
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


def _problem(sample, r, method: str, rule: str, a_n, **options) -> _RatioProblem:
    """Check the options, then build the ratio problem."""
    check_options((method,), rule, a_n, **options)
    return _METHODS[method](sample, r, rule, a_n)


def _neg2_ratio(sample, r, beta0, method: str, rule: str = "centered", a_n=None,
                **options) -> float:
    problem = _problem(sample, r, method, rule, a_n, beta0=beta0, **options)
    return _raised(_statistics([problem], beta0)[0])


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
    minimum by a safeguarded Newton search that stops at ratio residual
    <= 1e-6 with a Newton step <= 1e-8 * beta_scale, where ``beta_scale``
    is the larger of the estimate's magnitude and the EL points' spread
    around it.
    """
    problem = _problem(sample, r, method, rule, a_n, level=level)
    return _raised(_lockstep_intervals([problem], level, method)[0])


def ratio_test(sample, r: int, beta0: float, alpha: float, method: str,
               rule: str = "centered", a_n=None) -> TestResult:
    """Chi-square calibrated test of ``beta_r = beta0`` on ``method``'s ratio."""
    statistic = _neg2_ratio(sample, r, beta0, method, rule, a_n, alpha=alpha)
    return _test_result(statistic, beta0, alpha, method)


def _test_result(statistic: float, beta0: float, alpha: float, method: str) -> TestResult:
    p_value = 1.0 - chi2_1_cdf(statistic) if math.isfinite(statistic) else 0.0
    threshold = chi2_1_quantile(1.0 - alpha)
    return TestResult(
        statistic=statistic,
        threshold=threshold,
        p_value=p_value,
        reject=bool(statistic > threshold),
        method=method,
        null_value=beta0,
        alpha=alpha,
    )


def confidence_intervals(samples, r: int, level: float, methods,
                         rule: str = "centered", a_n=None) -> list[tuple]:
    """:func:`confidence_interval` for every sample and method, in lockstep.

    ``samples`` must share one size.  Each method's searches for all
    samples advance together, one batched EL solve per search step.
    Returns one tuple per sample, in the order of ``methods``, holding the
    interval or the :class:`PwmError` that :func:`confidence_interval`
    raises for that sample alone.
    """
    methods = check_options(methods, rule, a_n, level=level)
    columns = [_lockstep_intervals(problems, level, method)
               for method, problems in _method_problems(samples, r, methods, rule, a_n)]
    return list(zip(*columns))


def ratio_tests(samples, r: int, beta0: float, alpha: float, methods,
                rule: str = "centered", a_n=None) -> list[tuple]:
    """:func:`ratio_test` for every sample and method, one batched EL solve
    per method; returned as :func:`confidence_intervals` returns intervals."""
    methods = check_options(methods, rule, a_n, alpha=alpha, beta0=beta0)
    columns = [[s if isinstance(s, PwmError) else _test_result(s, beta0, alpha, method)
                for s in _statistics(problems, beta0)]
               for method, problems in _method_problems(samples, r, methods, rule, a_n)]
    return list(zip(*columns))


def _method_problems(samples, r: int, methods, rule: str, a_n):
    """Yield each method with its ratio problem for every sample, or the
    PwmError building it raises.  The pseudo-value methods share one build
    of each sample's pseudo-values."""
    sorted_samples = [s if isinstance(s, SortedSample) else SortedSample.from_data(s)
                      for s in samples]
    if len({s.n for s in sorted_samples}) > 1:
        raise PwmInputError("batched inference needs samples of one size")
    pseudo = None
    for method in methods:
        inputs = sorted_samples
        if method in _ON_PSEUDO_VALUES:
            if pseudo is None:
                pseudo = [_shared_pseudo_values(s, r) for s in sorted_samples]
            inputs = pseudo
        problems = []
        for sample in inputs:
            try:
                problems.append(_METHODS[method](sample, r, rule, a_n))
            except PwmError as exc:
                problems.append(exc)
        yield method, problems


def _shared_pseudo_values(sample: SortedSample, r: int):
    """The pseudo-values of ``sample``, or the sample itself when they
    cannot be built, so that each method's own build raises the error."""
    try:
        return jackknife_pseudo_values(sample, r)
    except PwmError:
        return sample


def _statistics(problems: list, beta0: float) -> list:
    """The ratio statistic of every problem (or pass-through PwmError) at
    ``beta0``, or the error its solve fails with, from one batched solve."""
    out = [p if isinstance(p, PwmError) else None for p in problems]
    live = [i for i, p in enumerate(problems) if out[i] is None]
    if live:
        k = len(live)
        stats, _, _, errors = _StackedRatio([problems[i] for i in live])(
            list(range(k)), [float(beta0)] * k, [0.0] * k)
        for j, i in enumerate(live):
            out[i] = errors.get(j, stats[j])
    return out


def _between(x: float, a: float, b: float) -> bool:
    return min(a, b) < x < max(a, b)


def _newton_endpoint(seed: float, start: float, bound, threshold: float,
                     beta_tol: float, lam: float):
    """Locate the ratio = threshold crossing on the side of ``start``.

    A generator: it yields each ``(beta, lam0)`` to evaluate and receives
    the ratio, its slope and the solved multiplier there; it returns the
    endpoint and the number of ratio evaluations.  Safeguarded Newton on
    ``sqrt(ratio) - sqrt(threshold)``, which is nearly linear in beta.  The
    bracket runs from ``inside`` (ratio below the threshold, the seed at
    first) to ``outside`` (at or above it).  A finite ``bound`` (the hull
    bound on this side) enters as the outside end unevaluated and is probed
    only when a Newton step reaches it; ``None`` means the ratio stays
    finite on this side, so the search doubles its distance from the seed
    until it crosses.  Steps that leave the bracket become midpoints.
    Stops at a point whose ratio residual is at most ``_RESIDUAL_TOL`` and
    whose next Newton step is at most ``beta_tol``.
    """
    root_threshold = math.sqrt(threshold)
    inside, outside = seed, bound
    bound_probed = bound is None
    best, best_resid = math.nan, math.inf
    x = start
    if outside is not None and not _between(x, inside, outside):
        x = 0.5 * (inside + outside)
    evals = 0
    while evals < _MAX_STEPS:
        ratio, slope, lam = yield x, lam
        evals += 1
        resid = ratio - threshold
        if abs(resid) < best_resid:
            best, best_resid = x, abs(resid)
        if resid < 0.0:
            inside = x
        else:
            outside = x
        root = math.sqrt(ratio)
        newton = x - 2.0 * root * (root - root_threshold) / slope if slope else math.nan
        if abs(resid) <= _RESIDUAL_TOL and abs(newton - x) <= beta_tol:
            return float(x), evals
        if outside is None:
            if evals >= _MAX_EXPAND:
                raise ConvergenceError(
                    "adjusted ratio appears bounded below the threshold; the "
                    "interval does not close on this side"
                )
            reach = seed + 2.0 * (inside - seed)
            x = newton if _between(newton, inside, reach) else reach
            continue
        if abs(outside - inside) <= beta_tol:
            break
        if _between(newton, inside, outside):
            x = newton
        elif not bound_probed and outside == bound and (newton - bound) * (bound - seed) >= 0.0:
            # the Newton step reaches the hull bound: check it really is outside
            at_bound, _, lam = yield bound, lam
            evals += 1
            bound_probed = True
            if at_bound < threshold:
                raise ConvergenceError(
                    f"ratio stays below the threshold out to the hull bound {bound:.6g}"
                )
            x = 0.5 * (inside + outside)
        else:
            x = 0.5 * (inside + outside)
        if x == inside or x == outside:  # float resolution exhausted
            break
    if best_resid <= _RESIDUAL_TOL:
        return float(best), evals
    raise ConvergenceError(
        f"interval endpoint stalled with ratio residual {best_resid:.3e}",
        best=best,
    )


def _seed_error(at_seed: float, threshold: float) -> ConvergenceError | None:
    if at_seed < threshold:
        return None
    return ConvergenceError(
        f"ratio at the point estimate ({at_seed:.4g}) already exceeds "
        f"the chi-square threshold ({threshold:.4g}); no interval exists"
    )


def _endpoint_searches(problem: _RatioProblem, threshold: float, lam: float):
    """The lower and upper endpoint searches, warm-started from ``lam``.

    The spread of the problem's points sets the first Newton step,
    ``sqrt(threshold) * std(points) / sqrt(m)`` from the seed, and the
    tolerance scale ``beta_scale``; when the problem is bounded their
    shrunk hull bounds the search.
    """
    points, seed = problem.points, problem.seed
    beta_tol = _BETA_TOL * _beta_scale(points, problem.estimate)
    step = math.sqrt(threshold) * float(np.std(points)) / math.sqrt(points.size)
    lo_bound, hi_bound = _hull_bounds(points) if problem.bounded else (None, None)
    return (_newton_endpoint(seed, seed - step, lo_bound, threshold, beta_tol, lam),
            _newton_endpoint(seed, seed + step, hi_bound, threshold, beta_tol, lam))


def _interval(problem: _RatioProblem, level: float, method: str, lower, upper):
    """The interval from the ``(endpoint, evaluations)`` of both searches."""
    return ConfidenceInterval(
        lower=lower[0],
        upper=upper[0],
        level=level,
        method=method,
        point_estimate=problem.estimate,
        endpoint_iterations=lower[1] + upper[1],
    )


def _lockstep_intervals(problems: list, level: float, method: str) -> list:
    """The interval of every problem (or pass-through PwmError) of one
    method, or the error that ends it.

    Each problem's ratio is inverted on both sides of its seed, and all
    searches advance together: each round gathers the pending ``(beta,
    lam0)`` of every search and evaluates them in one batched solve.  A
    failure ends its own problem only.  A lower-endpoint failure wins and
    stops the upper search, so a problem's result does not depend on the
    others in the batch.
    """
    threshold = chi2_1_quantile(level)
    out = [p if isinstance(p, PwmError) else None for p in problems]
    live = [i for i, p in enumerate(problems) if out[i] is None]
    if not live:
        return out
    ratio = _StackedRatio([problems[i] for i in live])
    at_seed, _, lam, errors = ratio(list(range(len(live))), [problems[i].seed for i in live],
                                    [0.0] * len(live))
    searches = {}  # (row, side) -> endpoint search; side 0 is the lower end
    for j, i in enumerate(live):
        out[i] = errors.get(j) or _seed_error(at_seed[j], threshold)
        if out[i] is None:
            lower, upper = _endpoint_searches(problems[i], threshold, lam[j])
            searches[j, 0], searches[j, 1] = lower, upper
    pending = {key: next(search) for key, search in searches.items()}
    ends = {}  # (row, side) -> (endpoint, evaluations) or PwmError
    while pending:
        keys = list(pending)
        values, slopes, lams, errors = ratio([j for j, _ in keys],
                                             [pending[key][0] for key in keys],
                                             [pending[key][1] for key in keys])
        pending = {}
        for t, key in enumerate(keys):
            j, side = key
            if side == 1 and isinstance(ends.get((j, 0)), PwmError):
                continue
            if t in errors:
                ends[key] = errors[t]
                continue
            try:
                pending[key] = searches[key].send((values[t], slopes[t], lams[t]))
            except StopIteration as done:
                ends[key] = done.value
            except PwmError as exc:
                ends[key] = exc
    for j, i in enumerate(live):
        if out[i] is None:
            lower, upper = ends[j, 0], ends.get((j, 1))
            failed = [end for end in (lower, upper) if isinstance(end, PwmError)]
            out[i] = failed[0] if failed else _interval(problems[i], level, method,
                                                         lower, upper)
    return out


def _hull_bounds(values: np.ndarray) -> tuple[float, float]:
    vmin, vmax = float(values.min()), float(values.max())
    span = vmax - vmin
    return vmin + _HULL_SHRINK * span, vmax - _HULL_SHRINK * span


def _beta_scale(values: np.ndarray, point: float) -> float:
    return max(abs(point), float(np.max(np.abs(values - point))))


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
