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
it builds from a sample; :func:`confidence_interval` and
:func:`ratio_test` check their options once and run that problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import el as _el
from .distributions import chi2_1_cdf, chi2_1_quantile
from .errors import ConvergenceError, DegenerateSampleError, PwmInputError
from .estimators import PseudoValues, dnel_summands, jackknife_pseudo_values, vxl_summands

__all__ = [
    "CI_METHODS",
    "ConfidenceInterval",
    "TestResult",
    "adjustment_constant",
    "check_methods",
    "check_options",
    "confidence_interval",
    "ratio_test",
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

    ``ratio(beta, lam0)`` returns minus twice the log EL ratio at beta, its
    derivative in beta and the solved multiplier (``lam0`` warm-starts the
    solve).  ``points`` is the EL point set (before centering under the
    centered rule); ``seed`` is where the ratio bottoms out, which differs
    from ``estimate`` only under the literal adjustment rule; ``bounded``
    says whether the hull of ``points`` bounds the interval search.
    """

    ratio: Callable[[float, float], tuple[float, float, float]]
    points: np.ndarray
    estimate: float
    seed: float
    bounded: bool = True


def _el_problem(points: np.ndarray, estimate: float, seed=None) -> _RatioProblem:
    """Plain EL on ``points``: infinite ratio outside their open hull."""
    return _RatioProblem(partial(_el.neg2_log_ratio_and_slope, points), points, estimate,
                         estimate if seed is None else seed)


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


def _centered_ratio_and_slope(pv: PseudoValues, beta: float, a_n,
                              lam0: float = 0.0) -> tuple[float, float, float]:
    """Centered-rule ratio at beta, its derivative in beta, and the multiplier.

    The pseudo-values are centered at beta and ``-(a/n)`` times their sum is
    appended; the ratio tests mean zero on that set.  The appended point
    moves with beta at rate ``a``, the others at rate -1, so by the envelope
    theorem the derivative of ``-2 log R`` is ``-2 m lam (1 - (1 + a)
    p_last)``, with ``p_last`` the EL weight of the appended point.
    """
    a = adjustment_constant(pv.n) if a_n is None else float(a_n)
    g = pv.values - beta
    points = np.append(g, -(a / pv.n) * g.sum())
    sol = _el.solve_lambda(points, 0.0, lam0=lam0)
    p_last = float(sol.weights[-1])
    slope = -2.0 * points.size * sol.lam * (1.0 - (1.0 + a) * p_last)
    return max(0.0, -2.0 * sol.log_ratio), slope, sol.lam


def _jel_problem(sample, r, rule, a_n) -> _RatioProblem:
    pv = _pseudo_values_for(sample, r)
    return _el_problem(pv.values, pv.ustat_estimate)


def _ajel_problem(sample, r, rule, a_n) -> _RatioProblem:
    pv = _pseudo_values_for(sample, r)
    a = adjustment_constant(pv.n) if a_n is None else float(a_n)
    if rule == "centered":
        return _RatioProblem(lambda beta, lam0: _centered_ratio_and_slope(pv, beta, a, lam0),
                             pv.values, pv.ustat_estimate, pv.ustat_estimate, bounded=False)
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


def check_methods(methods) -> tuple[str, ...]:
    """A non-empty tuple of names from :data:`CI_METHODS`, else PwmInputError."""
    methods = tuple(methods)
    bad = [m for m in methods if m not in _METHODS]
    if bad:
        raise PwmInputError(f"unknown methods {bad}; expected subset of {CI_METHODS}")
    if not methods:
        raise PwmInputError("at least one method is required")
    return methods


def check_options(methods, rule: str = "centered", a_n=None, *, level=None,
                  alpha=None, beta0=None) -> tuple[str, ...]:
    """Check the options of an interval or test, before any numeric work.

    ``level`` and ``alpha`` must lie in (0, 1) and ``beta0`` must be finite
    (each is checked unless None); ``methods`` must pass
    :func:`check_methods`, ``rule`` must be ``centered`` or ``literal``, and
    ``a_n``, unless None, must be positive and finite.  Raises
    :class:`PwmInputError`; returns the methods as a tuple.
    """
    if level is not None and not 0.0 < level < 1.0:
        raise PwmInputError(f"confidence level must be in (0, 1), got {level}")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise PwmInputError(f"test size must be in (0, 1), got {alpha}")
    if beta0 is not None and not math.isfinite(float(beta0)):
        raise PwmInputError("hypothesized value must be finite")
    methods = check_methods(methods)
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
    return problem.ratio(float(beta0), 0.0)[0]


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
    return _interval_from_ratio(problem, level, method)


def ratio_test(sample, r: int, beta0: float, alpha: float, method: str,
               rule: str = "centered", a_n=None) -> TestResult:
    """Chi-square calibrated test of ``beta_r = beta0`` on ``method``'s ratio."""
    statistic = _neg2_ratio(sample, r, beta0, method, rule, a_n, alpha=alpha)
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


def _between(x: float, a: float, b: float) -> bool:
    return min(a, b) < x < max(a, b)


def _newton_endpoint(ratio_fn, seed: float, start: float, bound, threshold: float,
                     beta_tol: float, lam: float) -> tuple[float, int]:
    """Locate the ratio = threshold crossing on the side of ``start``.

    Safeguarded Newton on ``sqrt(ratio) - sqrt(threshold)``, which is
    nearly linear in beta.  The bracket runs from ``inside`` (ratio below
    the threshold, the seed at first) to ``outside`` (at or above it).  A
    finite ``bound`` (the hull bound on this side) enters as the outside end
    unevaluated and is probed only when a Newton step reaches it; ``None``
    means the ratio stays finite on this side, so the search doubles its
    distance from the seed until it crosses.  Steps that leave the bracket
    become midpoints.  Stops at a point whose ratio residual is at most
    ``_RESIDUAL_TOL`` and whose next Newton step is at most ``beta_tol``.
    Returns the endpoint and the number of ratio evaluations.
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
        ratio, slope, lam = ratio_fn(x, lam)
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
            at_bound, _, lam = ratio_fn(bound, lam)
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


def _interval_from_ratio(problem: _RatioProblem, level: float,
                         method: str) -> ConfidenceInterval:
    """Invert ``ratio(beta) = chi-square quantile`` on each side of the seed.

    The spread of the problem's points sets the first Newton step,
    ``sqrt(threshold) * std(points) / sqrt(m)`` from the seed, and the
    tolerance scale ``beta_scale``; when the problem is bounded their
    shrunk hull bounds the search.  Each endpoint is a safeguarded Newton
    search that stops at ratio residual <= 1e-6 with a Newton step
    <= 1e-8 * beta_scale.
    """
    threshold = chi2_1_quantile(level)
    ratio_fn, points, seed = problem.ratio, problem.points, problem.seed
    at_seed, _, lam = ratio_fn(seed, 0.0)
    if not at_seed < threshold:
        raise ConvergenceError(
            f"ratio at the point estimate ({at_seed:.4g}) already exceeds "
            f"the chi-square threshold ({threshold:.4g}); no interval exists"
        )
    beta_tol = _BETA_TOL * _beta_scale(points, problem.estimate)
    step = math.sqrt(threshold) * float(np.std(points)) / math.sqrt(points.size)
    lo_bound, hi_bound = _hull_bounds(points) if problem.bounded else (None, None)
    lower, it_lo = _newton_endpoint(ratio_fn, seed, seed - step, lo_bound,
                                    threshold, beta_tol, lam)
    upper, it_hi = _newton_endpoint(ratio_fn, seed, seed + step, hi_bound,
                                    threshold, beta_tol, lam)
    return ConfidenceInterval(
        lower=lower,
        upper=upper,
        level=level,
        method=method,
        point_estimate=problem.estimate,
        endpoint_iterations=it_lo + it_hi,
    )


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
