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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import el as _el
from .distributions import chi2_1_cdf, chi2_1_quantile
from .el import neg2_log_ratio
from .errors import ConvergenceError, DegenerateSampleError, PwmInputError
from .estimators import PseudoValues, jackknife_pseudo_values

__all__ = [
    "ConfidenceInterval",
    "TestResult",
    "adjustment_constant",
    "jel_neg2_ratio",
    "ajel_neg2_ratio",
    "jel_confidence_interval",
    "ajel_confidence_interval",
    "jel_test",
    "ajel_test",
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


def _pseudo_values_for(sample, r) -> PseudoValues:
    if isinstance(sample, PseudoValues):
        pv = sample
        if pv.r != r:
            raise PwmInputError(
                f"pseudo-values were built for r = {pv.r}, requested r = {r}"
            )
    else:
        pv = jackknife_pseudo_values(sample, r)
    # constant input leaves rounding noise of a few n*eps in the
    # pseudo-values, so the spread is compared against that floor
    scale = max(1.0, float(np.max(np.abs(pv.values))))
    if np.ptp(pv.values) <= 64.0 * pv.n * np.finfo(float).eps * scale:
        raise DegenerateSampleError(
            "all jackknife pseudo-values are identical; the likelihood "
            "ratio carries no information"
        )
    return pv


def _check_beta0(beta0) -> float:
    beta0 = float(beta0)
    if not np.isfinite(beta0):
        raise PwmInputError("hypothesized value must be finite")
    return beta0


def jel_neg2_ratio(sample, r: int, beta0: float) -> float:
    """Minus twice the log EL ratio of the pseudo-values at ``beta0``.

    Infinite when beta0 lies outside the open hull of the pseudo-values.
    """
    beta0 = _check_beta0(beta0)
    pv = _pseudo_values_for(sample, r)
    return neg2_log_ratio(pv.values, beta0)


def _adjustment(pv: PseudoValues, a_n) -> float:
    a = adjustment_constant(pv.n) if a_n is None else float(a_n)
    if not np.isfinite(a) or a <= 0:
        raise PwmInputError(f"adjustment constant must be positive, got {a_n!r}")
    return a


def _ajel_points(pv: PseudoValues, beta0: float, rule: str, a_n) -> tuple[np.ndarray, float]:
    """Augmented point set and the mean to test on it."""
    if rule not in _RULES:
        raise PwmInputError(f"unknown adjustment rule {rule!r}; expected {_RULES}")
    a = _adjustment(pv, a_n)
    v = pv.values
    if rule == "centered":
        g = v - beta0
        aug = np.append(g, -(a / pv.n) * g.sum())
        return aug, 0.0
    aug = np.append(v, -(a / pv.n) * v.sum())
    return aug, beta0


def _centered_ratio_and_slope(pv: PseudoValues, beta: float, a_n,
                              lam0: float = 0.0) -> tuple[float, float, float]:
    """Centered-rule ratio at beta, its derivative in beta, and the multiplier.

    The appended point moves with beta at rate ``a``, the others at rate
    -1, so by the envelope theorem the derivative of ``-2 log R`` is
    ``-2 m lam (1 - (1 + a) p_last)``, with ``p_last`` the EL weight of the
    appended point.
    """
    points, mu = _ajel_points(pv, beta, "centered", a_n)
    sol = _el.solve_lambda(points, mu, lam0=lam0)
    p_last = float(sol.weights[-1])
    slope = -2.0 * points.size * sol.lam * (1.0 - (1.0 + _adjustment(pv, a_n)) * p_last)
    return max(0.0, -2.0 * sol.log_ratio), slope, sol.lam


def ajel_neg2_ratio(sample, r: int, beta0: float, rule: str = "centered", a_n=None) -> float:
    """Adjusted version of :func:`jel_neg2_ratio`.

    Under the default centered rule the result is finite for every finite
    beta0 and bounded above by the unadjusted ratio.  Under the literal
    rule the hull constraint applies to the augmented point set, so the
    infinite marker can still occur.
    """
    beta0 = _check_beta0(beta0)
    pv = _pseudo_values_for(sample, r)
    points, mu = _ajel_points(pv, beta0, rule, a_n)
    return neg2_log_ratio(points, mu)


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


def _interval_from_ratio(ratio_fn, points: np.ndarray, point: float, level: float,
                         method: str, bounded: bool = True, seed=None) -> ConfidenceInterval:
    """Invert ``ratio(beta) = chi-square quantile`` on each side of the seed.

    ``ratio_fn(beta, lam0)`` returns minus twice the log EL ratio at beta,
    its derivative in beta and the solved multiplier, which warm-starts the
    next solve.  ``points`` is the EL point set (before centering under the
    centered rule): its spread sets the first Newton step,
    ``sqrt(threshold) * std(points) / sqrt(m)`` from the seed, and the
    tolerance scale ``beta_scale``, and when ``bounded`` its shrunk hull
    bounds the search.  Each endpoint is a safeguarded Newton search that
    stops at ratio residual <= 1e-6 with a Newton step <= 1e-8 * beta_scale.
    """
    # seed is where the ratio is known to bottom out; it differs from the
    # reported point estimate only under the literal adjustment rule
    if not 0.0 < level < 1.0:
        raise PwmInputError(f"confidence level must be in (0, 1), got {level}")
    threshold = chi2_1_quantile(level)
    seed = point if seed is None else float(seed)
    at_seed, _, lam = ratio_fn(seed, 0.0)
    if not at_seed < threshold:
        raise ConvergenceError(
            f"ratio at the point estimate ({at_seed:.4g}) already exceeds "
            f"the chi-square threshold ({threshold:.4g}); no interval exists"
        )
    beta_tol = _BETA_TOL * _beta_scale(points, point)
    step = math.sqrt(threshold) * float(np.std(points)) / math.sqrt(points.size)
    lo_bound, hi_bound = _hull_bounds(points) if bounded else (None, None)
    lower, it_lo = _newton_endpoint(ratio_fn, seed, seed - step, lo_bound,
                                    threshold, beta_tol, lam)
    upper, it_hi = _newton_endpoint(ratio_fn, seed, seed + step, hi_bound,
                                    threshold, beta_tol, lam)
    return ConfidenceInterval(
        lower=lower,
        upper=upper,
        level=level,
        method=method,
        point_estimate=point,
        endpoint_iterations=it_lo + it_hi,
    )


def _hull_bounds(values: np.ndarray) -> tuple[float, float]:
    vmin, vmax = float(values.min()), float(values.max())
    span = vmax - vmin
    return vmin + _HULL_SHRINK * span, vmax - _HULL_SHRINK * span


def _beta_scale(values: np.ndarray, point: float) -> float:
    return max(1.0, abs(point), float(np.max(np.abs(values - point))))


def jel_confidence_interval(sample, r: int, level: float = 0.95) -> ConfidenceInterval:
    """Confidence interval from inverting the pseudo-value EL ratio.

    Endpoints solve ``ratio(beta) = chi-square quantile`` by a safeguarded
    Newton search on each side of the point estimate, inside the open hull
    of the pseudo-values where the ratio is finite and grows without bound.
    Each search stops at ratio residual <= 1e-6 with a Newton step
    <= 1e-8 * beta_scale, where ``beta_scale`` is the larger of 1, the
    estimate's magnitude and the pseudo-values' spread around it.
    """
    pv = _pseudo_values_for(sample, r)
    return _interval_from_ratio(partial(_el.neg2_log_ratio_and_slope, pv.values),
                                pv.values, pv.ustat_estimate, level, "JEL")


def ajel_confidence_interval(sample, r: int, level: float = 0.95,
                             rule: str = "centered", a_n=None) -> ConfidenceInterval:
    """Adjusted-ratio confidence interval.

    Endpoints come from the same safeguarded Newton search as
    :func:`jel_confidence_interval`, with the same stopping rule (ratio
    residual <= 1e-6, Newton step <= 1e-8 * beta_scale).  With the centered
    rule the ratio is finite everywhere, so the search may leave the
    pseudo-value hull, doubling its reach until the threshold is crossed;
    the result always contains the unadjusted interval.  With the literal
    rule the search stays inside the hull of the augmented point set.
    """
    pv = _pseudo_values_for(sample, r)
    point = pv.ustat_estimate
    if rule == "centered":
        return _interval_from_ratio(
            lambda beta, lam0: _centered_ratio_and_slope(pv, beta, a_n, lam0),
            pv.values, point, level, "AJEL", bounded=False,
        )
    if rule != "literal":
        raise PwmInputError(f"unknown adjustment rule {rule!r}; expected {_RULES}")
    # the augmented set does not depend on the tested value, so the ratio
    # bottoms out at the augmented mean rather than at the point estimate
    aug, _ = _ajel_points(pv, 0.0, "literal", a_n)
    return _interval_from_ratio(partial(_el.neg2_log_ratio_and_slope, aug),
                                aug, point, level, "AJEL", seed=float(aug.mean()))


def _ratio_test(statistic: float, beta0: float, alpha: float, method: str) -> TestResult:
    if not 0.0 < alpha < 1.0:
        raise PwmInputError(f"test size must be in (0, 1), got {alpha}")
    threshold = chi2_1_quantile(1.0 - alpha)
    p_value = 1.0 - chi2_1_cdf(statistic) if math.isfinite(statistic) else 0.0
    return TestResult(
        statistic=statistic,
        threshold=threshold,
        p_value=p_value,
        reject=bool(statistic > threshold),
        method=method,
        null_value=beta0,
        alpha=alpha,
    )


def jel_test(sample, r: int, beta0: float, alpha: float = 0.05) -> TestResult:
    """Chi-square calibrated test of ``beta_r = beta0``."""
    return _ratio_test(jel_neg2_ratio(sample, r, beta0), beta0, alpha, "JEL")


def ajel_test(sample, r: int, beta0: float, alpha: float = 0.05,
              rule: str = "centered", a_n=None) -> TestResult:
    """Adjusted-ratio test of ``beta_r = beta0``."""
    stat = ajel_neg2_ratio(sample, r, beta0, rule=rule, a_n=a_n)
    return _ratio_test(stat, beta0, alpha, "AJEL")
