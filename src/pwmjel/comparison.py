"""Plug-in empirical likelihood on ordered-sample summands.

Each point estimator in :mod:`pwmjel.estimators` that averages weighted
order statistics can be rewritten as a plain mean of n summands; running
EL on those summands gives comparison methods:

* DNEL: summands ``(i/n)**r * x_(i)`` (mean equals ``dn_estimate``),
* VXL:  summands ``n/(r+1) * x_(i) * ((i/n)**(r+1) - ((i-1)/n)**(r+1))``
  (mean equals ``vexler_estimate``).

Caveat, stated as loudly as a docstring allows: the summands are functions
of order statistics, hence strongly dependent, while the EL calibration
treats them as i.i.d.  Their cross-sectional scatter does not match the
sampling variance of the estimator, so these intervals tend to run wide
and conservative.  They are included as benchmarks, not as recommended
procedures; the pseudo-value methods in :mod:`pwmjel.inference` are the
primary tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import el as _el
from .errors import DegenerateSampleError, PwmInputError
from .estimators import _as_sample, _check_order
from .inference import (
    ConfidenceInterval,
    TestResult,
    _interval_from_ratio,
    _ratio_test,
)

__all__ = ["SummandVector", "dnel_summands", "vxl_summands", "plugin_el_ci", "plugin_el_test"]

_METHODS = ("DNEL", "VXL")


@dataclass(frozen=True)
class SummandVector:
    """Ordered-sample summands whose mean is the point estimate."""

    values: np.ndarray
    method: str
    r: int

    @property
    def estimate(self) -> float:
        return float(np.mean(self.values))


def dnel_summands(sample, r: int) -> SummandVector:
    """Summands of the empirical-CDF plug-in estimator."""
    r = _check_order(r)
    s = _as_sample(sample)
    if s.n < 2:
        raise PwmInputError("summand construction needs at least two observations")
    w = (np.arange(1, s.n + 1, dtype=float) / s.n) ** r
    z = w * s.values
    z.flags.writeable = False
    return SummandVector(values=z, method="DNEL", r=r)


def vxl_summands(sample, r: int) -> SummandVector:
    """Summands of the differenced-power estimator.

    At r = 0 the weights telescope and the summands reduce to the data.
    """
    r = _check_order(r)
    s = _as_sample(sample)
    if s.n < 2:
        raise PwmInputError("summand construction needs at least two observations")
    if r == 0:
        # keep the telescoped weights exactly 1 (the i/n grid rounds)
        w = np.ones(s.n)
    else:
        grid = np.arange(0, s.n + 1, dtype=float) / s.n
        w = np.diff(grid ** (r + 1)) * (s.n / (r + 1.0))
    z = w * s.values
    z.flags.writeable = False
    return SummandVector(values=z, method="VXL", r=r)


def _summands(sample, r: int, method: str) -> SummandVector:
    if method == "DNEL":
        return dnel_summands(sample, r)
    if method == "VXL":
        return vxl_summands(sample, r)
    raise PwmInputError(f"unknown comparison method {method!r}; expected {_METHODS}")


def _checked_values(sv: SummandVector) -> np.ndarray:
    if np.ptp(sv.values) == 0.0:
        raise DegenerateSampleError(
            f"{sv.method} summands are all identical; no likelihood spread"
        )
    return sv.values


def plugin_el_ci(sample, r: int, level: float = 0.95, method: str = "DNEL") -> ConfidenceInterval:
    """EL interval on the summands, centered at their mean."""
    sv = _summands(sample, r, method)
    z = _checked_values(sv)
    return _interval_from_ratio(partial(_el.neg2_log_ratio_and_slope, z),
                                z, sv.estimate, level, method)


def plugin_el_test(sample, r: int, beta0: float, alpha: float = 0.05,
                   method: str = "DNEL") -> TestResult:
    """EL test of ``mean(summands) = beta0``; infinite ratio outside the hull."""
    beta0 = float(beta0)
    if not np.isfinite(beta0):
        raise PwmInputError("hypothesized value must be finite")
    sv = _summands(sample, r, method)
    z = _checked_values(sv)
    return _ratio_test(_el.neg2_log_ratio(z, beta0), beta0, alpha, method)
