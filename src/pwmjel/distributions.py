"""Sampling, true moment values, and chi-square helpers.

Parameterization conventions, fixed and documented here once:

* exponential: ``param1`` is the MEAN theta (not the rate),
* normal: mean zero, ``param1`` is the standard deviation sigma (so the
  common variance notation N(0, 4) maps to ``param1 = 2``),
* lognormal: ``exp(sigma * Z)`` with Z standard normal, ``param1 = sigma``,
* constant: point mass at ``param1``; a sampling hook for degenerate-input
  tests, with no defined moment target.

Draws go through inverse transforms of open-interval uniforms from a seeded
PCG64 generator, so replication streams are reproducible and independent of
library version quirks in the convenience samplers.

scipy loads at the first normal or lognormal draw (``scipy.special``) and
nowhere else: a ``DistSpec`` and ``true_beta`` need ``math`` alone, and
exponential and CSV work never import scipy.
"""

from __future__ import annotations

import math
import numbers
import statistics
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, PwmInputError

__all__ = [
    "EXPONENTIAL",
    "NORMAL",
    "LOGNORMAL",
    "CONSTANT",
    "DistSpec",
    "make_rng",
    "sample",
    "true_beta",
    "chi2_1_cdf",
    "chi2_1_quantile",
]

EXPONENTIAL = "exponential"
NORMAL = "normal"
LOGNORMAL = "lognormal"
CONSTANT = "constant"

_FAMILIES = (EXPONENTIAL, NORMAL, LOGNORMAL, CONSTANT)

# true_beta's trapezoid rule over the standard normal weight.  Its nodes are
# z_k = k / 20 for |z_k| <= _Z_LIM, a step h = 0.05.  Each is rounded on its
# own; k * 0.05 would carry the rounding of 0.05 into every node and bias the
# sum.  The integrands are at most |z| phi(z) and phi(y) in size, with
# phi(10) = 7.7e-23, so what lies beyond |z| = 10 and the end nodes' half
# weight are lost in rounding at every sigma.  The even k, the nodes of the
# half rule (step 2h), come first, and each half runs from z = 0 outward:
# math.fsum is several times faster when the large terms come first.
_Z_LIM = 10
_NODES = tuple(k / 20 for k in sorted(range(-20 * _Z_LIM, 20 * _Z_LIM + 1),
                                      key=lambda k: (k % 2, abs(k))))
_EVEN_NODES = 20 * _Z_LIM + 1
# h / sqrt(2 pi) = 1 / (20 sqrt(2 pi)) is _WEIGHT * (1 + _WEIGHT_LO) to 35
# digits; the low part keeps the weight's own rounding out of the moment.
_WEIGHT = 0.019947114020071634
_WEIGHT_LO = 7.099532268180822e-18
# Largest relative gap allowed between the rule and its half.
_RULE_RTOL = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# The largest m whose harmonic number H_m is summed term by term, so that
# the exponential moments of orders below it keep that sum's bits.  Against
# math.fsum of the same terms, the sum is within 7.9e-16 relative up to here
# (it first passes 1e-15 at m = 1858), and _harmonic_series within 2.3e-16
# from m = 1001 on (checked to m = 3e5; within 1e-15 from m = 96).
_HARMONIC_SUM_MAX = 1000
_EULER_GAMMA = 0.5772156649015329
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class DistSpec:
    """A sampling distribution named by family and one parameter."""

    family: str
    param1: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise PwmInputError(
                f"unknown family {self.family!r}; expected one of {_FAMILIES}"
            )
        if not isinstance(self.param1, numbers.Real) or isinstance(self.param1, bool):
            raise PwmInputError(f"param1 must be a real number, got {self.param1!r}")
        try:
            param1 = float(self.param1)
        except OverflowError:  # an integer or fraction beyond the float range
            param1 = math.inf
        if not math.isfinite(param1):
            raise PwmInputError("param1 must be finite")
        object.__setattr__(self, "param1", param1)
        if self.family != CONSTANT and self.param1 <= 0:
            raise PwmInputError(f"{self.family} requires param1 > 0")

    @cached_property
    def label(self) -> str:
        """Formatted once, so that every report row of the spec shares it."""
        return f"{self.family}({self.param1:g})"


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator."""
    return np.random.Generator(np.random.PCG64(seed))


def _uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniforms in (0, 1) for the inverse transforms: the values k·2^-53 of
    ``random()`` moved up by 2^-54, the same bits as ``(integers(0, 2**53) +
    0.5) * 2**-53`` but for the top draw.  From 0.5 up the sum is a tie that
    rounds to even, which takes the top draw, k = 2^53 - 1, to 1.0; that one
    is held at 1 - 2^-53, the largest float below 1, so that no transform
    meets the end of its range."""
    u = rng.random(n) + 2.0**-54
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def sample(dist: DistSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n observations from dist using inverse-CDF transforms."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise PwmInputError(f"sample size must be a positive integer, got {n!r}")
    n = int(n)
    if dist.family == CONSTANT:
        return np.full(n, float(dist.param1))
    u = _uniform_open(rng, n)
    if dist.family == EXPONENTIAL:
        return -dist.param1 * np.log(u)
    from scipy.special import ndtri
    z = ndtri(u)
    if dist.family == NORMAL:
        return dist.param1 * z
    return np.exp(dist.param1 * z)  # lognormal


def _harmonic(m: int) -> float:
    """H_m, summed left to right up to ``_HARMONIC_SUM_MAX`` terms, and from
    the Euler-Maclaurin series past them, so that any m takes bounded time."""
    if m <= _HARMONIC_SUM_MAX:
        return sum(1.0 / j for j in range(1, m + 1))
    return _harmonic_series(m)


def _harmonic_series(m: int) -> float:
    """``ln m + gamma + 1/(2m) - 1/(12m**2) + 1/(120m**4)``, small terms first."""
    inv = 1.0 / m
    return math.log(m) + (_EULER_GAMMA + inv * (0.5 - inv * (1.0 / 12.0 - inv * inv / 120.0)))


def _check_r(r: int) -> int:
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool) or r < 0:
        raise PwmInputError(f"moment order must be a non-negative integer, got {r!r}")
    r = int(r)
    try:
        float(r + 1)  # every family's moment takes r, or r + 1, as a float
    except OverflowError:
        raise PwmInputError(f"moment order must be below 2**1024, got one of "
                            f"{r.bit_length()} bits") from None
    return r


def _trapezoid(terms: list) -> float:
    """The rule's value from its integrand at ``_NODES``, the factor
    ``exp(-z*z/2)`` included, checked against the half rule."""
    weighted = [_WEIGHT * t for t in terms]
    half = math.fsum(weighted[:_EVEN_NODES])
    # the weight's low part, through the half rule's sum: that is within
    # 1e-12 of the full one's, ample for a 7e-18 correction
    value = math.fsum(weighted + [half * (2.0 * _WEIGHT_LO)])
    gap = 2.0 * abs(0.5 * value - half)  # halved, so that no sum can overflow
    if not gap <= _RULE_RTOL * abs(value):
        raise NumericError(
            f"trapezoid rule and its half differ by {gap:.2e} for value {value:.6e}"
        )
    return value


def true_beta(dist: DistSpec, r: int) -> float:
    """Population value of ``E[X * F(X)**r]``.

    Exponential uses the closed form ``theta * H_{r+1} / (r+1)`` with H the
    harmonic numbers.  A point mass at c gets ``c / (r+1)``, the common limit
    of all the sample estimators.

    Normal and lognormal take a fixed trapezoid rule over the standard normal
    weight: nodes ``k h`` on [-10, 10] with h = 0.05, evaluated with ``math``
    (``exp``, ``erfc``) and summed with ``math.fsum``.  The normal moment is
    ``sigma * E[Z Phi(Z)**r]``.  The lognormal one is written in the shifted
    variable ``y = z - sigma``, where it is exactly
    ``exp(sigma**2 / 2) * E[Phi(Y + sigma)**r]``: the integrand is bounded by
    ``phi(y)`` whatever sigma is, so the window holds it at every sigma.  The
    rule is checked against its every-other-node half, and a relative gap
    over 1e-12 raises ``NumericError``, as does a lognormal moment beyond the
    float range (sigma over 37.677).
    """
    r = _check_r(r)
    if dist.family == EXPONENTIAL:
        return dist.param1 * _harmonic(r + 1) / (r + 1)
    if dist.family == CONSTANT:
        return dist.param1 / (r + 1)
    s = dist.param1
    if dist.family == NORMAL:
        return s * _trapezoid([z * math.exp(-0.5 * z * z)
                               * (0.5 * math.erfc(-z * _SQRT_HALF)) ** r for z in _NODES])
    if dist.family == LOGNORMAL:
        if 0.5 * s * s > _LOG_FLOAT_MAX:
            raise NumericError(
                f"beta_{r} of {dist.label} exceeds the float range: "
                f"it is about exp({0.5 * s * s:.6g})"
            )
        return _trapezoid([math.exp(0.5 * (s * s - y * y))
                           * (0.5 * math.erfc(-(y + s) * _SQRT_HALF)) ** r for y in _NODES])
    raise PwmInputError(f"no population moment defined for family {dist.family!r}")


def chi2_1_cdf(x: float) -> float:
    """CDF of the chi-square distribution with one degree of freedom."""
    if not (np.isscalar(x) or isinstance(x, np.generic)):
        raise PwmInputError("chi2_1_cdf expects a scalar")
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise PwmInputError(f"chi-square argument must be >= 0, got {x}")
    return math.erf(math.sqrt(0.5 * x))


def chi2_1_quantile(p: float) -> float:
    """Inverse of :func:`chi2_1_cdf` on the open interval (0, 1).

    Closed form: ``chi2_1_cdf(x) = erf(sqrt(x / 2))``, so the quantile is
    ``2 * y**2`` with ``erf(y) = p``.  ``y`` starts from the normal quantile
    ``inv_cdf((1 + p) / 2) / sqrt(2)``, and one Newton step on ``math.erf``
    takes out the rounding of ``(1 + p) / 2``.  The result is within 2e-15
    of the exact quantile for p from 1e-12 to 1 - 1e-9.
    """
    if not 0.0 < p < 1.0:
        raise PwmInputError(f"quantile level must be in (0, 1), got {p}")
    p = float(p)
    y = statistics.NormalDist().inv_cdf(0.5 + 0.5 * p) / math.sqrt(2.0)
    y -= (math.erf(y) - p) / (2.0 / math.sqrt(math.pi) * math.exp(-y * y))
    return 2.0 * y * y
