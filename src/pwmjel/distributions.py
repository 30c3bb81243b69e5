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

scipy loads only for normal and lognormal draws and their ``true_beta``
quadrature; exponential and CSV work never imports it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

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

# Standard-normal quadrature window; the integrands below are negligible
# beyond |z| = 10 for every supported parameter.
_Z_LIM = 10.0


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
        if not np.isfinite(self.param1):
            raise PwmInputError("param1 must be finite")
        if self.family != CONSTANT and self.param1 <= 0:
            raise PwmInputError(f"{self.family} requires param1 > 0")
        if self.family in (NORMAL, LOGNORMAL):
            # load what draws need before a simulation forks its workers
            import scipy.special  # noqa: F401

    @property
    def label(self) -> str:
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
    return sum(1.0 / j for j in range(1, m + 1))


def _check_r(r: int) -> int:
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool) or r < 0:
        raise PwmInputError(f"moment order must be a non-negative integer, got {r!r}")
    return int(r)


def _quad(fn, lo, hi) -> float:
    # imported here so that importing pwmjel does not load scipy.integrate
    from scipy import integrate

    value, abserr = integrate.quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=300)
    if abserr > 1e-7 * max(1.0, abs(value)):
        raise NumericError(
            f"quadrature error estimate {abserr:.2e} too large for value {value:.6e}"
        )
    return float(value)


def _phi(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def true_beta(dist: DistSpec, r: int) -> float:
    """Population value of ``E[X * F(X)**r]``.

    Exponential uses the closed form ``theta * H_{r+1} / (r+1)`` with H the
    harmonic numbers; normal and lognormal integrate over the standard
    normal z with absolute tolerance well under 1e-10.  A point mass at c
    gets ``c / (r+1)``, the common limit of all the sample estimators.
    """
    r = _check_r(r)
    if dist.family == EXPONENTIAL:
        return dist.param1 * _harmonic(r + 1) / (r + 1)
    if dist.family == CONSTANT:
        return dist.param1 / (r + 1)
    from scipy.special import ndtr
    if dist.family == NORMAL:
        s = dist.param1
        return _quad(lambda z: s * z * _phi(z) * ndtr(z) ** r, -_Z_LIM, _Z_LIM)
    if dist.family == LOGNORMAL:
        s = dist.param1
        return _quad(lambda z: math.exp(s * z) * _phi(z) * ndtr(z) ** r, -_Z_LIM, _Z_LIM)
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
