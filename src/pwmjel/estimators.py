"""Point estimators for probability weighted moments.

The target quantity is ``beta_r = E[X * F(X)**r]``, the r-th probability
weighted moment of a continuous distribution F.  Three sample versions are
provided:

* ``dn_estimate``      -- plug-in with empirical CDF weights ``(i/n)**r``,
* ``vexler_estimate``  -- weights from differenced powers of the empirical CDF,
* ``ustat_estimate``   -- U-statistic with the max kernel, using the identity
  ``(r+1) * beta_r = E[max(X_1, ..., X_{r+1})]``.

The U-statistic form admits an exact order-statistic representation

    beta_r = sum_{i=r+1..n} C(i-1, r) * x_(i) / ((r+1) * C(n, r+1)),

which is what ``ustat_estimate`` evaluates.  Jackknife pseudo-values of the
U-statistic feed the empirical likelihood machinery in :mod:`pwmjel.inference`.

The two plug-in estimators are also plain means of n summands, which the
DNEL and VXL baselines run empirical likelihood on:

* ``dnel_summands``: ``(i/n)**r * x_(i)`` (mean equals ``dn_estimate``),
* ``vxl_summands``:  ``n/(r+1) * x_(i) * ((i/n)**(r+1) - ((i-1)/n)**(r+1))``
  (mean equals ``vexler_estimate``).

Caveat, stated as loudly as a docstring allows: the summands are functions
of order statistics, hence strongly dependent, while the EL calibration
treats them as i.i.d.  Their cross-sectional scatter does not match the
sampling variance of the estimator, so these intervals tend to run wide
and conservative.  They are included as benchmarks, not as recommended
procedures; the pseudo-value methods are the primary tools.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSampleError, PwmInputError

__all__ = [
    "SortedSample",
    "PseudoValues",
    "SummandVector",
    "dn_estimate",
    "vexler_estimate",
    "dnel_summands",
    "vxl_summands",
    "ustat_estimate",
    "jackknife_pseudo_values",
]

# Cached weight vectors per helper; a Monte Carlo cell asks for the same few
# (n, r) over all its replications, and each entry holds n floats.
_WEIGHT_CACHE_SIZE = 8


@dataclass(frozen=True)
class SortedSample:
    """Immutable ascending sample.

    Build through :meth:`from_data`, which validates and sorts.  The wrapped
    array is marked read-only so downstream code can hold references safely.
    """

    values: np.ndarray

    @classmethod
    def from_data(cls, data) -> "SortedSample":
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 1:
            raise PwmInputError("sample must be one-dimensional")
        if arr.size == 0:
            raise PwmInputError("sample is empty")
        if not np.all(np.isfinite(arr)):
            raise PwmInputError("sample contains non-finite values")
        out = np.sort(arr)
        # -0.0 and +0.0 are the one pair of equal finite floats with
        # different bits: keep their input order, as a stable sort does
        lo, hi = out.searchsorted(0.0), out.searchsorted(0.0, "right")
        if hi - lo > 1:
            out[lo:hi] = arr[arr == 0.0]
        out.flags.writeable = False
        return cls(values=out)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class PseudoValues:
    """Jackknife pseudo-values of the U-statistic estimator.

    ``values[k] = n * b - (n-1) * b_k`` where ``b`` is the full-sample
    estimate and ``b_k`` the estimate with observation k deleted.  Their mean
    reproduces ``ustat_estimate`` exactly.
    """

    values: np.ndarray
    ustat_estimate: float
    r: int
    n: int


@dataclass(frozen=True)
class SummandVector:
    """Ordered-sample summands whose mean is the point estimate."""

    values: np.ndarray
    method: str
    r: int

    @property
    def estimate(self) -> float:
        return float(np.mean(self.values))


def _as_sample(sample) -> SortedSample:
    if isinstance(sample, SortedSample):
        return sample
    return SortedSample.from_data(sample)


def _check_order(r: int) -> int:
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool):
        raise PwmInputError(f"moment order must be an integer, got {r!r}")
    if r < 0:
        raise PwmInputError(f"moment order must be non-negative, got {r}")
    return int(r)


def dn_estimate(sample, r: int) -> float:
    """Estimate beta_r with empirical-CDF plug-in weights.

    Computes ``(1/n) * sum_i (i/n)**r * x_(i)`` on the ascending sample.

    Parameters
    ----------
    sample : array_like or SortedSample
        Observations; sorted internally when raw data is passed.
    r : int
        Moment order, ``r >= 0``.

    Returns
    -------
    float
    """
    r = _check_order(r)
    s = _as_sample(sample)
    return float(np.mean(_dn_weights(s.n, r) * s.values))


def vexler_estimate(sample, r: int) -> float:
    """Estimate beta_r with differenced-power empirical-CDF weights.

    Computes ``sum_i x_(i) * ((i/n)**(r+1) - ((i-1)/n)**(r+1)) / (r+1)``.
    The weights inside the sum telescope to one, so a constant sample c
    yields exactly ``c / (r+1)``, matching the U-statistic estimator.
    """
    r = _check_order(r)
    s = _as_sample(sample)
    return float(np.sum(_cdf_power_steps(s.n, r) * s.values) / (r + 1))


def _cached_weights(fn):
    """Cache a rank-weight helper on its arguments; the arrays it hands out
    are shared between callers, so they are read-only."""

    @functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
    @functools.wraps(fn)
    def cached(*args, **kwargs) -> np.ndarray:
        w = fn(*args, **kwargs)
        w.flags.writeable = False
        return w

    return cached


@_cached_weights
def _dn_weights(n: int, r: int) -> np.ndarray:
    return (np.arange(1, n + 1, dtype=float) / n) ** r


@_cached_weights
def _cdf_power_steps(n: int, r: int) -> np.ndarray:
    """``(i/n)**(r+1) - ((i-1)/n)**(r+1)``, i=1..n."""
    grid = np.arange(0, n + 1, dtype=float) / n
    return np.diff(grid ** (r + 1))


@_cached_weights
def _vxl_weights(n: int, r: int) -> np.ndarray:
    if r == 0:
        # keep the telescoped weights exactly 1 (the i/n grid rounds)
        return np.ones(n)
    return _cdf_power_steps(n, r) * (n / (r + 1.0))


def _summands(sample, r: int, method: str, weights) -> SummandVector:
    r = _check_order(r)
    s = _as_sample(sample)
    if s.n < 2:
        raise PwmInputError("summand construction needs at least two observations")
    z = weights(s.n, r) * s.values
    z.flags.writeable = False
    return SummandVector(values=z, method=method, r=r)


def dnel_summands(sample, r: int) -> SummandVector:
    """Summands of the empirical-CDF plug-in estimator."""
    return _summands(sample, r, "DNEL", _dn_weights)


def vxl_summands(sample, r: int) -> SummandVector:
    """Summands of the differenced-power estimator.

    At r = 0 the weights telescope and the summands reduce to the data.
    """
    return _summands(sample, r, "VXL", _vxl_weights)


@_cached_weights
def _ustat_weights(n: int, r: int, lag: int = 1) -> np.ndarray:
    """Normalized order-statistic weights ``C(i-lag, r) / C(n, r+1)``, i=1..n.

    ``lag = 1`` gives the U-statistic weights; ``lag = 2`` gives them for a
    rank one lower, as after deleting an observation below.  With ``m =
    i - lag`` the closed form is ``(r+1)/(n-r) * prod_{j<r} (m-j)/(n-j)``,
    zero where ``m < r``.  Taking the factors in pairs keeps each pair's
    integer products exact, so each weight is within 1e-15 of the exact
    rational.
    """
    m = np.arange(r, n + 1 - lag, dtype=float)  # the ranks with nonzero weight
    w = np.full(m.shape, (r + 1.0) / (n - r))
    for j in range(0, r - 1, 2):
        w *= (m - j) * (m - j - 1) / ((n - j) * (n - j - 1.0))
    if r % 2:
        w *= (m - r + 1) / (n - r + 1.0)
    return np.concatenate((np.zeros(n - m.size), w))


def ustat_estimate(sample, r: int) -> float:
    """U-statistic estimate of beta_r via the max kernel.

    Averages ``max(x over subset) / (r+1)`` across all subsets of size
    ``r+1``, evaluated in closed form from the order statistics in O(n).

    Parameters
    ----------
    sample : array_like or SortedSample
    r : int
        Moment order, ``r >= 1``.  (r = 0 reduces to the sample mean; the
        closed form handles it, but inference below needs r >= 1.)

    Raises
    ------
    InsufficientSampleError
        If ``n < r + 1``, where no subset of the required size exists.
    """
    r = _check_order(r)
    s = _as_sample(sample)
    if s.n < r + 1:
        raise InsufficientSampleError(
            f"need at least r+1 = {r + 1} observations, got {s.n}"
        )
    w = _ustat_weights(s.n, r)
    return float(np.sum(w * s.values) / (r + 1))


def jackknife_pseudo_values(sample, r: int) -> PseudoValues:
    """Leave-one-out pseudo-values of the U-statistic estimator.

    For each k the deleted-sample estimate ``b_k`` is obtained from prefix
    and suffix sums of reweighted order statistics (deleting the k-th order
    statistic shifts the ranks above it down by one), so the whole vector
    costs O(n) after sorting rather than O(n^2).

    Returns
    -------
    PseudoValues
        With ``values`` in the order of the ascending sample.
    """
    r = _check_order(r)
    if r < 1:
        raise PwmInputError("pseudo-values require moment order r >= 1")
    s = _as_sample(sample)
    n = s.n
    if n < r + 2:
        raise InsufficientSampleError(
            f"need at least r+2 = {r + 2} observations for the jackknife, got {n}"
        )
    x = s.values
    w_keep = _ustat_weights(n, r)  # rank unchanged (below k)
    w_shift = _ustat_weights(n, r, lag=2)  # rank drops by one (above k)

    beta_full = float(np.sum(w_keep * x) / (r + 1))

    prefix = np.concatenate(([0.0], np.cumsum(w_keep * x)[:-1]))
    suffix = np.concatenate((np.cumsum((w_shift * x)[::-1])[::-1][1:], [0.0]))
    # rescale from C(n, r+1) to the deleted-sample denominator C(n-1, r+1)
    beta_del = (prefix + suffix) * (n / ((n - r - 1.0) * (r + 1.0)))

    v = n * beta_full - (n - 1) * beta_del
    v.flags.writeable = False
    return PseudoValues(values=v, ustat_estimate=beta_full, r=r, n=n)
