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

Sorting, the estimates, the pseudo-values and the summands below are row
functions on a block of samples of one size (``sorted_rows``,
``estimate_rows``, ``pseudo_value_rows``, ``summand_rows``), which
:mod:`pwmjel.inference` and :mod:`pwmjel.simulate` run on a batch at once.
Their steps are products with the rank weights, sums and prefix sums along
the rows, so each row comes out bit for bit as it would alone; the
per-sample functions ``SortedSample.from_data``, ``dn_estimate``,
``vexler_estimate``, ``ustat_estimate``, ``jackknife_pseudo_values``,
``dnel_summands`` and ``vxl_summands`` are their one-row case.

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

# The most values a slice of rows holds while its pseudo-values are built:
# 256 KiB per temporary.
_SLICE_FLOATS = 1 << 15


@dataclass(frozen=True)
class SortedSample:
    """Immutable ascending sample.

    Build through :meth:`from_data`, which validates and sorts.  The wrapped
    array is marked read-only so downstream code can hold references safely.
    """

    values: np.ndarray

    @classmethod
    def from_data(cls, data) -> "SortedSample":
        """The ascending sample of ``data``, the one-row case of
        :func:`sorted_rows`; raises :class:`PwmInputError` unless ``data``
        is one-dimensional, non-empty and finite."""
        (error,), blocks = sorted_rows([data])
        if error is not None:
            raise error
        ((_, x),) = blocks.values()
        out = x[0]
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


def sorted_rows(samples) -> tuple[list, dict]:
    """Check and sort ``samples``, read once, as the rows of one new matrix
    per size; a :class:`SortedSample` is taken as its values.

    Returns ``(errors, blocks)``: ``errors[i]`` is the
    :class:`PwmInputError` sample i fails with (not an array of real
    numbers, not one-dimensional, empty or not finite), else None, and
    ``blocks`` maps each size to the indices of the samples of that size
    that pass and their sorted rows.

    NaN sorts last and infinities outermost, so a sorted row is finite when
    its two ends are.  -0.0 and +0.0 are the one pair of equal finite floats
    with different bits: a row holding more than one zero gets them back in
    input order, as a stable sort leaves them.  So a sorted row sorts to
    its own bytes.
    """
    errors, groups = [], {}  # size -> [(i, array)]
    for i, data in enumerate(samples):
        raw = data.values if isinstance(data, SortedSample) else data
        try:
            arr = np.asarray(raw)
            if arr.dtype.kind == "c" or arr.dtype.kind == "O" and any(
                    isinstance(v, np.complexfloating) for v in arr.flat):
                # NumPy would cast it to its real parts with only a warning
                raise TypeError("complex sample")
            arr = arr.astype(float, copy=False)
        except (TypeError, ValueError):
            errors.append(PwmInputError("sample must be an array of real numbers"))
            continue
        if arr.ndim != 1:
            errors.append(PwmInputError("sample must be one-dimensional"))
        elif arr.size == 0:
            errors.append(PwmInputError("sample is empty"))
        else:
            errors.append(None)
            groups.setdefault(arr.size, []).append((i, arr))
    blocks = {}
    for size, group in groups.items():
        index, rows = [i for i, _ in group], [arr for _, arr in group]
        out = np.array(rows)
        out.sort(axis=1)
        spans = np.flatnonzero((out[:, 0] <= 0.0) & (out[:, -1] >= 0.0))
        if spans.size:
            for j in spans[np.count_nonzero(out[spans] == 0.0, axis=1) > 1].tolist():
                row, raw = out[j], rows[j]
                row[row.searchsorted(0.0):row.searchsorted(0.0, "right")] = raw[raw == 0.0]
        finite = np.isfinite(out[:, 0]) & np.isfinite(out[:, -1])
        if not finite.all():
            for j in np.flatnonzero(~finite).tolist():
                errors[index[j]] = PwmInputError("sample contains non-finite values")
            index, out = [i for i, ok in zip(index, finite.tolist()) if ok], out[finite]
        if index:
            blocks[size] = (index, out)
    return errors, blocks


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
    return _estimate(sample, r, "DN")


def vexler_estimate(sample, r: int) -> float:
    """Estimate beta_r with differenced-power empirical-CDF weights.

    Computes ``sum_i x_(i) * ((i/n)**(r+1) - ((i-1)/n)**(r+1)) / (r+1)``.
    The weights inside the sum telescope to one, so a constant sample c
    yields exactly ``c / (r+1)``, matching the U-statistic estimator.
    """
    return _estimate(sample, r, "VEXLER")


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


# The rank weights of each plug-in method's summands.
_SUMMAND_WEIGHTS = {"DNEL": _dn_weights, "VXL": _vxl_weights}


def summand_rows(x: np.ndarray, r: int, method: str) -> np.ndarray:
    """The DNEL or VXL summands (``method``) of the sorted rows ``x``."""
    r = _check_order(r)
    n = x.shape[1]
    if n < 2:
        raise PwmInputError("summand construction needs at least two observations")
    return _SUMMAND_WEIGHTS[method](n, r) * x


def _summands(sample, r: int, method: str) -> SummandVector:
    r = _check_order(r)
    z = summand_rows(_as_sample(sample).values[None], r, method)[0]
    z.flags.writeable = False
    return SummandVector(values=z, method=method, r=r)


def dnel_summands(sample, r: int) -> SummandVector:
    """Summands of the empirical-CDF plug-in estimator."""
    return _summands(sample, r, "DNEL")


def vxl_summands(sample, r: int) -> SummandVector:
    """Summands of the differenced-power estimator.

    At r = 0 the weights telescope and the summands reduce to the data.
    """
    return _summands(sample, r, "VXL")


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
    return _estimate(sample, r, "USTAT")


# The rank weights of each estimator; each is a weighted sum of the sorted
# sample over n (DN) or r + 1 (the others).
_ESTIMATE_WEIGHTS = {"DN": _dn_weights, "VEXLER": _cdf_power_steps, "USTAT": _ustat_weights}


def estimate_rows(x: np.ndarray, r: int, method: str) -> np.ndarray:
    """The DN, VEXLER or USTAT estimates (``method``) of the sorted rows ``x``."""
    r = _check_order(r)
    n = x.shape[1]
    if method == "USTAT" and n < r + 1:
        raise InsufficientSampleError(
            f"need at least r+1 = {r + 1} observations, got {n}"
        )
    total = np.add.reduce(_ESTIMATE_WEIGHTS[method](n, r) * x, axis=1)
    return total / (n if method == "DN" else r + 1)


def _estimate(sample, r: int, method: str) -> float:
    r = _check_order(r)
    return float(estimate_rows(_as_sample(sample).values[None], r, method)[0])


def _jackknife_order(r) -> int:
    """``r`` once it is known to be an order pseudo-values exist for."""
    r = _check_order(r)
    if r < 1:
        raise PwmInputError("pseudo-values require moment order r >= 1")
    return r


def pseudo_value_rows(x: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The pseudo-values of the sorted rows ``x``, in a matrix of its shape,
    and the rows' U-statistic estimates.

    Every step is a row operation (products with the rank weights, sums and
    prefix sums along the rows), so each row's values are bit for bit those
    of the row alone.  The rows are taken in slices of at most
    ``_SLICE_FLOATS`` values, whose temporaries stay in a core's cache.
    """
    r = _jackknife_order(r)
    k, n = x.shape
    if n < r + 2:
        raise InsufficientSampleError(
            f"need at least r+2 = {r + 2} observations for the jackknife, got {n}"
        )
    w_keep = _ustat_weights(n, r)  # rank unchanged (below the deleted one)
    w_shift = _ustat_weights(n, r, lag=2)  # rank drops by one (above it)
    # rescale from C(n, r+1) to the deleted-sample denominator C(n-1, r+1)
    scale = n / ((n - r - 1.0) * (r + 1.0))
    v, beta = np.empty((k, n)), np.empty(k)
    step = max(1, _SLICE_FLOATS // n)
    kept, shifted = np.empty((min(k, step), n)), np.empty((min(k, step), n))
    for lo in range(0, k, step):
        rows, out = x[lo:lo + step], v[lo:lo + step]
        h = rows.shape[0]
        keep = np.multiply(w_keep, rows, out=kept[:h])
        beta[lo:lo + h] = np.add.reduce(keep, axis=1) / (r + 1)
        # the deleted-sample sum at rank i: the suffix sum of the shifted
        # terms above i, taken from the top, plus the prefix sum below i
        np.multiply(w_shift, rows, out=shifted[:h])
        np.cumsum(shifted[:h, :0:-1], axis=1, out=out[:, -2::-1])
        out[:, -1] = 0.0
        np.cumsum(keep[:, :-1], axis=1, out=keep[:, :-1])
        out[:, 1:] += keep[:, :-1]
        out[:, 0] += 0.0  # as 0.0 + suffix, which turns -0.0 into 0.0
        out *= scale
        out *= n - 1
        np.subtract((n * beta[lo:lo + h])[:, None], out, out=out)
    return v, beta


def jackknife_pseudo_values(sample, r: int) -> PseudoValues:
    """Leave-one-out pseudo-values of the U-statistic estimator.

    For each k the deleted-sample estimate ``b_k`` is obtained from prefix
    and suffix sums of reweighted order statistics (deleting the k-th order
    statistic shifts the ranks above it down by one), so the whole vector
    costs O(n) after sorting rather than O(n^2).  This is the one-row case
    of :func:`pseudo_value_rows`, which builds the pseudo-values of a block
    of samples at once.

    Returns
    -------
    PseudoValues
        With ``values`` in the order of the ascending sample.
    """
    r = _jackknife_order(r)
    s = _as_sample(sample)
    v, beta = pseudo_value_rows(s.values[None], r)
    v = v[0]
    v.flags.writeable = False
    return PseudoValues(values=v, ustat_estimate=float(beta[0]), r=r, n=s.n)
