import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pwmjel import (
    InsufficientSampleError,
    PseudoValues,
    PwmInputError,
    SortedSample,
    dn_estimate,
    estimators,
    jackknife_pseudo_values,
    ustat_estimate,
    vexler_estimate,
)

X4 = [1.0, 2.0, 3.0, 4.0]


def test_dn_hand_values():
    # (1/n) sum (i/n)^r x_(i) on 1..4
    assert dn_estimate(X4, 1) == pytest.approx(1.875, abs=1e-15)
    assert dn_estimate(X4, 2) == pytest.approx(1.5625, abs=1e-15)
    # r = 0 reduces to the sample mean
    assert dn_estimate(X4, 0) == pytest.approx(2.5, abs=1e-15)


def test_vexler_hand_values():
    assert vexler_estimate(X4, 1) == pytest.approx(1.5625, abs=1e-15)
    assert vexler_estimate(X4, 0) == pytest.approx(2.5, abs=1e-15)


def test_vexler_constant_sample_telescopes():
    # weights sum to 1 by telescoping, so a constant sample gives c/(r+1)
    for r in range(5):
        got = vexler_estimate([5.0] * 9, r)
        assert got == pytest.approx(5.0 / (r + 1), rel=1e-14)


def test_ustat_hand_values():
    assert ustat_estimate(X4, 1) == pytest.approx(5.0 / 3.0, rel=1e-14)
    assert ustat_estimate(X4, 2) == pytest.approx(1.25, rel=1e-14)
    assert ustat_estimate(X4, 0) == pytest.approx(2.5, rel=1e-14)


def test_ustat_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        r = int(rng.integers(1, min(4, n - 1) + 1))
        x = rng.standard_normal(n) * 3.0 + 1.0
        fast = ustat_estimate(x, r)
        slow = sum(max(c) for c in combinations(x, r + 1))
        slow /= math.comb(n, r + 1) * (r + 1)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_ustat_needs_enough_points():
    with pytest.raises(InsufficientSampleError):
        ustat_estimate([1.0, 2.0], 2)


def test_order_validation():
    with pytest.raises(PwmInputError):
        dn_estimate(X4, -1)
    with pytest.raises(PwmInputError):
        dn_estimate(X4, 1.5)
    with pytest.raises(PwmInputError):
        dn_estimate(X4, True)


def test_sample_validation():
    with pytest.raises(PwmInputError):
        dn_estimate([[1.0, 2.0]], 1)
    with pytest.raises(PwmInputError):
        dn_estimate([], 1)
    with pytest.raises(PwmInputError):
        dn_estimate([1.0, np.nan], 1)


def test_bool_int_and_sorted_inputs_keep_their_bits():
    rng = np.random.default_rng(13)
    x = rng.normal(size=50)
    ints = [int(v) for v in rng.integers(-2**62, 2**62, 50)] + [2**70, -2**64 - 1]
    bits = rng.random(50) < 0.5
    for raw, want in ((bits.tolist(), bits.astype(float)),
                      (bits, bits.astype(float)),
                      (ints, np.array([float(v) for v in ints])),
                      (np.array(ints[:50]), np.array([float(v) for v in ints[:50]])),
                      (SortedSample.from_data(x), x),
                      (x.tolist(), x)):
        errors, blocks = estimators.sorted_rows([raw])
        ((index, rows),) = blocks.values()
        assert errors == [None] and list(index) == [0]
        assert rows[0].tobytes() == np.sort(want, kind="stable").tobytes()


def test_sorted_sample_is_sorted_and_frozen():
    s = SortedSample.from_data([3.0, 1.0, 2.0])
    assert list(s.values) == [1.0, 2.0, 3.0]
    assert s.n == 3
    with pytest.raises(ValueError):
        s.values[0] = 99.0


def test_sorted_sample_equals_the_stable_sort():
    # bit for bit, also in the order of -0.0 and +0.0
    rng = np.random.default_rng(12)
    for n in (1, 2, 17, 300, 3000):
        ties = rng.integers(-3, 4, n).astype(float)
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        for data in (ties, zeros, np.where(rng.random(n) < 0.3, zeros, ties * 0.5)):
            assert (SortedSample.from_data(data).values.tobytes()
                    == np.sort(data, kind="stable").tobytes())


def test_pseudo_values_hand_case():
    pv = jackknife_pseudo_values(X4, 1)
    assert isinstance(pv, PseudoValues)
    expect = np.array([7.0 / 6.0, 7.0 / 6.0, 5.0 / 3.0, 8.0 / 3.0])
    np.testing.assert_allclose(pv.values, expect, rtol=1e-13)
    assert pv.ustat_estimate == pytest.approx(5.0 / 3.0, rel=1e-14)
    assert pv.r == 1 and pv.n == 4


def test_pseudo_value_mean_recovers_ustat():
    # the leave-one-out linearization of a U-statistic averages back to it
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(6, 50))
        r = int(rng.integers(1, 5))
        if n < r + 2:
            continue
        x = rng.exponential(2.0, n)
        pv = jackknife_pseudo_values(x, r)
        assert pv.values.mean() == pytest.approx(ustat_estimate(x, r), rel=1e-10)


def test_pseudo_values_match_direct_leave_one_out():
    # O(n) prefix/suffix route vs literally deleting each point
    rng = np.random.default_rng(5)
    x = np.sort(rng.gamma(2.0, 1.0, 18))
    for r in (1, 2, 3):
        pv = jackknife_pseudo_values(x, r)
        n = x.size
        full = ustat_estimate(x, r)
        direct = np.array(
            [n * full - (n - 1) * ustat_estimate(np.delete(x, k), r) for k in range(n)]
        )
        np.testing.assert_allclose(pv.values, direct, rtol=1e-9, atol=1e-12)


def test_pseudo_values_order_limits():
    with pytest.raises(PwmInputError):
        jackknife_pseudo_values(X4, 0)
    with pytest.raises(InsufficientSampleError):
        jackknife_pseudo_values([1.0, 2.0, 3.0], 2)


def test_big_n_weights_stay_finite():
    # n = 4000, r = 4 would overflow naive comb products
    rng = np.random.default_rng(12)
    x = rng.exponential(1.0, 4000)
    est = ustat_estimate(x, 4)
    assert np.isfinite(est)
    pv = jackknife_pseudo_values(x, 4)
    assert np.all(np.isfinite(pv.values))
    assert pv.values.mean() == pytest.approx(est, rel=1e-9)


@pytest.mark.parametrize("helper, args", [
    ("_dn_weights", (40, 2)),
    ("_vxl_weights", (40, 0)),
    ("_vxl_weights", (40, 3)),
    ("_ustat_weights", (40, 2)),
    ("_ustat_weights", (40, 2, 2)),
])
def test_cached_weights_are_shared_read_only_and_fresh(helper, args):
    fn = getattr(estimators, helper)
    w = fn(*args)
    assert fn(*args) is w  # served from the cache
    assert fn.cache_info().maxsize is not None  # bounded
    with pytest.raises(ValueError):
        w[0] = 1.0
    fn.cache_clear()
    fresh = fn(*args)
    assert fresh is not w and np.array_equal(fresh, w)


@pytest.mark.parametrize("n", [5, 30, 3000, 999_999])
def test_ustat_weights_match_exact_rationals(n):
    # C(i-lag, r) / C(n, r+1) exactly, zero weights included; at n = 999 999
    # every rank near either end and every 499th rank between
    ranks = (range(1, n + 1) if n <= 3000 else
             sorted({*range(1, 40), *range(1, n + 1, 499), *range(n - 40, n + 1)}))
    for r in (1, 2, 3, 10):
        if n < r + 1:  # no subset of size r+1: the weights are undefined
            continue
        denom = math.comb(n, r + 1)
        for lag in (1, 2):
            w = estimators._ustat_weights(n, r, lag)
            for i in ranks:
                exact = Fraction(math.comb(max(i - lag, 0), r), denom)
                if exact == 0:
                    assert w[i - 1] == 0.0, (n, r, lag, i)
                else:
                    assert abs(Fraction(w[i - 1]) / exact - 1) <= 1e-15, (n, r, lag, i)
