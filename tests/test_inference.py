import math

import numpy as np
import pytest

from pwmjel import (
    CI_METHODS,
    ConfidenceInterval,
    ConvergenceError,
    DegenerateSampleError,
    DistSpec,
    PwmError,
    PwmInputError,
    adjustment_constant,
    ajel_confidence_interval,
    ajel_neg2_ratio,
    ajel_test,
    chi2_1_cdf,
    chi2_1_quantile,
    confidence_interval,
    jackknife_pseudo_values,
    jel_confidence_interval,
    jel_neg2_ratio,
    jel_test,
    make_rng,
    plugin_el_ci,
    ratio_test,
    sample,
    ustat_estimate,
)
from pwmjel.inference import _centered_ratio_and_slope, confidence_intervals, ratio_tests

X4 = [1.0, 2.0, 3.0, 4.0]
Q95 = 3.841458820694124


def test_jel_ratio_frozen_golden():
    # frozen from an independent bisection-only solve on the pseudo-values
    assert jel_neg2_ratio(X4, 1, 2.0) == pytest.approx(1.002739890204274, rel=1e-12)


def test_jel_ratio_zero_at_point_estimate():
    got = jel_neg2_ratio(X4, 1, ustat_estimate(X4, 1))
    assert got == 0.0
    assert math.copysign(1.0, got) == 1.0


def test_jel_ratio_accepts_precomputed_pseudo_values():
    pv = jackknife_pseudo_values(X4, 1)
    assert jel_neg2_ratio(pv, 1, 2.0) == jel_neg2_ratio(X4, 1, 2.0)
    with pytest.raises(PwmInputError):
        jel_neg2_ratio(pv, 2, 2.0)  # built for r = 1


def test_adjustment_constant():
    assert adjustment_constant(2) == 1.0
    assert adjustment_constant(5) == 1.0  # ln(2.5) < 1 floors at 1
    assert adjustment_constant(20) == pytest.approx(math.log(10.0), rel=1e-14)
    assert adjustment_constant(300) == pytest.approx(math.log(150.0), rel=1e-14)
    with pytest.raises(PwmInputError):
        adjustment_constant(1)


def test_ajel_finite_outside_hull():
    # the augmented point restores feasibility for any hypothesized value
    pv = jackknife_pseudo_values(X4, 1)
    lo, hi = pv.values.min(), pv.values.max()
    assert jel_neg2_ratio(X4, 1, hi + 5.0) == math.inf
    assert np.isfinite(ajel_neg2_ratio(X4, 1, hi + 5.0))
    assert np.isfinite(ajel_neg2_ratio(X4, 1, lo - 5.0))


def test_ajel_dominated_by_jel():
    rng = make_rng(44)
    x = sample(DistSpec("exponential", 1.0), 40, rng)
    pv = jackknife_pseudo_values(x, 1)
    grid = np.linspace(pv.values.min() + 1e-6, pv.values.max() - 1e-6, 60)
    for b in grid:
        jel = jel_neg2_ratio(x, 1, b)
        aj = ajel_neg2_ratio(x, 1, b)
        assert aj <= jel + 1e-9


def test_centered_slope_is_the_envelope_derivative():
    x = sample(DistSpec("exponential", 1.0), 50, make_rng(45))
    pv = jackknife_pseudo_values(x, 1)
    lo, hi = pv.values.min(), pv.values.max()
    # inside and beyond the pseudo-value hull, with the default and a set a_n
    for b, a_n in ((0.6, None), (0.9, None), (lo - 0.5, None), (hi + 2.0, 3.0)):
        a = adjustment_constant(pv.n) if a_n is None else a_n
        ratio, slope, _ = _centered_ratio_and_slope(pv.values, b, a)
        h = 1e-6
        fd = (ajel_neg2_ratio(pv, 1, b + h, a_n=a_n)
              - ajel_neg2_ratio(pv, 1, b - h, a_n=a_n)) / (2.0 * h)
        assert ratio == pytest.approx(ajel_neg2_ratio(pv, 1, b, a_n=a_n), rel=1e-12)
        assert slope == pytest.approx(fd, rel=1e-5)


def test_ajel_rules_differ_away_from_estimate():
    b0 = 0.9
    cen = ajel_neg2_ratio(X4, 1, b0, rule="centered")
    lit = ajel_neg2_ratio(X4, 1, b0, rule="literal")
    assert cen != pytest.approx(lit, rel=1e-6)
    with pytest.raises(PwmInputError):
        ajel_neg2_ratio(X4, 1, b0, rule="midway")


def test_ajel_an_override():
    # larger a_n flattens the ratio further
    b0 = 2.6
    small = ajel_neg2_ratio(X4, 1, b0, a_n=0.5)
    big = ajel_neg2_ratio(X4, 1, b0, a_n=5.0)
    assert big < small


def test_jel_ci_basic_contract():
    rng = make_rng(17)
    x = sample(DistSpec("exponential", 1.0), 120, rng)
    ci = jel_confidence_interval(x, 1, 0.95)
    assert isinstance(ci, ConfidenceInterval)
    assert ci.lower < ci.point_estimate < ci.upper
    assert ci.point_estimate == pytest.approx(ustat_estimate(x, 1), rel=1e-12)
    assert ci.length == pytest.approx(ci.upper - ci.lower, rel=1e-12)
    assert ci.contains(ci.point_estimate)
    assert not ci.contains(ci.upper + 0.01)
    # endpoints sit on the threshold
    for b in (ci.lower, ci.upper):
        assert jel_neg2_ratio(x, 1, b) == pytest.approx(Q95, abs=1e-6)
    # endpoints stay inside the pseudo-value hull
    pv = jackknife_pseudo_values(x, 1)
    assert pv.values.min() < ci.lower and ci.upper < pv.values.max()


def test_jel_ci_level_ordering():
    rng = make_rng(18)
    x = sample(DistSpec("normal", 2.0), 80, rng)
    narrow = jel_confidence_interval(x, 1, 0.80)
    wide = jel_confidence_interval(x, 1, 0.99)
    assert wide.lower < narrow.lower < narrow.upper < wide.upper


def test_level_validation():
    with pytest.raises(PwmInputError):
        jel_confidence_interval(X4, 1, 1.0)
    with pytest.raises(PwmInputError):
        jel_confidence_interval(X4, 1, 0.0)
    with pytest.raises(PwmInputError):
        ajel_confidence_interval(X4, 1, -0.5)


def test_ajel_ci_contains_jel_ci():
    rng = make_rng(19)
    for dist in (DistSpec("exponential", 1.0), DistSpec("lognormal", 1.0)):
        x = sample(dist, 60, rng)
        jel = jel_confidence_interval(x, 1, 0.90)
        aj = ajel_confidence_interval(x, 1, 0.90)
        assert aj.lower <= jel.lower + 1e-9
        assert aj.upper >= jel.upper - 1e-9
        for b in (aj.lower, aj.upper):
            assert ajel_neg2_ratio(x, 1, b) == pytest.approx(
                chi2_1_quantile(0.90), abs=1e-6
            )


def test_ajel_ci_tiny_n_cannot_close_at_95():
    # with four pseudo-values the adjusted ratio plateaus below the 95%
    # threshold, so no finite endpoint exists; the solver must say so
    with pytest.raises(ConvergenceError):
        ajel_confidence_interval(X4, 1, 0.95)
    # a looser level closes fine on the same sample
    ci = ajel_confidence_interval(X4, 1, 0.50)
    assert ci.lower < ci.upper


def test_degenerate_sample_errors():
    const = [3.0] * 12
    with pytest.raises(DegenerateSampleError):
        jel_confidence_interval(const, 1, 0.95)
    with pytest.raises(DegenerateSampleError):
        ajel_test(const, 1, 0.75)


def test_option_errors_come_before_the_data_checks():
    # level, alpha, rule, method and a_n are checked before any point set is
    # built, so a bad option on degenerate data is an input error
    const = [3.0] * 12
    with pytest.raises(PwmInputError):
        jel_confidence_interval(const, 1, 1.5)
    with pytest.raises(PwmInputError):
        jel_test(const, 1, 0.5, alpha=2.0)
    with pytest.raises(PwmInputError):
        ajel_confidence_interval(const, 1, 0.95, rule="nope")
    with pytest.raises(PwmInputError):
        plugin_el_ci([2.0] * 10, 0, 2.0, "DNEL")


def test_jel_test_fields_and_duality():
    rng = make_rng(23)
    x = sample(DistSpec("exponential", 1.0), 150, rng)
    ci = jel_confidence_interval(x, 1, 0.95)
    inside = 0.5 * (ci.lower + ci.upper)
    outside = ci.upper + 0.3 * ci.length
    t_in = jel_test(x, 1, inside, alpha=0.05)
    t_out = jel_test(x, 1, outside, alpha=0.05)
    assert not t_in.reject and t_out.reject
    assert t_in.threshold == pytest.approx(Q95, rel=1e-12)
    assert t_in.statistic == pytest.approx(jel_neg2_ratio(x, 1, inside), rel=1e-12)
    assert t_in.p_value == pytest.approx(1.0 - chi2_1_cdf(t_in.statistic), rel=1e-10)
    assert t_in.null_value == inside and t_in.alpha == 0.05
    assert t_in.method == "JEL"
    # outside the hull the statistic is inf and the p-value collapses to 0
    far = jel_test(x, 1, 99.0)
    assert far.statistic == math.inf and far.p_value == 0.0 and far.reject


def test_ajel_test_matches_ratio():
    rng = make_rng(24)
    x = sample(DistSpec("normal", 1.0), 70, rng)
    t = ajel_test(x, 1, 0.30, alpha=0.10)
    assert t.method == "AJEL"
    assert t.statistic == pytest.approx(ajel_neg2_ratio(x, 1, 0.30), rel=1e-12)
    assert t.threshold == pytest.approx(chi2_1_quantile(0.90), rel=1e-12)
    assert t.reject == (t.statistic > t.threshold)


def test_alpha_validation():
    with pytest.raises(PwmInputError):
        jel_test(X4, 1, 2.0, alpha=0.0)
    with pytest.raises(PwmInputError):
        ajel_test(X4, 1, 2.0, alpha=1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # subnormal data overflow numpy
@pytest.mark.parametrize("n", [4, 25])
@pytest.mark.parametrize("rule, a_n", [("centered", None), ("literal", None), ("centered", 3.0)])
def test_batched_calls_equal_one_sample_calls(n, rule, a_n):
    samples = [sample(DistSpec("lognormal", 1.0), n, make_rng(60 + k)) for k in range(8)]
    samples[2] = np.full(n, 3.0)  # constant pseudo-values
    # subnormal data: both endpoint searches fail, and the lower one's error
    # is the one a single call raises
    samples[5] = samples[5] * 1e-310
    intervals = confidence_intervals(samples, 1, 0.9, CI_METHODS, rule, a_n)
    tests = ratio_tests(samples, 1, 1.0, 0.1, CI_METHODS, rule, a_n)
    failures = set()
    for x, ci_row, test_row in zip(samples, intervals, tests):
        for method, ci, res in zip(CI_METHODS, ci_row, test_row):
            for got, call in ((ci, lambda: confidence_interval(x, 1, 0.9, method, rule, a_n)),
                              (res, lambda: ratio_test(x, 1, 1.0, 0.1, method, rule, a_n))):
                try:
                    want = call()
                except PwmError as exc:
                    assert (type(got), str(got)) == (type(exc), str(exc))
                    failures.add(type(exc))
                else:
                    assert got == want
    assert failures == {DegenerateSampleError, ConvergenceError}
    with pytest.raises(PwmInputError):
        confidence_intervals([X4, X4 + [5.0]], 1, 0.9, CI_METHODS)
