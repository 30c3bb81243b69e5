import numpy as np
import pytest

from pwmjel import (
    DegenerateSampleError,
    DistSpec,
    PwmInputError,
    SummandVector,
    dn_estimate,
    dnel_summands,
    make_rng,
    plugin_el_ci,
    ratio_test,
    sample,
    vexler_estimate,
    vxl_summands,
)

X4 = [1.0, 2.0, 3.0, 4.0]


def test_summand_means_reproduce_estimators():
    rng = make_rng(61)
    for _ in range(20):
        x = sample(DistSpec("lognormal", 1.0), int(rng.integers(5, 60)), rng)
        for r in (0, 1, 2, 3):
            dn = dnel_summands(x, r)
            vx = vxl_summands(x, r)
            assert isinstance(dn, SummandVector) and dn.method == "DNEL"
            assert vx.method == "VXL"
            assert dn.estimate == pytest.approx(dn_estimate(x, r), rel=1e-12)
            assert vx.estimate == pytest.approx(vexler_estimate(x, r), rel=1e-12)
            assert dn.values.size == vx.values.size == x.size


def test_r_zero_summands_are_the_data():
    # both constructions collapse to the raw (sorted) sample at r = 0
    x = np.array([4.0, 1.0, 3.0])
    np.testing.assert_allclose(dnel_summands(x, 0).values, [1.0, 3.0, 4.0])
    np.testing.assert_allclose(vxl_summands(x, 0).values, [1.0, 3.0, 4.0])


def test_dnel_hand_values():
    # (i/n)^r x_(i) on 1..4, r=1: [1/4, 2/4*2, 3/4*3, 4/4*4]
    np.testing.assert_allclose(
        dnel_summands(X4, 1).values, [0.25, 1.0, 2.25, 4.0], rtol=1e-15
    )


def test_vxl_hand_values():
    # n/(r+1) * x_(i) * ((i/n)^{r+1} - ((i-1)/n)^{r+1}), r=1, n=4
    want = np.array([1 / 8, 2 * 3 / 8, 3 * 5 / 8, 4 * 7 / 8])
    np.testing.assert_allclose(vxl_summands(X4, 1).values, want, rtol=1e-14)


def test_plugin_ci_and_test_roundtrip():
    rng = make_rng(62)
    x = sample(DistSpec("exponential", 1.0), 90, rng)
    for method in ("DNEL", "VXL"):
        ci = plugin_el_ci(x, 1, 0.95, method)
        assert ci.method == method
        assert ci.lower < ci.point_estimate < ci.upper
        t_in = ratio_test(x, 1, ci.point_estimate, 0.05, method)
        assert not t_in.reject
        t_out = ratio_test(x, 1, ci.upper + ci.length, 0.05, method)
        assert t_out.reject
        assert t_out.method == method


def test_unknown_method_rejected():
    with pytest.raises(PwmInputError):
        plugin_el_ci(X4, 1, 0.95, "JEL")  # jackknife route lives elsewhere
    with pytest.raises(PwmInputError):
        ratio_test(X4, 1, 2.0, 0.05, "nope")


def test_constant_sample():
    # rank weights keep the summands spread out for r >= 1, so the plug-in
    # interval exists even on constant data (part of why these baselines
    # over-cover); only r = 0 collapses to identical summands
    ci = plugin_el_ci([2.0] * 10, 1, 0.95, "DNEL")
    assert ci.lower < ci.upper
    with pytest.raises(DegenerateSampleError):
        plugin_el_ci([2.0] * 10, 0, 0.95, "DNEL")
    with pytest.raises(DegenerateSampleError):
        ratio_test([2.0] * 10, 0, 0.5, 0.05, "VXL")
