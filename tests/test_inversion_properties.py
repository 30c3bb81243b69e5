"""Property tests for the interval inversion.

Every interval kind (JEL, AJEL under the centered and the literal rule,
DNEL and VXL) is inverted by a safeguarded Newton search.  On random
samples, n in [5, 400], exponential, lognormal or normal data scaled by a
factor in [1e-3, 1e3], and levels in [0.5, 0.99], each endpoint must

* carry a ratio within 1e-6 of the chi-square threshold, recomputed with
  the public ratio functions;
* have the ratio below the threshold just inside it;
* match a plain bisection kept in this file to 1e-7 * beta_scale.

The centered AJEL interval must also contain the JEL interval; the mean
number of ratio evaluations per interval on 200 fixed samples must stay
within a bound for each kind; and on a few seeded samples every kind's
ratio must not decrease anywhere along the way from its minimum out to the
hull edge (past the pseudo-values for centered AJEL), the shape the
one-crossing endpoint search relies on.  The centered AJEL ratio must also
rise toward its closed-form limit far from the data, and never exceed it,
on each side of the estimate: the interval is the whole line exactly where
that limit is at most the threshold.

Equivariance: scaling the data by a in [1e-12, 1e12] scales every
interval kind's endpoints by a and keeps its test statistic at a scaled
hypothesis.  On one sample scaling by 2**k scales the endpoints and the
estimate exactly, for every fifth k from -990 to 490 and every k at the
ends of the float range (-1019 to -1015, 1016 to 1020), and on it and on a
sample that straddles 0 it keeps the test statistic at 0.  Shifting the
data by b moves beta_r by b/(r+1); JEL and centered-AJEL endpoints move
with it and their test statistics at correspondingly shifted hypotheses
do not change.  Literal AJEL, DNEL and VXL are not shift-equivariant (the
appended point and the summand weights do not shift by a constant), so
only their scaling is tested.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwmjel import (
    DistSpec,
    adjustment_constant,
    ajel_confidence_interval,
    ajel_neg2_ratio,
    chi2_1_quantile,
    confidence_interval,
    dnel_summands,
    jackknife_pseudo_values,
    jel_confidence_interval,
    jel_neg2_ratio,
    make_rng,
    neg2_log_ratio,
    plugin_el_ci,
    ratio_test,
    ratio_tests,
    sample,
    vxl_summands,
)

KINDS = ("JEL", "AJEL-centered", "AJEL-literal", "DNEL", "VXL")
# (method, rule) of each interval kind
METHOD_RULE = {"JEL": ("JEL", "centered"), "AJEL-centered": ("AJEL", "centered"),
               "AJEL-literal": ("AJEL", "literal"), "DNEL": ("DNEL", "centered"),
               "VXL": ("VXL", "centered")}
EQUIVARIANCE_TOL = 1e-6  # fraction of the interval length
RESIDUAL_TOL = 1e-6
MATCH_TOL = 1e-7
INSIDE = 1e-4  # fraction of the length by which "just inside" steps in

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None)


@st.composite
def cases(draw):
    n = draw(st.integers(5, 400))
    family = draw(st.sampled_from(("exponential", "lognormal", "normal")))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    r = draw(st.integers(1, 3))
    level = draw(st.floats(0.5, 0.99))
    x = scale * sample(DistSpec(family, 1.0), n, make_rng(seed))
    return x, r, level


def _setup(kind, x, r, level):
    """The interval and, independently of it, what the reference needs:
    the ratio as a function of beta, where it bottoms out, the point set
    whose hull bounds it (None where the ratio stays finite), and the
    tolerance scale ``max(1, |estimate|, max |points - estimate|)``."""
    pv = jackknife_pseudo_values(x, r)
    point = pv.ustat_estimate
    if kind == "JEL":
        ci = jel_confidence_interval(x, r, level)
        ratio, points, seed, hull = (lambda b: jel_neg2_ratio(x, r, b),
                                     pv.values, point, pv.values)
    elif kind == "AJEL-centered":
        ci = ajel_confidence_interval(x, r, level)
        ratio, points, seed, hull = (lambda b: ajel_neg2_ratio(x, r, b),
                                     pv.values, point, None)
    elif kind == "AJEL-literal":
        ci = ajel_confidence_interval(x, r, level, rule="literal")
        # the literal set does not move with beta: its mean is the minimum
        aug = np.append(pv.values, -(adjustment_constant(pv.n) / pv.n) * pv.values.sum())
        ratio, points, seed, hull = (lambda b: ajel_neg2_ratio(x, r, b, rule="literal"),
                                     aug, float(aug.mean()), aug)
    else:
        z = (dnel_summands if kind == "DNEL" else vxl_summands)(x, r).values
        ci = plugin_el_ci(x, r, level, method=kind)
        point = float(z.mean())
        ratio, points, seed, hull = (lambda b: neg2_log_ratio(z, b), z, point, z)
    beta_scale = max(1.0, abs(point), float(np.max(np.abs(points - point))))
    return ci, ratio, seed, hull, beta_scale


def _bisect(ratio, inside, outside, threshold, tol):
    """Plain bisection: ratio(inside) < threshold <= ratio(outside)."""
    while abs(outside - inside) > tol:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            break
        if ratio(mid) < threshold:
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


def _reference(ratio, seed, hull, threshold, direction, beta_scale):
    if hull is not None:
        # the ratio is infinite at and beyond the hull edge
        outside = float(hull.min() if direction < 0 else hull.max())
    else:
        reach = beta_scale
        for _ in range(200):
            outside = seed + direction * reach
            if ratio(outside) >= threshold:
                break
            reach *= 2.0
    return _bisect(ratio, seed, outside, threshold, 1e-10 * beta_scale)


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY_SETTINGS
@given(case=cases())
def test_endpoints_solve_the_threshold_and_match_bisection(kind, case):
    x, r, level = case
    threshold = chi2_1_quantile(level)
    ci, ratio, seed, hull, beta_scale = _setup(kind, x, r, level)
    if ci.length == math.inf:
        # only the centered rule may stay open: its ratio is finite
        # everywhere and plateaus below high thresholds at small n
        assert kind == "AJEL-centered"
        assert (ci.lower, ci.upper, ci.endpoint_iterations) == (-math.inf, math.inf, 0)
        far = 1e8 * max(1.0, float(np.ptp(jackknife_pseudo_values(x, r).values)))
        assert max(ratio(seed + d * far) for d in (-1.0, 1.0)) <= threshold
        return
    assert type(ci.lower) is float and type(ci.upper) is float
    assert ci.lower < seed < ci.upper
    for endpoint, direction in ((ci.lower, -1.0), (ci.upper, 1.0)):
        assert abs(ratio(endpoint) - threshold) <= RESIDUAL_TOL
        assert ratio(endpoint - direction * INSIDE * ci.length) < threshold
        ref = _reference(ratio, seed, hull, threshold, direction, beta_scale)
        assert abs(endpoint - ref) <= MATCH_TOL * beta_scale


@PROPERTY_SETTINGS
@given(case=cases())
def test_centered_ajel_contains_jel(case):
    x, r, level = case
    jel = jel_confidence_interval(x, r, level)
    ajel = ajel_confidence_interval(x, r, level)  # the whole line where it stays open
    pv = jackknife_pseudo_values(x, r)
    slack = MATCH_TOL * max(1.0, abs(jel.point_estimate),
                            float(np.max(np.abs(pv.values - jel.point_estimate))))
    assert ajel.lower <= jel.lower + slack
    assert ajel.upper >= jel.upper - slack


@pytest.mark.parametrize("kind", KINDS)
def test_newton_search_step_count(kind):
    # bisection took ~51 ratio evaluations per interval on this cell
    x = sample(DistSpec("exponential", 1.0), 300, make_rng(20240))
    assert _setup(kind, x, 1, 0.95)[0].endpoint_iterations <= 20


@pytest.mark.parametrize("kind", KINDS)
def test_skewed_start_stays_on_its_side_of_the_seed(kind):
    # one far outlier at level 0.999: the skew correction of the first step
    # exceeds the step itself, which must not put a search on the wrong side
    x = sample(DistSpec("exponential", 1.0), 60, make_rng(2))
    x[0] = 200.0
    ci, ratio, seed, _, _ = _setup(kind, x, 1, 0.999)
    threshold = chi2_1_quantile(0.999)
    assert ci.lower < seed < ci.upper
    for endpoint in (ci.lower, ci.upper):
        assert abs(ratio(endpoint) - threshold) <= RESIDUAL_TOL


# mean ratio evaluations per interval, which are all its EL solves (the seed
# takes none), allowed on the guard samples below; a plain Newton search
# took 6.2-7.1
_EVALUATIONS_PER_INTERVAL = {"JEL": 5.0, "AJEL-centered": 5.0, "AJEL-literal": 5.5,
                             "DNEL": 5.0, "VXL": 5.0}


def test_endpoint_evaluations_per_interval():
    # an exact, deterministic count: 200 seeded exponential samples, n = 300
    xs = [sample(DistSpec("exponential", 1.0), 300, make_rng(seed)) for seed in range(200)]
    for kind, most in _EVALUATIONS_PER_INTERVAL.items():
        mean = np.mean([_kind_interval(kind, x, 1, 0.95).endpoint_iterations for x in xs])
        assert mean <= most, kind


# t in (0, 1) along the way from where the ratio bottoms out to the far end
# of its search range, crowding toward the far end
_TOWARD_EDGE = np.sort(np.concatenate([np.linspace(0.0, 1.0, 33)[1:-1],
                                       1.0 - 2.0 ** -np.arange(6.0, 40.0, 3.0)]))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family, n, r, seed", [
    ("exponential", 30, 1, 1), ("lognormal", 80, 2, 2), ("normal", 200, 3, 3),
])
def test_ratio_is_monotone_on_each_side_of_its_minimum(kind, family, n, r, seed):
    # the endpoint search brackets one crossing per side, which needs this
    x = sample(DistSpec(family, 1.0), n, make_rng(seed))
    _, ratio, seed_beta, hull, _ = _setup(kind, x, r, 0.95)
    reach = 4.0 * float(np.ptp(jackknife_pseudo_values(x, r).values))
    for direction in (-1.0, 1.0):
        if hull is None:  # finite everywhere: go well past the pseudo-values
            edge = seed_beta + direction * reach
        else:  # infinite from the hull edge on
            edge = float(hull.min() if direction < 0 else hull.max())
        values = [ratio(seed_beta + t * (edge - seed_beta)) for t in _TOWARD_EDGE]
        assert values[0] < values[-1] and math.isfinite(values[-1])
        for nearer, farther in zip(values, values[1:]):
            assert farther >= nearer * (1.0 - 1e-12)


def _plateau(n, a):
    """The centered AJEL ratio's limit far from the data (Emerson and Owen 2009)."""
    return 2.0 * (n * math.log(n * (1.0 + a) / ((n + 1) * a)) + math.log((1.0 + a) / (n + 1)))


# distances from the estimate, in units of the pseudo-values' spread
_OUTWARD = np.geomspace(1e-3, 1e8, 40).tolist()


@pytest.mark.parametrize("a_n", [None, 3.0])
@pytest.mark.parametrize("n", [3, 5, 8, 20, 50])
def test_centered_ratio_rises_toward_its_plateau_on_each_side(n, a_n):
    # each sample is shifted to estimate 0 (beta_1 moves by half the shift)
    # and scaled to pseudo-value spread 1, so one grid serves the block
    xs = []
    for k, family in enumerate(("exponential", "lognormal", "normal")):
        for j in range(4):
            x = sample(DistSpec(family, 1.0), n, make_rng([7, n, k, j]))
            pv = jackknife_pseudo_values(x, 1)
            xs.append((x - 2.0 * pv.ustat_estimate) / np.ptp(pv.values))
    plateau = _plateau(n, adjustment_constant(n) if a_n is None else a_n)
    for side in (-1.0, 1.0):
        nearer = [0.0] * len(xs)
        for t in _OUTWARD:
            farther = [test.statistic for (test,) in ratio_tests(
                xs, 1, side * t, 0.5, ("AJEL",), "centered", a_n)]
            for a, b in zip(nearer, farther):
                assert a * (1.0 - 1e-12) <= b <= plateau * (1.0 + 1e-12)
            nearer = farther
        assert max(abs(b - plateau) for b in nearer) < 1e-9


@st.composite
def affine_cases(draw):
    # n >= 30 keeps the centered adjusted ratio above the 0.99 threshold
    # far from the estimate, so every interval closes
    n = draw(st.integers(30, 400))
    family = draw(st.sampled_from(("exponential", "lognormal", "normal")))
    x = sample(DistSpec(family, 1.0), n, make_rng(draw(st.integers(0, 2**32 - 1))))
    return (x, draw(st.integers(1, 3)), draw(st.floats(0.5, 0.99)),
            10.0 ** draw(st.floats(-12.0, 12.0)), draw(st.floats(-10.0, 10.0)),
            draw(st.floats(-0.9, 0.9)))


def _kind_interval(kind, x, r, level):
    method, rule = METHOD_RULE[kind]
    return confidence_interval(x, r, level, method, rule)


def _inside(ci, u):
    """A hypothesis inside the interval, where every statistic is finite."""
    side = ci.upper if u > 0 else ci.lower
    return ci.point_estimate + abs(u) * (side - ci.point_estimate)


# every fifth k in [-990, 490], about 1e-298 to 1e147, and the two ends of
# the float range for the sample below, about 1e-307 and 1e307
_POWERS = [*range(-1019, -1014), *range(-990, 491, 5), *range(1016, 1021)]


@pytest.mark.parametrize("kind", KINDS)
def test_endpoints_scale_with_the_data_over_the_float_range(kind):
    # data times 2**k: the endpoints and the estimate are exactly 2**k times
    # the unscaled ones; a RuntimeWarning from an over- or underflow fails
    # the test
    method, rule = METHOD_RULE[kind]
    x = sample(DistSpec("exponential", 1.0), 30, make_rng(30))
    # normal data straddle 0, so the test of beta = 0 is finite for every kind
    y = sample(DistSpec("normal", 1.0), 50, make_rng(3))
    ci = _kind_interval(kind, x, 1, 0.95)
    at_zero = [ratio_test(data, 1, 0.0, 0.05, method, rule).statistic for data in (x, y)]
    for k in _POWERS:
        scaled = _kind_interval(kind, np.ldexp(x, k), 1, 0.95)
        assert [scaled.lower, scaled.upper, scaled.point_estimate] == [
            math.ldexp(v, k) for v in (ci.lower, ci.upper, ci.point_estimate)], k
        assert scaled.endpoint_iterations == ci.endpoint_iterations, k
        # 0 is 0 at every scale, so its statistic is exactly the unscaled one
        assert [ratio_test(np.ldexp(data, k), 1, 0.0, 0.05, method, rule).statistic
                for data in (x, y)] == at_zero, k


# the two ends of the scale range, on every run
_EXP40 = sample(DistSpec("exponential", 1.0), 40, make_rng(11))


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY_SETTINGS
@given(case=affine_cases())
@example(case=(_EXP40, 1, 0.95, 1e-12, 0.0, 0.5))
@example(case=(_EXP40, 2, 0.9, 1e12, 0.0, -0.5))
def test_endpoints_scale_with_the_data(kind, case):
    x, r, level, a, _, u = case
    method, rule = METHOD_RULE[kind]
    ci = _kind_interval(kind, x, r, level)
    scaled = _kind_interval(kind, a * x, r, level)
    tol = EQUIVARIANCE_TOL * scaled.length
    assert abs(scaled.lower - a * ci.lower) <= tol
    assert abs(scaled.upper - a * ci.upper) <= tol
    beta0 = _inside(ci, u)
    stat = ratio_test(x, r, beta0, 0.05, method, rule).statistic
    moved = ratio_test(a * x, r, a * beta0, 0.05, method, rule).statistic
    assert moved == pytest.approx(stat, abs=RESIDUAL_TOL)


@pytest.mark.parametrize("kind", ("JEL", "AJEL-centered"))
@PROPERTY_SETTINGS
@given(case=affine_cases())
def test_shift_moves_endpoints_and_keeps_statistics(kind, case):
    x, r, level, _, b, u = case
    method, rule = METHOD_RULE[kind]
    ci = _kind_interval(kind, x, r, level)
    shifted = _kind_interval(kind, x + b, r, level)
    move = b / (r + 1)
    tol = EQUIVARIANCE_TOL * ci.length
    assert abs(shifted.lower - (ci.lower + move)) <= tol
    assert abs(shifted.upper - (ci.upper + move)) <= tol
    beta0 = _inside(ci, u)
    stat = ratio_test(x, r, beta0, 0.05, method, rule).statistic
    moved = ratio_test(x + b, r, beta0 + move, 0.05, method, rule).statistic
    assert moved == pytest.approx(stat, abs=RESIDUAL_TOL)
