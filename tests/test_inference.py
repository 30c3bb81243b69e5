import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pwmjel
from pwmjel import (
    CI_METHODS,
    ConfidenceInterval,
    ConvergenceError,
    DegenerateSampleError,
    DistSpec,
    PwmError,
    PseudoValues,
    PwmInputError,
    SortedSample,
    TestResult,
    adjustment_constant,
    ajel_confidence_interval,
    ajel_neg2_ratio,
    chi2_1_cdf,
    chi2_1_quantile,
    confidence_interval,
    dnel_summands,
    jackknife_pseudo_values,
    jel_confidence_interval,
    jel_neg2_ratio,
    jel_test,
    make_rng,
    plugin_el_ci,
    ratio_test,
    sample,
    ustat_estimate,
    vxl_summands,
)
from pwmjel import el, inference
from pwmjel.inference import (
    ADJUSTMENT_RULES,
    _method_problems,
    _RowSet,
    _StackedRatio,
    confidence_intervals,
    ratio_tests,
)

X4 = [1.0, 2.0, 3.0, 4.0]
Q95 = 3.841458820694124
NOT_REAL = "sample must be an array of real numbers"


def _problem(x, method, rule="centered", a_n=None) -> _RowSet:
    """The r = 1 rows of ``method`` on the sample ``x``: one row."""
    (rows,) = _method_problems([x], 1, (method,), rule, a_n)
    return rows


def _rows(values, estimate, seed, method) -> _RowSet:
    """The rows ``values`` of one sample each, with their estimates and seeds,
    given in the data's coordinates, in their frames."""
    k = len(values)
    data = _RowSet([None] * k, list(range(k)), None, np.zeros(k, dtype=np.int32))
    return inference._framed(data, np.array(values, dtype=float), np.array(estimate),
                             np.array(seed), method)


def _unscaled(rows: _RowSet, name: str) -> np.ndarray:
    """The field ``name`` of ``rows``, one value or row per sample, in the
    data's coordinates."""
    field = getattr(rows, name)
    return np.ldexp(field, rows.exponent if field.ndim == 1 else rows.exponent[:, None])


def test_jel_ratio_frozen_golden():
    # frozen from an independent bisection-only solve on the pseudo-values
    assert jel_neg2_ratio(X4, 1, 2.0) == pytest.approx(1.002739890204274, rel=1e-12)


def test_jel_ratio_zero_at_point_estimate():
    got = jel_neg2_ratio(X4, 1, ustat_estimate(X4, 1))
    assert got == 0.0
    assert math.copysign(1.0, got) == 1.0


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
    # inside and beyond the pseudo-value hull, with the default and a set
    # a_n, one stack each, as one call stacks its centered rows
    cases = (0.6, 0.9, lo - 0.5, hi + 2.0)
    for a_n in (None, 3.0):
        ratio = _StackedRatio([_problem(x, "AJEL", "centered", a_n)] * len(cases))
        # the stack runs in its rows' coordinates, beta * 2**-exponent
        beta = ratio.scaled(np.array(cases))
        stacked = ratio(np.arange(len(cases)), beta, np.zeros(len(cases)))
        assert stacked[-1] == {}
        h = 1e-6
        for j, b in enumerate(cases):
            # a row alone is solved by solve_lambda, the stack by the vectorised loop
            (value,), (slope,), (lam,), (dlam,), (curvature,), errors = ratio([j], [beta[j]],
                                                                              [0.0])
            assert (value, slope, lam, dlam, curvature) == tuple(c[j] for c in stacked[:5])
            assert errors == {}
            fd = (ajel_neg2_ratio(x, 1, b + h, a_n=a_n)
                  - ajel_neg2_ratio(x, 1, b - h, a_n=a_n)) / (2.0 * h)
            assert value == ajel_neg2_ratio(x, 1, b, a_n=a_n)
            # the slope scales as beta's inverse, as the stack maps beta in
            assert ratio.scaled(slope)[j] == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("method, rule, a_n", [
    ("JEL", "centered", None), ("AJEL", "centered", None), ("AJEL", "centered", 3.0),
    ("AJEL", "literal", None), ("DNEL", "centered", None),
])
def test_multiplier_derivative_and_curvature_match_finite_differences(method, rule, a_n):
    x = sample(DistSpec("exponential", 1.0), 50, make_rng(46))
    problem = _problem(x, method, rule, a_n)
    # in the stack's coordinates, where the points are at most 1 in magnitude
    points = _StackedRatio([problem]).points[0]
    beta = [float(points.mean())] + list(np.quantile(points, [0.1, 0.3, 0.6, 0.9]))
    if problem.adjust is not None:  # the centered ratio is finite beyond the points too
        span = float(np.ptp(points))
        beta += [points.min() - 0.5 * span, points.max() + 2.0 * span]
    k = len(beta)
    ratio = _StackedRatio([problem] * k)
    rows = np.arange(k)
    _, _, _, dlams, curvatures, errors = ratio(rows, beta, np.zeros(k))
    assert errors == {}
    h = 1e-6 * float(np.ptp(points))
    plus = ratio(rows, [b + h for b in beta], np.zeros(k))
    minus = ratio(rows, [b - h for b in beta], np.zeros(k))
    for j in rows:
        fd_lam = (plus[2][j] - minus[2][j]) / (2.0 * h)
        fd_slope = (plus[1][j] - minus[1][j]) / (2.0 * h)
        assert dlams[j] == pytest.approx(fd_lam, rel=1e-5)
        assert curvatures[j] == pytest.approx(fd_slope, rel=1e-5)
    assert curvatures[0] > 0.0  # the ratio's minimum is at the seed


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.fixture
def solves(monkeypatch):
    """The rows of every el.solve_rows call."""
    calls = []
    original = el.solve_rows

    def counting(*args, **kwargs):
        sol = original(*args, **kwargs)
        calls.append(len(sol.lam))
        return sol

    monkeypatch.setattr(el, "solve_rows", counting)
    return calls


_SEED_KINDS = [("JEL", "centered", None), ("AJEL", "centered", None),
               ("AJEL", "centered", 3.0), ("AJEL", "literal", None),
               ("AJEL", "literal", 3.0), ("DNEL", "centered", None), ("VXL", "centered", None)]


def _check_seeds(problems, solves):
    """``at_seeds`` on a stack of ``problems`` takes no solve, and a solve of
    every row at its seed from ``lam0 = 0`` stops there: ratio and
    multiplier 0, and bit for bit the closed form's multiplier derivative."""
    ratio = _StackedRatio(problems)
    k = len(ratio.points)
    seeds = ratio.seed
    solves.clear()
    dlam = ratio.at_seeds()
    assert solves == []
    at_seed, _, lam, solved_dlam, _, errors = ratio(list(range(k)), seeds, [0.0] * k)
    assert errors == {}
    assert _bits(at_seed) == _bits(lam) == _bits(np.zeros(k))
    assert _bits(dlam) == _bits(solved_dlam)


@pytest.mark.parametrize("family", ["exponential", "lognormal", "normal"])
@pytest.mark.parametrize("n", [30, 300])
def test_closed_form_seed_is_bit_equal_to_the_seed_solve(family, n, solves):
    xs = [sample(DistSpec(family, 1.0), n, make_rng(seed)) for seed in range(8)]
    for method, rule, a_n in _SEED_KINDS:
        problems = [_problem(x, method, rule, a_n) for x in xs]
        # the vectorised kernel, and solve_lambda row by row
        _check_seeds(problems, solves)
        _check_seeds(problems[:1], solves)


def test_the_build_keeps_only_rows_whose_seed_is_strictly_inside_its_points():
    points = [[0.1, 0.4, 1.3]] * 4
    seed = [0.6, 0.6, 1.3, 0.1]
    flat = np.array([False, True, True, False])
    rows = inference._seeded(_rows(points, [0.6] * 4, seed, "JEL"), "points",
                             (flat, lambda: DegenerateSampleError("flat")))
    assert rows.rows == [0] and rows.method == "JEL"
    # in the frame, [0.1, 0.4, 1.3] / 2, and back
    assert rows.values.tolist() == [[0.05, 0.2, 0.65]] and not rows.values.flags.writeable
    assert _unscaled(rows, "values").tolist() == [[0.1, 0.4, 1.3]]
    assert [_unscaled(rows, name).tolist() for name in ("estimate", "seed")] == [[0.6], [0.6]]
    assert (rows.lo.tolist(), rows.hi.tolist()) == ([0.05], [0.65])
    # each dropped row gets the first check it fails, in the order taken
    assert [(type(e), str(e)) for e in rows.status[1:]] == [
        (DegenerateSampleError, "flat")] * 2 + [
        (DegenerateSampleError, "the mean of the points is not strictly inside their range; "
                                "the likelihood ratio carries no information")]


@pytest.mark.parametrize("k", [1017, 1020])
def test_overflowing_sums_leave_every_interval_exact(k):
    # from 2**1017 the summands' plain sum overflows, and n * beta, which
    # the pseudo-values take, would too; every method builds its points in the
    # rows' power-of-two frames, so each interval and test is that of the
    # unscaled data, scaled; no warning escapes
    x = sample(DistSpec("exponential", 1.0), 300, make_rng(7))
    big = np.ldexp(x, k)
    with np.errstate(over="ignore"):
        assert np.add.reduce(dnel_summands(big, 1).values) == math.inf
        assert 300 * ustat_estimate(big, 1) == math.inf
    for rule in ADJUSTMENT_RULES:
        (intervals,) = confidence_intervals([big], 1, 0.95, CI_METHODS, rule)
        (tests,) = ratio_tests([big], 1, np.ldexp(0.8, k), 0.05, CI_METHODS, rule)
        for ci, test, method in zip(intervals, tests, CI_METHODS):
            want = confidence_interval(x, 1, 0.95, method, rule)
            assert [ci.lower, ci.upper, ci.point_estimate] == [
                np.ldexp(v, k) for v in (want.lower, want.upper, want.point_estimate)]
            assert ci.endpoint_iterations == want.endpoint_iterations
            assert test.statistic == ratio_test(x, 1, 0.8, 0.05, method, rule).statistic


@pytest.mark.parametrize("method, rule, a_n", _SEED_KINDS)
def test_el_rows_solved_per_interval_are_its_ratio_evaluations(method, rule, a_n, solves,
                                                               monkeypatch):
    xs = [sample(DistSpec("exponential", 1.0), 60, make_rng(seed)) for seed in range(6)]
    # the offset sample, whose JEL and centered AJEL searches stall; its seed
    # takes no solve either
    xs.append(5.0 + 1e-9 * xs[0])
    rounds = []  # the searches running in each lockstep round, one evaluation each
    advance = inference._Searches.advance

    def counting(self):
        rounds.append(self.key.size)
        advance(self)

    monkeypatch.setattr(inference._Searches, "advance", counting)

    def intervals(block):
        solves.clear()
        rounds.clear()
        cis = [ci for (ci,) in confidence_intervals(block, 1, 0.95, [method], rule, a_n)]
        assert sum(solves) == sum(rounds)
        return cis

    for x in xs:
        (ci,) = intervals([x])
        if not isinstance(ci, PwmError):
            assert sum(solves) == ci.endpoint_iterations
    cis = intervals(xs[:-1])
    assert sum(solves) == sum(ci.endpoint_iterations for ci in cis)
    intervals(xs)


def test_far_hypotheses_reach_the_centered_plateau():
    # far from the data every pseudo-value rounds away against beta, so the
    # centered statistic stays on its plateau at any distance and data scale,
    # subnormal data included; plain EL is infinite there
    x = sample(DistSpec("exponential", 1.0), 40, make_rng(3))
    plateau = ajel_neg2_ratio(x, 1, 2.0 ** 61)
    for beta in (2.0 ** 70, 1e300, -1e300):
        assert ajel_neg2_ratio(x, 1, beta) == plateau
        assert jel_neg2_ratio(x, 1, beta) == math.inf
    assert ajel_neg2_ratio(np.ldexp(x, -1060), 1, 1.0) == plateau


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


def test_ajel_ci_tiny_n_is_the_whole_line_at_95():
    # with four pseudo-values the adjusted ratio plateaus below the 95%
    # threshold, so the test rejects no beta and the interval is the line
    ci = ajel_confidence_interval(X4, 1, 0.95)
    assert (ci.lower, ci.upper, ci.endpoint_iterations) == (-math.inf, math.inf, 0)
    assert ci.point_estimate == ustat_estimate(X4, 1)
    # a looser level closes fine on the same sample
    ci = ajel_confidence_interval(X4, 1, 0.50)
    assert -math.inf < ci.lower < ci.upper < math.inf


def _plateau(n, a_n=None) -> float:
    """L(n, a): the centered ratio's limit far from the data, in closed form."""
    a = adjustment_constant(n) if a_n is None else a_n
    return 2.0 * (n * math.log(n * (1.0 + a) / ((n + 1) * a)) + math.log((1.0 + a) / (n + 1)))


@pytest.mark.parametrize("a_n", [None, 3.0])
def test_the_centered_ratio_tends_to_its_plateau_far_from_the_data(a_n):
    for n in range(3, 51):
        xs = [sample(DistSpec(family, 1.0), n, make_rng([n, k]))
              for k, family in enumerate(("exponential", "lognormal", "normal"))]
        plateau = _StackedRatio([_problem(xs[0], "AJEL", "centered", a_n)]).plateau()
        assert plateau == _plateau(n, a_n)
        for beta0 in (-1e6, 1e6):
            for (test,) in ratio_tests(xs, 1, beta0, 0.05, ("AJEL",), "centered", a_n):
                assert test.statistic == pytest.approx(plateau, abs=1e-9)


def test_centered_ajel_is_the_whole_line_up_to_n_7_at_95():
    # L(7, a_7) = 3.81 and L(8, a_8) = 4.15 around the threshold 3.84
    assert _plateau(7) < Q95 < _plateau(8)
    x = sample(DistSpec("exponential", 1.0), 8, make_rng(8))
    ci = ajel_confidence_interval(x[:7], 1, 0.95)
    assert (ci.lower, ci.upper, ci.endpoint_iterations) == (-math.inf, math.inf, 0)
    assert ci.contains(1e300) and ci.contains(-1e300) and ci.length == math.inf
    assert not ratio_test(x[:7], 1, 1e300, 0.05, "AJEL").reject
    ci = ajel_confidence_interval(x, 1, 0.95)
    assert -math.inf < ci.lower < ci.point_estimate < ci.upper < math.inf
    for b in (ci.lower, ci.upper):
        assert ajel_neg2_ratio(x, 1, b) == pytest.approx(Q95, abs=1e-6)


def test_centered_ajel_closes_just_below_its_plateau():
    # a threshold 1e-3 under L(8, a_8): the crossing is far out, but finite
    threshold = _plateau(8) - 1e-3
    level = chi2_1_cdf(threshold)
    assert chi2_1_quantile(level) < _plateau(8)
    x = sample(DistSpec("exponential", 1.0), 8, make_rng(8))
    ci = ajel_confidence_interval(x, 1, level)
    assert -math.inf < ci.lower < ci.point_estimate < ci.upper < math.inf
    for b in (ci.lower, ci.upper):
        assert ajel_neg2_ratio(x, 1, b) == pytest.approx(chi2_1_quantile(level), abs=1e-6)


def test_degenerate_sample_errors():
    const = [3.0] * 12
    with pytest.raises(DegenerateSampleError):
        jel_confidence_interval(const, 1, 0.95)
    with pytest.raises(DegenerateSampleError):
        ratio_test(const, 1, 0.75, 0.05, "AJEL")


def test_batched_calls_build_and_check_the_blocks_pseudo_values_once(monkeypatch):
    checked, built = [], []
    check, build = inference._checked, inference.pseudo_value_rows
    monkeypatch.setattr(inference, "_checked",
                        lambda block, r: checked.append(block) or check(block, r))
    monkeypatch.setattr(inference, "pseudo_value_rows",
                        lambda x, r: built.append(x.shape) or build(x, r))
    xs = [sample(DistSpec("exponential", 1.0), 30, make_rng(seed)) for seed in range(3)]
    rows = ratio_tests(xs, 1, 0.75, 0.05, ("JEL", "AJEL"))
    # one build of all three samples' pseudo-values and one check, shared by
    # JEL and AJEL
    assert len(checked) == 1 and built == [(3, 30)]
    assert rows == [(jel_test(x, 1, 0.75), ratio_test(x, 1, 0.75, 0.05, "AJEL")) for x in xs]
    # a degenerate sample fails both methods with the error each raises alone
    (jel, ajel), = ratio_tests([[3.0] * 30], 1, 0.75, 0.05, ("JEL", "AJEL"))
    assert type(jel) is type(ajel) is DegenerateSampleError
    assert str(jel) == str(ajel) != ""


def _built(rows, i):
    """What a block build gave sample ``i`` of the method's ``rows``: its
    row's bytes, or the error's type and text."""
    if rows.status[i] is not None:
        return type(rows.status[i]), str(rows.status[i])
    j = rows.rows.index(i)
    # in the data's coordinates
    points = _unscaled(rows, "values")[j]
    return (points.tobytes(), points.shape, float(_unscaled(rows, "estimate")[j]),
            float(_unscaled(rows, "seed")[j]), rows.adjust, rows.method)


def _one_sample_builds(x, r, rule, a_n):
    return [_built(rows, 0) for rows in _method_problems([x], r, CI_METHODS, rule, a_n)]


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("rule, a_n", [("centered", None), ("literal", None), ("centered", 3.0)])
def test_a_block_builds_each_sample_as_it_builds_alone(r, rule, a_n):
    n = 40
    xs = [sample(DistSpec(family, 1.0), n, make_rng(70 + k))
          for k, family in enumerate(("lognormal", "exponential", "normal", "lognormal"))]
    signed_zeros = xs[2].copy()
    signed_zeros[[3, 9, 17, 30]] = [0.0, -0.0, -0.0, 0.0]
    with_nan = xs[3].copy()
    with_nan[5] = np.nan
    block = [xs[0], SortedSample.from_data(xs[1]), jackknife_pseudo_values(xs[2], r),
             with_nan, np.full(n, 3.0), signed_zeros, list(xs[3])]
    got = [[_built(rows, i) for i in range(len(block))]
           for rows in _method_problems(block, r, CI_METHODS, rule, a_n)]
    for j, x in enumerate(block):
        assert [column[j] for column in got] == _one_sample_builds(x, r, rule, a_n)
    # the rows are those of the per-sample functions, bit for bit
    column = dict(zip(CI_METHODS, got))
    for j in (0, 1, 5, 6):
        x = block[j]
        assert column["JEL"][j][0] == jackknife_pseudo_values(x, r).values.tobytes()
        assert column["DNEL"][j][0] == dnel_summands(x, r).values.tobytes()
        assert column["VXL"][j][0] == vxl_summands(x, r).values.tobytes()
    # the signed zeros keep their input order in the sorted sample
    zeros = SortedSample.from_data(signed_zeros).values
    assert np.signbit(zeros[zeros == 0.0]).tolist() == [False, True, True, False]
    failed = {(method, j): column[method][j] for method in CI_METHODS for j in (2, 3, 4)}
    assert {failed[(m, 2)] for m in CI_METHODS} == {(PwmInputError, NOT_REAL)}
    assert {failed[(m, 3)] for m in CI_METHODS} == {(PwmInputError, "sample contains non-finite values")}
    assert {failed[(m, 4)][0] for m in ("JEL", "AJEL")} == {DegenerateSampleError}


@pytest.mark.parametrize("r, n", [(0, 10), (-1, 10), (1.5, 10), (True, 10), (2, 3), (1, 2), (5, 6),
                                  (1, 1)])
def test_block_wide_errors_are_each_samples_own(r, n):
    # a bad order or a sample too small for it fails every row of a method
    # with the error a one-sample build gives (at n = 1, DNEL and VXL too)
    block = [sample(DistSpec("exponential", 1.0), n, make_rng(80 + k)) for k in range(3)]
    got = [[_built(rows, i) for i in range(len(block))]
           for rows in _method_problems(block, r, CI_METHODS, "centered", None)]
    for j, x in enumerate(block):
        assert [column[j] for column in got] == _one_sample_builds(x, r, "centered", None)
    assert any(isinstance(row[0], type) for column in got for row in column)


def test_a_block_whose_every_sample_fails():
    block = [[], [1.0, np.nan, 2.0], [[1.0, 2.0], [3.0, 4.0]], [np.inf, 1.0],
             PseudoValues(np.full(5, 2.0), 2.0, 1, 5)]
    texts = ["sample is empty", "sample contains non-finite values",
             "sample must be one-dimensional", "sample contains non-finite values", NOT_REAL]
    for rows in (confidence_intervals(block, 1, 0.9, CI_METHODS),
                 ratio_tests(block, 1, 1.0, 0.1, CI_METHODS)):
        assert len(rows) == len(texts)
        for row, text in zip(rows, texts):
            assert {(type(e), str(e)) for e in row} == {(PwmInputError, text)}


def test_a_sample_that_from_data_rejects_fails_its_own_row_only():
    xs = [sample(DistSpec("lognormal", 1.0), 30, make_rng(90 + k)) for k in range(3)]
    bad = xs[1].copy()
    bad[4] = np.nan
    for samples, text in (([xs[0], bad, xs[2]], "sample contains non-finite values"),
                          # the one-size check runs on the samples that pass
                          ([xs[0], [np.inf] * 7, xs[2]], "sample contains non-finite values"),
                          ([xs[0], [], xs[2]], "sample is empty"),
                          ([xs[0], [[1.0, 2.0]], xs[2]], "sample must be one-dimensional")):
        intervals = confidence_intervals(samples, 1, 0.9, CI_METHODS)
        tests = ratio_tests(samples, 1, 1.0, 0.1, CI_METHODS)
        for row in (intervals[1], tests[1]):
            assert {(type(e), str(e)) for e in row} == {(PwmInputError, text)}
        for k in (0, 2):
            assert intervals[k] == tuple(confidence_interval(xs[k], 1, 0.9, m) for m in CI_METHODS)
            assert tests[k] == tuple(ratio_test(xs[k], 1, 1.0, 0.1, m) for m in CI_METHODS)
    with pytest.raises(PwmInputError, match="samples of one size"):
        ratio_tests([xs[0], xs[1][:20], xs[2]], 1, 1.0, 0.1, ("JEL",))


def test_a_sample_that_is_not_real_numbers_fails_its_own_row_only():
    xs = [sample(DistSpec("exponential", 1.0), 12, make_rng(95 + k)) for k in range(3)]
    pv = jackknife_pseudo_values(xs[1], 1)
    for bad in (["a"] * 12, [[1.0, 2.0], [3.0]], {"a": 1}, xs[1] + 1j, pv,
                dataclasses.replace(pv, values=pv.values[:10])):
        samples = [xs[0], bad, xs[2]]
        intervals = confidence_intervals(samples, 1, 0.9, CI_METHODS)
        tests = ratio_tests(samples, 1, 1.0, 0.1, CI_METHODS)
        for row in (intervals[1], tests[1]):
            assert {(type(e), str(e)) for e in row} == {(PwmInputError, NOT_REAL)}
        for k in (0, 2):
            assert intervals[k] == tuple(confidence_interval(xs[k], 1, 0.9, m) for m in CI_METHODS)
            assert tests[k] == tuple(ratio_test(xs[k], 1, 1.0, 0.1, m) for m in CI_METHODS)
        # alone too
        with pytest.raises(PwmInputError, match=f"^{NOT_REAL}$"):
            jel_neg2_ratio(bad, 1, 1.0)
    for bad in (["a", "b", "c"], xs[1] + 2j):  # not cast to its real parts
        with pytest.raises(PwmInputError, match=f"^{NOT_REAL}$"):
            ustat_estimate(bad, 1)


def test_a_list_holding_numpy_complex_scalars_is_not_real_numbers():
    # NumPy casts such a list to its real parts with only a ComplexWarning
    x = sample(DistSpec("lognormal", 1.0), 40, make_rng(96))
    for bad in ([np.complex128(v + 1j) for v in x],
                [*x[:-1], np.complex128(x[-1])],  # mixed, a zero imaginary part
                [Fraction(1, 2)] * 39 + [np.complex64(1 + 1j)]):  # an object array
        good, row = ratio_tests([x, bad], 1, 1.5, 0.05, CI_METHODS)
        assert {(type(e), str(e)) for e in row} == {(PwmInputError, NOT_REAL)}
        assert good == tuple(ratio_test(x, 1, 1.5, 0.05, m) for m in CI_METHODS)
        with pytest.raises(PwmInputError, match=f"^{NOT_REAL}$"):
            ustat_estimate(bad, 1)


@pytest.mark.parametrize("batch", [lambda xs: (x for x in xs), iter])
def test_an_iterator_of_samples_is_read_once(batch):
    xs = [sample(DistSpec("lognormal", 1.0), 30, make_rng(97 + k)) for k in range(3)]
    xs[1] = SortedSample.from_data(xs[1])
    assert confidence_intervals(batch(xs), 1, 0.9, ("JEL",)) == [
        (jel_confidence_interval(x, 1, 0.9),) for x in xs]
    assert ratio_tests(batch(xs), 1, 1.0, 0.1, CI_METHODS) == [
        tuple(ratio_test(x, 1, 1.0, 0.1, m) for m in CI_METHODS) for x in xs]


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


def test_options_that_are_not_numbers_are_input_errors():
    # None, strings, bools and numbers beyond the float range are no level,
    # size, hypothesized value or adjustment constant: each is an input
    # error before any numeric work, not a bare TypeError or ValueError
    xs = [sample(DistSpec("exponential", 1.0), 20, make_rng(seed)) for seed in range(2)]
    bad = [(confidence_intervals, (xs, 1, None, ("JEL",)), "confidence level"),
           (confidence_intervals, (xs, 1, "0.9", ("JEL",)), "confidence level"),
           (ratio_tests, (xs, 1, 0.7, None, ("JEL",)), "test size"),
           (ratio_tests, (xs, 1, None, 0.05, ("JEL",)), "hypothesized value"),
           (ratio_tests, (xs, 1, "abc", 0.05, ("JEL",)), "hypothesized value"),
           (ratio_tests, (xs, 1, 10 ** 400, 0.05, ("JEL",)), "hypothesized value"),
           (confidence_intervals, (xs, 1, 0.9, ("AJEL",), "centered", "abc"), "adjustment"),
           (ratio_tests, (xs, 1, 0.7, 0.05, ("AJEL",), "centered", True), "adjustment")]
    for call, args, text in bad:
        with pytest.raises(PwmInputError, match=text):
            call(*args)
    # NumPy numbers are numbers
    want = confidence_intervals(xs, 1, 0.9, ("AJEL",), "centered", 2.0)
    assert confidence_intervals(xs, 1, np.float64(0.9), ("AJEL",), "centered",
                                np.int64(2)) == want
    assert ratio_tests(xs, 1, np.float32(0.5), np.float64(0.05), ("JEL",)) == ratio_tests(
        xs, 1, float(np.float32(0.5)), 0.05, ("JEL",))


def test_a_string_of_methods_is_rejected_not_split_into_letters():
    xs = [sample(DistSpec("exponential", 1.0), 20, make_rng(seed)) for seed in range(2)]
    text = "methods must be a sequence of names, not the string 'JEL'"
    with pytest.raises(PwmInputError, match=text):
        confidence_intervals(xs, 1, 0.95, "JEL")
    with pytest.raises(PwmInputError, match=text):
        ratio_tests(xs, 1, 1.0, 0.05, "JEL")


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
    t = ratio_test(x, 1, 0.30, 0.10, "AJEL")
    assert t.method == "AJEL"
    assert t.statistic == pytest.approx(ajel_neg2_ratio(x, 1, 0.30), rel=1e-12)
    assert t.threshold == pytest.approx(chi2_1_quantile(0.90), rel=1e-12)
    assert t.reject == (t.statistic > t.threshold)


def test_alpha_validation():
    with pytest.raises(PwmInputError):
        jel_test(X4, 1, 2.0, alpha=0.0)
    with pytest.raises(PwmInputError):
        ratio_test(X4, 1, 2.0, 1.0, "AJEL")


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("n", [4, 25])
@pytest.mark.parametrize("rule, a_n", [("centered", None), ("literal", None), ("centered", 3.0)])
def test_batched_calls_equal_one_sample_calls(n, rule, a_n, mixed):
    samples = [sample(DistSpec("lognormal", 1.0), n, make_rng(60 + k)) for k in range(8)]
    samples[2] = np.full(n, 3.0)  # constant pseudo-values
    # a spread 1e-9 of the location: the beta tolerance follows the location,
    # so both JEL endpoint searches stall, and the lower one's error is the
    # one a single call raises
    samples[5] = 5.0 + 1e-9 * samples[5]
    if mixed:
        # a sample's pseudo-values do not stand in for it, for any method
        samples[6] = jackknife_pseudo_values(samples[6], 1)
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
    expected = {DegenerateSampleError, ConvergenceError}
    assert failures == (expected | {PwmInputError} if mixed else expected)
    if mixed:  # the one-sample calls raised these errors too
        for row in (intervals[6], tests[6]):
            assert {(type(e), str(e)) for e in row} == {(PwmInputError, NOT_REAL)}
    with pytest.raises(PwmInputError):
        confidence_intervals([X4, X4 + [5.0]], 1, 0.9, CI_METHODS)


def _exact(result):
    """Every field of an interval or test, the p-value included, with floats
    as their bits; or an error's type and text."""
    if isinstance(result, PwmError):
        return type(result), str(result)
    fields = dataclasses.asdict(result)
    if isinstance(result, TestResult):
        fields["p_value"] = result.p_value
    return {k: v.hex() if isinstance(v, float) else v for k, v in fields.items()}


@pytest.mark.parametrize("k", [1, 10, 64])
@pytest.mark.parametrize("n", [50, 300, 3000])
def test_stacked_methods_equal_one_sample_calls(k, n):
    # 3kn points of JEL, DNEL and VXL: one stack up to k = 10, n = 300 and
    # k = 64, n = 50, one per method from k = 10, n = 3000 and k = 64, n = 300
    xs = [sample(DistSpec("exponential", 1.0), n, make_rng(100 + j)) for j in range(k)]
    if k > 1:
        xs[1] = 5.0 + 1e-9 * xs[1]  # both JEL searches stall; the lower one wins
        xs[2] = jackknife_pseudo_values(xs[2], 1)  # not a sample: fails its own row
    if k > 10:
        xs[3] = np.full(n, 3.0)
    for rule in ADJUSTMENT_RULES:
        intervals = confidence_intervals(xs, 1, 0.9, CI_METHODS, rule)
        tests = ratio_tests(xs, 1, 1.0, 0.1, CI_METHODS, rule)
        repeated = confidence_intervals(xs, 1, 0.9, ("JEL", "JEL", "VXL"), rule)
        # the special samples and some plain ones, against one-sample calls
        for x, ci_row, test_row, repeated_row in zip(xs[:8], intervals, tests, repeated):
            alone = {}
            for method in CI_METHODS:
                for kind, call in (("ci", lambda: confidence_interval(x, 1, 0.9, method, rule)),
                                   ("test", lambda: ratio_test(x, 1, 1.0, 0.1, method, rule))):
                    try:
                        alone[kind, method] = _exact(call())
                    except PwmError as exc:
                        alone[kind, method] = _exact(exc)
            assert [_exact(ci) for ci in ci_row] == [alone["ci", m] for m in CI_METHODS]
            assert [_exact(t) for t in test_row] == [alone["test", m] for m in CI_METHODS]
            assert [_exact(ci) for ci in repeated_row] == [alone["ci", m]
                                                          for m in ("JEL", "JEL", "VXL")]
        if k > 1:
            stalled = intervals[1][CI_METHODS.index("JEL")]
            assert type(stalled) is ConvergenceError and stalled.best < 5.0 + 1e-9 * 0.4
            assert {type(e) for e in intervals[2] + tests[2]} == {PwmInputError}
        if k > 10:
            jackknife = [CI_METHODS.index(m) for m in ("JEL", "AJEL")]
            assert {type(intervals[3][j]) for j in jackknife} == {DegenerateSampleError}


@pytest.mark.parametrize("k, n, stacks", [
    # methods in the order of CI_METHODS; points of DNEL, VXL and JEL together
    (10, 300, [["DNEL", "VXL", "JEL"], ["AJEL"]]),  # 9 000: one stack
    (50, 300, [["DNEL", "VXL"], ["JEL"], ["AJEL"]]),  # 45 000: the third does not fit
    (10, 3000, [["DNEL"], ["VXL"], ["JEL"], ["AJEL"]]),  # 30 000 each, no two fit
    (20, 3000, [["DNEL"], ["VXL"], ["JEL"], ["AJEL"]]),  # 60 000 each, each whole
])
def test_methods_share_a_stack_up_to_the_point_cap(k, n, stacks):
    xs = [sample(DistSpec("lognormal", 1.0), n, make_rng(200 + j)) for j in range(k)]
    for rule in ADJUSTMENT_RULES:
        sets = _method_problems(xs, 1, CI_METHODS, rule, None)
        calls = []

        def engine(groups):
            calls.extend(groups)
            return [[(rows.method, j) for rows in call for j in range(len(rows.rows))]
                    for call in groups]

        out = inference._by_stack(sets, engine, lambda rows: lambda j, value: (value, j))
        assert sorted([rows.method for rows in call] for call in calls) == sorted(stacks)
        assert all(len(rows.rows) == k for call in calls for rows in call)
        assert all(len({rows.values.shape[1] for rows in call}) == 1 for call in calls)
        assert out == [tuple(((rows.method, i), i) for rows in sets) for i in range(k)]


@pytest.fixture
def search_errors(monkeypatch):
    """Every ConvergenceError the interval searches make, in order."""
    made = []

    class Recorded(ConvergenceError):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(inference, "ConvergenceError", Recorded)
    return made


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_centered_stack_below_its_plateau_takes_no_search(n, solves):
    # three to five points put the centered ratio's plateau below the 95%
    # threshold: every beta is accepted, which takes no solve
    xs = [sample(DistSpec("exponential", 1.0), n, make_rng([n, k])) for k in range(3)]
    for (ci,) in confidence_intervals(xs, 1, 0.95, ("AJEL",)):
        assert (ci.lower, ci.upper, ci.endpoint_iterations) == (-math.inf, math.inf, 0)
    assert solves == []
    # beside it, the plain stack of the call searches as it does alone
    rows = confidence_intervals(xs, 1, 0.95, CI_METHODS)
    plain = [m for m in CI_METHODS if m != "AJEL"]
    alone = confidence_intervals(xs, 1, 0.95, plain)
    for row, plain_row in zip(rows, alone):
        assert ([_exact(row[CI_METHODS.index(m)]) for m in plain]
                == [_exact(ci) for ci in plain_row])
        assert _exact(row[CI_METHODS.index("AJEL")])["upper"] == "inf"


@pytest.mark.parametrize("seed, rounds", [(0, 26), (1, 26), (2, 23)])
def test_a_ratio_below_the_threshold_out_to_the_hull_bound_stalls(seed, rounds, solves):
    # the lower search bisects toward its unevaluated hull bound, where the
    # ratio diverges, until the bracket closes below the threshold
    x = sample(DistSpec("exponential", 1.0), 3, make_rng(seed))
    pv = jackknife_pseudo_values(x, 1).values
    bound = pv.min() + inference._HULL_SHRINK * np.ptp(pv)
    with pytest.raises(ConvergenceError) as raised:
        confidence_interval(x, 1, 1.0 - 1e-15, "JEL")
    message = str(raised.value)
    assert message.startswith("interval endpoint stalled with ratio residual ")
    assert float(message.rsplit(" ", 1)[1]) > inference._RESIDUAL_TOL
    assert bound < raised.value.best < _unscaled(_problem(x, "JEL"), "estimate")[0]
    # the lower search's failure retires the upper search with it
    assert solves == [2] * rounds


@pytest.mark.parametrize("level", [0.999999, 1.0 - 1e-15])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_no_bounded_search_evaluates_its_hull_bound(n, level, monkeypatch):
    # a plain row's ratio diverges at its hull (Owen 1988), so the shrunk
    # hull bound closes a bracket without an evaluation there
    evaluated = []
    call = _StackedRatio.__call__

    def recording(self, rows, beta, lam0):
        shrink = inference._HULL_SHRINK * (self.hi[rows] - self.lo[rows])
        evaluated.append((beta, self.lo[rows] + shrink, self.hi[rows] - shrink))
        return call(self, rows, beta, lam0)

    monkeypatch.setattr(_StackedRatio, "__call__", recording)
    xs = [sample(DistSpec("exponential", 1.0), n, make_rng([n, k])) for k in range(10)]
    confidence_intervals(xs, 1, level, ("JEL", "DNEL", "VXL"))
    confidence_intervals(xs, 1, level, ("AJEL",), "literal")
    assert len(evaluated) > 2
    for beta, lower, upper in evaluated:
        assert not np.any((beta == lower) | (beta == upper))


@pytest.mark.parametrize("method", ["DNEL", "VXL"])
def test_a_search_out_of_float_resolution_stalls(method, search_errors):
    x = sample(DistSpec("exponential", 1.0), 3, make_rng(0))
    with pytest.raises(ConvergenceError) as raised:
        confidence_interval(x, 1, 1.0 - 1e-15, method)
    message = str(raised.value)
    assert message.startswith("interval endpoint stalled with ratio residual ")
    assert float(message.rsplit(" ", 1)[1]) > inference._RESIDUAL_TOL
    # the best point, in the data's coordinates, is on the lower side
    assert raised.value.best < _unscaled(_problem(x, method), "estimate")[0]
    assert search_errors == [raised.value]


@pytest.mark.parametrize("method, level, sizes, seen", [
    # searches bisecting toward the hull bound, some stalling below the threshold
    ("JEL", 1.0 - 1e-15, (3, 4, 5), "stall"),
    # centered searches with no outside end reach out for it until they cross
    ("AJEL", 0.95, (8, 10, 15), "reach"),
])
def test_the_search_state_stays_aligned_as_searches_end(method, level, sizes, seen):
    # every per-search array of _Searches leaves together when a search ends;
    # one stack per size, of 10 samples each
    stacks = [_StackedRatio(_method_problems(
        [sample(DistSpec("exponential", 1.0), n, make_rng([n, k])) for k in range(10)],
        1, (method,), "centered", None)) for n in sizes]
    searches = inference._Searches(stacks, chi2_1_quantile(level))
    running, reaching = [], 0
    while searches.key.size:
        reaching += np.count_nonzero(np.isnan(searches.outside))
        searches.advance()
        running.append(searches.key.size)
        for name in searches._STATE + ("lam0",):
            assert getattr(searches, name).shape == (searches.key.size,), name
    stalls = sum(str(exc).startswith("interval endpoint stalled")
                 for exc in searches.failure.values())
    assert {"stall": stalls, "reach": reaching}[seen] > 0
    # some searches ran on after others had ended
    assert len(set(running)) > 2


@pytest.mark.parametrize("method, seed", [("DNEL", 30), ("DNEL", 156), ("VXL", 130)])
def test_an_upper_failure_loses_to_a_later_lower_failure(method, seed, solves, search_errors):
    x = sample(DistSpec("normal", 1.0), 3, make_rng(seed))
    estimate = _unscaled(_problem(x, method), "estimate")[0]
    with pytest.raises(ConvergenceError) as raised:
        confidence_interval(x, 1, 1.0 - 1e-15, method)
    upper, lower = search_errors
    assert raised.value is lower
    assert upper.best > estimate > lower.best
    assert str(upper).startswith("interval endpoint stalled")
    # the lower search ran on alone after the upper one failed
    assert solves[-1] == 1 and solves[0] == 2


def test_a_module_importing_test_result_by_name_collects_without_warning(tmp_path):
    (tmp_path / "test_uses_result.py").write_text(
        "from pwmjel import TestResult\n\n\ndef test_nothing():\n    assert TestResult\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "-W", "error::pytest.PytestCollectionWarning", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
        # the pwmjel that this suite imports, wherever it comes from
        env={**os.environ, "PYTHONPATH": str(Path(pwmjel.__file__).parents[1])})
    assert run.returncode == 0, run.stdout + run.stderr
    assert "PytestCollectionWarning" not in run.stdout + run.stderr
    assert not any(f.name == "__test__" for f in dataclasses.fields(TestResult))
