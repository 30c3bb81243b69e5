import math

import numpy as np
import pytest

from pwmjel import (
    ConvergenceError,
    HullError,
    PwmError,
    PwmInputError,
    el,
    neg2_log_ratio,
    solve_lambda,
)
from pwmjel.inference import _framed, _RowSet, _StackedRatio

# frozen from an independent bisection-only solve of the score equation
GOLD_Z = [1.0, 2.0, 3.0]
GOLD_MU = 2.5
GOLD_LAM = -0.953667249362040
GOLD_NEG2 = 1.260283923944968


def test_frozen_golden():
    sol = solve_lambda(GOLD_Z, GOLD_MU)
    assert sol.converged
    assert sol.lam == pytest.approx(GOLD_LAM, abs=1e-9)
    assert neg2_log_ratio(GOLD_Z, GOLD_MU) == pytest.approx(GOLD_NEG2, rel=1e-12)


def test_mu_at_mean_gives_zero():
    z = [0.3, 1.1, 2.2, 4.0]
    sol = solve_lambda(z, np.mean(z))
    assert abs(sol.lam) < 1e-12
    assert neg2_log_ratio(z, np.mean(z)) == 0.0
    # exact zero, not -0.0
    assert math.copysign(1.0, neg2_log_ratio(z, np.mean(z))) == 1.0


def test_weights_are_a_distribution():
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = rng.standard_normal(int(rng.integers(5, 40)))
        mu = float(np.quantile(z, rng.uniform(0.15, 0.85)))
        if not z.min() < mu < z.max():
            continue
        sol = solve_lambda(z, mu)
        # sum(p) - 1 = -lam * score(lam), so the slack inherits the score
        # tolerance scaled by |lam|
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(sol.weights > 0)
        # the weighted mean hits the constraint
        assert float(sol.weights @ z) == pytest.approx(mu, abs=1e-8 * max(1, abs(mu)))


def test_ratio_nonnegative_and_increasing_away_from_mean():
    z = np.array([0.5, 1.0, 1.7, 2.9, 3.3])
    m = z.mean()
    grid_right = np.linspace(m, z.max() - 1e-6, 12)
    vals = [neg2_log_ratio(z, mu) for mu in grid_right]
    assert all(v >= 0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_location_scale_invariance():
    # EL ratio for the mean is invariant under z -> a*z + b
    rng = np.random.default_rng(9)
    z = rng.exponential(1.0, 30)
    mu = float(np.mean(z)) * 1.1
    base = neg2_log_ratio(z, mu)
    for a, b in [(2.0, 0.0), (0.25, 5.0), (-3.0, 1.0), (1e4, -7.0), (1e-4, 0.3)]:
        got = neg2_log_ratio(a * z + b, a * mu + b)
        assert got == pytest.approx(base, rel=1e-9)


def test_outside_hull():
    z = [1.0, 2.0, 3.0]
    assert neg2_log_ratio(z, 3.0) == math.inf
    assert neg2_log_ratio(z, 0.0) == math.inf
    with pytest.raises(HullError):
        solve_lambda(z, 5.0)
    # boundary point is not interior
    with pytest.raises(HullError):
        solve_lambda(z, 1.0)


def test_constant_points_fail_even_at_their_value():
    with pytest.raises(HullError):
        solve_lambda([2.0, 2.0, 2.0], 2.0)


def test_near_boundary_mu_still_solves():
    # mu one part in 1e6 inside the max still has a finite multiplier
    z = np.array([0.0, 1.0, 2.0, 10.0])
    mu = 10.0 - 1e-5 * 10.0
    val = neg2_log_ratio(z, mu)
    assert np.isfinite(val)
    assert val > 10.0  # heavily rejected


def test_input_validation():
    with pytest.raises(PwmInputError):
        solve_lambda([1.0], 1.0)
    with pytest.raises(PwmInputError):
        solve_lambda([[1.0, 2.0]], 1.0)
    for z in ([1.0, np.inf], [-np.inf, 1.0], [np.nan, 1.0], [1.0, np.nan, np.inf]):
        with pytest.raises(PwmInputError, match="^EL points contain non-finite values$"):
            solve_lambda(z, np.nan)
    with pytest.raises(PwmInputError, match="^hypothesized mean must be finite$"):
        solve_lambda([1.0, 2.0], np.nan)
    with pytest.raises(HullError) as raised:
        solve_lambda([2.5, 1e-300, 3.0], 3.0)
    assert str(raised.value) == "mean 3.0 is not interior to the sample hull [1e-300, 3.0]"


def test_convergence_error_carries_best_iterate(monkeypatch):
    z = np.array([0.0, 1.0, 2.0, 10.0])
    with monkeypatch.context() as budget:
        budget.setattr(el, "_MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as err:
            solve_lambda(z, 5.0)
    best = err.value.best
    assert best is not None and not best.converged
    # relaxed budget from the same start succeeds
    assert solve_lambda(z, 5.0).converged


def test_iterations_reported():
    sol = solve_lambda(GOLD_Z, GOLD_MU)
    assert 1 <= sol.iterations <= 100


def test_warm_start_reaches_the_same_root_in_fewer_steps():
    z = np.random.default_rng(8).exponential(1.0, 200)
    mu = float(np.quantile(z, 0.7))
    cold = solve_lambda(z, mu)
    warm = solve_lambda(z, mu, lam0=0.95 * cold.lam)
    assert warm.lam == pytest.approx(cold.lam, rel=1e-8)
    assert warm.iterations < cold.iterations
    # an infeasible start falls back to lam = 0
    assert solve_lambda(z, mu, lam0=1e6).lam == pytest.approx(cold.lam, rel=1e-8)


def test_slope_is_the_envelope_derivative():
    # d(-2 log R)/d mu is -2 m lam at the solved multiplier (Owen 1988)
    z = np.random.default_rng(9).lognormal(0.0, 1.0, 80)
    mu = np.quantile(z, [0.1, 0.3, 0.45, 0.6, 0.9])
    h = 1e-6 * z.std()
    for rows in ([0], [1, 2], [0, 1, 2, 3, 4]):  # one row at a time, then vectorised
        sol = el.solve_rows(np.stack([z] * len(rows)), mu[rows], np.zeros(len(rows)))
        for j, i in enumerate(rows):
            fd = (neg2_log_ratio(z, mu[i] + h) - neg2_log_ratio(z, mu[i] - h)) / (2.0 * h)
            assert -2.0 * sol.log_ratio[j] == neg2_log_ratio(z, mu[i])
            assert -2.0 * z.size * sol.lam[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)
    assert neg2_log_ratio(z, z.max() + 1.0) == math.inf


def _two_mean_newton(z, mu, tol=1e-10, max_iter=100, lam0=0.0):
    """Reference kernel: the Newton solve with one ``np.mean`` per score and
    per slope, which the fused single-buffer step must match bit for bit."""
    z = np.asarray(z, dtype=float)
    d = z - mu
    dmin, dmax = float(d.min()), float(d.max())
    gtol = tol * max(abs(mu), float(np.max(np.abs(z - mu))))
    lo = (-1.0 / dmax) * (1.0 - 1e-12)
    hi = (-1.0 / dmin) * (1.0 - 1e-12)

    def score_and_slope(lam):
        w = 1.0 + lam * d
        return float(np.mean(d / w)), -float(np.mean((d / w) ** 2))

    lam = float(lam0) if lo < lam0 < hi else 0.0
    a, b = lo, hi
    g, gp = score_and_slope(lam)
    iterations = 0
    while abs(g) > gtol and iterations < max_iter:
        if g > 0.0:
            a = lam
        else:
            b = lam
        step = lam - g / gp
        lam = step if a < step < b else 0.5 * (a + b)
        g, gp = score_and_slope(lam)
        iterations += 1
    weights = 1.0 / (z.size * (1.0 + lam * d))
    log_ratio = min(0.0, -float(np.sum(np.log1p(lam * d))))
    return lam, log_ratio, iterations, weights


def test_fused_newton_step_is_bit_identical_to_the_two_mean_reference():
    rng = np.random.default_rng(2024)
    draws = (
        lambda n: rng.exponential(1.0, n),
        lambda n: rng.lognormal(0.0, 1.5, n),
        lambda n: rng.normal(3.0, 2.0, n),
    )
    checked = 0
    for k in range(50):
        n = int(rng.choice([5, 17, 130, 300, 1025, 3000]))
        z = draws[k % 3](n) * 10.0 ** rng.integers(-3, 4)
        # quantiles close to the hull edges need the bisection fallback
        mu = float(np.quantile(z, rng.choice([0.002, 0.1, 0.4, 0.6, 0.97])))
        if not z.min() < mu < z.max():
            continue
        cold = solve_lambda(z, mu)
        starts = (0.0, cold.lam * rng.uniform(0.5, 1.5), -cold.lam, 1e6)
        for lam0 in starts:
            sol = solve_lambda(z, mu, lam0=lam0)
            lam, log_ratio, iterations, weights = _two_mean_newton(z, mu, lam0=lam0)
            assert (sol.lam, sol.log_ratio, sol.iterations) == (lam, log_ratio, iterations)
            assert np.array_equal(sol.weights, weights)
            checked += 1
    assert checked >= 150


def test_ratio_and_slope_solves_through_the_module_attribute(monkeypatch):
    calls = []
    original = el.solve_lambda

    def counting(*args, **kwargs):
        calls.append(float(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(el, "solve_lambda", counting)
    data = np.random.default_rng(4).exponential(1.0, 60)
    mean = float(data.mean())
    rows = _framed(_RowSet([None], [0], None, np.zeros(1, dtype=np.int32)), data[None].copy(),
                   np.array([mean]), np.array([mean]), "JEL")
    ratio = _StackedRatio([rows] * max(el._VECTOR_ROWS, 3))
    # the stack solves in its rows' frames: the data scaled by a power of two
    # into [-1, 1)
    z = ratio.points[0]
    assert np.array_equal(ratio.unscaled(z, 0), data) and 0.5 <= np.abs(z).max() < 1.0
    mu = [float(np.quantile(z, q)) for q in (0.2, 0.5, 0.8)]
    # below the vectorised row count each row is one solve_lambda call, from
    # it on none is; either way every row is solve_lambda's, bit for bit
    for k in (1, 2, 3):
        calls.clear()
        got = ratio(np.arange(k), mu[:k], np.full(k, 0.1))
        assert calls == (mu[:k] if k < el._VECTOR_ROWS else [])
        for j in range(k):
            sol = original(z, mu[j], lam0=0.1)
            assert (got[0][j], got[1][j], got[2][j]) == \
                (-2.0 * sol.log_ratio, -2.0 * z.size * sol.lam, sol.lam)
        assert got[-1] == {}
    calls.clear()
    ratio(np.arange(el._VECTOR_ROWS), np.full(el._VECTOR_ROWS, mu[1]), np.zeros(el._VECTOR_ROWS))
    assert calls == []
    assert neg2_log_ratio(z, mu[0]) == -2.0 * original(z, mu[0]).log_ratio
    assert calls == [mu[0]]
    # outside the open hull: infinite ratio, no slope, the start multiplier back
    for k in (1, el._VECTOR_ROWS):
        outside = [z.max() + 1.0, z.min(), z.max()] * k
        values, slopes, lams, dlams, curvatures, errors = ratio(
            np.zeros(k, dtype=int), outside[:k], np.full(k, 0.25))
        assert values.tolist() == [math.inf] * k and all(map(math.isnan, slopes))
        assert all(map(math.isnan, [*dlams, *curvatures]))
        assert lams.tolist() == [0.25] * k and errors == {}
    for mu_out in (z.max() + 1.0, z.min(), z.max()):
        assert neg2_log_ratio(z, mu_out) == math.inf
    for bad in ([1.0, np.nan, 3.0], [1.0, np.inf, 3.0]):
        with pytest.raises(PwmInputError):
            neg2_log_ratio(bad, 2.0)
    with pytest.raises(PwmInputError):
        neg2_log_ratio(z, math.nan)


def _row_reference(z, mu, lam0):
    """solve_lambda on one row: its solution (the best iterate where it
    raises ConvergenceError, None where it raises else) and its error."""
    try:
        return solve_lambda(z, mu, lam0=lam0), None
    except ConvergenceError as err:
        return err.best, err
    except PwmError as err:
        return None, err


def test_solve_rows_is_bit_identical_to_solve_lambda_per_row(monkeypatch):
    rng = np.random.default_rng(77)
    draws = (
        lambda shape: rng.exponential(1.0, shape),
        lambda shape: rng.lognormal(0.0, 1.5, shape),
        lambda shape: rng.normal(3.0, 2.0, shape),
    )
    kinds = (None, HullError, PwmInputError, ConvergenceError)
    seen = {vectorised: dict.fromkeys(kinds, 0) for vectorised in (False, True)}
    staggered = 0
    # a stack past the vectorised row count, whatever that count is
    height = max(12, el._VECTOR_ROWS + 1)
    for k in range(50):
        n = int(rng.choice([5, 17, 130, 300, 1025, 3000]))
        scale = 10.0 ** float(rng.integers(-12, 13))
        z = draws[k % 3]((height, n)) * scale
        # quantiles near the hull edges converge late, central ones early
        mu = np.array([np.quantile(row, q) for row, q in
                       zip(z, rng.choice([0.002, 0.1, 0.4, 0.6, 0.97], height))])
        mu[0] = 2.0 * z[0].max() + scale  # outside the hull
        mu[1] = z[1].min()  # on the hull boundary
        if k % 10 == 0:
            z[2, n // 2] = np.inf
        cold = np.array([solve_lambda(row, m).lam for row, m in zip(z[3:], mu[3:])])
        # rows 3-5 warm, 6-8 cold, 9-10 from the mirrored root, 11 infeasible;
        # the unsolved rows 0-2 must keep their start
        lam0 = np.zeros(height)
        lam0[:3] = 0.5 / scale
        lam0[3:6] = cold[:3] * rng.uniform(0.5, 1.5, 3)
        lam0[9:11] = -cold[6:8]
        lam0[11] = 1e6 / scale
        for max_iter in (100, 2):  # a budget of 2 stops some rows short
            monkeypatch.setattr(el, "_MAX_ITER", max_iter)
            refs = [_row_reference(z[i], mu[i], lam0[i]) for i in range(height)]
            # consecutive groups of rows: single rows, stacks just below and
            # at the vectorised row count, and taller ones
            for size in sorted({1, el._VECTOR_ROWS - 1, el._VECTOR_ROWS,
                                el._VECTOR_ROWS + 1, height} - {0}):
                for first in range(0, height, size):
                    rows = slice(first, first + size)
                    got = el.solve_rows(z[rows], mu[rows], lam0[rows])
                    vectorised = got.lam.size >= el._VECTOR_ROWS
                    if got.lam.size == height:
                        ok = [j for j in range(height) if j not in got.errors]
                        staggered += len(set(got.iterations[ok].tolist())) > 1
                    assert set(got.errors) == {j for j, (_, err) in enumerate(refs[rows])
                                               if err is not None}
                    for j, (ref, err) in enumerate(refs[rows]):
                        seen[vectorised][type(err) if err else None] += 1
                        if err is not None:
                            # the same failure as the row alone, whatever the stack
                            assert type(got.errors[j]) is type(err)
                            assert str(got.errors[j]) == str(err)
                        if ref is None:
                            assert (got.lam[j], got.log_ratio[j], got.iterations[j]) == \
                                (lam0[rows][j], -math.inf, 0)
                            assert math.isnan(got.last_weight[j])
                            assert math.isnan(got.score[j]) and math.isnan(got.score_slope[j])
                            continue
                        assert (got.lam[j], got.log_ratio[j], got.iterations[j]) == \
                            (ref.lam, ref.log_ratio, ref.iterations)
                        assert got.last_weight[j] == ref.weights[-1]
                        assert (got.score[j], got.score_slope[j]) == \
                            (ref.score, ref.score_slope)
                        if err is not None:  # the best iterate rides along
                            best = got.errors[j].best
                            assert (best.lam, best.log_ratio, best.iterations) == \
                                (ref.lam, ref.log_ratio, ref.iterations)
                            assert (best.score, best.score_slope) == \
                                (ref.score, ref.score_slope)
                            assert np.array_equal(best.weights, ref.weights)
                            assert not best.converged
        monkeypatch.undo()  # the cold starts above run on the module's budget
    # every failure kind on both sides of the row count; a count of 1 leaves
    # no side below it
    for vectorised, counts in seen.items():
        if vectorised or el._VECTOR_ROWS > 1:
            assert min(counts.values()) > 0 and counts[None] > 500
    assert staggered >= 40  # rows of one stack converged at different steps


def test_a_zero_slope_takes_the_midpoint_in_both_kernels():
    # at points near 1e-170 the slope -mean(u^2) underflows to -0.0 until
    # bisection brings 1 + lam*d near 0; each such step is the midpoint, in
    # the vectorised loop as in solve_lambda, and no division warns
    rng = np.random.default_rng(5)
    z = rng.exponential(1.0, (6, 40)) * 1e-170
    mu = np.array([np.quantile(row, q) for row, q in zip(z, np.linspace(0.3, 0.8, 6))])
    d = z - mu[:, None]
    assert not np.add.reduce(d * d, axis=1).any()  # a zero slope at lam = 0
    with np.errstate(divide="raise", invalid="raise"):
        got = el.solve_rows(z, mu, np.zeros(6))
    assert got.errors == {} and got.iterations.min() > 20
    for i in range(6):
        ref = solve_lambda(z[i], mu[i])
        assert (got.lam[i], got.log_ratio[i], got.iterations[i]) == \
            (ref.lam, ref.log_ratio, ref.iterations)
