import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from pwmjel import (
    DistSpec,
    NumericError,
    PwmInputError,
    chi2_1_cdf,
    chi2_1_quantile,
    distributions,
    make_rng,
    sample,
    true_beta,
)

EXP1 = DistSpec("exponential", 1.0)


def test_dist_spec_validation():
    with pytest.raises(PwmInputError):
        DistSpec("exponential", 0.0)
    with pytest.raises(PwmInputError):
        DistSpec("exponential", -1.0)
    with pytest.raises(PwmInputError):
        DistSpec("weibull", 1.0)
    with pytest.raises(TypeError):
        DistSpec("exponential", 1.0, param2=2.0)
    assert DistSpec("constant", 0.0).label == "constant(0)"
    assert EXP1.label == "exponential(1)"
    assert DistSpec("normal", 2.5).label == "normal(2.5)"


@pytest.mark.parametrize("bad", ["1", None, True, np.True_, 1j])
def test_dist_spec_takes_a_real_param1_only(bad):
    # not a raw TypeError from a finiteness check, and a bool is no parameter
    with pytest.raises(PwmInputError, match="^param1 must be a real number"):
        DistSpec("exponential", bad)


def test_dist_spec_stores_param1_as_a_float():
    # any real number, checked against the float range before it is converted
    for value in (2, np.int64(2), np.float32(2.0), Fraction(2)):
        d = DistSpec("exponential", value)
        assert type(d.param1) is float and d.param1 == 2.0 and d.label == "exponential(2)"
    for bad in (10**400, -(10**400), math.inf, math.nan):
        with pytest.raises(PwmInputError, match="^param1 must be finite$"):
            DistSpec("normal", bad)


def test_true_beta_exponential_closed_form():
    # mean-theta exponential: beta_r = theta * H_{r+1} / (r+1)
    assert true_beta(EXP1, 1) == pytest.approx(0.75, abs=1e-14)
    assert true_beta(EXP1, 2) == pytest.approx(11.0 / 18.0, abs=1e-14)
    assert true_beta(DistSpec("exponential", 0.9), 1) == pytest.approx(0.675, abs=1e-14)
    assert true_beta(EXP1, 0) == pytest.approx(1.0, abs=1e-14)


def test_true_beta_normal_and_lognormal_goldens():
    # frozen from independent quadrature; normal sigma=2, r=1 is 1/sqrt(pi)
    assert true_beta(DistSpec("normal", 2.0), 1) == pytest.approx(
        0.5641895835477563, rel=1e-10
    )
    assert true_beta(DistSpec("normal", 1.0), 1) == pytest.approx(
        0.2820947917738782, rel=1e-10
    )
    assert true_beta(DistSpec("lognormal", 1.5), 1) == pytest.approx(
        2.6353652069502838, rel=1e-9
    )
    assert true_beta(DistSpec("lognormal", 1.0), 1) == pytest.approx(
        1.253440245323658, rel=1e-9
    )


@pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 20.0])
def test_true_beta_lognormal_closed_forms(sigma):
    # beta_0 = E[X] = e^{sigma^2/2}; beta_1 = e^{sigma^2/2} E[Phi(Y + sigma)]
    # = e^{sigma^2/2} Phi(sigma / sqrt 2), and Phi(sigma / sqrt 2) is
    # erfc(-sigma / 2) / 2
    d = DistSpec("lognormal", sigma)
    mean = math.exp(0.5 * sigma * sigma)
    assert true_beta(d, 0) == pytest.approx(mean, rel=1e-13, abs=0)
    assert true_beta(d, 1) == pytest.approx(0.5 * mean * math.erfc(-0.5 * sigma), rel=1e-13, abs=0)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 3.7])
def test_true_beta_normal_first_two_orders_share_a_closed_form(sigma):
    # E[Z Phi(Z)] = E[Z Phi(Z)^2] = 1 / (2 sqrt(pi)) for standard normal Z
    want = sigma / (2.0 * math.sqrt(math.pi))
    for r in (1, 2):
        assert true_beta(DistSpec("normal", sigma), r) == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("sigma", [37.7, 80.0, 1e200])
def test_lognormal_moment_beyond_the_float_range_is_typed(sigma):
    # e^{sigma^2/2} passes the largest float from sigma = 37.677
    with pytest.raises(NumericError, match="float range"):
        true_beta(DistSpec("lognormal", sigma), 1)


def test_lognormal_moment_just_inside_the_float_range_is_finite():
    for r in (0, 1, 2):
        value = true_beta(DistSpec("lognormal", 37.6), r)
        assert math.isfinite(value) and value > 1e306


def test_true_beta_quadrature_agrees_with_closed_form():
    # dual route: direct integral vs the analytic exponential expression
    for theta in (0.8, 1.0, 2.5):
        d = DistSpec("exponential", theta)
        for r in (1, 2, 3):
            def integrand(x):
                u = -math.expm1(-x / theta)  # CDF, stable near zero
                return x * u**r * math.exp(-x / theta) / theta

            direct, _ = scipy.integrate.quad(integrand, 0.0, math.inf,
                                             epsabs=1e-12, epsrel=1e-12, limit=300)
            assert direct == pytest.approx(true_beta(d, r), rel=1e-8)


# Runs in a fresh interpreter: imports pwmjel, then one `pwm ci` and one
# `pwm test` call on an exponential CSV column, then a one-rep exponential
# coverage_length run, then normal and lognormal specs, a config on them and
# their true_beta, then a one-rep lognormal run, and prints which scipy
# modules are loaded after each.
_SCIPY_PROBE = """
import contextlib, io, sys
def loaded():
    return sorted(m for m in ('scipy.special', 'scipy.integrate') if m in sys.modules)
import pwmjel
from pwmjel import DistSpec, ExperimentConfig, cli, make_rng, sample, simulate
print('import', loaded())
path = sys.argv[1]
with open(path, 'w') as fh:
    fh.write('x\\n' + '\\n'.join(map(repr, sample(DistSpec('exponential', 1.0), 60, make_rng(5)).tolist())))
for argv in (['ci', '--input', path, '--column', 'x', '--r', '1'],
             ['test', '--input', path, '--column', 'x', '--r', '1', '--null', '0.75']):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    print(argv[0], loaded())
config = ExperimentConfig('coverage_length', DistSpec('exponential', 1.0), (1,), (40,), 1)
simulate.run_experiment(config)
print('coverage_length', loaded())
normal, lognormal = DistSpec('normal', 2.0), DistSpec('lognormal', 1.0)
config = ExperimentConfig('size', lognormal, (1,), (25,), 1, null_dist=normal)
print('true_beta', pwmjel.true_beta(normal, 1) > 0 < pwmjel.true_beta(lognormal, 1), loaded())
simulate.run_experiment(config)
print('lognormal size', loaded())
"""


def test_import_leaves_quadrature_unloaded(tmp_path):
    # scipy loads only for normal and lognormal draws, not for their specs,
    # configs or moments; exponential and CSV work never imports it
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "x.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import []", "ci []", "test []", "coverage_length []", "true_beta True []",
        "lognormal size ['scipy.special']",
    ]


# Runs in a fresh interpreter: true_beta on normal(2) and lognormal(1.5),
# then a one-rep lognormal size run, and prints after each whether
# scipy.integrate is loaded.
_INTEGRATE_PROBE = """
import sys
from pwmjel import DistSpec, ExperimentConfig, simulate, true_beta
for dist in (DistSpec('normal', 2.0), DistSpec('lognormal', 1.5)):
    true_beta(dist, 1)
    print(dist.label, 'scipy.integrate' in sys.modules)
config = ExperimentConfig('size', DistSpec('lognormal', 1.0), (1,), (25,), 1)
simulate.run_experiment(config)
print('size', 'scipy.integrate' in sys.modules)
"""


def test_normal_and_lognormal_moments_leave_quadrature_unloaded():
    # true_beta is a trapezoid rule in math alone
    proc = subprocess.run(
        [sys.executable, "-c", _INTEGRATE_PROBE], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "normal(2) False", "lognormal(1.5) False", "size False",
    ]


# Records, in a fresh interpreter, whether scipy.special is loaded when a
# simulation opens its worker pool (the workers fork after this point).
_FORK_PROBE = """
import sys
from pwmjel import DistSpec, ExperimentConfig, simulate
class Pool(simulate.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        print('scipy.special' in sys.modules)
        super().__init__(*args, **kwargs)
simulate.ProcessPoolExecutor = Pool
if sys.argv[1] == 'power':  # exponential draws, a normal null
    config = ExperimentConfig('power', DistSpec('exponential', 1.0), (1,), (20,), 8,
                              null_dist=DistSpec('normal', 1.0))
else:
    config = ExperimentConfig('variance', DistSpec(sys.argv[1], 1.0), (1,), (20,), 8)
simulate.run_experiment(config, threads=2)
"""


@pytest.mark.parametrize("family", ["normal", "lognormal"])
def test_normal_draws_load_scipy_before_the_pool_forks(family):
    # otherwise every worker imports scipy.special again on its first draw
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE, family], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_exponential_draws_fork_without_scipy_under_a_normal_null():
    # the null's moment is a trapezoid rule in math, and the warm-up draw
    # before the pool is exponential, so neither loads scipy.special
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE, "power"], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_true_beta_constant_family():
    d = DistSpec("constant", 3.0)
    for r in range(4):
        assert true_beta(d, r) == pytest.approx(3.0 / (r + 1), rel=1e-12)


def test_harmonic_numbers_keep_the_bits_of_the_sum_up_to_the_cutoff():
    # the exponential moment of every order r < cutoff is H_{r+1} / (r+1),
    # H summed left to right; the running sum is that sum, bit for bit
    cutoff = distributions._HARMONIC_SUM_MAX
    total = 0.0
    for m in range(1, cutoff + 1):
        total += 1.0 / m
        assert distributions._harmonic(m) == total
    assert true_beta(EXP1, 1) == (1.0 + 0.5) / 2 and true_beta(EXP1, 2) == (1.5 + 1 / 3) / 3
    assert distributions._harmonic(cutoff + 1) == distributions._harmonic_series(cutoff + 1)


def test_sum_and_series_agree_at_the_harmonic_cutoff():
    cutoff = distributions._HARMONIC_SUM_MAX
    for m in (cutoff - 1, cutoff, cutoff + 1):
        ref = math.fsum(1.0 / j for j in range(1, m + 1))
        for form in (sum(1.0 / j for j in range(1, m + 1)), distributions._harmonic_series(m)):
            assert abs(form - ref) <= 1e-15 * ref


def test_exponential_moments_of_huge_order_take_bounded_time():
    start = time.perf_counter()
    beta = true_beta(EXP1, 10**300)
    assert time.perf_counter() - start < 0.5
    # H_m = ln m + gamma + O(1/m), and ln(1e300) + gamma = 691.35...
    assert beta == pytest.approx((300 * math.log(10) + 0.5772156649015329) / 1e300, rel=1e-15)
    assert true_beta(DistSpec("exponential", 2.0), 10**6) == pytest.approx(
        2.0 * math.fsum(1.0 / j for j in range(1, 10**6 + 2)) / (10**6 + 1), rel=1e-15)


@pytest.mark.parametrize("family", ["exponential", "normal", "lognormal", "constant"])
def test_true_beta_rejects_an_order_beyond_the_float_range(family):
    # 10**400 would overflow float(), so every family refuses it up front,
    # and so does the largest order whose r + 1 overflows
    with pytest.raises(PwmInputError, match="must be below 2\\*\\*1024"):
        true_beta(DistSpec(family, 1.0), 10**400)
    with pytest.raises(PwmInputError, match="must be below 2\\*\\*1024"):
        true_beta(DistSpec(family, 1.0), 2**1024)
    with pytest.raises(PwmInputError, match="must be below 2\\*\\*1024"):
        true_beta(DistSpec(family, 1.0), 2**1024 - 2**970 - 1)


def test_chi2_cdf_known_points():
    assert chi2_1_cdf(0.0) == 0.0
    assert chi2_1_cdf(2.3) == pytest.approx(0.8706260011637019, rel=1e-12)
    assert chi2_1_cdf(3.841458820694124) == pytest.approx(0.95, abs=1e-12)


def test_chi2_quantile_frozen_goldens():
    assert chi2_1_quantile(0.90) == pytest.approx(2.705543454095404, rel=1e-12)
    assert chi2_1_quantile(0.95) == pytest.approx(3.841458820694124, rel=1e-12)
    assert chi2_1_quantile(0.99) == pytest.approx(6.6348966010212145, rel=1e-12)


def test_chi2_quantile_matches_erfinv_closed_form():
    # the stdlib route equals 2 * erfinv(p)**2 bit for bit at p = 0.90 and
    # 0.95, and to rtol 1e-14 from 1e-12 to 1 - 1e-9
    for p in (0.90, 0.95):
        assert chi2_1_quantile(p) == 2.0 * float(scipy.special.erfinv(p)) ** 2
    ps = np.concatenate((np.geomspace(1e-12, 1e-2, 200), np.linspace(0.01, 0.99, 400),
                         1.0 - np.geomspace(1e-2, 1e-9, 200)))
    ours = np.array([chi2_1_quantile(p) for p in ps])
    np.testing.assert_allclose(ours, 2.0 * scipy.special.erfinv(ps) ** 2, rtol=1e-14, atol=0)


def test_chi2_against_scipy_grid():
    ps = np.linspace(0.01, 0.999, 37)
    ours = np.array([chi2_1_quantile(p) for p in ps])
    ref = scipy.stats.chi2.ppf(ps, 1)
    np.testing.assert_allclose(ours, ref, rtol=1e-10)
    np.testing.assert_allclose(
        [chi2_1_cdf(x) for x in ref], scipy.stats.chi2.cdf(ref, 1), rtol=0, atol=1e-12
    )


def test_chi2_roundtrip():
    for p in (0.05, 0.3, 0.5, 0.9, 0.95, 0.995):
        assert chi2_1_cdf(chi2_1_quantile(p)) == pytest.approx(p, abs=1e-10)


def test_chi2_quantile_domain():
    for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(PwmInputError):
            chi2_1_quantile(bad)


def test_rng_reproducible_and_open_interval():
    a = sample(EXP1, 1000, make_rng(123))
    b = sample(EXP1, 1000, make_rng(123))
    np.testing.assert_array_equal(a, b)
    c = sample(EXP1, 1000, make_rng(124))
    assert not np.array_equal(a, c)
    assert np.all(a > 0)  # exp draws never hit 0 (open-interval uniforms)


def test_open_uniforms_are_the_bits_of_the_integer_formula():
    # random() is (next64 >> 11)·2^-53 and integers(0, 2**53) is next64 >> 11
    for seed in range(400):
        for n in (1, 2, 3, 25, 300, 603):
            got = distributions._uniform_open(make_rng(seed), n)
            old = (make_rng(seed).integers(0, 1 << 53, size=n, dtype=np.int64) + 0.5) * 2.0**-53
            assert got.tobytes() == old.tobytes()
    assert distributions._uniform_open(make_rng(0), 1).shape == (1,)


class _TopDraws:
    """A generator whose ``random`` gives its largest value, (2^53 - 1)·2^-53."""

    def random(self, n):
        return np.full(n, (2**53 - 1) * 2.0**-53)


def test_the_top_draw_stays_below_one():
    # the integer formula would give 1.0, where exponential draws are -0.0
    # and normal and lognormal ones infinite
    assert distributions._uniform_open(_TopDraws(), 3).tolist() == [1.0 - 2.0**-53] * 3
    for dist in (EXP1, DistSpec("normal", 2.0), DistSpec("lognormal", 1.5)):
        x = sample(dist, 3, _TopDraws())
        assert np.all(np.isfinite(x)) and np.all(x > 0.0)
        assert x.tolist() == [x[0]] * 3
    assert sample(EXP1, 1, _TopDraws())[0] == 2.0**-53


def test_sampling_hits_the_right_medians():
    # empirical cdf at the true median is binomial(n, 1/2); 4 sigma band
    n = 20000
    tol = 4 * 0.5 / math.sqrt(n)
    cases = [
        (EXP1, math.log(2.0)),
        (DistSpec("exponential", 3.0), 3.0 * math.log(2.0)),
        (DistSpec("normal", 2.0), 0.0),
        (DistSpec("lognormal", 1.5), 1.0),
    ]
    for dist, med in cases:
        x = sample(dist, n, make_rng(2024))
        frac = float(np.mean(x <= med))
        assert abs(frac - 0.5) < tol, (dist.label, frac)


def test_sampling_moments():
    n = 40000
    x = sample(EXP1, n, make_rng(8))
    assert x.mean() == pytest.approx(1.0, abs=5.0 / math.sqrt(n))
    assert x.var() == pytest.approx(1.0, abs=0.08)
    z = sample(DistSpec("normal", 2.0), n, make_rng(9))
    assert z.mean() == pytest.approx(0.0, abs=5 * 2.0 / math.sqrt(n))
    assert z.std() == pytest.approx(2.0, abs=0.05)


def test_sampling_constant_family():
    x = sample(DistSpec("constant", 4.2), 17, make_rng(0))
    assert np.all(x == 4.2)


def test_sample_size_validation():
    # a bool is no count, as in every other integer check of the package
    for n in (0, True, False):
        with pytest.raises(PwmInputError, match=f"^sample size must be a positive integer, got {n}$"):
            sample(EXP1, n, make_rng(0))


def test_sigma_sq_matches_pseudo_value_spread():
    # n * Var(jackknife mean) -> sigma^2; check the Monte Carlo average of
    # the plug-in spread S against the exact 7/12 at n = 400
    from pwmjel import jackknife_pseudo_values

    rng = make_rng(31)
    vals = []
    for _ in range(200):
        x = sample(EXP1, 400, rng)
        pv = jackknife_pseudo_values(x, 1)
        vals.append(pv.values.var())
    got = float(np.mean(vals))
    want = 7.0 / 12.0
    # 200 reps of a ~chi^2-shaped statistic: generous 5% band
    assert abs(got - want) / want < 0.05, got


def test_quadrature_failure_is_reported():
    # Phi(y + 1)**(10**5) climbs from 0 to 1 within a few steps of the rule,
    # which then differs from its every-other-node half by about 3e-11
    # relative; at r = 50 the two agree to rounding
    d = DistSpec("lognormal", 1.0)
    with pytest.raises(NumericError, match="trapezoid rule and its half differ"):
        true_beta(d, 10**5)
    assert math.isfinite(true_beta(d, 50))
