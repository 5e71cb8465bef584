import math
import warnings

import numpy as np
import pytest

from lineclust import profiles
from lineclust.errors import ConfigurationError
from lineclust.geometry import segment
from lineclust.oracle import simpson_integral
from lineclust.profiles import (
    QUAD_REL_TOL,
    Profile,
    adaptive_quadrature,
    density,
    effective_window,
    exact_volume_scaling_factor,
    format_profile,
    neighbourhood_volume,
    parse_profile,
    peak_density,
    scaling_factor,
    unit_ball_volume,
)


FAMILIES = ["uniform", "normal", "ellipsoidal", "gamma", "beta", "exponential"]


def random_profile(rng, fam=None) -> Profile:
    fam = fam or rng.choice(FAMILIES)
    if fam == "uniform":
        a = rng.uniform(-2, 0.5)
        return Profile.uniform(a, a + rng.uniform(0.2, 3))
    if fam == "normal":
        return Profile.normal(rng.uniform(-1, 2), rng.uniform(0.01, 1.0))
    if fam == "ellipsoidal":
        return Profile.ellipsoidal(rng.uniform(0.2, 3), rng.uniform(0.1, 5))
    if fam == "gamma":
        return Profile.gamma(rng.uniform(1, 6), rng.uniform(0.5, 8))
    if fam == "beta":
        return Profile.beta(rng.uniform(1, 6), rng.uniform(1, 6))
    return Profile.exponential(rng.uniform(0.3, 8))


class TestDensity:
    def test_uniform_values(self):
        u = Profile.uniform(0, 1)
        assert density(u, 0.5) == 1.0
        assert density(u, 2.0) == 0.0
        assert density(u, 0.0) == 1.0

    def test_normal_mode_value(self):
        p = Profile.normal(0.5, 0.01)
        assert density(p, 0.5) == pytest.approx(1.0 / (0.1 * math.sqrt(2 * math.pi)))

    @pytest.mark.parametrize("p", [Profile.gamma(200, 100), Profile.gamma(100, 0.05),
                                   Profile.beta(600, 600)])
    def test_large_shapes_stay_finite(self, p):
        # a normaliser or a power term overflows or underflows a float here,
        # though the density they multiply to is moderate
        peak = density(p, p.mode())
        assert math.isfinite(peak) and peak > 0.0
        lo, hi = effective_window(p)
        assert adaptive_quadrature(p.pdf, lo, hi) == pytest.approx(1.0, abs=1e-5)

    def test_beta_log_space_matches_the_plain_product(self, monkeypatch):
        rng = np.random.default_rng(43)
        t = np.linspace(0.0, 1.0, 1001)
        for _ in range(30):
            p = Profile.beta(rng.uniform(1, 60), rng.uniform(1, 60))
            plain = p.pdf(t)
            with monkeypatch.context() as patch:
                patch.setattr(profiles, "BETA_LOG_NORM_MAX", -math.inf)
                logged = p.pdf(t)
            assert logged == pytest.approx(plain, rel=1e-12, abs=1e-300)

    def test_gamma_shape_one_is_exponential(self):
        g = Profile.gamma(1.0, 2.0)
        e = Profile.exponential(2.0)
        for t in (0.0, 0.1, 0.5, 3.0):
            assert density(g, t) == pytest.approx(density(e, t))

    def test_zero_outside_support(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            p = random_profile(rng)
            lo, hi = p.support()
            if math.isfinite(lo):
                assert density(p, lo - 0.5) == 0.0
            if math.isfinite(hi):
                assert density(p, hi + 0.5) == 0.0

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    @pytest.mark.parametrize("p", [Profile.uniform(-1.0, 2.0), Profile.normal(0.5, 0.04),
                                   Profile.ellipsoidal(1.5, 1.0), Profile.gamma(2.0, 1.0),
                                   Profile.beta(2.0, 3.0), Profile.exponential(2.0)],
                             ids=FAMILIES)
    def test_zero_at_infinity(self, p, t):
        # gamma with shape > 1 once read (k - 1) log t - lam t = inf - inf there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert density(p, t) == 0.0
            assert p.pdf(np.array([t, 0.5, -t])).tolist()[::2] == [0.0, 0.0]

    def test_continuity_on_support(self):
        # finite-difference continuity with a step much smaller than the
        # local slope scale
        rng = np.random.default_rng(17)
        h = 1e-7
        for _ in range(100):
            p = random_profile(rng)
            lo, hi = effective_window(p, 1e-3)
            t = rng.uniform(lo + 1e-3, hi - 1e-3)
            slope = abs(density(p, t + 1e-4) - density(p, t - 1e-4)) / 2e-4
            assert abs(density(p, t + h) - density(p, t)) <= (slope + 1.0) * h * 10


class TestSupportAndWindow:
    def test_supports(self):
        assert Profile.uniform(0, 1).support() == (0.0, 1.0)
        assert Profile.exponential(2).support() == (0.0, math.inf)
        assert Profile.normal(0, 1).support() == (-math.inf, math.inf)
        assert Profile.beta(2, 3).support() == (0.0, 1.0)
        assert Profile.ellipsoidal(1.5, 1).support() == (-1.5, 1.5)
        assert Profile.gamma(2, 1).support() == (0.0, math.inf)

    def test_bounded_window_is_support(self):
        assert effective_window(Profile.uniform(0, 1), 1e-6) == (0.0, 1.0)
        assert effective_window(Profile.beta(2, 2), 1e-6) == (0.0, 1.0)
        assert effective_window(Profile.ellipsoidal(1.5, 1), 1e-6) == (-1.5, 1.5)

    def test_normal_window_matches_cdf_inversion(self):
        # eps = Phi(-2) puts the window at +/- 2 sigma
        eps = 0.5 * math.erfc(2.0 / math.sqrt(2.0))
        lo, hi = effective_window(Profile.normal(0, 1), eps)
        assert lo == pytest.approx(-2.0, abs=1e-9)
        assert hi == pytest.approx(2.0, abs=1e-9)

    def test_exponential_window_analytic(self):
        # one-sided: the window keeps the end at 0, the mode, and cuts an
        # upper tail of mass eps
        lam = 3.0
        eps = 1e-4
        lo, hi = effective_window(Profile.exponential(lam), eps)
        assert lo == 0.0
        assert hi == pytest.approx(-math.log(eps) / lam)

    def test_gamma_window_cuts_eps_from_the_upper_tail(self):
        # checked against Simpson integrals of the pdf, not through gammaincinv;
        # the gamma mass beyond hi + (60 + 10k) / rate is negligible
        eps = 1e-3
        rng = np.random.default_rng(31)
        for _ in range(200):
            k, rate = rng.uniform(1, 10), rng.uniform(0.2, 10)
            p = Profile.gamma(k, rate)
            lo, hi = effective_window(p, eps)
            assert lo == 0.0
            assert simpson_integral(p.pdf, hi, hi + (60 + 10 * k) / rate) == pytest.approx(
                eps, abs=1e-6)

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            effective_window(Profile.normal(0, 1), 0.7)

    def test_normalization_over_window(self):
        # mass inside the 1e-9 window is 1 up to the quantile truncation
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = random_profile(rng)
            lo, hi = effective_window(p, 1e-9)
            mass = adaptive_quadrature(p.pdf, lo, hi)
            assert 1.0 - 1e-6 <= mass <= 1.0 + 1e-9

    def test_peak_density_matches_dense_scan(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            p = random_profile(rng)
            lo, hi = effective_window(p)
            ts = np.linspace(lo, hi, 20001)
            scan = float(p.pdf(ts).max())
            assert peak_density(p, lo, hi) >= scan - 1e-9
            assert peak_density(p, lo, hi) <= scan * (1 + 1e-6) + 1e-12


class TestParameterValidation:
    @pytest.mark.parametrize("bad", [
        lambda: Profile.uniform(1, 1),
        lambda: Profile.uniform(2, 1),
        lambda: Profile.normal(0, 0),
        lambda: Profile.normal(0, -1),
        lambda: Profile.ellipsoidal(0, 1),
        lambda: Profile.ellipsoidal(1, 0),
        lambda: Profile.gamma(0.5, 1),   # unbounded density
        lambda: Profile.gamma(2, 0),
        lambda: Profile.beta(0.9, 2),    # unbounded density
        lambda: Profile.beta(2, 0.5),
        lambda: Profile.exponential(0),
    ])
    def test_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            bad()

    @pytest.mark.parametrize("family, params", [
        ("normal", (math.nan, 0.04)),
        ("normal", (0.5, math.inf)),
        ("uniform", (0.0, math.inf)),
        ("uniform", (-math.inf, 0.0)),
        ("ellipsoidal", (1.0, math.nan)),
        ("gamma", (2.0, math.inf)),
        ("beta", (math.inf, 2.0)),
        ("exponential", (math.nan,)),
    ])
    def test_non_finite_parameters_rejected(self, family, params):
        with pytest.raises(ConfigurationError, match="must be finite"):
            Profile(family, params)
        text = f"{family}:" + ",".join(str(v) for v in params)
        with pytest.raises(ConfigurationError, match="must be finite"):
            parse_profile(text)


class TestTextForm:
    def test_parse_case_insensitive(self):
        p = parse_profile("Normal:0.5,0.01")
        assert p == Profile.normal(0.5, 0.01)
        assert parse_profile("UNIFORM:-4,4") == Profile.uniform(-4, 4)
        assert parse_profile("exponential:2") == Profile.exponential(2)

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = random_profile(rng)
            assert parse_profile(format_profile(p)) == p

    @pytest.mark.parametrize("text", ["nope:1,2", "uniform", "uniform:", "normal:a,b"])
    def test_bad_text(self, text):
        with pytest.raises(ConfigurationError):
            parse_profile(text)


class TestUnitBall:
    def test_known_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-12)
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-12)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, abs=1e-12)

    def test_recurrence(self):
        # V_m = V_{m-2} * 2 pi / m
        for m in range(3, 12):
            assert unit_ball_volume(m) == pytest.approx(
                unit_ball_volume(m - 2) * 2 * math.pi / m)

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestQuadrature:
    def test_polynomial_exact(self):
        assert adaptive_quadrature(lambda t: t ** 3, 0, 2) == pytest.approx(4.0)

    def test_oscillatory(self):
        val = adaptive_quadrature(np.sin, 0, 10 * math.pi)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_relative_tolerance(self):
        val = adaptive_quadrature(lambda t: np.exp(-t * t), -8, 8)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-8)


class TestVolumes:
    def test_uniform_rectangle(self):
        v = neighbourhood_volume(Profile.uniform(0, 1), segment((0, 0), (1, 0)), 2)
        assert v == pytest.approx(2.0, abs=1e-9)

    def test_uniform_cylinder(self):
        v = neighbourhood_volume(Profile.uniform(0, 1), segment((0, 0, 0), (1, 0, 0)), 3)
        assert v == pytest.approx(math.pi, abs=1e-9)

    def test_normal_mass_in_2d(self):
        # in 2-d the swept area is 2 L times the density mass in the window
        L = 1.0
        v = neighbourhood_volume(Profile.normal(0.5, 0.04), segment((0, 0), (L, 0)), 2)
        assert v == pytest.approx(2 * L * (1 - 2e-6), abs=1e-4)
        lo, hi = effective_window(Profile.normal(0.5, 0.04))
        oracle = 2 * L * simpson_integral(Profile.normal(0.5, 0.04).pdf, lo, hi)
        assert v == pytest.approx(oracle, abs=1e-4)

    def test_scale_power_law(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            p = random_profile(rng)
            n = int(rng.integers(2, 5))
            seg = segment(rng.uniform(-3, 3, n), rng.uniform(-3, 3, n))
            if seg.is_degenerate:
                continue
            alpha = rng.uniform(0.2, 4)
            base = neighbourhood_volume(p, seg, n, 1.0)
            scaled = neighbourhood_volume(p, seg, n, alpha)
            assert scaled == pytest.approx(alpha ** (n - 1) * base, rel=1e-6)

    def test_scaling_factor_ratio(self):
        u = Profile.uniform(0, 1)
        seg = segment((0, 0), (1, 0))
        assert scaling_factor(4.0, u, seg, 2) == pytest.approx(2.0, rel=1e-9)
        seg3 = segment((0, 0, 0), (1, 0, 0))
        assert scaling_factor(math.pi, u, seg3, 3) == pytest.approx(1.0, rel=1e-9)

    def test_2d_scaling_is_volume_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            p = random_profile(rng)
            seg = segment(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2))
            if seg.is_degenerate:
                continue
            V = rng.uniform(0.5, 5)
            alpha = scaling_factor(V, p, seg, 2)
            assert neighbourhood_volume(p, seg, 2, alpha) == pytest.approx(V, abs=1e-6)

    def test_exact_volume_mode_in_higher_dim(self):
        p = Profile.normal(0.5, 0.09)
        seg = segment((0, 0, 0), (2, 1, 0))
        V = 3.0
        alpha = exact_volume_scaling_factor(V, p, seg, 3)
        assert neighbourhood_volume(p, seg, 3, alpha) == pytest.approx(V, rel=1e-6)

    def test_volume_monotone_in_height(self):
        seg = segment((0, 0), (1, 0))
        lo = neighbourhood_volume(Profile.uniform(0, 1), seg, 3, 1.0)
        hi = neighbourhood_volume(Profile.uniform(0, 1), seg, 3, 2.0)
        assert hi > lo

    @pytest.mark.parametrize("p", [Profile.gamma(200, 100), Profile.beta(600, 600)])
    def test_large_shapes_match_quadrature(self, p):
        seg = segment((0, 0, 0), (0, 2, 0))
        lo, hi = effective_window(p)
        ref = unit_ball_volume(2) * 2.0 * adaptive_quadrature(lambda t: p.pdf(t) ** 2, lo, hi)
        assert neighbourhood_volume(p, seg, 3) == pytest.approx(ref, rel=QUAD_REL_TOL)

    def test_overflowing_volume_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            neighbourhood_volume(Profile.uniform(0, 1), segment((0, 0, 0), (1, 0, 0)), 3, 1e300)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            neighbourhood_volume(Profile.uniform(0, 1), segment((1, 1), (1, 1)), 2)

    def test_n_one_rejected(self):
        with pytest.raises(ValueError):
            neighbourhood_volume(Profile.uniform(0, 1), segment((0, 0), (1, 0)), 1)


class TestClosedFormVolumes:
    """neighbourhood_volume's closed-form integrals of f^m against numerical
    references over the same effective window, in n = m + 1 dimensions."""

    @staticmethod
    def _cases(family, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            p = random_profile(rng, family)
            for m in (1, 2, 6):
                arc = rng.uniform(0.5, 4)
                seg = segment(np.zeros(m + 1), np.r_[arc, np.zeros(m)])
                lo, hi = effective_window(p)
                yield (p, m, lo, hi, unit_ball_volume(m) * arc,
                       neighbourhood_volume(p, seg, m + 1))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_against_adaptive_quadrature(self, family):
        for p, m, lo, hi, factor, vol in self._cases(family, 53):
            ref = factor * adaptive_quadrature(lambda t: p.pdf(t) ** m, lo, hi)
            assert vol == pytest.approx(ref, rel=QUAD_REL_TOL), (p, m)

    @pytest.mark.parametrize("family", ["uniform", "normal", "exponential"])
    def test_against_simpson(self, family):
        # 16384 panels keep Simpson's own error on e^(-6 rate t) near 4e-12
        for p, m, lo, hi, factor, vol in self._cases(family, 59):
            ref = factor * simpson_integral(lambda t: p.pdf(t) ** m, lo, hi, panels=16384)
            assert vol == pytest.approx(ref, rel=1e-9), (p, m)
