"""The frequency-localized decay inequality: both sides, regimes, thresholds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frequalize.besov import BesovSpec, besov_norm, half_lattice_besov
from frequalize.decay_kernel import (
    DecayParams,
    DissipRate,
    euler_maxwell_rate,
    gamma_factor,
    profile_lattice_sup,
    rhs_time_factors,
    tail_divergence_scan,
    tail_integral,
    verify_inequality,
)
from frequalize.errors import BlockWeightError, ConfigError, HypothesisError
from frequalize.grid import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    forward_transform,
    gaussian_bump,
    half_lattice_forward,
    half_lattice_inverse,
    inverse_transform,
    random_band_limited_field,
)
from frequalize.io import dump_field, load_field
from frequalize.littlewood_paley import block_indices, phi
from test_shell_spectrum import PROPERTY, cubic_grids, full_lattice_xi


def profile_peak(power: float, sigma: float, c: float) -> float:
    """Closed form of max over x > 0 of x^power exp(-c x^sigma) (power, sigma, c > 0)."""
    return (power / (c * sigma * math.e)) ** (power / sigma)


def lhs_at(f, times, s, alpha, rate):
    """The blockwise kernel-damped norm at each time, as verify_inequality reports it
    (ell, rho and r enter only the right-hand side)."""
    params = DecayParams(s=s, ell=2.0, rho=1.5, r=2.0, alpha=alpha)
    return verify_inequality(f, times, params, rate).lhs


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(99)


@pytest.fixture(scope="module")
def gauss3d():
    grid = TorusGrid(dim=3, box_length=64.0, points_per_axis=48)
    return gaussian_bump(grid, 1.0)


class TestRates:
    def test_em_rate_values(self):
        rate = euler_maxwell_rate()
        assert rate.eta(1.0) == pytest.approx(0.25)
        assert rate.eta(10.0) == pytest.approx(100.0 / 101.0**2)
        assert rate.eta(10.0) == pytest.approx(9.80e-3, rel=1e-3)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, 0.5), (0.0, 2.0)])
    def test_rate_outside_regularity_loss_family_rejected(self, a, b):
        # b = a is the no-loss edge (sigma2 = 0) and b < a a rate growing at high frequency
        with pytest.raises(ConfigError, match="0 < a < b"):
            DissipRate.from_ab(a, b)

    def test_non_positive_sigma_rejected(self):
        flat = lambda r: np.ones_like(np.asarray(r, float))  # noqa: E731
        with pytest.raises(ConfigError, match="sigma2 > 0"):
            DissipRate(sigma1=2.0, sigma2=0.0, profile=flat)

    def test_split_constants_em(self):
        rate = euler_maxwell_rate()
        c_low, c_high = rate.split_constants(1.0)
        # eta0 / rho^2 = (1+rho^2)^-2 has infimum 1/4 on (0, 1];
        # eta0 * rho^2 = (rho^2/(1+rho^2))^2 has infimum 1/4 on [1, inf)
        assert c_low == pytest.approx(0.25, rel=1e-3)
        assert c_high == pytest.approx(0.25, rel=1e-3)

    def test_gamma_exact_rationals(self):
        assert gamma_factor(3, 2.0, 1.0, 2.0) == pytest.approx(0.75)
        assert gamma_factor(3, 2.0, 2.0, 2.0) == 0.0
        assert gamma_factor(1, 4.0, 1.0, 2.0) == pytest.approx(0.125)


class TestParams:
    def test_valid(self):
        DecayParams(s=0.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0).check(3)
        DecayParams(s=0.0, ell=1.6, rho=1.5, r=1.0, alpha=2.0).check(3)

    def test_marginal_ell_admitted(self):
        # the r=1 regime of the dissipation analysis sits exactly at the
        # threshold ell = n(1/r - 1/2); it must be accepted
        DecayParams(s=0.0, ell=1.5, rho=1.5, r=1.0, alpha=2.0).check(3)

    def test_violations_named(self):
        with pytest.raises(HypothesisError, match="s \\+ rho"):
            DecayParams(s=-2.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0).check(3)
        with pytest.raises(HypothesisError, match="ell >= n"):
            DecayParams(s=0.0, ell=1.0, rho=1.5, r=1.0, alpha=2.0).check(3)
        with pytest.raises(HypothesisError, match="ell >= 0"):
            DecayParams(s=0.0, ell=-0.5, rho=1.5, r=2.0, alpha=2.0).check(3)
        with pytest.raises(HypothesisError, match="1 <= r <= 2"):
            DecayParams(s=0.0, ell=2.0, rho=1.5, r=3.0, alpha=2.0).check(3)

    def test_one_threshold_for_check_and_flags(self, gauss3d):
        # n(1/r - 1/2) is exactly 0 at r = 2, so ell = 0 passes the check and is flagged as above it
        assert DecayParams(s=0.0, ell=1.5, rho=1.5, r=1.0, alpha=2.0).ell_threshold(3) == 1.5
        params = DecayParams(s=0.0, ell=0.0, rho=1.5, r=2.0, alpha=2.0)
        flags = verify_inequality(gauss3d, [0.0], params, euler_maxwell_rate()).hypothesis_flags(params)
        assert flags["ell_threshold"] == 0.0 and flags["ell_above_threshold"]


class TestLhs:
    def test_t_zero_reduces_to_besov(self, rng):
        grid = TorusGrid(dim=2, box_length=8.0, points_per_axis=32)
        f = random_band_limited_field(grid, 1, rng)
        rate = euler_maxwell_rate()
        for s, alpha in ((0.0, 2.0), (1.5, 1.0), (-0.5, math.inf)):
            want = besov_norm(f, BesovSpec(s, 2.0, alpha, True)).value
            assert lhs_at(f, [0.0], s, alpha, rate)[0] == pytest.approx(want, rel=1e-12)

    def test_single_shell_constant_rate_factorizes(self):
        grid = TorusGrid(dim=3, box_length=2 * np.pi, points_per_axis=32)
        coeffs = np.zeros(grid.shape, dtype=complex)
        coeffs[5, 2, 1] = 0.5 * grid.volume
        coeffs[-5, -2, -1] = 0.5 * grid.volume
        f = inverse_transform(SpectralField(grid, coeffs))
        c = 0.3
        flat = DissipRate(sigma1=2.0, sigma2=2.0, profile=lambda r: np.full_like(np.asarray(r, float), c))
        ts = [0.0, 0.5, 2.0, 7.0]
        lhs = lhs_at(f, ts, 1.0, 2.0, flat)
        for t, value in zip(ts[1:], lhs[1:]):
            assert value == pytest.approx(lhs[0] * math.exp(-c * t), rel=1e-12)

    def test_matches_per_coefficient_oracle(self, rng):
        grid = TorusGrid(dim=3, box_length=6.0, points_per_axis=16)
        f = random_band_limited_field(grid, 1, rng)
        rate = euler_maxwell_rate()
        t, s, alpha = 10.0, 0.5, 2.0
        g = forward_transform(f)
        mag = full_lattice_xi(grid)[1]
        damp = np.exp(-rate.eta(mag) * t)
        vals = []
        for q in block_indices(grid).tolist():
            w = phi(mag / 2.0**q) * damp
            term = math.sqrt(float(np.sum(w**2 * np.abs(g.coefficients[0]) ** 2)) / grid.volume)
            if term > 0:
                vals.append(2.0 ** (q * s) * term)
        oracle = math.sqrt(sum(v**2 for v in vals))
        assert lhs_at(f, [t], s, alpha, rate)[0] == pytest.approx(oracle, rel=1e-12)

    def test_monotone_in_time(self, gauss3d):
        rate = euler_maxwell_rate()
        ts = [0.0, 0.3, 1.0, 4.0, 20.0, 100.0]
        vals = lhs_at(gauss3d, ts, 0.0, 2.0, rate)
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestRhs:
    def test_time_exponents_first_parameter_set(self, gauss3d):
        # (r, alpha, s, rho, ell) = (2, 2, 0, 3/2, 2): low decays like
        # (1+t)^-3/4 and high like (1+t)^-1
        params = DecayParams(s=0.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0)
        rate = euler_maxwell_rate()
        ts = [0.0, 1.0, 10.0, 100.0]
        rep = verify_inequality(gauss3d, ts, params, rate)
        for t, low, high in zip(ts[1:], rep.low[1:], rep.high[1:]):
            assert low / rep.low[0] == pytest.approx((1 + t) ** -0.75, rel=1e-12)
            assert high / rep.high[0] == pytest.approx((1 + t) ** -1.0, rel=1e-12)

    def test_stationary_high_frequency_exponent_at_r_one(self, gauss3d):
        # r=1, n=3, sigma2=2, ell=3/2: exponent -ell/2 + (3/2)(1 - 1/2) = 0
        params = DecayParams(s=0.0, ell=1.5, rho=1.5, r=1.0, alpha=2.0)
        rate = euler_maxwell_rate()
        assert -params.ell / rate.sigma2 + gamma_factor(3, rate.sigma2, params.r) == pytest.approx(0.0)
        high0, high1 = verify_inequality(gauss3d, [0.0, 50.0], params, rate).high
        assert high1 == pytest.approx(high0, rel=1e-12)

    def test_origin_consistency(self, gauss3d):
        params = DecayParams(s=0.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0)
        rate = euler_maxwell_rate()
        rep = verify_inequality(gauss3d, [0.0], params, rate)
        measured_c = rep.lhs[0] / (rep.low[0] + rep.high[0])
        assert 0.0 < measured_c < math.inf

    def test_hypothesis_violation_raises(self, gauss3d):
        rate = euler_maxwell_rate()
        with pytest.raises(HypothesisError):
            verify_inequality(gauss3d, [1.0], DecayParams(s=0.0, ell=1.0, rho=1.5, r=1.0, alpha=2.0), rate)


class TestVerify:
    def test_gaussian_finite_sup(self, gauss3d):
        params = DecayParams(s=0.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0)
        rep = verify_inequality(gauss3d, [0.0, 0.1, 1.0, 10.0, 100.0], params, euler_maxwell_rate())
        assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
        flags = rep.hypothesis_flags(params)
        assert flags["ell_above_threshold"] and flags["finite_sup_ratio"]

    def test_high_supported_data_has_no_low_regime(self, rng):
        grid = TorusGrid(dim=3, box_length=16.0, points_per_axis=32)
        f = random_band_limited_field(grid, 1, rng)
        g = forward_transform(f)
        coeffs = g.coefficients * (full_lattice_xi(grid)[1] >= 2.0)
        fh = inverse_transform(SpectralField(grid, coeffs))
        params = DecayParams(s=0.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0, q0=0)
        rep = verify_inequality(fh, [0.0, 1.0, 10.0], params, euler_maxwell_rate())
        assert rep.low_regime_sup is None
        assert rep.high_regime_sup is not None and math.isfinite(rep.high_regime_sup)
        assert math.isfinite(rep.sup_ratio)

    def test_low_shell_ratio_bounded_by_profile_peak(self):
        # single shell far below the split radius: the low-term ratio is
        # controlled by the 1-d profile x^(s+rho) exp(-c x^sigma1)
        grid = TorusGrid(dim=1, box_length=2 * np.pi * 36, points_per_axis=256)
        coeffs = np.zeros(grid.shape, dtype=complex)
        coeffs[6] = 0.5 * grid.volume
        coeffs[-6] = 0.5 * grid.volume  # |xi| = 1/6 = (4/3) 2^-3
        f = inverse_transform(SpectralField(grid, coeffs))
        params = DecayParams(s=0.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0)
        rate = euler_maxwell_rate()
        c_low = rate.split_constants(1.0)[0]
        peak = profile_peak(params.s + params.rho, rate.sigma1, c_low)
        bound = (4.0 / 3.0) ** (params.s + params.rho) * peak
        rep = verify_inequality(f, [50.0, 200.0, 1000.0], params, rate)
        for lhs, low in zip(rep.lhs, rep.low):
            assert lhs / low <= 1.05 * bound

    def test_sup_stable_under_time_extension(self, gauss3d):
        params = DecayParams(s=0.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0)
        rate = euler_maxwell_rate()
        short = verify_inequality(gauss3d, np.geomspace(0.01, 100.0, 20), params, rate)
        longer = verify_inequality(gauss3d, np.geomspace(0.01, 1000.0, 30), params, rate)
        assert longer.sup_ratio <= short.sup_ratio * 1.05

    @pytest.mark.parametrize("r,forward,inverse", [(1.0, 1, 8), (2.0, 1, 0)])
    def test_one_transform_per_input_and_block(self, gauss3d, monkeypatch, r, forward, inverse):
        # one half-lattice forward transform of the input, and at r != 2 one half-lattice
        # inverse per block and component (8 here: one component)
        from frequalize import besov
        from frequalize import grid as grid_module

        counts = {"forward": 0, "inverse": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(grid_module, "half_lattice_forward", counting("forward", half_lattice_forward))
        monkeypatch.setattr(besov, "half_lattice_inverse", counting("inverse", half_lattice_inverse))
        params = DecayParams(s=0.0, ell=1.5 if r == 1.0 else 2.0, rho=1.5, r=r, alpha=2.0)
        rep = verify_inequality(gauss3d, [0.0, 1.0, 10.0], params, euler_maxwell_rate())
        assert counts == {"forward": forward, "inverse": inverse}
        assert block_indices(gauss3d.grid).size == 8
        # the high data norm read off the shared block norms is bit-identical to the direct one
        # (its time factor is 1 at t = 0)
        direct = besov_norm(gauss3d, BesovSpec(params.s + params.ell, r, params.alpha, True)).value
        assert rep.high[0] == direct

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_one_shell_spectrum_per_input(self, gauss3d, monkeypatch, r):
        # at r = 2 the L^r blocks are the L^2 blocks of the verifier's own spectrum; at r != 2 the block
        # transforms read none
        from frequalize import besov, decay_kernel

        calls = []
        for module in (besov, decay_kernel):
            def counting(*args, _fn=module.half_lattice_spectrum):
                calls.append(args)
                return _fn(*args)

            monkeypatch.setattr(module, "half_lattice_spectrum", counting)
        params = DecayParams(s=0.0, ell=1.5 if r == 1.0 else 2.0, rho=1.5, r=r, alpha=2.0)
        verify_inequality(gauss3d, [0.0, 1.0, 10.0], params, euler_maxwell_rate())
        assert len(calls) == 1

    @PROPERTY
    @given(cubic_grids(), st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(0.1, 3.0))
    def test_low_term_is_the_negative_order_norm(self, grid, components, seed, rho):
        # the data's B^-rho_(2,inf) norm, read off the live L^2 blocks of the verifier's one
        # spectrum, is the one half_lattice_besov computes, bit for bit
        values = np.random.default_rng(seed).standard_normal((components,) + grid.shape)
        params = DecayParams(s=0.0, ell=2.0, rho=rho, r=2.0, alpha=2.0)
        rate, times = euler_maxwell_rate(), np.array([0.0, 1.0, 10.0])
        rep = verify_inequality(PhysicalField(grid, values), times, params, rate)
        half = half_lattice_forward(grid, values)
        norm = half_lattice_besov(grid, half, BesovSpec(-rho, 2.0, math.inf, True)).value
        assert np.array_equal(rep.low, rhs_time_factors(times, params, rate, grid.dim)[0] * norm)

    def test_loaded_samples_are_released_before_the_block_transforms(self, tmp_path):
        # verify_inequality drops its argument once the half lattice exists: at r = 1 the half
        # lattice (about 3.1 component-sized arrays) and the block route's buffers stay under 9
        # arrays, and the 3-component samples of a caller's only reference would add 3 more
        grid = TorusGrid(dim=3, box_length=64.0, points_per_axis=48)
        path = tmp_path / "field.fqlz"
        dump_field(random_band_limited_field(grid, 3, np.random.default_rng(48)), path)
        params = DecayParams(s=0.0, ell=1.5, rho=1.5, r=1.0, alpha=2.0)
        verify_inequality(load_field(path), [0.0, 1.0], params, euler_maxwell_rate())  # tables built once
        tracemalloc.start()
        try:
            verify_inequality(load_field(path), [0.0, 1.0], params, euler_maxwell_rate())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * np.prod(grid.shape) * 8

    def test_zero_field_reports_zero_ratio(self):
        grid = TorusGrid(dim=2, box_length=8.0, points_per_axis=16)
        z = PhysicalField(grid, np.zeros(grid.shape))
        params = DecayParams(s=0.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0)
        rep = verify_inequality(z, [0.0, 1.0], params, euler_maxwell_rate())
        assert rep.sup_ratio == 0.0

    def test_empty_time_grid_rejected(self, gauss3d):
        params = DecayParams(s=0.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0)
        with pytest.raises(ConfigError):
            verify_inequality(gauss3d, [], params, euler_maxwell_rate())

    def test_profile_lattice_sup_close_to_analytic_peak(self):
        peak = profile_peak(1.5, 2.0, 0.25)
        measured = profile_lattice_sup(1.5, 2.0, 0.25, math.inf, np.geomspace(0.1, 100, 25))
        assert measured <= peak * (1 + 1e-9)
        assert measured >= 0.5 * peak

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_profile_lattice_sup_in_logs_past_the_power_range(self):
        # x^100 overflows on the lattice's top blocks (x up to 2^80 tau) where exp(-c x^2) is 0: formed in
        # logs, every term is finite, and the sup still meets the analytic peak
        peak = profile_peak(100.0, 2.0, 0.25)
        measured = profile_lattice_sup(100.0, 2.0, 0.25, math.inf, np.geomspace(0.1, 100, 25))
        assert math.isfinite(peak) and 0.5 * peak <= measured <= peak * (1 + 1e-9)
        with pytest.raises(BlockWeightError, match="profile sup at power s \\+ rho = 2001.5 passes the float range"):
            profile_lattice_sup(2001.5, 2.0, 0.25, 2.0, [0.5, 1.0])


class TestTailIntegral:
    def test_valid_ell_converges(self):
        rate = euler_maxwell_rate()
        scan = tail_divergence_scan(1.6, 1.0, rate, t=4.0, n=3)
        assert not scan.diverging
        assert scan.growth_exponent < 0.05
        well_inside = tail_divergence_scan(2.5, 1.0, rate, t=4.0, n=3)
        assert well_inside.values[-1] == pytest.approx(well_inside.values[-2], rel=1e-3)

    def test_threshold_violation_detected(self):
        rate = euler_maxwell_rate()
        scan = tail_divergence_scan(1.0, 1.0, rate, t=4.0, n=3)
        assert scan.diverging
        # power-law growth: integrand tail rho^(n - 1 - ell m) with m=2
        assert scan.growth_exponent == pytest.approx(0.5, abs=0.05)
        assert scan.values[-1] > 2.0 * scan.values[-2]

    def test_raised_split_index_scans_above_it(self):
        # the tail domains start at r0 = 2^q0 and end at r0 * 10^k, so none is reversed
        rate = euler_maxwell_rate()
        scan = tail_divergence_scan(1.5, 1.0, rate, t=4.0, n=3, r0=2.0**4)
        assert all(math.isfinite(v) for v in scan.values)
        assert all(b > a for a, b in zip(scan.values, scan.values[1:]))

    def test_reversed_tail_domain_rejected(self):
        with pytest.raises(ConfigError, match="r_max > r0"):
            tail_integral(2.0, 1.0, euler_maxwell_rate(), 4.0, 3, r0=16.0, r_max=10.0)

    def test_r2_sup_norm_decay_rate(self):
        # for r=2 the tail value is a sup norm decaying like t^(-ell/sigma2)
        rate = euler_maxwell_rate()
        ell = 2.0
        v1 = tail_integral(ell, 2.0, rate, 100.0, 3, r_max=1e4)
        v2 = tail_integral(ell, 2.0, rate, 1000.0, 3, r_max=1e4)
        assert v2 / v1 == pytest.approx(10.0 ** (-ell / rate.sigma2), rel=0.05)

    def test_time_scaling_matches_gamma_for_r_one(self):
        rate = euler_maxwell_rate()
        ell, r, n = 2.0, 1.0, 3
        expo = -ell / rate.sigma2 + gamma_factor(n, rate.sigma2, r)
        v1 = tail_integral(ell, r, rate, 100.0, n, r_max=1e4)
        v2 = tail_integral(ell, r, rate, 1000.0, n, r_max=1e4)
        assert v2 / v1 == pytest.approx(10.0**expo, rel=0.08)
