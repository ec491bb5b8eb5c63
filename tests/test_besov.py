"""Besov / Chemin-Lerner norms and energy functionals."""

import math
import tracemalloc

import numpy as np
import pytest

from frequalize.besov import (
    BesovSpec,
    EnergyFunctionals,
    besov_norm,
    ell_r,
    energy_functionals,
    group_spectra,
    half_lattice_besov,
    negative_norm,
    running_time_norm,
)
from frequalize.decay_kernel import DecayParams, euler_maxwell_rate, verify_inequality
from frequalize.equilibrium import EquilibriumState
from frequalize.errors import ConfigError
from frequalize.grid import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    forward_transform,
    half_lattice_forward,
    inverse_transform,
    lp_norm,
    random_band_limited_field,
)
from frequalize.linear_modes import linear_evolve_grid
from frequalize.littlewood_paley import bernstein_extremes, bernstein_ratios, phi
from test_shell_spectrum import full_lattice_xi


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


def single_shell_field(grid: TorusGrid, q0: int, kvec) -> PhysicalField:
    """Field whose spectrum sits where the level-q0 multiplier equals 1.

    kvec must satisfy |xi| 2^-q0 strictly inside (4/3, 3/2) so neighbouring
    shells vanish there.
    """
    coeffs = np.zeros(grid.shape, dtype=complex)
    idx = tuple(k % grid.points_per_axis for k in kvec)
    conj_idx = tuple((-k) % grid.points_per_axis for k in kvec)
    coeffs[idx] = 0.5 * grid.volume
    coeffs[conj_idx] = 0.5 * grid.volume
    ratio = full_lattice_xi(grid)[1][idx] / 2.0**q0
    assert 4.0 / 3.0 < ratio < 1.5, "test construction: mode must sit on the plateau"
    return inverse_transform(SpectralField(grid, coeffs))


class TestBesovNorm:
    def test_single_shell_is_one_term(self):
        grid = TorusGrid(dim=3, box_length=2 * np.pi, points_per_axis=32)
        f = single_shell_field(grid, 2, (5, 2, 1))  # |xi| = sqrt(30) in (16/3, 6)
        for p in (1.0, 2.0, math.inf):
            for s in (-1.5, 0.0, 2.5):
                rep = besov_norm(f, BesovSpec(s, p, 1.0, True))
                assert list(rep.contributions) == [2]
                assert rep.value == pytest.approx(2.0 ** (2 * s) * lp_norm(f, p), rel=1e-12)

    def test_non_hermitian_coefficients_rejected_off_p2(self, rng):
        # coefficients that are not a real field's: only the half lattice
        # would be read, so they must be refused at every p, not silently halved
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        z0 = forward_transform(PhysicalField(grid, rng.standard_normal((10,) + grid.shape)))
        noise = np.random.default_rng(67).standard_normal(z0.coefficients.shape)
        state = SpectralField(grid, z0.coefficients + 1j * noise)
        for p in (1.0, 3.0, math.inf):
            with pytest.raises(ConfigError, match="not Hermitian"):
                besov_norm(state, BesovSpec(0.0, p, 1.0, True))
        with pytest.raises(ConfigError, match="not Hermitian"):
            besov_norm(state, BesovSpec(0.0, 2.0, 1.0, True))
        assert besov_norm(z0, BesovSpec(0.0, 1.0, 1.0, True)).value > 0

    def test_summation_monotonicity(self, rng):
        grid = TorusGrid(dim=2, box_length=5.0, points_per_axis=32)
        f = random_band_limited_field(grid, 1, rng)
        vals = [besov_norm(f, BesovSpec(0.5, 2.0, r, True)).value for r in (1.0, 2.0, math.inf)]
        assert vals[0] >= vals[1] >= vals[2] > 0

    def test_l2_equivalence_window(self, rng):
        grid = TorusGrid(dim=2, box_length=5.0, points_per_axis=32)
        for _ in range(5):
            f = random_band_limited_field(grid, 1, rng, zero_mean=False)
            v = besov_norm(f, BesovSpec(0.0, 2.0, 2.0, True)).value
            base = lp_norm(PhysicalField(grid, f.values - f.values.mean(axis=(1, 2))[:, None, None]), 2.0)
            assert base / math.sqrt(2) <= v <= base * math.sqrt(2)

    def test_triangle_and_homogeneity(self, rng):
        grid = TorusGrid(dim=1, box_length=3.0, points_per_axis=64)
        spec = BesovSpec(1.5, 2.0, 1.0, True)
        for _ in range(5):
            f = random_band_limited_field(grid, 1, rng)
            g = random_band_limited_field(grid, 1, rng)
            fg = PhysicalField(grid, f.values + g.values)
            vf, vg, vfg = (besov_norm(h, spec).value for h in (f, g, fg))
            assert vfg <= vf + vg + 1e-10 * (vf + vg)
            assert besov_norm(PhysicalField(grid, 2 * f.values), spec).value == pytest.approx(
                2 * vf, rel=1e-12
            )

    def test_mean_reported_separately(self, rng):
        grid = TorusGrid(dim=2, box_length=4.0, points_per_axis=16)
        f = random_band_limited_field(grid, 1, rng)
        shifted = PhysicalField(grid, f.values + 3.0)
        rep0 = besov_norm(f, BesovSpec(1.0, 2.0, 1.0, True))
        rep1 = besov_norm(shifted, BesovSpec(1.0, 2.0, 1.0, True))
        assert rep1.value == pytest.approx(rep0.value, rel=1e-12)
        assert rep1.mean_magnitude == pytest.approx(3.0, rel=1e-12)

    def test_grid_independence_for_band_limited(self, rng):
        length = 6.0
        coarse = TorusGrid(dim=2, box_length=length, points_per_axis=32)
        fine = TorusGrid(dim=2, box_length=length, points_per_axis=64)
        f = random_band_limited_field(coarse, 1, rng)
        fhat = forward_transform(f).coefficients[0]
        fine_hat = np.zeros(fine.shape, dtype=complex)
        half = coarse.points_per_axis // 2
        sl = np.r_[0:half, -half:0]
        fine_hat[np.ix_(sl, sl)] = fhat
        f_fine = inverse_transform(SpectralField(fine, fine_hat))
        spec = BesovSpec(1.5, 2.0, 1.0, True)
        v0 = besov_norm(f, spec).value
        v1 = besov_norm(f_fine, spec).value
        assert abs(v1 - v0) <= 1e-8 * v0

    def test_negative_norm_support_bound(self, rng):
        grid = TorusGrid(dim=2, box_length=5.0, points_per_axis=32)
        f = random_band_limited_field(grid, 1, rng)
        rho = 1.5
        rep = besov_norm(f, BesovSpec(0.0, 2.0, math.inf, True))
        bound = rep.value * max(2.0 ** (-q * rho) for q in rep.contributions)
        assert negative_norm(f, rho) <= bound * (1 + 1e-12)


class TestNegativeNorm:
    def test_single_shell(self):
        grid = TorusGrid(dim=3, box_length=2 * np.pi, points_per_axis=32)
        f = single_shell_field(grid, 2, (5, 2, 1))
        assert negative_norm(f, 1.5) == pytest.approx(2.0 ** (-3.0) * lp_norm(f, 2.0), rel=1e-12)

    def test_scaling(self, rng):
        grid = TorusGrid(dim=2, box_length=4.0, points_per_axis=16)
        f = random_band_limited_field(grid, 1, rng)
        doubled = PhysicalField(grid, 2 * f.values)
        assert negative_norm(doubled, 0.7) == pytest.approx(2 * negative_norm(f, 0.7), rel=1e-12)

    def test_requires_positive_order(self, rng):
        grid = TorusGrid(dim=1, box_length=4.0, points_per_axis=16)
        f = random_band_limited_field(grid, 1, rng)
        with pytest.raises(ConfigError):
            negative_norm(f, -1.0)


def continuum_gaussian_negative_norm(width: float, varrho: float = 1.5) -> float:
    """Radial-quadrature oracle for the negative-order norm of a normalized
    Gaussian (unit L^1 mass, spectrum exp(-w^2 rho^2 / 2)) in 3-d."""
    out = 0.0
    for q in range(-30, 20):
        lo, hi = 0.75 * 2.0**q, 8.0 / 3.0 * 2.0**q
        rho = np.linspace(lo, hi, 400)
        profile = phi(rho / 2.0**q)
        integrand = profile**2 * np.exp(-(width**2) * rho**2) * rho**2
        b_sq = np.trapezoid(integrand, rho) * 4 * np.pi / (2 * np.pi) ** 3
        out = max(out, 2.0 ** (-q * varrho) * math.sqrt(b_sq))
    return out


class TestLowOrderEmbedding:
    def test_gaussian_ratio_matches_radial_oracle(self):
        width = 1.0
        length = 32.0
        grid = TorusGrid(dim=3, box_length=length, points_per_axis=32)
        centered = [c - length / 2 for c in grid.coordinates]
        r2 = sum(c**2 for c in centered)
        f = PhysicalField(grid, np.exp(-r2 / (2 * width**2)) / (2 * np.pi * width**2) ** 1.5)
        c_measured = negative_norm(f, 1.5) / lp_norm(f, 1.0)
        c_oracle = continuum_gaussian_negative_norm(width)
        assert c_measured == pytest.approx(c_oracle, rel=0.2)


def block_matrix(series, spec: BesovSpec) -> np.ndarray:
    """[time, block] matrix of the weighted block norms 2^(q s) ||block_q f||_Lp of a field series."""
    rows = [besov_norm(f, spec).contributions for f in series]
    qs = sorted(set().union(*rows))
    return np.array([[row.get(q, 0.0) for q in qs] for row in rows])


def tilde_and_plain(series, times, spec: BesovSpec, theta: float) -> tuple[float, float]:
    """Over [t_0, T]: the tilde norm (time norm per block, then l^r) and the plain mixed norm
    (the time norm of the one column of Besov values)."""
    tilde = ell_r(running_time_norm(times, block_matrix(series, spec), theta)[-1], spec.r)
    values = np.array([besov_norm(f, spec).value for f in series])
    return tilde, float(running_time_norm(times, values, theta)[-1])


class TestCheminLerner:
    def test_time_constant_factorizes(self, rng):
        grid = TorusGrid(dim=2, box_length=5.0, points_per_axis=16)
        f = random_band_limited_field(grid, 1, rng)
        times = np.linspace(0.0, 2.0, 9)
        series = [f] * times.size
        for p in (2.0, 1.0, math.inf):
            spec = BesovSpec(1.0, p, 1.0, True)
            base = besov_norm(f, spec).value
            blocks = block_matrix(series, spec)
            for theta in (1.0, 2.0, math.inf):
                # every prefix [0, t_i]: the time norm of a constant is t_i^(1/theta) times it
                expected = base * times ** (1.0 / theta)
                tilde = [ell_r(row, 1.0) for row in running_time_norm(times, blocks, theta)]
                assert tilde == pytest.approx(expected, rel=1e-12)

    def test_minkowski_orderings(self, rng):
        grid = TorusGrid(dim=2, box_length=5.0, points_per_axis=16)
        times = np.linspace(0.0, 1.0, 7)
        series = [random_band_limited_field(grid, 1, rng) for _ in times]
        tilde_hi, plain_hi = tilde_and_plain(series, times, BesovSpec(1.0, 2.0, 2.0, True), 1.0)
        assert tilde_hi <= plain_hi * (1 + 1e-12)  # r >= theta
        tilde_lo, plain_lo = tilde_and_plain(series, times, BesovSpec(1.0, 2.0, 1.0, True), 2.0)
        assert tilde_lo >= plain_lo * (1 - 1e-12)  # r <= theta

    def test_single_shell_series_collapses(self):
        grid = TorusGrid(dim=3, box_length=2 * np.pi, points_per_axis=32)
        f = single_shell_field(grid, 2, (5, 2, 1))
        times = np.linspace(0.0, 1.0, 9)
        series = [PhysicalField(grid, math.exp(-t) * f.values) for t in times]
        for p in (2.0, 1.0, math.inf):
            spec = BesovSpec(0.5, p, 1.0, True)
            assert block_matrix(series, spec).shape == (times.size, 1)
            tilde, plain = tilde_and_plain(series, times, spec, 2.0)
            assert tilde == pytest.approx(plain, rel=1e-12)


def _state_sample(grid: TorusGrid, rng) -> PhysicalField:
    """A 10-component (rho, velocity, E, h) state, drawn group by group."""
    groups = [random_band_limited_field(grid, c, rng) for c in (1, 3, 3, 3)]
    return PhysicalField(grid, np.concatenate([f.values for f in groups]))


class TestEnergyFunctionals:
    def test_zero_state(self):
        grid = TorusGrid(dim=3, box_length=5.0, points_per_axis=8)
        zeros = half_lattice_forward(grid, np.zeros((10,) + grid.shape))
        times = np.linspace(0, 1, 4)
        out = energy_functionals(grid, [group_spectra(grid, zeros)] * 4, times)
        for arr in (out.l2, out.n, out.d, out.n0, out.d0):
            assert np.all(arr == 0.0)

    def test_exact_power_law_gives_flat_weighted_sup(self, rng):
        grid = TorusGrid(dim=3, box_length=5.0, points_per_axis=8)
        base = _state_sample(grid, rng)
        times = np.linspace(0.0, 3.0, 7)
        samples = [half_lattice_forward(grid, (1 + t) ** -0.75 * base.values) for t in times]
        out = energy_functionals(grid, [group_spectra(grid, z) for z in samples], times)
        assert np.allclose(out.n, out.n[0], rtol=1e-12)
        assert out.n[0] == pytest.approx(out.l2[0], rel=1e-12)

    def test_monotone_prefix_functionals(self, rng):
        grid = TorusGrid(dim=3, box_length=5.0, points_per_axis=8)
        times = np.linspace(0.0, 1.0, 5)
        samples = [half_lattice_forward(grid, _state_sample(grid, rng).values) for _ in times]
        out = energy_functionals(grid, [group_spectra(grid, z) for z in samples], times)
        for arr in (out.n, out.d, out.n0, out.d0):
            assert np.all(np.diff(arr) >= -1e-14)
        # tilde dissipation dominates the plain one blockwise (Minkowski)
        assert np.all(out.d0 >= out.d - 1e-12)


class TestHalfLatticeReads:
    """Every norm of a real field reads its half lattice, from samples or from coefficients alike."""

    def test_samples_and_their_coefficients_agree(self, rng):
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=16)
        f = random_band_limited_field(grid, 1, rng, zero_mean=False)
        g = forward_transform(f)
        for spec in (BesovSpec(2.5, 2.0, 1.0, False), BesovSpec(0.5, 2.0, 2.0, True),
                     BesovSpec(1.5, 1.0, 2.0, True), BesovSpec(0.5, math.inf, math.inf, True)):
            a, b = besov_norm(f, spec), besov_norm(g, spec)
            assert a.contributions.keys() == b.contributions.keys(), spec
            assert abs(a.value - b.value) <= 1e-12 * a.value, spec
            assert abs(a.mean_magnitude - b.mean_magnitude) <= 1e-12 * a.mean_magnitude, spec
        assert negative_norm(g, 1.5) == pytest.approx(negative_norm(f, 1.5), rel=1e-12)
        for r in (1.0, 2.0):
            params = DecayParams(s=0.0, ell=1.5 if r == 1.0 else 2.0, rho=1.5, r=r, alpha=2.0)
            a, b = (verify_inequality(h, [0.0, 1.0, 10.0], params, euler_maxwell_rate()) for h in (f, g))
            for name in ("lhs", "low", "high", "ratio"):
                assert np.allclose(getattr(a, name), getattr(b, name), rtol=1e-12, atol=0.0), (r, name)
        assert np.allclose(bernstein_extremes([f]), bernstein_extremes([g]), rtol=1e-12, atol=0.0)

    def test_block_transforms_hold_one_component_at_a_time(self):
        # beside the half lattice, p != 2 blocks hold one component's coefficients and samples at a
        # time, the sum of squares and the block multiplier: under five component-sized buffers.
        # A transform of every component at once holds all their coefficients and samples.
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=48)
        half = half_lattice_forward(grid, np.random.default_rng(48).standard_normal((3,) + grid.shape))
        spec = BesovSpec(0.0, 1.0, 1.0, True)
        half_lattice_besov(grid, half, spec)  # the grid's frequency tables are built once, outside the count
        tracemalloc.start()
        try:
            half_lattice_besov(grid, half, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * np.prod(grid.shape) * 8

    def test_non_hermitian_coefficients_refused(self, rng):
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        z0 = forward_transform(random_band_limited_field(grid, 10, rng))
        noise = np.random.default_rng(68).standard_normal(z0.coefficients.shape)
        state = SpectralField(grid, z0.coefficients + 1j * noise)
        rho = SpectralField(grid, state.coefficients[:1])
        params = DecayParams(s=0.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0)
        calls = {
            "besov_norm": lambda: besov_norm(rho, BesovSpec(0.0, 2.0, 1.0, True)),
            "verify_inequality": lambda: verify_inequality(rho, [0.0, 1.0], params, euler_maxwell_rate()),
            "bernstein_ratios": lambda: bernstein_ratios(rho),
            "linear_evolve_grid": lambda: linear_evolve_grid(state, [0.0, 1.0], EquilibriumState()),
        }
        for name, call in calls.items():
            with pytest.raises(ConfigError, match="not Hermitian"):
                call()
