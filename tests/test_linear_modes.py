"""Mode matrices, constrained spectra, propagation and whole-space decay."""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import frequalize.linear_modes as linear_modes

from frequalize.decay_kernel import euler_maxwell_rate
from frequalize.equilibrium import EquilibriumState, PressureLaw
from frequalize.errors import ConfigError, IncompatibleDataError
from frequalize.grid import SpectralField, TorusGrid, forward_transform, half_lattice_coefficients
from frequalize.grid import half_lattice_forward, half_lattice_inverse, hermitian_defect, random_band_limited_field
from frequalize.linear_modes import (
    ContinuumData,
    ContinuumEvolver,
    GridModePropagator,
    ModePropagator,
    assemble_mode_matrix,
    constraint_basis,
    constraint_matrix,
    constraint_projector,
    constraint_residual,
    gap_sweep,
    linear_decay_experiment,
    linear_evolve_grid,
    mode_exponentials,
    mode_matrices,
    omega_matrix,
    pointwise_decay_check,
    spectral_gap,
    system_matrices,
)
from test_shell_spectrum import full_lattice_xi


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(5150)


@pytest.fixture(scope="module")
def eq():
    return EquilibriumState()


def reference_generator(xi, eq) -> np.ndarray:
    """M(xi) = -A0^-1 (i A(xi) + L), written from the module docstring."""
    def skew(v):  # column j is v x e_j
        return np.stack([np.cross(v, e) for e in np.eye(3)], axis=1)

    xi = np.asarray(xi, dtype=float)
    a0 = np.array([eq.a_inf] + [eq.n_inf] * 3 + [1.0] * 6)
    a = np.zeros((10, 10))
    a[0, 1:4] = a[1:4, 0] = eq.dp_inf * xi
    a[4:7, 7:10] = -skew(xi)
    a[7:10, 4:7] = skew(xi)
    lmat = np.zeros((10, 10))
    lmat[1:4, 1:4] = eq.n_inf * (np.eye(3) - skew(np.asarray(eq.b_inf, dtype=float)))
    lmat[1:4, 4:7] = eq.n_inf * np.eye(3)
    lmat[4:7, 1:4] = -eq.n_inf * np.eye(3)
    return -(1j * a + lmat) / a0[:, None]


def random_compatible_mode(xi, rng) -> np.ndarray:
    """Random 10-vector obeying the per-mode Gauss constraints."""
    z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    return constraint_projector(xi) @ z


class TestStructure:
    def test_omega_is_cross_product(self):
        assert np.allclose(omega_matrix([0, 0, 1]) @ [1, 0, 0], [0, 1, 0])
        v, w = np.array([1.3, -0.2, 0.7]), np.array([0.4, 2.0, -1.1])
        assert np.allclose(omega_matrix(v) @ w, np.cross(v, w))

    def test_symmetric_hyperbolic_structure(self, eq, rng):
        a0, symbol, damping = system_matrices(eq)
        assert np.all(a0 > 0)
        for _ in range(4):
            xi = rng.standard_normal(3)
            a = symbol(xi)
            assert np.allclose(a, a.T)
        sym = 0.5 * (damping + damping.T)
        eigs = np.linalg.eigvalsh(sym)
        assert eigs.min() > -1e-14

    def test_background_rotation_has_no_dissipation(self, rng):
        # velocity part of the damping contributed by the background field is
        # skew: Re(v* Omega_B v) = 0
        om = omega_matrix([0.3, -1.0, 2.0])
        for _ in range(5):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert abs((v.conj() @ (om @ v)).real) < 1e-13

    def test_zero_mode_eigenvalues(self):
        # at xi = 0 with unit background density: four conserved directions
        # (density and magnetic) and the damped velocity-electric oscillator
        # with lambda^2 + lambda + 1 = 0, threefold each
        eq_unit = EquilibriumState(pressure=PressureLaw(1.0, 1.0))
        m = assemble_mode_matrix([0.0, 0.0, 0.0], eq_unit)
        w = np.sort_complex(np.linalg.eigvals(m))
        expected = np.sort_complex(
            np.array([0.0] * 4 + [(-1 + 1j * math.sqrt(3)) / 2] * 3 + [(-1 - 1j * math.sqrt(3)) / 2] * 3)
        )
        assert np.allclose(w, expected, atol=1e-12)

    def test_all_eigenvalues_nonpositive_real(self, eq, rng):
        for _ in range(10):
            xi = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(3)
            w = np.linalg.eigvals(assemble_mode_matrix(xi, eq))
            assert w.real.max() < 1e-12

    def test_constraint_rows_annihilate_generator(self, eq, rng):
        for _ in range(5):
            xi = rng.standard_normal(3)
            m = assemble_mode_matrix(xi, eq)
            c = constraint_matrix(xi)
            assert np.max(np.abs(c @ m)) < 1e-13

    def test_batched_builder_matches_docstring_reference(self, rng):
        eq_b = EquilibriumState(n_inf=1.3, b_inf=(0.3, -0.2, 0.5), pressure=PressureLaw(0.8, 1.4))
        xi = 10.0 ** rng.uniform(-2, 2, size=(6, 1)) * rng.standard_normal((6, 3))
        xi[[0, 4]] = 0.0
        got = mode_matrices(xi, eq_b)
        assert got.shape == (6, 10, 10)
        for x, m in zip(xi, got):
            want = reference_generator(x, eq_b)
            assert np.max(np.abs(m - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.array_equal(mode_matrices(xi.reshape(2, 3, 3), eq_b), got.reshape(2, 3, 10, 10))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        b_inf=st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.4, 0.3)]),
        xi=st.tuples(*[st.floats(-50.0, 50.0, allow_nan=False)] * 3),
        angle=st.floats(0.0, 2.0 * math.pi),
        flip=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_real_form_is_covariant_under_the_stabilizer_of_b(self, b_inf, xi, angle, flip, seed):
        """R(Q xi) = P R(xi) P^T with P = diag(1, Q, Q, det(Q) Q) for every Q that fixes B_inf.

        B_inf is a pseudovector, so Q fixes it when det(Q) Q B_inf = B_inf:
        for B_inf = 0 every orthogonal Q, otherwise the rotations about B_inf
        and those rotations times -I.
        """
        eq_b = EquilibriumState(b_inf=b_inf)
        b = np.asarray(b_inf)
        if b.any():
            b = b / np.linalg.norm(b)
            turn = (
                math.cos(angle) * np.eye(3) + math.sin(angle) * omega_matrix(b)
                + (1.0 - math.cos(angle)) * np.outer(b, b)
            )
        else:
            turn, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
        q = -turn if flip else turn
        assert np.allclose(np.linalg.det(q) * q @ np.asarray(b_inf), b_inf, atol=1e-15)
        p = scipy.linalg.block_diag(1.0, q, q, np.linalg.det(q) * q)
        xi = np.asarray(xi)
        want = p @ linear_modes.real_mode_matrices(xi, eq_b) @ p.T
        got = linear_modes.real_mode_matrices(q @ xi, eq_b)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    def test_projector_idempotent_hermitian(self, rng):
        xi = np.array([0.7, -0.3, 1.1])
        p = constraint_projector(xi)
        assert np.allclose(p @ p, p, atol=1e-13)
        assert np.allclose(p, p.conj().T, atol=1e-13)
        basis = constraint_basis(xi)
        assert basis.shape == (10, 8)


class TestPropagation:
    def test_identity_at_t_zero(self, eq, rng):
        xi = [0.5, 0.1, -0.2]
        z0 = random_compatible_mode(xi, rng)
        assert np.allclose(ModePropagator(xi, eq).apply(z0, 0.0), z0, atol=1e-13)

    def test_density_mean_is_stationary(self, eq):
        z0 = np.zeros(10, dtype=complex)
        z0[0] = 1.0
        for t in (1.0, 10.0):
            assert np.allclose(ModePropagator([0.0, 0.0, 0.0], eq).apply(z0, t), z0, atol=1e-13)

    def test_constraint_transport_against_ode_oracle(self, eq, rng):
        xi = [1.0, 0.0, 0.0]
        z0 = random_compatible_mode(xi, rng)
        m = assemble_mode_matrix(xi, eq)
        t_end = 5.0

        def real_rhs(_, y):
            dz = m @ (y[:10] + 1j * y[10:])
            return np.concatenate([dz.real, dz.imag])

        sol = solve_ivp(
            real_rhs,
            (0.0, t_end),
            np.concatenate([z0.real, z0.imag]),
            rtol=1e-11,
            atol=1e-13,
        )
        z_oracle = sol.y[:10, -1] + 1j * sol.y[10:, -1]
        z_fast = ModePropagator(xi, eq).apply(z0, t_end)
        assert np.linalg.norm(z_fast - z_oracle) <= 1e-8 * np.linalg.norm(z_oracle)
        assert constraint_residual(z_fast, xi) <= 1e-12

    def test_halved_step_self_check(self, eq):
        # exp(tM) = exp(tM/2)^2, relative to exp(tM)
        for xi in ([0.5, 0.2, -0.1], [30.0, 0.0, 0.0], [1e-3, 0.0, 0.0]):
            prop = ModePropagator(xi, eq)
            full, half = prop.matrix_at(5.0), prop.matrix_at(2.5)
            assert np.linalg.norm(half @ half - full) / np.linalg.norm(full) <= 1e-10

    def test_a0_weighted_norm_nonincreasing(self, eq, rng):
        a0, _, _ = system_matrices(eq)
        xi = [0.8, -0.4, 0.3]
        z0 = random_compatible_mode(xi, rng)
        prop = ModePropagator(xi, eq)
        prev = float(np.sum(a0 * np.abs(z0) ** 2))
        for t in (0.5, 1.0, 3.0, 10.0):
            zt = prop.apply(z0, t)
            cur = float(np.sum(a0 * np.abs(zt) ** 2))
            assert cur <= prev * (1 + 1e-12)
            prev = cur

    @pytest.mark.parametrize("xi", [(0.0, 0.0, 0.0), (0.8, -0.4, 0.3), (30.0, 0.0, 0.0)])
    def test_matches_expm_of_complex_generator(self, rng, xi):
        # incompatible complex data, so every phase of D and D^-1 is exercised
        eq_b = EquilibriumState(b_inf=(0.0, 0.4, 0.3))
        z0 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        prop = ModePropagator(xi, eq_b)
        for t in (0.5, 50.0):
            want = scipy.linalg.expm(t * reference_generator(xi, eq_b))
            assert np.linalg.norm(prop.matrix_at(t) - want) <= 1e-10 * np.linalg.norm(want)
            assert np.linalg.norm(prop.apply(z0, t) - want @ z0) <= 1e-10 * np.linalg.norm(want @ z0)

    def test_non_finite_rejected(self, eq):
        z0 = np.full(10, np.nan, dtype=complex)
        with pytest.raises(ConfigError):
            ModePropagator([1.0, 0.0, 0.0], eq).apply(z0, 1.0)

    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan], ids=["negative", "inf", "nan"])
    @pytest.mark.parametrize("route", ["mode_exponentials", "ModePropagator", "GridModePropagator"])
    def test_time_must_be_finite_and_nonnegative(self, eq, route, t):
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        propagate = {
            "mode_exponentials": lambda: mode_exponentials(np.ones((2, 3)), eq, t),
            "ModePropagator": lambda: ModePropagator([1.0, 0.0, 0.0], eq).apply(np.ones(10), t),
            "GridModePropagator": lambda: GridModePropagator(grid, eq).apply(
                np.ones((10, 8, 8, grid.half_width), dtype=complex), t
            ),
        }[route]
        with pytest.raises(ConfigError, match="nonnegative, got -1.0" if t < 0 else "finite"):
            propagate()


class TestTable:
    def test_taylor_scaling_and_squaring_needs_no_eigenvectors(self, monkeypatch):
        """The table calls neither eig nor expm, matches expm, and is I at t = 0.

        One batch mixes |xi| from 1e-2 to 1e2 with t from 0 to 100, so rows
        that take no squaring and rows that take more than ten share it.
        Pairs with t |xi| > 2500 are left out: there exp(tR) is so sensitive
        to the roundoff of tR that scipy's expm itself is about 1e-12 from a
        long-double evaluation.
        """
        eq_b = EquilibriumState(b_inf=(0.0, 0.0, 0.5))
        mags, times = np.meshgrid(np.geomspace(1e-2, 1e2, 9), [0.0, 0.5, 5.0, 25.0, 100.0])
        keep = mags * times <= 2500.0
        direction = np.random.default_rng(7).standard_normal((int(keep.sum()), 3))
        xi = mags[keep][:, None] * direction / np.linalg.norm(direction, axis=1, keepdims=True)
        t = times[keep]
        batch = t[:, None, None] * linear_modes.real_mode_matrices(xi, eq_b)
        one_norms = np.abs(batch).sum(axis=1).max(axis=1)
        assert one_norms.min() <= 6.0 and one_norms.max() > 6.0 * 2**10
        phases = linear_modes.REAL_FORM_PHASES
        want = np.array([scipy.linalg.expm(s * m) for s, m in zip(t, mode_matrices(xi, eq_b))])
        want = (want * phases * phases.conj()[:, None]).real

        def refuse(*args, **kwargs):
            raise AssertionError("the table took an eigendecomposition or expm")

        for name in ("eig", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        assert np.max(np.abs(linear_modes._taylor_exponentials(batch) - want)) <= 1e-12
        for time in np.unique(t):
            rows = t == time
            assert np.max(np.abs(mode_exponentials(xi[rows], eq_b, time) - want[rows])) <= 1e-12
        table = mode_exponentials(xi, eq_b, 0.0)
        assert np.array_equal(table, np.broadcast_to(np.eye(10), table.shape))


class TestSpectralGap:
    def test_positive_at_unit_frequency(self):
        eq_unit = EquilibriumState(pressure=PressureLaw(1.0, 1.0))
        assert spectral_gap([1.0, 0.0, 0.0], eq_unit) > 0

    def test_gap_slopes_match_dissipative_rate(self, eq):
        sweep = gap_sweep(np.geomspace(1e-3, 1e3, 49), eq)
        assert sweep.loglog_slope(1e-3, 1e-1) == pytest.approx(2.0, abs=0.3)
        assert sweep.loglog_slope(10.0, 1e3) == pytest.approx(-2.0, abs=0.3)
        assert sweep.rate_ratios.min() > 0
        assert np.all(sweep.gaps > 0)

    def test_isotropy_without_background_field(self, eq, rng):
        mag = 1.7
        base = spectral_gap([mag, 0.0, 0.0], eq)
        for _ in range(4):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            assert spectral_gap(mag * direction, eq) == pytest.approx(base, abs=1e-10)

    def test_gap_with_background_field_stays_positive(self):
        eq_b = EquilibriumState(b_inf=(0.0, 0.0, 2.0))
        for mag in (0.01, 1.0, 50.0):
            assert spectral_gap([mag, 0.0, 0.0], eq_b) > 0
            assert spectral_gap([0.0, 0.0, mag], eq_b) > 0


class TestPointwiseDecay:
    def test_origin_ratio_at_least_one(self, eq, rng):
        samples = [([0.5, 0.0, 0.0], random_compatible_mode([0.5, 0.0, 0.0], rng), 0.0)]
        rep = pointwise_decay_check(samples, eq)
        assert rep.c_bound >= 1.0 - 1e-12

    def test_single_mode_bound(self, eq, rng):
        xi = [1.0, 0.0, 0.0]
        z0 = random_compatible_mode(xi, rng)
        samples = [(xi, z0, t) for t in np.linspace(0.0, 100.0, 40)]
        rep = pointwise_decay_check(samples, eq)
        assert rep.c0 > 0
        assert math.isfinite(rep.c_bound)

    def test_matches_per_sample_expm_reference(self, rng):
        eq_b = EquilibriumState(b_inf=(0.0, 0.4, 0.3))
        samples = []
        for i in range(50):
            xi = samples[-1][0] if i % 10 == 9 else 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(3)
            samples.append((xi, random_compatible_mode(xi, rng), 10.0 ** rng.uniform(-1, 2)))
        rep = pointwise_decay_check(samples, eq_b)

        ratios = np.array(
            [np.linalg.norm(scipy.linalg.expm(t * reference_generator(xi, eq_b)) @ z0) / np.linalg.norm(z0)
             for xi, z0, t in samples]
        )
        eta = euler_maxwell_rate()
        exps = np.array([float(eta.eta(np.linalg.norm(xi))) * t for xi, _, t in samples])
        passing = [c0 for c0 in np.linspace(0.0, 1.5, 301) if np.max(ratios * np.exp(c0 * exps)) <= 50.0]
        assert rep.n_samples == 50
        assert rep.c0 == passing[-1] > 0
        c_ref = float(np.max(ratios * np.exp(rep.c0 * exps)))
        assert rep.c_bound == pytest.approx(c_ref, rel=1e-10)

    def test_gradient_magnetic_data_refused(self, eq):
        xi = np.array([1.0, 0.0, 0.0])
        z0 = np.zeros(10, dtype=complex)
        z0[7:10] = xi  # magnetic component parallel to xi: stationary, no decay
        with pytest.raises(IncompatibleDataError):
            pointwise_decay_check([(xi, z0, 1.0)], eq)

    @staticmethod
    def batch_with_bad_samples():
        """Six samples, compatible but for gradient magnetic data at samples 2 and 4."""
        rng = np.random.default_rng(17)
        samples = []
        for _ in range(6):
            xi = 10.0 ** rng.uniform(-1, 1) * rng.standard_normal(3)
            samples.append((xi, random_compatible_mode(xi, rng), 2.0))
        for i, xi in ((2, np.array([0.3, -1.2, 0.5])), (4, np.array([2.0, 0.0, 0.0]))):
            z0 = np.zeros(10, dtype=complex)
            z0[7:10] = xi
            samples[i] = (xi, z0, 1.0)
        return samples

    def test_batched_gate_names_the_first_refused_sample(self, eq):
        # the gate reads one residual per sample in one call; its messages are those of the per-sample loop
        # it replaced: the first refused sample, by residual or by non-finite data, names the fault
        samples = self.batch_with_bad_samples()
        message = ("mode data violates the divergence constraints (residual 1.334e+00 > 1e-08) at "
                   "xi=(np.float64(0.3), np.float64(-1.2), np.float64(0.5))")
        with pytest.raises(IncompatibleDataError, match=f"^{re.escape(message)}$"):
            pointwise_decay_check(samples, eq)
        z0 = samples[1][1].copy()
        z0[3] = np.nan
        samples[1] = (samples[1][0], z0, 1.0)
        with pytest.raises(ConfigError, match="^mode data must be finite$"):
            pointwise_decay_check(samples, eq)

    def test_stacked_residuals_match_one_at_a_time(self, rng):
        samples = self.batch_with_bad_samples() + [(np.zeros(3), np.zeros(10, dtype=complex), 1.0),
                                                   ([0.0, 0.0, 0.0], random_compatible_mode([0.0, 0.0, 0.0], rng), 1.0)]
        xis = np.array([np.asarray(xi, dtype=float) for xi, _, _ in samples])
        z0s = np.array([z0 for _, z0, _ in samples])
        stacked = constraint_residual(z0s, xis)
        assert stacked.shape == (len(samples),)
        for got, (xi, z0, _) in zip(stacked, samples):
            one = constraint_residual(z0, xi)
            assert isinstance(one, float) and got == one
            c = constraint_matrix(xi)  # the density row alone at xi = 0
            want = np.linalg.norm(c @ z0) / np.linalg.norm(z0) if np.any(z0) else 0.0
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class AnyNGrid(TorusGrid):
    """A TorusGrid without the even-n check, for propagator rules written for any n."""

    def __post_init__(self) -> None:
        pass


def compatible_lattice_state(grid: TorusGrid, rng) -> SpectralField:
    """Random smooth 10-component data obeying the lattice Gauss constraints."""
    xi, mag = full_lattice_xi(grid)
    sq = mag**2
    safe = np.where(sq > 0, sq, 1.0)

    def solenoidal(g):  # g - xi (xi.g) / |xi|^2
        return g - np.stack(xi) * sum(x * c for x, c in zip(xi, g)) / safe

    rho, vel, e_free, h_free = (forward_transform(random_band_limited_field(grid, c, rng)).coefficients
                                for c in (1, 3, 3, 3))
    e_long = np.stack([1j * xi[j] * rho[0] / safe for j in range(grid.dim)])
    return SpectralField(grid, np.concatenate([rho, vel, solenoidal(e_free) + e_long, solenoidal(h_free)]))


class TestGridEvolution:
    def test_constraint_residual_stays_tiny(self, eq, rng):
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=12)
        z0 = compatible_lattice_state(grid, rng)
        sol = linear_evolve_grid(z0, np.linspace(0.0, 5.0, 6), eq, keep_states=False)
        assert np.all(sol.constraint_residuals <= 1e-9)

    def test_norms_decay(self, eq, rng):
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=12)
        z0 = compatible_lattice_state(grid, rng)
        sol = linear_evolve_grid(z0, np.linspace(0.0, 20.0, 5), eq, keep_states=False)
        assert sol.norms[0][-1] < sol.norms[0][0]

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
    @pytest.mark.parametrize(
        "b_inf", [(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.4, 0.3)], ids=["b0", "b05", "b_off_axis"]
    )
    @pytest.mark.parametrize("dim,n", [(3, 8), (3, 7), (2, 8)], ids=["8^3", "7^3", "8^2"])
    def test_every_mode_matches_expm(self, dim, n, b_inf, hermitian):
        # an even n puts the Nyquist planes on the grid, an odd n has none; the
        # oracle's xi_j is zeroed on the Nyquist planes, as lawson_oracle's is.
        # The general case is no real field's half lattice: every mode is propagated on its own.
        eq_b = EquilibriumState(b_inf=b_inf)
        grid = (TorusGrid if n % 2 == 0 else AnyNGrid)(dim=dim, box_length=20.0, points_per_axis=n)
        rng = np.random.default_rng(n)
        z0 = half_lattice_forward(grid, rng.standard_normal((10,) + grid.shape))
        if not hermitian:
            z0 = z0 + rng.standard_normal(z0.shape) + 1j * rng.standard_normal(z0.shape)
        prop = GridModePropagator(grid, eq_b)
        t = 2.5
        out, gen = prop.apply(z0, t), prop.generator_apply(z0)
        k = np.fft.fftfreq(n, d=1.0 / n)
        axis = np.where(2 * np.abs(k) == n, 0.0, 2 * np.pi * k / grid.box_length)
        xi = np.zeros(z0.shape[1:] + (3,))
        xi[..., :dim] = np.stack(np.meshgrid(*([axis] * (dim - 1) + [axis[: grid.half_width]]), indexing="ij"), axis=-1)
        for idx in np.ndindex(*z0.shape[1:]):
            m = mode_matrices(xi[idx], eq_b)
            start = z0[(slice(None),) + idx]
            scale = np.linalg.norm(start)
            want = scipy.linalg.expm(t * m) @ start
            assert np.linalg.norm(out[(slice(None),) + idx] - want) <= 1e-12 * scale, idx
            assert np.linalg.norm(gen[(slice(None),) + idx] - m @ start) <= 1e-14 * np.linalg.norm(m) * scale, idx

    @pytest.mark.parametrize(
        "b_inf", [(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.4, 0.3)], ids=["b0", "b05", "b_off_axis"]
    )
    def test_agrees_with_the_taylor_table(self, b_inf):
        """`apply`, from one eigendecomposition per class, against the table of `mode_exponentials`,
        which takes no eigendecomposition, applied mode by mode to general complex data."""
        eq_b = EquilibriumState(b_inf=b_inf)
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        shape = (10,) + grid.shape[:-1] + (grid.half_width,)
        rng = np.random.default_rng(29)
        z0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        prop = GridModePropagator(grid, eq_b)
        phases = linear_modes.REAL_FORM_PHASES
        start = z0.reshape(10, -1).T * phases.conj()
        for t in (0.0, 0.5, 50.0):
            want = np.einsum("nij,nj->ni", mode_exponentials(grid.half_modes, eq_b, t), start) * phases
            got = prop.apply(z0, t).reshape(10, -1).T
            error = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
            assert error.max() <= 1e-10, (t, error.max())

    def test_decomposes_one_matrix_per_class(self, monkeypatch):
        """One eig matrix per class of the 8 * 8 * 5 = 320 half-lattice modes.

        With b = e_z (B_inf = 0 or along z) a class is one |k_z| in {0, .., 3}
        (the Nyquist k = -4 counts as 0) and one k_x^2 + k_y^2 over
        |k_x|, |k_y| <= 3, which takes 10 values: 40 classes.  Each mode is its
        representative carried by its class's Q.  The classes are decomposed
        in consecutive chunks (16 classes here, so that the 40 take three),
        whose batch sizes sum to the class count: a class decomposed twice
        would fail it.
        """
        sizes = []
        eig = np.linalg.eig

        def counting(a):
            sizes[-1].append(len(a))
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting)
        monkeypatch.setattr(linear_modes, "_TABLE_CHUNK", 16)
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        for b_inf in ((0.0, 0.0, 0.0), (0.0, 0.0, 0.5)):
            sizes.append([])
            GridModePropagator(grid, EquilibriumState(b_inf=b_inf))
            c = linear_modes._mode_classes(grid.half_modes, EquilibriumState(b_inf=b_inf))
            rep = grid.half_modes[c.first[c.index]]
            q = c.signs[:, None, None] * c.turns
            assert np.max(np.abs(np.einsum("nij,nj->ni", q, rep) - grid.half_modes)) <= 1e-15
            assert np.array_equal(c.first[c.index[c.first]], c.first)
        assert [sum(batches) for batches in sizes] == [40] * 2
        assert sizes == [[16, 16, 8]] * 2

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_rotates_the_initial_data_once(self, eq, rng, monkeypatch, count):
        """One `orbit` streams every time: P^T touches the initial half lattice once per call."""
        calls = []
        rotate = linear_modes._ModeClasses.rotate

        def counting(self, y, inverse=False):
            calls.append(inverse)
            return rotate(self, y, inverse)

        monkeypatch.setattr(linear_modes._ModeClasses, "rotate", counting)
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        linear_evolve_grid(compatible_lattice_state(grid, rng), np.linspace(0.0, 5.0, count), eq)
        assert calls.count(True) == 1 and calls.count(False) == count

    def test_desk_grid_keeps_one_row_per_class(self, eq):
        """At 32^3 the propagator holds one eigendecomposition per class of the 17,408 half-lattice modes.

        One row per mode would hold two (17,408, 10, 10) complex arrays of
        eigenvectors, 27.9 MB each; the build's traced peak stays below 30 MB.
        """
        grid = TorusGrid(dim=3, box_length=100.0, points_per_axis=32)
        tracemalloc.start()
        try:
            prop = GridModePropagator(grid, eq)._prop
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        classes = len(prop.classes.first)
        assert classes < len(grid.half_modes)
        assert [len(prop.v), len(prop.vinv), len(prop.w)] == [classes] * 3
        assert peak < 30.0, f"build peak {peak:.1f} MB"

    @pytest.mark.parametrize("b_inf", [(0.0, 0.0, 0.0), (0.0, 0.0, 0.5)], ids=["b0", "b05"])
    def test_real_data_with_nyquist_content_stays_real(self, b_inf):
        # the edge planes k_N = 0, N/2 hold mirror pairs: they must stay those of a real
        # field, which half_lattice_inverse -> half_lattice_forward returns unchanged
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        z0 = half_lattice_forward(grid, np.random.default_rng(8).standard_normal((10,) + grid.shape))
        zt = GridModePropagator(grid, EquilibriumState(b_inf=b_inf)).apply(z0, 2.5)
        trip = half_lattice_forward(grid, half_lattice_inverse(grid, zt))
        assert np.linalg.norm(trip - zt) <= 1e-14 * np.linalg.norm(zt)

    @pytest.mark.parametrize("b_inf", [(0.0, 0.0, 0.0), (0.0, 0.4, 0.3)], ids=["b0", "b_off_axis"])
    def test_kept_states_are_real_fields_from_z0(self, rng, b_inf):
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        z0 = compatible_lattice_state(grid, rng)
        sol = linear_evolve_grid(z0, [0.0, 2.5, 40.0], EquilibriumState(b_inf=b_inf))
        scale = np.max(np.abs(z0.coefficients))
        assert np.max(np.abs(sol.states[0].coefficients - z0.coefficients)) <= 1e-15 * scale
        for state in sol.states:
            assert hermitian_defect(state)[0] <= 1e-14 * np.max(np.abs(state.coefficients))

    def test_incompatible_data_rejected(self, eq, rng):
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        bad = forward_transform(random_band_limited_field(grid, 10, rng))
        with pytest.raises(IncompatibleDataError):
            linear_evolve_grid(bad, [0.0, 1.0], eq)

    def test_magnetic_mean_of_small_data_rejected(self, eq, rng):
        # the mean-free check is relative to the largest coefficient, also below a largest
        # coefficient of 1 (here 1e-12)
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        coeffs = compatible_lattice_state(grid, rng).coefficients
        coeffs *= 1e-12 / np.max(np.abs(coeffs))
        coeffs[7, 0, 0, 0] = 1e-12
        with pytest.raises(IncompatibleDataError, match="mean-free"):
            linear_evolve_grid(SpectralField(grid, coeffs), [0.0, 1.0], eq)


class TestClassRotation:
    """`_ModeClasses.rotate` against the 3x3 products y -> diag(1, s T, s T, T) y that it forms term by term."""

    @staticmethod
    def turn_products(classes, y, inverse):
        turns = classes.turns.swapaxes(-1, -2) if inverse else classes.turns
        signs = classes.signs[:, None, None]
        blocks = (y if y.ndim == 3 else y[..., None]).copy()
        for rows, sign in ((slice(1, 4), signs), (slice(4, 7), signs), (slice(7, 10), 1.0)):
            blocks[:, rows] = sign * (turns @ blocks[:, rows])
        return blocks.reshape(y.shape)

    # B_inf across the half axis, so that the half lattice holds flipped modes (s = -1)
    @pytest.mark.parametrize("b_inf", [(0.5, 0.0, 0.0), (0.0, 0.4, 0.3)], ids=["b_x", "b_off_axis"])
    @pytest.mark.parametrize("columns", [(), (3,)], ids=["vectors", "blocks"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_turn_products(self, b_inf, columns, dtype):
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        classes = linear_modes._mode_classes(grid.half_modes, EquilibriumState(b_inf=b_inf))
        assert np.any(classes.signs < 0)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((len(grid.half_modes), 10) + columns).astype(dtype)
        if dtype is complex:
            y += 1j * rng.standard_normal(y.shape)
        tol = 1e-15 * np.max(np.abs(y))
        for inverse in (False, True):
            want = self.turn_products(classes, y, inverse)
            for layout in (np.ascontiguousarray, np.asfortranarray):  # mode-major and component-major
                got = classes.rotate(layout(y.copy()), inverse=inverse)
                assert got.dtype == y.dtype and np.max(np.abs(got - want)) <= tol
        forward = classes.rotate(y.copy())
        assert np.max(np.abs(classes.rotate(forward.copy(), inverse=True) - y)) <= tol
        reps = classes.first  # P = I on a representative: its rows come back bit for bit
        assert forward[reps].tobytes() == y[reps].tobytes()


class TestContinuumDecay:
    def test_gaussian_optimal_exponents(self, eq):
        exp = linear_decay_experiment(eq, orders=(0, 1))
        assert exp.fits[0].exponent == pytest.approx(-0.75, abs=0.10)
        assert exp.fits[1].exponent == pytest.approx(-1.25, abs=0.10)
        assert exp.fits[0].power_law and exp.fits[1].power_law

    def test_highpass_regularity_loss_exponent(self, eq):
        data = ContinuumData(kind="highpass", cutoff=10.0, budget=1.5)
        exp = linear_decay_experiment(eq, data, orders=(0,))
        assert exp.fits[0].exponent == pytest.approx(-0.75, abs=0.15)
        data2 = ContinuumData(kind="highpass", cutoff=10.0, budget=2.0)
        exp2 = linear_decay_experiment(eq, data2, orders=(0,))
        assert exp2.fits[0].exponent == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize("key,value", [
        ("width", 0.0), ("width", -1.0), ("cutoff", 0.0), ("cutoff", math.inf),
        ("budget", -3.0), ("budget", 0.0), ("budget", math.nan),
    ])
    def test_continuum_data_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: must be positive and finite"):
            ContinuumData(**{key: value})

    def test_continuum_data_is_compatible(self, eq, rng):
        data = ContinuumData(kind="gaussian", width=1.0)
        from frequalize.linear_modes import _orthonormal_frame

        frame = _orthonormal_frame(np.array([0.3, -0.5, 0.8]))
        for rho in (0.01, 1.0, 8.0):
            z0 = data.mode_vector(rho, frame)
            assert constraint_residual(z0, rho * frame[0]) < 1e-12

    def test_anisotropic_background_uses_sphere_rule(self):
        eq_b = EquilibriumState(b_inf=(0.0, 0.0, 0.5))
        ev = ContinuumEvolver(
            eq_b, ContinuumData(kind="gaussian", width=2.0), n_radial=60, n_polar=4, n_azimuth=4
        )
        assert ev.ang_nodes.shape[0] == 16
        norms = ev.norms([1.0, 10.0], orders=(0,))[0]
        assert norms[1] < norms[0]

    def test_anisotropic_norms_match_per_node_expm(self):
        """The class moments give the norms that per-node expm and the quadrature sum give."""
        eq_b = EquilibriumState(b_inf=(0.0, 0.4, 0.3))
        data = ContinuumData(kind="gaussian", width=2.0)
        times = [0.0, 0.7, 5.0, 40.0]
        ev = ContinuumEvolver(eq_b, data, n_radial=12, n_polar=4, n_azimuth=4)
        got = ev.norms(times, orders=(0, 1, 2))
        _, ang_w = linear_modes._sphere_nodes(4, 4)
        power = np.zeros((len(times), 3))
        for omega, w_ang in zip(ev.ang_nodes, ang_w):
            frame = linear_modes._orthonormal_frame(omega)
            for rho, w_rho in zip(ev.rho, ev.w_rho):
                z0 = data.mode_vector(rho, frame)
                m = reference_generator(rho * frame[0], eq_b)
                for i, t in enumerate(times):
                    sq = np.linalg.norm(scipy.linalg.expm(t * m) @ z0) ** 2
                    power[i] += w_ang * w_rho * sq * rho ** (2 + 2 * np.arange(3))
        for k in range(3):
            want = np.sqrt(power[:, k] / (2.0 * math.pi) ** 3)
            np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=0.0)

    def test_class_moments_are_summed_in_chunks_bit_for_bit(self, monkeypatch):
        # `powers` accumulates each class's moments _TABLE_CHUNK modes at a time, in the order of one sum over
        # the whole batch, so the norms of a batch of several chunks match that sum's bit for bit
        eq_b = EquilibriumState(b_inf=(0.0, 0.0, 0.5))
        ev = ContinuumEvolver(eq_b, ContinuumData(kind="gaussian", width=2.0), n_radial=60, n_polar=4, n_azimuth=4)
        n_modes = len(ev._node_weights)
        assert n_modes > 512 and len(ev._prop.classes.first) < n_modes // 2  # several chunks, shared classes
        norms = {}
        for chunk in (7, 512, n_modes):
            monkeypatch.setattr(linear_modes, "_TABLE_CHUNK", chunk)
            norms[chunk] = ev.norms([0.0, 0.7, 5.0, 40.0], orders=(0, 1, 2))
        for k in range(3):
            assert np.array_equal(norms[7][k], norms[n_modes][k])
            assert np.array_equal(norms[512][k], norms[n_modes][k])


class TestConditioningFallback:
    """With the conditioning limit at 0 every mode takes scipy.linalg.expm."""

    @pytest.fixture
    def all_modes_fall_back(self, monkeypatch):
        calls = []
        expm = scipy.linalg.expm

        def counting_expm(a):
            calls.append(1)
            return expm(a)

        def enable():
            monkeypatch.setattr(linear_modes, "_COND_LIMIT", 0.0)
            monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
            return calls

        return enable

    @staticmethod
    def assert_close(got, want):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_mode_propagator(self, rng, all_modes_fall_back):
        eq_b = EquilibriumState(b_inf=(0.0, 0.0, 0.5))
        xi = [0.8, -0.4, 0.3]
        z0 = random_compatible_mode(xi, rng)
        want = [ModePropagator(xi, eq_b).apply(z0, t) for t in (0.5, 5.0, 50.0)]
        calls = all_modes_fall_back()
        prop = ModePropagator(xi, eq_b)
        for w, t in zip(want, (0.5, 5.0, 50.0)):
            self.assert_close(prop.apply(z0, t), w)
        assert len(calls) == 3  # one per exp(tM)

    def test_grid_mode_propagator(self, rng, all_modes_fall_back):
        eq_b = EquilibriumState(b_inf=(0.0, 0.0, 0.5))
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        z0 = half_lattice_coefficients(compatible_lattice_state(grid, rng))
        want = GridModePropagator(grid, eq_b).apply(z0, 2.5)
        calls = all_modes_fall_back()
        self.assert_close(GridModePropagator(grid, eq_b).apply(z0, 2.5), want)
        assert len(calls) == 40  # one per class of the 320 half-lattice modes

    def test_pointwise_decay_check(self, rng, all_modes_fall_back):
        # xi and its rotation about B_inf share a class; the repeated (xi, t) pair takes one expm
        eq_b = EquilibriumState(b_inf=(0.0, 0.0, 0.5))
        xi, turned = np.array([0.8, -0.4, 0.3]), np.array([0.4, 0.8, 0.3])
        pairs = [(xi, 1.0), (turned, 1.0), (xi, 7.0), (xi, 7.0)]
        samples = [(x, random_compatible_mode(x, rng), t) for x, t in pairs]
        want = pointwise_decay_check(samples, eq_b)
        calls = all_modes_fall_back()
        got = pointwise_decay_check(samples, eq_b)
        assert got.c0 == want.c0
        assert got.c_bound == pytest.approx(want.c_bound, rel=1e-10)
        assert len(calls) == 2  # one per (class, time): t = 1 and t = 7

    def test_one_class_falls_back_among_eigen_classes(self, rng, monkeypatch):
        """One ill-conditioned class of several members: each member, the representative or a
        flipped and turned one, takes expm of its own M(xi); every other mode keeps the eigenvector
        result bit for bit."""
        eq_b = EquilibriumState(b_inf=(0.0, 0.4, 0.3))
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=8)
        z0 = half_lattice_coefficients(compatible_lattice_state(grid, rng))
        times = (2.5, 40.0)
        plain = GridModePropagator(grid, eq_b)
        want = [plain.apply(z0, t) for t in times]
        mixed = GridModePropagator(grid, eq_b)
        classes = mixed._prop.classes
        index = classes.index
        flipped = (classes.signs < 0) & np.any(classes.turns != np.eye(3), axis=(1, 2))  # Q = -T, T != I
        k = int(np.argmax(np.bincount(index, weights=flipped)))
        members = np.flatnonzero(index == k)
        assert len(members) >= 2 and flipped[members].any() and not mixed._prop.ill_conditioned.any()
        mixed._prop.ill_conditioned[k] = True
        calls = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(1) or expm(a))
        got = [mixed.apply(z0, t) for t in times]
        assert len(calls) == len(times)  # one per (class, time)
        flat = [g.reshape(10, -1) for g in got]
        others = np.ones(len(index), dtype=bool)
        others[members] = False
        for g, w in zip(flat, want):
            assert np.array_equal(g[:, others], w.reshape(10, -1)[:, others])
        start = z0.reshape(10, -1)
        for r in members:
            m = mode_matrices(grid.half_modes[r], eq_b)
            for g, t in zip(flat, times):
                self.assert_close(g[:, r], expm(t * m) @ start[:, r])

    def test_continuum_evolver(self, all_modes_fall_back):
        eq_b = EquilibriumState(b_inf=(0.0, 0.0, 0.5))
        data = ContinuumData(kind="gaussian", width=2.0)
        times = [0.0, 1.0, 10.0, 100.0]

        def norms():
            ev = ContinuumEvolver(eq_b, data, n_radial=20, n_polar=4, n_azimuth=4)
            return ev.norms(times, orders=(0, 1))

        want = norms()
        calls = all_modes_fall_back()
        got = norms()
        for k in (0, 1):
            np.testing.assert_allclose(got[k], want[k], rtol=1e-10, atol=0.0)
        assert len(calls) == len(times) * 20 * 2  # per radius, the 16 nodes form 2 classes: +-mu of 2 |mu|

    def test_ill_conditioned_class_takes_the_same_expm_rows(self):
        # one class of the second chunk falls back: its table row is exactly expm(t R_k), and every other
        # row is the unmarked table's, bit for bit
        eq_b = EquilibriumState(b_inf=(0.0, 0.4, 0.3))
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=16)
        prop = GridModePropagator(grid, eq_b)._prop
        classes = len(prop.classes.first)
        assert classes > linear_modes._TABLE_CHUNK and not prop.ill_conditioned.any()
        k = classes - 3
        for t in (2.5, 40.0):
            want, rows = prop._table(np.asarray(t))
            prop.ill_conditioned[k] = True
            got, got_rows = prop._table(np.asarray(t))
            prop.ill_conditioned[k] = False
            assert np.array_equal(got_rows, rows)
            assert np.array_equal(got[k], scipy.linalg.expm(t * prop.matrices[k]))
            others = np.arange(classes) != k
            assert got[others].tobytes() == want[others].tobytes()

    def test_a_singular_span_sends_every_class_to_expm(self, monkeypatch):
        # a singular V in the second chunk of classes sends every class to expm, not only that chunk's
        inv, batches = np.linalg.inv, []

        def singular_after_the_first(a):
            batches.append(len(a))
            if len(batches) > 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", singular_after_the_first)
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=16)
        prop = GridModePropagator(grid, EquilibriumState(b_inf=(0.0, 0.4, 0.3)))._prop
        classes = len(prop.classes.first)
        assert batches == [linear_modes._TABLE_CHUNK, classes - linear_modes._TABLE_CHUNK]
        assert np.isnan(prop.vinv).all() and prop.ill_conditioned.all()
