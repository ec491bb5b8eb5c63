"""Nonlinear pseudospectral solver: fluxes, stepping, constraints, experiments."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import frequalize
from frequalize import besov, solver
from frequalize import grid as grid_module
from frequalize.besov import BesovSpec, besov_norm, energy_functionals
from frequalize.equilibrium import EquilibriumState
from frequalize.errors import ConfigError, DensityError, SolverInstabilityError
from frequalize.grid import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    forward_transform,
    half_lattice_forward,
    half_lattice_inverse,
    half_lattice_l2,
    shell_l2_norms,
)
from frequalize.linear_modes import GridModePropagator
from frequalize.littlewood_paley import block_profiles, phi
from frequalize.solver import (
    ConstraintReport,
    SimState,
    SpectralProfile,
    StepperConfig,
    cfl_dt,
    constraint_monitor,
    decay_experiment,
    duhamel_check,
    duhamel_sums,
    initial_data_gen,
    integrate,
    kernel_convolution,
    nonlinear_fluxes,
    rhs_eval,
    step,
)
from test_shell_spectrum import full_lattice_spectrum, full_lattice_xi


@pytest.fixture(scope="module")
def eq():
    return EquilibriumState()


@pytest.fixture(scope="module")
def grid16():
    return TorusGrid(dim=3, box_length=50.0, points_per_axis=16)


def keep_coefficients(z_hat, state, flux_hat):
    """`integrate` observer: a copy of the sample's half-lattice coefficients, which the next step overwrites."""
    return z_hat.copy()


def keep_nothing(z_hat, state, flux_hat):
    return None


def capture_ops(monkeypatch) -> list:
    """Weak references to every `_SpectralOps` the solver builds from now on, in order."""
    built = []

    def recording(grid, dealias, _cls=solver._SpectralOps):
        ops = _cls(grid, dealias)
        built.append(weakref.ref(ops))
        return ops

    monkeypatch.setattr(solver, "_SpectralOps", recording)
    return built


def constraint_series(state: SimState, cfg: StepperConfig, t_end: float, stride: int):
    """The run's samples and the ConstraintReport stacked from each sample's `constraint_monitor`."""
    series = integrate(state, cfg, t_end, lambda z_hat, sample, flux_hat: constraint_monitor(sample.grid, z_hat),
                       sample_stride=stride)
    return series, ConstraintReport(*np.array(series.states).T)


def mode_coefficients(values: np.ndarray, kvecs) -> np.ndarray:
    """Forward-transform coefficients of values[c, *grid] at the integer modes kvecs, shape (c, len(kvecs)).

    Direct sums sum_x values(x) exp(-2 pi i k.x / N), one axis at a time,
    with the sign convention of fftn/rfftn: the oracle for the Duhamel
    check's flux coefficients, which it reads by index.
    """
    n = values.shape[-1]
    out = []
    for kvec in kvecs:
        acc = values
        for k in reversed(kvec):
            acc = acc @ np.exp(-2j * math.pi * k * np.arange(n) / n)
        out.append(acc)
    return np.stack(out, axis=-1)


def packed_fluxes_oracle(state: SimState) -> np.ndarray:
    """The packed fluxes of `nonlinear_fluxes`, each row one expression of the solver docstring's q2 and r2."""
    eq, vel, mag = state.eq, state.velocity, state.magnetic
    n = state.density + eq.n_inf
    weight = -(eq.n_inf**2) / n
    rem = eq.pressure.quadratic_remainder(n, eq.n_inf)
    q2 = [weight * vel[i] * vel[j] - (rem if i == j else 0.0) for i, j in solver._UPPER]
    r2 = [-state.density * state.electric[c] - eq.n_inf * (vel[(c + 1) % 3] * mag[(c + 2) % 3]
                                                           - vel[(c + 2) % 3] * mag[(c + 1) % 3])
          for c in range(3)]
    return np.stack(q2 + r2)


def lin_rhs_oracle(state: SimState) -> np.ndarray:
    """Exact linear right-hand side via the per-mode generator matrices."""
    prop = GridModePropagator(state.grid, state.eq)
    return half_lattice_inverse(state.grid, prop.generator_apply(half_lattice_forward(state.grid, state.z)))


def docstring_generator(xi, eq):
    """d z_hat = G(xi) z_hat per mode: the linear terms of the solver docstring's equations."""
    g = np.zeros(xi.shape[:-1] + (10, 10), dtype=complex)
    ixi = 1j * xi
    b = eq.b_inf_vector
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[..., 0, 1 + i] = -eq.n_inf * ixi[..., i]  # -n_inf div(velocity)
        g[..., 1 + i, 0] = -eq.a_inf * ixi[..., i]  # -a_inf grad(density)
        g[..., 1 + i, 1 + i] = -1.0  # -velocity
        g[..., 1 + i, 4 + i] = -1.0  # -E
        g[..., 1 + i, 1 + j] -= b[k]  # -(velocity x B_inf)_i = -(v_j B_k - v_k B_j)
        g[..., 1 + i, 1 + k] += b[j]
        g[..., 4 + i, 1 + i] = eq.n_inf  # +n_inf velocity
        g[..., 4 + i, 7 + k] += ixi[..., j]  # curl(magnetic)_i = i xi_j h_k - i xi_k h_j
        g[..., 4 + i, 7 + j] -= ixi[..., k]
        g[..., 7 + i, 4 + k] -= ixi[..., j]  # -curl(electric)
        g[..., 7 + i, 4 + j] += ixi[..., k]
    return g


def taylor_exp(a):
    """exp(a) for a batch of small matrices by its Taylor series, converged to roundoff."""
    assert np.max(np.sum(np.abs(a), axis=-1)) < 0.5
    out = term = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    for k in range(1, 30):
        term = term @ a / k
        out = out + term
    return out


def lawson_oracle(z0, grid, eq, h, n_steps, *, dealias=True):
    """Lawson integrating-factor RK4 on the physical state array, from the solver docstring.

    E(h/2) per full-lattice mode is the Taylor exponential of the docstring's
    linear terms, with xi_j zeroed on the Nyquist planes; N is the velocity
    source (div q2 + r2) / n_inf with q2 and r2 masked to |k_j| <= N/3
    before they are differentiated; E(h) is E(h/2) twice.  Returns every state.
    """
    n_pts = grid.points_per_axis
    k_int = np.fft.fftfreq(n_pts, d=1.0 / n_pts)
    xi_axis = np.where(np.abs(k_int) == n_pts // 2, 0.0, 2 * np.pi * k_int / grid.box_length)
    xi = np.meshgrid(*([xi_axis] * 3), indexing="ij")
    keep = np.ones(grid.shape, dtype=bool)
    for kj in np.meshgrid(k_int, k_int, k_int, indexing="ij"):
        keep &= np.abs(kj) <= n_pts // 3
    half = taylor_exp(0.5 * h * docstring_generator(np.stack([c.ravel() for c in xi], axis=-1), eq))

    def propagate(z, halves):
        z_hat = np.fft.fftn(z, axes=(1, 2, 3)).reshape(10, -1)
        for _ in range(halves):
            z_hat = np.einsum("mij,jm->im", half, z_hat)
        return np.fft.ifftn(z_hat.reshape(z.shape), axes=(1, 2, 3)).real

    def partial(f, j):
        return np.fft.ifftn(1j * xi[j] * np.fft.fftn(f)).real

    def masked(f):
        return np.fft.ifftn(keep * np.fft.fftn(f)).real if dealias else f

    def nonlinear(z):
        rho, u, e, h_field = z[0], z[1:4], z[4:7], z[7:10]
        n = rho + eq.n_inf
        law = eq.pressure
        rem = law.p(n) - law.p(eq.n_inf) - law.dp(eq.n_inf) * rho
        r2 = -rho * e - eq.n_inf * np.cross(u, h_field, axis=0)
        out = np.zeros_like(z)
        for i in range(3):
            q2_row = [masked(-(eq.n_inf**2) * u[i] * u[j] / n - (rem if i == j else 0.0)) for j in range(3)]
            out[1 + i] = (sum(partial(q2_row[j], j) for j in range(3)) + masked(r2[i])) / eq.n_inf
        return out

    states = [z0]
    for _ in range(n_steps):
        u = states[-1]
        k1 = nonlinear(u)
        k2 = nonlinear(propagate(u + 0.5 * h * k1, 1))
        k3 = nonlinear(propagate(u, 1) + 0.5 * h * k2)
        k4 = nonlinear(propagate(u, 2) + h * propagate(k3, 1))
        states.append(
            propagate(u, 2) + h / 6 * (propagate(k1, 2) + 2 * propagate(k2 + k3, 1) + k4)
        )
    return states


class TestRhs:
    def test_equilibrium_is_stationary(self, eq, grid16):
        state = SimState(grid=grid16, eq=eq, time=0.0, z=np.zeros((10,) + grid16.shape))
        assert np.all(rhs_eval(state) == 0.0)

    def test_amplitude_halving_quarters_nonlinearity(self, eq, grid16):
        init = initial_data_gen(grid16, eq, seed=3, amplitude=5e-2)
        deviations = []
        for scale in (1.0, 0.5):
            state = SimState(grid=grid16, eq=eq, time=0.0, z=scale * init.state.z)
            diff = rhs_eval(state) - lin_rhs_oracle(state)
            deviations.append(math.sqrt(float(np.sum(diff**2)) * grid16.cell_volume))
        ratio = deviations[0] / deviations[1]
        assert ratio == pytest.approx(4.0, rel=0.10)

    def test_acoustic_wave_fluxes_match_pointwise_formula(self, eq, grid16):
        # single acoustic wave: no electromagnetic perturbation, so the
        # velocity source vanishes and the flux reduces to its two terms
        x = grid16.coordinates[0]
        k = 2 * math.pi / grid16.box_length
        z = np.zeros((10,) + grid16.shape)
        z[0] = 0.02 * np.sin(k * x)
        z[1] = 0.01 * np.sin(k * x)
        state = SimState(grid=grid16, eq=eq, time=0.0, z=z)
        packed = nonlinear_fluxes(state)  # six distinct q2 entries, then r2
        assert packed.shape == (9,) + grid16.shape
        assert np.all(packed[6:] == 0.0)
        pts = [(0, 0, 0), (3, 1, 2), (7, 7, 7), (10, 0, 5), (15, 4, 9)]
        for pt in pts:
            rho = z[0][pt]
            vel = np.array([z[1][pt], z[2][pt], z[3][pt]])
            n = rho + eq.n_inf
            law = eq.pressure
            rem = law.p(n) - law.p(eq.n_inf) - law.dp(eq.n_inf) * rho
            for i in range(3):
                for j in range(3):
                    expected = -(eq.n_inf**2) * vel[i] * vel[j] / n - (rem if i == j else 0.0)
                    assert packed[solver._PACKED[i][j]][pt] == pytest.approx(expected, abs=1e-15)

    def test_density_violation_names_location(self, eq, grid16):
        z = np.zeros((10,) + grid16.shape)
        z[0][2, 3, 4] = -2.0 * eq.n_inf
        state = SimState(grid=grid16, eq=eq, time=0.0, z=z)
        with pytest.raises(DensityError, match=r"\(2, 3, 4\)"):
            rhs_eval(state)


class TestStepping:
    def test_zero_data_stays_zero(self, eq, grid16):
        state = SimState(grid=grid16, eq=eq, time=0.0, z=np.zeros((10,) + grid16.shape))
        out = integrate(state, StepperConfig(dt=0.25), 2.0, keep_coefficients, sample_stride=4)
        assert all(np.all(s == 0.0) for s in out.states)

    def test_rk4_convergence_order(self, eq, grid16):
        init = initial_data_gen(grid16, eq, seed=3, amplitude=5e-2)
        t_end, base_dt = 2.0, 0.4

        def terminal(dt):
            return integrate(init.state, StepperConfig(dt=dt), t_end, keep_nothing, sample_stride=10**6).final.z

        z1, z2, zref = terminal(base_dt), terminal(base_dt / 2), terminal(base_dt / 8)
        e1 = math.sqrt(float(np.sum((z1 - zref) ** 2)) * grid16.cell_volume)
        e2 = math.sqrt(float(np.sum((z2 - zref) ** 2)) * grid16.cell_volume)
        ratio = e1 / e2
        assert 12.0 <= ratio <= 20.0
        assert math.log2(ratio) == pytest.approx(4.0, abs=0.5)

    def test_linear_regime_matches_mode_propagator(self, eq):
        grid = TorusGrid(dim=3, box_length=100.0, points_per_axis=16)
        init = initial_data_gen(grid, eq, seed=11, amplitude=1e-6)
        series = integrate(init.state, StepperConfig(dt=0.02), 1.0, keep_nothing, sample_stride=10**6)
        prop = GridModePropagator(grid, eq)
        zlin = half_lattice_inverse(grid, prop.apply(half_lattice_forward(grid, init.state.z), 1.0))
        z = series.final.z
        rel = math.sqrt(float(np.sum((z - zlin) ** 2) / np.sum(zlin**2)))
        assert rel <= 1e-8

    def test_tiny_amplitude_run_tracks_linear_decay_exponent(self, eq):
        from frequalize.fitting import fit_decay_exponent

        grid = TorusGrid(dim=3, box_length=50.0, points_per_axis=16)
        init = initial_data_gen(grid, eq, seed=21, amplitude=1e-6)
        series = integrate(init.state, StepperConfig(), 20.0, keep_coefficients, sample_stride=4)
        l2_nl = np.array([half_lattice_l2(grid, s) for s in series.states])
        prop = GridModePropagator(grid, eq)
        zhat0 = half_lattice_forward(grid, init.state.z)
        l2_lin = np.array([half_lattice_l2(grid, prop.apply(zhat0, t)) for t in series.times])
        window = (2.0, 20.0)
        fit_nl = fit_decay_exponent(series.times, l2_nl, window)
        fit_lin = fit_decay_exponent(series.times, l2_lin, window)
        assert abs(fit_nl.exponent - fit_lin.exponent) <= 0.05

    def test_cfl_default_positive_and_respected(self, eq, grid16):
        init = initial_data_gen(grid16, eq, seed=1, amplitude=1e-2)
        dt = cfl_dt(init.state, StepperConfig())
        assert 0 < dt < 1.0
        # one step at the CFL-derived dt stays finite and contracts mildly
        out = step(init.state, dt)
        assert np.all(np.isfinite(out.z))

    def test_instability_detector(self, eq, grid16, monkeypatch):
        # the linear flow is propagated exactly, so no step size blows up by
        # itself; a growing quadratic part (dv = +2 v) must trip the 10x norm abort
        init = initial_data_gen(grid16, eq, seed=5, amplitude=1e-2)
        monkeypatch.setattr(solver, "_quadratic", lambda z, ops, eq, time: 2.0 * z[:, 1:4])
        with pytest.raises(SolverInstabilityError, match="norm grew"):
            integrate(init.state, StepperConfig(dt=2.5), 60.0, keep_nothing, sample_stride=10)

    def test_advective_bound_rechecked_at_samples(self, eq, grid16):
        # a flow of speed 1: the CFL-default step covers 5 CFL steps, so
        # h xi_max max|u| = 0.76 exceeds cfl = 0.5 and the run stops at t=0
        z = np.zeros((10,) + grid16.shape)
        z[1] = np.sin(2 * math.pi * grid16.coordinates[1] / grid16.box_length)
        state = SimState(grid=grid16, eq=eq, time=0.0, z=z)
        with pytest.raises(SolverInstabilityError, match=r"at t=0: h xi_max max\|u\| = 0\.7\d* > cfl = 0\.5"):
            integrate(state, StepperConfig(), 5.0, keep_nothing, sample_stride=5)

    @pytest.mark.parametrize("stride,steps_per_sample", [(5, 1), (20, 2)])
    def test_cfl_default_one_table_and_one_step_per_sample(self, eq, grid16, monkeypatch, stride, steps_per_sample):
        tables, steps, fluxes = [], [], []
        for name, log in (("mode_exponentials", tables), ("_lawson", steps), ("nonlinear_fluxes", fluxes)):
            def counting(*args, _fn=getattr(solver, name), _log=log):
                _log.append(args)
                return _fn(*args)

            monkeypatch.setattr(solver, name, counting)
        init = initial_data_gen(grid16, eq, seed=1, amplitude=1e-2)
        series = integrate(init.state, StepperConfig(), 20.0, keep_nothing, sample_stride=stride)
        intervals = math.ceil(20.0 / (stride * cfl_dt(init.state, StepperConfig())))
        h = 20.0 / (intervals * steps_per_sample)
        assert h <= solver.MAX_STEP
        assert len(tables) == 1 and tables[0][2] == pytest.approx(0.5 * h)
        assert len(series.states) == intervals + 1
        assert np.allclose(np.diff(series.times), 20.0 / intervals)
        assert len(steps) == intervals * steps_per_sample
        # four evaluations of N per step, a sample's being the k1 of the step that starts there, and the last
        # sample's fluxes for its observer
        assert len(fluxes) == 4 * len(steps) + 1

    def test_resolution_doubling_changes_norm_below_one_percent(self, eq):
        # residual aliasing of the non-polynomial pressure remainder is
        # resolution-controlled: doubling N moves the terminal norm < 1%
        length = 50.0
        coarse = TorusGrid(dim=3, box_length=length, points_per_axis=16)
        fine = TorusGrid(dim=3, box_length=length, points_per_axis=32)
        init = initial_data_gen(coarse, eq, seed=6, amplitude=5e-2)
        axes = (1, 2, 3)
        coarse_hat = np.fft.fftn(init.state.z, axes=axes)
        half = coarse.points_per_axis // 2
        sl = np.r_[0:half, -half:0]
        fine_hat = np.zeros((10,) + fine.shape, dtype=complex)
        fine_hat[np.ix_(range(10), sl, sl, sl)] = coarse_hat
        upsampled = np.fft.ifftn(fine_hat, axes=axes).real * (
            fine.points_per_axis / coarse.points_per_axis
        ) ** 3
        fine_state = SimState(grid=fine, eq=eq, time=0.0, z=upsampled)
        dt = 0.1
        l2 = []
        for state in (init.state, fine_state):
            out = integrate(state, StepperConfig(dt=dt), 2.0, keep_coefficients, sample_stride=10**6)
            l2.append(half_lattice_l2(state.grid, out.states[-1]))
        assert abs(l2[1] - l2[0]) < 0.01 * l2[0]


def in_cube(grid: TorusGrid) -> np.ndarray:
    """The half-lattice modes inside the 2/3-rule cube |k_j| <= N // 3, counted on the integer lattice."""
    n = grid.points_per_axis
    k = np.abs(np.fft.fftfreq(n, 1.0 / n))
    cube = np.meshgrid(*([k] * (grid.dim - 1) + [k[: grid.half_width]]), indexing="ij")
    return np.logical_and.reduce([c <= n // 3 for c in cube])


class TestBand:
    """The march's state, table and stages live on the dealiased band; samples are scattered back."""

    @pytest.mark.parametrize("dealias", [True, False])
    def test_one_table_on_the_band(self, eq, grid16, monkeypatch, dealias):
        tables = []

        def counting(xi, *args, _fn=solver.mode_exponentials):
            tables.append(len(xi))
            return _fn(xi, *args)

        monkeypatch.setattr(solver, "mode_exponentials", counting)
        init = initial_data_gen(grid16, eq, seed=1, amplitude=1e-2)
        integrate(init.state, StepperConfig(dealias=dealias), 10.0, keep_nothing, sample_stride=5)
        cube = in_cube(grid16)
        assert tables == [int(cube.sum()) if dealias else cube.size]
        assert tables[0] == (11 * 11 * 6 if dealias else 16 * 16 * 9)

    def test_observed_coefficients_vanish_off_the_cube(self, eq, grid16):
        outside = ~in_cube(grid16)
        seen = []

        def observe(z_hat, state, flux_hat):
            seen.append(state.time)
            assert np.all(z_hat[:, outside] == 0.0)
            assert np.any(z_hat[:, ~outside] != 0.0)

        init = initial_data_gen(grid16, eq, seed=2, amplitude=2e-2)
        integrate(init.state, StepperConfig(), 6.0, observe, sample_stride=2)
        assert len(seen) >= 3

    @pytest.mark.parametrize("dealias", [True, False])
    def test_band_norm_is_the_half_lattice_parseval_norm(self, grid16, dealias):
        # the blow-up norm reads the band's weights; the scattered band has the same L^2 norm
        ops = solver._SpectralOps(grid16, dealias)
        values = np.random.default_rng(5).standard_normal((10,) + grid16.shape)
        z = ops.to_march(grid_module.half_lattice_forward(grid16, values))
        want = half_lattice_l2(grid16, ops.scatter(z))
        assert abs(ops.norm(z.T) - want) <= 1e-13 * want
        if not dealias:
            assert abs(want - math.sqrt(float(np.sum(values**2)) * grid16.cell_volume)) <= 1e-13 * want


class TestCoefficientMarch:
    @pytest.mark.parametrize("dealias", [True, False])
    def test_matches_lawson_oracle(self, grid16, dealias):
        eq = EquilibriumState(b_inf=(0.0, 0.0, 0.5))
        init = initial_data_gen(grid16, eq, seed=3, amplitude=5e-2)
        dt, stride = 0.1, 5
        series = integrate(init.state, StepperConfig(dt=dt, dealias=dealias), 2.0, keep_coefficients,
                           sample_stride=stride)
        oracle = lawson_oracle(init.state.z, grid16, eq, dt, 20, dealias=dealias)
        assert len(series.states) == 5
        for k, s in enumerate(series.states):
            ref = oracle[k * stride]
            assert np.linalg.norm(half_lattice_inverse(grid16, s) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dealias", [True, False])
    def test_marched_coefficients_stay_those_of_a_real_field(self, eq, grid16, monkeypatch, dealias):
        # every coefficient array turned into a physical state (the initial data,
        # each RK stage and each sample) must survive irfftn -> rfftn unchanged
        seen = []
        original = SimState.from_coefficients

        def recording(cls, grid, eq, time, z_hat):
            seen.append(z_hat.copy())
            return original(grid, eq, time, z_hat)

        monkeypatch.setattr(SimState, "from_coefficients", classmethod(recording))
        init = initial_data_gen(grid16, eq, seed=7, amplitude=5e-2)
        integrate(init.state, StepperConfig(dt=0.25, dealias=dealias), 2.0, keep_nothing, sample_stride=1)
        assert len(seen) == 1 + 8 * 4 + 1  # the data, four stages per step (k1 is a sample's) and the last sample
        axes = (1, 2, 3)
        for z_hat in seen:
            trip = np.fft.rfftn(np.fft.irfftn(z_hat, s=grid16.shape, axes=axes), axes=axes)
            assert np.max(np.abs(trip - z_hat)) <= 1e-12 * np.max(np.abs(z_hat))

    def test_a_finished_run_keeps_no_buffer(self, eq, grid16, monkeypatch):
        # each run builds its own band operators, and they die with the run, returned or failed
        built = capture_ops(monkeypatch)
        init = initial_data_gen(grid16, eq, seed=3, amplitude=5e-2)
        runs = []
        for _ in range(2):
            runs.append(integrate(init.state, StepperConfig(dt=0.25), 1.0, keep_coefficients, sample_stride=2))
            assert built[-1]() is None
        assert len(built) == 2
        assert all(np.array_equal(a, b) for a, b in zip(*(run.states for run in runs)))

        def failing(z_hat, state, flux_hat):
            if state.time > 0:
                raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed") as failure:
            integrate(init.state, StepperConfig(dt=0.25), 1.0, failing)
        assert built[-1]() is not None  # held by the traceback's frames
        del failure
        gc.collect()
        assert len(built) == 3 and built[-1]() is None

    @pytest.mark.parametrize("call", ["rhs_eval", "coefficient_rhs", "step"])
    def test_single_calls_keep_no_work_arrays(self, eq, grid16, monkeypatch, call):
        # every call builds its band operators, buffer and flux work array included, and drops them on return
        built = capture_ops(monkeypatch)
        init = initial_data_gen(grid16, eq, seed=3, amplitude=5e-2)
        z_hat = half_lattice_forward(grid16, init.state.z)
        run = {
            "rhs_eval": lambda: rhs_eval(init.state),
            "coefficient_rhs": lambda: solver.coefficient_rhs(z_hat, grid16, eq),
            "step": lambda: step(init.state, 0.25),
        }[call]
        first = run()
        assert len(built) == 1 and built[0]() is None
        second = run()
        assert len(built) == 2 and built[1]() is None
        if call == "coefficient_rhs":  # each call hands back a buffer of its own
            assert second is not first and np.array_equal(second, first)

    def test_fluxes_are_formed_in_the_work_array(self, eq, grid16, monkeypatch):
        # every evaluation of N in a march, at a sample or a stage, forms the packed fluxes in the band
        # operators' one work array, bit for bit as the formulas written row by row
        built = capture_ops(monkeypatch)
        returned = []

        def recording(*args, _fn=solver.nonlinear_fluxes):
            out = _fn(*args)
            returned.append(out is built[0]().fluxes and np.array_equal(out, packed_fluxes_oracle(args[0])))
            return out

        monkeypatch.setattr(solver, "nonlinear_fluxes", recording)
        init = initial_data_gen(grid16, eq, seed=3, amplitude=5e-2)
        integrate(init.state, StepperConfig(dt=0.25), 1.0, keep_nothing, sample_stride=2)
        assert returned == [True] * (4 * 4 + 1)
        assert len(built) == 1 and built[0]() is None

    def test_import_leaves_scipy_fft_unloaded(self):
        code = (
            "import sys\n"
            "import frequalize\n"
            "assert 'scipy.fft' not in sys.modules, 'scipy.fft was imported'\n"
        )
        src = str(Path(frequalize.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 0, done.stderr


class TestConstraints:
    def test_compatible_data_machine_zero(self, eq, grid16):
        init = initial_data_gen(grid16, eq, seed=9, amplitude=1e-2)
        _, rep = constraint_series(init.state, StepperConfig(), 5.0, 5)
        assert rep.electric_residual[0] <= 1e-12
        assert rep.magnetic_residual[0] <= 1e-12
        assert np.all(rep.relative <= 1e-12)

    def test_residual_drift_rate(self, eq, grid16):
        init = initial_data_gen(grid16, eq, seed=9, amplitude=1e-2)
        series, rep = constraint_series(init.state, StepperConfig(), 10.0, 10)
        drift = (rep.electric_residual[-1] - rep.electric_residual[0]) / series.times[-1]
        assert abs(drift) <= 1e-9

    def test_incompatible_data_residual_constant(self, eq, grid16):
        # the Gauss functionals are transported identically, so a deliberate
        # violation neither grows nor heals
        init = initial_data_gen(grid16, eq, seed=2, amplitude=1e-2)
        state = init.state
        x = grid16.coordinates[0]
        state.z[4] += 1e-3 * np.sin(2 * math.pi * x / grid16.box_length)
        _, rep = constraint_series(state, StepperConfig(), 5.0, 5)
        assert rep.electric_residual[0] > 1e-6
        assert np.allclose(rep.electric_residual, rep.electric_residual[0], rtol=1e-10)

    def test_mass_and_magnetic_means_conserved(self, eq, grid16):
        init = initial_data_gen(grid16, eq, seed=4, amplitude=3e-2)
        series = integrate(init.state, StepperConfig(), 10.0, keep_coefficients, sample_stride=10)
        for s in series.states:
            z = half_lattice_inverse(grid16, s)
            assert abs(float(z[0].mean())) <= 1e-13
            assert np.max(np.abs(z[7:10].mean(axis=(1, 2, 3)))) <= 1e-13


class TestInitialData:
    def test_norm_scaling_exact(self, eq, grid16):
        init = initial_data_gen(grid16, eq, seed=0, amplitude=2e-2)
        got = besov_norm(init.state.as_field(), BesovSpec(2.5, 2.0, 1.0, False)).value
        assert got == pytest.approx(2e-2, rel=1e-10)
        assert math.isfinite(init.low_order_norm) and init.low_order_norm > 0

    def test_constraint_residuals_machine_zero(self, eq, grid16):
        init = initial_data_gen(grid16, eq, seed=0, amplitude=1e-2)
        _, rep = constraint_series(init.state, StepperConfig(dt=0.5), 0.5, 1)
        assert rep.electric_residual[0] <= 1e-12
        assert rep.magnetic_residual[0] <= 1e-12

    @pytest.mark.parametrize("key,value", [("xi_width", 0.0), ("band_limit", 0.0), ("band_limit", -1.0)])
    def test_profile_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: must be positive"):
            SpectralProfile(**{key: value})

    def test_band_limit_enforced(self, eq, grid16):
        with pytest.raises(ConfigError, match="cutoff"):
            initial_data_gen(
                grid16, eq, seed=0, amplitude=1e-2,
                profile=SpectralProfile(xi_width=0.3, band_limit=10.0),
            )

    def test_determinism(self, eq, grid16):
        a = initial_data_gen(grid16, eq, seed=42, amplitude=1e-2)
        b = initial_data_gen(grid16, eq, seed=42, amplitude=1e-2)
        assert np.array_equal(a.state.z, b.state.z)


class TestDecayExperiment:
    def test_small_run_produces_consistent_report(self, eq):
        grid = TorusGrid(dim=3, box_length=50.0, points_per_axis=16)
        out = decay_experiment(
            grid, eq, seed=1, amplitude=1e-2, t_end=20.0, sample_stride=4,
            fit_window=(2.0, 20.0), run_duhamel=True,
        )
        f = out.functionals
        assert f.times[-1] == pytest.approx(20.0)
        assert np.all(np.isfinite(f.l2))
        assert f.l2[-1] < f.l2[0]
        assert np.all(np.diff(f.n) >= -1e-14)  # running sup
        assert np.all(out.constraints.relative <= 1e-10)
        assert math.isfinite(out.fit.exponent)
        assert out.duhamel is not None
        assert out.duhamel.c1 > 0
        assert math.isfinite(out.duhamel.c_bound)

    def test_saturation_guard_refuses_long_window(self, eq):
        grid = TorusGrid(dim=3, box_length=20.0, points_per_axis=16)
        from frequalize.errors import SaturationWindowError

        with pytest.raises(SaturationWindowError):
            decay_experiment(
                grid, eq, seed=1, amplitude=1e-2, t_end=30.0, sample_stride=4,
                fit_window=(2.0, 30.0),
            )


class TestDuhamel:
    def test_recursive_convolution_matches_direct_trapezoid(self):
        rng = np.random.default_rng(0)
        times = np.concatenate([[0.3], np.sort(rng.uniform(0.3, 9.0, 28)), [9.05]])
        source = rng.uniform(0.0, 2.0, times.size)
        decay = np.array([0.0, 0.07, 0.9, 3.0])
        got = kernel_convolution(times, source, decay)
        for i in range(times.size):
            tau = times[: i + 1]
            for c, rate in enumerate(decay):
                direct = float(np.trapezoid(np.exp(-rate * (times[i] - tau)) * source[: i + 1], tau))
                assert abs(got[i, c] - direct) <= 1e-12 * max(abs(direct), 1.0)

    def test_zero_decay_is_the_cumulative_trapezoid(self):
        # an array-valued source on a non-uniform grid: with decay 0 every
        # factor is exactly 1, so the recursion reproduces the cumsum form bit for bit
        rng = np.random.default_rng(3)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.5, 24))])
        source = rng.uniform(0.0, 3.0, (times.size, 7))
        want = np.zeros_like(source)
        want[1:] = np.cumsum(0.5 * (source[1:] + source[:-1]) * np.diff(times)[:, None], axis=0)
        got = kernel_convolution(times, source, 0.0)
        assert got.shape == source.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_direct_mode_sums_match_rfftn(self, dim):
        values = np.random.default_rng(dim).standard_normal((4,) + (16,) * dim)
        kvecs = [(2,) + (0,) * (dim - 1), (0,) * (dim - 1) + (5,), (1,) * (dim - 1) + (3,)]
        coeffs = np.fft.rfftn(values, axes=tuple(range(1, dim + 1)))
        want = np.stack([coeffs[(slice(None),) + k] for k in kvecs], axis=-1)
        got = mode_coefficients(values, kvecs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_flux_coefficients_by_index_match_direct_sums(self, eq, dim):
        # the observer's flux_hat, read at the Duhamel modes, against direct sums of the fluxes of the
        # sample's physical state; and the source that duhamel_sums forms from it
        grid = TorusGrid(dim=dim, box_length=20.0, points_per_axis=16)
        init = initial_data_gen(grid, eq, seed=dim, amplitude=5e-2)
        kvecs, qs, mags = zip(*solver._duhamel_modes(grid))
        phi2 = np.array([phi(mag / 2.0**q) ** 2 for q, mag in zip(qs, mags)])
        seen = []

        def observe(z_hat, state, flux_hat):
            want = mode_coefficients(nonlinear_fluxes(state), kvecs) * grid.cell_volume
            got = np.stack([flux_hat[(slice(None),) + k] for k in kvecs], axis=-1)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            power = np.abs(want) ** 2
            src = phi2 * (np.square(mags) * (solver._FROBENIUS_WEIGHTS @ power[:6]) + power[6:].sum(axis=0))
            src /= eq.n_inf**2
            assert np.max(np.abs(duhamel_sums(state, z_hat, flux_hat)[1] - src)) <= 1e-12 * np.max(src)
            seen.append(state.time)

        integrate(init.state, StepperConfig(dt=0.25), 1.0, observe, sample_stride=2)
        assert seen == [0.0, 0.5, 1.0]

    def test_source_free_mode_bound(self, eq):
        # with tiny data the source term is negligible and the envelope is
        # essentially the kernel times the initial block power
        grid = TorusGrid(dim=3, box_length=50.0, points_per_axis=16)
        init = initial_data_gen(grid, eq, seed=8, amplitude=1e-5)
        series = integrate(init.state, StepperConfig(), 10.0, lambda z_hat, state, flux_hat: duhamel_sums(state, z_hat, flux_hat),
                           sample_stride=2)
        rep = duhamel_check(grid, series.times, series.states)
        assert rep.c1 > 0
        assert rep.c_bound < 100.0
        assert len(rep.modes) == 3


class TestCoefficientSamples:
    """Each sample is reduced in one pass where `integrate` checks it; the physical-state definitions pin the result."""

    def test_diagnostics_match_physical_state_definitions(self, eq, grid16, monkeypatch):
        grid = grid16
        transforms, steps, samples = [], [], []
        for module in (grid_module, besov, solver):
            for name in ("half_lattice_forward", "forward_transform", "half_lattice_inverse"):
                if hasattr(module, name):
                    def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
                        transforms.append(_name)
                        return _fn(*args, **kwargs)

                    monkeypatch.setattr(module, name, counting)

        def lawson(*args, _fn=solver._lawson):
            steps.append(args[4])  # the step's start time
            return _fn(*args)

        def copying(state, cfg, t_end, observe, _fn=solver.integrate, **kwargs):
            # the coefficients are copied only to rebuild the definitions below
            def both(z_hat, sample, flux_hat):
                samples.append(z_hat.copy())
                return observe(z_hat, sample, flux_hat)

            return _fn(state, cfg, t_end, both, **kwargs)

        monkeypatch.setattr(solver, "_lawson", lawson)
        monkeypatch.setattr(solver, "integrate", copying)
        result = decay_experiment(grid, eq, seed=4, amplitude=2e-2, t_end=4.0, sample_stride=2,
                                  fit_window=(0.5, 4.0), run_duhamel=True)
        series, f = result.series, result.functionals
        n_samples = len(series.states)
        assert n_samples >= 3 and len(samples) == n_samples
        # the initial data's one inverse, then four quadratic evaluations per step, the k1 of a step that
        # starts at a sample being the sample's checked physical state, and the last sample's: the Duhamel
        # sums read the fluxes' forward transform of that evaluation, the other records the coefficients
        assert transforms.count("half_lattice_inverse") == 1 + 4 * len(steps) + 1

        # the three reductions of the stacked records call no transform
        transforms.clear()
        spectra, residuals, sums = zip(*series.states)
        again = energy_functionals(grid, np.array(spectra), series.times)
        constraints = ConstraintReport(*np.array(residuals).T)
        duhamel = duhamel_check(grid, series.times, sums)
        assert transforms == []
        assert np.array_equal(again.d0, f.d0)
        assert np.array_equal(constraints.relative, result.constraints.relative)
        assert duhamel == result.duhamel
        monkeypatch.undo()

        # the definitions on the physical state: full-lattice transforms of each sample rebuilt
        states = [half_lattice_inverse(grid, s) for s in samples]
        spectra = []
        for z in states:
            g = [full_lattice_spectrum(forward_transform(PhysicalField(grid, z[sl])))
                 for sl in (slice(0, 1), slice(1, 4), slice(4, 7), slice(7, 10))]
            spectra.append([sum(g), g[0], g[1], g[2], grid.shell_radii**2 * g[3]])
        spectra = np.array(spectra)
        qs, profiles = block_profiles(grid, homogeneous=False)
        blocks = shell_l2_norms(spectra, profiles)  # [t, group, q]
        t = series.times

        def time_l2(v):  # sqrt of the cumulative trapezoid rule of v^2 along the first axis
            dt = np.diff(t).reshape((-1,) + (1,) * (v.ndim - 1))
            steps = np.cumsum(0.5 * dt * (v[1:] ** 2 + v[:-1] ** 2), axis=0)
            return np.sqrt(np.concatenate([np.zeros((1,) + v.shape[1:]), steps]))

        l2 = np.sqrt(spectra[:, 0].sum(axis=1))
        want = {
            "l2": l2,
            "n": np.maximum.accumulate((1.0 + t) ** 0.75 * l2),
            "n0": np.maximum.accumulate(blocks[:, 0], axis=0) @ 2.0 ** (2.5 * qs),
            "d": sum(time_l2(blocks[:, 1 + j] @ 2.0 ** (s * qs)) for j, s in enumerate((2.5, 2.5, 1.5, 0.5))),
            "d0": sum(time_l2(blocks[:, 1 + j]) @ 2.0 ** (s * qs) for j, s in enumerate((2.5, 2.5, 1.5, 0.5))),
        }
        for name, values in want.items():
            assert np.allclose(getattr(f, name), values, rtol=1e-12, atol=0.0), name

        # Gauss residuals with i xi_j zeroed on the Nyquist planes, as the march's multipliers are
        xi = [np.where(np.abs(c) < grid.xi_max - 1e-9, c, 0.0) for c in full_lattice_xi(grid)[0]]
        for i, z in enumerate(states):
            z_hat = forward_transform(PhysicalField(grid, z)).coefficients
            div_e = sum(1j * xi[j] * z_hat[4 + j] for j in range(3)) + z_hat[0]
            div_b = sum(1j * xi[j] * z_hat[7 + j] for j in range(3))
            for got, div in ((result.constraints.electric_residual[i], div_e),
                             (result.constraints.magnetic_residual[i], div_b)):
                res = math.sqrt(float(np.sum(full_lattice_spectrum(SpectralField(grid, div)))))
                assert abs(got - res) <= 1e-14 * l2[i]

    def test_memory_peak_does_not_grow_with_the_sample_count(self, eq, grid16):
        # the peak is taken from the first sample on: the table of E(h/2), built before it, is
        # larger than every sample of this run together
        init = initial_data_gen(grid16, eq, seed=1, amplitude=1e-2)

        def observe(z_hat, state, flux_hat):
            if state.time == init.state.time:
                tracemalloc.reset_peak()

        integrate(init.state, StepperConfig(dt=0.25), 5.0, observe, sample_stride=20)  # warm the caches
        peaks = {}
        for stride in (20, 1):
            tracemalloc.start()
            try:
                out = integrate(init.state, StepperConfig(dt=0.25), 5.0, observe, sample_stride=stride)
                peaks[len(out.states)] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sorted(peaks) == [2, 21]
        sample_bytes = 10 * grid16.points_per_axis**2 * grid16.half_width * np.dtype(complex).itemsize
        assert abs(peaks[21] - peaks[2]) < sample_bytes

    def test_traced_run_counts_every_sample(self):
        # the benchmark's wrappers replace numpy.fft and scipy.fft for the whole process, so
        # the traced run gets its own interpreter.  The sample count is taken under the
        # recorder's lock, which the wrapped transforms take too: reading series.states
        # must not transform, or the run deadlocks.
        root = Path(__file__).resolve().parents[1]
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(root / 'perfbench')!r})\n"
            "import tracing\n"
            "rec = tracing.Recorder()\n"
            "tracing.install_library_wrappers(rec)\n"
            "import frequalize\n"
            "tracing.install_layer_wrappers(rec)\n"
            "from frequalize import EquilibriumState, TorusGrid\n"
            "from frequalize.solver import decay_experiment\n"
            "out = decay_experiment(TorusGrid(dim=3, box_length=20.0, points_per_axis=8), EquilibriumState(),\n"
            "                       seed=0, t_end=4.0, sample_stride=2, fit_window=(0.5, 4.0), run_duhamel=True)\n"
            "print(len(out.series.states), rec.counters['solver.integrate.samples_kept'])\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=120)
        assert done.returncode == 0, done.stderr
        samples, kept = (int(word) for word in done.stdout.split())
        assert samples >= 3 and kept == samples
