"""Dealiased pseudospectral solver for the nonlinear perturbation dynamics.

The state z = (density, velocity, electric, magnetic) is the deviation from
the constant background; velocity means the density-weighted velocity
n u / n_inf, which linearizes to the fluid velocity.  The evolution is

    d density  = -n_inf div(velocity)
    d velocity = -a_inf grad(density) - E - velocity x B_inf - velocity
                 + (div q2 + r2) / n_inf
    d electric = curl(magnetic) + n_inf velocity
    d magnetic = -curl(electric)

with the quadratic flux and source

    q2 = -n_inf^2 (velocity @ velocity) / n - [p(n) - p(n_inf) - p'(n_inf) rho] I
    r2 = -rho E - n_inf velocity x magnetic ,      n = rho + n_inf .

The state is marched as the band of its calibrated half-lattice
coefficients: the 2/3-rule cube |k_j| <= N/3 with dealias (S. A. Orszag,
J. Atmos. Sci. 28, 1971), every half-lattice mode without; the band's
Parseval norm watches for blow-up.  Per mode the right-hand side is
M(xi) z + N(z): the generator of `linear_modes.real_mode_matrices` plus
the quadratic part N, nonzero in the three velocity rows only.  N scatters
the band into the half lattice for one 10-component inverse transform (the
physical fields for the density check and the products) and gathers it
back from one 9-component forward transform of the packed fluxes (the six
distinct entries of the symmetric q2, then r2; `nonlinear_fluxes`): with
dealias, that gather is the 2/3 rule.  The pressure remainder of a power
law is not polynomial, so its dealiasing is approximate and controlled by
resolution checks rather than exactness.

The march is Lawson's integrating-factor RK4: with E(h) = exp(h M) per mode,

    k1 = N(u)                    k2 = N(E(h/2) (u + h/2 k1))
    k3 = N(E(h/2) u + h/2 k2)    k4 = N(E(h) u + h E(h/2) k3)
    u+ = E(h) u + h/6 (E(h) k1 + 2 E(h/2) (k2 + k3) + k4) ,

so the linear waves and their damping are propagated exactly and RK4 only
integrates N.  One table of E(h/2) on the band is built per run
(`linear_modes.mode_exponentials`: the real form D^-1 E D, by batched Taylor
scaling and squaring, with no eigendecomposition) and E(h) is E(h/2) twice;
grouped as E(h/2) [E(h/2) u + h/6 E(h/2) k1 + h/3 (k2 + k3)] + h/6 k4, a
step applies the table four times.  The march holds the band in the
table's real form, mode-major (`_SpectralOps`), so an apply is one real
matmul per chunk of modes; D enters only where the band is scattered into
the half lattice and where N is gathered from it.  The call that marches
(`integrate`, `coefficient_rhs` or `step`) owns its band operators and their
work arrays, the half-lattice buffer and the packed fluxes: every evaluation
of N in the call reuses both, and they are freed when it returns.

A sample costs no evaluation of N of its own: `integrate` evaluates N at
every sample time as the k1 of the step that starts there, checks the
sample on that evaluation's inverse transform and hands the observer the
band scattered into the half lattice, that physical state and the
half-lattice coefficients of its packed fluxes, the evaluation's forward
transform.  So a run keeps no states, and the Duhamel check reads the
fluxes at its modes by index, as it reads the state.

Every frequency of the march is a row of `TorusGrid.half_modes`.  Its xi_j
vanishes on the Nyquist planes |k_j| = N/2, so the coefficients stay those
of a real field even without dealiasing; the dealiased band excludes them.

The Gauss functionals div E + rho and div h are annihilated by the
right-hand side for any state (curl terms are divergence-free and the
velocity sources cancel), and their rows are left null vectors of M, so
every stage and every table apply preserves them exactly up to roundoff;
observed drift is pure time-integrator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable

import numpy as np

from .besov import BesovSpec, EnergyFunctionals, energy_functionals, group_spectra, half_lattice_besov
from .besov import kernel_convolution
from .decay_kernel import euler_maxwell_rate
from .equilibrium import EquilibriumState
from .errors import ConfigError, DensityError, SolverInstabilityError
from .fitting import DecayFit, fit_decay_exponent
from .grid import PhysicalField, TorusGrid, half_lattice_forward, half_lattice_inverse, half_lattice_solenoidal
from .linear_modes import REAL_FORM_PHASES, gauss_residuals, mode_exponentials, real_mode_matrices
from .littlewood_paley import phi

STATE_DIM = 10
MAX_STEP = 2.0  # cap on the CFL-default step: the largest step measured accurate on the desk run
MAX_STEPS = 10**6  # most steps one run may take: about a day at 32^3, where a step costs about 0.09 s
_APPLY_CHUNK = 2048  # modes per real matmul when a table is applied
_VELOCITY = slice(1, 4)  # the rows where the quadratic part is nonzero


@dataclass(frozen=True)
class StepperConfig:
    """Lawson integrating-factor RK4 step.

    Without dt one step covers one sample interval: the span is split into
    ceil(span / (stride x CFL dt)) equal sample intervals, each of at most
    MAX_STEP = 2.0, where the CFL dt counts the flow, sound and light speeds
    of the initial state.  An explicit dt is used as given (rounded down to
    divide the span).  Every sample rechecks the advective bound
    h xi_max max|u| <= cfl.
    """

    cfl: float = 0.5
    dt: float | None = None
    dealias: bool = True

    def __post_init__(self) -> None:
        if self.dt is not None and self.dt <= 0:
            raise ConfigError(f"stepper.dt must be positive, got {self.dt}")
        if self.cfl <= 0:
            raise ConfigError(f"stepper.cfl must be positive, got {self.cfl}")


@dataclass(frozen=True)
class SpectralProfile:
    """Isotropic spectral envelope for random initial data.

    The band edge must stay at or below the dealiasing cutoff so quadratic
    products remain alias-free from the first step.
    """

    xi_width: float = 0.3
    band_limit: float | None = None

    def __post_init__(self) -> None:
        if not self.xi_width > 0:
            raise ConfigError(f"xi_width: must be positive, got {self.xi_width}")
        if self.band_limit is not None and not self.band_limit > 0:
            raise ConfigError(f"band_limit: must be positive, got {self.band_limit}")

    def envelope(self, mag: np.ndarray, band_edge: float) -> np.ndarray:
        out = np.exp(-0.5 * (mag / self.xi_width) ** 2)
        return np.where(mag <= band_edge, out, 0.0)


_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))  # packed order of symmetric q2
_PACKED = ((0, 1, 2), (1, 3, 4), (2, 4, 5))  # packed index of q2[i, j]
_FROBENIUS_WEIGHTS = np.array([1.0 if i == j else 2.0 for i, j in _UPPER])  # multiplicities in |q2|_F^2


def _band_edge(grid: TorusGrid) -> float:
    """The 2/3-rule cutoff 2 pi (N // 3) / L: the dealiased band is the cube |k_j| <= N // 3."""
    return 2.0 * math.pi * (grid.points_per_axis // 3) / grid.box_length


class _SpectralOps:
    """The march's band, a flat index into the half lattice (the 2/3-rule cube |k_j| <= N/3 with dealias, else
    every mode), with its modes, multipliers i xi_j, Parseval weights (2 on interior columns, 1 on the edge
    planes), one half-lattice buffer to scatter into, whose entries off the band stay zero, and one work array
    of the lattice's size for the packed fluxes; each call that marches builds its own, freed when it returns.

    The march holds a state's band in the form its tables act on: mode-major and in real form, y[m] = D^-1 z_m
    with D = diag(REAL_FORM_PHASES), shape (n_band, 10).  D is applied only where the band enters or leaves the
    half lattice, so a table applies with no phase pass or transpose.
    """

    def __init__(self, grid: TorusGrid, dealias: bool):
        self.grid = grid
        inside = reduce(np.logical_and, [np.abs(c) <= _band_edge(grid) + 1e-12 for c in grid.frequency_vectors])
        self.band = np.flatnonzero(inside) if dealias else np.arange(inside.size)
        self.modes = grid.half_modes[self.band]
        self.ik = 1j * self.modes.T[: grid.dim]
        self.weights = np.where(np.isin(self.band % grid.half_width, (0, grid.half_width - 1)), 1.0, 2.0)
        self.buffer = np.zeros((STATE_DIM,) + grid.shape[:-1] + (grid.half_width,), dtype=complex)
        self.fluxes = np.empty((9,) + grid.shape)

    def gather(self, half: np.ndarray) -> np.ndarray:
        """The band of half-lattice coefficients half[c, *half lattice], shape (c, n_band)."""
        return half.reshape(len(half), -1)[:, self.band]

    def to_march(self, half: np.ndarray) -> np.ndarray:
        """The march's form y of the band of a state's half-lattice coefficients half[10, *half lattice]."""
        y = np.empty((len(self.band), STATE_DIM), dtype=complex)
        return np.multiply(self.gather(half).T, REAL_FORM_PHASES.conj(), out=y)

    def scatter(self, y: np.ndarray) -> np.ndarray:
        """The buffer, overwritten with the band coefficients D y of the march's form y; nothing off the band."""
        self.buffer.reshape(STATE_DIM, -1)[:, self.band] = (y * REAL_FORM_PHASES).T
        return self.buffer

    def norm(self, coeffs: np.ndarray) -> float:
        """L^2 norm, by Parseval, of the real field with band coefficients coeffs[..., n_band]."""
        return math.sqrt(float(np.sum(self.weights * (coeffs.real**2 + coeffs.imag**2))) / self.grid.volume)


def _apply_table(
    table: np.ndarray, coeffs: np.ndarray, rows: slice = slice(None), out: np.ndarray | None = None
) -> np.ndarray:
    """table[m] applied to the march's form coeffs[m] of every mode m (see _SpectralOps).

    table is real, (n_modes, 10, 10).  coeffs[n_modes, c] holds the `rows`
    components of a state whose other components are zero; the result is
    (n_modes, 10).  Each chunk of modes is one real matmul over interleaved
    (re, im) pairs, into a buffer that every chunk reuses; out may be coeffs
    itself, since a chunk is read before it is written.
    """
    table = table[:, :, rows]
    n_modes, n_rows = coeffs.shape
    if out is None:
        out = np.empty((n_modes, STATE_DIM), dtype=complex)
    pairs = coeffs.view(float).reshape(n_modes, n_rows, 2)
    image = np.empty((min(n_modes, _APPLY_CHUNK), STATE_DIM, 2))
    for start in range(0, n_modes, _APPLY_CHUNK):
        span = slice(start, start + _APPLY_CHUNK)
        m = min(n_modes - start, _APPLY_CHUNK)
        out[span] = np.matmul(table[span], pairs[span], out=image[:m]).view(complex)[..., 0]
    return out


@dataclass
class SimState:
    """Perturbation state on a torus grid at one instant."""

    grid: TorusGrid
    eq: EquilibriumState
    time: float
    z: np.ndarray  # (10, *grid.shape)

    def __post_init__(self) -> None:
        expected = (STATE_DIM,) + self.grid.shape
        if self.z.shape != expected:
            raise ConfigError(f"state array shape {self.z.shape} != {expected}")

    @classmethod
    def from_coefficients(cls, grid, eq, time: float, z_hat: np.ndarray) -> "SimState":
        """The physical state whose half-lattice coefficients are z_hat."""
        return cls(grid=grid, eq=eq, time=time, z=half_lattice_inverse(grid, z_hat))

    @property
    def density(self) -> np.ndarray:
        return self.z[0]

    @property
    def velocity(self) -> np.ndarray:
        return self.z[1:4]

    @property
    def electric(self) -> np.ndarray:
        return self.z[4:7]

    @property
    def magnetic(self) -> np.ndarray:
        return self.z[7:10]

    def total_density(self) -> np.ndarray:
        return self.density + self.eq.n_inf

    def as_field(self) -> PhysicalField:
        return PhysicalField(self.grid, self.z)


def nonlinear_fluxes(state: SimState, out: np.ndarray | None = None) -> np.ndarray:
    """The packed fluxes (q2, r2) evaluated pointwise in physical space, shape (9, *grid).

    Rows 0-5 are the six distinct entries of the symmetric q2, in _UPPER
    order (q2[i, j] is row _PACKED[i][j]); rows 6-8 are r2.  They are formed
    in out when it is given, and every intermediate but the pressure
    remainder lives in rows not yet written: r2 first, through two rows of q2
    per cross-product component, then n and the weight -n_inf^2 / n in the
    last two rows of q2, which those rows overwrite last.
    """
    eq = state.eq
    vel, density = state.velocity, state.density
    packed = np.empty((9,) + state.grid.shape) if out is None else out
    for c in range(3):  # r2 = -rho E - n_inf velocity x magnetic
        i, j = (c + 1) % 3, (c + 2) % 3
        cross = np.multiply(vel[i], state.magnetic[j], out=packed[0])
        cross -= np.multiply(vel[j], state.magnetic[i], out=packed[1])
        cross *= eq.n_inf
        r2 = np.negative(density, out=packed[6 + c])
        r2 *= state.electric[c]
        r2 -= cross
    n = np.add(density, eq.n_inf, out=packed[5])  # the total density
    rem = eq.pressure.quadratic_remainder(n, eq.n_inf)
    weight = np.divide(-(eq.n_inf**2), n, out=packed[4])
    for k in (0, 1, 2, 3, 5, 4):  # row 5 (n) once the remainder is taken, row 4 (the weight) last
        i, j = _UPPER[k]
        np.multiply(weight, vel[i], out=packed[k])
        packed[k] *= vel[j]
    for i in range(3):
        packed[_PACKED[i][i]] -= rem
    return packed


def _positive_density(state: SimState) -> np.ndarray:
    """Total density n of the state; DensityError where it is not positive."""
    n = state.total_density()
    n_min = float(n.min())
    if n_min <= 0.0:
        loc = tuple(int(i) for i in np.unravel_index(int(np.argmin(n)), n.shape))
        raise DensityError(f"total density reached {n_min:.3e} at grid index {loc} (t={state.time:g})")
    return n


def _velocity_source(packed_hat: np.ndarray, ops: _SpectralOps, eq: EquilibriumState) -> np.ndarray:
    """N in the march's form from the band of the packed fluxes' coefficients packed_hat[9, n_band]: the
    velocity rows (div q2 + r2) / n_inf, each times its phase conj(D) = -i, shape (n_band, 3)."""
    out = np.empty((len(ops.band), 3), dtype=complex)
    for i in range(3):
        div = sum(ops.ik[j] * packed_hat[_PACKED[i][j]] for j in range(ops.grid.dim))  # div q2, row i
        source = (div + packed_hat[6 + i]) / eq.n_inf
        np.multiply(source, REAL_FORM_PHASES[1 + i].conjugate(), out=out[:, i])
    return out


def _quadratic(z: np.ndarray, ops: _SpectralOps, eq: EquilibriumState, time: float) -> np.ndarray:
    """N(z) of the march's form z: its velocity rows, in the march's form, shape (n_band, 3)."""
    state = SimState.from_coefficients(ops.grid, eq, time, ops.scatter(z))
    _positive_density(state)
    packed = nonlinear_fluxes(state, ops.fluxes)
    del state  # the transform below is the peak of a step
    return _velocity_source(ops.gather(half_lattice_forward(ops.grid, packed)), ops, eq)


def coefficient_rhs(
    z_hat: np.ndarray, grid: TorusGrid, eq: EquilibriumState, *, time: float = 0.0, dealias: bool = True
) -> np.ndarray:
    """M(xi) z + N(z): the time derivative of the band z of half-lattice coefficients z_hat, zero off the band."""
    ops = _SpectralOps(grid, dealias)
    z = ops.to_march(z_hat)
    dz = _apply_table(real_mode_matrices(ops.modes, eq), z)
    dz[:, _VELOCITY] += _quadratic(z, ops, eq, time)
    return ops.scatter(dz)  # the buffer, which outlives the operators


def rhs_eval(state: SimState, *, dealias: bool = True) -> np.ndarray:
    """Time derivative of the physical state array, taken on the march's band (`coefficient_rhs`)."""
    _positive_density(state)  # on the state itself, before its coefficients are cut to the band
    grid = state.grid
    dz_hat = coefficient_rhs(half_lattice_forward(grid, state.z), grid, state.eq, time=state.time, dealias=dealias)
    return half_lattice_inverse(grid, dz_hat)


def _flow_speed(state: SimState, n: np.ndarray) -> float:
    """max |u| of the fluid velocity u = n_inf velocity / n."""
    u = state.eq.n_inf * state.velocity / n
    return float(np.max(np.sqrt(np.sum(u**2, axis=0))))


def cfl_dt(state: SimState, cfg: StepperConfig) -> float:
    """C_cfl / (xi_max (max|u| + max sound speed + 1)); the +1 covers light speed."""
    n = _positive_density(state)
    c_s = float(np.max(np.sqrt(state.eq.pressure.dp(n))))
    return cfg.cfl / (state.grid.xi_max * (_flow_speed(state, n) + c_s + 1.0))


def _check_sample(state: SimState, h: float, cfl: float) -> None:
    """Positive density and the advective bound h xi_max max|u| <= cfl on a sample."""
    margin = h * state.grid.xi_max * _flow_speed(state, _positive_density(state))
    if margin > cfl:
        raise SolverInstabilityError(
            f"step {h:g} breaks the advective bound at t={state.time:g}: "
            f"h xi_max max|u| = {margin:.3g} > cfl = {cfl:g}"
        )


def _lawson(
    z: np.ndarray, half: np.ndarray, ops: _SpectralOps, eq: EquilibriumState, t: float, h: float,
    k1: np.ndarray,
) -> np.ndarray:
    """One Lawson step of the march's form z from t; half is the band's table of E(h/2), k1 is N(z).

    z is overwritten.  The step holds three band-size arrays: z becomes
    a = E(h/2) u and then the k4 stage, b = E(h/2) k1 becomes the bracket of
    the last apply, and one more holds the k2 and k3 stages.
    """
    a = _apply_table(half, z, out=z)
    b = _apply_table(half, k1, _VELOCITY)
    stage = b * (0.5 * h)
    stage += a
    k2 = _quadratic(stage, ops, eq, t + 0.5 * h)
    stage[:] = a
    stage[:, _VELOCITY] += (0.5 * h) * k2
    k3 = _quadratic(stage, ops, eq, t + 0.5 * h)
    del stage
    b *= h / 6.0
    b += a
    b[:, _VELOCITY] += (h / 3.0) * (k2 + k3)  # E(h/2) u + h/6 E(h/2) k1 + h/3 (k2 + k3)
    a[:, _VELOCITY] += h * k3
    k4 = _quadratic(_apply_table(half, a, out=a), ops, eq, t + h)
    out = _apply_table(half, b, out=b)
    out[:, _VELOCITY] += (h / 6.0) * k4
    return out


def step(state: SimState, dt: float, *, dealias: bool = True) -> SimState:
    """One Lawson step of the state's band, with a band table built for dt on every call."""
    ops = _SpectralOps(state.grid, dealias)
    half = mode_exponentials(ops.modes, state.eq, 0.5 * dt)
    z = ops.to_march(half_lattice_forward(state.grid, state.z))
    z = _lawson(z, half, ops, state.eq, state.time, dt, _quadratic(z, ops, state.eq, state.time))
    return SimState.from_coefficients(state.grid, state.eq, state.time + dt, ops.scatter(z))


@dataclass
class SimulationSeries:
    """states[i] is the observer's value for the sample at times[i]; final is the last sample."""

    times: np.ndarray
    states: list
    final: SimState


def integrate(
    state: SimState,
    cfg: StepperConfig,
    t_end: float,
    observe: Callable[[np.ndarray, SimState, np.ndarray], Any],
    *,
    sample_stride: int = 1,
) -> SimulationSeries:
    """March to t_end with fixed Lawson steps and observe every sample.

    Without cfg.dt every step ends a sample interval (see StepperConfig);
    with it, every sample_stride-th step and the last one are sampled.  The
    input state is checked for positive density and the advective bound, and
    its band is the first sample.  At every sample N is evaluated once, as
    the k1 of the step that starts there: its inverse transform is the
    sample's physical state, checked as the input was, and
    observe(z_hat, state, flux_hat) is kept.  z_hat is the march's band
    scattered into the half lattice, zero off the band, in a buffer that the
    next step overwrites; flux_hat is the half lattice of the state's packed
    fluxes (`nonlinear_fluxes`), (9, *half lattice).  The last sample has no
    step after it, so its N is not assembled.  Aborts with diagnostics when
    the L^2 norm grows past 10 times its initial value (spectral blowup).  A
    run of more than MAX_STEPS steps is refused with a ConfigError naming
    stepper.dt, or stepper.cfl when dt is not given.
    """
    if t_end <= state.time:
        raise ConfigError("t_end must exceed the initial time")
    span = t_end - state.time
    if cfg.dt is None:
        key, dt = "stepper.cfl", sample_stride * cfl_dt(state, cfg)
    else:
        key, dt = "stepper.dt", cfg.dt
    # ceil(span / dt), saturated past MAX_STEPS so that a tiny dt neither overflows nor divides by 0
    intervals = math.ceil(span / dt) if span <= MAX_STEPS * dt else MAX_STEPS + 1
    if cfg.dt is None:
        stride = math.ceil(span / intervals / MAX_STEP)
        n_steps = intervals * stride
    else:
        n_steps, stride = max(1, intervals), sample_stride
    if n_steps > MAX_STEPS:
        raise ConfigError(f"{key}: the run to t={t_end:g} needs more than {MAX_STEPS} steps")
    h = span / n_steps
    _check_sample(state, h, cfg.cfl)
    grid, eq = state.grid, state.eq
    ops = _SpectralOps(grid, cfg.dealias)
    half = mode_exponentials(ops.modes, eq, 0.5 * h)
    z = ops.to_march(half_lattice_forward(grid, state.z))
    base = ops.norm(z.T)
    times, states = [], []
    for k in range(n_steps + 1):
        t = state.time + k * h
        if k > 0:
            z = _lawson(z, half, ops, eq, state.time + (k - 1) * h, h, k1)
            if not np.all(np.isfinite(z)):
                raise SolverInstabilityError(f"non-finite state at t={t:g} (step {k})")
            norm = ops.norm(z.T)
            if base > 0 and norm > 10.0 * base:
                raise SolverInstabilityError(f"norm grew {norm / base:.2f}x past the abort threshold at t={t:g}")
        if k % stride and k < n_steps:
            k1 = _quadratic(z, ops, eq, t)
            continue
        sample = SimState.from_coefficients(grid, eq, t, ops.scatter(z))
        if k > 0:
            _check_sample(sample, h, cfg.cfl)
        else:  # the advective bound was checked on the input state
            _positive_density(sample)
        flux_hat = half_lattice_forward(grid, nonlinear_fluxes(sample, ops.fluxes))
        times.append(t)
        states.append(observe(ops.buffer, sample, flux_hat))
        if k < n_steps:
            k1 = _velocity_source(ops.gather(flux_hat), ops, eq)
            del sample, flux_hat  # no sample is held through the steps that follow
    return SimulationSeries(times=np.array(times), states=states, final=sample)


@dataclass(frozen=True)
class ConstraintReport:
    electric_residual: np.ndarray  # ||div E + rho||_L2
    magnetic_residual: np.ndarray  # ||div h||_L2
    relative: np.ndarray  # max residual / ||z||_L2


def constraint_monitor(grid: TorusGrid, z_hat: np.ndarray) -> tuple[float, float, float]:
    """(||div E + rho||_L2, ||div h||_L2, their max / ||z||_L2) of one sample's half-lattice coefficients."""
    norm_e, norm_b, scale = gauss_residuals(grid, z_hat)
    return norm_e, norm_b, max(norm_e, norm_b) / scale if scale > 0 else 0.0


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class InitialData:
    state: SimState
    amplitude: float  # inhomogeneous s=5/2 norm of the state
    low_order_norm: float  # homogeneous negative-order (3/2) norm

    @property
    def i1(self) -> float:
        """Size of the data in the intersection space driving the decay theory."""
        return self.amplitude + self.low_order_norm


def initial_data_gen(
    grid: TorusGrid,
    eq: EquilibriumState,
    seed: int,
    amplitude: float = 1e-2,
    profile: SpectralProfile | None = None,
) -> InitialData:
    """Random smooth constraint-compatible data of prescribed norm.

    Density and magnetic components are mean-free, the longitudinal electric
    part is slaved to the density (div E = -rho), the magnetic part is
    solenoidal, and the whole state is rescaled so its s=5/2 norm equals the
    requested amplitude exactly.  Everything is band-limited below the
    dealiasing cutoff.
    """
    if amplitude <= 0:
        raise ConfigError(f"amplitude must be positive, got {amplitude}")
    profile = profile or SpectralProfile()
    cutoff = _band_edge(grid)
    if profile.band_limit is not None and profile.band_limit > cutoff + 1e-12:
        raise ConfigError(f"init.profile: band limit {profile.band_limit:g} exceeds the dealiasing cutoff {cutoff:g}")
    edge = cutoff if profile.band_limit is None else min(profile.band_limit, cutoff)
    rng = np.random.default_rng(seed)
    # one draw of the ten components is the draws of rho, velocity, E and h in turn
    half = half_lattice_forward(grid, rng.standard_normal((STATE_DIM,) + grid.shape))
    mag = grid.frequency_magnitude
    half *= profile.envelope(mag, edge)
    half[(slice(None),) + (0,) * grid.dim] = 0.0

    xi = grid.frequency_vectors
    sq = mag**2
    safe = np.where(sq > 0, sq, 1.0)
    half_lattice_solenoidal(grid, half[4:7])  # the solenoidal parts of E and h
    half_lattice_solenoidal(grid, half[7:10])
    for j in range(grid.dim):
        half[4 + j] += 1j * xi[j] * half[0] / safe  # div E = -rho

    state = SimState.from_coefficients(grid, eq, 0.0, half)
    base = half_lattice_besov(grid, half, BesovSpec(2.5, 2.0, 1.0, False)).value
    if base == 0.0:
        raise ConfigError("generated data is identically zero; widen the profile")
    state.z *= amplitude / base
    low = half_lattice_besov(grid, half * (amplitude / base), BesovSpec(-1.5, 2.0, math.inf, True)).value
    return InitialData(state=state, amplitude=amplitude, low_order_norm=low)


# ---------------------------------------------------------------------------
# per-mode integral-inequality check on recorded nonlinear sources


@dataclass(frozen=True)
class DuhamelReport:
    """Measured (C, c1) for the blockwise source-forced decay bound.

    For sampled modes xi in block q the squared block coefficient is tested
    against exp(-c1 eta0 t) |z0|^2 plus the kernel-convolved quadratic
    sources |xi|^2 |Q|^2 + |R|^2.
    """

    modes: tuple[tuple[tuple[int, ...], int, float], ...]  # (k-vector, q, |xi|)
    c1: float
    c_bound: float


def _duhamel_modes(grid: TorusGrid) -> tuple[tuple[tuple[int, ...], int, float], ...]:
    """(k-vector, q, |xi|) of k = (2, 0, 0), (0, 0, min(6, N/3)) and (1, 1, min(3, N/3)) in 3-d: each k is on
    the half lattice, where z is read by index, and q is the block whose phi peaks at |xi|."""
    n, pad = grid.points_per_axis, grid.dim - 1
    modes = []
    for kvec in ((2,) + (0,) * pad, (0,) * pad + (min(6, n // 3),), (1,) * pad + (min(3, n // 3),)):
        mag = float(np.linalg.norm([grid.axis_frequencies[k] for k in kvec]))
        top = math.floor(math.log2(max(mag, 1e-12)))
        q = max(range(top - 2, top + 3), key=lambda qq: float(phi(mag / 2.0**qq)))
        modes.append((kvec, q, mag))
    return tuple(modes)


def duhamel_sums(state: SimState, z_hat: np.ndarray, flux_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One sample's phi^2 |z|^2 (lhs) and phi^2 (|xi|^2 |Q|^2 + |R|^2) / n_inf^2 (src) at `_duhamel_modes`: z and
    the packed fluxes (Q, R) are read by index from their half lattices z_hat and flux_hat, as `integrate` hands
    them to its observer."""
    kvecs, qs, mags = zip(*_duhamel_modes(state.grid))
    phi2 = np.array([float(phi(mag / 2.0**q)) ** 2 for q, mag in zip(qs, mags)])
    z_power, flux_power = (np.abs(np.stack([half[(slice(None),) + kvec] for kvec in kvecs], axis=-1)) ** 2
                           for half in (z_hat, flux_hat))
    qf = _FROBENIUS_WEIGHTS @ flux_power[:6]
    rf = np.sum(flux_power[6:9], axis=0)
    return phi2 * np.sum(z_power, axis=0), phi2 * (np.square(mags) * qf + rf) / state.eq.n_inf**2


def duhamel_check(grid: TorusGrid, times: np.ndarray, sums) -> DuhamelReport:
    """From the samples' `duhamel_sums`: scan c1 up linspace(0, 1, 101), keep the last c1 whose C is <= 100."""
    rate = euler_maxwell_rate()
    modes = _duhamel_modes(grid)
    lhs, src = np.array(sums).transpose(1, 2, 0)  # [mode, time] each

    c1s = np.linspace(0.0, 1.0, 101)
    worst = np.zeros(c1s.size)  # per candidate: max over modes and times of lhs / envelope
    for m, (kvec, q, mag) in enumerate(modes):
        if lhs[m, 0] <= 0:
            continue
        decay = c1s * float(rate.eta(mag))
        envelope = np.exp(-np.outer(times, decay)) * lhs[m, 0] + kernel_convolution(times, src[m], decay)
        ratio = np.divide(lhs[m][:, None], envelope, out=np.zeros_like(envelope), where=envelope > 0)
        worst = np.maximum(worst, ratio.max(axis=0, initial=0.0))
    best_c1, best_c = 0.0, math.inf
    for c1, w in zip(c1s, worst):
        if w > 100.0:
            break
        best_c1, best_c = float(c1), float(w)
    return DuhamelReport(modes=modes, c1=best_c1, c_bound=best_c)


# ---------------------------------------------------------------------------
# the desk-scale decay experiment


@dataclass
class DecayExperimentResult:
    series: SimulationSeries
    functionals: EnergyFunctionals
    constraints: ConstraintReport
    fit: DecayFit
    initial: InitialData
    saturation_time: float
    duhamel: DuhamelReport | None


def decay_experiment(
    grid: TorusGrid,
    eq: EquilibriumState,
    *,
    seed: int = 0,
    amplitude: float = 1e-2,
    profile: SpectralProfile | None = None,
    stepper: StepperConfig | None = None,
    t_end: float = 100.0,
    sample_stride: int = 5,
    fit_window: tuple[float, float] = (5.0, 100.0),
    run_duhamel: bool = False,
) -> DecayExperimentResult:
    """Nonlinear run with decay diagnostics and the saturation-guarded fit; each sample is reduced as it is taken."""
    stepper = stepper or StepperConfig()
    init = initial_data_gen(grid, eq, seed, amplitude, profile)

    def observe(z_hat: np.ndarray, state: SimState, flux_hat: np.ndarray) -> tuple:
        sums = duhamel_sums(state, z_hat, flux_hat) if run_duhamel else None
        return group_spectra(grid, z_hat), constraint_monitor(grid, z_hat), sums

    series = integrate(init.state, stepper, t_end, observe, sample_stride=sample_stride)
    spectra, residuals, sums = zip(*series.states)
    functionals = energy_functionals(grid, np.array(spectra), series.times)
    constraints = ConstraintReport(*np.array(residuals).T)
    saturation = 1.0 / float(euler_maxwell_rate().eta(grid.xi_min))
    fit = fit_decay_exponent(
        functionals.times,
        functionals.l2,
        fit_window,
        series_id=f"nonlinear_seed{seed}",
        saturation_time=saturation,
    )
    report = duhamel_check(grid, series.times, sums) if run_duhamel else None
    return DecayExperimentResult(
        series=series,
        functionals=functionals,
        constraints=constraints,
        fit=fit,
        initial=init,
        saturation_time=saturation,
        duhamel=report,
    )
