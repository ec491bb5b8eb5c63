"""Per-mode analysis of the linearized damped Euler-Maxwell dynamics.

State ordering is z = (density, velocity[3], electric[3], magnetic[3]) as a
10-vector per Fourier mode.  The linearized system in symmetric-hyperbolic
form is A0 dz/dt + i A(xi) z + L z = 0, so each mode evolves by the
generator M(xi) = -A0^-1 (i A(xi) + L) with

    A0 = diag(a_inf, n_inf I, I, I)
    A(xi): acoustic coupling p'(n_inf) xi between density and velocity,
           Maxwell rotation blocks -/+ Omega_xi between E and B
    L:     velocity relaxation and velocity<->E exchange, with the
           background-field rotation n_inf (I - Omega_B) on the velocity.

A0 is symmetric positive definite, A(xi) symmetric, and the symmetric part
of L is positive semidefinite, so the A0-weighted norm never grows and all
eigenvalues have nonpositive real part.

The Gauss constraints per mode read i xi.E = -rho and i xi.h = 0.  Both are
annihilated by the generator identically (the constraint rows are left null
vectors of M), so the constraint subspace is exactly invariant and the flow
transports compatible data to compatible data.  On that subspace the
spectral gap c(xi) is positive and follows the degenerate dissipative shape:
it grows like |xi|^2 at low frequency and collapses like |xi|^-2 at high
frequency, where the weakly damped electromagnetic wave pair carries the
regularity loss.

A0, A(xi) and L are written once, in `real_mode_matrices`, which builds the
real form R(xi) = D^-1 M(xi) D, D = diag(1, i I6, I3), for a whole batch of
frequencies: each entry coupling a velocity or electric row to a density or
magnetic column, or the reverse, is i times a real number in M(xi), so R is
real and exp(t M(xi)) = D exp(t R(xi)) D^-1.  `mode_matrices` returns
D R(xi) D^-1, and `system_matrices` and `assemble_mode_matrix` read A0, A
and L back from it.  Only real forms are exponentiated, by one of two
evaluators:

- `mode_exponentials`, the single-time evaluator: the real table
  exp(t R(xi)) = D^-1 exp(t M(xi)) D with which the nonlinear solver
  propagates its linear part.  One time needs no eigenvectors: chunk by
  chunk, t R(xi) goes through one batched scaling-and-squaring of a Taylor
  polynomial, matrix products only.
- the multi-time evaluator, a private batched propagator that makes one
  eigendecomposition per symmetry class of its batch (below).  Its `orbit`
  carries a vector or column block y of every mode through a sequence of
  times, P^T y formed once and one real table row Re(V diag(e^{wt}) V^-1) per
  class and time; `powers` sums weighted |exp(t R) y|^2 over each class.  An
  ill-conditioned class takes `scipy.linalg.expm` instead, once per time.

Symmetry classes.  Let b = B_inf / |B_inf|, or e_z when B_inf = 0.  For an
orthogonal Q with det(Q) Q b = b (the rotations about b, and those
rotations times -I: B_inf is a pseudovector) and
P = diag(1, Q, Q, det(Q) Q),

    R(Q xi) = P R(xi) P^T,  so  exp(t R(Q xi)) = P exp(t R(xi)) P^T.

So R(xi) is fixed, up to that rotation, by the key (|xi.b|, |xi x b|), and
the modes of a batch are grouped by it: keys that agree to a few ulps of |xi|
form one class, whose representative is one of its members.  `eig`, `inv`
and the condition number are taken once per class; cond(P V) = cond(V), so
the fallback flag is exact for every member.

Every other caller reads that propagator:
- `ModePropagator` (a batch of one): D^-1 before and D after;
- `pointwise_decay_check`: one mode per sample, one time per sample; its
  ratios are read in real form, as |D y| = |y|;
- `ContinuumEvolver`: the quadrature nodes' classes, through `powers` with
  y0 = D^-1 z0 and the quadrature weights (|P y| = |y|);
- `GridModePropagator`: the half-lattice modes (`TorusGrid.half_modes`,
  xi_j zeroed on the Nyquist planes), the frequencies of the solver's table.
  Every lattice mode is a half-lattice mode or the mirror -xi of one, and
  M(-xi) = conj(M(xi)), so the coefficients of a real field stay those of a
  real field and its half lattice carries the whole evolution.
  `linear_evolve_grid` reads its states from `GridModePropagator.stream`,
  one `orbit` over the times, each time's state in one reused array.

Whole-space decay experiments avoid the torus infrared cutoff by radial
quadrature over continuum modes; lattice evolution is available for
cross-validation of the nonlinear solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .decay_kernel import euler_maxwell_rate
from .equilibrium import EquilibriumState
from .errors import ConfigError, IncompatibleDataError, NumericalError, prefixed
from .fitting import DecayFit, fit_decay_exponent
from .grid import SpectralField, TorusGrid, full_lattice_coefficients, half_lattice_coefficients, half_lattice_l2
from .grid import half_lattice_spectrum, shell_l2_norms

STATE_DIM = 10
_COND_LIMIT = 1e8
_KEY_ULPS = 8  # class keys within this many ulps of |xi| are joined
# modes per chunk of mode_exponentials' Taylor evaluation, whose temporaries take ~14 KB a
# mode, of _EigenPropagator's class products, whose gathered real table rows take 0.8 KB, and
# of its class moments, whose outer products take 1.6 KB; classes per chunk of its eig, inv
# and table rows, whose complex temporaries take 1.6 KB a class
_TABLE_CHUNK = 512
# mode_exponentials takes exp(A) as the degree-40 Taylor polynomial of A / 2^s
# squared s times, s the fewest halvings that bring ||A||_1 to <= 6 (scaling
# and squaring: Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009; with
# a Taylor polynomial: Bader, Blanes & Casas, Mathematics 7, 2019).  The
# Taylor remainder is then below 3e-18 in the 1-norm.  Of the bounds tried, 6
# kept the table's A0-weighted norm closest to 1: smaller bounds lose more to
# the squarings, larger ones to cancellation.  The polynomial is evaluated by
# Paterson-Stockmeyer: blocks of degree < 7 in A, combined by Horner's rule
# in A^7, 11 products in all.
_TAYLOR_THETA = 6.0
_TAYLOR_DEGREE = 40
_PS_BLOCK = 7
_TAYLOR_COEFFS = np.array(
    [1.0 / math.factorial(k) if k <= _TAYLOR_DEGREE else 0.0
     for k in range(_PS_BLOCK * math.ceil((_TAYLOR_DEGREE + 1) / _PS_BLOCK))]
).reshape(-1, _PS_BLOCK)  # row i: the coefficients of A^(7i) .. A^(7i+6)
_RESIDUAL_TOL = 1e-8  # largest Gauss-constraint residual pointwise_decay_check accepts
_COMPAT_TOL = 1e-10  # largest constraint residual and mean linear_evolve_grid accepts


def _chunks(n: int):
    """range(n) as consecutive slices of at most _TABLE_CHUNK rows, which bound the temporaries."""
    for start in range(0, n, _TABLE_CHUNK):
        yield slice(start, min(start + _TABLE_CHUNK, n))


def omega_matrix(v: np.ndarray) -> np.ndarray:
    """Skew matrix with omega(v) w = v x w, batched over the leading axes of v."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def _pad_xi(xi: Sequence[float]) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.size > 3:
        raise ConfigError(f"mode frequency must be a vector of <= 3 components, got {xi.shape}")
    out = np.zeros(3)
    out[: xi.size] = xi
    return out


def _a0_diagonal(eq: EquilibriumState) -> np.ndarray:
    return np.array([eq.a_inf] + [eq.n_inf] * 3 + [1.0] * 6)


# D = diag(1, i I6, I3): D^-1 M(xi) D is real for every xi and B_inf
REAL_FORM_PHASES = np.array([1.0] + [1j] * 6 + [1.0] * 3)


def real_mode_matrices(xi: np.ndarray, eq: EquilibriumState) -> np.ndarray:
    """Real forms R(xi) = D^-1 M(xi) D = -A0^-1 (D^-1 i A(xi) D + L) for xi[..., 3], shape [..., 10, 10].

    The one place where A0, A(xi) and L are written.  D commutes with L,
    and D^-1 i A(xi) D is real and skew: -p'(n_inf) xi in the density row,
    +p'(n_inf) xi in the density column and -Omega_xi in both Maxwell
    blocks.  The batch is filled and scaled in place, so a full lattice
    needs no temporaries of its size.  Every nonzero entry equals the real
    part of D^-1 M(xi) D formed in complex arithmetic bit for bit; only
    the signs of some zero entries differ, and an eigensolver's roundoff
    can depend on those.
    """
    xi = np.asarray(xi, dtype=float)
    r = np.zeros(xi.shape[:-1] + (STATE_DIM, STATE_DIM))
    # D^-1 i A(xi) D: acoustic coupling p'(n_inf) xi and the Maxwell rotation blocks
    coupling = eq.dp_inf * xi
    r[..., 0, 1:4] = -coupling
    r[..., 1:4, 0] = coupling
    r[..., 4:7, 7:10] = -omega_matrix(xi)
    r[..., 7:10, 4:7] = r[..., 4:7, 7:10]
    # L: velocity relaxation with the background rotation, velocity<->E exchange
    r[..., 1:4, 1:4] = eq.n_inf * (np.eye(3) - omega_matrix(eq.b_inf_vector))
    r[..., 1:4, 4:7] = eq.n_inf * np.eye(3)
    r[..., 4:7, 1:4] = -eq.n_inf * np.eye(3)
    np.negative(r, out=r)
    r /= _a0_diagonal(eq)[:, None]
    return r


def mode_matrices(xi: np.ndarray, eq: EquilibriumState) -> np.ndarray:
    """Generators M(xi) = -A0^-1 (i A(xi) + L) = D R(xi) D^-1 for xi[..., 3], shape [..., 10, 10]."""
    return real_mode_matrices(xi, eq) * REAL_FORM_PHASES[:, None] * REAL_FORM_PHASES.conj()


def _require_times(t: np.ndarray) -> None:
    """Refuse a propagation time that is not finite and nonnegative."""
    bad = t[~np.isfinite(t)]
    if bad.size:
        raise ConfigError(f"propagation time must be finite, got {bad.flat[0]}")
    if np.any(t < 0):
        raise ConfigError(f"propagation time must be nonnegative, got {t.min()}")


def _taylor_exponentials(a: np.ndarray) -> np.ndarray:
    """exp(a[r]) for every real a[r] of a[n, 10, 10], by scaling and squaring.

    Each a[r] is scaled by its own 2^-s_r, the table's Taylor polynomial is
    evaluated on the whole batch, and only the rows with s_r >= k take the
    k-th squaring.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norms / _TAYLOR_THETA, 1.0))).astype(int)
    powers = np.empty((_PS_BLOCK + 1,) + a.shape)  # I, A, .., A^7 of the scaled A
    powers[0] = np.eye(STATE_DIM)
    powers[1] = np.ldexp(a, -squarings[:, None, None])
    for j in range(2, _PS_BLOCK + 1):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    blocks = (_TAYLOR_COEFFS @ powers[:_PS_BLOCK].reshape(_PS_BLOCK, -1)).reshape((-1,) + a.shape)
    out = blocks[-1]
    for block in blocks[-2::-1]:
        out = out @ powers[_PS_BLOCK]
        out += block
    for k in range(1, squarings.max(initial=0) + 1):
        rows = np.flatnonzero(squarings >= k)
        square = out[rows]
        out[rows] = square @ square
    return out


def mode_exponentials(xi: np.ndarray, eq: EquilibriumState, t: float) -> np.ndarray:
    """The real table D^-1 exp(t M(xi)) D = exp(t R(xi)) for xi[n, 3], shape (n, 10, 10).

    Built _TABLE_CHUNK modes at a time, each chunk one batched Taylor
    scaling-and-squaring evaluation, so the temporaries stay a fixed size.
    """
    _require_times(np.asarray(t, dtype=float))
    table = np.empty((len(xi), STATE_DIM, STATE_DIM))
    for chunk in _chunks(len(xi)):
        table[chunk] = _taylor_exponentials(t * real_mode_matrices(xi[chunk], eq))
    return table


def system_matrices(eq: EquilibriumState) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """(A0 diagonal, xi -> A(xi), L) of the symmetric-hyperbolic form.

    A and L are real, so A0 M(xi) = -(i A(xi) + L) splits into its parts.
    """
    a0 = _a0_diagonal(eq)
    damping = -(a0[:, None] * mode_matrices(np.zeros(3), eq)).real

    def symbol(xi: np.ndarray) -> np.ndarray:
        return -(a0[:, None] * mode_matrices(_pad_xi(xi), eq)).imag

    return a0, symbol, damping


def assemble_mode_matrix(xi: Sequence[float], eq: EquilibriumState) -> np.ndarray:
    """Generator M(xi) of one Fourier mode, xi padded to three components."""
    return mode_matrices(_pad_xi(xi), eq)


def constraint_matrix(xi: Sequence[float]) -> np.ndarray:
    """Rows of the per-mode Gauss constraints i xi.E + rho = 0, i xi.h = 0."""
    xi = _pad_xi(xi)
    gauss_e = np.zeros(STATE_DIM, dtype=complex)
    gauss_e[0] = 1.0
    gauss_e[4:7] = 1j * xi
    gauss_h = np.zeros(STATE_DIM, dtype=complex)
    gauss_h[7:10] = 1j * xi
    if np.allclose(xi, 0.0):
        return gauss_e[None, :]  # only the density row survives at xi = 0
    return np.vstack([gauss_e, gauss_h])


def gauss_residuals(grid: TorusGrid, half: np.ndarray) -> tuple[float, float, float]:
    """(||rho + div E||, ||div h||, ||z||) in L^2, by Parseval, of the half-lattice coefficients half[10, *grid]."""
    xi = grid.half_modes.T.reshape((3,) + half.shape[1:])
    gauss_e = half[0] + 1j * sum(xi[j] * half[4 + j] for j in range(3))
    gauss_h = 1j * sum(xi[j] * half[7 + j] for j in range(3))
    return half_lattice_l2(grid, gauss_e), half_lattice_l2(grid, gauss_h), half_lattice_l2(grid, half)


def constraint_projector(xi: Sequence[float]) -> np.ndarray:
    """Orthogonal projector onto the constraint subspace of the 10-d mode space."""
    c = constraint_matrix(xi)
    gram = c @ c.conj().T
    return np.eye(STATE_DIM, dtype=complex) - c.conj().T @ np.linalg.solve(gram, c)


def constraint_basis(xi: Sequence[float]) -> np.ndarray:
    """Orthonormal basis (columns) of the constraint subspace."""
    return scipy.linalg.null_space(constraint_matrix(xi))


def constraint_residual(z: np.ndarray, xi: np.ndarray) -> np.ndarray | float:
    """|C(xi) z| / |z|, the relative constraint violation of mode vectors z[..., 10] at xi[..., 3], 0 where z = 0.

    C holds the rows of `constraint_matrix`: the density row alone where
    xi is 0 to 1e-8.  One vector gives a float, a stack one residual per row.
    """
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = _pad_xi(xi)
    gauss_e = z[..., 0] + 1j * np.einsum("...j,...j->...", xi, z[..., 4:7])
    gauss_h = np.where(np.all(np.abs(xi) <= 1e-8, axis=-1), 0.0, 1j * np.einsum("...j,...j->...", xi, z[..., 7:10]))
    scale = np.linalg.norm(z, axis=-1)
    residual = np.hypot(np.abs(gauss_e), np.abs(gauss_h)) / np.where(scale > 0, scale, 1.0)
    return float(residual) if residual.ndim == 0 else residual


def _cluster(values: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Labels of values[n]: sorted neighbours within _KEY_ULPS ulps of scale[n] share one."""
    order = np.argsort(values, kind="stable")
    steps = np.diff(values[order]) > _KEY_ULPS * np.spacing(scale[order][1:])
    labels = np.empty(len(values), dtype=np.intp)
    labels[order] = np.concatenate([[0], np.cumsum(steps)])
    return labels


@dataclass(frozen=True)
class _ModeClasses:
    """The symmetry classes of a batch of frequencies xi[n, 3] (see the module docstring).

    Mode r is carried onto its class's representative xi[first[index[r]]]
    by Q_r = signs[r] turns[r], where turns[r] is a rotation about b, and
    P_r = diag(1, Q_r, Q_r, det(Q_r) Q_r) = diag(1, Q_r, Q_r, turns[r]).
    A representative's own Q is the identity, exactly.
    """

    index: np.ndarray  # (n,) the class of every mode
    first: np.ndarray  # (k,) one member of every class: its representative
    turns: np.ndarray  # (n, 3, 3)
    signs: np.ndarray  # (n,) det(Q_r)

    @cached_property
    def _coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """(signs[r] turns[r][i, j], turns[r][i, j]) laid out [i, j, r]: the real coefficient rows of P_r."""
        plain = self.turns.transpose(1, 2, 0)  # `_mode_classes` lays turns out so, as a view
        return plain * self.signs, plain

    def rotate(self, y: np.ndarray, inverse: bool = False):
        """y overwritten by P y, or P^T y, with the P of each mode.

        y[n, 10] or y[n, 10, k], returned; each output component sums real `turns` entries times components,
        in one pass over the modes: its temporaries are the size of one component.
        """
        blocks = y if y.ndim == 3 else y[..., None]
        signed, plain = (q.swapaxes(0, 1) if inverse else q for q in self._coefficients)
        for start, q in ((1, signed), (4, signed), (7, plain)):
            part = [blocks[:, start + j].copy() for j in range(3)]
            for i in range(3):
                blocks[:, start + i] = sum(q[i, j, :, None] * part[j] for j in range(3))
        return y


def _mode_classes(xi: np.ndarray, eq: EquilibriumState) -> _ModeClasses:
    """Group xi[n, 3] by (|xi.b|, |xi x b|), and find each mode's rotation from its representative."""
    b_inf = eq.b_inf_vector
    field = math.sqrt(float(b_inf @ b_inf))
    b = b_inf / field if field > 0 else np.array([0.0, 0.0, 1.0])
    along = xi @ b
    scale = np.hypot.reduce(xi, axis=1)  # |xi|, without overflow in the squares
    across = np.hypot.reduce(np.cross(xi, b), axis=1)
    keys = _cluster(np.abs(along), scale) * len(xi) + _cluster(across, scale)
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    index = index.ravel()
    rep = first[index]
    # Q = s T with T the rotation about b that takes the representative's perp to s times the mode's
    signs = np.where(np.sign(along) * np.sign(along[rep]) < 0, -1.0, 1.0)
    perp = (xi - along[:, None] * b) / np.where(scale > 0, scale, 1.0)[:, None]
    cos = np.einsum("ij,ij->i", perp[rep], signs[:, None] * perp)
    sin = np.cross(perp[rep], signs[:, None] * perp) @ b
    size = np.hypot(cos, sin)
    on_axis = size == 0  # xi on the b axis (cos = sin = 0): no turn
    cos = np.where(on_axis, 1.0, cos) / np.where(on_axis, 1.0, size)
    sin = sin / np.where(on_axis, 1.0, size)
    rows = cos * np.eye(3)[..., None] + sin * omega_matrix(b)[..., None] + (1.0 - cos) * np.outer(b, b)[..., None]
    return _ModeClasses(index=index, first=first, turns=rows.transpose(2, 0, 1), signs=signs)  # rows [i, j, n]


class _EigenPropagator:
    """exp(t R(xi)) for a batch of frequencies xi[n, 3], one eigendecomposition per class.

    Every array of the propagator has one row per class; mode r of class k
    is carried in the class's frame, exp(t R(xi_r)) = P_r exp(t R_k) P_r^T.
    `orbit` applies one real table row E = Re(V_k diag(e^{w_k t}) V_k^-1) per class and time, or, where the
    eigenbasis is ill-conditioned (near eigenvalue collisions the generator can be defective), expm(t R_k).
    """

    def __init__(self, xi: np.ndarray, eq: EquilibriumState):
        self.classes = _mode_classes(xi, eq)
        self.matrices = real_mode_matrices(xi[self.classes.first], eq)
        count = len(self.matrices)
        self.w = np.empty((count, STATE_DIM), dtype=complex)
        self.v = np.empty((count, STATE_DIM, STATE_DIM), dtype=complex)
        for chunk in _chunks(count):
            self.w[chunk], self.v[chunk] = np.linalg.eig(self.matrices[chunk])
        if not self.w.imag.any():  # eig hands a batch of real spectra back real, and inv then works in reals
            self.w, self.v = self.w.real.copy(), self.v.real.copy()
        self.vinv = np.empty_like(self.v)
        try:
            for chunk in _chunks(count):
                self.vinv[chunk] = np.linalg.inv(self.v[chunk])
        except np.linalg.LinAlgError:
            self.vinv.fill(np.nan)  # a singular V in any chunk: every class takes the fallback
        cond = np.linalg.norm(self.v, axis=(-2, -1)) * np.linalg.norm(self.vinv, axis=(-2, -1))
        self.ill_conditioned = ~(cond < _COND_LIMIT)  # cond(P V) = cond(V): exact for every member

    @staticmethod
    def _class_product(mats: np.ndarray, blocks: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None):
        """mats[rows[r]] @ blocks[r] for every mode r, into out (new if None) in blocks' layout, returned.

        mats are gathered one chunk of modes at a time; they are square, and
        real mats act on the (re, im) pairs of complex blocks.
        """
        if out is None:
            out = np.empty_like(blocks, np.result_type(mats, blocks))
        real_on_complex = mats.dtype == float and blocks.dtype == complex
        pairs, dest = (blocks.view(float), out.view(float)) if real_on_complex else (blocks, out)
        for chunk in _chunks(len(rows)):
            np.matmul(mats[rows[chunk]], pairs[chunk], out=dest[chunk])
        return out

    def _table(self, t: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(E, rows): real rows E[j] = exp(t_j R_k_j), one per class at a shared time t and one per distinct
        (class, time) pair at one time per mode, and the row of every mode.  E is written into out when its
        length fits, _TABLE_CHUNK rows at a time, and the `expm` rows follow."""
        if t.ndim == 0:
            classes, rows, times = None, self.classes.index, np.full(len(self.w), float(t))
        else:
            keys, rows = np.unique(np.stack([self.classes.index, t], axis=1), axis=0, return_inverse=True)
            classes, rows, times = keys[:, 0].astype(np.intp), rows.ravel(), keys[:, 1]
        table = out if out is not None and len(out) == len(times) else np.empty((len(times), STATE_DIM, STATE_DIM))
        for chunk in _chunks(len(times)):
            rep = chunk if classes is None else classes[chunk]
            decay = np.exp(self.w[rep] * times[chunk, None])
            table[chunk] = ((self.v[rep] * decay[:, None, :]) @ self.vinv[rep]).real
        ill = self.ill_conditioned if classes is None else self.ill_conditioned[classes]
        for j in np.flatnonzero(ill):
            table[j] = scipy.linalg.expm(times[j] * self.matrices[j if classes is None else classes[j]])
        return table, rows

    def orbit(self, y: np.ndarray, times: Sequence):
        """exp(t R(xi_r)) y[r] for every mode r of the batch, at each t of times in turn.

        y holds vectors (n, 10) or column blocks (n, 10, k); each t is one
        time or one time per mode.  P_r^T y[r] is formed once, in y's layout;
        each time applies its table row to it and rotates the result back,
        into one work array that the next time overwrites.
        """
        c, vectors, modes = self.classes, y.ndim == 2, y.shape[:1]
        blocks = c.rotate((y[..., None] if vectors else y).copy(order="K"), inverse=True)
        del y  # a temporary y is freed once P^T y exists
        out, table = np.empty_like(blocks), None
        for t in times:
            t = np.asarray(t, dtype=float)
            _require_times(t)
            table, rows = self._table(t if t.ndim == 0 else np.broadcast_to(t, modes), table)
            c.rotate(self._class_product(table, blocks, rows, out))
            yield out[..., 0] if vectors else out

    def powers(self, y: np.ndarray, weights: np.ndarray, times: Sequence):
        """sum_r weights[r] |exp(t R(xi_r)) y[r]|^2 over the modes r of each class, at each t in turn.

        y[n, 10] holds one vector per mode of the batch.  |P z| = |z|, so mode
        r of class k adds |exp(t R_k) P_r^T y[r]|^2, and the class's sum is
        tr(E S_k E^H), E = exp(t R_k), with the moment matrix
        S_k = sum_r weights[r] (P_r^T y[r]) (P_r^T y[r])^H.  S_k is
        summed in eigen-coordinates, C_k = V_k^-1 S_k V_k^-H from
        c_r = V_k^-1 P_r^T y[r], so that a slow eigencomponent keeps the
        relative accuracy of its own coefficients; then, with G_k = V_k^H V_k,
        the sum is sum_ij (G_k)_ij (C_k)_ji exp((conj(w_i) + w_j) t).  A class
        with an ill-conditioned eigenbasis sums |E P_r^T y[r]|^2 by
        `scipy.linalg.expm` instead, one call per class and time.
        """
        c = self.classes
        y = c.rotate(y.copy(), inverse=True)
        coords = self._class_product(self.vinv, y[..., None], c.index)[..., 0]
        moments = np.zeros(self.v.shape, dtype=complex)
        for chunk in _chunks(len(coords)):  # the unchunked sum's order, one chunk in memory
            part = coords[chunk]
            np.add.at(moments, c.index[chunk], weights[chunk, None, None] * part[:, :, None] * part.conj()[:, None, :])
        terms = (self.v.conj().swapaxes(-1, -2) @ self.v) * moments.swapaxes(-1, -2)
        fallback = np.flatnonzero(self.ill_conditioned)
        for t in times:
            _require_times(np.asarray(t, dtype=float))
            decay = np.exp(self.w * t)  # exp((conj(w_i) + w_j) t) = conj(decay_i) decay_j
            out = np.einsum("ki,ki->k", decay.conj(), (terms @ decay[..., None])[..., 0]).real
            for k in fallback:
                members = c.index == k
                states = scipy.linalg.expm(t * self.matrices[k]) @ y[members].T
                out[k] = weights[members] @ np.sum(np.abs(states) ** 2, axis=0)
            yield out


class ModePropagator:
    """exp(t M(xi)) = D exp(t R(xi)) D^-1 of one Fourier mode: the batched propagator on a batch of one."""

    def __init__(self, xi: Sequence[float], eq: EquilibriumState):
        self._prop = _EigenPropagator(_pad_xi(xi)[None], eq)

    def matrix_at(self, t: float) -> np.ndarray:
        real = next(self._prop.orbit(np.eye(STATE_DIM)[None], [t]))[0]
        return REAL_FORM_PHASES[:, None] * real * REAL_FORM_PHASES.conj()

    def apply(self, z0: np.ndarray, t: float) -> np.ndarray:
        z0 = np.asarray(z0, dtype=complex)
        if not np.all(np.isfinite(z0)):
            raise ConfigError("mode data must be finite")
        return self.matrix_at(t) @ z0


def spectral_gap(xi: Sequence[float], eq: EquilibriumState) -> float:
    """Negated largest real part of the generator on the constraint subspace.

    At xi = 0 the value is reported on the closed velocity-electric block
    (the density row is pinned by the constraint and the magnetic block is
    conserved there).
    """
    xi = _pad_xi(xi)
    m = assemble_mode_matrix(xi, eq)
    if np.allclose(xi, 0.0):
        sub = m[1:7, 1:7]
        w = np.linalg.eigvals(sub)
    else:
        basis = constraint_basis(xi)
        w = np.linalg.eigvals(basis.conj().T @ m @ basis)
    gap = -float(np.max(w.real))
    if not math.isfinite(gap):
        raise NumericalError(f"eigensolver failed at xi={xi}")
    return gap


@dataclass(frozen=True)
class GapSweep:
    magnitudes: np.ndarray
    gaps: np.ndarray
    rate_ratios: np.ndarray  # gap / eta0

    def loglog_slope(self, lo: float, hi: float) -> float:
        mask = (self.magnitudes >= lo) & (self.magnitudes <= hi)
        if mask.sum() < 2:
            raise ConfigError(f"too few sweep points in [{lo}, {hi}]")
        x = np.log(self.magnitudes[mask])
        y = np.log(self.gaps[mask])
        return float(np.polyfit(x, y, 1)[0])


def gap_sweep(magnitudes: Sequence[float], eq: EquilibriumState) -> GapSweep:
    """Constrained spectral gap at xi = m e_x for every magnitude m (the x axis)."""
    direction = np.array([1.0, 0.0, 0.0])
    mags = np.asarray(magnitudes, dtype=float)
    rate = euler_maxwell_rate()
    gaps = np.array([spectral_gap(m * direction, eq) for m in mags])
    return GapSweep(magnitudes=mags, gaps=gaps, rate_ratios=gaps / rate.eta(mags))


@dataclass(frozen=True)
class PointwiseDecayReport:
    """Measured (C, c0) for |z(t, xi)| <= C exp(-c0 eta0(xi) t) |z0|."""

    c_bound: float
    c0: float
    n_samples: int
    max_ratio_at_origin: float


def pointwise_decay_check(
    samples: Sequence[tuple[Sequence[float], Sequence[complex], float]],
    eq: EquilibriumState,
) -> PointwiseDecayReport:
    """Grid-search the largest decay constant with a bounded prefactor.

    c0 is scanned up linspace(0, 1.5, 301) and the last value whose
    prefactor C is <= 50 is kept.  Each sample is (xi, z0, t).  Data
    violating the Gauss constraints beyond _RESIDUAL_TOL = 1e-8 is rejected:
    the gradient part of the magnetic component is stationary under the
    flow, so no uniform decay can hold off the constraint set.
    """
    rate = euler_maxwell_rate()
    samples = list(samples)
    if not samples:
        raise ConfigError("no nonzero samples supplied")
    xis = np.array([_pad_xi(xi) for xi, _, _ in samples])
    z0s = np.array([np.asarray(z0, dtype=complex) for _, z0, _ in samples])
    times = np.array([t for _, _, t in samples], dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # data that are not finite get no residual: refused below
        residuals = constraint_residual(z0s, xis)
    refused = np.flatnonzero((residuals > _RESIDUAL_TOL) | ~np.all(np.isfinite(z0s), axis=1))
    if refused.size:  # the first refused sample names its fault
        first = refused[0]
        if not residuals[first] > _RESIDUAL_TOL:
            raise ConfigError("mode data must be finite")
        raise IncompatibleDataError(
            f"mode data violates the divergence constraints (residual {residuals[first]:.3e} "
            f"> {_RESIDUAL_TOL:g}) at xi={tuple(np.round(xis[first], 6))}"
        )
    nonzero = np.linalg.norm(z0s, axis=1) > 0.0
    if not nonzero.any():
        raise ConfigError("no nonzero samples supplied")
    xis, z0s, times = xis[nonzero], z0s[nonzero], times[nonzero]
    y0 = z0s * REAL_FORM_PHASES.conj()  # |D y| = |y|, so the ratios are read in real form
    yt = next(_EigenPropagator(xis, eq).orbit(y0, [times]))
    ratios_arr = np.linalg.norm(yt, axis=1) / np.linalg.norm(y0, axis=1)
    exps = rate.eta(np.linalg.norm(xis, axis=1)) * times
    best_c0, best_c = 0.0, float(np.max(ratios_arr))
    for c0 in np.linspace(0.0, 1.5, 301):
        c = float(np.max(ratios_arr * np.exp(c0 * exps)))
        if c <= 50.0:
            best_c0, best_c = float(c0), c
        else:
            break
    return PointwiseDecayReport(
        c_bound=best_c,
        c0=best_c0,
        n_samples=ratios_arr.size,
        max_ratio_at_origin=float(np.max(ratios_arr)),
    )


# ---------------------------------------------------------------------------
# lattice evolution (exact per-mode propagation on a torus grid)


class GridModePropagator:
    """The batched propagator over every mode of a half lattice.

    Only the classes of the grid's half-lattice modes are decomposed; every
    half-lattice mode is carried in its class's frame.  Coefficients come and
    go as (10, *half lattice) arrays, those of a real field or any others:
    each mode is propagated on its own.
    """

    def __init__(self, grid: TorusGrid, eq: EquilibriumState):
        self._shape = (STATE_DIM,) + grid.shape[:-1] + (grid.half_width,)
        self._prop = _EigenPropagator(grid.half_modes, eq)

    def _per_mode(self, half: np.ndarray, real_op: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """A modewise operator on half (10, *half lattice): real_op(y) applies the real-form operator of every
        half-lattice mode to the rows of y = D^-1 half, component-major as half is, which come back through D."""
        return self._lattice_form(real_op(self._real_form(half)))

    def _real_form(self, half: np.ndarray) -> np.ndarray:
        """The rows y = D^-1 half of every half-lattice mode, component-major as half (10, *half lattice) is."""
        if half.shape != self._shape:
            raise ConfigError(f"half-lattice coefficients of shape {half.shape} != {self._shape}")
        return half.reshape(STATE_DIM, -1).T * REAL_FORM_PHASES.conj()

    def _lattice_form(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """D y of the rows y[n, 10] as half-lattice coefficients (10, *half lattice), into out (new if None)."""
        if out is None:
            out = np.empty(self._shape, dtype=complex)
        np.multiply(y.reshape(-1, STATE_DIM), REAL_FORM_PHASES, out=out.reshape(STATE_DIM, -1).T)
        return out

    def apply(self, half: np.ndarray, t: float) -> np.ndarray:
        """Propagate stacked half-lattice coefficients (10, *half lattice) by time t."""
        return self._per_mode(half, lambda y: next(self._prop.orbit(y, [t])))

    def stream(self, half: np.ndarray, times: Sequence[float]):
        """The state at each of times in turn, one `orbit` over the times.

        D^-1 and P^T touch half once.  Every state is written into one
        array, yielded each time, which the next time overwrites.
        """
        state = np.empty(self._shape, dtype=complex)
        for y in self._prop.orbit(self._real_form(half), times):
            yield self._lattice_form(y, out=state)

    def generator_apply(self, half: np.ndarray) -> np.ndarray:
        """Apply M(xi) modewise (the exact linear right-hand side): R(xi) = P R_k P^T of its class k."""
        prop, rotate = self._prop, self._prop.classes.rotate
        return self._per_mode(half, lambda y: rotate(
            prop._class_product(prop.matrices, rotate(y, inverse=True)[..., None], prop.classes.index)))


@dataclass(frozen=True)
class LinearSolution:
    """Lattice evolution samples with derivative-weighted norms."""

    grid: TorusGrid
    times: np.ndarray
    states: list[SpectralField]
    norms: dict[int, np.ndarray]  # derivative order -> series
    constraint_residuals: np.ndarray


def linear_evolve_grid(
    z0: SpectralField,
    times: Sequence[float],
    eq: EquilibriumState,
    *,
    keep_states: bool = True,
) -> LinearSolution:
    """Exact per-mode evolution of compatible lattice data.

    z0 must be a real field's (`require_hermitian`): its half lattice is
    propagated, and the derivative-weighted L^2 norms of orders 0, 1 and 2
    are read there.  With keep_states, each state is filled out to the full
    lattice by conjugate mirrors (`full_lattice_coefficients`).  Requires
    constraint residual <= _COMPAT_TOL = 1e-10 and density and magnetic
    means at most _COMPAT_TOL of the largest coefficient (the zero mode of
    the magnetic perturbation is conserved, so a nonzero mean would never
    decay).
    """
    if z0.components != STATE_DIM:
        raise ConfigError(f"state needs {STATE_DIM} components, got {z0.components}")
    grid = z0.grid
    half0 = half_lattice_coefficients(z0)
    norm_e, norm_b, scale = gauss_residuals(grid, half0)
    res0 = math.hypot(norm_e, norm_b) / scale if scale > 0 else 0.0  # |(rho + div E, div h)| / |z|
    if res0 > _COMPAT_TOL:
        raise IncompatibleDataError(
            f"initial data violates the divergence constraints (residual {res0:.3e})"
        )
    zero = (0,) * grid.dim
    mean_scale = float(np.max(np.abs(half0)))
    for comp in (0, 7, 8, 9):
        if abs(half0[comp][zero]) > _COMPAT_TOL * mean_scale:
            raise IncompatibleDataError(
                "density and magnetic data must be mean-free for decay runs"
            )
    prop = GridModePropagator(grid, eq)
    times = np.asarray(times, dtype=float)
    weights = np.array([grid.shell_radii**k for k in range(3)])
    series = np.empty((times.size, 3))
    residuals = np.empty(times.size)
    states: list[SpectralField] = []
    for i, half in enumerate(prop.stream(half0, times.tolist())):
        norm_e, norm_b, scale = gauss_residuals(grid, half)
        residuals[i] = math.hypot(norm_e, norm_b) / scale if scale > 0 else 0.0
        series[i] = shell_l2_norms(half_lattice_spectrum(grid, half), weights)
        if keep_states:
            states.append(SpectralField(grid, full_lattice_coefficients(grid, half)))
    norms = {k: series[:, k] for k in range(3)}
    return LinearSolution(
        grid=grid, times=times, states=states, norms=norms, constraint_residuals=residuals
    )


# ---------------------------------------------------------------------------
# continuum radial-quadrature evolution (no infrared cutoff)


@dataclass(frozen=True)
class ContinuumData:
    """Radial recipe for constraint-compatible whole-space mode data.

    kind "gaussian": envelope exp(-width^2 rho^2 / 2) (integrable data with
    bounded transform).  kind "highpass": envelope rho^(-(budget + 3/2)) for
    rho >= cutoff and zero below, whose L^2 derivative budget is exhausted
    at order `budget` (the marginally divergent case, up to a logarithm).
    """

    kind: str = "gaussian"
    width: float = 1.0
    cutoff: float = 10.0
    budget: float = 1.5

    def __post_init__(self) -> None:
        for key in ("width", "cutoff", "budget"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key}: must be positive and finite, got {value}")

    def envelope(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-0.5 * (self.width * rho) ** 2)
        if self.kind == "highpass":
            out = np.where(rho >= self.cutoff, rho, np.inf) ** (-(self.budget + 1.5))
            return out
        raise ConfigError(f"unknown continuum data kind {self.kind!r}")

    def mode_vector(self, rho: float | np.ndarray, frame: np.ndarray) -> np.ndarray:
        """Compatible 10-vector at xi = rho * frame[0], batched over rho[...]."""
        rho = np.asarray(rho, dtype=float)
        g = self.envelope(rho)[..., None]
        omega, e1, e2 = frame
        z = np.zeros(rho.shape + (STATE_DIM,), dtype=complex)
        e_field = g * (omega + e1) / math.sqrt(2.0)
        z[..., 4:7] = e_field
        z[..., 0] = -1j * rho * (e_field @ omega)
        z[..., 1:4] = g * (omega + e1 + e2) / math.sqrt(3.0)
        z[..., 7:10] = g * (e1 + e2) / math.sqrt(2.0)
        return z


def _orthonormal_frame(omega: np.ndarray) -> np.ndarray:
    omega = omega / np.linalg.norm(omega)
    helper = np.array([1.0, 0.0, 0.0]) if abs(omega[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(omega, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(omega, e1)
    return np.stack([omega, e1, e2])


def _sphere_nodes(n_polar: int, n_azimuth: int) -> tuple[np.ndarray, np.ndarray]:
    """Product quadrature on the unit sphere; weights sum to 4 pi."""
    mu, w_mu = np.polynomial.legendre.leggauss(n_polar)
    phis = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    nodes, weights = [], []
    for m, wm in zip(mu, w_mu):
        s = math.sqrt(1.0 - m * m)
        for phi in phis:
            nodes.append([s * math.cos(phi), s * math.sin(phi), m])
            weights.append(wm * 2.0 * math.pi / n_azimuth)
    return np.asarray(nodes), np.asarray(weights)


class ContinuumEvolver:
    """Radial Gauss-Legendre x spherical product quadrature of mode evolution.

    With an isotropic background (B_inf = 0) the frame-built data makes the
    per-mode norm independent of direction, so a single angular node is
    exact; a genuine spherical rule is used otherwise.  All nodes of one
    propagator class share |xi|, so a class enters the norms only through the
    weighted sum of its nodes' |exp(t M(xi)) z0|^2, the propagator's `powers`.
    """

    def __init__(
        self,
        eq: EquilibriumState,
        data: ContinuumData,
        *,
        rho_range: tuple[float, float] = (5e-4, 20.0),
        n_radial: int = 400,
        n_polar: int = 6,
        n_azimuth: int = 8,
    ):
        self.eq = eq
        self.data = data
        log_lo, log_hi = math.log(rho_range[0]), math.log(rho_range[1])
        u, w_u = np.polynomial.legendre.leggauss(n_radial)
        u = 0.5 * (log_hi - log_lo) * u + 0.5 * (log_hi + log_lo)
        w_u = 0.5 * (log_hi - log_lo) * w_u
        self.rho = np.exp(u)
        self.w_rho = w_u * self.rho  # d rho = rho d(log rho)

        isotropic = np.allclose(eq.b_inf_vector, 0.0)
        if isotropic:
            nodes = np.array([[0.0, 0.0, 1.0]])
            ang_w = np.array([4.0 * math.pi])
        else:
            nodes, ang_w = _sphere_nodes(n_polar, n_azimuth)
        self.ang_nodes = nodes

        frames = [_orthonormal_frame(np.asarray(omega)) for omega in nodes]
        xi = np.concatenate([self.rho[:, None] * frame[0] for frame in frames])
        with np.errstate(over="ignore", invalid="ignore"):
            z0 = np.concatenate([data.mode_vector(self.rho, frame) for frame in frames])
        if not np.all(np.isfinite(z0)):
            raise NumericalError(f"the mode data overflow on |xi| in [{rho_range[0]:g}, {rho_range[1]:g}]")
        self._y0 = z0 * REAL_FORM_PHASES.conj()  # D^-1 z0
        self._node_weights = np.outer(ang_w, self.w_rho).ravel()
        self._prop = _EigenPropagator(xi, eq)
        self._class_rho = np.tile(self.rho, len(frames))[self._prop.classes.first]

    def norms(self, times: Sequence[float], orders: Sequence[int] = (0, 1, 2)) -> dict[int, np.ndarray]:
        """Derivative-weighted L^2 norms: (2 pi)^-3 integral of |xi|^2k |z|^2.

        |exp(t M) z0| = |exp(t R) D^-1 z0| because D is diagonal with
        unit-modulus entries, so the real forms need no re-phasing.  A norm
        that overflows where the order-0 norm does not raises ConfigError
        naming the orders; any other overflow raises NumericalError.
        """
        scale = (2.0 * math.pi) ** -3
        out = {}
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a norm that is not finite
            power = np.array(list(self._prop.powers(self._y0, self._node_weights, times))).reshape(
                -1, len(self._class_rho)
            )  # (times, classes)
            for k in orders:
                out[k] = np.sqrt(scale * (power @ self._class_rho ** (2 + 2 * k)))
                if not np.all(np.isfinite(out[k])):
                    message = f"the order-{k} norm overflows on |xi| up to {self._class_rho.max():g}"
                    if np.all(np.isfinite(power @ self._class_rho**2)):
                        raise ConfigError(f"orders: {message}")
                    raise NumericalError(message)
        return out


@dataclass(frozen=True)
class LinearDecayExperiment:
    data: ContinuumData
    times: np.ndarray
    norms: dict[int, np.ndarray]
    fits: dict[int, DecayFit]
    targets: dict[int, float]


def linear_decay_experiment(
    eq: EquilibriumState,
    data: ContinuumData | None = None,
    *,
    times: Sequence[float] | None = None,
    orders: Sequence[int] = (0, 1, 2),
    window: tuple[float, float] | None = None,
) -> LinearDecayExperiment:
    """Whole-space decay fits by continuum quadrature.

    Gaussian data targets the optimal exponents -3/4 - k/2.  The default
    spectral width keeps the data inside the band where the dissipative rate
    is genuinely quadratic, so the stated window shows the asymptotic law
    instead of the crossover transient of frequencies near 1.  High-pass
    data targets the regularity-loss exponent -budget/2; power-law behavior
    there only starts once the surviving modes sit well above the support
    edge, hence the later default window.

    Every ConfigError names its parameter.  A norm that overflows where the
    order-0 norm does not is charged to the orders.  Any other overflow of
    mode data or norm is charged to the cutoff of high-pass data, whose
    quadrature spans [cutoff, 40 cutoff], and to the orders of Gaussian
    data, whose quadrature is fixed.  Data that underflow to 0 at every node
    are charged to the parameter that decays them: the budget of high-pass
    data and the width of Gaussian data.
    """
    data = data or ContinuumData(kind="gaussian", width=2.5)
    try:
        if data.kind == "gaussian":
            times = np.asarray(times if times is not None else np.geomspace(1.0, 1500.0, 36))
            window = window or (10.0, 1000.0)
            evolver = ContinuumEvolver(eq, data)
            targets = {k: -0.75 - k / 2.0 for k in orders}
        else:
            times = np.asarray(times if times is not None else np.geomspace(100.0, 25000.0, 36))
            window = window or (500.0, 20000.0)
            evolver = ContinuumEvolver(
                eq, data, rho_range=(data.cutoff, 40.0 * data.cutoff), n_radial=500
            )
            targets = {k: -data.budget / 2.0 for k in orders}
        norms = evolver.norms(times, orders=orders)
    except NumericalError as exc:
        raise ConfigError(f"{'cutoff' if data.kind == 'highpass' else 'orders'}: {exc}") from None
    if not any(np.any(norm) for norm in norms.values()):
        raise ConfigError(f"{'budget' if data.kind == 'highpass' else 'width'}: "
                          "the mode data underflow to 0 at every quadrature node")
    with prefixed("window: "):
        fits = {
            k: fit_decay_exponent(times, norms[k], window, series_id=f"linear_k{k}_{data.kind}")
            for k in orders
        }
    return LinearDecayExperiment(data=data, times=times, norms=norms, fits=fits, targets=targets)
