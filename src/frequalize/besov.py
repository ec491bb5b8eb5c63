"""Discrete Besov and Chemin-Lerner norms built on the dyadic blocks.

A Besov norm weights the block L^p norms by 2^(q s) and aggregates them in
l^r over the block index.  Homogeneous norms run over every active shell and
exclude the zero mode; its mean is reported separately (the torus analogue
of working modulo polynomials).  Inhomogeneous norms start at the low-pass
block q = -1 and therefore see the mean.

Chemin-Lerner (tilde) norms take the time integrability inside the block
sum.  `running_time_norm` is the one time reduction: given a [time, block]
matrix of block norms it returns, per block, the L^theta norm over every
prefix [t_0, t_i] (a running max at theta = inf, the cumulative trapezoid
rule otherwise).  The l^r aggregation of its rows is the tilde norm; applied
to one column, the aggregated Besov values, it is the plain mixed norm.

Every norm reads the half lattice of a real field through one core,
`half_lattice_besov`, which callers holding half-lattice coefficients call
directly.  Block L^2 norms come from its shell spectrum; every other block
L^p norm takes one inverse transform per component of the block's
half-lattice coefficients, whose squares sum in place into the block's
magnitude, so a block holds one component's transform beside the half
lattice.  A block vanishes outside the cube |k_j| <= reach, reach the isqrt
of the last shell its profile reaches; where that cube is smaller than the
lattice, the transform is the grid's `half_lattice_cube_inverse`, which
inverts only the lattice lines that meet the cube, and otherwise one
irfftn.  Both read the same samples, and a block whose profile vanishes on
every shell takes no transform.  The blocks, their profiles and the
roundoff floor below which a block is dropped come from `littlewood_paley`,
which alone decides the dyadic family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlockWeightError, ConfigError
from .grid import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    half_lattice_coefficients,
    half_lattice_cube_inverse,
    half_lattice_inverse,
    half_lattice_spectrum,
    lp_norm,
    shell_l2_norms,
)
from .littlewood_paley import block_profiles, live_blocks


@dataclass(frozen=True)
class BesovSpec:
    """Regularity s, integrability p, summation r, and homogeneity flag."""

    s: float
    p: float = 2.0
    r: float = 2.0
    homogeneous: bool = True

    def __post_init__(self) -> None:
        if self.p < 1 or self.r < 1:
            raise ConfigError(f"Besov indices require p, r >= 1 (got p={self.p}, r={self.r})")

    def label(self) -> str:
        dot = "hom" if self.homogeneous else "inhom"
        return f"B[s={self.s:g},p={self.p:g},r={self.r:g},{dot}]"


@dataclass(frozen=True)
class NormReport:
    spec: BesovSpec
    value: float
    contributions: dict[int, float]
    mean_magnitude: float = 0.0


def ell_r(values: Sequence[float], r: float) -> float:
    """l^r norm of the positive entries of values (0 when there are none)."""
    arr = np.asarray(values, dtype=float)
    arr = arr[arr > 0.0]
    if arr.size == 0:
        return 0.0
    if math.isinf(r):
        return float(np.max(arr))
    return float(np.sum(arr**r) ** (1.0 / r))


def block_weight(q, s: float):
    """2^(q s), the weight at regularity s of block q (an int, or an array); BlockWeightError past the float range."""
    if not np.all(q * s < 1024.0):  # 2^1024 is past the largest float
        raise BlockWeightError(f"the block weight 2^(q s) at regularity s = {s:g} passes the float range")
    return 2.0 ** (q * s)


def _block_lp(grid: TorusGrid, half: np.ndarray, p: float, homogeneous: bool) -> tuple[np.ndarray, np.ndarray]:
    """(qs, norms): the family's indices and block L^p norms of the real field whose half lattice is half.

    At p = 2 a dot product with the shell spectrum; otherwise one inverse
    transform per block and component (`_block_magnitude`), reduced by
    `lp_norm`; a block whose profile vanishes on every shell takes none and
    reads 0.  A block of a real field is real (its multiplier is real and
    radial), so no symmetry gate is applied per block (on roundoff-level
    blocks it would be meaningless).
    """
    qs, profiles = block_profiles(grid, homogeneous)
    if p == 2.0:
        return qs, shell_l2_norms(half_lattice_spectrum(grid, half), profiles)
    # one block and one component at a time, through buffers that every block reuses: every block's
    # coefficients, or every component's, at once would raise the memory peak
    coeffs = np.empty_like(half[0])
    squares = np.empty(grid.shape) if len(half) > 1 else None
    return qs, np.array([lp_norm(_block_magnitude(grid, half, row, coeffs, squares), p) if row.any() else 0.0
                         for row in profiles])


def _block_magnitude(grid: TorusGrid, half: np.ndarray, row: np.ndarray, coeffs: np.ndarray,
                     squares: np.ndarray | None) -> PhysicalField:
    """The pointwise magnitude of block row (a shell profile, nonzero somewhere) of half, as a one-component
    field.

    The block vanishes outside the cube |k_j| <= reach, reach the isqrt of
    the last shell of its profile, so each component's block coefficients,
    formed in the buffer coeffs, go to `half_lattice_cube_inverse` in place,
    or to `half_lattice_inverse` where the cube covers the lattice; both
    read the same samples.  A single component is its own samples.  Several
    sum their squares into the buffer squares, in component order as
    `lp_norm`'s one-pass sum does, and the magnitude is the square root,
    taken in place.  Non-finite samples are refused, as are squares past the
    float range.
    """
    multiplier = row[grid.shell_index]
    reach = math.isqrt(int(np.flatnonzero(row)[-1]))
    cube = 2 * reach + 1 < grid.points_per_axis
    for c, component in enumerate(half):
        np.multiply(component, multiplier, out=coeffs)
        samples = half_lattice_cube_inverse(grid, coeffs, reach) if cube else half_lattice_inverse(grid, coeffs)
        if len(half) == 1:
            return PhysicalField(grid, samples)
        if c == 0:
            np.multiply(samples, samples, out=squares)
        else:
            np.multiply(samples, samples, out=samples)
            squares += samples
        del samples  # not held through the next component's transform
    return PhysicalField(grid, np.sqrt(squares, out=squares))


def half_lattice_besov(grid: TorusGrid, half: np.ndarray, spec: BesovSpec) -> NormReport:
    """`besov_norm` of the real field with half-lattice coefficients half[components, *half lattice]."""
    qs, norms = _block_lp(grid, half, spec.p, spec.homogeneous)
    live = live_blocks(norms)
    contributions = {q: block_weight(q, spec.s) * b for q, b in zip(qs[live].tolist(), norms[live].tolist())}
    value = ell_r(list(contributions.values()), spec.r)
    mean_mag = 0.0
    if spec.homogeneous:
        zero = (slice(None),) + (0,) * grid.dim
        mean_mag = float(np.linalg.norm(half[zero])) / grid.volume
    return NormReport(spec=spec, value=value, contributions=contributions, mean_magnitude=mean_mag)


def besov_norm(f: PhysicalField | SpectralField, spec: BesovSpec) -> NormReport:
    """Block-weighted norm: l^r over q of 2^(q s) ||block_q f||_Lp.

    Only the half lattice is read, so a SpectralField must hold a real
    field's coefficients; other coefficients raise ConfigError.  f is
    released once its half lattice exists, so a caller that passes its only
    reference frees the samples before the block transforms.
    """
    grid, half = f.grid, half_lattice_coefficients(f)
    del f
    return half_lattice_besov(grid, half, spec)


def negative_norm(f: PhysicalField | SpectralField, varrho: float) -> float:
    """sup_q 2^(-q varrho) ||block_q f||_L2 (homogeneous, varrho > 0)."""
    if varrho <= 0:
        raise ConfigError(f"negative-order norm requires varrho > 0, got {varrho}")
    return besov_norm(f, BesovSpec(-varrho, 2.0, math.inf, True)).value


# ---------------------------------------------------------------------------
# runtime energy functionals for perturbation states


@dataclass(frozen=True)
class EnergyFunctionals:
    """Diagnostic functionals of a perturbation run, one value per prefix [0, t].

    l2      plain L^2 norm of the full state at each sample time
    n       running sup of (1+t)^(3/4) ||z||_L2
    d       dissipation budget: time-L^2 of the component Besov norms
            (density & velocity at s=5/2, electric at 3/2, magnetic gradient
            at 1/2; all inhomogeneous, p=2, r=1)
    n0      tilde sup (per-block max over time before the block sum) of the
            s=5/2 norm of the full state
    d0      tilde version of the dissipation budget
    """

    times: np.ndarray
    l2: np.ndarray
    n: np.ndarray
    d: np.ndarray
    n0: np.ndarray
    d0: np.ndarray


_DISSIPATION_NORMS = (("rho", 2.5), ("velocity", 2.5), ("electric", 1.5), ("magnetic_grad", 0.5))
STATE_REGULARITY = 2.5


def kernel_convolution(times: np.ndarray, source: np.ndarray, decay) -> np.ndarray:
    """Trapezoid rule for int_{t_0}^{t_i} exp(-decay (t_i - tau)) source(tau) dtau at every t_i.

    Exact recursive form, O(len(times)) for any (non-uniform) grid:
    conv_i = e_i conv_{i-1} + h_i / 2 (source_i + e_i source_{i-1}) with
    e_i = exp(-decay h_i).  decay and each source[i] may be arrays; the
    result has shape times.shape + their broadcast shape.  With decay 0
    every e_i is 1 and this is the cumulative trapezoid rule.
    """
    decay = np.asarray(decay, dtype=float)
    conv = np.zeros((len(times),) + np.broadcast_shapes(decay.shape, np.shape(source)[1:]))
    for i in range(1, len(times)):
        h = times[i] - times[i - 1]
        e = np.exp(-decay * h)
        conv[i] = e * conv[i - 1] + 0.5 * h * (source[i] + e * source[i - 1])
    return conv


def running_time_norm(times: np.ndarray, blocks: np.ndarray, theta: float) -> np.ndarray:
    """Per block, the L^theta_t norm over every prefix [t_0, t_i] (theta >= 1).

    blocks holds one row of block norms per time, or one norm per time;
    the result has its shape.  theta = inf is the running max, any other
    theta the cumulative trapezoid rule of blocks^theta to the power 1/theta.
    """
    if math.isinf(theta):
        return np.maximum.accumulate(blocks, axis=0)
    return kernel_convolution(times, blocks**theta, 0.0) ** (1.0 / theta)


def group_spectra(grid: TorusGrid, z_hat: np.ndarray) -> np.ndarray:
    """[group, shell]: the shell spectra of the (rho, velocity, E, h) groups of half-lattice coefficients z_hat."""
    return np.array([half_lattice_spectrum(grid, g) for g in np.split(z_hat, [1, 4, 7])])


def energy_functionals(grid: TorusGrid, spectra: np.ndarray, times: Sequence[float]) -> EnergyFunctionals:
    """The runtime functionals of 10-component states given by their [time, group, shell] `group_spectra`."""
    times = np.asarray(times, dtype=float)
    if times.size != len(spectra):
        raise ConfigError("times and spectra length mismatch")
    qs, profiles = block_profiles(grid, homogeneous=False)

    # [t, group, shell]: z, then each _DISSIPATION_NORMS group (magnetic gradient: |xi|^2 h)
    spectra = np.concatenate([np.sum(spectra, axis=1, keepdims=True), spectra], axis=1)
    spectra[:, 4] *= grid.shell_radii**2
    l2 = np.sqrt(spectra[:, 0].sum(axis=1))
    blocks = shell_l2_norms(spectra, profiles)  # [t, group, q]

    n_func = running_time_norm(times, (1.0 + times) ** 0.75 * l2, math.inf)

    w_state = 2.0 ** (qs * STATE_REGULARITY)
    n0 = running_time_norm(times, blocks[:, 0], math.inf) @ w_state

    d = np.zeros(times.size)
    d0 = np.zeros(times.size)
    for j, (_, s_val) in enumerate(_DISSIPATION_NORMS):
        group = blocks[:, 1 + j]
        w = 2.0 ** (qs * s_val)
        d += running_time_norm(times, group @ w, 2.0)
        d0 += running_time_norm(times, group, 2.0) @ w
    return EnergyFunctionals(times=times, l2=l2, n=n_func, d=d, n0=n0, d0=d0)
