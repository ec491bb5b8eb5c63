"""Periodic spatial discretization with continuum-calibrated Fourier duals.

The box [0, L)^dim is sampled on N points per axis.  The forward transform
carries the quadrature weight (L/N)^dim so that coefficients approximate the
continuum Fourier integral of the field and discrete norms converge to their
continuum counterparts under refinement.  With that convention Parseval reads

    sum_j |f(x_j)|^2 (L/N)^dim = L^-dim sum_k |f_hat_k|^2 .

The grid is cubic (one N and one L on every axis), so |xi_k|^2 is exactly
xi_min^2 |k|^2 and the integer m = |k|^2 labels the sphere, or shell, that
xi_k lies on.  A radial multiplier is therefore one value per shell, and
the L^2 norm of any radial multiplier applied to a field is a dot product
with the field's shell spectrum (its power binned by m):

    || w(|D|) f ||_L2^2 = sum_m w(xi_min sqrt(m))^2 E_m,
    E_m = L^-dim sum_{|k|^2 = m} |f_hat_k|^2 .

The grid owns the half lattice, the one place where the Nyquist planes are
decided.  The coefficients of a real field are Hermitian symmetric, so the
half lattice coefficients[..., :N//2+1] (`half_width` columns) holds every
mirror pair once.  `half_lattice_forward` (an rfftn) and
`half_lattice_inverse` (an irfftn) are its calibrated transform pair,
`half_lattice_spectrum` is its shell spectrum and `half_lattice_l2` its
Parseval norm.  The grid's frequency tables (xi, |xi| and the shell index)
are half-lattice arrays: the half lattice is the grid's only frequency
layout.  `half_modes` holds xi of every half-lattice mode with xi_j zeroed
on the Nyquist planes |k_j| = N/2: i xi_j is even in k there, so zeroing it
keeps real fields real under odd derivatives (S. G. Johnson, Notes on
FFT-based differentiation, MIT 2011), and it makes the mirror -xi of every
mode a mode of the lattice.

Every norm and block of a real field reads its half lattice, which
`half_lattice_coefficients` takes from samples (one rfftn) or, behind
`require_hermitian`, from full-lattice coefficients.  The random fields, the
solver's initial data and the lattice mode propagator are built on the half
lattice too, so generating data loads scipy.fft, the one FFT library of
both pairs; importing the package does not.
`full_lattice_coefficients` fills a half lattice out to the full lattice of
a `SpectralField` with conjugate mirrors.  `forward_transform` and
`inverse_transform` are the calibrated full-lattice pair of `SpectralField`.
Both pairs run on every CPU the process may use: pocketfft splits a
transform's independent 1-d lines across threads, so it stays bit-identical.
`_WORKERS`, the CPUs in the process's affinity mask, counted once at import,
is the one worker count of the package: the transforms pass it to
`scipy.fft` as `workers=`, and the mode propagators of `linear_modes`
split their batches into that many contiguous spans of rows.

All operations are pure; reductions run in a fixed index order so repeated
evaluations are bit-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

SUPPORTED_DIMS = (1, 2, 3)
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [0, L)^dim with its frequency lattice.

    Frequencies are xi_k = 2*pi*k/L per axis with integer k in [-N/2, N/2),
    in FFT order along each axis (`axis_frequencies`).  The lattice is
    symmetric about zero except for the unpaired Nyquist row at k = -N/2.
    The frequency tables `frequency_vectors`, `frequency_magnitude` and
    `shell_index` cover the half lattice, of shape
    grid.shape[:-1] + (half_width,): the last axis stops at k = N/2.
    """

    dim: int
    box_length: float
    points_per_axis: int

    def __post_init__(self) -> None:
        if self.dim not in SUPPORTED_DIMS:
            raise ConfigError(f"grid.dim: expected one of {SUPPORTED_DIMS}, got {self.dim}")
        n = self.points_per_axis
        if n < 8 or n % 2 != 0:
            raise ConfigError(
                f"grid.points_per_axis: must be an even integer >= 8, got {n}"
            )
        try:  # the Parseval sums divide by the volume and square coefficients that carry the cell volume
            sizes = (self.box_length, self.volume, self.cell_volume**2)
        except OverflowError:
            sizes = (math.inf,)
        if not all(np.finfo(float).tiny <= size < math.inf for size in sizes):
            raise ConfigError(f"grid.box_length: must be positive, its volume and cell volume^2 normal floats, "
                              f"got {self.box_length!r}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def volume(self) -> float:
        return self.box_length**self.dim

    @property
    def xi_min(self) -> float:
        return 2.0 * math.pi / self.box_length

    @property
    def xi_max(self) -> float:
        """Per-axis Nyquist magnitude pi*N/L."""
        return math.pi * self.points_per_axis / self.box_length

    @cached_property
    def axis_frequencies(self) -> np.ndarray:
        """1-d array of xi values along one axis, FFT ordering."""
        n = self.points_per_axis
        return 2.0 * math.pi * np.fft.fftfreq(n, d=self.spacing / 1.0)

    def _half_mesh(self, axis: np.ndarray, sparse: bool = False) -> list[np.ndarray]:
        """The per-axis values axis[k_j] at every half-lattice mode k: the last axis cut to half_width.

        sparse keeps one axis per array, for sums that broadcast to the half
        lattice without a dense temporary per axis.
        """
        return np.meshgrid(*([axis] * (self.dim - 1) + [axis[: self.half_width]]), indexing="ij", sparse=sparse)

    @cached_property
    def frequency_vectors(self) -> tuple[np.ndarray, ...]:
        """dim half-lattice arrays holding the xi components."""
        return tuple(self._half_mesh(self.axis_frequencies))

    @cached_property
    def frequency_magnitude(self) -> np.ndarray:
        """|xi| of every half-lattice mode."""
        return np.sqrt(sum(c**2 for c in self._half_mesh(self.axis_frequencies, sparse=True)))

    @cached_property
    def shell_index(self) -> np.ndarray:
        """Integer |k|^2 of every half-lattice mode: the shell of each mode."""
        k = np.arange(self.points_per_axis)
        return sum(self._half_mesh(np.minimum(k, self.points_per_axis - k) ** 2, sparse=True))

    @cached_property
    def shell_radii(self) -> np.ndarray:
        """|xi| of shell m = xi_min sqrt(m), for every m from 0 to the largest |k|^2."""
        return self.xi_min * np.sqrt(np.arange(self.dim * (self.points_per_axis // 2) ** 2 + 1))

    @property
    def half_width(self) -> int:
        """N//2+1, the last-axis length of the half lattice."""
        return self.points_per_axis // 2 + 1

    @cached_property
    def half_modes(self) -> np.ndarray:
        """xi of every half-lattice mode, (n_modes, 3) in the order of a flattened half-lattice array.

        xi_j is zero on the Nyquist planes |k_j| = N/2, and so are the
        components past dim.
        """
        n = self.points_per_axis
        xi = self._half_mesh(np.where(2 * np.arange(n) == n, 0.0, self.axis_frequencies))
        return np.stack([c.ravel() for c in xi] + [np.zeros(xi[0].size)] * (3 - self.dim), axis=1)

    @cached_property
    def mirror_index(self) -> np.ndarray:
        """Flat half-lattice index of the mirror -k of every mode k past the half lattice (k_N > N/2),
        in the shape grid.shape[:-1] + (N - half_width,) of those modes."""
        n = self.points_per_axis
        neg = -np.arange(n) % n
        mirror = np.meshgrid(*([neg] * (self.dim - 1) + [neg[self.half_width:]]), indexing="ij")
        return np.ravel_multi_index(mirror, self.shape[:-1] + (self.half_width,))

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, ...]:
        x = np.arange(self.points_per_axis) * self.spacing
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))


def _as_component_array(values: np.ndarray, grid: TorusGrid, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.shape == grid.shape:
        arr = arr[np.newaxis, ...]
    if arr.ndim != grid.dim + 1 or arr.shape[1:] != grid.shape:
        raise ConfigError(
            f"field values of shape {arr.shape} do not match grid shape {grid.shape}"
        )
    return arr


@dataclass(frozen=True)
class PhysicalField:
    """Real samples on the spatial lattice, shape (components, N, ..., N)."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_component_array(self.values, self.grid, float)
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ConfigError(f"non-finite sample at (component, index) = {tuple(bad)}")
        object.__setattr__(self, "values", arr)

    @property
    def components(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients on the frequency lattice, FFT ordering."""

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_component_array(self.coefficients, self.grid, complex)
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ConfigError(f"non-finite coefficient at (component, index) = {tuple(bad)}")
        object.__setattr__(self, "coefficients", arr)

    @property
    def components(self) -> int:
        return self.coefficients.shape[0]


def forward_transform(field: PhysicalField) -> SpectralField:
    """Continuum-calibrated DFT: f_hat_k = (L/N)^dim sum_j f(x_j) exp(-i xi_k.x_j)."""
    import scipy.fft
    grid = field.grid
    coeffs = scipy.fft.fftn(field.values, axes=tuple(range(1, grid.dim + 1)), workers=_WORKERS)
    coeffs *= grid.cell_volume
    return SpectralField(grid, coeffs)


def _reflected(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """coeffs evaluated at -k (indexwise k -> (N-k) mod N on each grid axis)."""
    out = coeffs
    for axis in range(1, dim + 1):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out


def hermitian_defect(field: SpectralField) -> tuple[float, tuple[int, ...]]:
    """Worst |g(-k) - conj(g(k))| over the lattice and the offending index."""
    diff = np.abs(_reflected(field.coefficients, field.grid.dim) - np.conj(field.coefficients))
    flat = int(np.argmax(diff))
    idx = np.unravel_index(flat, diff.shape)
    return float(diff[idx]), idx


def half_lattice_forward(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Half lattice of the calibrated coefficients of real samples values[..., *grid.shape]: one rfftn."""
    import scipy.fft  # deferred: importing the package never loads scipy.fft

    half = scipy.fft.rfftn(values, axes=tuple(range(-grid.dim, 0)), workers=_WORKERS)
    half *= grid.cell_volume
    return half


def half_lattice_inverse(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Samples of the real field whose half-lattice coefficients are half: one irfftn.

    The inverse of `half_lattice_forward`; the rest of the lattice mirrors half.
    """
    import scipy.fft

    values = scipy.fft.irfftn(half, s=grid.shape, axes=tuple(range(-grid.dim, 0)), workers=_WORKERS)
    values /= grid.cell_volume
    return values


def half_lattice_spectrum(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Power per shell over the box volume, indexed like grid.shell_radii, of the real field with
    half-lattice coefficients half[..., *half lattice]; the entries sum to the squared L^2 norm.

    Interior columns count twice: their mirrors, in the same shell, are off the half lattice.
    """
    power = (half.real**2 + half.imag**2).reshape((-1,) + half.shape[-grid.dim:]).sum(axis=0)
    power[..., 1:-1] *= 2.0
    return np.bincount(grid.shell_index.ravel(), weights=power.ravel(),
                       minlength=grid.shell_radii.size) / grid.volume


def half_lattice_l2(grid: TorusGrid, half: np.ndarray) -> float:
    """L^2 norm of the real field with half-lattice coefficients half[..., *half lattice], by Parseval: one sum
    of the power, interior columns counted twice."""
    power = half.real**2 + half.imag**2
    power[..., 1:-1] *= 2.0
    return math.sqrt(float(np.sum(power)) / grid.volume)


def require_hermitian(field: SpectralField) -> None:
    """Reject coefficients that are not those of a real field.

    A Hermitian defect above 1e-10 (relative to the largest coefficient)
    raises ConfigError, naming the worst offending mode.
    """
    grid = field.grid
    scale = float(np.max(np.abs(field.coefficients)))
    defect, idx = hermitian_defect(field)
    if scale > 0 and defect > 1e-10 * scale:
        k = tuple(
            int(i if i <= grid.points_per_axis // 2 else i - grid.points_per_axis)
            for i in idx[1:]
        )
        raise ConfigError(
            f"coefficients are not Hermitian symmetric: defect {defect:.3e} "
            f"(relative {defect / scale:.3e}) at component {idx[0]}, mode k={k}"
        )


def half_lattice_coefficients(field: PhysicalField | SpectralField) -> np.ndarray:
    """Half-lattice coefficients of a real field: one `half_lattice_forward` of its samples,
    or the half of its full-lattice coefficients behind `require_hermitian`."""
    if isinstance(field, PhysicalField):
        return half_lattice_forward(field.grid, field.values)
    require_hermitian(field)
    return field.coefficients[..., : field.grid.half_width]


def half_lattice_solenoidal(grid: TorusGrid, half: np.ndarray) -> None:
    """Remove, in place, the longitudinal part g -> g - xi (xi.g)/|xi|^2 of the vector field
    whose half-lattice coefficients are half[:grid.dim] (zero mode kept)."""
    xi = grid.frequency_vectors
    sq = grid.frequency_magnitude**2
    safe = np.where(sq > 0, sq, 1.0)
    dot = sum(xi[j] * half[j] for j in range(grid.dim))
    for j in range(grid.dim):
        half[j] -= xi[j] * dot / safe


def full_lattice_coefficients(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Full-lattice coefficients of the real field with half-lattice coefficients half[c, *half lattice].

    The columns past the half lattice are the conjugates of their mirrors,
    gathered through `TorusGrid.mirror_index`.
    """
    full = np.empty(half.shape[:-1] + (grid.points_per_axis,), dtype=complex)
    full[..., : grid.half_width] = half
    for part, mirrors in zip(half.reshape(len(half), -1), full[..., grid.half_width :]):  # one component's gather
        np.conjugate(part[grid.mirror_index], out=mirrors)
    return full


def inverse_transform(field: SpectralField) -> PhysicalField:
    """Exact inverse of :func:`forward_transform`, behind :func:`require_hermitian`."""
    import scipy.fft
    require_hermitian(field)
    grid = field.grid
    values = scipy.fft.ifftn(field.coefficients, axes=tuple(range(1, grid.dim + 1)), workers=_WORKERS)
    return PhysicalField(grid, values.real / grid.cell_volume)


def lp_norm(field: PhysicalField, p: float) -> float:
    """Grid-quadrature L^p norm of the pointwise component magnitude.

    Squares are summed over components in one pass; at p = inf the norm is the sqrt of their maximum,
    exact since sqrt is monotone and correctly rounded.  One component reads |v|, which cannot overflow,
    so a caller holding a magnitude (as the block norms of `besov` do) passes it as one component: its sup
    norm is max(max v, -max(-v)) with no copy, and a finite p raises one copy |v| to the power in place."""
    if p < 1:
        raise ConfigError(f"lp_norm requires p >= 1, got {p}")
    v = field.values
    if len(v) == 1:
        if math.isinf(p):
            return abs(max(float(v[0].max()), -float(v[0].min())))  # abs: +0.0 for a zero field, as |v| reads
        mag = np.abs(v[0])
    else:
        mag = np.einsum("i...,i...->...", v, v)
        if math.isinf(p):
            return math.sqrt(float(np.max(mag)))
        np.sqrt(mag, out=mag)
    mag **= p
    if p == 2.0:
        return float(np.sqrt(np.sum(mag) * field.grid.cell_volume))
    return float((np.sum(mag) * field.grid.cell_volume) ** (1.0 / p))


def spectral_l2_norm(field: SpectralField) -> float:
    """L^2 norm evaluated in coefficient space via Parseval."""
    return float(np.sqrt(np.sum(np.abs(field.coefficients) ** 2) / field.grid.volume))


def shell_l2_norms(spectrum: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """L^2 norms of radial multipliers applied to a field, from its shell spectrum.

    spectrum[..., m] is a shell spectrum (an extra radial weight w enters it
    as w^2 * spectrum) and multipliers[j, m] is multiplier j on shell m.
    Returns sqrt(sum_m multipliers[j, m]^2 spectrum[..., m]), of shape
    spectrum.shape[:-1] + (j,).
    """
    return np.sqrt(spectrum @ (np.asarray(multipliers) ** 2).T)


def random_band_limited_field(
    grid: TorusGrid,
    components: int,
    rng: np.random.Generator,
    *,
    zero_mean: bool = True,
) -> PhysicalField:
    """Seeded smooth random field, band-limited strictly below Nyquist.

    White noise is shaped by a Gaussian spectral envelope of width 0.5 xi_max
    (half the Nyquist magnitude) and cut to zero above 0.75 xi_max, so every
    generated field stays clear of the unpaired Nyquist row.  The envelope
    acts on the noise's half lattice, which is inverted one component at a
    time into the samples; they are scaled in place to a largest magnitude
    of 1.
    """
    half = half_lattice_forward(grid, rng.standard_normal((components,) + grid.shape))
    mag = grid.frequency_magnitude
    shape = np.exp(-0.5 * (mag / (0.5 * grid.xi_max)) ** 2)
    shape[mag > 0.75 * grid.xi_max] = 0.0
    half *= shape
    if zero_mean:
        half[(slice(None),) + (0,) * grid.dim] = 0.0
    values = np.empty((components,) + grid.shape)
    for c in range(components):  # an irfftn of every component at once holds a copy of all of them
        values[c] = half_lattice_inverse(grid, half[c])
    scale = max(values.max(), -values.min())
    if scale > 0:
        values /= scale
    return PhysicalField(grid, values)


def gaussian_bump(grid: TorusGrid, width: float) -> PhysicalField:
    """Centered Gaussian of the given width, normalized to unit integral.

    The squared radius sums the squared centred coordinate of each axis, broadcast from one axis,
    so no dense coordinate mesh is built; the rest is computed in place.
    """
    if width <= 0:
        raise ConfigError(f"gaussian width must be positive, got {width}")
    axis = np.arange(grid.points_per_axis) * grid.spacing - 0.5 * grid.box_length
    values = sum(np.meshgrid(*([axis**2] * grid.dim), indexing="ij", sparse=True))
    np.negative(values, out=values)
    values /= 2.0 * width**2
    np.exp(values, out=values)
    values /= (2.0 * math.pi * width**2) ** (grid.dim / 2.0)
    return PhysicalField(grid, values)
