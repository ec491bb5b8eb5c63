"""Dyadic partition of unity and frequency-block operators.

The radial profile chi equals 1 on |xi| <= 3/4, vanishes for |xi| >= 4/3
and follows the exponential ramp in between; it is the one profile the
package uses.  phi(xi) = chi(xi/2) - chi(xi) is supported on the shell
3/4 <= |xi| <= 8/3.
Rescaled copies phi(2^-q xi) tile the frequency lattice with at most two
shells overlapping any point, and they telescope:

    chi(xi) + sum_{q>=0} phi(2^-q xi) = 1            (everywhere)
    sum_{q in Z} phi(2^-q xi) = 1                    (xi != 0)

This module alone decides the dyadic family, and every other module asks
it: the indices q a grid carries (`block_indices`), the family's shell
profiles (`block_profiles`, as (qs, profiles)) and its live blocks
(`live_blocks`: those above ROUNDOFF_FLOOR of the field's largest block;
the others are transform roundoff).  The profiles are radial, so they are
evaluated once per shell of the lattice (see `grid`).  Block L^2 norms
(p = 2) and the Bernstein ratios are dot products of the squared shell
profiles with the shell spectrum of the field's half lattice and never
touch the lattice.  A lattice multiplier is gathered from the shell
values, on the half lattice, only where a block itself is needed: block
extraction and decomposition, which return the half-lattice coefficients
of a real field's blocks, and the inverse-transform route to block L^p
norms with p != 2 (`besov`).  On the torus the homogeneous family never
touches the zero mode, so homogeneous sums reconstruct a field up to its
mean; that mean is the only polynomial the torus can represent, which
realizes the usual quotient convention.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .grid import PhysicalField, SpectralField, TorusGrid, half_lattice_coefficients, half_lattice_spectrum
from .grid import shell_l2_norms

INNER_PLATEAU = 0.75  # chi == 1 inside this radius
OUTER_SUPPORT = 4.0 / 3.0  # chi == 0 outside this radius
ROUNDOFF_FLOOR = 1e-13  # blocks below this share of a field's largest block are transform roundoff


def exponential_ramp(t: np.ndarray) -> np.ndarray:
    """C-infinity monotone ramp from 0 at t<=0 to 1 at t>=1.

    Built from the standard bump g(t) = exp(-1/t): S = g(t)/(g(t)+g(1-t)).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / ti)
        b = np.exp(-1.0 / (1.0 - ti))
    out[inside] = a / (a + b)
    out[t >= 1.0] = 1.0
    return out


def chi(r: np.ndarray | float) -> np.ndarray:
    """The low-pass profile: 1 on |xi| <= 3/4, 0 beyond 4/3, and the exponential ramp in between."""
    t = (np.asarray(r, dtype=float) - INNER_PLATEAU) / (OUTER_SUPPORT - INNER_PLATEAU)
    return 1.0 - exponential_ramp(t)


def phi(r: np.ndarray | float) -> np.ndarray:
    """The shell profile phi(xi) = chi(xi/2) - chi(xi)."""
    return chi(0.5 * np.asarray(r, dtype=float)) - chi(r)


def block_indices(grid: TorusGrid, homogeneous: bool = True) -> np.ndarray:
    """The family's indices on grid: homogeneous, every q whose shell can meet the nonzero lattice and one guard
    on each side (zero on the lattice, so the truncation is exact); inhomogeneous, -1 .. q_max (or -1 alone)."""
    q_max = math.floor(math.log2(4.0 * grid.xi_max / 3.0)) + 1
    if homogeneous:
        return np.arange(math.ceil(math.log2(3.0 * grid.xi_min / 8.0)) - 1, q_max + 1)
    return np.arange(-1, max(q_max, -1) + 1)


def _profile(r: np.ndarray, q: int, homogeneous: bool) -> np.ndarray:
    """Block q's profile at radii r: phi(2^-q r), or, inhomogeneous, chi for q = -1 and zero below it."""
    if homogeneous or q >= 0:
        return phi(r * 2.0**-q)
    return chi(r) if q == -1 else np.zeros_like(r)


def block_profiles(grid: TorusGrid, homogeneous: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The family on the shells: (qs, profiles), profiles[j] being block qs[j] at every grid.shell_radii entry."""
    qs, r = block_indices(grid, homogeneous), grid.shell_radii
    return qs, np.array([_profile(r, q, homogeneous) for q in qs.tolist()]).reshape(-1, r.size)


def live_blocks(norms: np.ndarray) -> np.ndarray:
    """Mask of the live blocks of norms (a field's whole family): above ROUNDOFF_FLOOR of the largest."""
    return norms > ROUNDOFF_FLOOR * norms.max(initial=0.0)


def block_multiplier(grid: TorusGrid, q: int, *, homogeneous: bool = True) -> np.ndarray:
    """Half-lattice values of the block-q Fourier multiplier, gathered from its shell profile."""
    return _profile(grid.shell_radii, q, homogeneous)[grid.shell_index]


def block(field: PhysicalField | SpectralField, q: int, *, homogeneous: bool = True) -> np.ndarray:
    """Half-lattice coefficients of the dyadic block of a real field: coefficientwise phi(2^-q xi)
    (chi for q=-1).

    Out-of-range q returns zeros, matching the convention that the
    inhomogeneous family vanishes below q = -1.
    """
    return half_lattice_coefficients(field) * block_multiplier(field.grid, q, homogeneous=homogeneous)


def decompose(field: PhysicalField | SpectralField, *, homogeneous: bool = True) -> dict[int, np.ndarray]:
    """{q: block(field, q)} over the family's index range, from one half lattice of the field.  The blocks sum
    to the field's half lattice, less its mean when homogeneous."""
    grid, half = field.grid, half_lattice_coefficients(field)
    return {q: half * block_multiplier(grid, q, homogeneous=homogeneous)
            for q in block_indices(grid, homogeneous).tolist()}


def bernstein_ratios(field: PhysicalField | SpectralField, *, order: float = 1.0) -> dict[int, float]:
    """{q: ||Lambda^order block|| / (2^(q order) ||block||) in L^2} over the homogeneous blocks of a real field
    above the roundoff floor; support of the shell forces every ratio into [(3/4)^order, (8/3)^order]."""
    grid = field.grid
    spectrum = half_lattice_spectrum(grid, half_lattice_coefficients(field))
    qs, profiles = block_profiles(grid)
    base = shell_l2_norms(spectrum, profiles)
    live = live_blocks(base)
    deriv = shell_l2_norms(grid.shell_radii ** (2 * order) * spectrum, profiles[live])
    return dict(zip(qs[live].tolist(), (deriv / (2.0 ** (qs[live] * order) * base[live])).tolist()))


def partition_defect(grid: TorusGrid, *, homogeneous: bool = False) -> float:
    """Max deviation of the telescoped profile sum from 1 over the occupied shells
    (those of the half lattice: every other mode is the mirror of one, in its shell).

    Inhomogeneous form: chi + sum_{q>=0} phi(2^-q .) on every occupied
    shell.  Homogeneous form: sum over the active index range, checked on
    the nonzero shells only.
    """
    _, profiles = block_profiles(grid, homogeneous)
    occupied = np.bincount(grid.shell_index.ravel(), minlength=grid.shell_radii.size) > 0
    if homogeneous:
        occupied[0] = False
    return float(np.max(np.abs(profiles.sum(axis=0)[occupied] - 1.0)))


def bernstein_extremes(fields: list[PhysicalField | SpectralField]) -> tuple[float, float]:
    """(min, max) Bernstein ratio over all blocks of the given fields above the roundoff floor."""
    ratios = [r for f in fields for r in bernstein_ratios(f).values()]
    if not ratios:
        raise ConfigError("no nonzero blocks found in the supplied fields")
    return min(ratios), max(ratios)
