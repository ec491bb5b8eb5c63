"""Property tests: shell-spectrum block norms, half-lattice block L^p norms and the
partition of unity on random grids.

`full_lattice_spectrum` is the oracle for the half lattice's shell spectrum:
it bins the power of every full-lattice mode, so it holds for any
coefficients.  `full_lattice_xi` and `full_lattice_shells` are the
full-lattice frequency tables that the grid's half-lattice tables are cut
from.  The other test modules import them from here."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frequalize.besov import BesovSpec, besov_norm, half_lattice_besov
from frequalize.grid import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    forward_transform,
    half_lattice_forward,
    half_lattice_inverse,
    half_lattice_l2,
    half_lattice_spectrum,
    lp_norm,
    shell_l2_norms,
)
from frequalize.littlewood_paley import ROUNDOFF_FLOOR, block_indices, block_profiles, chi, phi

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)


@st.composite
def cubic_grids(draw) -> TorusGrid:
    dim = draw(st.integers(1, 3))
    n = 2 * draw(st.integers(4, 12))
    length = draw(st.floats(1.0, 200.0, allow_nan=False, allow_infinity=False))
    return TorusGrid(dim=dim, box_length=length, points_per_axis=n)


def full_lattice_xi(grid: TorusGrid) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The xi components and |xi| of every full-lattice mode, FFT order along each axis: the meshgrid
    of grid.axis_frequencies, then the sum of squares and sqrt."""
    xi = tuple(np.meshgrid(*([grid.axis_frequencies] * grid.dim), indexing="ij"))
    sq = np.zeros(grid.shape)
    for comp in xi:
        sq += comp**2
    return xi, np.sqrt(sq)


def full_lattice_shells(grid: TorusGrid) -> np.ndarray:
    """Integer |k|^2 of every full-lattice mode, FFT order along each axis, from fftfreq."""
    n = grid.points_per_axis
    k = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.intp)
    return sum(c**2 for c in np.meshgrid(*([k] * grid.dim), indexing="ij"))


@st.composite
def band_limited_fields(draw) -> SpectralField:
    """Random coefficients cut off at a random fraction of the axis Nyquist magnitude."""
    grid = draw(cubic_grids())
    components = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    keep = draw(st.floats(0.2, 1.0))
    rng = np.random.default_rng(seed)
    shape = (components,) + grid.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[:, full_lattice_xi(grid)[1] > keep * grid.xi_max] = 0.0
    return SpectralField(grid, coeffs * grid.volume)


@st.composite
def white_noise_fields(draw) -> PhysicalField:
    """Real white noise: every mode is occupied, the Nyquist planes included."""
    grid = draw(cubic_grids())
    components = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return PhysicalField(grid, rng.standard_normal((components,) + grid.shape))


LP_EXPONENTS = st.sampled_from([1.0, 1.5, 3.0, math.inf])


def lattice_profile(grid: TorusGrid, q: int, homogeneous: bool) -> np.ndarray:
    """Block-q multiplier on the full lattice, straight from |xi|: chi(|xi|) or phi(2^-q |xi|)."""
    mag = full_lattice_xi(grid)[1]
    if not homogeneous and q == -1:
        return chi(mag)
    return phi(mag / 2.0**q)


def lattice_power(field: SpectralField) -> np.ndarray:
    """|f_hat_k|^2 summed over components at every full-lattice mode k."""
    return np.sum(np.abs(field.coefficients) ** 2, axis=0)


def full_lattice_spectrum(field: SpectralField) -> np.ndarray:
    """Power per shell over the box volume, binned from every full-lattice mode, any coefficients."""
    grid = field.grid
    binned = np.bincount(full_lattice_shells(grid).ravel(), weights=lattice_power(field).ravel(),
                         minlength=grid.shell_radii.size)
    return binned / grid.volume


def lattice_block_norm(field: SpectralField, q: int, homogeneous: bool) -> float:
    """sqrt(sum_k profile(|xi_k|)^2 |f_hat_k|^2 / L^dim) over the full lattice."""
    profile = lattice_profile(field.grid, q, homogeneous)
    return float(np.sqrt(np.sum(profile**2 * lattice_power(field)) / field.grid.volume))


def lattice_block_lp(field: PhysicalField, p: float, homogeneous: bool) -> dict[int, float]:
    """Every block L^p norm by a full complex inverse transform of the full lattice."""
    grid = field.grid
    coeffs = forward_transform(field).coefficients
    axes = tuple(range(1, grid.dim + 1))
    out = {}
    for q in block_indices(grid, homogeneous).tolist():
        values = np.fft.ifftn(coeffs * lattice_profile(grid, q, homogeneous), axes=axes).real
        out[q] = lp_norm(PhysicalField(grid, values / grid.cell_volume), p)
    return out


class TestShellSpectrum:
    @PROPERTY
    @given(band_limited_fields(), st.booleans())
    def test_block_norms_match_lattice_oracle(self, field, homogeneous):
        qs, profiles = block_profiles(field.grid, homogeneous)
        for q, got in zip(qs.tolist(), shell_l2_norms(full_lattice_spectrum(field), profiles)):
            want = lattice_block_norm(field, q, homogeneous)
            assert abs(got - want) <= 1e-12 * want

    @PROPERTY
    @given(band_limited_fields())
    def test_spectrum_sums_to_parseval(self, field):
        # the real part of the band-limited field, whose half lattice holds every mirror pair once
        grid = field.grid
        values = np.fft.ifftn(field.coefficients, axes=tuple(range(1, grid.dim + 1))).real / grid.cell_volume
        total = np.sum(values**2) * grid.cell_volume
        got = np.sum(half_lattice_spectrum(grid, half_lattice_forward(grid, values)))
        assert abs(got - total) <= 1e-12 * total

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 10])
    def test_half_lattice_spectrum_matches_full_lattice(self, dim, n):
        # real white noise keeps the Nyquist planes, where the columns count once
        grid = TorusGrid(dim=dim, box_length=7.0, points_per_axis=n)
        values = np.random.default_rng(100 * dim + n).standard_normal((2,) + grid.shape)
        half = half_lattice_forward(grid, values)
        want = full_lattice_spectrum(forward_transform(PhysicalField(grid, values)))
        got = half_lattice_spectrum(grid, half)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert abs(np.sum(got) - half_lattice_l2(grid, half) ** 2) <= 1e-13 * np.sum(got)


class TestHalfLatticeBlocks:
    @PROPERTY
    @given(white_noise_fields(), LP_EXPONENTS, st.booleans())
    def test_block_lp_norms_match_full_lattice_oracle(self, field, p, homogeneous):
        want = lattice_block_lp(field, p, homogeneous)
        got = besov_norm(field, BesovSpec(0.0, p, 1.0, homogeneous)).contributions
        top = max(want.values())
        for q, w in want.items():
            if w > 1e-10 * top:
                assert abs(got[q] - w) <= 1e-12 * w, (q, got[q], w)

    @PROPERTY
    @given(cubic_grids(), st.sampled_from([1, 3, 10]), st.integers(0, 2**32 - 1), LP_EXPONENTS, st.booleans())
    def test_block_lp_norms_equal_the_batched_route(self, grid, components, seed, p, homogeneous):
        # one irfftn per block and component, squares summed in place, reads what one irfftn per
        # block of every component at once and lp_norm's one-pass sum read, bit for bit
        values = np.random.default_rng(seed).standard_normal((components,) + grid.shape)
        half = half_lattice_forward(grid, values)
        qs, profiles = block_profiles(grid, homogeneous)
        want = {q: lp_norm(PhysicalField(grid, half_lattice_inverse(grid, half * row[grid.shell_index])), p)
                for q, row in zip(qs.tolist(), profiles)}
        got = half_lattice_besov(grid, half, BesovSpec(0.0, p, 1.0, homogeneous)).contributions
        top = max(want.values())
        assert got == {q: w for q, w in want.items() if w > ROUNDOFF_FLOOR * top}


class TestPartitionOfUnity:
    @PROPERTY
    @given(cubic_grids(), st.booleans())
    def test_profiles_sum_to_one_on_occupied_shells(self, grid, homogeneous):
        total = block_profiles(grid, homogeneous)[1].sum(axis=0)
        occupied = np.unique(full_lattice_shells(grid))
        if homogeneous:
            occupied = occupied[occupied > 0]
        assert np.max(np.abs(total[occupied] - 1.0)) <= 1e-12

    @PROPERTY
    @given(cubic_grids())
    def test_half_lattice_occupies_every_full_lattice_shell(self, grid):
        # every full-lattice mode is a half-lattice mode or the mirror of one, in the same shell
        assert set(np.unique(grid.shell_index)) == set(np.unique(full_lattice_shells(grid)))
