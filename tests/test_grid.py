"""Transforms, spectral calculus and quadrature norms on the periodic grid."""

import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from frequalize import grid as grid_module
from frequalize.errors import ConfigError
from frequalize.grid import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    forward_transform,
    gaussian_bump,
    half_lattice_forward,
    half_lattice_inverse,
    half_lattice_solenoidal,
    inverse_transform,
    lp_norm,
    random_band_limited_field,
    spectral_l2_norm,
)
from frequalize.io import HEADER_SIZE, dump_field, load_field
from test_linear_modes import AnyNGrid
from test_shell_spectrum import full_lattice_shells, full_lattice_xi


def direct_transform(field: PhysicalField) -> np.ndarray:
    """Direct evaluation of (L/N)^dim sum_j f(x_j) exp(-i xi_k.x_j).

    Per-axis DFT matrices applied by explicit summation (einsum); no fast
    transform involved.
    """
    grid = field.grid
    n = grid.points_per_axis
    j = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(j, j) / n)
    v = field.values.astype(complex)
    if grid.dim == 1:
        out = np.einsum("ai,ci->ca", w, v)
    elif grid.dim == 2:
        out = np.einsum("ai,bj,cij->cab", w, w, v)
    else:
        out = np.einsum("ai,bj,dk,cijk->cabd", w, w, w, v, optimize=True)
    return out * grid.cell_volume


def lp_oracle(field: PhysicalField, p: float) -> float:
    """L^p norm of sqrt(sum of squares over components), reduced as the formula reads."""
    mag = np.sqrt(np.sum(field.values**2, axis=0))
    if math.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * field.grid.cell_volume) ** (1.0 / p))


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


class TestTorusGrid:
    def test_frequency_lattice(self):
        g = TorusGrid(dim=1, box_length=10.0, points_per_axis=8)
        xi = g.axis_frequencies
        k = np.array([0, 1, 2, 3, -4, -3, -2, -1])
        assert np.allclose(xi, 2 * np.pi * k / 10.0)
        assert g.xi_min == pytest.approx(2 * np.pi / 10.0)
        assert g.xi_max == pytest.approx(np.pi * 8 / 10.0)

    def test_lattice_symmetric_except_nyquist(self):
        g = TorusGrid(dim=1, box_length=5.0, points_per_axis=16)
        xi = g.axis_frequencies
        # every positive frequency has its negative partner; only the Nyquist
        # row k = -N/2 is unpaired
        positives = xi[1 : 16 // 2]
        for v in positives:
            assert np.any(np.isclose(xi, -v))
        assert np.isclose(xi.min(), -g.xi_max)
        assert not np.any(np.isclose(xi, g.xi_max))

    @pytest.mark.parametrize("dim,n", [(1, 7), (2, 6), (3, 9)])
    def test_rejects_bad_resolution(self, dim, n):
        with pytest.raises(ConfigError):
            TorusGrid(dim=dim, box_length=1.0, points_per_axis=n)

    def test_rejects_bad_dim_and_length(self):
        with pytest.raises(ConfigError):
            TorusGrid(dim=4, box_length=1.0, points_per_axis=8)
        with pytest.raises(ConfigError):
            TorusGrid(dim=2, box_length=-1.0, points_per_axis=8)


class TestTransforms:
    def test_constant_field_zero_mode(self):
        g = TorusGrid(dim=2, box_length=3.0, points_per_axis=8)
        c = 2.5
        f = PhysicalField(g, np.full(g.shape, c))
        ghat = forward_transform(f)
        coeffs = ghat.coefficients[0]
        assert coeffs[0, 0] == pytest.approx(c * g.volume, rel=1e-13)
        off = coeffs.copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-10 * abs(c) * g.volume

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 12)])
    def test_round_trip(self, rng, dim, n):
        g = TorusGrid(dim=dim, box_length=2.7, points_per_axis=max(n, 8))
        f = PhysicalField(g, rng.standard_normal((2,) + g.shape))
        back = inverse_transform(forward_transform(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * scale

    def test_parseval_against_direct_summation(self, rng):
        g = TorusGrid(dim=3, box_length=4.0, points_per_axis=32)
        f = PhysicalField(g, rng.standard_normal(g.shape))
        direct = direct_transform(f)
        physical = float(np.sum(f.values**2) * g.cell_volume)
        spectral = float(np.sum(np.abs(direct) ** 2) / g.volume)
        assert abs(physical - spectral) <= 1e-10 * physical
        # and the fast transform agrees with the direct sum coefficientwise
        fast = forward_transform(f).coefficients
        assert np.max(np.abs(fast - direct)) <= 1e-10 * np.max(np.abs(direct))

    def test_single_hermitian_pair_synthesizes_cosine(self):
        g = TorusGrid(dim=1, box_length=2 * np.pi, points_per_axis=16)
        amp = 3.0
        coeffs = np.zeros(g.shape, dtype=complex)
        coeffs[2] = 0.5 * amp * g.volume
        coeffs[-2] = 0.5 * amp * g.volume
        f = inverse_transform(SpectralField(g, coeffs))
        x = g.coordinates[0]
        assert np.allclose(f.values[0], amp * np.cos(2 * x), atol=1e-12)

    def test_zero_spectrum(self):
        g = TorusGrid(dim=2, box_length=1.0, points_per_axis=8)
        f = inverse_transform(SpectralField(g, np.zeros(g.shape, dtype=complex)))
        assert np.all(f.values == 0.0)

    def test_hermitian_violation_names_worst_mode(self):
        g = TorusGrid(dim=1, box_length=1.0, points_per_axis=8)
        coeffs = np.zeros(g.shape, dtype=complex)
        coeffs[3] = 1.0  # no conjugate partner at -3
        with pytest.raises(ConfigError, match="k="):
            inverse_transform(SpectralField(g, coeffs))

    @pytest.mark.parametrize("dim,n,components", [(1, 32, 1), (1, 9, 3), (2, 16, 2), (2, 11, 1),
                                                  (3, 12, 10), (3, 9, 3)])
    def test_threaded_transforms_match_one_worker(self, dim, n, components):
        # the grid's transforms run on every CPU the process may use; criterion 10 (byte-identical
        # reruns) needs them bit-identical to one thread, on even and odd N alike
        if hasattr(os, "sched_getaffinity"):
            assert grid_module._WORKERS == len(os.sched_getaffinity(0))
        g = AnyNGrid(dim=dim, box_length=2.5, points_per_axis=n)
        values = np.random.default_rng(n).standard_normal((components,) + g.shape)
        axes = tuple(range(-dim, 0))
        half = half_lattice_forward(g, values)
        assert np.array_equal(half, scipy.fft.rfftn(values, axes=axes, workers=1) * g.cell_volume)
        assert np.array_equal(half_lattice_inverse(g, half),
                              scipy.fft.irfftn(half, s=g.shape, axes=axes, workers=1) / g.cell_volume)
        full = forward_transform(PhysicalField(g, values)).coefficients
        assert np.array_equal(full, scipy.fft.fftn(values, axes=axes, workers=1) * g.cell_volume)
        assert np.array_equal(inverse_transform(SpectralField(g, full)).values,
                              scipy.fft.ifftn(full, axes=axes, workers=1).real / g.cell_volume)

    def test_non_finite_rejected(self):
        g = TorusGrid(dim=1, box_length=1.0, points_per_axis=8)
        vals = np.zeros(g.shape)
        vals[3] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            PhysicalField(g, vals)


class TestFrequencyTables:
    @pytest.mark.parametrize("dim,n,length", [(1, 16, 5.0), (2, 8, 3.0), (3, 16, 3.0), (3, 48, 64.0)])
    def test_tables_are_the_half_lattice_columns_of_the_full_lattice(self, dim, n, length):
        g = TorusGrid(dim=dim, box_length=length, points_per_axis=n)
        xi, mag = full_lattice_xi(g)
        tables = g.frequency_vectors + (g.frequency_magnitude, g.shell_index)
        for got, full in zip(tables, xi + (mag, full_lattice_shells(g)), strict=True):
            assert got.shape == g.shape[:-1] + (g.half_width,)
            assert np.array_equal(got, full[..., : g.half_width])


class TestDerivatives:
    def test_divergence_of_solenoidal_projection_vanishes(self, rng):
        g = TorusGrid(dim=3, box_length=3.0, points_per_axis=16)
        v = random_band_limited_field(g, 3, rng)
        proj = half_lattice_forward(g, v.values)
        half_lattice_solenoidal(g, proj)
        div = sum(1j * xi * c for xi, c in zip(g.frequency_vectors, proj))
        assert np.max(np.abs(div)) <= 1e-12 * np.max(np.abs(proj))


class TestRandomField:
    @pytest.mark.parametrize("zero_mean", [True, False], ids=["zero_mean", "with_mean"])
    @pytest.mark.parametrize("n", [12, 9])
    def test_matches_full_lattice_oracle(self, n, zero_mean):
        # neither n puts a shell on the cut 0.75 xi_max, where roundoff would decide the mode
        grid = AnyNGrid(dim=3, box_length=3.0, points_per_axis=n)
        got = random_band_limited_field(grid, 2, np.random.default_rng(n), zero_mean=zero_mean).values
        coeffs = np.fft.fftn(np.random.default_rng(n).standard_normal((2,) + grid.shape), axes=(1, 2, 3))
        k = np.fft.fftfreq(n, d=1.0 / n)
        mag = 2 * np.pi / grid.box_length * np.sqrt(sum(c**2 for c in np.meshgrid(k, k, k, indexing="ij")))
        xi_max = np.pi * n / grid.box_length
        coeffs *= np.where(mag <= 0.75 * xi_max, np.exp(-0.5 * (mag / (0.5 * xi_max)) ** 2), 0.0)
        if zero_mean:
            coeffs[:, 0, 0, 0] = 0.0
        want = np.fft.ifftn(coeffs, axes=(1, 2, 3)).real
        want /= np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("components", [1, 3, 10])
    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 16), (3, 12)])
    def test_matches_batched_inverse_oracle(self, dim, n, components):
        # the samples, inverted one component at a time and scaled in place, are those of one
        # irfftn of every component divided by the largest |value|, bit for bit
        grid = TorusGrid(dim=dim, box_length=5.0, points_per_axis=n)
        got = random_band_limited_field(grid, components, np.random.default_rng(components)).values
        half = half_lattice_forward(grid, np.random.default_rng(components).standard_normal((components,) + grid.shape))
        mag = grid.frequency_magnitude
        envelope = np.exp(-0.5 * (mag / (0.5 * grid.xi_max)) ** 2)
        envelope[mag > 0.75 * grid.xi_max] = 0.0
        half *= envelope
        half[(slice(None),) + (0,) * dim] = 0.0
        want = half_lattice_inverse(grid, half)
        want = want / np.max(np.abs(want))
        assert np.array_equal(got, want)


class TestGaussianBump:
    @pytest.mark.parametrize("width", [0.4, 1.0, 2.5])
    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
    def test_matches_dense_mesh_oracle_without_caching_it(self, dim, n, width):
        grid = TorusGrid(dim=dim, box_length=9.0, points_per_axis=n)
        got = gaussian_bump(grid, width).values
        assert "coordinates" not in vars(grid)  # no dense coordinate mesh is cached on the grid
        centered = [c - 0.5 * grid.box_length for c in grid.coordinates]
        r_sq = sum(c**2 for c in centered)
        want = np.exp(-r_sq / (2.0 * width**2)) / (2.0 * math.pi * width**2) ** (dim / 2.0)
        assert np.array_equal(got[0], want)


class TestNorms:
    def test_constant_norm(self):
        g = TorusGrid(dim=2, box_length=3.0, points_per_axis=8)
        f = PhysicalField(g, np.full(g.shape, -2.0))
        for p in (1.0, 2.0, 3.5, math.inf):
            expected = 2.0 * (g.volume ** (1.0 / p) if not math.isinf(p) else 1.0)
            assert lp_norm(f, p) == pytest.approx(expected, rel=1e-13)

    def test_l2_of_sine(self):
        g = TorusGrid(dim=1, box_length=7.0, points_per_axis=64)
        x = g.coordinates[0]
        f = PhysicalField(g, np.sin(2 * np.pi * x / g.box_length))
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(g.box_length / 2.0), rel=1e-12)

    def test_l1_of_normalized_gaussian(self):
        # analytic integral is 1; trapezoidal quadrature of a periodized
        # Gaussian converges spectrally once resolved
        for n, tol in ((32, 1e-3), (64, 1e-6)):
            g = TorusGrid(dim=1, box_length=32.0, points_per_axis=n)
            x = g.coordinates[0] - g.box_length / 2
            w = 1.0
            f = PhysicalField(g, np.exp(-(x**2) / (2 * w**2)) / math.sqrt(2 * math.pi * w**2))
            assert abs(lp_norm(f, 1.0) - 1.0) < tol

    def test_homogeneity(self, rng):
        g = TorusGrid(dim=2, box_length=2.0, points_per_axis=16)
        f = random_band_limited_field(g, 2, rng)
        scaled = PhysicalField(g, 3.5 * f.values)
        for p in (1.0, 2.0, math.inf):
            assert lp_norm(scaled, p) == pytest.approx(3.5 * lp_norm(f, p), rel=1e-14)

    @pytest.mark.parametrize("components", [1, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_matches_component_magnitude_oracle(self, p, components):
        g = TorusGrid(dim=3, box_length=2.0, points_per_axis=16)
        f = PhysicalField(g, np.random.default_rng(components).standard_normal((components,) + g.shape))
        if p in (1.0, math.inf):  # the same roundings in the same order
            assert lp_norm(f, p) == lp_oracle(f, p)
        else:
            assert lp_norm(f, p) == pytest.approx(lp_oracle(f, p), rel=1e-15)

    def test_one_component_sup_norm_does_not_square(self):
        g = TorusGrid(dim=2, box_length=1.0, points_per_axis=8)
        values = np.full(g.shape, 1e200)
        values[3, 5] = -2e200
        assert lp_norm(PhysicalField(g, values), math.inf) == 2e200

    @pytest.mark.parametrize("p,copies", [(1.0, 1), (1.5, 1), (2.0, 1), (math.inf, 0)])
    def test_one_component_peak(self, p, copies):
        # a nonnegative magnitude, as the block norms hand it: one |v| copy raised to the power in place
        # at finite p, and no copy for the sup norm
        g = TorusGrid(dim=3, box_length=1.0, points_per_axis=96)
        f = PhysicalField(g, np.random.default_rng(96).uniform(0.0, 1.0, g.shape))
        field_bytes = f.values.nbytes
        tracemalloc.start()
        try:
            lp_norm(f, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert copies * field_bytes <= peak < (copies + 0.1) * field_bytes

    def test_p_below_one_rejected(self):
        g = TorusGrid(dim=1, box_length=1.0, points_per_axis=8)
        f = PhysicalField(g, np.zeros(g.shape))
        with pytest.raises(ConfigError):
            lp_norm(f, 0.5)

    def test_spectral_l2_matches_physical(self, rng):
        g = TorusGrid(dim=3, box_length=2.0, points_per_axis=16)
        f = random_band_limited_field(g, 3, rng)
        assert spectral_l2_norm(forward_transform(f)) == pytest.approx(
            lp_norm(f, 2.0), rel=1e-12
        )


class TestContainer:
    def test_round_trip(self, rng, tmp_path):
        g = TorusGrid(dim=3, box_length=6.0, points_per_axis=8)
        f = PhysicalField(g, rng.standard_normal((4,) + g.shape))
        path = tmp_path / "field.fqlz"
        dump_field(f, path)
        assert path.stat().st_size == HEADER_SIZE + 4 * 8**3 * 8
        back = load_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.fqlz"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ConfigError, match="magic"):
            load_field(path)

    def test_truncated_payload(self, rng, tmp_path):
        g = TorusGrid(dim=1, box_length=1.0, points_per_axis=8)
        f = PhysicalField(g, rng.standard_normal(g.shape))
        path = tmp_path / "field.fqlz"
        dump_field(f, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError, match="payload"):
            load_field(path)

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8)])
    def test_dump_is_the_header_then_the_payload_bytes(self, rng, tmp_path, dim, n):
        g = TorusGrid(dim=dim, box_length=6.0, points_per_axis=n)
        f = PhysicalField(g, rng.standard_normal((3,) + g.shape))
        path = tmp_path / "field.fqlz"
        dump_field(f, path)
        header = struct.pack("<4sIIIdI4x", b"FQLZ", 1, dim, n, g.box_length, 3)
        assert path.read_bytes() == header + np.ascontiguousarray(f.values, dtype="<f8").tobytes()
