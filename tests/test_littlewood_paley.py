"""Cutoff geometry, block operators and the Bernstein-ratio contract."""

import math

import numpy as np
import pytest

from frequalize import grid as grid_module
from frequalize.grid import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    forward_transform,
    full_lattice_coefficients,
    inverse_transform,
    lp_norm,
    random_band_limited_field,
    shell_l2_norms,
    spectral_l2_norm,
)
from frequalize.littlewood_paley import (
    bernstein_ratios,
    block,
    block_indices,
    block_multiplier,
    block_profiles,
    chi,
    decompose,
    partition_defect,
    phi,
)
from test_shell_spectrum import full_lattice_spectrum, full_lattice_xi, lattice_profile


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(77)


class TestCutoffProfiles:
    def test_chi_plateau_and_support(self):
        assert chi(0.0) == 1.0
        assert np.all(chi(np.linspace(0, 0.75, 20)) == 1.0)
        assert np.all(chi(np.linspace(4 / 3, 10, 20)) == 0.0)
        mid = chi(np.linspace(0.8, 1.3, 50))
        assert np.all((mid >= 0) & (mid <= 1))

    def test_phi_support(self):
        assert phi(0.5) == 0.0
        assert np.all(phi(np.linspace(0, 0.75, 10)) == 0.0)
        assert np.all(phi(np.linspace(8 / 3, 12, 10)) == 0.0)
        assert phi(1.4) > 0.99  # plateau where chi(r/2)=1 and chi(r)=0

    def test_telescoping_sum_at_radius_five(self):
        r = 5.0
        total = chi(r) + sum(phi(r / 2**q) for q in range(0, 7))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_telescoping(self):
        for r in (0.01, 0.3, 1.0, 7.7, 300.0):
            total = sum(phi(r / 2**q) for q in range(-15, 15))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestBlocks:
    def test_plane_wave_active_blocks(self):
        # |xi| = 1 lies in the shell of q iff 3/4 <= 2^-q <= 8/3, i.e. q in {-1, 0}
        g = TorusGrid(dim=1, box_length=2 * np.pi, points_per_axis=16)
        x = g.coordinates[0]
        f = forward_transform(PhysicalField(g, np.cos(x)))
        qs, profiles = block_profiles(g)
        active = qs[shell_l2_norms(full_lattice_spectrum(f), profiles) > 1e-14].tolist()
        assert active == [-1, 0]

    def test_inhomogeneous_reconstruction(self, rng):
        g = TorusGrid(dim=2, box_length=5.0, points_per_axis=32)
        f = forward_transform(random_band_limited_field(g, 1, rng, zero_mean=False))
        rec = SpectralField(g, full_lattice_coefficients(g, sum(decompose(f, homogeneous=False).values())))
        scale = spectral_l2_norm(f)
        assert spectral_l2_norm(SpectralField(g, rec.coefficients - f.coefficients)) <= 1e-10 * scale

    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_decompose_takes_one_forward_transform(self, rng, monkeypatch, homogeneous):
        # the blocks of a PhysicalField share one half lattice; each is block(field, q), bit for bit
        g = TorusGrid(dim=3, box_length=5.0, points_per_axis=16)
        f = random_band_limited_field(g, 1, rng, zero_mean=False)
        calls = []

        def counting(*args, _fn=grid_module.half_lattice_forward):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(grid_module, "half_lattice_forward", counting)
        blocks = decompose(f, homogeneous=homogeneous)
        assert len(calls) == 1
        monkeypatch.undo()
        assert list(blocks) == block_indices(g, homogeneous).tolist()
        for q, coeffs in blocks.items():
            assert np.array_equal(coeffs, block(f, q, homogeneous=homogeneous))

    def test_homogeneous_reconstruction_drops_mean(self, rng):
        g = TorusGrid(dim=2, box_length=5.0, points_per_axis=32)
        phys = random_band_limited_field(g, 1, rng, zero_mean=False)
        phys = PhysicalField(g, phys.values + 1.7)
        f = forward_transform(phys)
        rec = SpectralField(g, full_lattice_coefficients(g, sum(decompose(f, homogeneous=True).values())))
        # oracle: apply the summed full-lattice multiplier in one shot
        total = np.zeros(g.shape)
        for q in block_indices(g).tolist():
            total += lattice_profile(g, q, True)
        oracle = SpectralField(g, f.coefficients * total)
        assert np.max(np.abs(rec.coefficients - oracle.coefficients)) <= 1e-12 * np.max(
            np.abs(f.coefficients)
        )
        # and the reconstruction equals f minus its mean
        target = f.coefficients.copy()
        target[:, 0, 0] = 0.0
        defect = np.max(np.abs(rec.coefficients - target))
        assert defect <= 1e-10 * np.max(np.abs(f.coefficients))
        back = inverse_transform(rec)
        assert np.allclose(
            back.values, phys.values - phys.values.mean(axis=(1, 2)).reshape(-1, 1, 1), atol=1e-10
        )

    def test_adjacent_only_overlap(self, rng):
        g = TorusGrid(dim=1, box_length=4.0, points_per_axis=64)
        f = forward_transform(random_band_limited_field(g, 1, rng))
        for q in (-1, 0, 2):
            piece = block(f, q)
            for dq in (-3, -2, 2, 3):
                again = piece * block_multiplier(g, q + dq)
                assert np.max(np.abs(again)) == 0.0

    def test_out_of_range_inhomogeneous_block_is_zero(self, rng):
        g = TorusGrid(dim=1, box_length=4.0, points_per_axis=16)
        f = forward_transform(random_band_limited_field(g, 1, rng))
        assert np.all(block(f, -2, homogeneous=False) == 0.0)
        assert np.all(block(f, -5, homogeneous=False) == 0.0)

    def test_near_orthogonality(self, rng):
        g = TorusGrid(dim=2, box_length=6.0, points_per_axis=32)
        for _ in range(5):
            phys = random_band_limited_field(g, 1, rng)
            f = forward_transform(phys)
            total = sum(shell_l2_norms(full_lattice_spectrum(f), block_profiles(g)[1]) ** 2)
            base = lp_norm(phys, 2.0) ** 2  # generator returns mean-zero fields
            assert 0.5 * base <= total <= 2.0 * base

    @pytest.mark.parametrize("dim,n,length", [(1, 64, 3.0), (2, 32, 10.0), (3, 16, 2.0)])
    def test_partition_defect(self, dim, n, length):
        g = TorusGrid(dim=dim, box_length=length, points_per_axis=n)
        assert partition_defect(g, homogeneous=False) <= 1e-10
        assert partition_defect(g, homogeneous=True) <= 1e-10

    def test_every_lattice_point_in_at_most_two_shells(self):
        g = TorusGrid(dim=2, box_length=7.0, points_per_axis=32)
        counts = np.zeros(g.shell_index.shape)
        for q in block_indices(g).tolist():
            counts += (block_multiplier(g, q) > 0).astype(float)
        mask = g.frequency_magnitude > 0
        assert counts[mask].min() >= 1
        assert counts.max() <= 2

    @pytest.mark.parametrize("homogeneous", [True, False])
    @pytest.mark.parametrize("dim,n,length", [(1, 64, 3.0), (2, 32, 10.0), (3, 16, 2.0)])
    def test_multiplier_is_the_family_row(self, dim, n, length, homogeneous):
        # block_multiplier, which perfbench/tracing.py times by name, gathers the family's own row
        g = TorusGrid(dim=dim, box_length=length, points_per_axis=n)
        qs, profiles = block_profiles(g, homogeneous)
        for q, row in zip(qs.tolist(), profiles):
            assert np.array_equal(block_multiplier(g, q, homogeneous=homogeneous), row[g.shell_index]), q


class TestBernstein:
    def test_plane_wave_ratio_exact(self):
        g = TorusGrid(dim=1, box_length=2 * np.pi, points_per_axis=32)
        x = g.coordinates[0]
        f = forward_transform(PhysicalField(g, np.sin(2 * x)))
        assert bernstein_ratios(f)[0] == pytest.approx(2.0, rel=1e-12)

    def test_random_fields_within_shell_bounds(self, rng):
        g = TorusGrid(dim=2, box_length=5.0, points_per_axis=32)
        for _ in range(10):
            ratios = bernstein_ratios(forward_transform(random_band_limited_field(g, 1, rng)))
            assert ratios and set(ratios) <= set(block_indices(g).tolist())
            for r in ratios.values():
                assert 0.75 - 1e-12 <= r <= 8.0 / 3.0 + 1e-12

    def test_fractional_order_against_multiplier_oracle(self, rng):
        g = TorusGrid(dim=3, box_length=4.0, points_per_axis=16)
        f = forward_transform(random_band_limited_field(g, 1, rng))
        q = 1
        mult = lattice_profile(g, q, True)
        blocked = f.coefficients * mult
        # direct per-coefficient evaluation of ||Lambda^(1/2) block|| / ||block||
        num = np.sqrt(np.sum(full_lattice_xi(g)[1] * np.abs(blocked) ** 2))
        den = np.sqrt(np.sum(np.abs(blocked) ** 2))
        expected = num / den / 2 ** (q / 2)
        got = bernstein_ratios(f, order=0.5)[q]
        assert got == pytest.approx(expected, rel=1e-12)
        assert math.sqrt(0.75) - 1e-12 <= got <= math.sqrt(8.0 / 3.0) + 1e-12

    def test_zero_block_has_no_ratio(self):
        g = TorusGrid(dim=1, box_length=2 * np.pi, points_per_axis=16)
        x = g.coordinates[0]
        f = forward_transform(PhysicalField(g, np.cos(x)))
        # |xi| = 1 lies in the shells of q = -1 and 0 only: the other blocks of the range are zero
        assert set(block_indices(g).tolist()) == set(range(-2, 5))
        assert bernstein_ratios(f) == pytest.approx({-1: 2.0, 0: 1.0}, rel=1e-12)
