"""Property test: the nonlinear right-hand side annihilates the Gauss functionals.

The solver docstring claims that d(div E + rho)/dt = 0 and d(div h)/dt = 0
for any state, constraint-violating or not, because curl terms are
divergence-free and the velocity sources cancel.  So every Runge-Kutta stage
transports the constraints exactly up to roundoff.  The derivative
multipliers here are built from the FFT frequency tables, with i xi_j zeroed
on the Nyquist planes |k_j| = N/2 as the solver docstring specifies, and
the coefficients are the calibrated ones the solver marches (rfftn times the
cell volume).
"""

import math

import numpy as np
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from frequalize.equilibrium import EquilibriumState
from frequalize.grid import TorusGrid
from frequalize.solver import coefficient_rhs

PROPERTY = settings(derandomize=True, deadline=None, max_examples=12)


def half_lattice_ik(grid: TorusGrid) -> list[np.ndarray]:
    """i xi_j on the rfftn half lattice, zero on the Nyquist plane of axis j."""
    n = grid.points_per_axis
    full = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.spacing)
    half = 2.0 * math.pi * np.fft.rfftfreq(n, d=grid.spacing)
    full[n // 2] = 0.0
    half[-1] = 0.0
    xi = np.meshgrid(full, full, half, indexing="ij")
    return [1j * c for c in xi]


@PROPERTY
@given(
    n=st.sampled_from([8, 10, 12, 14, 16]),
    length=st.floats(1.0, 200.0, allow_nan=False, allow_infinity=False),
    b_inf=st.tuples(*[st.floats(-2.0, 2.0, allow_nan=False)] * 3),
    dealias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rhs_annihilates_gauss_functionals(n, length, b_inf, dealias, seed):
    grid = TorusGrid(dim=3, box_length=length, points_per_axis=n)
    eq = EquilibriumState(b_inf=b_inf)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((10,) + grid.shape)
    z[0] = rng.uniform(-0.5, 0.5, grid.shape)  # keeps the total density positive
    z_hat = scipy.fft.rfftn(z, axes=(1, 2, 3)) * grid.cell_volume
    ik = half_lattice_ik(grid)

    def div(v):
        return sum(ik[j] * v[j] for j in range(3))

    # the drawn state violates both constraints, so the test is not vacuous
    assert np.max(np.abs(div(z_hat[4:7]) + z_hat[0])) > 1e-3 * np.max(np.abs(z_hat))
    assert np.max(np.abs(div(z_hat[7:10]))) > 1e-3 * np.max(np.abs(z_hat))

    dz = coefficient_rhs(z_hat, grid, eq, dealias=dealias)
    scale = np.max(np.abs(dz))
    assert np.max(np.abs(div(dz[4:7]) + dz[0])) <= 1e-13 * scale
    assert np.max(np.abs(div(dz[7:10]))) <= 1e-13 * scale
