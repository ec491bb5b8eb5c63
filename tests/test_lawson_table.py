"""Property tests of the half-lattice Parseval norm and the nonlinear march's exponential table.

`grid.half_lattice_l2` is the Parseval norm of the half lattice, which the
march's blow-up norm on its band reproduces (tests/test_solver.py): it must
equal the L^2 norm of the real field whose calibrated half-lattice
coefficients (rfftn times the cell volume) it reads.  `mode_exponentials`
is the table that propagates the linear part: it must be the real form
D^-1 exp(t M) D with D = diag(1, i I6, I3), and, because A(xi) is symmetric
and the symmetric part of L is positive semidefinite, it never increases the
A0-weighted mode norm.  It is built in chunks of modes, and the chunk size
changes no entry.
"""

import math

import numpy as np
import scipy.fft
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from frequalize import linear_modes
from frequalize.equilibrium import EquilibriumState
from frequalize.grid import TorusGrid, half_lattice_l2
from frequalize.linear_modes import mode_exponentials, mode_matrices, system_matrices

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
PHASES = np.array([1.0] + [1j] * 6 + [1.0] * 3)


@PROPERTY
@given(
    dim=st.integers(1, 3),
    n=st.sampled_from([8, 10, 12, 16]),
    length=st.floats(1.0, 200.0, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_half_lattice_parseval(dim, n, length, seed):
    grid = TorusGrid(dim=dim, box_length=length, points_per_axis=n)
    values = np.random.default_rng(seed).standard_normal((3,) + grid.shape)
    coeffs = scipy.fft.rfftn(values, axes=tuple(range(1, dim + 1))) * grid.cell_volume
    want = math.sqrt(float(np.sum(values**2)) * grid.cell_volume)
    assert abs(half_lattice_l2(grid, coeffs) - want) <= 1e-12 * want


def random_modes(rng, count):
    """Frequencies of magnitude 10^U(-2, 2) in random directions."""
    direction = rng.standard_normal((count, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return 10.0 ** rng.uniform(-2.0, 2.0, (count, 1)) * direction


@PROPERTY
@given(
    b_inf=st.tuples(*[st.floats(-2.0, 2.0, allow_nan=False)] * 3),
    t=st.floats(0.0, 100.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_is_the_real_form_and_never_increases_the_a0_norm(b_inf, t, seed):
    eq = EquilibriumState(b_inf=b_inf)
    xi = random_modes(np.random.default_rng(seed), 16)
    table = mode_exponentials(xi, eq, t)
    assert table.dtype == np.float64
    want = scipy.linalg.expm(t * mode_matrices(xi, eq)) * PHASES * PHASES.conj()[:, None]
    assert np.max(np.abs(table - want)) <= 1e-10 * max(1.0, float(np.max(np.abs(want))))
    # |A0^(1/2) E z| <= |A0^(1/2) z| for every z: the weighted operator norm is at most 1
    root = np.sqrt(system_matrices(eq)[0])
    weighted = root[:, None] * table / root[None, :]
    assert np.max(np.linalg.norm(weighted, ord=2, axis=(1, 2))) <= 1.0 + 1e-12


def test_chunk_size_changes_no_entry(monkeypatch):
    # each mode's Taylor evaluation is independent of the others in its chunk
    eq = EquilibriumState(b_inf=(0.0, 0.4, 0.3))
    xi = random_modes(np.random.default_rng(9), 1500)
    tables = []
    for chunk in (7, 512):
        monkeypatch.setattr(linear_modes, "_TABLE_CHUNK", chunk)
        tables.append(mode_exponentials(xi, eq, 2.5))
    assert np.array_equal(tables[0], tables[1])
