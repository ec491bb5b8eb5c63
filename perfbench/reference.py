"""Reference computations for the correctness checks, written apart from frequalize.

Each function re-derives a quantity from its definition with plain numpy
and scipy: the dyadic block profile, the field-dump layout, block norms of
a dumped field, the radial quadrature of the kernel-damped Gaussian, the
per-mode linear generator and least-squares decay exponents.  Nothing here
imports frequalize, so a fault in a shared helper cannot hide itself.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# dyadic profile: chi == 1 on r <= 3/4, 0 on r >= 4/3, smooth ramp between;
# phi(r) = chi(r/2) - chi(r) is supported on 3/4 <= r <= 8/3


def _ramp(t: np.ndarray) -> np.ndarray:
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def chi(r: np.ndarray) -> np.ndarray:
    return 1.0 - _ramp((np.asarray(r, dtype=float) - 0.75) / (4.0 / 3.0 - 0.75))


def phi(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return chi(0.5 * r) - chi(r)


# ---------------------------------------------------------------------------
# artifacts

_FQLZ_HEADER = struct.Struct("<4sIIIdI4x")


def read_dump(path: Path) -> tuple[float, np.ndarray]:
    """(box length, values of shape (components, N, ..., N)) of a .fqlz dump."""
    raw = Path(path).read_bytes()
    magic, _version, dim, n, length, comps = _FQLZ_HEADER.unpack_from(raw)
    if magic != b"FQLZ":
        raise ValueError(f"{path}: not a field dump")
    values = np.frombuffer(raw, dtype="<f8", offset=_FQLZ_HEADER.size)
    return length, values.reshape((comps,) + (n,) * dim)


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(x), np.log(y)
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def decay_exponent(t: np.ndarray, values: np.ndarray, window: tuple[float, float]) -> float:
    """Least-squares slope of log value against log(1 + t) on the closed window."""
    mask = (t >= window[0]) & (t <= window[1])
    return loglog_slope(1.0 + t[mask], values[mask])


# ---------------------------------------------------------------------------
# block norms of a dumped field, from plain FFTs


class DumpBlocks:
    """Block L^p norms of a real field on [0, L)^3 sampled on N^3 points.

    Coefficients carry the quadrature weight (L/N)^3, so the block L^2 norm
    is sqrt(L^-3 sum_k |mult_k f_k|^2) and L^p norms are grid quadratures of
    the pointwise magnitude of the inverse-transformed block.
    """

    def __init__(self, path: Path):
        self.length, values = read_dump(path)
        n = values.shape[1]
        self.cell = (self.length / n) ** 3
        self.coeffs = np.fft.fftn(values, axes=(1, 2, 3)) * self.cell
        k = 2.0 * math.pi * np.fft.fftfreq(n, d=self.length / n)
        kx, ky, kz = np.meshgrid(k, k, k, indexing="ij")
        self.mag = np.sqrt(kx**2 + ky**2 + kz**2)
        self.power = np.sum(np.abs(self.coeffs) ** 2, axis=0)
        self._multipliers: dict[tuple[int, bool], np.ndarray] = {}
        self._magnitudes: dict[tuple[int, bool], np.ndarray] = {}

    def multiplier(self, q: int, homogeneous: bool) -> np.ndarray:
        key = (q, homogeneous)
        if key not in self._multipliers:
            if not homogeneous and q == -1:
                self._multipliers[key] = chi(self.mag)
            else:
                self._multipliers[key] = phi(self.mag * 2.0**-q)
        return self._multipliers[key]

    def norm(self, q: int, p: float, homogeneous: bool) -> float:
        mult = self.multiplier(q, homogeneous)
        if p == 2.0:
            return math.sqrt(float(np.sum(self.power * mult**2)) / self.length**3)
        key = (q, homogeneous)
        if key not in self._magnitudes:
            piece = np.fft.ifftn(self.coeffs * mult, axes=(1, 2, 3)).real / self.cell
            self._magnitudes[key] = np.sqrt(np.sum(piece**2, axis=0))
        mag = self._magnitudes[key]
        if math.isinf(p):
            return float(mag.max())
        return float(np.sum(mag**p) * self.cell) ** (1.0 / p)

    def block_range(self, homogeneous: bool) -> range:
        """Every q whose multiplier is nonzero somewhere on the lattice."""
        top = math.ceil(math.log2(float(self.mag.max()) / 0.75))
        if not homogeneous:
            return range(-1, top + 1)
        low = math.floor(math.log2(float(self.mag[self.mag > 0].min()) * 3.0 / 8.0))
        return range(low, top + 1)


# ---------------------------------------------------------------------------
# kernel-damped Gaussian by radial quadrature


def gaussian_kernel_lhs(times: np.ndarray, width: float = 1.0, nodes: int = 200) -> np.ndarray:
    """Whole-space LHS of the kernel inequality at s = 0, alpha = 2.

    For the unit-mass Gaussian of the given width, |f_hat(r)|^2 =
    exp(-width^2 r^2), the kernel is exp(-eta(r) t) with eta = r^2/(1+r^2)^2,
    and each block norm squared is (2 pi)^-3 4 pi int phi(r/2^q)^2 e^(-2 eta t)
    |f_hat|^2 r^2 dr over the block's shell.
    """
    u, w = np.polynomial.legendre.leggauss(nodes)
    out = np.zeros(len(times))
    for q in range(-40, 8):
        lo, hi = 0.75 * 2.0**q, (8.0 / 3.0) * 2.0**q
        r = 0.5 * (hi - lo) * u + 0.5 * (hi + lo)
        base = phi(r / 2.0**q) ** 2 * np.exp(-(width * r) ** 2) * r**2 * 0.5 * (hi - lo) * w
        eta = r**2 / (1.0 + r**2) ** 2
        damped = np.exp(-2.0 * np.outer(times, eta)) @ base
        out += 4.0 * math.pi * damped / (2.0 * math.pi) ** 3
    return np.sqrt(out)


# ---------------------------------------------------------------------------
# linearized per-mode generator, assembled from the evolution equations
#
#   d rho = -n_inf i xi.v
#   d v   = -a_inf i xi rho - E - v x B_inf - v
#   d E   = i xi x h + n_inf v
#   d h   = -i xi x E
# with a_inf = p'(n_inf)/n_inf for p(n) = K n^gamma.


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    """C with C w = v x w."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def mode_generator(xi, b_inf, n_inf: float = 1.0, k: float = 1.0, gamma: float = 5.0 / 3.0) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    a_inf = k * gamma * n_inf ** (gamma - 1.0) / n_inf
    eye = np.eye(3)
    m = np.zeros((10, 10), dtype=complex)
    m[0, 1:4] = -n_inf * 1j * xi
    m[1:4, 0] = -a_inf * 1j * xi
    m[1:4, 1:4] = -eye + _cross_matrix(np.asarray(b_inf, dtype=float))  # -v x B = B x v
    m[1:4, 4:7] = -eye
    m[4:7, 7:10] = 1j * _cross_matrix(xi)
    m[4:7, 1:4] = n_inf * eye
    m[7:10, 4:7] = -1j * _cross_matrix(xi)
    return m


def constraint_projector(xi) -> np.ndarray:
    """Orthogonal projector onto {rho + i xi.E = 0, i xi.h = 0} in C^10."""
    xi = np.asarray(xi, dtype=float)
    c = np.zeros((2, 10), dtype=complex)
    c[0, 0] = 1.0
    c[0, 4:7] = 1j * xi
    c[1, 7:10] = 1j * xi
    return np.eye(10) - c.conj().T @ np.linalg.solve(c @ c.conj().T, c)


def euler_maxwell_eta(r):
    r = np.asarray(r, dtype=float)
    return r**2 / (1.0 + r**2) ** 2
