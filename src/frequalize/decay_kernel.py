"""Frequency-localized time-decay inequality for degenerate dissipative rates.

A dissipative rate eta(|xi|) behaves like |xi|^sigma1 at low frequency and
|xi|^-sigma2 at high frequency; the canonical member is the (a, b) family
eta = |xi|^(2a) / (1 + |xi|^2)^b, with (1, 2) giving the rate of the damped
Euler-Maxwell system.  The inequality under test bounds the blockwise decay

    || 2^(qs) || block_q(f)^ e^(-eta t) ||_L2 ||_{l^alpha_q}
        <=  C [ (1+t)^(-(s+rho)/sigma1) * ||f||_(neg rho)
              + (1+t)^(-ell/sigma2 + gamma) * ||f||_(s+ell, r, alpha) ]

with gamma = (n/sigma2) (1/r - 1/2), valid for s + rho > 0 and
ell > n (1/r - 1/2) when 1 <= r < 2 (ell >= 0 suffices at r = 2).

The hidden constant depends on the cutoff profile, so verification reports
measured sup ratios and their stability under refinement rather than
asserting fixed values.  The low/high proof split is also exposed: per-block
ratios in each regime, the l^alpha bound on the low-frequency decay profile
x^(s+rho) e^(-c x^sigma1), and the radial tail integral whose convergence is
exactly the ell threshold (violations are detected as divergence under
domain extension).

At p = 2 every quantity here is a radial weight (block profile times kernel
or its power-law bounds) against |f_hat|^2, so the LHS, the data's
negative-order norm and both regime diagnostics are dot products with the
shell spectrum of the field's half lattice, read once, for all times at
once; the high data norm's L^r blocks go through `besov`.  The family and
its live blocks come from `littlewood_paley`; dead blocks leave both sides.

On a torus the block index is bounded below by the box size, so the
l^alpha tail as q -> -infinity is unobservable below xi_min = 2 pi / L;
sup ratios are therefore validity-windowed by the box, not extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .besov import BesovSpec, block_weight, ell_r, half_lattice_besov
from .errors import BlockWeightError, ConfigError, HypothesisError
from .grid import PhysicalField, SpectralField, half_lattice_coefficients, half_lattice_spectrum
from .grid import shell_l2_norms
from .littlewood_paley import block_profiles, live_blocks

SPHERE_MEASURE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
_TAIL_EXTENSIONS = (1e1, 1e2, 1e3, 1e4)  # tail domain ends r_max of the divergence scan, in units of r0
SPLIT_GRID = (1e-8, 1e8)  # |xi| range on which split_constants measures, split radius included


@dataclass(frozen=True, eq=False)
class DissipRate:
    """Positive continuous radial rate with prescribed asymptotics.

    kernel weight applied to spectral coefficients is exp(-c0 * eta * t).
    Both exponents are positive: sigma2 > 0 is the regularity-loss shape the
    inequality is stated for.
    """

    sigma1: float
    sigma2: float
    profile: Callable[[np.ndarray], np.ndarray]
    c0: float = 1.0
    label: str = "custom"

    def __post_init__(self) -> None:
        if not (self.sigma1 > 0 and self.sigma2 > 0):
            raise ConfigError(f"rate needs sigma1, sigma2 > 0, got {self.sigma1}, {self.sigma2}")

    @classmethod
    def from_ab(cls, a: float, b: float, c0: float = 1.0) -> "DissipRate":
        if not 0 < a < b:
            raise ConfigError(f"rate exponents need 0 < a < b, got a={a}, b={b}")

        def profile(r: np.ndarray) -> np.ndarray:
            r = np.asarray(r, dtype=float)
            return r ** (2 * a) / (1.0 + r**2) ** b

        return cls(sigma1=2 * a, sigma2=2 * b - 2 * a, profile=profile, c0=c0,
                   label=f"ab({a:g},{b:g})")

    def eta(self, r: np.ndarray | float) -> np.ndarray:
        return self.profile(np.asarray(r, dtype=float))

    def kernel(self, r: np.ndarray | float, t: float) -> np.ndarray:
        return np.exp(-self.c0 * self.eta(r) * t)

    def split_constants(self, r0: float) -> tuple[float, float]:
        """(c_low, c_high) with eta >= c_low |xi|^sigma1 below r0 and
        eta >= c_high |xi|^-sigma2 above r0, measured on a log grid."""
        lo = np.geomspace(SPLIT_GRID[0], r0, 4001)
        hi = np.geomspace(r0, SPLIT_GRID[1], 4001)
        c_low = float(np.min(self.eta(lo) / lo**self.sigma1))
        c_high = float(np.min(self.eta(hi) * hi**self.sigma2))
        return c_low, c_high


def euler_maxwell_rate(c0: float = 1.0) -> DissipRate:
    """The (1, 2) member |xi|^2 / (1 + |xi|^2)^2."""
    return DissipRate.from_ab(1.0, 2.0, c0=c0)


def gamma_factor(n: int, sigma: float, r: float, p: float = 2.0) -> float:
    """(n/sigma) (1/r - 1/p)."""
    return (n / sigma) * (1.0 / r - 1.0 / p)


@dataclass(frozen=True)
class DecayParams:
    """Exponent bundle (s, ell, rho, r, alpha) plus the regime split index."""

    s: float
    ell: float
    rho: float
    r: float
    alpha: float
    q0: int = 0

    @property
    def r_split(self) -> float:
        return 2.0**self.q0

    def check(self, n: int) -> None:
        """Validate the exponent hypotheses in dimension n.

        For r < 2 the radial-tail route needs ell strictly above
        n(1/r - 1/2); at equality the tail integral only diverges
        logarithmically and the per-block bound still carries a q-uniform
        constant, so the marginal case is admitted (it is exercised by the
        r=1 regime of the dissipation analysis).  Values strictly below the
        threshold are rejected.
        """
        if self.s + self.rho <= 0:
            raise HypothesisError(
                f"requires s + rho > 0, got {self.s} + {self.rho} = {self.s + self.rho}"
            )
        if not 1.0 <= self.r <= 2.0:
            raise HypothesisError(f"requires 1 <= r <= 2, got r={self.r}")
        if self.alpha < 1.0:
            raise HypothesisError(f"requires alpha >= 1, got alpha={self.alpha}")
        threshold = self.ell_threshold(n)
        if self.ell < threshold:  # at r = 2 the threshold is 0
            if self.r < 2.0:
                raise HypothesisError(
                    f"requires ell >= n(1/r - 1/2) = {threshold:g} for r={self.r:g} < 2, "
                    f"got ell={self.ell:g}"
                )
            raise HypothesisError(f"requires ell >= 0 at r=2, got ell={self.ell:g}")

    def ell_threshold(self, n: int) -> float:
        """n (1/r - 1/2), the least ell admitted in dimension n."""
        return n * (1.0 / self.r - 0.5)


def rhs_time_factors(t: float, params: DecayParams, rate: DissipRate, n: int) -> tuple[float, float]:
    gamma = gamma_factor(n, rate.sigma2, params.r)
    low = (1.0 + t) ** (-(params.s + params.rho) / rate.sigma1)
    high = (1.0 + t) ** (-params.ell / rate.sigma2 + gamma)
    return low, high


def profile_lattice_sup(
    power: float, sigma: float, c: float, alpha: float, taus: Sequence[float]
) -> float:
    """max over tau of the l^alpha_q norm of (2^q tau)^power exp(-c (2^q tau)^sigma).

    Each term is formed in logs, as exp(power ln x - c x^sigma), so that a
    power past the float range meets the exponential that brings it back.
    A sup that itself passes the float range raises BlockWeightError,
    charged to the power that sets it.
    """
    qs = np.arange(-80, 81)
    out = 0.0
    for tau in taus:
        if tau <= 0:
            continue
        x = 2.0**qs * tau
        with np.errstate(over="ignore"):  # an infinite x^sigma makes its term exp(-inf) = 0
            out = max(out, ell_r(np.exp(power * np.log(x) - c * x**sigma), alpha))
    if not math.isfinite(out):
        raise BlockWeightError(f"the profile sup at power s + rho = {power:g} passes the float range")
    return out


@dataclass(frozen=True)
class InequalityReport:
    """Measured two-sided comparison of the decay inequality on a time grid."""

    times: np.ndarray
    lhs: np.ndarray
    low: np.ndarray
    high: np.ndarray
    ratio: np.ndarray
    sup_ratio: float
    gamma: float
    low_regime_sup: float | None
    high_regime_sup: float | None
    profile_sup: float
    split_constants: tuple[float, float]
    dim: int

    def hypothesis_flags(self, params: DecayParams) -> dict:
        threshold = params.ell_threshold(self.dim)
        return {
            "s_plus_rho": params.s + params.rho,
            "ell": params.ell,
            "ell_threshold": threshold,
            "ell_above_threshold": params.ell >= threshold,
            "finite_sup_ratio": bool(np.isfinite(self.sup_ratio)),
        }


def verify_inequality(
    f: PhysicalField | SpectralField,
    times: Sequence[float],
    params: DecayParams,
    rate: DissipRate,
) -> InequalityReport:
    """Evaluate both sides on a time grid and report the measured sup ratio.

    Besides the aggregate ratio, the two proof regimes are tracked
    separately with the kernel replaced by its power-law bound on each side
    of the split radius: the aggregated low-frequency blocks against the
    negative-order norm with its time weight, and each high-frequency block
    against its regularity-weighted L^r norm.  f is released once its half
    lattice exists, as `besov_norm` releases its argument.
    """
    times = np.asarray(sorted(times), dtype=float)
    if times.size == 0:
        raise ConfigError("time grid must be nonempty")
    grid = f.grid
    n = grid.dim
    params.check(n)
    half = half_lattice_coefficients(f)
    del f

    gamma = gamma_factor(n, rate.sigma2, params.r)
    c_low_raw, c_high_raw = rate.split_constants(params.r_split)
    c_low, c_high = rate.c0 * c_low_raw, rate.c0 * c_high_raw

    spectrum = half_lattice_spectrum(grid, half)
    radii = grid.shell_radii
    qs, profiles = block_profiles(grid)
    blocks = shell_l2_norms(spectrum, profiles)
    live = live_blocks(blocks)
    qs, profiles, blocks = qs[live], profiles[live], blocks[live]
    weight = block_weight(qs, params.s)
    # the data's block L^r norms above the roundoff floor, which the high norm weights as besov_norm would; at
    # r = 2 they are the live L^2 blocks above, which half_lattice_besov would read off a second spectrum
    if params.r == 2.0:
        lr_norms = dict(zip(qs.tolist(), blocks.tolist()))
    else:
        lr_norms = half_lattice_besov(grid, half, BesovSpec(0.0, params.r, math.inf, True)).contributions

    # the data norms: negative-order (B^-rho_(2,inf)) and high-regularity (B^(s+ell)_(r,alpha))
    norm_low = ell_r([block_weight(q, -params.rho) * b for q, b in zip(qs.tolist(), blocks.tolist())], math.inf)
    s_high = params.s + params.ell
    norm_high = ell_r([block_weight(q, s_high) * b for q, b in lr_norms.items()], params.alpha)
    lr_blocks = np.array([lr_norms.get(q, 0.0) for q in qs.tolist()])  # for the high-regime diagnostic

    damp = rate.kernel(radii, times[:, None])
    lhs_blocks = weight * shell_l2_norms(damp**2 * spectrum, profiles)
    lhs = np.array([ell_r(row, params.alpha) for row in lhs_blocks])
    lo_t, hi_t = rhs_time_factors(times, params, rate, n)
    subnormal = lo_t < np.finfo(float).tiny  # the low regime's ratios would divide by an underflow
    if subnormal.any():
        raise BlockWeightError(f"the time weight (1+t)^(-(s+rho)/sigma1) at (s + rho)/sigma1 = "
                               f"{(params.s + params.rho) / rate.sigma1:g} is no normal float at t = "
                               f"{times[subnormal][0]:g}")
    low_term = lo_t * norm_low
    high_term = hi_t * norm_high

    # the two proof regimes: the kernel replaced by its power-law bound on
    # each side of the split radius
    t = times[:, None]
    low = qs < params.q0
    low_damp = np.exp(-c_low * radii**rate.sigma1 * t) * (radii <= params.r_split)
    low_blocks = weight[low] * shell_l2_norms(low_damp**2 * spectrum, profiles[low])
    low_regime = [ell_r(row, params.alpha) / (lo * norm_low)
                  for row, lo in zip(low_blocks, lo_t)] if low.any() and norm_low > 0 else []

    with np.errstate(divide="ignore"):
        inv_radii = np.where(radii > 0, radii, np.inf) ** (-rate.sigma2)
    high_damp = np.exp(-c_high * inv_radii * t) * (radii >= params.r_split)
    high = (qs >= params.q0) & (lr_blocks > 0)
    num = weight[high] * shell_l2_norms(high_damp**2 * spectrum, profiles[high])
    den = block_weight(qs[high], s_high) * hi_t[:, None] * lr_blocks[high]
    high_regime = (num / den).ravel().tolist()

    total = low_term + high_term
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(total > 0, lhs / total, np.where(lhs > 0, np.inf, 0.0))
    prof_sup = profile_lattice_sup(
        params.s + params.rho, rate.sigma1, c_low, params.alpha, times[times > 0]
    )
    return InequalityReport(
        times=times,
        lhs=lhs,
        low=low_term,
        high=high_term,
        ratio=ratio,
        sup_ratio=float(np.max(ratio)),
        gamma=gamma,
        low_regime_sup=max(low_regime) if low_regime else None,
        high_regime_sup=max(high_regime) if high_regime else None,
        profile_sup=prof_sup,
        split_constants=(c_low, c_high),
        dim=n,
    )


# ---------------------------------------------------------------------------
# radial tail integral of the high-frequency kernel (the ell threshold)


def tail_integral(
    ell: float,
    r: float,
    rate: DissipRate,
    t: float,
    n: int,
    *,
    r0: float = 1.0,
    r_max: float = 1e3,
) -> float:
    """L^m norm (1/m = 1/r - 1/2) of e^(-c t rho^-sigma2) / rho^ell on [r0, r_max].

    Computed by direct radial quadrature on 4000 geometric points with the
    surface measure of the n-sphere.  For r = 2 this is the sup norm over
    the annulus.
    """
    if not 1.0 <= r <= 2.0:
        raise HypothesisError(f"requires 1 <= r <= 2, got r={r}")
    if not r_max > r0:
        raise ConfigError(f"tail domain needs r_max > r0, got r0={r0:g}, r_max={r_max:g}")
    _, c_high_raw = rate.split_constants(r0)
    c = rate.c0 * c_high_raw
    rho = np.geomspace(r0, r_max, 4000)
    core = np.exp(-c * t * rho**-rate.sigma2) / rho**ell
    if r == 2.0:
        return float(np.max(core))
    m = 1.0 / (1.0 / r - 0.5)
    integrand = core**m * SPHERE_MEASURE[n] * rho ** (n - 1)
    return float(np.trapezoid(integrand, rho) ** (1.0 / m))


@dataclass(frozen=True)
class TailScan:
    values: tuple[float, ...]
    growth_exponent: float
    diverging: bool


def tail_divergence_scan(
    ell: float,
    r: float,
    rate: DissipRate,
    t: float,
    n: int,
    *,
    r0: float = 1.0,
) -> TailScan:
    """Extend the tail domain over r_max = r0 * (1e1, 1e2, 1e3, 1e4) and flag divergence.

    Below the ell threshold the integrand has a nonintegrable power tail and
    the value grows like a positive power of the cutoff; above it the values
    plateau.  The detector is the log-log slope across the final extension:
    slopes above 0.05 flag divergence.  The threshold case itself grows
    like a root of log(r_max) and is reported as diverging, matching the
    marginal character of the hypothesis.
    """
    vals = [tail_integral(ell, r, rate, t, n, r0=r0, r_max=r0 * k) for k in _TAIL_EXTENSIONS]
    slope = math.log(vals[-1] / vals[-2]) / math.log(_TAIL_EXTENSIONS[-1] / _TAIL_EXTENSIONS[-2])
    return TailScan(
        values=tuple(vals),
        growth_exponent=slope,
        diverging=slope > 0.05,
    )
