"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line (run with -s to see them inline).

Criteria 8 and 9 share one desk-scale nonlinear run (T = 100 at 32^3),
which dominates the suite's runtime.
"""

import json
import math

import numpy as np
import pytest

from frequalize.besov import negative_norm
from frequalize.cli import main
from frequalize.decay_kernel import (
    DecayParams,
    euler_maxwell_rate,
    tail_divergence_scan,
    verify_inequality,
)
from frequalize.equilibrium import EquilibriumState
from frequalize.errors import IncompatibleDataError
from frequalize.grid import (
    TorusGrid,
    forward_transform,
    gaussian_bump,
    half_lattice_coefficients,
    lp_norm,
    random_band_limited_field,
)
from frequalize.linear_modes import (
    ContinuumData,
    constraint_projector,
    gap_sweep,
    linear_decay_experiment,
    pointwise_decay_check,
)
from frequalize.littlewood_paley import (
    bernstein_ratios,
    decompose,
    partition_defect,
)
from frequalize.solver import decay_experiment


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_run():
    """The desk-scale nonlinear experiment shared by criteria 8 and 9."""
    grid = TorusGrid(dim=3, box_length=100.0, points_per_axis=32)
    eq = EquilibriumState()
    return decay_experiment(
        grid,
        eq,
        seed=2024,
        amplitude=1e-2,
        t_end=100.0,
        sample_stride=5,
        fit_window=(5.0, 100.0),
        run_duhamel=True,
    )


def test_criterion_1_partition_and_reconstruction():
    rng = np.random.default_rng(1)
    worst_defect = 0.0
    worst_recon = 0.0
    for dim, n, length in ((1, 64, 3.0), (2, 32, 10.0), (3, 16, 25.0)):
        grid = TorusGrid(dim=dim, box_length=length, points_per_axis=n)
        worst_defect = max(worst_defect, partition_defect(grid, homogeneous=False))
        worst_defect = max(worst_defect, partition_defect(grid, homogeneous=True))
        f = random_band_limited_field(grid, 1, rng, zero_mean=False)
        half = half_lattice_coefficients(f)
        rec = sum(decompose(f, homogeneous=False).values())
        worst_recon = max(worst_recon, float(np.max(np.abs(rec - half))) / float(np.max(np.abs(half))))
    _criterion(
        1,
        "partition-of-unity defect and block reconstruction below 1e-10",
        worst_defect <= 1e-10 and worst_recon <= 1e-10,
        f"defect={worst_defect:.2e}, reconstruction={worst_recon:.2e}",
    )


def test_criterion_2_bernstein_ratios():
    rng = np.random.default_rng(2)
    grid = TorusGrid(dim=3, box_length=8.0, points_per_axis=16)
    lo, hi = math.inf, -math.inf
    checked = 0
    for _ in range(100):
        # every block of the field's range but the zero ones and those below the roundoff floor
        ratios = bernstein_ratios(forward_transform(random_band_limited_field(grid, 1, rng))).values()
        lo, hi = min(lo, *ratios), max(hi, *ratios)
        checked += len(ratios)
    ok = 0.75 - 1e-12 <= lo and hi <= 8.0 / 3.0 + 1e-12
    _criterion(
        2,
        "derivative/block ratios within the shell bounds over 100 random fields",
        ok,
        f"range=[{lo:.4f}, {hi:.4f}] over {checked} blocks",
    )


def test_criterion_3_low_order_embedding_stability():
    length = 64.0
    widths = (1.0, 1.5, 2.0, 3.0, 4.0)
    spreads = []
    for width in widths:
        values = []
        for n in (32, 64, 128):
            grid = TorusGrid(dim=3, box_length=length, points_per_axis=n)
            f = gaussian_bump(grid, width)
            values.append(negative_norm(f, 1.5) / lp_norm(f, 1.0))
        spread = (max(values) - min(values)) / min(values)
        spreads.append(spread)
        assert all(math.isfinite(v) and v > 0 for v in values)
    _criterion(
        3,
        "negative-order norm / L1 ratio finite and stable within 10% under refinement",
        max(spreads) <= 0.10,
        f"max spread={max(spreads):.3%} across widths {widths}",
    )


def test_criterion_4_kernel_inequality_parameter_sets():
    rate = euler_maxwell_rate()
    times = np.concatenate([[0.0], np.geomspace(0.1, 1000.0, 24)])
    param_sets = {
        "r2": DecayParams(s=0.0, ell=2.0, rho=1.5, r=2.0, alpha=2.0),
        "r1": DecayParams(s=0.0, ell=1.5, rho=1.5, r=1.0, alpha=2.0),
    }
    sup_ratios = {}
    stable = True
    for name, params in param_sets.items():
        sups = []
        for n in (48, 96):
            grid = TorusGrid(dim=3, box_length=64.0, points_per_axis=n)
            f = gaussian_bump(grid, 1.0)
            rep = verify_inequality(f, times, params, rate)
            assert math.isfinite(rep.sup_ratio)
            sups.append(rep.sup_ratio)
        sup_ratios[name] = sups
        stable &= abs(sups[1] - sups[0]) <= 0.15 * sups[0]
    scan = tail_divergence_scan(1.0, 1.0, rate, t=4.0, n=3)
    ok = stable and scan.diverging
    detail = ", ".join(f"{k}: {v[0]:.3f}->{v[1]:.3f}" for k, v in sup_ratios.items())
    _criterion(
        4,
        "decay inequality sup ratios finite & refinement-stable; threshold violation detected",
        ok,
        detail + f"; violation growth exponent {scan.growth_exponent:.2f}",
    )


def test_criterion_5_regularity_loss_gap_shape():
    eq = EquilibriumState()
    sweep = gap_sweep(np.geomspace(1e-3, 1e3, 61), eq)
    slope_low = sweep.loglog_slope(1e-3, 1e-1)
    slope_high = sweep.loglog_slope(10.0, 1e3)
    ratio_min = float(sweep.rate_ratios.min())
    ratio_max = float(sweep.rate_ratios.max())
    ok = (
        abs(slope_low - 2.0) <= 0.3
        and abs(slope_high + 2.0) <= 0.3
        and ratio_min > 0
        and math.isfinite(ratio_max)
    )
    _criterion(
        5,
        "constrained spectral gap matches the degenerate rate shape",
        ok,
        f"slopes {slope_low:+.3f}/{slope_high:+.3f}, gap/rate in [{ratio_min:.3f}, {ratio_max:.3f}]",
    )


def test_criterion_6_linear_decay_table():
    eq = EquilibriumState()
    gauss = linear_decay_experiment(eq, orders=(0, 1))
    k0, k1 = gauss.fits[0].exponent, gauss.fits[1].exponent
    high = linear_decay_experiment(
        eq, ContinuumData(kind="highpass", cutoff=10.0, budget=1.5), orders=(0,)
    )
    kh = high.fits[0].exponent
    ok = abs(k0 + 0.75) <= 0.10 and abs(k1 + 1.25) <= 0.10 and abs(kh + 0.75) <= 0.15
    _criterion(
        6,
        "whole-space decay fits match the optimal and regularity-loss exponents",
        ok,
        f"k0={k0:.3f} (target -0.75), k1={k1:.3f} (target -1.25), high-pass={kh:.3f}",
    )


def test_criterion_7_pointwise_mode_bound():
    eq = EquilibriumState()
    rng = np.random.default_rng(7)
    samples = []
    for _ in range(1000):
        mag = 10.0 ** rng.uniform(-2, 2)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        xi = mag * direction
        z0 = constraint_projector(xi) @ (rng.standard_normal(10) + 1j * rng.standard_normal(10))
        t = 10.0 ** rng.uniform(-1, 2)
        samples.append((xi, z0, t))
    rep = pointwise_decay_check(samples, eq)
    rejected = False
    bad = np.zeros(10, dtype=complex)
    bad[7] = 1.0  # magnetic component parallel to xi: stationary
    try:
        pointwise_decay_check([(np.array([1.0, 0.0, 0.0]), bad, 1.0)], eq)
    except IncompatibleDataError:
        rejected = True
    ok = math.isfinite(rep.c_bound) and rep.c0 > 0 and rejected
    _criterion(
        7,
        "pointwise kernel bound holds on 1000 compatible samples; incompatible data refused",
        ok,
        f"C={rep.c_bound:.3f}, c0={rep.c0:.3f}",
    )


def test_criterion_8_solver_validity(desk_run):
    # (a) constraint residuals over the shared run (covers T = 50)
    rel_max = float(np.max(desk_run.constraints.relative))
    residual_ok = rel_max <= 1e-8

    # (b) observed convergence order on a short smooth run
    from frequalize.solver import StepperConfig, initial_data_gen, integrate

    grid = TorusGrid(dim=3, box_length=50.0, points_per_axis=16)
    eq = EquilibriumState()
    init = initial_data_gen(grid, eq, seed=3, amplitude=5e-2)

    def terminal(dt):
        return integrate(init.state, StepperConfig(dt=dt), 2.0, lambda z_hat, state, flux_hat: None, sample_stride=10**6).final.z

    z1, z2, zref = terminal(0.4), terminal(0.2), terminal(0.05)
    e1 = math.sqrt(float(np.sum((z1 - zref) ** 2)) * grid.cell_volume)
    e2 = math.sqrt(float(np.sum((z2 - zref) ** 2)) * grid.cell_volume)
    order = math.log2(e1 / e2)
    order_ok = order >= 3.5 and 12.0 <= e1 / e2 <= 20.0

    # (c) amplitude halving quarters the deviation from the linear flow
    from frequalize.solver import SimState, rhs_eval
    from frequalize.grid import half_lattice_forward, half_lattice_inverse
    from frequalize.linear_modes import GridModePropagator

    prop = GridModePropagator(grid, eq)

    def deviation(scale):
        state = SimState(grid=grid, eq=eq, time=0.0, z=scale * init.state.z)
        lin = half_lattice_inverse(grid, prop.generator_apply(half_lattice_forward(grid, state.z)))
        diff = rhs_eval(state) - lin
        return math.sqrt(float(np.sum(diff**2)) * grid.cell_volume)

    ratio = deviation(1.0) / deviation(0.5)
    quadratic_ok = abs(ratio - 4.0) <= 0.4

    ok = residual_ok and order_ok and quadratic_ok
    _criterion(
        8,
        "solver validity: constraint transport, 4th order, quadratic linearization error",
        ok,
        f"rel residual={rel_max:.2e}, order={order:.2f}, eps-ratio={ratio:.3f}",
    )


def test_criterion_9_desk_scale_decay(desk_run):
    fit = desk_run.fit
    f = desk_run.functionals
    times = f.times
    half = times >= times[-1] / 2
    plateau = float(f.n[-1]) <= 1.05 * float(f.n[half][0])
    bounded_constant = float(np.max(f.n)) / desk_run.initial.i1
    # energy inequality shape: the sup and dissipation functionals stay
    # bounded by a moderate multiple of the initial regularity norm
    energy_constant = float(f.n0[-1] + f.d0[-1]) / desk_run.initial.amplitude
    exponent_ok = -1.1 <= fit.exponent <= -0.4
    duhamel = desk_run.duhamel
    duhamel_ok = duhamel is not None and duhamel.c1 > 0 and math.isfinite(duhamel.c_bound)
    ok = (
        exponent_ok
        and plateau
        and math.isfinite(bounded_constant)
        and math.isfinite(energy_constant)
        and duhamel_ok
    )
    _criterion(
        9,
        "desk-scale nonlinear decay brackets -3/4 and the weighted sup stays bounded",
        ok,
        f"exponent={fit.exponent:.3f} in [-1.1,-0.4], sup(1+t)^0.75||z|| / I1={bounded_constant:.3f}, "
        f"(N0+D0)/I0={energy_constant:.2f}, duhamel (C, c1)=({duhamel.c_bound:.2f}, {duhamel.c1:.2f})",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "grid": {"dim": 3, "box_length": 20.0, "points_per_axis": 8},
        "equilibrium": {"n_inf": 1.0, "B_inf": [0, 0, 0], "gamma": 5 / 3, "K": 1.0},
        "init": {"seed": 99, "amplitude": 0.01, "profile": {"xi_width": 0.4}},
        "stepper": {"cfl": 0.5, "dealias": True},
        "experiment": {"T": 4.0, "stride": 2, "fit_window": [0.5, 4.0]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["nonlinear", "run", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    csv_same = (outs[0] / "nonlinear_run.csv").read_bytes() == (outs[1] / "nonlinear_run.csv").read_bytes()
    json_same = (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    _criterion(10, "identical seed and config reproduce byte-identical artifacts", csv_same and json_same)
