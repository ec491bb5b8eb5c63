"""The three workloads: their seeded inputs, their operations and the checks.

A workload function builds its inputs (this is set-up time) and returns the
operations in the order the round runs them.  An operation is one CLI call
through ``frequalize.cli.main`` or one public-API call; its check runs after
the timed window and raises ``CheckFailed`` on a wrong output.  ``digest``
names the bytes that must repeat exactly in every round of a run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

import reference as ref

# desk nonlinear run: the acceptance config, shortened from T=100 so that a
# round fits the run length; the fit window [5, T] stays inside half the
# saturation time (about 128 for L=100)
DESK_T = 20.0
DESK_GRID = {"dim": 3, "box_length": 100.0, "points_per_axis": 32}
# spectral norms: kernel-verify grids, the Besov specs (both p=2 and p!=2
# paths of the block layer) and the lattice of the dumped field
KERNEL_SIZES = (48, 96)
KERNEL_PARAMS = {"r2": "0,2,1.5,2,2", "r1": "0,1.5,1.5,1,2"}
KERNEL_BOX = 64.0
BESOV_SPECS = ("2.5,2,1,inhom", "1.5,1,2,hom", "0.5,inf,inf,hom", "-1.5,2,inf,hom")
# linear modes: background fields, lattice evolution times, probed modes
B_FIELDS = {"b0": (0.0, 0.0, 0.0), "b05": (0.0, 0.0, 0.5)}
EVOLVE_TIMES = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
PROBE_MODES = ((1, 0, 0), (0, 2, 1), (3, -2, 5), (-4, 4, -1), (6, 0, -3))
POINTWISE_SAMPLES = 1000


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], str]


@dataclass
class Context:
    seed: int
    work: Path  # this round's scratch directory
    main: Callable  # frequalize.cli.main, wrapped when traced


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _cli_op(ctx: Context, name: str, argv: list[str], check, csv_name: str) -> Op:
    out = ctx.work / name

    def call():
        try:
            code = ctx.main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
        if code != 0:
            raise RuntimeError(f"frequalize {' '.join(argv[:2])} exited with code {code}")
        return out

    def digest(out: Path) -> str:
        return _sha((out / csv_name).read_bytes(), (out / "summary.json").read_bytes())

    return Op(name, call, check, digest)


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def _array_digest(*arrays) -> str:
    return _sha(*(np.ascontiguousarray(a).tobytes() for a in arrays))


# ---------------------------------------------------------------------------
# desk-nonlinear


def desk_nonlinear(ctx: Context, fq) -> list[Op]:
    config = {
        "grid": DESK_GRID,
        "equilibrium": {"n_inf": 1.0, "B_inf": [0, 0, 0], "gamma": 5.0 / 3.0, "K": 1.0},
        "init": {"seed": ctx.seed, "amplitude": 1e-2, "profile": {"xi_width": 0.3}},
        "stepper": {"cfl": 0.5, "dealias": True},
        "experiment": {"T": DESK_T, "stride": 5, "fit_window": [5.0, DESK_T], "duhamel": True},
    }
    path = ctx.work / "desk.json"
    path.write_text(json.dumps(config))

    def check(out: Path) -> None:
        rows = ref.read_csv(out / "nonlinear_run.csv")
        t, l2 = rows["t"], rows["l2"]
        length, values = ref.read_dump(out / "final_state.fqlz")
        dumped = math.sqrt(float(np.sum(values**2)) * (length / values.shape[1]) ** 3)
        require(abs(dumped - l2[-1]) <= 1e-10 * l2[-1],
                f"L2 of the dumped final state {dumped!r} != last CSV l2 {float(l2[-1])!r}")
        exponent = ref.decay_exponent(t, l2, (5.0, DESK_T))
        reported = _summary(out)["fit"]["exponent"]
        require(abs(exponent - reported) <= 1e-9,
                f"refit exponent {exponent!r} != summary exponent {reported!r}")
        require(-1.1 <= exponent <= -0.4, f"decay exponent {exponent:.4f} outside [-1.1, -0.4]")
        residual = float(np.max(np.maximum(rows["resE"], rows["resB"]) / l2))
        require(residual <= 1e-8, f"relative constraint residual {residual:.3e} > 1e-8")
        require(bool(np.all(np.diff(rows["N"]) >= 0.0)), "N decreases")

    argv = ["nonlinear", "run", "--config", str(path), "--dump"]
    return [_cli_op(ctx, "nonlinear_run", argv, check, "nonlinear_run.csv")]


# ---------------------------------------------------------------------------
# spectral-norms


def spectral_norms(ctx: Context, fq) -> list[Op]:
    grids = {}
    for n in KERNEL_SIZES:
        grids[n] = ctx.work / f"grid{n}.json"
        grids[n].write_text(json.dumps({"dim": 3, "box_length": KERNEL_BOX, "points_per_axis": n}))
    lattice = fq.TorusGrid(dim=3, box_length=KERNEL_BOX, points_per_axis=max(KERNEL_SIZES))
    field = fq.random_band_limited_field(lattice, 3, np.random.default_rng(ctx.seed))
    dump = ctx.work / "field.fqlz"
    fq.dump_field(field, dump)
    dump_blocks = functools.cache(lambda: ref.DumpBlocks(dump))  # built by the first besov check

    def kernel_check(n: int):
        def check(out: Path) -> None:
            rows = ref.read_csv(out / "kernel_verify.csv")
            lhs, total = rows["lhs"], rows["low"] + rows["high"]
            require(bool(np.all(np.isfinite(rows["ratio"]))), "non-finite ratio")
            require(bool(np.allclose(rows["ratio"], lhs / total, rtol=1e-12, atol=0.0)),
                    "ratio column != lhs / (low + high)")
            require(bool(np.all(np.diff(lhs) <= 1e-14 * lhs[0])),
                    "kernel-damped LHS increases in t")
            if n == max(KERNEL_SIZES):
                early = rows["t"] <= 10.0
                quad = ref.gaussian_kernel_lhs(rows["t"][early])
                err = float(np.max(np.abs(lhs[early] - quad) / quad))
                require(err <= 2e-3, f"LHS differs from radial quadrature by {err:.2e} (> 2e-3)")

        return check

    def besov_check(spec: str):
        s, p, r, hom = spec.split(",")
        s, p, r, hom = float(s), float(p), float(r), hom == "hom"

        def check(out: Path) -> None:
            ref_blocks = dump_blocks()
            summary = _summary(out)
            got = {int(q): v for q, v in summary["contributions"].items()}
            raw = {q: ref_blocks.norm(q, p, hom) for q in ref_blocks.block_range(hom)}
            top = max(raw.values())
            for q, b in raw.items():
                want = 2.0 ** (q * s) * b
                if b > 1e-10 * top:
                    require(q in got, f"block {q} missing from the report")
                if q in got:
                    slack = 1e-8 * want + 1e-12 * top * 2.0 ** (q * s)
                    require(abs(got[q] - want) <= slack,
                            f"block {q}: reported {got[q]!r}, plain-FFT {want!r}")
            require(set(got) <= set(raw), f"blocks {sorted(set(got) - set(raw))} off the lattice")
            vals = np.array(list(got.values()))
            agg = float(vals.max()) if math.isinf(r) else float(np.sum(vals**r) ** (1.0 / r))
            require(abs(agg - summary["value"]) <= 1e-12 * agg, "value != l^r of contributions")

        return check

    def lp_check(out: Path) -> None:
        summary = _summary(out)
        for key in ("pou_defect_inhom", "pou_defect_hom"):
            require(summary[key] <= 1e-10, f"{key} = {summary[key]:.3e} > 1e-10")
        lo, hi = summary["bernstein_min"], summary["bernstein_max"]
        require(0.75 - 1e-12 <= lo and hi <= 8.0 / 3.0 + 1e-12,
                f"Bernstein ratios [{lo}, {hi}] outside [3/4, 8/3]")

    ops = []
    for n in KERNEL_SIZES:
        for label, params in KERNEL_PARAMS.items():
            argv = ["kernel", "verify", "--rate", "1,2", "--params", params, "--grid", str(grids[n])]
            ops.append(_cli_op(ctx, f"kernel_{n}_{label}", argv, kernel_check(n), "kernel_verify.csv"))
    for i, spec in enumerate(BESOV_SPECS):
        # "--spec=" form: argparse reads a value with a leading "-" as an option
        argv = ["besov", "norm", f"--spec={spec}", "--input", str(dump)]
        ops.append(_cli_op(ctx, f"besov_{i}", argv, besov_check(spec), "besov_norm.csv"))
    argv = ["lp", "check", "--seed", str(ctx.seed)]
    ops.append(_cli_op(ctx, "lp_check", argv, lp_check, "lp_check.csv"))
    return ops


# ---------------------------------------------------------------------------
# linear-modes


def _pointwise_samples(rng: np.random.Generator) -> list:
    """Compatible (xi, z0, t) samples: |xi| in [1e-2, 1e2], t in [0.1, 100]."""
    samples = []
    for _ in range(POINTWISE_SAMPLES):
        mag = 10.0 ** rng.uniform(-2, 2)
        direction = rng.standard_normal(3)
        xi = mag * direction / np.linalg.norm(direction)
        z0 = ref.constraint_projector(xi) @ (rng.standard_normal(10) + 1j * rng.standard_normal(10))
        samples.append((xi, z0, 10.0 ** rng.uniform(-1, 2)))
    return samples


def linear_modes(ctx: Context, fq) -> list[Op]:
    pressure = fq.PressureLaw(coefficient=1.0, gamma=5.0 / 3.0)
    eqs = {k: fq.EquilibriumState(n_inf=1.0, b_inf=b, pressure=pressure) for k, b in B_FIELDS.items()}
    grid = fq.TorusGrid(**DESK_GRID)
    init = fq.initial_data_gen(grid, eqs["b0"], ctx.seed)
    z0 = fq.forward_transform(init.state.as_field())
    samples = _pointwise_samples(np.random.default_rng(ctx.seed))

    def gap_check(out: Path) -> None:
        rows = ref.read_csv(out / "linear_gap.csv")
        xi, gap = rows["xi"], rows["gap"]
        low, high = (xi >= 1e-3) & (xi <= 1e-1), (xi >= 10.0) & (xi <= 1e3)
        slopes = ref.loglog_slope(xi[low], gap[low]), ref.loglog_slope(xi[high], gap[high])
        require(abs(slopes[0] - 2.0) <= 0.3 and abs(slopes[1] + 2.0) <= 0.3,
                f"gap slopes {slopes[0]:+.3f}/{slopes[1]:+.3f}, expected +2/-2 within 0.3")

    def decay_check(window, targets, tol):
        def check(out: Path) -> None:
            rows = ref.read_csv(out / "linear_decay.csv")
            for k, target in targets.items():
                got = ref.decay_exponent(rows["t"], rows[f"l2_d{k}"], window)
                require(abs(got - target) <= tol,
                        f"order-{k} exponent {got:.4f}, expected {target} within {tol}")

        return check

    def aniso_check(exp) -> None:
        for k, target in {0: -0.75, 1: -1.25}.items():
            got = ref.decay_exponent(exp.times, exp.norms[k], (10.0, 1000.0))
            require(abs(got - target) <= 0.1,
                    f"anisotropic order-{k} exponent {got:.4f}, expected {target} within 0.1")

    def evolve_check(b_inf):
        def check(sol) -> None:
            n = grid.points_per_axis
            xi_axis = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.box_length / n)
            for mode in PROBE_MODES:
                idx = tuple(k % n for k in mode)
                gen = ref.mode_generator(xi_axis[list(idx)], b_inf)
                start = z0.coefficients[(slice(None),) + idx]
                for t, state in zip(EVOLVE_TIMES, sol.states):
                    want = scipy.linalg.expm(t * gen) @ start
                    got = state.coefficients[(slice(None),) + idx]
                    err = float(np.linalg.norm(got - want))
                    require(err <= 1e-9 * float(np.linalg.norm(start)),
                            f"mode {mode} at t={t:g}: differs from expm by {err:.3e}")
            res = float(np.max(sol.constraint_residuals))
            require(res <= 1e-10, f"constraint residual {res:.3e} > 1e-10")

        return check

    def pointwise_check(report) -> None:
        require(report.n_samples == POINTWISE_SAMPLES, f"{report.n_samples} samples counted")
        require(math.isfinite(report.c_bound) and report.c0 > 0,
                f"(C, c0) = ({report.c_bound}, {report.c0})")
        worst = 0.0
        for xi, z0s, t in samples:
            zt = scipy.linalg.expm(t * ref.mode_generator(xi, B_FIELDS["b0"])) @ z0s
            ratio = float(np.linalg.norm(zt) / np.linalg.norm(z0s))
            worst = max(worst, ratio * math.exp(report.c0 * float(ref.euler_maxwell_eta(np.linalg.norm(xi))) * t))
        require(abs(worst - report.c_bound) <= 1e-6 * report.c_bound,
                f"bound C={report.c_bound!r} at c0={report.c0} but samples need {worst!r}")

    ops = []
    for key, b in B_FIELDS.items():
        argv = ["linear", "gap"] + ([] if key == "b0" else ["--binf", ",".join(f"{x:g}" for x in b)])
        ops.append(_cli_op(ctx, f"gap_{key}", argv, gap_check, "linear_gap.csv"))
    ops.append(_cli_op(ctx, "decay_gaussian", ["linear", "decay", "--data", "gaussian"],
                       decay_check((10.0, 1000.0), {0: -0.75, 1: -1.25}, 0.1), "linear_decay.csv"))
    ops.append(_cli_op(ctx, "decay_highpass",
                       ["linear", "decay", "--data", "highpass", "--budget", "1.5", "--orders", "0"],
                       decay_check((500.0, 20000.0), {0: -0.75}, 0.15), "linear_decay.csv"))
    ops.append(Op(
        "decay_anisotropic",
        lambda: fq.linear_decay_experiment(eqs["b05"], fq.ContinuumData(kind="gaussian", width=2.5),
                                           orders=(0, 1)),
        aniso_check,
        lambda exp: _array_digest(exp.times, exp.norms[0], exp.norms[1]),
    ))
    for key, b in B_FIELDS.items():
        ops.append(Op(
            f"evolve_{key}",
            lambda eq=eqs[key]: fq.linear_evolve_grid(z0, EVOLVE_TIMES, eq),
            evolve_check(b),
            lambda sol: _array_digest(sol.constraint_residuals, *sol.norms.values(),
                                      sol.states[-1].coefficients),
        ))
    ops.append(Op(
        "pointwise",
        lambda: fq.pointwise_decay_check(samples, eqs["b0"]),
        pointwise_check,
        lambda rep: _array_digest([rep.c_bound, rep.c0, rep.n_samples, rep.max_ratio_at_origin]),
    ))
    return ops


WORKLOADS = {
    "desk-nonlinear": desk_nonlinear,
    "spectral-norms": spectral_norms,
    "linear-modes": linear_modes,
}
