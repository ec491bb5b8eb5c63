"""Command-line interface.

Subcommands mirror the module map: `lp check`, `besov norm`,
`kernel verify`, `linear gap`, `linear decay`, `nonlinear run`, `report`.
Every run writes a CSV (echoed to stdout when no --out directory is given)
plus a summary JSON; reruns with identical seed and config are
byte-identical.  Exit codes: 0 success, 2 configuration or hypothesis
violation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .besov import BesovSpec, besov_norm
from .decay_kernel import (
    SPLIT_GRID,
    DecayParams,
    DissipRate,
    tail_divergence_scan,
    verify_inequality,
)
from .equilibrium import EquilibriumState
from .errors import (
    ConfigError,
    FrequalizeError,
    HypothesisError,
    IncompatibleDataError,
    NumericalError,
)
from .grid import TorusGrid, forward_transform, gaussian_bump, random_band_limited_field
from .harness import ExperimentConfig, merge_reports, write_csv, write_json, write_plot_script
from .io import dump_field, load_field
from .linear_modes import ContinuumData, gap_sweep, linear_decay_experiment
from .littlewood_paley import bernstein_extremes, partition_defect
from .solver import decay_experiment


def _parse_times(spec: str) -> np.ndarray:
    try:
        t0_s, t1_s, n_s = spec.split(":")
        t0, t1, n = float(t0_s), float(t1_s), int(n_s)
    except ValueError:
        raise ConfigError(f"--times: expected t0:t1:n, got {spec!r}") from None
    if n < 1 or t1 < t0 or t0 < 0 or (n > 1 and t1 <= 0):
        raise ConfigError(f"--times: invalid range {spec!r}")
    if t0 > 0:
        return np.geomspace(t0, t1, n)
    if n == 1:
        return np.array([t0])
    tail = np.geomspace(max(t1 * 1e-3, 1e-3), t1, n - 1)
    return np.concatenate([[0.0], tail])


def _parse_floats(spec: str, count: int, name: str) -> list[float]:
    parts = spec.split(",")
    if len(parts) != count:
        raise ConfigError(f"{name}: expected {count} comma-separated values, got {spec!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{name}: non-numeric entry in {spec!r}") from None
    if any(math.isnan(v) for v in values):
        raise ConfigError(f"{name}: NaN entry in {spec!r}")
    return values


def _finite(name: str, values: list[float]) -> list[float]:
    """values, or a ConfigError naming the option when one of them is infinite or NaN."""
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{name}: expected finite values, got {values}")
    return values


def _parse_window(spec: str) -> tuple[float, float]:
    try:
        a, b = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ConfigError(f"--window: expected a:b, got {spec!r}") from None
    return a, b


def _load_grid(path: str | None, default: TorusGrid) -> TorusGrid:
    """Grid from a JSON file holding either a run config's grid block or the bare block."""
    if path is None:
        return default
    raw = harness.load_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return harness.parse_grid(raw if "grid" in raw else {"grid": raw})


def _emit(args, name: str, header, rows, summary: dict) -> None:
    text = harness.csv_text(header, rows)
    if args.out:
        out = Path(args.out)
        write_csv(out / f"{name}.csv", header, rows)
        write_json(out / "summary.json", summary)
    else:
        sys.stdout.write(text)
        sys.stdout.write(json.dumps(harness.jsonable(summary), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_lp_check(args) -> int:
    grid = _load_grid(args.grid, TorusGrid(dim=3, box_length=10.0, points_per_axis=32))
    if args.fields < 1:
        raise ConfigError(f"--fields: need at least one probe field, got {args.fields}")
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    fields = [forward_transform(random_band_limited_field(grid, 1, rng)) for _ in range(args.fields)]
    lo, hi = bernstein_extremes(grid, fields)
    defect_in = partition_defect(grid, homogeneous=False)
    defect_hom = partition_defect(grid, homogeneous=True)
    header = ["pou_defect_inhom", "pou_defect_hom", "bernstein_min", "bernstein_max"]
    rows = [[defect_in, defect_hom, lo, hi]]
    summary = {
        "kind": "lp_check",
        "run_id": f"lp_check_seed{seed}",
        "pou_defect_inhom": defect_in,
        "pou_defect_hom": defect_hom,
        "bernstein_min": lo,
        "bernstein_max": hi,
        "bernstein_bounds": [0.75, 8.0 / 3.0],
        "fields": args.fields,
    }
    _emit(args, "lp_check", header, rows, summary)
    return 0


def _parse_besov_spec(spec: str) -> BesovSpec:
    parts = spec.split(",")
    if len(parts) not in (3, 4):
        raise ConfigError(f"--spec: expected s,p,r[,hom|inhom], got {spec!r}")
    try:
        s = float(parts[0])
        p = math.inf if parts[1] in ("inf", "Inf") else float(parts[1])
        r = math.inf if parts[2] in ("inf", "Inf") else float(parts[2])
    except ValueError:
        raise ConfigError(f"--spec: non-numeric entry in {spec!r}") from None
    hom = True
    if len(parts) == 4:
        if parts[3] not in ("hom", "inhom"):
            raise ConfigError(f"--spec: homogeneity must be hom or inhom, got {parts[3]!r}")
        hom = parts[3] == "hom"
    return BesovSpec(s, p, r, hom)


def cmd_besov_norm(args) -> int:
    spec = _parse_besov_spec(args.spec)
    field = load_field(args.input)
    report = besov_norm(field, spec)
    qs = sorted(report.contributions)
    header = ["spec", "value", "mean_magnitude"] + [f"q{q}" for q in qs]
    rows = [[spec.label(), report.value, report.mean_magnitude] + [report.contributions[q] for q in qs]]
    summary = {
        "kind": "besov_norm",
        "run_id": f"besov_{Path(args.input).stem}",
        "spec": spec.label(),
        "value": report.value,
        "mean_magnitude": report.mean_magnitude,
        "contributions": {str(q): report.contributions[q] for q in qs},
    }
    _emit(args, "besov_norm", header, rows, summary)
    return 0


def cmd_kernel_verify(args) -> int:
    rate_vals = _finite("--rate", _parse_floats(args.rate, 2, "--rate"))
    rate = DissipRate.from_ab(rate_vals[0], rate_vals[1])
    s, ell, rho, r, alpha = _parse_floats(args.params, 5, "--params")
    lo, hi = SPLIT_GRID
    if not math.log2(lo) <= args.q0 <= math.log2(hi):  # compared in logs: 2^q0 may overflow
        raise ConfigError(f"--q0: 2^{args.q0} lies outside the split-constant grid [{lo:g}, {hi:g}]")
    params = DecayParams(s=s, ell=ell, rho=rho, r=r, alpha=alpha, q0=args.q0)
    times = _parse_times(args.times)
    grid = _load_grid(args.grid, TorusGrid(dim=3, box_length=64.0, points_per_axis=48))
    if args.input.startswith("gaussian"):
        width = args.input.split(":")[1] if ":" in args.input else "1.0"
        field = gaussian_bump(grid, _finite("--input", _parse_floats(width, 1, "--input"))[0])
    else:
        field = load_field(args.input)
    params.check(field.grid.dim)
    report = verify_inequality(field, times, params, rate)
    scan = tail_divergence_scan(ell, r, rate, t=4.0, n=field.grid.dim, r0=params.r_split)
    header = ["t", "lhs", "low", "high", "ratio"]
    rows = [
        [report.times[i], report.lhs[i], report.low[i], report.high[i], report.ratio[i]]
        for i in range(report.times.size)
    ]
    summary = {
        "kind": "kernel_verify",
        "run_id": f"kernel_{rate.label}",
        "sup_ratio": report.sup_ratio,
        "gamma": report.gamma,
        "low_regime_sup": report.low_regime_sup,
        "high_regime_sup": report.high_regime_sup,
        "profile_sup": report.profile_sup,
        "split_constants": list(report.split_constants),
        "hypothesis": report.hypothesis_flags(params, field.grid.dim),
        "tail_scan": {
            "values": list(scan.values),
            "growth_exponent": scan.growth_exponent,
            "diverging": scan.diverging,
        },
    }
    _emit(args, "kernel_verify", header, rows, summary)
    return 0


def cmd_linear_gap(args) -> int:
    try:
        lo_s, hi_s, n_s = args.xi_range.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ConfigError(f"--xi-range: expected a:b:n, got {args.xi_range!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0 or hi <= lo or n < 2:
        raise ConfigError(f"--xi-range: invalid range {args.xi_range!r}")
    b_inf = tuple(_finite("--binf", _parse_floats(args.binf, 3, "--binf"))) if args.binf else (0.0, 0.0, 0.0)
    try:
        eq = EquilibriumState(b_inf=b_inf)
    except ConfigError as exc:
        raise ConfigError(f"--binf: {exc}") from None
    mags = np.geomspace(lo, hi, n)
    sweep = gap_sweep(mags, eq)
    header = ["xi", "gap", "gap_over_eta0"]
    rows = [[sweep.magnitudes[i], sweep.gaps[i], sweep.rate_ratios[i]] for i in range(n)]
    summary = {
        "kind": "linear_gap",
        "run_id": "linear_gap",
        "slope_low": sweep.loglog_slope(lo, min(lo * 100.0, hi)),
        "slope_high": sweep.loglog_slope(max(hi / 100.0, lo), hi),
        "ratio_min": float(sweep.rate_ratios.min()),
        "ratio_max": float(sweep.rate_ratios.max()),
        "B_inf": list(b_inf),
    }
    _emit(args, "linear_gap", header, rows, summary)
    return 0


def cmd_linear_decay(args) -> int:
    try:
        orders = tuple(int(k) for k in args.orders.split(","))
    except ValueError:
        raise ConfigError(f"--orders: expected integers, got {args.orders!r}") from None
    _finite("--width", [args.width])
    _finite("--budget", [args.budget])
    if args.data == "gaussian":
        data = ContinuumData(kind="gaussian", width=args.width)
    elif args.data == "highpass":
        if not (math.isfinite(args.cutoff) and args.cutoff > 0):
            raise ConfigError(f"--cutoff: must be positive and finite, got {args.cutoff}")
        data = ContinuumData(kind="highpass", cutoff=args.cutoff, budget=args.budget)
    else:
        raise ConfigError(f"--data: expected gaussian or highpass, got {args.data!r}")
    times = _parse_times(args.times) if args.times else None
    window = _parse_window(args.window) if args.window else None
    eq = EquilibriumState()
    exp = linear_decay_experiment(eq, data, times=times, orders=orders, window=window)
    header = ["t"] + [f"l2_d{k}" for k in orders]
    rows = [
        [exp.times[i]] + [exp.norms[k][i] for k in orders] for i in range(exp.times.size)
    ]
    fits = {}
    for k in orders:
        d = exp.fits[k].as_dict()
        d["target"] = exp.targets[k]
        d["deviation"] = exp.fits[k].exponent - exp.targets[k]
        fits[str(k)] = d
    summary = {
        "kind": "linear_decay",
        "run_id": f"linear_{data.kind}",
        "data": {"kind": data.kind, "width": data.width, "cutoff": data.cutoff, "budget": data.budget},
        "fits": fits,
    }
    _emit(args, "linear_decay", header, rows, summary)
    if args.out and args.plot:
        write_plot_script(
            Path(args.out) / "plot_linear_decay.py", "linear_decay.csv", "t",
            [f"l2_d{k}" for k in orders],
        )
    return 0


def cmd_nonlinear_run(args) -> int:
    if not args.config:
        raise ConfigError("nonlinear run requires --config <json>")
    cfg = ExperimentConfig.from_file(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    result = decay_experiment(
        cfg.grid,
        cfg.equilibrium,
        seed=seed,
        amplitude=cfg.amplitude,
        profile=cfg.profile,
        stepper=cfg.stepper,
        t_end=cfg.t_end,
        sample_stride=cfg.stride,
        fit_window=cfg.fit_window,
        run_duhamel=cfg.duhamel,
    )
    f = result.functionals
    c = result.constraints
    header = ["t", "l2", "N", "D", "N0", "D0", "resE", "resB"]
    rows = [
        [f.times[i], f.l2[i], f.n[i], f.d[i], f.n0[i], f.d0[i],
         c.electric_residual[i], c.magnetic_residual[i]]
        for i in range(f.times.size)
    ]
    fit = result.fit.as_dict()
    fit["target"] = harness.NONLINEAR_TARGET
    fit["deviation"] = result.fit.exponent - harness.NONLINEAR_TARGET
    summary = {
        "kind": "nonlinear_decay",
        "run_id": f"nonlinear_seed{seed}",
        "fit": fit,
        "amplitude": cfg.amplitude,
        "I1": result.initial.i1,
        "saturation_time": result.saturation_time,
        "sup_weighted_l2": float(np.max(f.n)),
        "constraint_rel_max": float(np.max(c.relative)),
    }
    if result.duhamel is not None:
        summary["duhamel"] = {
            "c1": result.duhamel.c1,
            "c_bound": result.duhamel.c_bound,
            "modes": [list(m[0]) for m in result.duhamel.modes],
        }
    _emit(args, "nonlinear_run", header, rows, summary)
    if args.out and args.dump:
        dump_field(result.series.states[-1].as_field(), Path(args.out) / "final_state.fqlz")
    if args.out and args.plot:
        write_plot_script(
            Path(args.out) / "plot_nonlinear_run.py", "nonlinear_run.csv", "t",
            ["l2", "N", "D"],
        )
    return 0


def cmd_report(args) -> int:
    header, rows = merge_reports(args.summaries)
    if args.out:
        write_csv(Path(args.out) / "report.csv", header, rows)
    else:
        sys.stdout.write(harness.csv_text(header, rows))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frequalize",
        description="Dyadic frequency-localization norms and decay verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output directory for CSV + summary JSON")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")

    lp = sub.add_parser("lp", help="dyadic partition diagnostics")
    lp_sub = lp.add_subparsers(dest="subcommand", required=True)
    lp_check = lp_sub.add_parser("check", help="partition-of-unity defect and derivative ratios")
    common(lp_check)
    lp_check.add_argument("--grid", help="JSON file with grid settings")
    lp_check.add_argument("--fields", type=int, default=20, help="number of random probe fields")
    lp_check.set_defaults(func=cmd_lp_check)

    besov = sub.add_parser("besov", help="Besov norm evaluation")
    besov_sub = besov.add_subparsers(dest="subcommand", required=True)
    bn = besov_sub.add_parser("norm", help="norm of a dumped field")
    common(bn)
    bn.add_argument("--spec", required=True, help="s,p,r[,hom|inhom] (p, r accept inf)")
    bn.add_argument("--input", required=True, help="field dump (.fqlz)")
    bn.set_defaults(func=cmd_besov_norm)

    kernel = sub.add_parser("kernel", help="decay-kernel inequality verification")
    kernel_sub = kernel.add_subparsers(dest="subcommand", required=True)
    kv = kernel_sub.add_parser("verify", help="evaluate both sides on a time grid")
    common(kv)
    kv.add_argument("--rate", default="1,2", help="a,b of the dissipative rate")
    kv.add_argument("--params", default="0,2,1.5,2,2", help="s,ell,rho,r,alpha")
    kv.add_argument("--times", default="0:1000:25", help="t0:t1:n (geometric, 0 allowed)")
    kv.add_argument("--input", default="gaussian:1.0", help="gaussian[:width] or field dump")
    kv.add_argument("--grid", help="JSON file with grid settings")
    kv.add_argument("--q0", type=int, default=0, help="low/high split block index")
    kv.set_defaults(func=cmd_kernel_verify)

    linear = sub.add_parser("linear", help="linearized mode analysis")
    linear_sub = linear.add_subparsers(dest="subcommand", required=True)
    lg = linear_sub.add_parser("gap", help="constrained spectral gap sweep")
    common(lg)
    lg.add_argument("--xi-range", default="1e-3:1e3:61", help="a:b:n geometric sweep")
    lg.add_argument("--binf", help="background magnetic field bx,by,bz")
    lg.set_defaults(func=cmd_linear_gap)
    ld = linear_sub.add_parser("decay", help="whole-space decay fits (continuum quadrature)")
    common(ld)
    ld.add_argument("--data", default="gaussian", help="gaussian or highpass")
    ld.add_argument("--width", type=float, default=2.5, help="gaussian spectral width")
    ld.add_argument("--cutoff", type=float, default=10.0, help="highpass support edge")
    ld.add_argument("--budget", type=float, default=1.5, help="highpass derivative budget")
    ld.add_argument("--times", help="t0:t1:n sample times")
    ld.add_argument("--orders", default="0,1", help="derivative orders, comma separated")
    ld.add_argument("--window", help="fit window a:b")
    ld.add_argument("--plot", action="store_true", help="emit a plotting script")
    ld.set_defaults(func=cmd_linear_decay)

    nonlinear = sub.add_parser("nonlinear", help="nonlinear pseudospectral experiments")
    nonlinear_sub = nonlinear.add_subparsers(dest="subcommand", required=True)
    nr = nonlinear_sub.add_parser("run", help="decay experiment from a JSON config")
    common(nr)
    nr.add_argument("--config", required=True, help="experiment config JSON")
    nr.add_argument("--dump", action="store_true", help="dump the final state as .fqlz")
    nr.add_argument("--plot", action="store_true", help="emit a plotting script")
    nr.set_defaults(func=cmd_nonlinear_run)

    report = sub.add_parser("report", help="merge run summaries into a comparison table")
    report.add_argument("summaries", nargs="*", help="summary JSON paths")
    report.add_argument("--out", help="output directory")
    report.set_defaults(func=cmd_report)

    return parser


# options whose value is a comma list; argparse would read a value such as
# "-1.5,2,inf,hom" as an option, so it is attached as --spec=-1.5,2,inf,hom
LIST_OPTIONS = ("--spec", "--rate", "--params", "--binf", "--orders")


def _attach_list_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in LIST_OPTIONS and arg.startswith("-") and "," in arg:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (ConfigError, HypothesisError, IncompatibleDataError) as exc:
        print(f"frequalize: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"frequalize: numerical failure: {exc}", file=sys.stderr)
        return 3
    except FrequalizeError as exc:
        print(f"frequalize: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
