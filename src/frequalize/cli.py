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
    BlockWeightError,
    ConfigError,
    FrequalizeError,
    HypothesisError,
    IncompatibleDataError,
    NumericalError,
    prefixed,
)
from .grid import TorusGrid, gaussian_bump, random_band_limited_field
from .harness import ExperimentConfig, merge_reports, write_csv, write_json, write_plot_script
from .io import dump_field, load_field
from .linear_modes import ContinuumData, gap_sweep, linear_decay_experiment
from .littlewood_paley import bernstein_extremes, partition_defect
from .solver import decay_experiment

MAX_SWEEP_POINTS = 10**5  # largest `linear gap` sweep: one 10x10 eigensolve per point


def _numbers(name: str, sep: str, count: int | None, integer: bool):
    """type= converter of option `name`: `count` entries (None: any number) joined by `sep`.

    Every entry must be a finite number, an integer when `integer` is set.  A
    single-entry option yields the number, the others a tuple; a bad value is
    a ConfigError naming the option.
    """

    def convert(spec: str):
        parts = spec.split(sep)
        if count is not None and len(parts) != count:
            raise ConfigError(f"{name}: expected {count} value(s) separated by {sep!r}, got {spec!r}")
        try:
            values = [int(p) if integer else float(p) for p in parts]
        except ValueError:
            kind = "integers" if integer else "numbers"
            raise ConfigError(f"{name}: expected {kind}, got {spec!r}") from None
        if not integer and not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{name}: expected finite values, got {spec!r}")
        return values[0] if count == 1 else tuple(values)

    return convert


def _times(spec: str) -> np.ndarray:
    """--times t0:t1:n: geometric from t0 > 0, or 0 followed by a geometric tail."""
    t0, t1, n = _numbers("--times", ":", 3, False)(spec)
    if not n.is_integer() or n < 1 or t1 < t0 or t0 < 0 or (n > 1 and t1 <= 0):
        raise ConfigError(f"--times: invalid range {spec!r}")
    if t0 > 0:
        return np.geomspace(t0, t1, int(n))
    if n == 1:
        return np.array([t0])
    tail = np.geomspace(max(t1 * 1e-3, 1e-3), t1, int(n) - 1)
    return np.concatenate([[0.0], tail])


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
    fields = [random_band_limited_field(grid, 1, rng) for _ in range(args.fields)]
    lo, hi = bernstein_extremes(fields)
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
    """--spec s,p,r[,hom|inhom]: finite numbers, except that p and r accept inf."""
    parts = spec.split(",")
    if len(parts) not in (3, 4):
        raise ConfigError(f"--spec: expected s,p,r[,hom|inhom], got {spec!r}")
    number = _numbers("--spec", ",", 1, False)
    s = number(parts[0])
    p, r = (math.inf if x in ("inf", "Inf") else number(x) for x in parts[1:3])
    flag = parts[3] if len(parts) == 4 else "hom"
    if flag not in ("hom", "inhom"):
        raise ConfigError(f"--spec: homogeneity must be hom or inhom, got {flag!r}")
    with prefixed("--spec: "):
        return BesovSpec(s, p, r, flag == "hom")


def _load_input(path: str):
    """The field dumped at --input, its errors named by the option."""
    with prefixed("--input: "):
        return load_field(path)


def cmd_besov_norm(args) -> int:
    spec = args.spec
    # besov_norm holds the only reference, so it frees the samples once their half lattice exists
    with prefixed("--spec: ", BlockWeightError):
        report = besov_norm(_load_input(args.input), spec)
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


def _kernel_input(spec: str, grid: TorusGrid):
    """The field of `kernel verify --input`: gaussian[:width] on grid, or a dumped field."""
    kind, sep, width = spec.partition(":")
    if kind != "gaussian":
        return _load_input(spec)
    width = _numbers("--input", ":", 1, False)(width) if sep else 1.0
    with prefixed("--input: "):
        return gaussian_bump(grid, width)


def cmd_kernel_verify(args) -> int:
    with prefixed("--rate: "):
        rate = DissipRate.from_ab(*args.rate)
    s, ell, rho, r, alpha = args.params
    lo, hi = SPLIT_GRID
    if not math.log2(lo) <= args.q0 <= math.log2(hi):  # compared in logs: 2^q0 may overflow
        raise ConfigError(f"--q0: 2^{args.q0} lies outside the split-constant grid [{lo:g}, {hi:g}]")
    params = DecayParams(s=s, ell=ell, rho=rho, r=r, alpha=alpha, q0=args.q0)
    grid = _load_grid(args.grid, TorusGrid(dim=3, box_length=64.0, points_per_axis=48))
    # verify_inequality holds the only reference, so it frees the samples once their half lattice exists
    with prefixed("--params: ", (BlockWeightError, HypothesisError)):  # DecayParams.check's refusals too
        report = verify_inequality(_kernel_input(args.input, grid), args.times, params, rate)
    scan = tail_divergence_scan(ell, r, rate, t=4.0, n=report.dim, r0=params.r_split)
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
        "hypothesis": report.hypothesis_flags(params),
        "tail_scan": {
            "values": list(scan.values),
            "growth_exponent": scan.growth_exponent,
            "diverging": scan.diverging,
        },
    }
    _emit(args, "kernel_verify", header, rows, summary)
    return 0


def cmd_linear_gap(args) -> int:
    lo, hi, n = args.xi_range
    if lo <= 0 or hi <= lo or n < 2 or not n.is_integer():
        raise ConfigError(f"--xi-range: invalid range {lo:g}:{hi:g}:{n:g}")
    if n > MAX_SWEEP_POINTS:
        raise ConfigError(f"--xi-range: at most {MAX_SWEEP_POINTS} points, got {n:g}")
    with prefixed("--binf: "):
        eq = EquilibriumState(b_inf=args.binf)
    sweep = gap_sweep(np.geomspace(lo, hi, int(n)), eq)
    header = ["xi", "gap", "gap_over_eta0"]
    rows = [list(row) for row in zip(sweep.magnitudes, sweep.gaps, sweep.rate_ratios)]
    summary = {
        "kind": "linear_gap",
        "run_id": "linear_gap",
        "slope_low": sweep.loglog_slope(lo, min(lo * 100.0, hi)),
        "slope_high": sweep.loglog_slope(max(hi / 100.0, lo), hi),
        "ratio_min": float(sweep.rate_ratios.min()),
        "ratio_max": float(sweep.rate_ratios.max()),
        "B_inf": list(eq.b_inf),
    }
    _emit(args, "linear_gap", header, rows, summary)
    return 0


def cmd_linear_decay(args) -> int:
    orders = args.orders
    with prefixed("--"):  # ContinuumData and the experiment name a parameter, which is also the option
        if args.data == "gaussian":
            data = ContinuumData(kind="gaussian", width=args.width)
        else:
            data = ContinuumData(kind="highpass", cutoff=args.cutoff, budget=args.budget)
        exp = linear_decay_experiment(
            EquilibriumState(), data, times=args.times, orders=orders, window=args.window
        )
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
    f, c = result.functionals, result.constraints
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
        dump_field(result.series.final.as_field(), Path(args.out) / "final_state.fqlz")
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
        p.add_argument("--seed", type=_numbers("--seed", ",", 1, True), help="RNG seed override")

    lp = sub.add_parser("lp", help="dyadic partition diagnostics")
    lp_sub = lp.add_subparsers(dest="subcommand", required=True)
    lp_check = lp_sub.add_parser("check", help="partition-of-unity defect and derivative ratios")
    common(lp_check)
    lp_check.add_argument("--grid", help="JSON file with grid settings")
    lp_check.add_argument("--fields", type=_numbers("--fields", ",", 1, True), default=20,
                          help="number of random probe fields")
    lp_check.set_defaults(func=cmd_lp_check)

    besov = sub.add_parser("besov", help="Besov norm evaluation")
    besov_sub = besov.add_subparsers(dest="subcommand", required=True)
    bn = besov_sub.add_parser("norm", help="norm of a dumped field")
    common(bn)
    bn.add_argument("--spec", type=_parse_besov_spec, required=True, help="s,p,r[,hom|inhom] (p, r accept inf)")
    bn.add_argument("--input", required=True, help="field dump (.fqlz)")
    bn.set_defaults(func=cmd_besov_norm)

    kernel = sub.add_parser("kernel", help="decay-kernel inequality verification")
    kernel_sub = kernel.add_subparsers(dest="subcommand", required=True)
    kv = kernel_sub.add_parser("verify", help="evaluate both sides on a time grid")
    common(kv)
    kv.add_argument("--rate", type=_numbers("--rate", ",", 2, False), default="1,2",
                    help="a,b of the dissipative rate")
    kv.add_argument("--params", type=_numbers("--params", ",", 5, False), default="0,2,1.5,2,2",
                    help="s,ell,rho,r,alpha")
    kv.add_argument("--times", type=_times, default="0:1000:25", help="t0:t1:n (geometric, 0 allowed)")
    kv.add_argument("--input", default="gaussian:1.0", help="gaussian[:width] or field dump")
    kv.add_argument("--grid", help="JSON file with grid settings")
    kv.add_argument("--q0", type=_numbers("--q0", ",", 1, True), default=0, help="low/high split block index")
    kv.set_defaults(func=cmd_kernel_verify)

    linear = sub.add_parser("linear", help="linearized mode analysis")
    linear_sub = linear.add_subparsers(dest="subcommand", required=True)
    lg = linear_sub.add_parser("gap", help="constrained spectral gap sweep")
    common(lg)
    lg.add_argument("--xi-range", type=_numbers("--xi-range", ":", 3, False), default="1e-3:1e3:61",
                    help="a:b:n geometric sweep")
    lg.add_argument("--binf", type=_numbers("--binf", ",", 3, False), default="0,0,0",
                    help="background magnetic field bx,by,bz")
    lg.set_defaults(func=cmd_linear_gap)
    ld = linear_sub.add_parser("decay", help="whole-space decay fits (continuum quadrature)")
    common(ld)
    ld.add_argument("--data", choices=("gaussian", "highpass"), default="gaussian")
    ld.add_argument("--width", type=_numbers("--width", ",", 1, False), default=2.5,
                    help="gaussian spectral width")
    ld.add_argument("--cutoff", type=_numbers("--cutoff", ",", 1, False), default=10.0,
                    help="highpass support edge")
    ld.add_argument("--budget", type=_numbers("--budget", ",", 1, False), default=1.5,
                    help="highpass derivative budget")
    ld.add_argument("--times", type=_times, help="t0:t1:n sample times")
    ld.add_argument("--orders", type=_numbers("--orders", ",", None, True), default="0,1",
                    help="derivative orders, comma separated")
    ld.add_argument("--window", type=_numbers("--window", ":", 2, False), help="fit window a:b")
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
    try:  # an option's converter raises ConfigError, argparse's own usage errors SystemExit(2)
        args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else list(argv)))
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
