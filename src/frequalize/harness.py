"""Experiment orchestration: config parsing, artifact writers, report merging.

All artifacts are flat files: one CSV per run plus a summary JSON.  Float
formatting uses shortest round-trip repr and JSON keys are sorted, so a rerun
with the same seed and config is byte-identical.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .equilibrium import EquilibriumState, PressureLaw
from .errors import ConfigError, prefixed
from .grid import TorusGrid
from .solver import SpectralProfile, StepperConfig

NONLINEAR_TARGET = -0.75


# ---------------------------------------------------------------------------
# configuration


def _get(cfg: dict, path: str, default=None, required: bool = False):
    node = cfg
    walked = []
    for key in path.split("."):
        walked.append(key)
        if isinstance(node, (list, tuple)) and key.isdigit():  # a list entry: equilibrium.B_inf.0
            node = node[int(key)]
            continue
        if not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(walked[:-1])}: expected an object")
        if key not in node:
            if required:
                raise ConfigError(f"{'.'.join(walked)}: missing")
            return default
        node = node[key]
    return node


def _number(cfg: dict, path: str, default=None, required=False, positive=False, integer=False):
    val = _get(cfg, path, default=default, required=required)
    if val is None and not required:
        return None
    if (
        isinstance(val, bool)
        or not isinstance(val, (int, float))
        or not abs(val) <= sys.float_info.max  # NaN, +-inf, and integers too large for a float
        or (integer and not float(val).is_integer())
    ):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{path}: expected {kind}, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(f"{path}: must be positive, got {val}")
    return int(val) if integer else float(val)


def load_json(path: str | Path):
    """Contents of a JSON config file; a missing file or invalid JSON is a ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def parse_grid(raw: dict) -> TorusGrid:
    """The grid block {"grid": {"dim", "box_length", "points_per_axis"}} of a config."""
    return TorusGrid(
        dim=_number(raw, "grid.dim", required=True, integer=True),
        box_length=_number(raw, "grid.box_length", required=True, positive=True),
        points_per_axis=_number(raw, "grid.points_per_axis", required=True, integer=True),
    )


class ExperimentConfig:
    """Validated view of the JSON run configuration."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root: expected a JSON object")
        self.grid = parse_grid(raw)
        b_inf = _get(raw, "equilibrium.B_inf", default=[0.0, 0.0, 0.0])
        if not isinstance(b_inf, (list, tuple)) or len(b_inf) != 3:
            raise ConfigError("equilibrium.B_inf: expected a 3-vector")
        n_inf = _number(raw, "equilibrium.n_inf", default=1.0)
        b_inf = tuple(_number(raw, f"equilibrium.B_inf.{i}", default=0.0) for i in range(3))
        coefficient = _number(raw, "equilibrium.K", default=1.0)
        gamma = _number(raw, "equilibrium.gamma", default=5.0 / 3.0)
        with prefixed("equilibrium."):  # the state and its pressure law own their ranges
            pressure = PressureLaw(coefficient=coefficient, gamma=gamma)
            self.equilibrium = EquilibriumState(n_inf=n_inf, b_inf=b_inf, pressure=pressure)
        self.seed = _number(raw, "init.seed", default=0, integer=True)
        if self.seed < 0:
            raise ConfigError(f"init.seed: must be non-negative, got {self.seed}")
        self.amplitude = _number(raw, "init.amplitude", default=1e-2, positive=True)
        xi_width = _number(raw, "init.profile.xi_width", default=0.3)
        band = _number(raw, "init.profile.band_limit", default=None)
        with prefixed("init.profile."):
            self.profile = SpectralProfile(xi_width=xi_width, band_limit=band)
        dealias = _get(raw, "stepper.dealias", default=True)
        if not isinstance(dealias, bool):
            raise ConfigError(f"stepper.dealias: expected a boolean, got {dealias!r}")
        self.stepper = StepperConfig(
            cfl=_number(raw, "stepper.cfl", default=0.5, positive=True),
            dt=_number(raw, "stepper.dt", default=None, positive=True),
            dealias=dealias,
        )
        self.t_end = _number(raw, "experiment.T", default=100.0, positive=True)
        self.stride = _number(raw, "experiment.stride", default=5, positive=True, integer=True)
        window = _get(raw, "experiment.fit_window", default=[5.0, self.t_end])
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise ConfigError("experiment.fit_window: expected [t1, t2]")
        self.fit_window = tuple(
            _number(raw, f"experiment.fit_window.{i}", default=window[i]) for i in range(2)
        )
        duhamel = _get(raw, "experiment.duhamel", default=False)
        if not isinstance(duhamel, bool):
            raise ConfigError(f"experiment.duhamel: expected a boolean, got {duhamel!r}")
        self.duhamel = duhamel

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls(load_json(path))


# ---------------------------------------------------------------------------
# artifact writers


def format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(csv_text(header, rows))
    return path


def jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def write_json(path: str | Path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n")
    return path


PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Auto-generated plotting helper; expects {csv_name} next to this script.
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(Path(__file__).parent / "{csv_name}")))
t = [float(r["{x}"]) for r in rows]
plt.figure(figsize=(6, 4))
for column in {columns}:
    plt.loglog([1 + v for v in t], [float(r[column]) for r in rows], label=column)
plt.xlabel("1 + t")
plt.legend()
plt.tight_layout()
plt.savefig(Path(__file__).parent / "{png_name}", dpi=150)
"""


def write_plot_script(path: str | Path, csv_name: str, x: str, columns: Sequence[str]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        PLOT_TEMPLATE.format(
            csv_name=csv_name, x=x, columns=list(columns), png_name=path.stem + ".png"
        )
    )
    return path


# ---------------------------------------------------------------------------
# consolidated comparison report


def merge_reports(summary_paths: Sequence[str | Path]) -> tuple[list[str], list[list]]:
    """One row per fitted exponent across runs, with targets and deviations."""
    if not summary_paths:
        raise ConfigError("report: need at least one summary JSON")
    header = ["run_id", "kind", "order", "fitted", "target", "deviation", "r_squared"]
    rows: list[list] = []
    for p in summary_paths:
        path = Path(p)
        if not path.exists():
            raise ConfigError(f"report: {path} does not exist")
        try:
            summary = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"report: {path} is not valid JSON ({exc})") from None
        if not isinstance(summary, dict):
            raise ConfigError(f"report: {path}: expected a JSON object")
        kind = summary.get("kind")
        run_id = summary.get("run_id", path.parent.name or path.stem)
        try:
            if kind == "linear_decay":
                fits = _get(summary, "fits", default={})
                if not isinstance(fits, dict):
                    raise ConfigError("fits: expected an object")
                entries = [(key, f"fits.{key}", None) for key in sorted(fits)]
            elif kind == "nonlinear_decay":
                entries = [("0", "fit", NONLINEAR_TARGET)]
            else:
                raise ConfigError(f"unknown or missing kind {kind!r}")
            for order, where, default_target in entries:
                exponent = _number(summary, f"{where}.exponent", required=True)
                target = _number(
                    summary, f"{where}.target", default=default_target, required=default_target is None
                )
                r_squared = _get(summary, f"{where}.r_squared", required=True)
                rows.append([run_id, kind, order, exponent, target, exponent - target, r_squared])
        except ConfigError as exc:
            raise ConfigError(f"report: {path}: {exc}") from None
    return header, rows
