"""Config validation, artifact determinism, report merging and the CLI."""

import argparse
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from frequalize.cli import build_parser, main
from frequalize.errors import ConfigError
from frequalize.grid import PhysicalField, TorusGrid
from frequalize.harness import (
    ExperimentConfig,
    csv_text,
    merge_reports,
    write_csv,
    write_json,
)
from frequalize.io import dump_field


BASE_CONFIG = {
    "grid": {"dim": 3, "box_length": 20.0, "points_per_axis": 8},
    "equilibrium": {"n_inf": 1.0, "B_inf": [0, 0, 0], "gamma": 5 / 3, "K": 1.0},
    "init": {"seed": 5, "amplitude": 0.01, "profile": {"xi_width": 0.4}},
    "stepper": {"cfl": 0.5, "dealias": True},
    "experiment": {"T": 4.0, "stride": 2, "fit_window": [0.5, 4.0]},
}


# for each integer key and a valid value of it: a non-integral number and a numeric string
INTEGER_KEYS = {"grid.dim": 3, "grid.points_per_axis": 8, "experiment.stride": 2, "init.seed": 5}
NON_INTEGERS = [(k, v + 0.5) for k, v in INTEGER_KEYS.items()] + [
    (k, str(v)) for k, v in INTEGER_KEYS.items()
]

# for each number key a value that is not a finite number, and the key path its error names
NON_FINITE = [
    ("equilibrium.B_inf", ["a", 0, 0], "equilibrium.B_inf.0"),
    ("equilibrium.B_inf", [float("nan"), 0, 0], "equilibrium.B_inf.0"),
    ("experiment.fit_window", [0.5, "x"], "experiment.fit_window.1"),
    ("experiment.T", float("nan"), "experiment.T"),
    ("stepper.cfl", float("inf"), "stepper.cfl"),
    ("grid.box_length", float("inf"), "grid.box_length"),
    ("experiment.T", 10**400, "experiment.T"),
]


# options whose value is a path or a choice, not numbers
UNCONVERTED_OPTIONS = {"--out", "--config", "--grid", "--input", "--data"}

# for each subcommand and numeric option: a command line giving it a value with an inf entry
INF_VALUES = [
    (["lp", "check", "--seed", "inf"], "--seed"),
    (["lp", "check", "--fields", "inf"], "--fields"),
    (["besov", "norm", "--seed", "inf", "--input", "f.fqlz", "--spec", "1,2,2"], "--seed"),
    (["besov", "norm", "--spec", "inf,2,2", "--input", "f.fqlz"], "--spec"),
    (["kernel", "verify", "--seed", "inf"], "--seed"),
    (["kernel", "verify", "--rate", "inf,2"], "--rate"),
    (["kernel", "verify", "--params", "inf,2,1.5,2,2"], "--params"),
    (["kernel", "verify", "--times", "0:inf:3"], "--times"),
    (["kernel", "verify", "--q0", "inf"], "--q0"),
    (["linear", "gap", "--seed", "inf"], "--seed"),
    (["linear", "gap", "--xi-range", "1e-3:inf:5"], "--xi-range"),
    (["linear", "gap", "--binf", "0,inf,0"], "--binf"),
    (["linear", "decay", "--seed", "inf"], "--seed"),
    (["linear", "decay", "--width", "inf"], "--width"),
    (["linear", "decay", "--cutoff", "inf"], "--cutoff"),
    (["linear", "decay", "--budget", "inf"], "--budget"),
    (["linear", "decay", "--times", "0:inf:5"], "--times"),
    (["linear", "decay", "--orders", "0,inf"], "--orders"),
    (["linear", "decay", "--window", "10:inf"], "--window"),
    (["nonlinear", "run", "--seed", "inf", "--config", "cfg.json"], "--seed"),
]


def value_options(parser: argparse.ArgumentParser, command=()):
    """(subcommand words, action) of every option that takes a value, through all subparsers."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from value_options(sub, command + (name,))
        elif action.option_strings and action.nargs != 0:
            yield command, action


def write_config(tmp_path: Path, overrides=None) -> Path:
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for path, value in (overrides or {}).items():
        node = cfg
        keys = path.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    out = tmp_path / "cfg.json"
    out.write_text(json.dumps(cfg))
    return out


class TestConfig:
    def test_valid(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_config(tmp_path))
        assert cfg.grid.points_per_axis == 8
        assert cfg.seed == 5
        assert cfg.fit_window == (0.5, 4.0)

    def test_missing_key_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": {"dim": 3, "points_per_axis": 8}}))
        with pytest.raises(ConfigError, match="grid.box_length"):
            ExperimentConfig.from_file(path)

    def test_bad_type_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="stepper.dealias"):
            ExperimentConfig.from_file(write_config(tmp_path, {"stepper.dealias": "yes"}))
        with pytest.raises(ConfigError, match="init.amplitude"):
            ExperimentConfig.from_file(write_config(tmp_path, {"init.amplitude": -1.0}))

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("key,value", NON_INTEGERS)
    def test_integer_key_not_truncated(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected an integer"):
            ExperimentConfig.from_file(write_config(tmp_path, {key: value}))

    def test_integral_float_accepted(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_config(tmp_path, {"grid.points_per_axis": 8.0}))
        assert cfg.grid.points_per_axis == 8 and isinstance(cfg.grid.points_per_axis, int)


class TestHarnessHelpers:
    def test_csv_text_deterministic(self):
        rows = [[0.1 + 0.2, 1.0, True], [float("1e-17"), -3.5, False]]
        a = csv_text(["a", "b", "c"], rows)
        b = csv_text(["a", "b", "c"], rows)
        assert a == b
        assert "0.30000000000000004" in a  # shortest round-trip repr

    def test_writers(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", ["a"], [[1.5]])
        assert p.read_text() == "a\n1.5\n"
        q = write_json(tmp_path / "s.json", {"b": np.float64(2.0), "a": [np.int64(1)]})
        assert json.loads(q.read_text()) == {"a": [1], "b": 2.0}


class TestReportMerge:
    def _linear_summary(self, path: Path):
        write_json(
            path,
            {
                "kind": "linear_decay",
                "run_id": "lin1",
                "fits": {
                    "0": {"exponent": -0.74, "target": -0.75, "r_squared": 0.999},
                    "1": {"exponent": -1.27, "target": -1.25, "r_squared": 0.998},
                },
            },
        )

    def _nonlinear_summary(self, path: Path):
        write_json(
            path,
            {
                "kind": "nonlinear_decay",
                "run_id": "nl1",
                "fit": {"exponent": -0.81, "target": -0.75, "r_squared": 0.99},
            },
        )

    def test_mixed_runs_merge(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._linear_summary(a)
        self._nonlinear_summary(b)
        header, rows = merge_reports([a, b])
        assert header[0] == "run_id"
        assert len(rows) == 3
        lin0 = next(r for r in rows if r[0] == "lin1" and r[2] == "0")
        assert lin0[5] == pytest.approx(-0.74 - (-0.75))
        nl = next(r for r in rows if r[0] == "nl1")
        assert nl[5] == pytest.approx(-0.81 - (-0.75))

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            merge_reports([])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            merge_reports([tmp_path / "nope.json"])

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "weird.json"
        write_json(p, {"kind": "mystery"})
        with pytest.raises(ConfigError, match="unknown"):
            merge_reports([p])


class TestCli:
    def test_lp_check_runs(self, tmp_path, capsys):
        code = main(["lp", "check", "--out", str(tmp_path / "lp")])
        assert code == 0
        summary = json.loads((tmp_path / "lp" / "summary.json").read_text())
        assert summary["pou_defect_inhom"] <= 1e-10
        assert 0.75 <= summary["bernstein_min"] <= summary["bernstein_max"] <= 8 / 3

    def test_besov_norm_on_dump(self, tmp_path, capsys):
        grid = TorusGrid(dim=2, box_length=6.0, points_per_axis=16)
        x, y = grid.coordinates
        f = PhysicalField(grid, np.sin(2 * np.pi * x / 6.0) * np.cos(2 * np.pi * y / 6.0))
        dump = tmp_path / "f.fqlz"
        dump_field(f, dump)
        code = main(["besov", "norm", "--spec", "1.5,2,1", "--input", str(dump)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("spec,value,mean_magnitude")

    def test_negative_besov_spec_accepted(self, tmp_path):
        grid = TorusGrid(dim=2, box_length=6.0, points_per_axis=16)
        x, y = grid.coordinates
        dump = tmp_path / "f.fqlz"
        dump_field(PhysicalField(grid, np.sin(2 * np.pi * x / 6.0) * np.cos(2 * np.pi * y / 6.0)), dump)
        out = tmp_path / "bn"
        code = main(["besov", "norm", "--spec", "-1.5,2,inf,hom", "--input", str(dump), "--out", str(out)])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["value"] > 0

    def test_negative_background_field_accepted(self, tmp_path):
        out = tmp_path / "gap"
        code = main(["linear", "gap", "--binf", "-0.5,0,0", "--xi-range", "1e-2:1e2:9", "--out", str(out)])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["B_inf"] == [-0.5, 0.0, 0.0]

    def test_kernel_verify_summary_has_finite_sup_ratio(self, tmp_path):
        grid_cfg = tmp_path / "grid.json"
        grid_cfg.write_text(json.dumps({"dim": 3, "box_length": 32.0, "points_per_axis": 16}))
        out = tmp_path / "kv"
        code = main(
            ["kernel", "verify", "--grid", str(grid_cfg), "--times", "0:100:8",
             "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert math.isfinite(summary["sup_ratio"]) and summary["sup_ratio"] > 0
        assert summary["hypothesis"]["finite_sup_ratio"]

    @pytest.mark.parametrize("bare", [True, False])
    @pytest.mark.parametrize("key,value", [kv for kv in NON_INTEGERS if kv[0].startswith("grid.")])
    def test_grid_file_integer_key_exits_2(self, tmp_path, capsys, bare, key, value):
        block = {"dim": 3, "box_length": 10.0, "points_per_axis": 8, key.split(".")[1]: value}
        grid_cfg = tmp_path / "grid.json"
        grid_cfg.write_text(json.dumps(block if bare else {"grid": block}))
        code = main(["lp", "check", "--grid", str(grid_cfg), "--fields", "1", "--out", str(tmp_path / "lp")])
        assert code == 2
        assert f"error: {key}: expected an integer" in capsys.readouterr().err
        assert not (tmp_path / "lp").exists()

    @pytest.mark.parametrize("argv,option", [
        (["kernel", "verify", "--times", "0:0:5"], "--times"),
        (["linear", "decay", "--orders", "0,x"], "--orders"),
        (["kernel", "verify", "--input", "gaussian:abc"], "--input"),
        (["lp", "check", "--fields", "0"], "--fields"),
        (["linear", "decay", "--data", "highpass", "--cutoff", "0"], "--cutoff"),
        (["linear", "decay", "--data", "highpass", "--cutoff", "-2"], "--cutoff"),
        (["lp", "check", "--seed", "-1"], "--seed"),
        (["linear", "gap", "--xi-range", "1:inf:5"], "--xi-range"),
        (["kernel", "verify", "--rate", "1,nan"], "--rate"),
        (["kernel", "verify", "--rate", "1,inf"], "--rate"),
        (["kernel", "verify", "--params", "0,2,1.5,2,nan"], "--params"),
        (["kernel", "verify", "--input", "gaussian:inf"], "--input"),
        (["kernel", "verify", "--q0", "2000"], "--q0"),
        (["linear", "decay", "--width", "nan"], "--width"),
        (["linear", "decay", "--data", "highpass", "--budget", "nan"], "--budget"),
        (["linear", "gap", "--binf", "inf,0,0"], "--binf"),
        (["linear", "gap", "--binf", "1e308,1e308,0", "--xi-range", "1e-2:1e2:5"], "--binf"),  # |B|^2 overflows
        (["kernel", "verify", "--q0", "1000", "--times", "0:10:3"], "--q0"),  # 2^q0 above the 1e8 grid end
        (["kernel", "verify", "--q0", "27"], "--q0"),
        (["kernel", "verify", "--q0", "-27"], "--q0"),  # 2^q0 below the 1e-8 grid end
        (["kernel", "verify", "--rate", "1,1", "--times", "0:10:3"], "--rate"),  # sigma2 = 0
        (["kernel", "verify", "--rate", "1,0.5"], "--rate"),  # eta grows at high frequency
        (["kernel", "verify", "--rate", "0,2"], "--rate"),
        (["linear", "decay", "--width", "0"], "--width"),
        (["linear", "decay", "--width", "-1"], "--width"),
        (["kernel", "verify", "--input", "gaussian:0"], "--input"),
    ] + INF_VALUES + [
        (["besov", "norm", "--spec", "1,2,2", "--input", "missing.fqlz"], "--input"),
        (["kernel", "verify", "--input", "missing.fqlz"], "--input"),
        (["linear", "gap", "--xi-range", "1e-3:1e3:100000000000"], "--xi-range"),  # 745 GiB of sweep
        (["linear", "decay", "--data", "highpass", "--cutoff", "1e300"], "--cutoff"),  # |xi|^2 overflows
        (["linear", "decay", "--data", "highpass", "--cutoff", "1e-300"], "--cutoff"),  # the data overflow
        (["linear", "decay", "--data", "highpass", "--budget", "-3"], "--budget"),
        (["linear", "decay", "--data", "highpass", "--budget", "0"], "--budget"),
        (["linear", "decay", "--data", "highpass", "--budget", "1e300"], "--budget"),  # the data underflow to 0
        (["linear", "decay", "--width", "1e200"], "--width"),  # the data underflow to 0
        (["linear", "decay", "--data", "highpass", "--orders", "0,200"], "--orders"),  # |xi|^402 overflows
        (["linear", "decay", "--orders", "0,0"], "--orders"),  # a repeated order
    ])
    def test_bad_option_value_exits_2_and_names_it(self, tmp_path, capsys, argv, option):
        assert main(argv + ["--out", str(tmp_path / "run")]) == 2
        assert f"error: {option}:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [["besov", "norm", "--spec", "1,2,2"], ["kernel", "verify"]])
    def test_zero_component_dump_exits_2_and_names_input(self, tmp_path, capsys, command):
        # a well-formed header that declares no components: its empty payload has the expected size
        dump = tmp_path / "empty.fqlz"
        dump.write_bytes(struct.pack("<4sIIIdI4x", b"FQLZ", 1, 2, 16, 6.0, 0))
        assert main(command + ["--input", str(dump), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"error: --input: {dump}: " in err and "zero components" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [["besov", "norm", "--spec", "1,2,2"], ["kernel", "verify"]])
    def test_payload_cut_mid_sample_exits_2_and_names_input(self, tmp_path, capsys, command):
        grid = TorusGrid(dim=2, box_length=6.0, points_per_axis=16)
        dump = tmp_path / "cut.fqlz"
        dump_field(PhysicalField(grid, np.ones(grid.shape)), dump)
        dump.write_bytes(dump.read_bytes()[:-3])
        assert main(command + ["--input", str(dump), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"error: --input: {dump}: payload holds 255 samples and 5 bytes, expected 256" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("length", [math.inf, 1e120, 1e-120, 1e90])
    @pytest.mark.parametrize("command", [["besov", "norm", "--spec=1,2,2"], ["besov", "norm", "--spec=1,3,2"],
                                         ["kernel", "verify"]])
    def test_dump_box_length_out_of_range_exits_2_and_names_it(self, tmp_path, capsys, command, length):
        # no finite normal volume or squared cell volume: the norms would divide by 0, overflow or read 0
        dump = tmp_path / "box.fqlz"
        payload = np.random.default_rng(0).standard_normal(8**3).astype("<f8").tobytes()
        dump.write_bytes(struct.pack("<4sIIIdI4x", b"FQLZ", 1, 3, 8, length, 1) + payload)
        assert main(command + ["--input", str(dump), "--out", str(tmp_path / "run")]) == 2
        assert "error: --input: grid.box_length: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("length", [1e120, 1e-120, 1e90])
    @pytest.mark.parametrize("command", ["lp", "kernel", "nonlinear"])
    def test_grid_box_length_out_of_range_exits_2_and_names_it(self, tmp_path, capsys, command, length):
        grid_cfg = tmp_path / "grid.json"
        grid_cfg.write_text(json.dumps({"dim": 3, "box_length": length, "points_per_axis": 8}))
        argv = {
            "lp": ["lp", "check", "--grid", str(grid_cfg), "--fields", "1"],
            "kernel": ["kernel", "verify", "--grid", str(grid_cfg), "--times", "0:10:3"],
            "nonlinear": ["nonlinear", "run", "--config", str(write_config(tmp_path, {"grid.box_length": length}))],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 2
        assert "error: grid.box_length: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv,option", [
        (["besov", "norm", "--spec=-2000,2,2"], "--spec"),
        (["besov", "norm", "--spec=-2000,3,2"], "--spec"),
        (["kernel", "verify", "--params=0,2,2000,2,2", "--times", "0:10:3"], "--params"),  # 2^(-q rho)
    ])
    def test_overflowing_block_weight_exits_2_and_names_option(self, tmp_path, capsys, argv, option):
        grid = TorusGrid(dim=3, box_length=100.0, points_per_axis=16)
        dump = tmp_path / "f.fqlz"
        dump_field(PhysicalField(grid, np.random.default_rng(0).standard_normal(grid.shape)), dump)
        assert main(argv + ["--input", str(dump), "--out", str(tmp_path / "run")]) == 2
        assert f"error: {option}: the block weight 2^(q s) at regularity s = -2000 passes" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("times,message", [
        ("0:10:3", "the time weight (1+t)^(-(s+rho)/sigma1) at (s + rho)/sigma1 = 1000.75 "
                   "is no normal float at t = 10"),
        ("0:1:3", "the profile sup at power s + rho = 2001.5 passes the float range"),
    ])
    def test_underflowing_time_weight_exits_2_and_names_params(self, tmp_path, capsys, times, message):
        # (1+t)^(-1000.75) underflows to 0 at t = 10, and the low-regime profile sup passes the float range
        # where it does not: each exits 2 naming --params, where a run would write "inf" and 0/0 ratios
        grid = TorusGrid(dim=3, box_length=100.0, points_per_axis=16)
        dump = tmp_path / "f.fqlz"
        dump_field(PhysicalField(grid, np.random.default_rng(0).standard_normal(grid.shape)), dump)
        argv = ["kernel", "verify", "--rate", "1,2", "--params=2000,2,1.5,2,2", "--times", times]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--input", str(dump), "--out", str(tmp_path / "run")]) == 2
        assert f"error: --params: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_every_valued_option_has_a_converter(self):
        untyped = [(" ".join(command), action.option_strings[0])
                   for command, action in value_options(build_parser())
                   if action.type is None and action.option_strings[0] not in UNCONVERTED_OPTIONS]
        assert untyped == []

    def test_inf_cases_cover_every_converted_option(self):
        converted = {(" ".join(command), action.option_strings[0])
                     for command, action in value_options(build_parser()) if action.type is not None}
        assert converted == {(" ".join(argv[:2]), option) for argv, option in INF_VALUES}

    @pytest.mark.parametrize("key,value,error", [
        ("init.profile.band_limit", 0, "init.profile.band_limit: must be positive"),
        ("init.profile.band_limit", -1, "init.profile.band_limit: must be positive"),
        ("equilibrium.gamma", 0.5, "equilibrium.gamma: must be at least 1"),
    ])
    def test_constructor_range_exits_2_and_names_key(self, tmp_path, capsys, key, value, error):
        cfg = write_config(tmp_path, {key: value})
        assert main(["nonlinear", "run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["stepper.dt", "stepper.cfl"])
    def test_step_count_past_max_steps_exits_2_and_names_key(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, {key: 1e-300})
        assert main(["nonlinear", "run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"error: {key}: the run to t=4 needs more than 1000000 steps" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_initial_density_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"init.amplitude": 50})
        assert main(["nonlinear", "run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: total density reached" in err and "(t=0)" in err
        assert not (tmp_path / "run").exists()

    def test_negative_config_seed_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"init.seed": -3})
        assert main(["nonlinear", "run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "error: init.seed: must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_overflowing_config_background_field_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"equilibrium.B_inf": [1e308, 1e308, 0.0]})
        assert main(["nonlinear", "run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "error: equilibrium.B_inf: |B_inf|^2 is not finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value,named", NON_FINITE)
    def test_non_finite_config_number_exits_2_and_names_it(self, tmp_path, capsys, key, value, named):
        cfg = write_config(tmp_path, {key: value})
        assert main(["nonlinear", "run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"error: {named}: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_kernel_hypothesis_violation_exits_2(self, tmp_path):
        code = main(
            ["kernel", "verify", "--params", "0,1,1.5,1,2", "--times", "0:10:5",
             "--out", str(tmp_path / "kv")]
        )
        assert code == 2

    def test_nonlinear_run_and_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["nonlinear", "run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["nonlinear", "run", "--config", str(cfg), "--out", str(out2)]) == 0
        csv1 = (out1 / "nonlinear_run.csv").read_bytes()
        csv2 = (out2 / "nonlinear_run.csv").read_bytes()
        assert csv1 == csv2
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        rep_dir = tmp_path / "rep"
        assert main(["report", str(out1 / "summary.json"), "--out", str(rep_dir)]) == 0
        lines = (rep_dir / "report.csv").read_text().splitlines()
        assert lines[0].startswith("run_id,kind,order,fitted,target,deviation")
        assert len(lines) == 2

    def test_dump_writes_loadable_container(self, tmp_path):
        from frequalize.io import load_field

        cfg = write_config(tmp_path)
        out = tmp_path / "dumprun"
        assert main(["nonlinear", "run", "--config", str(cfg), "--out", str(out), "--dump"]) == 0
        field = load_field(out / "final_state.fqlz")
        assert field.components == 10
        assert field.grid.points_per_axis == 8

    def test_report_without_inputs_exits_2(self):
        assert main(["report"]) == 2

    @pytest.mark.parametrize("summary,error", [
        ({"kind": "nonlinear_decay", "fit": {"r_squared": 0.99}}, "fit.exponent: missing"),
        ({"kind": "linear_decay", "fits": {"0": {"target": -0.75, "r_squared": 0.99}}}, "fits.0.exponent: missing"),
        ({"kind": "linear_decay", "fits": {"1": {"exponent": -1.2, "r_squared": 0.9}}}, "fits.1.target: missing"),
        ({"kind": "nonlinear_decay", "fit": {"exponent": None, "r_squared": 0.9}}, "fit.exponent: expected a finite"),
    ])
    def test_report_on_summary_without_exponent_exits_2(self, tmp_path, capsys, summary, error):
        path = write_json(tmp_path / "summary.json", summary)
        assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == 2
        assert f"error: report: {path}: {error}" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_report_on_non_object_summary_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "summary.json", [{"kind": "nonlinear_decay"}])
        assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == 2
        assert f"error: report: {path}: expected a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": {"dim": 3, "box_length": 10.0}}))
        assert main(["nonlinear", "run", "--config", str(bad)]) == 2

    def test_linear_gap_summary(self, tmp_path):
        code = main(["linear", "gap", "--xi-range", "1e-2:1e2:17", "--out", str(tmp_path / "gap")])
        assert code == 0
        summary = json.loads((tmp_path / "gap" / "summary.json").read_text())
        assert summary["ratio_min"] > 0
        assert math.isfinite(summary["slope_low"])

    def test_plot_script_emission(self, tmp_path):
        out = tmp_path / "ld"
        code = main(
            ["linear", "decay", "--orders", "0", "--times", "1:100:12",
             "--window", "2:100", "--out", str(out), "--plot"]
        )
        assert code == 0
        script = out / "plot_linear_decay.py"
        assert script.exists()
        compile(script.read_text(), str(script), "exec")  # syntactically valid


def test_benchmark_tracer_installs():
    """Every layer the benchmark's traced run wraps is still importable under its name."""
    root = Path(__file__).resolve().parents[1]
    code = "import frequalize, tracing; tracing.install_layer_wrappers(tracing.Recorder())"
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
