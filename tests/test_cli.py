"""Config-driven front end: validation, outputs, exit codes, determinism."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import heraldkit
from heraldkit import cli, imperfections, scheme
from heraldkit.cli import main
from heraldkit.optimizer import Bounds, params_to_vector, vector_to_params
from heraldkit.reference_rows import all_rows
from heraldkit.scheme import (
    SPD,
    SchemeParams,
    Score,
    conditional_output,
    misfit,
    success_prob_hm,
    success_prob_spd,
)
from heraldkit.states import Binomial, SqueezedCoherentParams, target_state

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

ROW2_PARAMS = {
    "r1": 0.74, "theta1": 3.50, "alpha1": 0.10, "phi1": 2.14,
    "r2": 0.16, "theta2": 4.43, "alpha2": 1.97, "phi2": 0.08, "T": 0.69,
}
ROW3_PARAMS = {
    "r1": 0.45, "theta1": 0.74, "alpha1": 0.34, "phi1": 1.01,
    "r2": 0.45, "theta2": 0.28, "alpha2": 1.97, "phi2": 0.06, "T": 0.90,
    "x": 0.61, "lam": 0.04, "delta": 0.30,
}


def write_config(tmp_path: Path, payload: dict, name: str = "cfg.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def api_row2() -> SchemeParams:
    return SchemeParams(
        SqueezedCoherentParams(0.74, 3.50, 0.10, 2.14),
        SqueezedCoherentParams(0.16, 4.43, 1.97, 0.08),
        0.69,
        SPD(),
    )


# ---------------------------------------------------------------- evaluate


def test_evaluate_matches_api(tmp_path):
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "cutoff": 40,
        "evaluate": {"kind": "spd", "params": ROW2_PARAMS},
    })
    out = tmp_path / "out"
    assert main(["evaluate", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    rows = read_rows(out / "row.csv")
    assert len(rows) == 1
    row = rows[0]
    tgt = target_state(Binomial(0.3, 7), 40)
    cond = conditional_output(api_row2(), 40)
    assert float(row["eps"]) == misfit(cond, tgt)
    assert float(row["P"]) == success_prob_spd(api_row2(), 40)
    # HM-only columns stay blank on an SPD row
    assert row["x"] == "" and row["lam"] == "" and row["delta"] == ""
    assert row["eps_avg"] == ""
    assert float(row["T"]) == 0.69

    amp_rows = read_rows(out / "amplitudes.csv")
    assert len(amp_rows) == 41
    amps = np.array([float(r["re"]) + 1j * float(r["im"]) for r in amp_rows])
    np.testing.assert_array_equal(amps, cond.state.amps)


def test_evaluate_hm_row_has_window_columns(tmp_path):
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.45, "M": 8},
        "cutoff": 40,
        "evaluate": {"kind": "hm", "params": ROW3_PARAMS},
    })
    out = tmp_path / "out"
    assert main(["evaluate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    row = read_rows(out / "row.csv")[0]
    assert float(row["x"]) == 0.61
    assert float(row["delta"]) == 0.30
    assert 0.0 < float(row["eps_avg"]) < 1e-2
    assert abs(float(row["P"]) - 0.275) < 0.05


def test_evaluate_self_target_is_exact(tmp_path):
    # feed the scheme's own output back as an ad hoc target
    cond = conditional_output(api_row2(), 40)
    coeffs = [[float(c.real), float(c.imag)] for c in cond.state.amps]
    cfg = write_config(tmp_path, {
        "target": {"family": "adhoc", "coefficients": coeffs},
        "cutoff": 40,
        "evaluate": {"kind": "spd", "params": ROW2_PARAMS},
    })
    out = tmp_path / "out"
    assert main(["evaluate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert float(read_rows(out / "row.csv")[0]["eps"]) <= 1e-12


# -------------------------------------------------------------- validation


@pytest.fixture
def no_compute(monkeypatch):
    """Make every computation the commands start fail the test."""
    for name in ("score", "optimize", "local_polish", "sweep_parameter_deviation",
                 "sweep_efficiency"):
        def computed(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called before the config was refused")
        monkeypatch.setattr(cli, name, computed)


def test_config_path_that_is_a_directory_refused(tmp_path, capsys):
    # was an IsADirectoryError traceback
    assert main(["evaluate", "--config", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {tmp_path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("by_flag", [True, False], ids=["--out", "output"])
def test_output_path_that_is_a_file_refused(tmp_path, capsys, no_compute, by_flag):
    # was a FileExistsError traceback, raised after the whole computation
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    payload = {"target": {"family": "binomial", "p": 0.3, "M": 7},
               "evaluate": {"kind": "spd", "params": ROW2_PARAMS}}
    if not by_flag:
        payload["output"] = str(taken)
    cfg = write_config(tmp_path, payload)
    argv = ["evaluate", "--config", cfg, "--quiet"] + (["--out", str(taken)] if by_flag else [])
    assert main(argv) == 1
    key = "--out" if by_flag else "output"
    assert capsys.readouterr().err == (
        f"config error: {key}: {taken} exists and is not a directory\n"
    )
    assert taken.read_text() == "keep\n"


def test_unknown_key_rejected_with_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "evaluate": {"kind": "spd", "params": ROW2_PARAMS, "partical": True},
    })
    out = tmp_path / "out"
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "evaluate" in err and "partical" in err
    # validation failed before any output was produced
    assert not out.exists()


def test_out_of_range_parameter_rejected(tmp_path, capsys):
    bad = dict(ROW2_PARAMS, T=0.95)
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "evaluate": {"kind": "spd", "params": bad},
    })
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "transmittance" in capsys.readouterr().err


def test_missing_required_section(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
    })
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "evaluate" in capsys.readouterr().err


def test_malformed_yaml_rejected(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("target: {family: binomial\n  p: 0.3\n")
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.yaml")))
def test_bundled_config_parses_the_same_under_both_loaders(config):
    # the CLI parses with libyaml where PyYAML has it; both loaders share
    # one resolver, so every value and its type must come out the same
    text = (CONFIGS / config).read_text()
    fast = yaml.load(text, Loader=cli._YAML_LOADER)
    plain = yaml.load(text, Loader=yaml.SafeLoader)
    assert fast == plain and repr(fast) == repr(plain)


def test_numeric_failure_exit_code(tmp_path, capsys):
    # strict tails at a starved cutoff: the tail-mass guard must trip
    hot = dict(ROW2_PARAMS, r1=1.5, alpha1=3.0)
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "cutoff": 12,
        "evaluate": {"kind": "spd", "params": hot},
    })
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_resource_target_mass_above_cutoff_is_a_numeric_failure(tmp_path, capsys):
    # squeezing at |zeta| = 1.2 pushes the target's mass past cutoff 20
    cfg = write_config(tmp_path, {
        "target": {"family": "resource", "zeta": 1.2, "chi_prime": 0.5},
        "cutoff": 20,
        "evaluate": {"kind": "spd", "params": ROW2_PARAMS},
    })
    out = tmp_path / "o"
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numeric failure:" in err
    assert "above cutoff 20" in err
    assert not out.exists()



def test_window_probability_within_its_rounding_is_a_numeric_failure(tmp_path, capsys):
    # P = 4.4e-16 lies below the window's rounding bound (2 cutoff + 1) eps
    # min(1, 2 delta) = 2.7e-14 at cutoff 60, where eps_avg read 1.00006
    params = {"r1": 0.307, "theta1": 1.35, "alpha1": 3.669, "phi1": 3.747,
              "r2": 0.295, "theta2": 2.248, "alpha2": 1.723, "phi2": 4.442,
              "T": 0.761, "x": 3.232, "lam": 0.757, "delta": 2.0}
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "cutoff": 60,
        "evaluate": {"kind": "hm", "params": params},
    })
    out = tmp_path / "o"
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numeric failure: acceptance window probability 4.44e-16" in err
    assert "rounding bound 2.69e-14" in err
    assert not out.exists()

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command,payload,path", [
    ("optimize",
     {"target": {"family": "binomial", "p": 0.5, "M": 1},
      "optimize": {"kind": "hm", "window_halfwidth": INF}},
     "optimize.window_halfwidth"),
    ("evaluate",
     {"target": {"family": "binomial", "p": 0.45, "M": 8},
      "evaluate": {"kind": "hm", "params": dict(ROW3_PARAMS, lam=INF)}},
     "evaluate.params.lam"),
    ("evaluate",
     {"target": {"family": "resource", "zeta": "nan+0.1j", "chi_prime": 0.5},
      "evaluate": {"kind": "spd", "params": ROW2_PARAMS}},
     "target.zeta"),
    ("optimize",
     {"target": {"family": "binomial", "p": 0.5, "M": 1},
      "optimize": {"kind": "spd", "bounds": {"T": [0.2, INF]}}},
     "optimize.bounds.T[1]"),
    ("sweep",
     {"target": {"family": "binomial", "p": 0.3, "M": 7},
      "sweep": {"mode": "deviation", "kind": "spd", "params": ROW2_PARAMS,
                "deviations": [0.0, NAN]}},
     "sweep.deviations[1]"),
    ("reproduce-table",
     {"reproduce_table": {"rows": ["02-binom-0.3-7-spd"], "polish_iters": 0,
                          "overrides": {"02-binom-0.3-7-spd": {"phi1": NAN}}}},
     "reproduce_table.overrides.02-binom-0.3-7-spd.phi1"),
])
def test_non_finite_config_number_rejected(tmp_path, capsys, command, payload, path):
    # YAML .nan / .inf would switch gates off or fail as a numeric error
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert f"config error: {path}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


B37 = {"family": "binomial", "p": 0.3, "M": 7}
SPD_POINT = {"kind": "spd", "params": ROW2_PARAMS}
DEVIATION = {"mode": "deviation", **SPD_POINT, "deviations": [0.0, 0.02], "n_samples": 2}
EFFICIENCY = {"mode": "efficiency", **SPD_POINT, "etas": [0.9, 1.0]}
TINY_GA = {"population_size": 6, "generations": 1, "restarts": 1}


@pytest.mark.parametrize("command,payload,path,message", [
    ("optimize", {"target": B37, "optimize": {"kind": "spd", "window_halfwidth": 0.3,
                                              "ga": TINY_GA}},
     "optimize.window_halfwidth", "unknown key"),
    ("sweep", {"target": B37, "sweep": dict(DEVIATION, etas=[0.9])},
     "sweep.etas", "unknown key"),
    ("sweep", {"target": B37, "sweep": dict(DEVIATION, which="signal")},
     "sweep.which", "unknown key"),
    ("sweep", {"target": B37, "sweep": dict(DEVIATION, strict_tails=True)},
     "sweep.strict_tails", "unknown key"),
    ("sweep", {"target": B37, "sweep": dict(EFFICIENCY, deviations=[0.3])},
     "sweep.deviations", "unknown key"),
    ("sweep", {"target": B37, "sweep": dict(EFFICIENCY, sampling="worst_case")},
     "sweep.sampling", "unknown key"),
    ("sweep", {"target": B37, "sweep": dict(EFFICIENCY, n_samples=5)},
     "sweep.n_samples", "unknown key"),
    ("sweep", {"target": B37, "sweep": dict(EFFICIENCY, etas=[1.5])},
     "sweep.etas[0]", "1.5 above maximum 1"),
    ("sweep", {"target": B37, "sweep": dict(DEVIATION, deviations=[0.0, 0.5])},
     "sweep.deviations[1]", "0.5 above maximum 0.2"),
    ("evaluate", {"target": {"family": "amplitude_squeezed", "alpha0": 0, "u": 0.5, "delta": 1.0},
                  "evaluate": SPD_POINT},
     "target.alpha0", "0.0 must be above 0"),
    ("evaluate", {"target": {"family": "amplitude_squeezed", "alpha0": 1.0, "u": 0, "delta": 1.0},
                  "evaluate": SPD_POINT},
     "target.u", "0.0 must be above 0"),
    # a search box outside the parameter ranges failed mid-search, or passed
    # when no draw left the ranges (this one did, with this GA)
    ("optimize", {"target": B37, "optimize": {"kind": "spd", "bounds": {"T": [0.05, 0.95]},
                                              "ga": TINY_GA}},
     "optimize.bounds.T", "[0.05, 0.95] outside [0.1, 0.9]"),
    ("optimize", {"target": B37, "optimize": {"kind": "hm", "bounds": {"x": [0, 6]},
                                              "ga": TINY_GA}},
     "optimize.bounds.x", "[0.0, 6.0] outside [0, 4]"),
    ("optimize", {"target": B37, "optimize": {"kind": "spd", "bounds": {"alpha1": [-1, 2]},
                                              "ga": TINY_GA}},
     "optimize.bounds.alpha1", "lower limit -1.0 below 0"),
    ("optimize", {"target": B37, "optimize": {"kind": "spd", "bounds": {"T": [0.7, 0.3]},
                                              "ga": TINY_GA}},
     "optimize.bounds.T", "empty range [0.7, 0.3]"),
    ("optimize", {"target": B37, "optimize": {"kind": "hm", "bounds": {"lam": [0, 1]},
                                              "ga": TINY_GA}},
     "optimize.bounds.lam", "angle bounds are fixed at [0, 2*pi)"),
    # the GA's operators and reproduce-table's gates are fixed
    *[("optimize", {"target": B37, "optimize": {"kind": "spd", "ga": dict(TINY_GA, **{key: 3})}},
       f"optimize.ga.{key}", "unknown key")
      for key in ("tournament_size", "crossover_rate", "mutation_sigma_fraction",
                  "elitism_count")],
    ("reproduce-table", {"reproduce_table": {"rows": ["02-binom-0.3-7-spd"],
                                             "tolerance": {"p_abs": 0.05}}},
     "reproduce_table.tolerance", "unknown key"),
], ids=[
    "spd-window", "deviation-etas", "deviation-which", "deviation-strict_tails",
    "efficiency-deviations", "efficiency-sampling", "efficiency-n_samples",
    "eta-above-1", "deviation-above-0.2", "alpha0-zero", "u-zero",
    "bounds-T", "bounds-x", "bounds-alpha", "bounds-reversed", "bounds-angle",
    "ga-tournament_size", "ga-crossover_rate", "ga-mutation_sigma_fraction",
    "ga-elitism_count", "reproduce-tolerance",
])
def test_option_the_command_would_not_use_or_out_of_range_refused(
    tmp_path, capsys, no_compute, command, payload, path, message
):
    # each of these was dropped without a word, or refused only at compute
    # time with no config path; all are refused before any compute
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert f"config error: {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,payload,path", [
    ("sweep", {"target": B37, "sweep": dict(DEVIATION, deviations=[])}, "sweep.deviations"),
    ("sweep", {"target": B37, "sweep": dict(EFFICIENCY, etas=[])}, "sweep.etas"),
    ("evaluate", {"target": {"family": "adhoc", "coefficients": []}, "evaluate": SPD_POINT},
     "target.coefficients"),
    ("optimize", {"target": B37, "optimize": {"kind": "spd", "bounds": {"T": []},
                                              "ga": TINY_GA}},
     "optimize.bounds.T"),
    ("reproduce-table", {"reproduce_table": {"rows": []}}, "reproduce_table.rows"),
], ids=["deviations", "etas", "adhoc-coefficients", "bounds-pair", "reproduce-rows"])
def test_empty_list_refused(tmp_path, capsys, command, payload, path):
    # an empty sweep grid or row list used to exit 0 with a header-only csv
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error: {path}: expected a non-empty list\n"
    assert not out.exists()


B9 = {"family": "binomial", "p": 0.3, "M": 9}


@pytest.mark.parametrize("command,payload,path,message", [
    # a population must hold the GA's 2 elites and at least one child
    ("optimize", {"target": B37, "optimize": {
        "kind": "spd", "ga": dict(TINY_GA, population_size=2)}},
     "optimize.ga.population_size", "2 below minimum 3"),
    ("evaluate", {"target": B9, "cutoff": 8, "evaluate": SPD_POINT},
     "target.M", "9 above cutoff 8"),
    ("sweep", {"target": B9, "cutoff": 8, "sweep": DEVIATION},
     "target.M", "9 above cutoff 8"),
    ("optimize", {"target": B9, "cutoff": 12, "optimize": {
        "kind": "spd", "search_cutoff": 8, "ga": TINY_GA}},
     "target.M", "9 above optimize.search_cutoff 8"),
    ("optimize", {"target": B37, "optimize": {
        "kind": "spd", "bounds": {"T": [0.95, 0.95]}, "ga": TINY_GA}},
     "optimize.bounds.T", "[0.95, 0.95] outside [0.1, 0.9]"),
    ("evaluate", {"target": {"family": "adhoc", "coefficients": [1, 0, 0, 0, 0, 0, 1]},
                  "cutoff": 5, "evaluate": SPD_POINT},
     "target.coefficients", "7 coefficients exceed cutoff 5"),
    ("optimize", {"target": {"family": "adhoc", "coefficients": [1, 0, 0, 0, 0, 0, 1]},
                  "cutoff": 12, "optimize": {"kind": "spd", "search_cutoff": 5, "ga": TINY_GA}},
     "target.coefficients", "7 coefficients exceed optimize.search_cutoff 5"),
    ("reproduce-table", {"cutoff": 10, "reproduce_table": {"rows": "all", "polish_iters": 0}},
     "reproduce_table.rows.07-binom-0.4-15-hm.M", "15 above cutoff 10"),
    # row 16 holds r1 fixed, so the override is a pin, checked before row 15 runs
    ("reproduce-table", {"reproduce_table": {
        "rows": ["15-negbinom-0.45-10-spd", "16-ampsq-1-0.5-1-spd-pinned"],
        "overrides": {"16-ampsq-1-0.5-1-spd-pinned": {"r1": 25.0}}}},
     "reproduce_table.overrides.16-ampsq-1-0.5-1-spd-pinned.r1",
     "upper limit 25.0 above 19.061547465398494, the largest r whose tanh rounds below 1"),
], ids=["elitism", "evaluate-M", "sweep-M", "optimize-search-M", "pin-outside-box",
        "evaluate-adhoc", "optimize-search-adhoc", "table-row-M", "table-row-pin"])
def test_error_of_two_keys_names_its_config_path(
    tmp_path, capsys, no_compute, command, payload, path, message
):
    # each of these depends on two config values, and was refused with no
    # config path, a wrong one, or the wrong cutoff; all are refused before
    # any compute
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"
    assert not out.exists()


def _doc_key_columns() -> dict[str, set[str]]:
    """Section heading -> the keys named in the first column of its table
    in docs/config_schema.md."""
    keys: dict[str, set[str]] = {}
    heading = None
    for line in (CONFIGS.parent / "docs" / "config_schema.md").read_text().splitlines():
        if line.startswith("## "):
            heading = line[3:]
        elif line.startswith("| ") and not line.startswith(("| key ", "| ---")):
            keys.setdefault(heading, set()).update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return keys


@pytest.mark.parametrize("heading,table", [
    ("Top level", cli._TOP),
    ("`evaluate`", cli._EVALUATE),
    ("`optimize`", cli._OPTIMIZE),
    ("`sweep`", cli._SWEEP),
    ("`reproduce_table`", cli._REPRODUCE),
], ids=["top-level", "evaluate", "optimize", "sweep", "reproduce_table"])
def test_documented_keys_match_schema_tables(heading, table):
    if isinstance(table, tuple):  # a selector and its branches
        selector, branches = table
        schema = {selector}.union(*branches.values())
    else:
        schema = set(table)
    assert _doc_key_columns()[heading] == schema


def _nan_score(p, target, cutoff, check_input_tail=True):
    out = conditional_output(p, cutoff, check_input_tail=False)
    return Score(out, NAN, NAN, None)


@pytest.mark.parametrize("command,payload", [
    ("evaluate",
     {"target": {"family": "binomial", "p": 0.3, "M": 7},
      "evaluate": {"kind": "spd", "params": ROW2_PARAMS}}),
    ("reproduce-table",
     {"reproduce_table": {"rows": ["02-binom-0.3-7-spd"], "polish_iters": 0}}),
])
def test_non_finite_output_is_a_numeric_failure(tmp_path, capsys, monkeypatch, command, payload):
    monkeypatch.setattr(cli, "score", _nan_score)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "numeric failure: output value nan is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_trace_blocks_result_json(tmp_path, capsys, monkeypatch):
    # the trace goes only into result.json, which must not be written either
    real = cli.optimize

    def nan_trace(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), trace=(0.5, NAN))

    monkeypatch.setattr(cli, "optimize", nan_trace)
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.5, "M": 1},
        "optimize": {"kind": "spd",
                     "ga": {"population_size": 6, "generations": 1, "restarts": 1}},
    })
    out = tmp_path / "o"
    assert main(["optimize", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "numeric failure: result.json" in capsys.readouterr().err
    assert not out.exists()


def test_cutoff_override_below_minimum_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.5, "M": 1},
        "evaluate": {"kind": "spd", "params": ROW2_PARAMS},
    })
    out = tmp_path / "o"
    assert main(["evaluate", "--config", cfg, "--out", str(out), "--cutoff", "3"]) == 1
    assert "--cutoff: 3 below minimum 4" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_at_minimum_cutoff_keeps_strict_tails(tmp_path):
    # the tail window at cutoff 4 is levels 1..4, so vacuum inputs and a
    # two-level target pass the default strict_tails
    vacuum = {"r1": 0.0, "theta1": 0.0, "alpha1": 0.0, "phi1": 0.0,
              "r2": 0.0, "theta2": 0.0, "alpha2": 0.0, "phi2": 0.0, "T": 0.5,
              "x": 0.5, "lam": 0.0, "delta": 0.3}
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.5, "M": 1},
        "evaluate": {"kind": "hm", "params": vacuum},
    })
    out = tmp_path / "o"
    assert main(["evaluate", "--config", cfg, "--out", str(out), "--quiet",
                 "--cutoff", "4"]) == 0
    assert float(read_rows(out / "row.csv")[0]["eps"]) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("command,payload", [
    ("optimize", {"target": B37, "optimize": {"kind": "spd", "ga": TINY_GA}}),
    ("sweep", {"target": B37, "sweep": DEVIATION}),
], ids=["optimize", "sweep"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_refused(tmp_path, capsys, command, payload, where):
    # numpy used to refuse it at compute time, with no config path
    in_config = where == "config"
    cfg = write_config(tmp_path, dict(payload, seed=-1) if in_config else payload)
    out = tmp_path / "o"
    flag = [] if in_config else ["--seed", "-1"]
    assert main([command, "--config", cfg, "--out", str(out), "--quiet", *flag]) == 1
    path = "seed" if in_config else "--seed"
    assert capsys.readouterr().err == f"config error: {path}: -1 below minimum 0\n"
    assert not out.exists()


def test_evaluate_spd_high_cutoff_is_finite(tmp_path):
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "evaluate": {"kind": "spd", "params": ROW2_PARAMS},
    })
    rows = {}
    for cutoff in (100, 200):
        out = tmp_path / f"c{cutoff}"
        assert main(["evaluate", "--config", cfg, "--out", str(out), "--quiet",
                     "--cutoff", str(cutoff)]) == 0
        rows[cutoff] = read_rows(out / "row.csv")[0]
        amps = read_rows(out / "amplitudes.csv")
        assert len(amps) == cutoff + 1
        values = [float(v) for r in amps for v in (r["re"], r["im"])]
        values += [float(v) for k, v in rows[cutoff].items() if k != "label" and v != ""]
        assert np.all(np.isfinite(values))
    assert float(rows[200]["P"]) == pytest.approx(float(rows[100]["P"]), abs=1e-8)


HIGH_CUTOFF_HM_PARAMS = {
    "r1": 1.06069, "theta1": 0.276096, "alpha1": 0.142721, "phi1": 3.235142,
    "r2": 0.81924, "theta2": 5.762735, "alpha2": 2.516905, "phi2": 3.230296,
    "T": 0.497499, "x": 0.99006, "lam": 0.074066, "delta": 0.3,
}


def test_evaluate_hm_window_at_cutoff_110_is_converged(tmp_path):
    # with its input tails checked, this point once exited 0 with P = 45.3
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.45, "M": 8},
        "evaluate": {"kind": "hm", "params": HIGH_CUTOFF_HM_PARAMS},
    })
    out = tmp_path / "o"
    assert main(["evaluate", "--config", cfg, "--out", str(out), "--quiet",
                 "--cutoff", "110"]) == 0
    want = success_prob_hm(cli.parse_params(HIGH_CUTOFF_HM_PARAMS, "hm", "params"), 90)
    assert float(read_rows(out / "row.csv")[0]["P"]) == pytest.approx(want, abs=1e-8)


def _scipy_modules_after(code: str) -> list[str]:
    """Run code in a fresh interpreter on this source tree; the scipy
    modules loaded by then."""
    src = str(Path(heraldkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import json, sys\n" + code + (
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def cli_import_scipy_modules():
    return _scipy_modules_after("import heraldkit.cli")


def test_cli_import_leaves_out_scipy(cli_import_scipy_modules):
    # nothing the package runs imports scipy
    assert cli_import_scipy_modules == []


def test_cli_import_leaves_out_scipy_signal(cli_import_scipy_modules):
    # scipy.signal was most of the CLI's import time; nothing needs it
    assert "scipy.signal" not in cli_import_scipy_modules


def test_cli_import_leaves_out_scipy_optimize(cli_import_scipy_modules):
    # the polish runs its own descent; no command loads scipy.optimize
    assert "scipy.optimize" not in cli_import_scipy_modules


@pytest.mark.parametrize("config,edit", [
    ("evaluate_binomial_hm.yaml", {}),
    ("sweep_efficiency.yaml", {}),
    ("sweep_deviation.yaml", {"deviations": [0.0, 0.05], "n_samples": 3}),
    ("optimize_binomial_hm.yaml", {}),  # polish_iters 200
    ("reproduce_designated.yaml", {}),  # polish_iters 400
])
def test_commands_leave_out_scipy(tmp_path, config, edit):
    cfg = yaml.safe_load((CONFIGS / config).read_text())
    command = next(c for c in ("evaluate", "optimize", "sweep", "reproduce_table") if c in cfg)
    cfg[command].update(edit)
    path = write_config(tmp_path, cfg)
    code = (
        "from heraldkit.cli import main\n"
        f"assert main({[command.replace('_', '-'), '--config', path, '--out', str(tmp_path / 'o'), '--quiet']!r}) == 0"
    )
    assert _scipy_modules_after(code) == []
    assert any((tmp_path / "o").iterdir())


def test_successive_mains_match_separate_processes(tmp_path):
    # main builds its parser once per process; two commands in one process
    # must write what each writes in a process of its own
    runs = [
        ("evaluate", CONFIGS / "evaluate_binomial_spd.yaml", "row.csv"),
        ("sweep", CONFIGS / "sweep_efficiency.yaml", "sweep.csv"),
    ]
    src = str(Path(heraldkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command, config, name in runs:
        alone = tmp_path / f"{command}.alone"
        subprocess.run([sys.executable, "-m", "heraldkit.cli", command, "--config",
                        str(config), "--out", str(alone), "--quiet"], env=env, check=True)
        together = tmp_path / f"{command}.together"
        assert main([command, "--config", str(config), "--out", str(together), "--quiet"]) == 0
        assert (together / name).read_bytes() == (alone / name).read_bytes()


def test_quiet_flag_suppresses_chatter(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "cutoff": 40,
        "evaluate": {"kind": "spd", "params": ROW2_PARAMS},
    })
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""


# ------------------------------------------------------------------ sweeps


def test_sweep_deviation_zero_point_matches_ideal(tmp_path):
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "cutoff": 30,
        "seed": 7,
        "sweep": {
            "mode": "deviation", "kind": "spd", "params": ROW2_PARAMS,
            "deviations": [0.0, 0.02], "n_samples": 5,
        },
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [float(r["sweep_var"]) for r in rows] == [0.0, 0.02]
    tgt = target_state(Binomial(0.3, 7), 30)
    ideal = misfit(conditional_output(api_row2(), 30, check_input_tail=False), tgt)
    assert float(rows[0]["misfit_mean"]) == ideal
    assert float(rows[0]["misfit_max"]) == ideal


def test_sweep_efficiency_unit_endpoint(tmp_path):
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "cutoff": 30,
        "sweep": {
            "mode": "efficiency", "kind": "spd", "params": ROW2_PARAMS,
            "etas": [0.9, 1.0], "which": "det",
        },
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = read_rows(out / "sweep.csv")
    tgt = target_state(Binomial(0.3, 7), 30)
    ideal = misfit(conditional_output(api_row2(), 30, check_input_tail=False), tgt)
    assert abs(float(rows[-1]["misfit_mean"]) - ideal) <= 1e-12
    assert float(rows[0]["misfit_mean"]) > float(rows[-1]["misfit_mean"])


def test_sweep_reports_the_density_at_x_whatever_the_window(tmp_path):
    # a sweep accepts an HM point's delta and never reads it: no window is
    # integrated, and the herald weight is the outcome density at x
    for mode in (DEVIATION, EFFICIENCY):
        outs = []
        for delta in (0.0, 0.2, 9.0):
            name = f"{mode['mode']}-{delta}"
            cfg = write_config(tmp_path, {
                "target": {"family": "binomial", "p": 0.45, "M": 8}, "cutoff": 30,
                "sweep": dict(mode, kind="hm", params=dict(ROW3_PARAMS, delta=delta)),
            }, f"{name}.yaml")
            outs.append(tmp_path / name / "sweep.csv")
            assert main(["sweep", "--config", cfg, "--out", str(outs[-1].parent),
                         "--quiet"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    at_x = vector_to_params([ROW3_PARAMS[name] for name in scheme.HM_LAYOUT])
    level_0 = read_rows(tmp_path / "deviation-9.0" / "sweep.csv")[0]
    assert float(level_0["herald_weight"]) == conditional_output(
        at_x, 30, check_input_tail=False).raw_weight


def efficiency_sweep_rows(tmp_path, which: str, etas: list[float]) -> list[dict]:
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "cutoff": 30,
        "sweep": {
            "mode": "efficiency", "kind": "spd", "params": ROW2_PARAMS,
            "etas": etas, "which": which,
        },
    }, f"{which}.yaml")
    out = tmp_path / which
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    return read_rows(out / "sweep.csv")


def test_sweep_efficiency_signal_path(tmp_path):
    # loss after conditioning: the herald weight is the ideal one at every
    # eta, and the state is the loss channel of the ideal state
    etas = [0.7, 0.85, 1.0]
    rows = efficiency_sweep_rows(tmp_path, "signal", etas)
    tgt = target_state(Binomial(0.3, 7), 30)
    ideal = conditional_output(api_row2(), 30, check_input_tail=False)
    weight = success_prob_spd(api_row2(), 30, check_input_tail=False)
    assert [float(r["sweep_var"]) for r in rows] == etas
    for row, eta in zip(rows, etas):
        assert float(row["herald_weight"]) == weight
        eps = misfit(imperfections.loss_channel(ideal.state, eta), tgt)
        assert float(row["misfit_mean"]) == eps
        assert float(row["misfit_max"]) == eps


def test_sweep_efficiency_both_paths(tmp_path):
    # signal loss leaves the herald weight of detector loss unchanged and
    # only degrades the state further
    etas = [0.8, 0.9]
    both = efficiency_sweep_rows(tmp_path, "both", etas)
    det = efficiency_sweep_rows(tmp_path, "det", etas)
    assert [float(r["sweep_var"]) for r in both] == etas
    for b, d, eta in zip(both, det, etas):
        assert b["herald_weight"] == d["herald_weight"]
        assert float(b["misfit_mean"]) > float(d["misfit_mean"])
        rho, _ = imperfections.conditional_output_lossy(
            api_row2(), imperfections.ImperfectionSpec(eta, eta), 30, check_input_tail=False
        )
        assert float(b["misfit_mean"]) == misfit(rho, target_state(Binomial(0.3, 7), 30))


# ---------------------------------------------------------------- optimize


def small_optimize_config() -> dict:
    return {
        "target": {"family": "binomial", "p": 0.5, "M": 2},
        "cutoff": 12,
        "seed": 3,
        "optimize": {
            "kind": "spd",
            "search_cutoff": 12,
            "polish_iters": 40,
            "ga": {"population_size": 12, "generations": 6, "restarts": 1},
        },
    }


def test_optimize_outputs_and_seed_override(tmp_path):
    cfg = write_config(tmp_path, small_optimize_config())
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    record = json.loads((out / "result.json").read_text())
    assert record["seed"] == 3
    assert record["evaluations"] > 0
    trace = record["trace"]
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    row = read_rows(out / "row.csv")[0]
    assert float(row["eps"]) == record["best_misfit"]

    out2 = tmp_path / "out2"
    assert main(["optimize", "--config", cfg, "--out", str(out2), "--seed", "5",
                 "--quiet"]) == 0
    assert json.loads((out2 / "result.json").read_text())["seed"] == 5


def test_configured_bounds_bind_the_polish(tmp_path):
    # the box binds the search and the polish alike: with r1 and r2 held to
    # [0, 0.05] the polish used to leave it (r1 0.157, r2 0.116)
    cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "cutoff": 30,
        "seed": 3,
        "optimize": {
            "kind": "spd",
            "search_cutoff": 12,
            "polish_iters": 300,
            "ga": {"population_size": 30, "generations": 20, "restarts": 1},
            "bounds": {"r1": [0, 0.05], "r2": [0, 0.05]},
        },
    })
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    params = json.loads((out / "result.json").read_text())["params"]
    assert 0.0 <= params["r1"] <= 0.05
    assert 0.0 <= params["r2"] <= 0.05


def test_optimize_mask_refused(tmp_path, capsys):
    # a pin is a pair of equal limits in bounds; there is no second route to one
    payload = small_optimize_config()
    payload["optimize"]["mask"] = {"T": 0.69}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["optimize", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "config error: optimize.mask: unknown key\n"
    assert not out.exists()


@pytest.mark.parametrize("name,pair,reported", [
    ("T", [0.69, 0.69], 0.69),
    ("theta1", [7.0, 7.0], 0.7168146928204138),  # any finite angle, reported wrapped
])
def test_equal_bound_limits_pin_the_dimension(tmp_path, name, pair, reported):
    payload = small_optimize_config()
    payload["optimize"]["bounds"] = {name: pair}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["optimize", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "result.json").read_text())["params"][name] == reported


def test_optimize_with_every_dimension_pinned_polishes_nothing(tmp_path):
    # no free dimension leaves nothing to descend: the start is scored, once
    payload = small_optimize_config()
    payload["optimize"]["bounds"] = {name: [v, v] for name, v in ROW2_PARAMS.items()}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    record = json.loads((out / "result.json").read_text())
    assert record["params"] == ROW2_PARAMS
    ga = payload["optimize"]["ga"]
    searched = ga["population_size"] + ga["generations"] * (ga["population_size"] - 2)
    assert record["evaluations"] == searched + 1
    params = SchemeParams(*(SqueezedCoherentParams(*(ROW2_PARAMS[f"{k}{i}"] for k in (
        "r", "theta", "alpha", "phi"))) for i in (1, 2)), ROW2_PARAMS["T"], SPD())
    want = misfit(conditional_output(params, 12, check_input_tail=False),
                  target_state(Binomial(0.5, 2), 12))
    assert record["best_misfit"] == want


def test_optimize_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, small_optimize_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--config", cfg, "--out", str(out_a), "--quiet"]) == 0
    assert main(["optimize", "--config", cfg, "--out", str(out_b), "--quiet"]) == 0
    for name in ("row.csv", "result.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_evaluate_and_sweep_reruns_byte_identical(tmp_path):
    eval_cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "cutoff": 30,
        "evaluate": {"kind": "spd", "params": ROW2_PARAMS, "strict_tails": False},
    }, "eval.yaml")
    sweep_cfg = write_config(tmp_path, {
        "target": {"family": "binomial", "p": 0.3, "M": 7},
        "cutoff": 30,
        "seed": 11,
        "sweep": {
            "mode": "deviation", "kind": "spd", "params": ROW2_PARAMS,
            "deviations": [0.0, 0.05], "n_samples": 4,
        },
    }, "sweep.yaml")
    pairs = [
        ("evaluate", eval_cfg, "row.csv"),
        ("evaluate", eval_cfg, "amplitudes.csv"),
        ("sweep", sweep_cfg, "sweep.csv"),
    ]
    for command, cfg, name in pairs:
        out_a, out_b = tmp_path / f"{name}.a", tmp_path / f"{name}.b"
        assert main([command, "--config", cfg, "--out", str(out_a), "--quiet"]) == 0
        assert main([command, "--config", cfg, "--out", str(out_b), "--quiet"]) == 0
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------- reproduce-table


def test_reproduce_subset_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "reproduce_table": {
            "rows": ["02-binom-0.3-7-spd", "17-ampsq-1-0.5-1-spd"],
            "polish_iters": 300,
        },
    })
    out = tmp_path / "out"
    assert main(["reproduce-table", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS 02-binom-0.3-7-spd" in text
    assert "PASS 17-ampsq-1-0.5-1-spd" in text
    report = read_rows(out / "report.csv")
    assert [r["status"] for r in report] == ["PASS", "PASS"]


def test_reproduce_scores_each_row_once(tmp_path, monkeypatch):
    # the row's figures come from one score; the polish reads only its
    # start and end misfits and builds no window
    calls = {"_hm_window": 0, "_herald": 0}
    for name in calls:
        def counted(*args, _fn=getattr(scheme, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scheme, name, counted)
    cfg = write_config(tmp_path, {
        "reproduce_table": {"rows": ["03-binom-0.45-8-hm"], "polish_iters": 5},
    })
    assert main(["reproduce-table", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    assert calls == {"_hm_window": 1, "_herald": 3}


def test_reproduce_corrupted_row_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "reproduce_table": {
            "rows": ["02-binom-0.3-7-spd"],
            "polish_iters": 0,
            "overrides": {"02-binom-0.3-7-spd": {"T": 0.2}},
        },
    })
    out = tmp_path / "out"
    assert main(["reproduce-table", "--config", cfg, "--out", str(out)]) == 3
    assert "FAIL 02-binom-0.3-7-spd" in capsys.readouterr().out
    assert read_rows(out / "report.csv")[0]["status"] == "FAIL"


def test_reproduce_overflowing_squeezing_is_a_numeric_failure(tmp_path, capsys):
    # cosh r overflows at r = 800: the scoring names the row and the input,
    # with no numpy warning, and the polish lets no OverflowError escape
    cfg = write_config(tmp_path, {
        "reproduce_table": {
            "rows": ["02-binom-0.3-7-spd"],
            "polish_iters": 400,
            "overrides": {"02-binom-0.3-7-spd": {"r1": 800.0}},
        },
    })
    assert main(["reproduce-table", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "numeric failure: row 02-binom-0.3-7-spd: input r=800," in err
    assert "is not finite" in err and "RuntimeWarning" not in err


def test_reproduce_pins_each_rows_fixed_dimensions(tmp_path, monkeypatch):
    # each row's box is the default one with its fixed dimensions pinned at
    # the row's own values, overrides included
    boxes = []
    polish = cli.local_polish
    def recorded(params, target, cutoff, max_iters, bounds):
        boxes.append(bounds)
        return polish(params, target, cutoff, max_iters, bounds)
    monkeypatch.setattr(cli, "local_polish", recorded)
    overrides = {"16-ampsq-1-0.5-1-spd-pinned": {"r1": 2.0}}
    cfg = write_config(tmp_path, {"cutoff": 40, "reproduce_table": {
        "rows": "all", "polish_iters": 1, "overrides": overrides}})
    assert main(["reproduce-table", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    rows = all_rows()
    assert len(boxes) == len(rows) and sum(1 for row in rows if row.fixed) == 13
    for row, box in zip(rows, boxes):
        vec, kind, _ = params_to_vector(cli._override(row, overrides.get(row.row_id), ""))
        want = Bounds.for_kind(kind)
        lower, upper = list(want.lower), list(want.upper)
        for i, name in enumerate(want.names):
            if name in row.fixed:
                lower[i] = upper[i] = float(vec[i])
        assert (box.lower, box.upper) == (tuple(lower), tuple(upper))
        if row.row_id in overrides:
            assert box.lower[0] == box.upper[0] == 2.0


def test_reproduce_unknown_row_id(tmp_path, capsys):
    cfg = write_config(tmp_path, {"reproduce_table": {"rows": ["99-nope"]}})
    assert main(["reproduce-table", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 1
    assert "reproduce_table.rows" in capsys.readouterr().err
