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
from heraldkit import cli
from heraldkit.cli import main
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command,payload,path", [
    ("reproduce-table",
     {"reproduce_table": {"rows": ["02-binom-0.3-7-spd"], "polish_iters": 0,
                          "tolerance": {"eps_polish_factor": NAN, "p_abs": NAN}}},
     "reproduce_table.tolerance.eps_polish_factor"),
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
], ids=[
    "spd-window", "deviation-etas", "deviation-which", "deviation-strict_tails",
    "efficiency-deviations", "efficiency-sampling", "efficiency-n_samples",
    "eta-above-1", "deviation-above-0.2", "alpha0-zero", "u-zero",
])
def test_option_the_command_would_not_use_or_out_of_range_refused(
    tmp_path, capsys, command, payload, path, message
):
    # each of these was dropped without a word, or refused only at compute
    # time with no config path
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
    ("optimize", {"target": B37, "optimize": {
        "kind": "spd", "ga": dict(TINY_GA, population_size=4, elitism_count=4)}},
     "optimize.ga", "elitism_count=4 must be non-negative and below population_size=4"),
    ("evaluate", {"target": B9, "cutoff": 8, "evaluate": SPD_POINT},
     "target.M", "9 above cutoff 8"),
    ("sweep", {"target": B9, "cutoff": 8, "sweep": DEVIATION},
     "target.M", "9 above cutoff 8"),
    ("optimize", {"target": B9, "cutoff": 12, "optimize": {
        "kind": "spd", "search_cutoff": 8, "ga": TINY_GA}},
     "target.M", "9 above optimize.search_cutoff 8"),
    ("optimize", {"target": B37, "optimize": {
        "kind": "spd", "mask": {"T": 0.95}, "ga": TINY_GA}},
     "optimize.mask.T", "pinned T=0.95 outside [0.1, 0.9]"),
    ("evaluate", {"target": {"family": "adhoc", "coefficients": [1, 0, 0, 0, 0, 0, 1]},
                  "cutoff": 5, "evaluate": SPD_POINT},
     "target.coefficients", "7 coefficients exceed cutoff 5"),
    ("optimize", {"target": {"family": "adhoc", "coefficients": [1, 0, 0, 0, 0, 0, 1]},
                  "cutoff": 12, "optimize": {"kind": "spd", "search_cutoff": 5, "ga": TINY_GA}},
     "target.coefficients", "7 coefficients exceed optimize.search_cutoff 5"),
    ("reproduce-table", {"cutoff": 10, "reproduce_table": {"rows": "all", "polish_iters": 0}},
     "reproduce_table.rows.07-binom-0.4-15-hm.M", "15 above cutoff 10"),
], ids=["elitism", "evaluate-M", "sweep-M", "optimize-search-M", "pin-outside-box",
        "evaluate-adhoc", "optimize-search-adhoc", "table-row-M"])
def test_error_of_two_keys_names_its_config_path(tmp_path, capsys, command, payload, path, message):
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
    # only the polish needs scipy (scipy.optimize, imported inside it)
    assert cli_import_scipy_modules == []


def test_cli_import_leaves_out_scipy_signal(cli_import_scipy_modules):
    # scipy.signal was most of the CLI's import time; nothing needs it
    assert "scipy.signal" not in cli_import_scipy_modules


def test_cli_import_leaves_out_scipy_optimize(cli_import_scipy_modules):
    # only the polish needs scipy.optimize; evaluate and sweep never load it
    assert "scipy.optimize" not in cli_import_scipy_modules


@pytest.mark.parametrize("config,edit", [
    ("evaluate_binomial_hm.yaml", {}),
    ("sweep_efficiency.yaml", {}),
    ("sweep_deviation.yaml", {"deviations": [0.0, 0.05], "n_samples": 3}),
])
def test_commands_without_polish_leave_out_scipy(tmp_path, config, edit):
    cfg = yaml.safe_load((CONFIGS / config).read_text())
    command = "evaluate" if "evaluate" in cfg else "sweep"
    cfg[command].update(edit)
    path = write_config(tmp_path, cfg)
    code = (
        "from heraldkit.cli import main\n"
        f"assert main({[command, '--config', path, '--out', str(tmp_path / 'o'), '--quiet']!r}) == 0"
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


def test_optimize_with_every_dimension_pinned_polishes_nothing(tmp_path):
    # no free dimension leaves no simplex: the start is scored, once
    payload = small_optimize_config()
    payload["optimize"]["mask"] = ROW2_PARAMS
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


def test_reproduce_unknown_row_id(tmp_path, capsys):
    cfg = write_config(tmp_path, {"reproduce_table": {"rows": ["99-nope"]}})
    assert main(["reproduce-table", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 1
    assert "reproduce_table.rows" in capsys.readouterr().err
