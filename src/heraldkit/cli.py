"""Config-driven command line: evaluate, optimize, sweep, reproduce-table.

Every run is a pure function of the config file and the seed: outputs
carry no timestamps, floats print with 17 significant digits, and rows
are emitted in a fixed order, so re-runs are byte-identical.

Exit codes: 0 success, 1 config or validation error, 2 numeric failure
(truncation tails, normalization/truncation-quality guards, a NaN or
infinite output value), 3 regression gate failure from
reproduce-table.  Config files are validated before any computation, and
output files are only written once the computation has finished and every
value bound for them is finite, so a failing run leaves no partial outputs.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

import yaml

from . import tolerances as tol
from .errors import (
    ConfigError,
    HeraldkitError,
    NormalizationError,
    TailMassError,
    TruncationQualityError,
)
from .imperfections import sweep_efficiency, sweep_parameter_deviation
from .optimizer import (
    Bounds,
    FixedMask,
    GAConfig,
    layout_for_kind,
    local_polish,
    optimize,
    params_to_vector,
    vector_to_params,
)
from .reference_rows import ReferenceRow, all_rows, designated_rows, get_row
from .scheme import HM, SPD, SPD_LAYOUT, SchemeParams, score
from .states import (
    AdHoc,
    AmplitudeSqueezed,
    Binomial,
    NegativeBinomial,
    Resource,
    SqueezedCoherentParams,
    TargetSpec,
    target_state,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_REPRODUCE = 3


class _NonFiniteOutput(HeraldkitError):
    """A value bound for an output file is NaN or infinite."""


_NUMERIC_ERRORS = (
    _NonFiniteOutput,
    TailMassError,
    TruncationQualityError,
    NormalizationError,
)

TABLE_COLUMNS = (
    "label", "eps",
    "r1", "theta1", "alpha1", "phi1",
    "r2", "theta2", "alpha2", "phi2",
    "T", "x", "lam", "delta", "P", "eps_avg",
)

REPORT_COLUMNS = (
    "row_id", "label", "kind", "eps_raw", "eps_polished", "eps_gate",
    "P", "P_recorded", "eps_avg", "status",
)

SWEEP_COLUMNS = ("sweep_var", "misfit_mean", "misfit_max", "herald_weight")


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise _NonFiniteOutput(f"output value {value!r} is not finite")
    return value


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{_finite(value):.17g}"


# ---------------------------------------------------------------------------
# schema validation


def _as_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(d: dict, path: str, allowed: set[str], required: set[str]) -> None:
    unknown = set(d) - allowed
    if unknown:
        key = sorted(str(k) for k in unknown)[0]
        raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    missing = required - set(d)
    if missing:
        key = sorted(missing)[0]
        raise ConfigError(f"{path}.{key}" if path else key, "required key missing")


def _sub(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(v: Any, path: str) -> float:
    """A finite real config value; YAML's .nan and .inf are refused."""
    if not _is_number(v):
        raise ConfigError(path, f"expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ConfigError(path, f"expected a finite number, got {v!r}")
    return float(v)


def _get_number(d: dict, path: str, key: str, default=None, lo=None, hi=None) -> float:
    if key not in d:
        if default is None:
            raise ConfigError(_sub(path, key), "required key missing")
        return default
    v = _number(d[key], _sub(path, key))
    if lo is not None and v < lo:
        raise ConfigError(_sub(path, key), f"{v} below minimum {lo}")
    if hi is not None and v > hi:
        raise ConfigError(_sub(path, key), f"{v} above maximum {hi}")
    return v


def _get_number_list(d: dict, path: str, key: str) -> list[float]:
    v = d.get(key)
    if not isinstance(v, list) or not all(map(_is_number, v)):
        raise ConfigError(_sub(path, key), "expected a list of numbers")
    return [_number(x, f"{_sub(path, key)}[{i}]") for i, x in enumerate(v)]


def _get_int(d: dict, path: str, key: str, default=None, lo=None) -> int:
    if key not in d:
        if default is None:
            raise ConfigError(_sub(path, key), "required key missing")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(_sub(path, key), f"expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(_sub(path, key), f"{v} below minimum {lo}")
    return v


def _get_bool(d: dict, path: str, key: str, default: bool) -> bool:
    if key not in d:
        return default
    v = d[key]
    if not isinstance(v, bool):
        raise ConfigError(_sub(path, key), f"expected true or false, got {v!r}")
    return v


def _get_str(d: dict, path: str, key: str, choices: tuple[str, ...], default=None) -> str:
    if key not in d:
        if default is None:
            raise ConfigError(_sub(path, key), "required key missing")
        return default
    v = d[key]
    if not isinstance(v, str) or v not in choices:
        raise ConfigError(_sub(path, key), f"expected one of {choices}, got {v!r}")
    return v


def _get_complex(d: dict, path: str, key: str) -> complex:
    """Accept a real number, an [re, im] pair, or a python complex literal."""
    if key not in d:
        raise ConfigError(_sub(path, key), "required key missing")
    v = d[key]
    if isinstance(v, bool):
        raise ConfigError(_sub(path, key), f"expected a number, got {v!r}")
    if isinstance(v, (int, float)):
        z = complex(v)
    elif isinstance(v, str):
        try:
            z = complex(v.replace(" ", ""))
        except ValueError:
            raise ConfigError(_sub(path, key), f"cannot parse {v!r} as complex") from None
    elif isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
        z = complex(v[0], v[1])
    else:
        raise ConfigError(
            _sub(path, key), "expected a number, an [re, im] pair, or a complex literal"
        )
    if not cmath.isfinite(z):
        raise ConfigError(_sub(path, key), f"expected a finite number, got {v!r}")
    return z


def parse_target(d: Any, path: str = "target") -> TargetSpec:
    d = _as_mapping(d, path)
    family = _get_str(
        d, path, "family",
        ("binomial", "negative_binomial", "amplitude_squeezed", "resource", "adhoc"),
    )
    if family == "binomial":
        _check_keys(d, path, {"family", "p", "M"}, {"p", "M"})
        return _construct(
            path, Binomial,
            _get_number(d, path, "p", lo=0.0, hi=1.0), _get_int(d, path, "M", lo=1),
        )
    if family == "negative_binomial":
        _check_keys(d, path, {"family", "eta", "M", "varphi"}, {"eta", "M"})
        eta = _get_number(d, path, "eta", lo=0.0, hi=1.0)
        if eta >= 1.0:
            raise ConfigError(_sub(path, "eta"), "must be strictly below 1")
        return _construct(
            path, NegativeBinomial,
            eta,
            _get_int(d, path, "M", lo=1),
            _get_number(d, path, "varphi", default=0.0),
        )
    if family == "amplitude_squeezed":
        _check_keys(d, path, {"family", "alpha0", "u", "delta"}, {"alpha0", "u", "delta"})
        return _construct(
            path, AmplitudeSqueezed,
            _get_number(d, path, "alpha0", lo=0.0),
            _get_number(d, path, "u", lo=0.0),
            _get_number(d, path, "delta"),
        )
    if family == "resource":
        _check_keys(d, path, {"family", "zeta", "chi_prime"}, {"zeta", "chi_prime"})
        return _construct(
            path, Resource, _get_complex(d, path, "zeta"), _get_complex(d, path, "chi_prime")
        )
    _check_keys(d, path, {"family", "coefficients"}, {"coefficients"})
    coeffs = d["coefficients"]
    if not isinstance(coeffs, list) or not coeffs:
        raise ConfigError(_sub(path, "coefficients"), "expected a non-empty list")
    parsed = []
    for i, c in enumerate(coeffs):
        parsed.append(_get_complex({"c": c}, f"{path}.coefficients[{i}]", "c"))
    return _construct(path, AdHoc, tuple(parsed))


def _construct(path: str, builder, *args):
    """Turn dataclass range violations into config diagnostics."""
    try:
        return builder(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def parse_params(d: Any, kind: str, path: str) -> SchemeParams:
    d = _as_mapping(d, path)
    allowed = set(SPD_LAYOUT)
    required = set(SPD_LAYOUT)
    if kind == "hm":
        allowed |= {"x", "lam", "delta"}
        required |= {"x", "lam"}
    _check_keys(d, path, allowed, required)
    vals = {k: _get_number(d, path, k) for k in SPD_LAYOUT}
    if kind == "hm":
        meas: SPD | HM = _construct(
            path,
            HM,
            _get_number(d, path, "x", lo=0.0, hi=4.0),
            _get_number(d, path, "lam"),
            _get_number(d, path, "delta", default=0.0, lo=0.0),
        )
    else:
        meas = SPD()
    return _construct(
        path,
        SchemeParams,
        _construct(path, SqueezedCoherentParams,
                   vals["r1"], vals["theta1"], vals["alpha1"], vals["phi1"]),
        _construct(path, SqueezedCoherentParams,
                   vals["r2"], vals["theta2"], vals["alpha2"], vals["phi2"]),
        vals["T"],
        meas,
    )


def parse_ga(d: Any, path: str, seed: int) -> GAConfig:
    if d is None:
        return GAConfig(seed=seed)
    d = _as_mapping(d, path)
    fields = {
        "population_size", "generations", "tournament_size", "crossover_rate",
        "mutation_sigma_fraction", "elitism_count", "restarts",
    }
    _check_keys(d, path, fields, set())
    base = GAConfig()
    return GAConfig(
        population_size=_get_int(d, path, "population_size", base.population_size, lo=1),
        generations=_get_int(d, path, "generations", base.generations, lo=1),
        tournament_size=_get_int(d, path, "tournament_size", base.tournament_size, lo=1),
        crossover_rate=_get_number(d, path, "crossover_rate", base.crossover_rate, 0.0, 1.0),
        mutation_sigma_fraction=_get_number(
            d, path, "mutation_sigma_fraction", base.mutation_sigma_fraction, 0.0
        ),
        elitism_count=_get_int(d, path, "elitism_count", base.elitism_count, lo=0),
        restarts=_get_int(d, path, "restarts", base.restarts, lo=1),
        seed=seed,
    )


def parse_mask(d: Any, kind: str, path: str) -> FixedMask:
    if d is None:
        return FixedMask.free(kind)
    d = _as_mapping(d, path)
    names = layout_for_kind(kind)
    _check_keys(d, path, set(names), set())
    pins = {k: _get_number(d, path, k) for k in d}
    return FixedMask.pin(kind, **pins)


def parse_bounds(d: Any, kind: str, path: str) -> Bounds:
    base = Bounds.for_kind(kind)
    if d is None:
        return base
    d = _as_mapping(d, path)
    _check_keys(d, path, set(base.names), set())
    lower = list(base.lower)
    upper = list(base.upper)
    for key, pair in d.items():
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
            raise ConfigError(_sub(path, key), "expected a [lo, hi] pair")
        i = base.names.index(key)
        if base.periodic[i]:
            raise ConfigError(_sub(path, key), "angle bounds are fixed at [0, 2*pi)")
        lower[i], upper[i] = (_number(c, f"{_sub(path, key)}[{j}]") for j, c in enumerate(pair))
    return Bounds(base.names, tuple(lower), tuple(upper), base.periodic)


# ---------------------------------------------------------------------------
# shared helpers


def _fmt_c(value: complex) -> str:
    value = complex(value)
    _finite(value.real)
    _finite(value.imag)
    if value.imag == 0.0:
        return f"{value.real:g}"
    if value.real == 0.0:
        return f"{value.imag:g}j"
    return f"{value.real:g}{value.imag:+g}j"


def target_label(spec: TargetSpec) -> str:
    if isinstance(spec, Binomial):
        return f"B({spec.p:g},{spec.M})"
    if isinstance(spec, NegativeBinomial):
        return f"NB({spec.eta_nb:g},{spec.M},{spec.varphi:g})"
    if isinstance(spec, AmplitudeSqueezed):
        return f"AS({spec.alpha0:g},{spec.u:g},{spec.delta_as:g})"
    if isinstance(spec, Resource):
        return f"RS({_fmt_c(spec.zeta)},{_fmt_c(spec.chi_prime)})"
    terms = ",".join(_fmt_c(c) for c in spec.coefficients)
    return f"adhoc[{terms}]"


def make_table_row(
    label: str, p: SchemeParams, eps: float, prob: float, eps_avg: float | None
) -> list[str]:
    vec, kind, delta = params_to_vector(p)
    point = vec.tolist() + ([delta] if kind == "hm" else [None, None, None])
    return [label] + [_fmt(v) for v in (eps, *point, prob, eps_avg)]


def _write_csv(path: Path, header: tuple[str, ...], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _params_record(p: SchemeParams) -> dict:
    vec, kind, delta = params_to_vector(p)
    rec = dict(zip(layout_for_kind(kind), vec.tolist()))
    if kind == "hm":
        rec["delta"] = delta
    return rec


def _say(quiet: bool, text: str) -> None:
    if not quiet:
        print(text)


# ---------------------------------------------------------------------------
# commands


def cmd_evaluate(cfg: dict, cutoff: int, seed: int, out_dir: Path, quiet: bool) -> int:
    section = _as_mapping(cfg.get("evaluate"), "evaluate")
    _check_keys(section, "evaluate", {"kind", "params", "strict_tails"}, {"kind", "params"})
    kind = _get_str(section, "evaluate", "kind", ("spd", "hm"))
    strict = _get_bool(section, "evaluate", "strict_tails", True)
    params = parse_params(section["params"], kind, "evaluate.params")
    spec = parse_target(cfg.get("target"), "target")

    tgt = target_state(spec, cutoff, check_tail=strict)
    out, eps, prob, eps_avg = score(params, tgt, cutoff, check_input_tail=strict)
    label = target_label(spec)

    row = make_table_row(label, params, eps, prob, eps_avg)
    amp_rows = [
        [str(n), _fmt(float(c.real)), _fmt(float(c.imag))]
        for n, c in enumerate(out.state.amps)
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "row.csv", TABLE_COLUMNS, [row])
    _write_csv(out_dir / "amplitudes.csv", ("n", "re", "im"), amp_rows)
    _say(quiet, f"{label} {kind}: eps {_fmt(eps)}  P {_fmt(prob)}"
         + (f"  eps_avg {_fmt(eps_avg)}" if eps_avg is not None else ""))
    return EXIT_OK


def cmd_optimize(cfg: dict, cutoff: int, seed: int, out_dir: Path, quiet: bool) -> int:
    section = _as_mapping(cfg.get("optimize"), "optimize")
    _check_keys(
        section, "optimize",
        {"kind", "window_halfwidth", "ga", "mask", "bounds", "search_cutoff", "polish_iters"},
        {"kind"},
    )
    kind = _get_str(section, "optimize", "kind", ("spd", "hm"))
    whw = _get_number(section, "optimize", "window_halfwidth", default=0.0, lo=0.0)
    search_cutoff = _get_int(section, "optimize", "search_cutoff", tol.SEARCH_CUTOFF, lo=4)
    polish_iters = _get_int(section, "optimize", "polish_iters", 0, lo=0)
    ga = parse_ga(section.get("ga"), "optimize.ga", seed)
    mask = parse_mask(section.get("mask"), kind, "optimize.mask")
    bounds = parse_bounds(section.get("bounds"), kind, "optimize.bounds")
    spec = parse_target(cfg.get("target"), "target")

    result = optimize(
        spec, kind, bounds=bounds, mask=mask, cfg=ga,
        window_halfwidth=whw, search_cutoff=search_cutoff, final_cutoff=cutoff,
    )
    if polish_iters > 0:
        result = local_polish(result, spec, cutoff, max_iters=polish_iters, mask=mask)

    label = target_label(spec)
    row = make_table_row(
        label, result.best_params, result.best_misfit, result.success_prob, result.eps_avg
    )
    record = {
        "label": label,
        "kind": kind,
        "seed": result.seed,
        "cutoff": cutoff,
        "search_cutoff": search_cutoff,
        "evaluations": result.evaluations_count,
        "best_misfit": result.best_misfit,
        "success_prob": result.success_prob,
        "eps_avg": result.eps_avg,
        "params": _params_record(result.best_params),
        "trace": list(result.trace),
    }
    try:
        text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise _NonFiniteOutput("result.json would hold a value that is not finite") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "row.csv", TABLE_COLUMNS, [row])
    (out_dir / "result.json").write_text(text + "\n")
    _say(quiet, f"{label} {kind}: best misfit {_fmt(result.best_misfit)}  "
         f"P {_fmt(result.success_prob)}  evals {result.evaluations_count}")
    return EXIT_OK


def cmd_sweep(cfg: dict, cutoff: int, seed: int, out_dir: Path, quiet: bool) -> int:
    section = _as_mapping(cfg.get("sweep"), "sweep")
    _check_keys(
        section, "sweep",
        {"mode", "kind", "params", "deviations", "sampling", "n_samples",
         "etas", "which", "strict_tails"},
        {"mode", "kind", "params"},
    )
    mode = _get_str(section, "sweep", "mode", ("deviation", "efficiency"))
    kind = _get_str(section, "sweep", "kind", ("spd", "hm"))
    params = parse_params(section["params"], kind, "sweep.params")
    spec = parse_target(cfg.get("target"), "target")
    tgt = target_state(spec, cutoff, check_tail=False)

    if mode == "deviation":
        devs = _get_number_list(section, "sweep", "deviations")
        sampling = _get_str(
            section, "sweep", "sampling", ("signed_uniform", "worst_case"), "signed_uniform"
        )
        n_samples = _get_int(section, "sweep", "n_samples", 50, lo=1)
        points = sweep_parameter_deviation(
            params, tgt, devs,
            sampling=sampling, n_samples=n_samples, seed=seed, cutoff=cutoff,
        )
    else:
        etas = _get_number_list(section, "sweep", "etas")
        which = _get_str(section, "sweep", "which", ("det", "signal", "both"), "det")
        strict = _get_bool(section, "sweep", "strict_tails", False)
        points = sweep_efficiency(
            params, tgt, etas,
            which=which, cutoff=cutoff, check_input_tail=strict,
        )

    rows = [
        [_fmt(q.sweep_var), _fmt(q.misfit_mean), _fmt(q.misfit_max), _fmt(q.herald_weight)]
        for q in points
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    _say(quiet, f"{mode} sweep: {len(points)} points -> {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _select_rows(selector) -> tuple[ReferenceRow, ...]:
    if selector is None or selector == "designated":
        return designated_rows()
    if selector == "all":
        return all_rows()
    if isinstance(selector, list):
        if not all(isinstance(s, str) for s in selector):
            raise ConfigError("reproduce_table.rows", "expected row id strings")
        try:
            return tuple(get_row(s) for s in selector)
        except KeyError as exc:
            raise ConfigError("reproduce_table.rows", str(exc.args[0])) from None
    raise ConfigError("reproduce_table.rows", "expected 'designated', 'all', or a list of ids")


def _apply_overrides(row: ReferenceRow, overrides: dict, path: str) -> SchemeParams:
    vec, kind, whw = params_to_vector(row.params)
    names = layout_for_kind(kind)
    for key, val in overrides.items():
        if key not in names:
            raise ConfigError(f"{path}.{key}", f"unknown dimension for a {kind} row")
        vec[names.index(key)] = _number(val, f"{path}.{key}")
    return _construct(path, vector_to_params, vec, whw)


def cmd_reproduce_table(cfg: dict, cutoff: int, seed: int, out_dir: Path, quiet: bool) -> int:
    section = cfg.get("reproduce_table")
    if section is None:
        section = {}
    section = _as_mapping(section, "reproduce_table")
    _check_keys(
        section, "reproduce_table",
        {"rows", "polish_iters", "tolerance", "overrides"},
        set(),
    )
    rows = _select_rows(section.get("rows"))
    polish_iters = _get_int(section, "reproduce_table", "polish_iters", 400, lo=0)
    tol_d = section.get("tolerance")
    tol_d = {} if tol_d is None else _as_mapping(tol_d, "reproduce_table.tolerance")
    _check_keys(
        tol_d, "reproduce_table.tolerance",
        {"eps_raw_max", "eps_polish_factor", "p_abs", "eps_avg_max"},
        set(),
    )
    eps_raw_max = _get_number(tol_d, "reproduce_table.tolerance", "eps_raw_max", 5e-2, lo=0.0)
    eps_factor = _get_number(tol_d, "reproduce_table.tolerance", "eps_polish_factor", 10.0, lo=1.0)
    p_abs = _get_number(tol_d, "reproduce_table.tolerance", "p_abs", 0.05, lo=0.0)
    eps_avg_max = _get_number(tol_d, "reproduce_table.tolerance", "eps_avg_max", 1e-2, lo=0.0)
    overrides_d = section.get("overrides")
    overrides_d = {} if overrides_d is None else _as_mapping(overrides_d, "reproduce_table.overrides")
    for key in overrides_d:
        _as_mapping(overrides_d[key], f"reproduce_table.overrides.{key}")

    report: list[list[str]] = []
    lines: list[str] = []
    any_fail = False
    for row in rows:
        params = row.params
        ov = overrides_d.get(row.row_id)
        if ov:
            params = _apply_overrides(row, ov, f"reproduce_table.overrides.{row.row_id}")
        tgt = target_state(row.target, cutoff, check_tail=False)
        _, eps_raw, prob, eps_avg = score(params, tgt, cutoff, check_input_tail=False)

        eps_polished = eps_raw
        if polish_iters > 0:
            vec, kind, _ = params_to_vector(params)
            names = layout_for_kind(kind)
            pins = {n: vec[names.index(n)] for n in row.fixed}
            mask = FixedMask.pin(kind, **pins) if pins else None
            polished = local_polish(params, tgt, cutoff, max_iters=polish_iters, mask=mask)
            eps_polished = polished.best_misfit

        gate = eps_factor * row.eps
        failures = []
        if eps_raw > eps_raw_max:
            failures.append(f"eps_raw {_fmt(eps_raw)} > {_fmt(eps_raw_max)}")
        if eps_polished > gate:
            failures.append(f"eps_polished {_fmt(eps_polished)} > {_fmt(gate)}")
        if abs(prob - row.success_prob) > p_abs:
            failures.append(
                f"P {_fmt(prob)} outside {_fmt(row.success_prob)} +/- {_fmt(p_abs)}"
            )
        if row.kind == "hm" and eps_avg is not None and eps_avg > eps_avg_max:
            failures.append(f"eps_avg {_fmt(eps_avg)} > {_fmt(eps_avg_max)}")

        status = "PASS" if not failures else "FAIL"
        any_fail = any_fail or bool(failures)
        report.append([
            row.row_id, row.label, row.kind,
            _fmt(eps_raw), _fmt(eps_polished), _fmt(gate),
            _fmt(prob), _fmt(row.success_prob), _fmt(eps_avg), status,
        ])
        suffix = "" if not failures else "  [" + "; ".join(failures) + "]"
        lines.append(f"{status} {row.row_id}{suffix}")

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "report.csv", REPORT_COLUMNS, report)
    for line in lines:
        _say(quiet, line)
    _say(quiet, f"{len(rows)} rows, {sum(1 for r in report if r[-1] == 'FAIL')} failures")
    return EXIT_REPRODUCE if any_fail else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError("", f"config file not found: {path}")
    try:
        loaded = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError("", f"cannot parse config: {exc}") from None
    if loaded is None:
        return {}
    return _as_mapping(loaded, "")


_TOP_KEYS = {"target", "cutoff", "seed", "output",
             "evaluate", "optimize", "sweep", "reproduce_table"}

_COMMANDS: dict[str, Callable[[dict, int, int, Path, bool], int]] = {
    "evaluate": cmd_evaluate,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "reproduce-table": cmd_reproduce_table,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldkit",
        description="Conditional state preparation: evaluate, optimize, sweep, reproduce-table.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="YAML experiment config")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--cutoff", type=int, default=None, help="override the config cutoff")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _check_keys(cfg, "", _TOP_KEYS, set())
        cutoff = _get_int(cfg, "", "cutoff", tol.DEFAULT_CUTOFF, lo=4)
        seed = _get_int(cfg, "", "seed", 1)
        if args.cutoff is not None:
            cutoff = _get_int({"--cutoff": args.cutoff}, "", "--cutoff", lo=4)
        if args.seed is not None:
            seed = args.seed
        out_dir = Path(args.out if args.out is not None else cfg.get("output", "."))
        if not isinstance(cfg.get("output", "."), str):
            raise ConfigError("output", "expected a directory path string")
        return _COMMANDS[args.command](cfg, cutoff, seed, out_dir, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HeraldkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, TypeError) as exc:
        # out-of-range values that only surface at compute time
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
