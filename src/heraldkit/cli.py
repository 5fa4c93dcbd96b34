"""Config-driven command line: evaluate, optimize, sweep, reproduce-table.

Every run is a pure function of the config file and the seed: outputs
carry no timestamps, floats print with 17 significant digits, and rows
are emitted in a fixed order, so re-runs are byte-identical.

Exit codes: 0 success, 1 config or validation error, 2 numeric failure
(truncation tails, normalization/truncation-quality guards, a NaN or
infinite output value), 3 regression gate failure from
reproduce-table.  Config files and the output path (an existing one must
be a directory) are validated before any computation, and output files are
only written once the computation has finished and every value bound for
them is finite, so a failing run leaves no partial outputs.
A pin, in optimize.bounds or at a reproduce-table row's fixed dimensions,
is a pair of equal limits, checked as every limit of the search box is.  A
sweep reports the outcome density at x and never reads params.delta.

Each config section has one schema table (key -> kind of value, default,
range) and _read checks a section against it, so a key that the command
would not read is refused: an unknown key, or one that belongs to another
target family, measurement kind or sweep mode than the one chosen.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys
from functools import cache
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
    GAConfig,
    _limits_fault,
    layout_for_kind,
    local_polish,
    optimize,
    params_to_vector,
    vector_to_params,
)
from .reference_rows import ReferenceRow, all_rows, designated_rows, get_row
from .scheme import HM, SPD, SPD_LAYOUT, SchemeParams, _X_RANGE, _interval, score
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


class _RowFailure(HeraldkitError):
    """A numeric failure on one reproduce-table row, named in the message."""


_NUMERIC_ERRORS = (
    _NonFiniteOutput,
    _RowFailure,
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
# schema: one table per config section, read by one reader


_REQUIRED = object()
_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string"}


def _key(kind, default: Any = _REQUIRED, rng: str = "") -> tuple:
    """One entry of a schema table: kind of value, default and range.

    kind is int, bool or str, a checker (value, path) -> value, a tuple of
    the allowed strings, or [kind] for a non-empty list.  A key whose
    default is _REQUIRED must be given.  rng is an interval such as "[0, 1)"
    or "(0, inf)" that a number, or each number of a list, must lie in.
    """
    return kind, default, rng


def _sub(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _mapping(v: Any, path: str) -> dict:
    """A config mapping; an absent (null) one reads as empty."""
    if v is None:
        return {}
    if not isinstance(v, dict):
        raise ConfigError(path, f"expected a mapping, got {type(v).__name__}")
    return v


def _number(v: Any, path: str) -> float:
    """A finite real config value; YAML's .nan and .inf are refused."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ConfigError(path, f"expected a finite number, got {v!r}")
    return float(v)


def _complex(v: Any, path: str) -> complex:
    """Accept a real number, an [re, im] pair, or a python complex literal."""
    if isinstance(v, bool):
        raise ConfigError(path, f"expected a number, got {v!r}")
    if isinstance(v, (int, float)):
        z = complex(v)
    elif isinstance(v, str):
        try:
            z = complex(v.replace(" ", ""))
        except ValueError:
            raise ConfigError(path, f"cannot parse {v!r} as complex") from None
    elif isinstance(v, list) and len(v) == 2:
        z = complex(_number(v[0], path), _number(v[1], path))
    else:
        raise ConfigError(path, "expected a number, an [re, im] pair, or a complex literal")
    if not cmath.isfinite(z):
        raise ConfigError(path, f"expected a finite number, got {v!r}")
    return z


def _select_rows(selector: Any, path: str) -> tuple[ReferenceRow, ...]:
    if selector is None or selector == "designated":
        return designated_rows()
    if selector == "all":
        return all_rows()
    if isinstance(selector, list):
        if not selector:
            raise ConfigError(path, "expected a non-empty list")
        if not all(isinstance(s, str) for s in selector):
            raise ConfigError(path, "expected row id strings")
        try:
            return tuple(get_row(s) for s in selector)
        except KeyError as exc:
            raise ConfigError(path, str(exc.args[0])) from None
    raise ConfigError(path, "expected 'designated', 'all', or a list of ids")


def _check_range(v: float, rng: str, path: str) -> None:
    lo, hi = (float(end) for end in rng[1:-1].split(","))
    if rng[0] == "(" and v <= lo:
        raise ConfigError(path, f"{v} must be above {lo:g}")
    if v < lo:
        raise ConfigError(path, f"{v} below minimum {lo:g}")
    if rng[-1] == ")" and v >= hi:
        raise ConfigError(path, f"{v} must be below {hi:g}")
    if v > hi:
        raise ConfigError(path, f"{v} above maximum {hi:g}")


def _value(v: Any, spec: tuple, path: str) -> Any:
    """One config value checked against the kind and range of its key."""
    kind, default, rng = spec
    if isinstance(kind, list):
        if not isinstance(v, list) or not v:
            raise ConfigError(path, "expected a non-empty list")
        return tuple(_value(x, (kind[0], default, rng), f"{path}[{i}]") for i, x in enumerate(v))
    if isinstance(kind, tuple):
        if v not in kind:
            raise ConfigError(path, f"expected one of {kind}, got {v!r}")
        return v
    if kind in _TYPE_NAMES:
        if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
            raise ConfigError(path, f"expected {_TYPE_NAMES[kind]}, got {v!r}")
    else:
        v = kind(v, path)
    if rng:
        _check_range(v, rng, path)
    return v


def _field(d: dict, key: str, spec: tuple, path: str) -> Any:
    if key in d:
        return _value(d[key], spec, _sub(path, key))
    if spec[1] is _REQUIRED:
        raise ConfigError(_sub(path, key), "required key missing")
    return spec[1]


def _read(d: Any, table: dict | tuple, path: str) -> dict:
    """The values of config mapping d at path, checked against a schema
    table, with defaults filled in.

    A table maps each key to a _key entry.  A section whose shape follows
    a selector key is a (selector, {choice: table}) pair: the selector is
    read first and the chosen branch's table then holds every other key,
    so a key that only another branch reads is refused like any unknown key.
    """
    d = _mapping(d, path)
    if isinstance(table, tuple):
        selector, branches = table
        spec = _key(tuple(branches))
        table = {selector: spec, **branches[_field(d, selector, spec, path)]}
    unknown = sorted(str(k) for k in d if k not in table)
    if unknown:
        raise ConfigError(_sub(path, unknown[0]), "unknown key")
    return {key: _field(d, key, spec, path) for key, spec in table.items()}


_KINDS = ("spd", "hm")

_TOP = {
    "target": _key(_mapping, None),
    "cutoff": _key(int, tol.DEFAULT_CUTOFF, "[4, inf)"),
    "seed": _key(int, 1, "[0, inf)"),
    "output": _key(str, "."),
    "evaluate": _key(_mapping, None),
    "optimize": _key(_mapping, None),
    "sweep": _key(_mapping, None),
    "reproduce_table": _key(_mapping, None),
}

# each family's keys in the order of its spec's fields
_TARGET = ("family", {
    "binomial": {"p": _key(_number, rng="[0, 1]"), "M": _key(int, rng="[1, inf)")},
    "negative_binomial": {
        "eta": _key(_number, rng="[0, 1)"),
        "M": _key(int, rng="[1, inf)"),
        "varphi": _key(_number, 0.0),
    },
    "amplitude_squeezed": {
        "alpha0": _key(_number, rng="(0, inf)"),
        "u": _key(_number, rng="(0, inf)"),
        "delta": _key(_number, rng="[0, inf)"),
    },
    "resource": {"zeta": _key(_complex), "chi_prime": _key(_complex)},
    "adhoc": {"coefficients": _key([_complex])},
})
_FAMILIES = {
    "binomial": Binomial,
    "negative_binomial": NegativeBinomial,
    "amplitude_squeezed": AmplitudeSqueezed,
    "resource": Resource,
    "adhoc": AdHoc,
}

_SPD_PARAMS = {name: _key(_number) for name in SPD_LAYOUT}
_PARAMS = {
    "spd": _SPD_PARAMS,
    "hm": {
        **_SPD_PARAMS,
        "x": _key(_number, rng=_interval(_X_RANGE)),
        "lam": _key(_number),
        "delta": _key(_number, 0.0, "[0, inf)"),
    },
}

_EVALUATE = {
    "kind": _key(_KINDS),
    "params": _key(_mapping),
    "strict_tails": _key(bool, True),
}

_OPTIMIZE_SPD = {
    "search_cutoff": _key(int, tol.SEARCH_CUTOFF, "[4, inf)"),
    "polish_iters": _key(int, 0, "[0, inf)"),
    "ga": _key(_mapping, None),
    "bounds": _key(_mapping, None),
}
_OPTIMIZE = ("kind", {
    "spd": _OPTIMIZE_SPD,
    "hm": {**_OPTIMIZE_SPD, "window_halfwidth": _key(_number, 0.0, "[0, inf)")},
})

_GA = {
    "population_size": _key(int, GAConfig.population_size, "[3, inf)"),  # above 2 elites
    "generations": _key(int, GAConfig.generations, "[1, inf)"),
    "restarts": _key(int, GAConfig.restarts, "[1, inf)"),
}

_SWEEP_POINT = {"kind": _key(_KINDS), "params": _key(_mapping)}
_SWEEP = ("mode", {
    "deviation": {
        **_SWEEP_POINT,
        "deviations": _key([_number], rng="[0, 0.2]"),
        "sampling": _key(("signed_uniform", "worst_case"), "signed_uniform"),
        "n_samples": _key(int, 50, "[1, inf)"),
    },
    "efficiency": {
        **_SWEEP_POINT,
        "etas": _key([_number], rng="[0, 1]"),
        "which": _key(("det", "signal", "both"), "det"),
        "strict_tails": _key(bool, False),
    },
})

_REPRODUCE = {
    "rows": _key(_select_rows, designated_rows()),
    "polish_iters": _key(int, 400, "[0, inf)"),
    "overrides": _key(_mapping, None),
}


def parse_target(d: Any, path: str = "target") -> TargetSpec:
    vals = _read(d, _TARGET, path)
    family = vals.pop("family")
    return _construct(path, _FAMILIES[family], *vals.values())


def _construct(path: str, builder, *args, **kwargs):
    """Turn dataclass range violations into config diagnostics."""
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def parse_params(d: Any, kind: str, path: str) -> SchemeParams:
    v = _read(d, _PARAMS[kind], path)
    meas = _construct(path, HM, v["x"], v["lam"], v["delta"]) if kind == "hm" else SPD()
    return _construct(
        path,
        SchemeParams,
        _construct(path, SqueezedCoherentParams, v["r1"], v["theta1"], v["alpha1"], v["phi1"]),
        _construct(path, SqueezedCoherentParams, v["r2"], v["theta2"], v["alpha2"], v["phi2"]),
        v["T"],
        meas,
    )


def parse_bounds(d: Any, kind: str, path: str) -> Bounds:
    """kind's default box with mapping d's [lo, hi] pairs, checked at path.<dim>."""
    base = Bounds.for_kind(kind)
    pairs = _read(d, {name: _key([_number], None) for name in base.names}, path)
    lower, upper = list(base.lower), list(base.upper)
    for i, (name, pair) in enumerate(pairs.items()):
        if pair is None:
            continue
        if len(pair) != 2:
            raise ConfigError(_sub(path, name), "expected a [lo, hi] pair")
        fault = _limits_fault(name, *pair)
        if fault:
            raise ConfigError(_sub(path, name), fault)
        lower[i], upper[i] = pair
    return Bounds(tuple(lower), tuple(upper))


def _check_fits(spec: TargetSpec, cutoff: int, key: str, path: str = "target") -> None:
    """Refuse a target at config path that does not fit in the cutoff of
    config key: a binomial M above it, or more adhoc coefficients than the
    levels 0..cutoff."""
    if isinstance(spec, Binomial) and spec.M > cutoff:
        raise ConfigError(_sub(path, "M"), f"{spec.M} above {key} {cutoff}")
    if isinstance(spec, AdHoc) and len(spec.coefficients) > cutoff + 1:
        raise ConfigError(
            _sub(path, "coefficients"),
            f"{len(spec.coefficients)} coefficients exceed {key} {cutoff}",
        )


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
    section = _read(cfg["evaluate"], _EVALUATE, "evaluate")
    kind = section["kind"]
    strict = section["strict_tails"]
    params = parse_params(section["params"], kind, "evaluate.params")
    spec = parse_target(cfg["target"])
    _check_fits(spec, cutoff, "cutoff")

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
    section = _read(cfg["optimize"], _OPTIMIZE, "optimize")
    kind = section["kind"]
    ga = _construct("optimize.ga", GAConfig, **_read(section["ga"], _GA, "optimize.ga"),
                    seed=seed)
    bounds = parse_bounds(section["bounds"], kind, "optimize.bounds")
    spec = parse_target(cfg["target"])
    _check_fits(spec, section["search_cutoff"], "optimize.search_cutoff")
    _check_fits(spec, cutoff, "cutoff")

    result = optimize(
        spec, bounds, ga,
        window_halfwidth=section.get("window_halfwidth", 0.0),
        polish_iters=section["polish_iters"],
        search_cutoff=section["search_cutoff"], final_cutoff=cutoff,
    )

    label = target_label(spec)
    row = make_table_row(
        label, result.best_params, result.best_misfit, result.success_prob, result.eps_avg
    )
    record = {
        "label": label,
        "kind": kind,
        "seed": result.seed,
        "cutoff": cutoff,
        "search_cutoff": section["search_cutoff"],
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
    section = _read(cfg["sweep"], _SWEEP, "sweep")
    mode = section["mode"]
    params = parse_params(section["params"], section["kind"], "sweep.params")
    spec = parse_target(cfg["target"])
    _check_fits(spec, cutoff, "cutoff")
    tgt = target_state(spec, cutoff, check_tail=False)

    if mode == "deviation":
        points = sweep_parameter_deviation(
            params, tgt, section["deviations"],
            sampling=section["sampling"], n_samples=section["n_samples"],
            seed=seed, cutoff=cutoff,
        )
    else:
        points = sweep_efficiency(
            params, tgt, section["etas"],
            which=section["which"], cutoff=cutoff, check_input_tail=section["strict_tails"],
        )

    rows = [
        [_fmt(q.sweep_var), _fmt(q.misfit_mean), _fmt(q.misfit_max), _fmt(q.herald_weight)]
        for q in points
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    _say(quiet, f"{mode} sweep: {len(points)} points -> {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _override(row: ReferenceRow, d: Any, path: str) -> SchemeParams:
    """The row's parameters with the dimensions that mapping d sets replaced."""
    table = {name: _key(_number, None) for name in layout_for_kind(row.kind)}
    given = [(i, v) for i, v in enumerate(_read(d, table, path).values()) if v is not None]
    if not given:
        return row.params
    vec, _, whw = params_to_vector(row.params)
    for i, value in given:
        vec[i] = value
    return _construct(path, vector_to_params, vec, whw)


def cmd_reproduce_table(cfg: dict, cutoff: int, seed: int, out_dir: Path, quiet: bool) -> int:
    section = _read(cfg["reproduce_table"], _REPRODUCE, "reproduce_table")
    rows = section["rows"]
    for row in rows:
        _check_fits(row.target, cutoff, "cutoff", _sub("reproduce_table.rows", row.row_id))
    polish_iters = section["polish_iters"]
    path = "reproduce_table.overrides"
    # only the selected rows can be overridden
    table = {row.row_id: _key(_mapping, None) for row in rows}
    overrides = _read(section["overrides"], table, path)
    plan = {}  # row id -> its parameters and, to polish, its box
    for row in rows:
        row_path = _sub(path, row.row_id)
        params = _override(row, overrides[row.row_id], row_path)
        box = None
        if polish_iters > 0:  # the row's fixed dimensions pinned at its own values
            values = dict(zip(layout_for_kind(row.kind), params_to_vector(params)[0].tolist()))
            box = Bounds.for_kind(row.kind)
            for name in row.fixed:
                box = _construct(_sub(row_path, name), box.pin, name, values[name])
        plan[row.row_id] = params, box

    report: list[list[str]] = []
    lines: list[str] = []
    any_fail = False
    for row in rows:
        params, box = plan[row.row_id]
        try:
            tgt = target_state(row.target, cutoff, check_tail=False)
            _, eps_raw, prob, eps_avg = score(params, tgt, cutoff, check_input_tail=False)
            eps_polished = eps_raw
            if box is not None:
                polished = local_polish(params, tgt, cutoff, polish_iters, box)
                eps_polished = polished.best_misfit
        except _NUMERIC_ERRORS as exc:
            raise _RowFailure(f"row {row.row_id}: {exc}") from exc

        gate = tol.EPS_POLISH_FACTOR * row.eps
        failures = []
        if eps_raw > tol.EPS_RAW_MAX:
            failures.append(f"eps_raw {_fmt(eps_raw)} > {_fmt(tol.EPS_RAW_MAX)}")
        if eps_polished > gate:
            failures.append(f"eps_polished {_fmt(eps_polished)} > {_fmt(gate)}")
        if abs(prob - row.success_prob) > tol.P_ABS:
            failures.append(
                f"P {_fmt(prob)} outside {_fmt(row.success_prob)} +/- {_fmt(tol.P_ABS)}"
            )
        if row.kind == "hm" and eps_avg is not None and eps_avg > tol.EPS_AVG_MAX:
            failures.append(f"eps_avg {_fmt(eps_avg)} > {_fmt(tol.EPS_AVG_MAX)}")

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


# libyaml's safe loader where PyYAML was built with it: the same resolver
# as yaml.SafeLoader, so the same values, parsed several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_config(path: str | None) -> Any:
    """The parsed config file, None without one."""
    if path is None:
        return None
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError("", f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError("", f"cannot read config file {path}: {exc.strerror}") from None
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError("", f"cannot parse config: {exc}") from None


_COMMANDS: dict[str, Callable[[dict, int, int, Path, bool], int]] = {
    "evaluate": cmd_evaluate,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "reproduce-table": cmd_reproduce_table,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later main() in the process (parse_args keeps no state in it), so a
    process that runs many commands builds it once."""
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
    args = _parser().parse_args(argv)
    try:
        cfg = _read(_load_config(args.config), _TOP, "")
        cutoff = cfg["cutoff"] if args.cutoff is None else _value(
            args.cutoff, _TOP["cutoff"], "--cutoff"
        )
        seed = cfg["seed"] if args.seed is None else _value(args.seed, _TOP["seed"], "--seed")
        out_dir = Path(cfg["output"] if args.out is None else args.out)
        if out_dir.exists() and not out_dir.is_dir():
            raise ConfigError("output" if args.out is None else "--out",
                              f"{out_dir} exists and is not a directory")
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
