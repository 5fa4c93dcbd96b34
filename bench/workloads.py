"""One benchmark workload, run in this process: `python3 bench/workloads.py`.

`run.py` starts this file as a child process with the thread count pinned
in its environment.  The child generates the workload's inputs from the
seed into its work directory, drives heraldkit only through `cli.main` and
public library calls, times every operation, and runs whole rounds of the
same operations until `--seconds` have passed.  It then checks every
output against references made apart from the program's fast path
(`checks.py`), outside the timed region, and writes one JSON record.

Workloads:

* search   - GA searches through `cli.main optimize` (HM with a window and
             SPD, for B(0.3, 7)) and a deviation sweep of the SPD operating
             point: scalar closed-form evaluation in the GA loop.
* table    - `cli.main reproduce-table` on each of the 40 bundled rows, plus
             `evaluate` of the SPD and HM examples at cutoffs 100 and 200:
             closed-form calls one at a time inside Nelder-Mead, window
             quadrature and target construction.
* pipeline - efficiency sweeps through `cli.main sweep` around one SPD and
             one HM operating point at cutoffs 40 and 60, and oracle
             evaluations at cutoff 30: the two-mode path and the loss model.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import yaml

from heraldkit import cli, scheme
from heraldkit.reference_rows import all_rows
from heraldkit.scheme import SPD, SchemeParams
from heraldkit.states import Binomial, SqueezedCoherentParams

import checks
from speed import Speed, Watch
from tracing import Tracer

TWO_PI = 2.0 * math.pi

# Operating points: the SPD and HM `evaluate` examples of the package.
SPD_TARGET = {"family": "binomial", "p": 0.3, "M": 7}
SPD_POINT = {"r1": 0.74, "theta1": 3.50, "alpha1": 0.10, "phi1": 2.14,
             "r2": 0.16, "theta2": 4.43, "alpha2": 1.97, "phi2": 0.08, "T": 0.69}
HM_TARGET = {"family": "binomial", "p": 0.45, "M": 8}
HM_POINT = {"r1": 0.45, "theta1": 0.74, "alpha1": 0.34, "phi1": 1.01,
            "r2": 0.45, "theta2": 0.28, "alpha2": 1.97, "phi2": 0.06, "T": 0.90,
            "x": 0.61, "lam": 0.04, "delta": 0.30}

# search
GA = {"population_size": 60, "generations": 160, "restarts": 1}
SEARCH_CUTOFF = 30
FINAL_CUTOFF = 40
SEARCH_POLISH = 100
HM_WINDOW = 0.25
DEVIATIONS = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2]
DEVIATION_SAMPLES = 600

# table
TABLE_CUTOFF = 40
TABLE_POLISH = 400
REFERENCE_CUTOFF = 100
HIGH_CUTOFF = 200

# pipeline
LOSSY_CUTOFFS = (40, 60)
ETA_RANGE = (0.7, 0.95)
ORACLE_CUTOFF = 30
ORACLE_POINTS = 12  # per measurement kind and round


def _spec(target: dict) -> Binomial:
    return Binomial(target["p"], target["M"])


def _num(text: str):
    return None if text == "" else float(text)


def read_csv(path: Path, text_cols=()) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: (v if k in text_cols else _num(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)]


class Runner:
    """Times operations and counts attempts and failures.

    Each operation's wall time is also rescaled by the speed reference
    measured around and during it (see speed.py).
    """

    def __init__(self, work: Path, tracer: Tracer | None):
        self.work = work
        self.tracer = tracer
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.seconds: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.units: dict[str, float] = {}
        # (group, wall s, mean kernel s, kernel samples) per operation
        self.ops: list[tuple[str, float, float, int]] = []
        self._n = 0

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:05d}-{stem}"

    def timed(self, group: str, fn, *args, **kwargs):
        """Run and time one operation; returns (result, error text or None)."""
        self.attempted += 1
        # no timer ticks under tracing: spans would include the samples
        with Watch(self.speed, ticks=self.tracer is None) as w:
            try:
                result, error = fn(*args, **kwargs), None
            except Exception:  # the caller counts it as a failed operation
                result, error = None, traceback.format_exc(limit=2)
        self.ops.append((group, w.wall, w.kernel, len(w.samples)))
        self.seconds[group] = self.seconds.get(group, 0.0) + w.wall
        self.scaled[group] = self.scaled.get(group, 0.0) + w.scaled
        return result, error

    def cli(self, group: str, command: str, cfg: dict):
        """Write `cfg` and run one `cli.main` command.

        Returns (exit code, or the error text of an exception; output dir).
        """
        base = self.path(group)
        cfg_path = base.with_suffix(".yaml")
        cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=True))
        argv = [command, "--config", str(cfg_path), "--out", str(base), "--quiet"]
        code, error = self.timed(group, cli.main, argv)
        return (code if error is None else error), base

    def fail(self, group: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{group}: {why.strip()}")

    def add_units(self, group: str, n: float) -> None:
        self.units[group] = self.units.get(group, 0.0) + n

    def rate(self, *groups: str, scaled: bool = True) -> float:
        """Units per second over `groups`, on the scaled clock unless told otherwise."""
        seconds = self.scaled if scaled else self.seconds
        return (sum(self.units.get(g, 0.0) for g in groups)
                / sum(seconds.get(g, 0.0) for g in groups))

    def run(self, round_fn, seconds: float) -> int:
        """Whole rounds until `seconds` of wall time have passed; at least one.

        With a tracer, spans are recorded during the rounds only.
        """
        if self.tracer is not None:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            rounds = 0
            while True:
                round_fn(rounds)
                rounds += 1
                if time.perf_counter() - t0 >= seconds:
                    return rounds
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()


def _rng(seed: int, round_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index, stream])


# --- search -----------------------------------------------------------------


def search(runner: Runner, seed: int, seconds: float) -> dict:
    outputs = []

    def optimize(r: int, kind: str, seed_: int) -> None:
        opt = {"kind": kind, "search_cutoff": SEARCH_CUTOFF,
               "polish_iters": SEARCH_POLISH, "ga": GA}
        if kind == "hm":
            opt["window_halfwidth"] = HM_WINDOW
        cfg = {"target": SPD_TARGET, "cutoff": FINAL_CUTOFF, "seed": seed_, "optimize": opt}
        code, out = runner.cli("optimize", "optimize", cfg)
        if code != 0:
            runner.fail("optimize", f"{kind} exit code {code}")
            return
        record = json.loads((out / "result.json").read_text())
        runner.add_units("optimize", record["evaluations"])
        outputs.append(("optimize", f"round {r} optimize {kind}", record))

    def deviation_sweep(r: int, seed_: int) -> None:
        cfg = {"target": SPD_TARGET, "cutoff": FINAL_CUTOFF, "seed": seed_,
               "sweep": {"mode": "deviation", "kind": "spd", "params": SPD_POINT,
                         "deviations": DEVIATIONS, "sampling": "signed_uniform",
                         "n_samples": DEVIATION_SAMPLES}}
        code, out = runner.cli("deviation", "sweep", cfg)
        if code != 0:
            runner.fail("deviation", f"exit code {code}")
            return
        runner.add_units("deviation", 1 + (len(DEVIATIONS) - 1) * DEVIATION_SAMPLES)
        outputs.append(("deviation", f"round {r} deviation sweep", read_csv(out / "sweep.csv")))

    def one_round(r: int) -> None:
        seeds = [int(v) for v in _rng(seed, r, 0).integers(2**31, size=4)]
        optimize(r, "hm", seeds[0])
        deviation_sweep(r, seeds[1])
        optimize(r, "spd", seeds[2])
        deviation_sweep(r, seeds[3])

    rounds = runner.run(one_round, seconds)

    def check() -> list[str]:
        target = checks.target_vector(_spec(SPD_TARGET), FINAL_CUTOFF)
        point = checks.params_from_record(SPD_POINT)
        misfit0 = checks.OracleReference(point, FINAL_CUTOFF).misfit(target)
        errs = []
        for kind, label, out in outputs:
            if kind == "optimize":
                ref = checks.OracleReference(checks.params_from_record(out["params"]),
                                             FINAL_CUTOFF)
                errs += checks.check_optimize(label, out, ref.misfit(target),
                                              ref.success_probability())
            else:
                errs += checks.check_deviation_sweep(label, out, misfit0)
        return errs

    metrics = {"primary_per_s": runner.rate("optimize"),
               "secondary_per_s": runner.rate("deviation")}
    detail = {"ga_evals_per_s": metrics["primary_per_s"],
              "sweep_points_per_s": metrics["secondary_per_s"],
              "ga_evals_per_wall_s": runner.rate("optimize", scaled=False),
              "sweep_points_per_wall_s": runner.rate("deviation", scaled=False)}
    return {"rounds": rounds, "metrics": metrics, "detail": detail, "check": check}


# --- table ------------------------------------------------------------------


def _evaluate_cfg(kind: str, cutoff: int) -> dict:
    target, point = (SPD_TARGET, SPD_POINT) if kind == "spd" else (HM_TARGET, HM_POINT)
    return {"target": target, "cutoff": cutoff, "evaluate": {"kind": kind, "params": point}}


def _read_row(out: Path) -> dict | None:
    path = out / "row.csv"
    if not path.exists():
        return None
    return read_csv(path, text_cols=("label",))[0]


def table(runner: Runner, seed: int, seconds: float) -> dict:
    rows = {row.row_id: row for row in all_rows()}
    reports = []
    evaluations = []
    cli_status = {}

    def one_round(r: int) -> None:
        order = _rng(seed, r, 0).permutation(sorted(rows))
        for row_id in order:
            cfg = {"cutoff": TABLE_CUTOFF,
                   "reproduce_table": {"rows": [str(row_id)], "polish_iters": TABLE_POLISH}}
            group = f"rows_{rows[row_id].kind}"
            code, out = runner.cli(group, "reproduce-table", cfg)
            # exit 3 is the CLI's own gate; the benchmark applies its own checks
            if code not in (0, 3):
                runner.fail(group, f"{row_id} exit code {code}")
                continue
            runner.add_units(group, 1)
            report = read_csv(out / "report.csv", text_cols=("row_id", "label", "kind", "status"))
            cli_status[str(row_id)] = report[0]["status"]
            reports.append((f"round {r} row {row_id}", report[0]))
        ref_rows = {}
        for kind in ("spd", "hm"):
            cfg = _evaluate_cfg(kind, REFERENCE_CUTOFF)
            code, out = runner.cli("evaluate_100", "evaluate", cfg)
            why = checks.evaluate_failure(code, _read_row(out))
            if why:
                runner.fail("evaluate_100", f"{kind}: {why}")
                continue
            runner.add_units("evaluate_100", 1)
            ref_rows[kind] = _read_row(out)
            evaluations.append((f"round {r} evaluate {kind} cutoff {REFERENCE_CUTOFF}",
                                kind, REFERENCE_CUTOFF, ref_rows[kind], None))
        for kind in ("spd", "hm"):
            # both overflow at 2N = 400: sqrt_factorials (SPD), hermite_sequence (HM)
            code, out = runner.cli("evaluate_200", "evaluate", _evaluate_cfg(kind, HIGH_CUTOFF))
            why = checks.evaluate_failure(code, _read_row(out))
            if why:
                runner.fail("evaluate_200", f"{kind} cutoff {HIGH_CUTOFF}: {why}")
                continue
            evaluations.append((f"round {r} evaluate {kind} cutoff {HIGH_CUTOFF}",
                                kind, HIGH_CUTOFF, _read_row(out), ref_rows.get(kind)))

    rounds = runner.run(one_round, seconds)

    def check() -> list[str]:
        errs = []
        refs = {}
        for row_id, row in rows.items():
            ref = checks.OracleReference(row.params, TABLE_CUTOFF)
            refs[row_id] = (ref.misfit(checks.target_vector(row.target, TABLE_CUTOFF)),
                            ref.success_probability())
        for label, rep in reports:
            row = rows[rep["row_id"]]
            errs += checks.check_table_row(label, rep, row.eps, *refs[rep["row_id"]])
        points = {}
        for kind, (target, point) in (("spd", (SPD_TARGET, SPD_POINT)),
                                      ("hm", (HM_TARGET, HM_POINT))):
            ref = checks.OracleReference(checks.params_from_record(point), TABLE_CUTOFF)
            points[kind] = (ref.misfit(checks.target_vector(_spec(target), TABLE_CUTOFF)),
                            ref.success_probability())
        for label, kind, cutoff, row, row_ref in evaluations:
            if cutoff == REFERENCE_CUTOFF:
                # the cutoff-100 result must be the converged cutoff-40 physics
                errs += checks.check_evaluate(label, row, *points[kind])
            elif row_ref is None:
                errs.append(f"{label}: no cutoff-{REFERENCE_CUTOFF} result to compare with")
            else:
                errs += checks.check_high_cutoff(label, row, row_ref)
        return errs

    metrics = {"primary_per_s": runner.rate("rows_spd", "rows_hm"),
               "secondary_per_s": runner.rate("rows_spd")}
    detail = {"rows_per_s": metrics["primary_per_s"],
              "spd_rows_per_s": metrics["secondary_per_s"],
              "hm_rows_per_s": runner.rate("rows_hm"),
              "rows_per_wall_s": runner.rate("rows_spd", "rows_hm", scaled=False),
              "evaluate_cutoff100_per_wall_s": runner.rate("evaluate_100", scaled=False),
              "cli_row_status": cli_status}
    return {"rounds": rounds, "metrics": metrics, "detail": detail, "check": check}


# --- pipeline ---------------------------------------------------------------


def _box_point(rng: np.random.Generator) -> SchemeParams:
    """A uniform draw from the criterion-1 box, SPD heralding."""
    def arm() -> SqueezedCoherentParams:
        return SqueezedCoherentParams(rng.uniform(0.05, 1.7), rng.uniform(0.0, TWO_PI),
                                      rng.uniform(0.0, 4.0), rng.uniform(0.0, TWO_PI))
    return SchemeParams(arm(), arm(), rng.uniform(0.1, 0.9), SPD())


def _window_point(rng: np.random.Generator) -> SchemeParams:
    """The HM operating point heralded at a reading drawn from its window."""
    x = HM_POINT["x"] + HM_POINT["delta"] * rng.uniform(-1.0, 1.0)
    return checks.params_from_record({**HM_POINT, "x": x, "delta": 0.0})


def pipeline(runner: Runner, seed: int, seconds: float) -> dict:
    sweeps = {}
    oracles = []

    def one_round(r: int) -> None:
        rng = _rng(seed, r, 0)
        for kind, target, point in (("spd", SPD_TARGET, SPD_POINT), ("hm", HM_TARGET, HM_POINT)):
            for cutoff in LOSSY_CUTOFFS:
                eta_a, eta_b = (float(v) for v in rng.uniform(*ETA_RANGE, size=2))
                for which, etas in (("det", [eta_a, 1.0]), ("signal", [eta_b]),
                                    ("both", [eta_a])):
                    cfg = {"target": target, "cutoff": cutoff,
                           "sweep": {"mode": "efficiency", "kind": kind, "params": point,
                                     "etas": etas, "which": which}}
                    code, out = runner.cli("lossy", "sweep", cfg)
                    if code != 0:
                        runner.fail("lossy", f"{kind} {which} cutoff {cutoff} exit code {code}")
                        continue
                    runner.add_units("lossy", len(etas))
                    sweeps[r, kind, which, cutoff] = read_csv(out / "sweep.csv")
        for draw in (_box_point, _window_point):
            for _ in range(ORACLE_POINTS):
                p = draw(rng)
                out, error = runner.timed("oracle", scheme.conditional_output, p, ORACLE_CUTOFF,
                                          method="oracle", check_input_tail=False)
                label = f"round {r} oracle {type(p.measurement).__name__}"
                if error is not None:
                    runner.fail("oracle", f"{label}: {error}")
                    continue
                runner.add_units("oracle", 1)
                oracles.append((label, p, out))

    rounds = runner.run(one_round, seconds)

    def check() -> list[str]:
        errs = []
        ideal = {}
        for kind, target, point in (("spd", SPD_TARGET, SPD_POINT), ("hm", HM_TARGET, HM_POINT)):
            p = checks.params_from_record(point)
            for cutoff in LOSSY_CUTOFFS:
                out = scheme.conditional_output(p, cutoff, check_input_tail=False)
                tgt = checks.target_vector(_spec(target), cutoff)
                eps = checks.infidelity(tgt, np.asarray(out.state.amps))
                if kind == "spd":
                    weight = scheme.success_prob_spd(p, cutoff, check_input_tail=False)
                    pn = checks.OracleReference(p, cutoff).photon_distribution()
                else:
                    weight = scheme.hm_outcome_density(p, p.measurement.x, cutoff,
                                                       check_input_tail=False)
                    pn = None
                ideal[kind, cutoff] = (eps, weight, pn)
        for (r, kind, which, cutoff), rows in sweeps.items():
            label = f"round {r} {kind} {which} cutoff {cutoff}"
            errs += checks.check_efficiency_sweep(label, rows, which, kind, *ideal[kind, cutoff])
            if which == "both" and (r, kind, "det", cutoff) in sweeps:
                # loss on the signal path leaves the herald weight unchanged
                det = {q["sweep_var"]: q["herald_weight"] for q in sweeps[r, kind, "det", cutoff]}
                for q in rows:
                    errs += checks.close(label, "weight against det", q["herald_weight"],
                                         det.get(q["sweep_var"], math.nan), checks.THINNING_ATOL)
        for label, p, out in oracles:
            closed = scheme.conditional_output(p, ORACLE_CUTOFF, check_input_tail=False)
            errs += checks.check_oracle_point(label, np.asarray(out.state.amps), out.raw_weight,
                                              np.asarray(closed.state.amps), closed.raw_weight)
        return errs

    metrics = {"primary_per_s": runner.rate("lossy"),
               "secondary_per_s": runner.rate("oracle")}
    detail = {"lossy_points_per_s": metrics["primary_per_s"],
              "oracle_points_per_s": metrics["secondary_per_s"],
              "lossy_points_per_wall_s": runner.rate("lossy", scaled=False),
              "oracle_points_per_wall_s": runner.rate("oracle", scaled=False)}
    return {"rounds": rounds, "metrics": metrics, "detail": detail, "check": check}


WORKLOADS = {"search": search, "table": table, "pipeline": pipeline}


def environment() -> dict:
    """What the numbers depend on besides the code."""
    blas = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        pass
    threads = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": threads,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "heraldkit": str(Path(cli.__file__).resolve().parent),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    runner = Runner(args.work, tracer)
    t0 = time.perf_counter()
    out = WORKLOADS[args.workload](runner, args.seed, args.seconds)
    wall = time.perf_counter() - t0
    check_errors = out["check"]()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": out["rounds"],
        "workload_wall_s": wall,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "ops": runner.ops,
        "correct": not check_errors,
        "check_errors": check_errors,
        "metrics": out["metrics"],
        "detail": out["detail"],
        "environment": environment(),
        "heraldkit_from_checkout": Path(cli.__file__).resolve().is_relative_to(
            Path(__file__).resolve().parent.parent / "src"),
    }
    if tracer is not None:
        record["per_layer"] = tracer.per_layer(out["rounds"])
        tracer.save(args.result.with_name(f"spans-{args.workload}.npz"))
    args.result.write_text(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
