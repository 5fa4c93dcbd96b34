"""Self-test of the benchmark's checks: each must reject a corrupted output.

Run from the checkout root: `python3 bench/selftest.py`.  For every check
it builds a genuine output of the program on a known point, confirms the
check accepts it, then corrupts it (a misfit shifted by 1e-6, a `nan` P,
a non-monotone trace, a thinning weight off by 1e-9, ...) and confirms
the check rejects it.  Exits 0 when every expectation holds, 1 otherwise.
"""
from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from heraldkit import imperfections, scheme  # noqa: E402
from heraldkit.fock import FockVector  # noqa: E402
from workloads import HM_POINT, HM_TARGET, SPD_POINT, SPD_TARGET, _spec  # noqa: E402

CUTOFF = 40


class Expect:
    def __init__(self):
        self.bad: list[str] = []

    def accepts(self, name: str, errors: list[str]) -> None:
        self._report(name, not errors, "accepted" if not errors else f"rejected: {errors}")

    def rejects(self, name: str, errors: list[str]) -> None:
        self._report(name, bool(errors), f"rejected: {errors[0]}" if errors else "accepted")

    def _report(self, name: str, ok: bool, text: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {text}")
        if not ok:
            self.bad.append(name)


def _optimize_record(point: dict, target: dict) -> tuple[dict, checks.OracleReference, np.ndarray]:
    p = checks.params_from_record(point)
    tgt = checks.target_vector(_spec(target), CUTOFF)
    out = scheme.conditional_output(p, CUTOFF, check_input_tail=False)
    if isinstance(p.measurement, scheme.SPD):
        prob = scheme.success_prob_spd(p, CUTOFF, check_input_tail=False)
    else:
        prob = scheme.success_prob_hm(p, CUTOFF, check_input_tail=False)
    record = {"best_misfit": checks.infidelity(tgt, np.asarray(out.state.amps)),
              "success_prob": prob, "trace": [3e-3, 1e-3, 1e-3, 4e-4], "params": point}
    return record, checks.OracleReference(p, CUTOFF), tgt


def search_checks(ex: Expect) -> None:
    for point, target in ((SPD_POINT, SPD_TARGET), (HM_POINT, HM_TARGET)):
        kind = "hm" if "x" in point else "spd"
        record, ref, tgt = _optimize_record(point, target)
        refs = (ref.misfit(tgt), ref.success_probability())
        ex.accepts(f"optimize {kind} genuine", checks.check_optimize("opt", record, *refs))
        bad = dict(record, best_misfit=record["best_misfit"] + 1e-6)
        ex.rejects(f"optimize {kind} misfit + 1e-6", checks.check_optimize("opt", bad, *refs))
        bad = dict(record, success_prob=math.nan)
        ex.rejects(f"optimize {kind} nan P", checks.check_optimize("opt", bad, *refs))
        bad = dict(record, trace=[3e-3, 1e-3, 1.5e-3, 4e-4])
        ex.rejects(f"optimize {kind} non-monotone trace", checks.check_optimize("opt", bad, *refs))

    p = checks.params_from_record(SPD_POINT)
    tgt = checks.target_vector(_spec(SPD_TARGET), CUTOFF)
    points = imperfections.sweep_parameter_deviation(
        p, FockVector(tgt, CUTOFF).normalized(), [0.0, 0.01, 0.05],
        n_samples=4, seed=3, cutoff=CUTOFF)
    rows = [vars(q).copy() for q in points]
    misfit0 = checks.OracleReference(p, CUTOFF).misfit(tgt)
    ex.accepts("deviation sweep genuine", checks.check_deviation_sweep("dev", rows, misfit0))
    bad = copy.deepcopy(rows)
    bad[0]["misfit_mean"] += 1e-6
    ex.rejects("deviation sweep 0.0 misfit + 1e-6",
               checks.check_deviation_sweep("dev", bad, misfit0))
    bad = copy.deepcopy(rows)
    bad[-1]["misfit_max"] = bad[-2]["misfit_max"] * 0.5
    ex.rejects("deviation sweep non-monotone misfit_max",
               checks.check_deviation_sweep("dev", bad, misfit0))


def table_checks(ex: Expect) -> None:
    for point, target, eps_recorded in ((SPD_POINT, SPD_TARGET, 1.26e-4),
                                        (HM_POINT, HM_TARGET, 8.06e-4)):
        kind = "hm" if "x" in point else "spd"
        record, ref, tgt = _optimize_record(point, target)
        refs = (ref.misfit(tgt), ref.success_probability())
        row = {"kind": kind, "eps_raw": record["best_misfit"],
               "eps_polished": 0.5 * record["best_misfit"], "P": record["success_prob"],
               "eps_avg": 5e-3 if kind == "hm" else None}
        ex.accepts(f"table {kind} genuine", checks.check_table_row("row", row, eps_recorded, *refs))
        bad = dict(row, eps_raw=row["eps_raw"] + 1e-6)
        ex.rejects(f"table {kind} eps_raw + 1e-6",
                   checks.check_table_row("row", bad, eps_recorded, *refs))
        bad = dict(row, P=math.nan)
        ex.rejects(f"table {kind} nan P", checks.check_table_row("row", bad, eps_recorded, *refs))
        bad = dict(row, eps_polished=row["eps_raw"] * 1.5)
        ex.rejects(f"table {kind} polish worse than raw",
                   checks.check_table_row("row", bad, eps_recorded, *refs))

    good = {"eps": 1e-4, "P": 0.3, "eps_avg": None}
    why = checks.evaluate_failure(0, good)
    ex.accepts("evaluate genuine", [why] if why else [])
    ex.rejects("evaluate exit 0 with nan P", [checks.evaluate_failure(0, dict(good, P=math.nan))])
    ex.rejects("evaluate exit 2", [checks.evaluate_failure(2, None)])
    ex.rejects("high cutoff P off by 1e-7",
               checks.check_high_cutoff("hi", dict(good, P=0.3 + 1e-7), good))


def pipeline_checks(ex: Expect) -> None:
    p = checks.params_from_record(SPD_POINT)
    tgt = checks.target_vector(_spec(SPD_TARGET), CUTOFF)
    target = FockVector(tgt, CUTOFF).normalized()
    out = scheme.conditional_output(p, CUTOFF, check_input_tail=False)
    ideal = (checks.infidelity(tgt, np.asarray(out.state.amps)),
             scheme.success_prob_spd(p, CUTOFF, check_input_tail=False),
             checks.OracleReference(p, CUTOFF).photon_distribution())
    for which, etas in (("det", [0.85, 1.0]), ("signal", [0.8])):
        rows = [vars(q).copy() for q in imperfections.sweep_efficiency(
            p, target, etas, which=which, cutoff=CUTOFF, check_input_tail=False)]
        ex.accepts(f"efficiency {which} genuine",
                   checks.check_efficiency_sweep("eff", rows, which, "spd", *ideal))
        bad = copy.deepcopy(rows)
        bad[0]["herald_weight"] += 1e-9
        ex.rejects(f"efficiency {which} weight + 1e-9",
                   checks.check_efficiency_sweep("eff", bad, which, "spd", *ideal))
    bad = [dict(vars(q)) for q in imperfections.sweep_efficiency(
        p, target, [1.0], which="det", cutoff=CUTOFF, check_input_tail=False)]
    bad[0]["misfit_mean"] += 1e-6
    ex.rejects("efficiency eta=1 misfit + 1e-6",
               checks.check_efficiency_sweep("eff", bad, "det", "spd", *ideal))

    closed = scheme.conditional_output(p, 30, check_input_tail=False)
    oracle = scheme.conditional_output(p, 30, method="oracle", check_input_tail=False)
    args = (np.asarray(oracle.state.amps), oracle.raw_weight,
            np.asarray(closed.state.amps), closed.raw_weight)
    ex.accepts("oracle point genuine", checks.check_oracle_point("orc", *args))
    ex.rejects("oracle point weight x (1 + 1e-8)",
               checks.check_oracle_point("orc", args[0], args[1] * (1 + 1e-8), *args[2:]))
    ex.rejects("oracle point nan weight",
               checks.check_oracle_point("orc", args[0], math.nan, *args[2:]))


def main() -> int:
    ex = Expect()
    search_checks(ex)
    table_checks(ex)
    pipeline_checks(ex)
    print(f"{len(ex.bad)} unmet expectations")
    return 1 if ex.bad else 0


if __name__ == "__main__":
    sys.exit(main())
