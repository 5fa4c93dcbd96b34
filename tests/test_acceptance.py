"""Acceptance gate: each test prints one pass/fail line for its criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Checks inside a criterion accumulate, so a failure reports every
violated bound rather than stopping at the first.
"""

import math
import time
from pathlib import Path

import numpy as np
import yaml
from _operator_reference import basis_state, coherent_state, tensor

from heraldkit.cli import main
from heraldkit.fock import BeamSplitterSpec, beam_splitter_apply, fidelity
from heraldkit.imperfections import (
    ImperfectionSpec,
    conditional_output_lossy,
    loss_channel,
    sweep_parameter_deviation,
)
from heraldkit.optimizer import Bounds, local_polish, optimize
from heraldkit.reference_rows import all_rows, designated_rows
from heraldkit.scheme import (
    HM,
    SPD,
    SchemeParams,
    average_misfit,
    conditional_output,
    misfit,
    success_prob_hm,
    success_prob_spd,
)
from heraldkit.states import (
    Binomial,
    SqueezedCoherentParams,
    amplitude_squeezed_state,
    binomial_state,
    negative_binomial_state,
    resource_state,
    target_state,
)


class Criterion:
    """Collects violations and prints a single verdict line."""

    def __init__(self, number: int, name: str):
        self.label = f"criterion {number} ({name})"
        self.failures: list[str] = []
        self.t0 = time.perf_counter()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def conclude(self) -> None:
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"[acceptance] {self.label}: {verdict}  ({elapsed:.1f} s)", flush=True)
        assert not self.failures, f"{self.label}: " + "; ".join(self.failures)


def _random_params(rng: np.random.Generator, kind: str) -> SchemeParams:
    def arm() -> SqueezedCoherentParams:
        return SqueezedCoherentParams(
            rng.uniform(0.05, 1.7), rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, 4.0), rng.uniform(0.0, 2.0 * math.pi),
        )

    if kind == "spd":
        meas = SPD()
    else:
        meas = HM(rng.uniform(0.0, 4.0), rng.uniform(0.0, 2.0 * math.pi))
    return SchemeParams(arm(), arm(), rng.uniform(0.1, 0.9), meas)


def test_criterion_1_oracle_equivalence():
    crit = Criterion(1, "closed forms match the first-principles pipeline")
    rng = np.random.default_rng(20260823)
    for kind in ("spd", "hm"):
        for draw in range(200):
            p = _random_params(rng, kind)
            closed = conditional_output(p, 30, method="closed", check_input_tail=False)
            oracle = conditional_output(p, 30, method="oracle", check_input_tail=False)
            overlap = abs(np.vdot(closed.state.amps, oracle.state.amps))
            crit.check(
                overlap >= 1.0 - 1e-10,
                f"{kind} draw {draw}: overlap deficit {1.0 - overlap:.3e}",
            )
            rel = abs(closed.raw_weight - oracle.raw_weight) / oracle.raw_weight
            crit.check(rel <= 1e-9, f"{kind} draw {draw}: weight rel err {rel:.3e}")
    crit.conclude()


def test_criterion_2_tabulated_row_reproduction():
    crit = Criterion(2, "tabulated rows at stated tolerances")
    rows = designated_rows()
    crit.check(len(rows) >= 8, f"only {len(rows)} designated rows")
    for row in rows:
        tgt = target_state(row.target, 40)
        out = conditional_output(row.params, 40, check_input_tail=False)
        eps_raw = misfit(out, tgt)
        crit.check(eps_raw <= 5e-2, f"{row.row_id}: raw misfit {eps_raw:.3e}")

        polished = local_polish(row.params, row.target, 40, max_iters=400)
        crit.check(
            polished.best_misfit <= 10.0 * row.eps,
            f"{row.row_id}: polished {polished.best_misfit:.3e} "
            f"exceeds 10 x {row.eps:.3e}",
        )

        if row.kind == "spd":
            p_val = success_prob_spd(row.params, 40, check_input_tail=False)
        else:
            p_val = success_prob_hm(row.params, 40, check_input_tail=False)
        crit.check(
            abs(p_val - row.success_prob) <= 0.05,
            f"{row.row_id}: P {p_val:.3f} vs tabulated {row.success_prob:.3f}",
        )

        if row.kind == "hm":
            e_avg = average_misfit(row.params, tgt, 40, check_input_tail=False)
            crit.check(e_avg <= 1e-2, f"{row.row_id}: eps_avg {e_avg:.3e}")
    crit.conclude()


def test_criterion_3_ga_end_to_end():
    crit = Criterion(3, "seeded GA reaches a good binomial(0.3, 7) design")
    result = optimize(Binomial(0.3, 7), Bounds.for_kind("hm"), window_halfwidth=0.25)
    crit.check(
        result.best_misfit <= 1e-2,
        f"best misfit {result.best_misfit:.3e} above 1e-2",
    )
    trace = np.asarray(result.trace)
    crit.check(bool(np.all(np.diff(trace) <= 0.0)), "trace is not monotone")
    crit.conclude()


def test_criterion_4_analytic_limits():
    crit = Criterion(4, "analytic limits of the target families and channels")

    for p_edge, n_expect in ((0.0, 0), (1.0, 5)):
        f = fidelity(basis_state(n_expect, 30), binomial_state(p_edge, 5, 30))
        crit.check(f >= 1.0 - 1e-12, f"binomial p={p_edge}: fidelity {f}")

    eta = 0.5
    geometric = math.sqrt(1.0 - eta**2) * eta ** np.arange(31)
    nb = negative_binomial_state(eta, 1, 0.0, 30)
    dev = float(np.max(np.abs(nb.amps - geometric)))
    crit.check(dev <= 1e-12, f"negative binomial M=1: coefficient dev {dev:.3e}")

    f = fidelity(basis_state(3, 40), amplitude_squeezed_state(1.0, 0.01, 3.0, 40))
    crit.check(f >= 1.0 - 1e-6, f"amplitude squeezed u=0.01: fidelity {f}")

    chi = 0.1
    raw = np.zeros(21)
    raw[0] = 1.0
    raw[1] = chi * 3.0 / (2.0 * math.sqrt(2.0))
    raw[3] = chi * math.sqrt(3.0) / 2.0
    dev = float(np.max(np.abs(resource_state(0.0, chi, 20).amps - raw / np.linalg.norm(raw))))
    crit.check(dev <= 1e-12, f"resource zeta=0: coefficient dev {dev:.3e}")

    eta = 0.7
    rho = loss_channel(basis_state(1, 10), eta)
    expect = np.zeros((11, 11))
    expect[0, 0] = 1.0 - eta
    expect[1, 1] = eta
    dev = float(np.max(np.abs(rho.rho - expect)))
    crit.check(dev <= 1e-10, f"single-photon loss: matrix dev {dev:.3e}")

    alpha = 1.2
    rho = loss_channel(coherent_state(alpha, 40), eta)
    f = fidelity(coherent_state(math.sqrt(eta) * alpha, 40), rho)
    crit.check(f >= 1.0 - 1e-10, f"coherent loss: fidelity {f}")

    both = tensor(basis_state(1, 6), basis_state(1, 6))
    mixed, _ = beam_splitter_apply(both, BeamSplitterSpec(0.5))
    crit.check(
        mixed.amps[1, 1] == 0.0,
        f"HOM amplitude {mixed.amps[1, 1]} not exactly zero",
    )

    crit.conclude()


def test_criterion_5_imperfection_properties():
    crit = Criterion(5, "loss-model properties on the tabulated rows")

    perfect = ImperfectionSpec(eta_det=1.0, eta_signal=1.0)
    for row_id in ("02-binom-0.3-7-spd", "03-binom-0.45-8-hm"):
        row = next(r for r in all_rows() if r.row_id == row_id)
        ideal = conditional_output(row.params, 30, check_input_tail=False)
        rho, _ = conditional_output_lossy(row.params, perfect, 30, check_input_tail=False)
        f = fidelity(ideal.state, rho)
        crit.check(f >= 1.0 - 1e-12, f"{row_id}: eta=1 pipeline fidelity {f}")

    v = binomial_state(0.4, 6, 30)
    once = loss_channel(loss_channel(v, 0.9), 0.8)
    direct = loss_channel(v, 0.72)
    dev = float(np.max(np.abs(once.rho - direct.rho)))
    crit.check(dev <= 1e-10, f"composition law: matrix dev {dev:.3e}")

    degraded = ImperfectionSpec(eta_det=0.9, eta_signal=1.0)
    for row in all_rows():
        tgt = target_state(row.target, 30, check_tail=False)
        eps_ideal = misfit(conditional_output(row.params, 30, check_input_tail=False), tgt)
        rho, _ = conditional_output_lossy(row.params, degraded, 30, check_input_tail=False)
        eps_lossy = misfit(rho, tgt)
        crit.check(
            eps_lossy > eps_ideal,
            f"{row.row_id}: eta_det=0.9 misfit {eps_lossy:.3e} "
            f"not above ideal {eps_ideal:.3e}",
        )

    row = next(r for r in all_rows() if r.row_id == "02-binom-0.3-7-spd")
    tgt = target_state(row.target, 30)
    eps_ideal = misfit(conditional_output(row.params, 30, check_input_tail=False), tgt)
    points = sweep_parameter_deviation(row.params, tgt, [0.0], n_samples=5, cutoff=30)
    crit.check(
        points[0].misfit_mean == eps_ideal and points[0].misfit_max == eps_ideal,
        "d=0 sweep point does not reproduce the ideal misfit exactly",
    )

    crit.conclude()


def test_criterion_6_determinism(tmp_path: Path):
    crit = Criterion(6, "byte-identical reruns for every command")
    row2 = {
        "r1": 0.74, "theta1": 3.50, "alpha1": 0.10, "phi1": 2.14,
        "r2": 0.16, "theta2": 4.43, "alpha2": 1.97, "phi2": 0.08, "T": 0.69,
    }
    target = {"family": "binomial", "p": 0.3, "M": 7}
    jobs = {
        "evaluate": {
            "target": target, "cutoff": 40,
            "evaluate": {"kind": "spd", "params": row2},
        },
        "sweep": {
            "target": target, "cutoff": 30, "seed": 5,
            "sweep": {
                "mode": "deviation", "kind": "spd", "params": row2,
                "deviations": [0.0, 0.05], "n_samples": 4,
            },
        },
        "optimize": {
            "target": {"family": "binomial", "p": 0.5, "M": 2},
            "cutoff": 12, "seed": 3,
            "optimize": {
                "kind": "spd", "search_cutoff": 12, "polish_iters": 30,
                "ga": {"population_size": 10, "generations": 5, "restarts": 1},
            },
        },
        "reproduce-table": {
            "reproduce_table": {"rows": ["02-binom-0.3-7-spd"], "polish_iters": 50},
        },
    }
    for command, payload in jobs.items():
        cfg = tmp_path / f"{command}.yaml"
        cfg.write_text(yaml.safe_dump(payload))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
            crit.check(code == 0, f"{command} run {tag}: exit code {code}")
            outs.append(out)
        names = sorted(f.name for f in outs[0].iterdir())
        crit.check(
            names == sorted(f.name for f in outs[1].iterdir()),
            f"{command}: reruns produced different file sets",
        )
        for name in names:
            same = (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            crit.check(same, f"{command}: {name} differs between reruns")
    crit.conclude()
