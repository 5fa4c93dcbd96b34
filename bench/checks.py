"""Correctness checks for the benchmark's operations.

Every check compares an operation's output against a reference computed
apart from the program's fast path: misfits and success probabilities are
recomputed on the two-mode oracle route (`scheme.embedded_two_mode_state`,
then a projection written here), fidelities and Hermite functions are
evaluated by this module's own formulas, and photon-loss weights are
compared with the binomial thinning of the measured arm's photon-number
distribution.  Each check returns a list of error strings; an empty list
means the output passed.  Checks run outside the timed region.
"""
from __future__ import annotations

import math

import numpy as np

from heraldkit import cli, scheme, states
from heraldkit.scheme import SPD, SchemeParams

MISFIT_ATOL = 1e-9
PROB_ATOL = 1e-7
CUTOFF_P_ATOL = 1e-8
IDEAL_ATOL = 1e-10
THINNING_ATOL = 1e-12
OVERLAP_DEFICIT_MAX = 1e-10
WEIGHT_RTOL = 1e-9
SEARCH_MISFIT_MAX = 1e-2
EPS_RAW_MAX = 5e-2
EPS_POLISH_FACTOR = 10.0
EPS_AVG_MAX = 1e-2
WINDOW_NODES = 128


def params_from_record(rec: dict) -> SchemeParams:
    """SchemeParams from a flat mapping as written to configs and result.json."""
    return cli.parse_params(rec, "hm" if "x" in rec else "spd", "params")


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """phi_n(x) = pi^-1/4 (2^n n!)^-1/2 H_n(x) e^{-x^2/2}, shape (n_max+1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(2, n_max + 1):
        out[k] = math.sqrt(2.0 / k) * x * out[k - 1] - math.sqrt((k - 1.0) / k) * out[k - 2]
    return out


def infidelity(target: np.ndarray, state: np.ndarray) -> float:
    """1 - |<t|s>|^2 / (|t|^2 |s|^2) for unnormalized vectors."""
    num = abs(np.vdot(target, state)) ** 2
    return 1.0 - float(num / (np.vdot(target, target).real * np.vdot(state, state).real))


class OracleReference:
    """Two-mode oracle view of one parameter point at one cutoff.

    Builds the post-beam-splitter state once; the SPD slice, quadrature
    projections, window integrals and the measured arm's photon-number
    distribution are all read from it.
    """

    def __init__(self, p: SchemeParams, cutoff: int):
        self.p = p
        self.cutoff = cutoff
        mixed = scheme.embedded_two_mode_state(p, cutoff, check_input_tail=False)
        self.c = np.asarray(mixed.amps)
        self.total = float(np.sum(np.abs(self.c) ** 2))

    def _projected(self, x: np.ndarray) -> np.ndarray:
        """Unnormalized heralded vectors over |0>..|2N>, one column per x."""
        n = np.arange(self.c.shape[0])
        bra = hermite_functions(n.size - 1, x) * np.exp(-1j * self.p.measurement.lam * n)[:, None]
        return self.c.T @ bra

    def heralded(self) -> np.ndarray:
        """Unnormalized heralded vector over |0>..|2N> at the recorded outcome."""
        if isinstance(self.p.measurement, SPD):
            return self.c[1, :]
        return self._projected(np.array([self.p.measurement.x]))[:, 0]

    def misfit(self, target: np.ndarray) -> float:
        return infidelity(target, self.heralded()[: self.cutoff + 1])

    def weight(self) -> float:
        """SPD click probability, or HM outcome density at x."""
        return float(np.sum(np.abs(self.heralded()) ** 2)) / self.total

    def window_probability(self) -> float:
        """Gauss-Legendre integral of the outcome density over x +/- delta."""
        m = self.p.measurement
        nodes, w = np.polynomial.legendre.leggauss(WINDOW_NODES)
        half = m.window_halfwidth
        vec = self._projected(m.x + half * nodes)
        dens = np.sum(np.abs(vec) ** 2, axis=0) / self.total
        return half * float(np.dot(w, dens))

    def success_probability(self) -> float:
        """The P a CLI row reports: click probability, window integral or density."""
        m = self.p.measurement
        if not isinstance(m, SPD) and m.window_halfwidth > 0.0:
            return self.window_probability()
        return self.weight()

    def photon_distribution(self) -> np.ndarray:
        """p(n) of the measured arm, n = 0..2N."""
        return np.sum(np.abs(self.c) ** 2, axis=1) / self.total


def target_vector(spec, cutoff: int) -> np.ndarray:
    return np.asarray(states.target_state(spec, cutoff, check_tail=False).amps)


def thinning_weight(pn: np.ndarray, eta: float) -> float:
    """Sum_n p(n) n eta (1-eta)^(n-1): one click after binomial thinning."""
    n = np.arange(pn.size)
    return float(np.sum(pn[1:] * n[1:] * eta * (1.0 - eta) ** (n[1:] - 1)))


def _finite(label: str, values) -> list[str]:
    bad = [k for k, v in values.items() if v is None or not math.isfinite(v)]
    return [f"{label}: non-finite {', '.join(bad)}"] if bad else []


def close(label: str, name: str, got: float, want: float, atol: float) -> list[str]:
    if not abs(got - want) <= atol:
        return [f"{label}: {name} {float(got)!r} differs from reference {float(want)!r} "
                f"by more than {atol:g}"]
    return []


def non_increasing(seq) -> bool:
    return all(b <= a for a, b in zip(seq, seq[1:]))


def non_decreasing(seq) -> bool:
    return all(b >= a for a, b in zip(seq, seq[1:]))


# --- search -----------------------------------------------------------------


def check_optimize(label: str, record: dict, ref_misfit: float, ref_prob: float) -> list[str]:
    """A result.json from `optimize` against oracle-route misfit and P."""
    eps = record["best_misfit"]
    prob = record["success_prob"]
    errs = _finite(label, {"best_misfit": eps, "success_prob": prob})
    if errs:
        return errs
    if not eps <= SEARCH_MISFIT_MAX:
        errs.append(f"{label}: best misfit {eps!r} above {SEARCH_MISFIT_MAX:g}")
    if not non_increasing(record["trace"]):
        errs.append(f"{label}: trace is not non-increasing")
    errs += close(label, "misfit", eps, ref_misfit, MISFIT_ATOL)
    errs += close(label, "P", prob, ref_prob, PROB_ATOL)
    return errs


def check_deviation_sweep(label: str, rows: list[dict], ref_misfit0: float) -> list[str]:
    """sweep.csv of a deviation sweep: 0.0 level and running worst case."""
    errs = []
    for r in rows:
        errs += _finite(f"{label} level {r['sweep_var']}", r)
    if errs:
        return errs
    zero = [r for r in rows if r["sweep_var"] == 0.0]
    if len(zero) != 1:
        errs.append(f"{label}: expected one 0.0 level, found {len(zero)}")
    else:
        errs += close(label, "0.0-level misfit", zero[0]["misfit_mean"], ref_misfit0, MISFIT_ATOL)
    if not non_decreasing([r["misfit_max"] for r in rows]):
        errs.append(f"{label}: misfit_max is not non-decreasing")
    return errs


# --- table ------------------------------------------------------------------


def check_table_row(label: str, row: dict, recorded_eps: float,
                    ref_misfit: float, ref_prob: float) -> list[str]:
    """One report.csv row against the oracle and the recorded misfit."""
    vals = {"eps_raw": row["eps_raw"], "eps_polished": row["eps_polished"], "P": row["P"]}
    if row["kind"] == "hm":
        vals["eps_avg"] = row["eps_avg"]
    errs = _finite(label, vals)
    if errs:
        return errs
    errs += close(label, "eps_raw", row["eps_raw"], ref_misfit, MISFIT_ATOL)
    if not row["eps_polished"] <= row["eps_raw"]:
        errs.append(f"{label}: eps_polished {row['eps_polished']!r} > eps_raw {row['eps_raw']!r}")
    if not row["eps_polished"] <= EPS_POLISH_FACTOR * recorded_eps:
        errs.append(f"{label}: eps_polished {row['eps_polished']!r} > "
                    f"{EPS_POLISH_FACTOR:g} x recorded {recorded_eps!r}")
    if not row["eps_raw"] <= EPS_RAW_MAX:
        errs.append(f"{label}: eps_raw {row['eps_raw']!r} > {EPS_RAW_MAX:g}")
    if row["kind"] == "hm" and not row["eps_avg"] <= EPS_AVG_MAX:
        errs.append(f"{label}: eps_avg {row['eps_avg']!r} > {EPS_AVG_MAX:g}")
    errs += close(label, "P", row["P"], ref_prob, PROB_ATOL)
    return errs


def evaluate_failure(exit_code: int, row: dict | None) -> str | None:
    """Why an `evaluate` operation produced no usable output, or None."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if row is None:
        return "no row.csv written"
    bad = [k for k in ("eps", "P", "eps_avg")
           if row.get(k) is not None and not math.isfinite(row[k])]
    if bad:
        return f"exit 0 with non-finite {', '.join(bad)}"
    return None


def check_evaluate(label: str, row: dict, ref_misfit: float, ref_prob: float) -> list[str]:
    """An `evaluate` row.csv against a reference misfit and P."""
    errs = close(label, "eps", row["eps"], ref_misfit, MISFIT_ATOL)
    errs += close(label, "P", row["P"], ref_prob, PROB_ATOL)
    return errs


def check_high_cutoff(label: str, row: dict, row_ref: dict) -> list[str]:
    """An `evaluate` at a high cutoff must reproduce P of the cutoff-100 run."""
    return close(label, "P", row["P"], row_ref["P"], CUTOFF_P_ATOL)


# --- pipeline ---------------------------------------------------------------


def check_efficiency_sweep(label: str, rows: list[dict], which: str, kind: str,
                           ideal_misfit: float, ideal_weight: float,
                           pn: np.ndarray | None) -> list[str]:
    """sweep.csv of an efficiency sweep.

    At eta = 1 the lossy pipeline must equal the ideal closed form; a
    signal-only loss leaves the herald weight unchanged; with SPD and loss
    on the detector the weight is the binomial thinning of the measured
    arm's photon-number distribution `pn`.
    """
    errs = []
    for r in rows:
        errs += _finite(f"{label} eta {r['sweep_var']}", r)
    if errs:
        return errs
    for r in rows:
        eta = r["sweep_var"]
        where = f"{label} eta {eta!r}"
        if not 0.0 <= r["misfit_mean"] <= 1.0 or not r["herald_weight"] > 0.0:
            errs.append(f"{where}: misfit {r['misfit_mean']!r} or weight "
                        f"{r['herald_weight']!r} out of range")
        if eta == 1.0:
            errs += close(where, "misfit", r["misfit_mean"], ideal_misfit, IDEAL_ATOL)
            errs += close(where, "weight", r["herald_weight"], ideal_weight, IDEAL_ATOL)
        if which == "signal":
            errs += close(where, "weight", r["herald_weight"], ideal_weight, THINNING_ATOL)
        if kind == "spd" and which in ("det", "both"):
            errs += close(where, "weight", r["herald_weight"], thinning_weight(pn, eta),
                           THINNING_ATOL)
    return errs


def check_oracle_point(label: str, oracle_amps: np.ndarray, oracle_weight: float,
                       closed_amps: np.ndarray, closed_weight: float) -> list[str]:
    """An oracle evaluation against the closed form of the same point."""
    errs = _finite(label, {"oracle_weight": oracle_weight, "closed_weight": closed_weight})
    if errs:
        return errs
    deficit = 1.0 - abs(np.vdot(closed_amps, oracle_amps))
    if not deficit <= OVERLAP_DEFICIT_MAX:
        errs.append(f"{label}: overlap deficit {deficit:.3e} above {OVERLAP_DEFICIT_MAX:g}")
    rel = abs(closed_weight - oracle_weight) / oracle_weight
    if not rel <= WEIGHT_RTOL:
        errs.append(f"{label}: weight relative error {rel:.3e} above {WEIGHT_RTOL:g}")
    return errs
