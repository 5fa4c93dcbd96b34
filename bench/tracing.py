"""Span tracing around heraldkit's public functions, from outside the package.

`Tracer.install()` replaces each function listed in `TRACED` by a timing
wrapper, in every `heraldkit` module that holds a reference to it, so that
callers which bound the name at import (`from .scheme import
conditional_output` in `heraldkit.optimizer`, say) also call the wrapper.
Spans (name, start, end, parent) are kept in flat in-memory arrays while
the workload runs; `per_layer()` turns them into the per-layer metrics and
`save()` writes them out when the workload ends.
"""
from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function, span name).  `_run_restart` is the GA's one-restart
# loop; it is traced only to count generations, and its self time counts
# as the optimizer's, so `optimizer.optimize.self_s` is all GA bookkeeping.
TRACED = (
    ("heraldkit.cli", "main", "cli.main"),
    ("heraldkit.states", "squeezed_coherent_amplitudes", "states.squeezed_coherent_amplitudes"),
    ("heraldkit.states", "target_state", "states.target_state"),
    ("heraldkit.scheme", "conditional_output", "scheme.conditional_output"),
    ("heraldkit.scheme", "misfit", "scheme.misfit"),
    ("heraldkit.scheme", "output_oracle", "scheme.output_oracle"),
    ("heraldkit.scheme", "success_prob_spd", "scheme.success_prob_spd"),
    ("heraldkit.scheme", "success_prob_hm", "scheme.success_prob_hm"),
    ("heraldkit.scheme", "average_misfit", "scheme.average_misfit"),
    ("heraldkit.scheme", "hm_outcome_density", "scheme.hm_outcome_density"),
    ("heraldkit.scheme", "embedded_two_mode_state", "scheme.embedded_two_mode_state"),
    ("heraldkit.fock", "beam_splitter_apply", "fock.beam_splitter_apply"),
    ("heraldkit.fock", "sector_unitary", "fock.sector_unitary"),
    ("heraldkit.fock", "project_quadrature", "fock.project_quadrature"),
    ("heraldkit.fock", "hermite_sequence", "fock.hermite_sequence"),
    ("heraldkit.imperfections", "conditional_output_lossy",
     "imperfections.conditional_output_lossy"),
    ("heraldkit.imperfections", "loss_channel", "imperfections.loss_channel"),
    ("heraldkit.imperfections", "sweep_parameter_deviation",
     "imperfections.sweep_parameter_deviation"),
    ("heraldkit.optimizer", "optimize", "optimizer.optimize"),
    ("heraldkit.optimizer", "_run_restart", "optimizer.restart"),
    ("heraldkit.optimizer", "local_polish", "optimizer.local_polish"),
)

# Per-layer metrics: name -> (unit, how it is derived).  Counts and
# seconds are per round of the workload, so runs of different lengths
# compare directly; per-call times are inclusive of callees.
PER_LAYER = {
    "states.squeezed_coherent_amplitudes.calls": ("count", "calls"),
    "states.squeezed_coherent_amplitudes.us_per_call": ("us", "per_call"),
    "states.target_state.ms_per_call": ("ms", "per_call"),
    "scheme.conditional_output.calls": ("count", "calls"),
    "scheme.conditional_output.us_per_call": ("us", "per_call"),
    "scheme.misfit.us_per_call": ("us", "per_call"),
    "scheme.output_oracle.calls_in_search": ("count", "fallbacks"),
    "scheme.success_prob_spd.us_per_call": ("us", "per_call"),
    "scheme.success_prob_hm.ms_per_call": ("ms", "per_call"),
    "scheme.average_misfit.ms_per_call": ("ms", "per_call"),
    "scheme.hm_outcome_density.ms_per_call": ("ms", "per_call"),
    "scheme.output_oracle.ms_per_call": ("ms", "per_call"),
    "scheme.embedded_two_mode_state.ms_per_call": ("ms", "per_call"),
    "fock.beam_splitter_apply.ms_per_call": ("ms", "per_call"),
    "fock.sector_unitary.calls": ("count", "calls"),
    "fock.sector_unitary.self_s": ("s", "self"),
    "fock.project_quadrature.us_per_call": ("us", "per_call"),
    "fock.hermite_sequence.calls": ("count", "calls"),
    "imperfections.conditional_output_lossy.ms_per_call": ("ms", "per_call"),
    "imperfections.loss_channel.ms_per_call": ("ms", "per_call"),
    "imperfections.sweep_parameter_deviation.self_s": ("s", "self"),
    "optimizer.optimize.self_s": ("s", "self"),
    "optimizer.generation_ms": ("ms", "generation"),
    "optimizer.local_polish.nfev": ("count", "nfev"),
    "optimizer.local_polish.self_s": ("s", "self"),
    "cli.main.self_s": ("s", "self"),
}

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


class Tracer:
    def __init__(self):
        self.names: list[str] = [name for _, _, name in TRACED]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        # 1 for a conditional_output span on the closed route
        self.closed = array("b")
        self.generations = 0
        self.nfev = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, idx: int, name: str):
        name_id, start, end, parent, closed = (
            self.name_id, self.start, self.end, self.parent, self.closed)
        stack = self._stack
        clock = time.perf_counter
        is_output = name == "scheme.conditional_output"
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            if is_output:
                method = kwargs.get("method", args[2] if len(args) > 2 else "closed")
                closed.append(1 if method == "closed" else 0)
            else:
                closed.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if name == "optimizer.restart":
                tracer.generations += args[3].generations
            elif name == "optimizer.local_polish":
                prior = getattr(args[0], "evaluations_count", 0)
                tracer.nfev += result.evaluations_count - prior - 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every traced function wherever a heraldkit module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "heraldkit" or n.startswith("heraldkit.")) and m is not None]
        for idx, (mod_name, fn_name, span) in enumerate(TRACED):
            fn = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(fn, idx, span)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._restore.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def _arrays(self):
        ids = np.array(self.name_id, dtype=np.int32)
        t0 = np.array(self.start, dtype=np.float64)
        t1 = np.array(self.end, dtype=np.float64)
        par = np.array(self.parent, dtype=np.int32)
        return ids, t0, t1, par

    def per_layer(self, rounds: int) -> dict:
        """Every PER_LAYER metric, from the recorded spans."""
        ids, t0, t1, par = self._arrays()
        dur = t1 - t0
        n_names = len(self.names)
        has_parent = par >= 0
        child_time = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(ids, minlength=n_names)
        incl = np.bincount(ids, weights=dur, minlength=n_names)
        selfs = np.bincount(ids, weights=dur - child_time, minlength=n_names)
        restart = self.names.index("optimizer.restart")
        selfs[self.names.index("optimizer.optimize")] += selfs[restart]
        # closed-route conditional_output calls that fell back to the oracle
        closed = np.array(self.closed, dtype=np.int8)
        up = par[ids == self.names.index("scheme.output_oracle")]
        up = up[up >= 0]
        fallback = int(np.sum((ids[up] == self.names.index("scheme.conditional_output"))
                              & (closed[up] == 1)))

        out = {}
        for metric, (unit, kind) in PER_LAYER.items():
            layer = metric.rsplit(".", 1)[0]
            i = self.names.index(layer) if layer in self.names else None
            if kind == "calls":
                value = calls[i] / rounds
            elif kind == "per_call":
                value = incl[i] / calls[i] * _SCALE[unit] if calls[i] else 0.0
            elif kind == "self":
                value = selfs[i] / rounds
            elif kind == "fallbacks":
                value = fallback / rounds
            elif kind == "generation":
                value = (incl[restart] / self.generations * 1e3) if self.generations else 0.0
            elif kind == "nfev":
                value = self.nfev / rounds
            out[metric] = {"value": float(value), "unit": unit}
        return out

    def save(self, path: Path) -> None:
        ids, t0, t1, par = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=ids,
                            start=t0, end=t1, parent=par)
