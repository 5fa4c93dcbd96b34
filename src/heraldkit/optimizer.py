"""Seeded genetic-algorithm search over scheme parameters, and its polish.

The search vector concatenates the eight input-state parameters with the
beam-splitter transmittance, and for quadrature conditioning also the
outcome x and the phase lam.  Angle dimensions live on [0, 2*pi) and use
wrapped arithmetic in crossover and mutation, so 0 and 2*pi are the same
point and the boundary attracts nothing.  Bounded dimensions reflect
off their limits during mutation instead of clipping, which keeps the
population strictly inside the box almost surely.

Each generation is scored in one call: objective_batch sends the whole
population (the initial one, then each generation's children) through the
exact Gaussian core (scheme.conditional_output_batch), which keeps the
inputs whole and costs O(cutoff) per point.  The random draws of a
generation do not depend on how it is scored, so a seed means the same
search either way.  The Nelder-Mead polish minimizes the same core
misfit, one point at a time in Python complex arithmetic
(scheme._core_misfit: the batch's formulas with no numpy call, so no
evaluation builds an array, a SchemeParams or a FockVector).  Every
reported number comes from the scalar route, which truncates the inputs
at the cutoff: the final scoring, and the polish's start and end points,
scheme.misfit(scheme.conditional_output(params, cutoff,
check_input_tail=False), target), of which the polish keeps the lower.

optimize(target, kind, bounds=None, mask=None, cfg=None, *,
window_halfwidth=0.0, polish_iters=0, ...) runs the GA and then, with
polish_iters > 0, local_polish on its best point within the same Bounds
and FixedMask.  It takes kind as "spd" or "hm" and the HM acceptance
halfwidth only from window_halfwidth, checked before the search (a
positive one with "spd" is refused).
objective_batch(V, target, cutoff) reads the kind of the rows of V from
their width, as scheme.conditional_output_batch does.  A Bounds holds only
its lower and upper limits: its width gives the dimension names and the
periodic flags, the angle entries of the flat layout (scheme._ANGLES).
_DIM_BOUNDS holds the default box, with the T and x ranges of scheme.

Search runs at a reduced cutoff; the returned best point is scored at
the full cutoff so the reported numbers carry no truncation shortcut.
All randomness derives from a single seed through spawned generators, one
per restart, so a (config, seed, target) triple fixes the result exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tolerances as tol
from .fock import FockVector
from .scheme import (
    HM_LAYOUT,
    SchemeParams,
    _ANGLES,
    _T_RANGE,
    _TWO_PI,
    _X_RANGE,
    _core_misfit,
    _is_hm,
    conditional_output,
    conditional_output_batch,
    layout_for_kind,
    misfit,
    misfit_batch,
    params_to_vector,
    score,
    vector_to_params,
)
from .states import TargetSpec, target_state

_DIM_BOUNDS = {
    "r1": (0.0, 1.7),
    "r2": (0.0, 1.7),
    "alpha1": (0.0, 4.0),
    "alpha2": (0.0, 4.0),
    "theta1": (0.0, _TWO_PI),
    "theta2": (0.0, _TWO_PI),
    "phi1": (0.0, _TWO_PI),
    "phi2": (0.0, _TWO_PI),
    "T": _T_RANGE,
    "x": _X_RANGE,
    "lam": (0.0, _TWO_PI),
}


@dataclass(frozen=True)
class Bounds:
    """Per-dimension search box over a flat layout.

    The width, 9 (SPD) or 11 (HM), gives the dimension names and which of
    them are periodic angles.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("bounds field lengths disagree")
        _is_hm(len(self.lower))  # raises unless the width is a layout's
        for name, lo, hi in zip(self.names, self.lower, self.upper):
            if not lo < hi:
                raise ValueError(f"{name}: empty range [{lo}, {hi}]")

    @property
    def names(self) -> tuple[str, ...]:
        return HM_LAYOUT[: len(self.lower)]

    @property
    def periodic(self) -> tuple[bool, ...]:
        return tuple(_ANGLES[: len(self.lower)].tolist())

    @classmethod
    def for_kind(cls, kind: str) -> "Bounds":
        lo, hi = zip(*(_DIM_BOUNDS[n] for n in layout_for_kind(kind)))
        return cls(lo, hi)

    def check_pin(self, name: str, value: float) -> None:
        """Raise ValueError unless value lies in the range of dimension name."""
        i = self.names.index(name)
        lo, hi = self.lower[i], self.upper[i]
        if not lo <= value <= hi:
            raise ValueError(f"pinned {name}={value} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class FixedMask:
    """Optional pinned value per dimension; pinned dims never move."""

    values: tuple[float | None, ...]

    @classmethod
    def free(cls, kind: str) -> "FixedMask":
        return cls((None,) * len(layout_for_kind(kind)))

    @classmethod
    def pin(cls, kind: str, **by_name: float) -> "FixedMask":
        names = layout_for_kind(kind)
        unknown = set(by_name) - set(names)
        if unknown:
            raise ValueError(f"unknown dimensions {sorted(unknown)}")
        return cls(tuple(by_name.get(n) for n in names))


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 200
    generations: int = 500
    tournament_size: int = 4
    crossover_rate: float = 0.9
    mutation_sigma_fraction: float = 0.05
    elitism_count: int = 2
    restarts: int = 4
    seed: int = 1

    def __post_init__(self):
        for name in ("population_size", "generations", "tournament_size", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be a positive integer")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover_rate={self.crossover_rate} must lie in [0, 1]")
        if self.mutation_sigma_fraction < 0.0:
            raise ValueError(f"mutation_sigma_fraction={self.mutation_sigma_fraction} must be >= 0")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError(
                f"elitism_count={self.elitism_count} must be non-negative and below "
                f"population_size={self.population_size}"
            )


@dataclass(frozen=True)
class OptimizationResult:
    best_params: SchemeParams
    best_misfit: float
    success_prob: float
    eps_avg: float | None
    trace: tuple[float, ...]
    seed: int
    evaluations_count: int


def _target_vector(target: TargetSpec | FockVector, cutoff: int) -> FockVector:
    if isinstance(target, FockVector):
        if target.cutoff != cutoff:
            raise ValueError(
                f"target cutoff {target.cutoff} does not match evaluation cutoff {cutoff}"
            )
        return target
    # The search pipeline must be total over the whole box, so targets are
    # materialized without the truncation-quality guard.
    return target_state(target, cutoff, check_tail=False)


def objective_batch(V: np.ndarray, target: TargetSpec | FockVector, cutoff: int) -> np.ndarray:
    """Misfit of every row of V, a stack of flat search vectors of one kind
    (9 entries for SPD, 11 for HM), in one call.

    The rows go through the exact Gaussian core
    (scheme.conditional_output_batch), which keeps the inputs whole and
    truncates only the output.  Where the input tails above the cutoff
    vanish, row i equals misfit(conditional_output(vector_to_params(V[i]),
    cutoff, check_input_tail=False), target) up to rounding; elsewhere the
    two differ by about the input tail mass, because that route truncates
    the inputs.  The call raises wherever one of those would.
    """
    states, _ = conditional_output_batch(V, cutoff)
    return misfit_batch(states, _target_vector(target, cutoff))


def _reflect_into(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Fold values into [lo, hi] by reflection at both walls."""
    span = hi - lo
    w = np.mod(v - lo, 2.0 * span)
    return lo + np.minimum(w, 2.0 * span - w)


def _run_restart(
    evaluate, bounds: Bounds, mask: FixedMask, cfg: GAConfig, rng: np.random.Generator
) -> tuple[np.ndarray, float, list[float], int]:
    lo = np.asarray(bounds.lower)
    hi = np.asarray(bounds.upper)
    per = np.asarray(bounds.periodic)
    hard = ~per
    span = hi - lo
    sigma = cfg.mutation_sigma_fraction * span
    pinned = np.array([v is not None for v in mask.values])
    pin_vals = np.array([v if v is not None else 0.0 for v in mask.values])

    pop = lo + rng.uniform(size=(cfg.population_size, lo.size)) * span
    pop[:, pinned] = pin_vals[pinned]
    fit = evaluate(pop)
    evals = cfg.population_size
    gen_best: list[float] = []

    n_child = cfg.population_size - cfg.elitism_count
    for _ in range(cfg.generations):
        order = np.argsort(fit, kind="stable")
        elites = pop[order[: cfg.elitism_count]].copy()
        elite_fit = fit[order[: cfg.elitism_count]].copy()

        # One batched draw per generation keeps the stream layout fixed.
        t_idx = rng.integers(0, cfg.population_size, size=(n_child, 2, cfg.tournament_size))
        coin = rng.uniform(size=n_child)
        blend = rng.uniform(size=(n_child, lo.size))
        noise = rng.standard_normal(size=(n_child, lo.size))

        cand_fit = fit[t_idx]
        winners = np.take_along_axis(
            t_idx, np.argmin(cand_fit, axis=2)[:, :, None], axis=2
        )[:, :, 0]
        p1 = pop[winners[:, 0]]
        p2 = pop[winners[:, 1]]

        delta = p2 - p1
        delta[:, per] = np.mod(delta[:, per] + np.pi, _TWO_PI) - np.pi
        children = p1 + np.where(coin[:, None] < cfg.crossover_rate, blend, 0.0) * delta
        children = children + sigma * noise
        children[:, per] = np.mod(children[:, per], _TWO_PI)
        children[:, hard] = _reflect_into(children[:, hard], lo[hard], hi[hard])
        children[:, pinned] = pin_vals[pinned]

        child_fit = evaluate(children)
        evals += n_child
        pop = np.vstack([elites, children])
        fit = np.concatenate([elite_fit, child_fit])
        gen_best.append(float(fit.min()))

    best = int(np.argmin(fit))
    return pop[best].copy(), float(fit[best]), gen_best, evals


def _box_and_mask(
    kind: str, bounds: Bounds | None, mask: FixedMask | None
) -> tuple[Bounds, FixedMask]:
    """The search box and the pins of one kind, the defaults where not given."""
    bounds = bounds if bounds is not None else Bounds.for_kind(kind)
    mask = mask if mask is not None else FixedMask.free(kind)
    if not len(bounds.lower) == len(mask.values) == len(layout_for_kind(kind)):
        raise ValueError("bounds or mask layout does not match the measurement kind")
    return bounds, mask


def optimize(
    target: TargetSpec | FockVector,
    kind: str,
    bounds: Bounds | None = None,
    mask: FixedMask | None = None,
    cfg: GAConfig | None = None,
    *,
    window_halfwidth: float = 0.0,
    polish_iters: int = 0,
    search_cutoff: int = tol.SEARCH_CUTOFF,
    final_cutoff: int = tol.DEFAULT_CUTOFF,
) -> OptimizationResult:
    """Genetic-algorithm minimization of the conditional-output misfit,
    then an optional simplex polish of the best point.

    kind is "spd" or "hm"; window_halfwidth is the HM acceptance
    halfwidth (finite and >= 0, and 0 for SPD; checked before the
    search).  Tournament selection, blend crossover (shortest-arc on
    angles), Gaussian mutation with per-dimension sigma equal to
    mutation_sigma_fraction times the range, elitism, and independent
    restarts keeping the overall best.  The trace is the running best
    misfit over all generations of all restarts, so it is monotone by
    construction.

    With polish_iters > 0 the best point goes through local_polish at
    final_cutoff for at most that many iterations, on the same bounds and
    mask, and the evaluation count adds the polish's.  The final point is
    scored once, at final_cutoff; for quadrature conditioning with a
    positive window halfwidth the success probability integrates over the
    acceptance window and eps_avg is the window-averaged misfit, otherwise
    the probability density at x is reported.
    """
    if not 0.0 <= window_halfwidth < np.inf:
        raise ValueError(f"window_halfwidth={window_halfwidth} must be finite and >= 0")
    if kind == "spd" and window_halfwidth > 0.0:
        raise ValueError(f"window_halfwidth={window_halfwidth} applies to hm only")
    bounds, mask = _box_and_mask(kind, bounds, mask)
    cfg = cfg if cfg is not None else GAConfig()
    for name, v in zip(bounds.names, mask.values):
        if v is not None:
            bounds.check_pin(name, v)

    tgt_search = _target_vector(target, search_cutoff)

    def evaluate(pop: np.ndarray) -> np.ndarray:
        return objective_batch(pop, tgt_search, search_cutoff)

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_vec: np.ndarray | None = None
    best_val = np.inf
    all_gen_best: list[float] = []
    evals = 0
    for child in children:
        vec, val, gen_best, n = _run_restart(
            evaluate, bounds, mask, cfg, np.random.default_rng(child)
        )
        all_gen_best.extend(gen_best)
        evals += n
        if val < best_val:
            best_val = val
            best_vec = vec

    trace = tuple(np.minimum.accumulate(all_gen_best))
    best_params = vector_to_params(best_vec, window_halfwidth)
    tgt_final = _target_vector(target, final_cutoff)
    if polish_iters > 0:
        polished = local_polish(best_params, tgt_final, final_cutoff, polish_iters, mask, bounds)
        return replace(polished, trace=trace, seed=cfg.seed,
                       evaluations_count=evals + polished.evaluations_count)
    _, eps, prob, eps_avg = score(best_params, tgt_final, final_cutoff, check_input_tail=False)
    return OptimizationResult(
        best_params=best_params,
        best_misfit=eps,
        success_prob=prob,
        eps_avg=eps_avg,
        trace=trace,
        seed=cfg.seed,
        evaluations_count=evals,
    )


def local_polish(
    params: SchemeParams,
    target: TargetSpec | FockVector,
    cutoff: int = tol.DEFAULT_CUTOFF,
    max_iters: int = 400,
    mask: FixedMask | None = None,
    bounds: Bounds | None = None,
) -> OptimizationResult:
    """Derivative-free simplex descent from one point.

    Runs Nelder-Mead on the dimensions mask leaves free, keeping bounded
    dimensions inside bounds (Bounds.for_kind by default) and leaving
    angles free to cross the 0/2*pi seam (they are wrapped on assembly).
    The simplex minimizes the misfit of the exact Gaussian core, the
    function the GA minimizes, one point at a time in Python complex
    arithmetic (scheme._core_misfit).  The reported misfit is that of the
    truncated route, misfit(conditional_output(p, cutoff,
    check_input_tail=False), target), and the simplex's end point is kept
    only if its reported misfit is lower than the start's, so the polished
    misfit never exceeds the starting one.  With every dimension pinned
    there is no simplex and the start is kept.  The result is scored at
    the cutoff; its trace is the reported misfit before and after, its
    seed 0 and its evaluation count the simplex's plus one.
    """
    full, kind, whw = params_to_vector(params)
    bounds, mask = _box_and_mask(kind, bounds, mask)
    free = np.array([v is None for v in mask.values])
    full[~free] = [v for v in mask.values if v is not None]
    tgt = _target_vector(target, cutoff)

    def assemble(x: np.ndarray) -> SchemeParams:
        w = full.copy()
        w[free] = x
        return vector_to_params(w, whw)

    def reported_misfit(p: SchemeParams) -> float:
        return misfit(conditional_output(p, cutoff, check_input_tail=False), tgt)

    x0 = full[free]
    best_params = assemble(x0)  # rejects a pin outside the parameter ranges
    eps_start = eps_here = reported_misfit(best_params)
    nfev = 0
    if free.any():
        core_misfit = _core_misfit(tgt)

        def fun(x: np.ndarray) -> float:
            w = full.copy()
            w[free] = x
            return core_misfit(w.tolist())

        # imported here, so commands that never polish never load it
        from scipy.optimize import minimize

        nm_bounds = [
            (-np.inf, np.inf) if p else (lo, hi)
            for lo, hi, p, f in zip(bounds.lower, bounds.upper, bounds.periodic, free)
            if f
        ]
        res = minimize(
            fun,
            x0,
            method="Nelder-Mead",
            bounds=nm_bounds,
            options={"maxiter": max_iters, "xatol": 1e-10, "fatol": 1e-14},
        )
        nfev = int(res.nfev)
        end = assemble(res.x)
        eps_end = reported_misfit(end)
        if eps_end < eps_start:
            best_params, eps_here = end, eps_end

    _, eps, prob, eps_avg = score(best_params, tgt, cutoff, check_input_tail=False)
    return OptimizationResult(
        best_params=best_params,
        best_misfit=eps,
        success_prob=prob,
        eps_avg=eps_avg,
        trace=(eps_start, eps_here),
        seed=0,
        evaluations_count=nfev + 1,
    )
