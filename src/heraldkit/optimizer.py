"""Seeded genetic-algorithm search over scheme parameters, and its polish.

The search vector concatenates the eight input-state parameters with the
beam-splitter transmittance, and for quadrature conditioning also the
outcome x and the phase lam.  Angle dimensions live on [0, 2*pi) and use
wrapped arithmetic in crossover and mutation, so 0 and 2*pi are the same
point and the boundary attracts nothing.  Bounded dimensions reflect
off their limits during mutation instead of clipping, which keeps the
population strictly inside the box almost surely.

Each generation is scored in one call of scheme._core_misfit_batch(
target), built once per search, on the exact Gaussian core: the inputs
kept whole, the output's norm in closed form and its overlap read up to
the target's last nonzero amplitude K, so a finite target scores the same
at any search cutoff.  The random draws of a generation do not depend on
how it is scored, so a seed means the same search either way.  The
polish minimizes the same misfit, with its exact gradient, one point at
a time in Python complex arithmetic (scheme._core_misfit, no numpy call),
by a projected BFGS descent (_descend) on small numpy arrays.  It moves
each input in its Bargmann coordinates (_chart): a free (r, theta) or
(|alpha|, phi) pair as the real and imaginary parts of s = e^{i theta}
tanh r or of alpha, which the core is linear and bilinear in, held in
the disk of its limits by radial projection.  Polar coordinates are
singular at r = 0 and |alpha| = 0, and the descent crawled near them.
The polish compares its start and end points by the misfit of the scalar
route, which truncates the inputs at the cutoff, scheme.misfit(
scheme.conditional_output(params, cutoff, check_input_tail=False),
target), keeps the lower and reports it in a PolishResult.

optimize(target, bounds, cfg=None, *, window_halfwidth=0.0,
polish_iters=0, ...) runs the GA, then, with polish_iters > 0,
local_polish on its best point within the same Bounds, and then scores
the final point once with scheme.score on the scalar route, at the full
cutoff, so the reported numbers carry no search shortcut.  One Bounds
states the whole search space: its width, 9 (SPD) or 11 (HM), gives the
measurement kind, the dimension names and the periodic flags (the angle
entries of the flat layout, scheme._ANGLES); its limits bound each
dimension, and a dimension whose two limits are equal is pinned there.
The HM acceptance halfwidth comes only from window_halfwidth, checked
before the search (a positive one on an SPD box is refused).
_DIM_BOUNDS holds the default box, with the T and x ranges of scheme;
Bounds refuses limits the search cannot honour before any evaluation.

All randomness derives from a single seed through spawned generators, one
per restart, so a (config, seed, target) triple fixes the result exactly.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import NormalizationError
from .fock import FockVector
from .scheme import (
    HM_LAYOUT,
    SchemeParams,
    _ANGLES,
    _bargmann_point,
    _T_RANGE,
    _TWO_PI,
    _X_RANGE,
    _core_misfit,
    _core_misfit_batch,
    _interval,
    _is_hm,
    conditional_output,
    layout_for_kind,
    misfit,
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


def _largest_r() -> float:
    """The largest r whose tanh rounds below 1, the largest squeezing the
    polish's chart s = e^{i theta} tanh r can hold.  1 - tanh r = 2 /
    (e^{2r} + 1) reaches half the spacing of the doubles below 1, 2^-54,
    near r = 27.5 ln 2 (about 19.06); the steps from there settle on the
    rounding of math.tanh itself."""
    r = 27.5 * math.log(2.0)
    while math.tanh(r) >= 1.0:
        r = math.nextafter(r, 0.0)
    while math.tanh(math.nextafter(r, math.inf)) < 1.0:
        r = math.nextafter(r, math.inf)
    return r


_R_MAX = _largest_r()


def _limits_fault(name: str, lo: float, hi: float) -> str | None:
    """Why [lo, hi] cannot bound dimension name, or None if it can: a limit
    that is not finite, a reversed range, a limit outside the parameter
    range (T and x within their ranges, r and |alpha| at least 0, r at
    most _R_MAX, where the polish's chart ends, and |alpha| with no cap
    above), or angle limits other than [0, 2*pi) that do not pin the
    angle.  Equal limits pin the dimension."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return f"limits [{lo}, {hi}] not finite"
    if lo > hi:
        return f"empty range [{lo}, {hi}]"
    if name in ("T", "x"):
        floor, ceiling = _DIM_BOUNDS[name]
        if not (floor <= lo and hi <= ceiling):
            return f"[{lo}, {hi}] outside {_interval(_DIM_BOUNDS[name])}"
    elif name[:-1] in ("r", "alpha"):
        if lo < 0.0:
            return f"lower limit {lo} below 0"
        if name[0] == "r" and hi > _R_MAX:
            return f"upper limit {hi} above {_R_MAX!r}, the largest r whose tanh rounds below 1"
    elif lo < hi and (lo, hi) != (0.0, _TWO_PI):  # the rest are angles
        return "angle bounds are fixed at [0, 2*pi)"
    return None


@dataclass(frozen=True)
class Bounds:
    """Per-dimension search box over a flat layout.

    The width, 9 (SPD) or 11 (HM), gives the dimension names and which of
    them are periodic angles.  A dimension whose limits are equal is
    pinned at that value.  Limits the search cannot honour (_limits_fault)
    raise ValueError "<dimension>: <why>".
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("bounds field lengths disagree")
        _is_hm(len(self.lower))  # raises unless the width is a layout's
        for name, lo, hi in zip(self.names, self.lower, self.upper):
            fault = _limits_fault(name, lo, hi)
            if fault:
                raise ValueError(f"{name}: {fault}")

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

    def pin(self, name: str, value: float) -> "Bounds":
        """This box with dimension name pinned at value, which must lie
        within the dimension's limits."""
        if name not in self.names:
            raise ValueError(f"unknown dimension {name!r}")
        i = self.names.index(name)
        lo, hi = self.lower[i], self.upper[i]
        if not lo <= value <= hi:
            raise ValueError(f"pinned {name}={value} outside [{lo}, {hi}]")
        lower, upper = list(self.lower), list(self.upper)
        lower[i] = upper[i] = value
        return Bounds(tuple(lower), tuple(upper))


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


class PolishResult(NamedTuple):
    """A polished point and its reported misfit; trace is that misfit
    before and after the polish."""

    best_params: SchemeParams
    best_misfit: float
    trace: tuple[float, float]
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


def _reflect_into(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Fold values into [lo, hi] by reflection at both walls."""
    span = hi - lo
    w = np.mod(v - lo, 2.0 * span)
    return lo + np.minimum(w, 2.0 * span - w)


def _run_restart(
    evaluate, lo: np.ndarray, hi: np.ndarray, cfg: GAConfig, rng: np.random.Generator
) -> tuple[np.ndarray, float, list[float], int]:
    per = _ANGLES[: lo.size]
    pinned = lo == hi
    hard = ~per & ~pinned  # a zero span cannot reflect
    span = hi - lo
    sigma = cfg.mutation_sigma_fraction * span

    pop = lo + rng.uniform(size=(cfg.population_size, lo.size)) * span
    pop[:, pinned] = lo[pinned]
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
        children[:, pinned] = lo[pinned]

        child_fit = evaluate(children)
        evals += n_child
        pop = np.vstack([elites, children])
        fit = np.concatenate([elite_fit, child_fit])
        gen_best.append(float(fit.min()))

    best = int(np.argmin(fit))
    return pop[best].copy(), float(fit[best]), gen_best, evals


def optimize(
    target: TargetSpec | FockVector,
    bounds: Bounds,
    cfg: GAConfig | None = None,
    *,
    window_halfwidth: float = 0.0,
    polish_iters: int = 0,
    search_cutoff: int = tol.SEARCH_CUTOFF,
    final_cutoff: int = tol.DEFAULT_CUTOFF,
) -> OptimizationResult:
    """Genetic-algorithm minimization of the conditional-output misfit,
    then an optional gradient polish of the best point.

    The width of bounds gives the measurement kind, and its pinned
    dimensions (equal limits) never move; window_halfwidth is the HM
    acceptance halfwidth (finite and >= 0, and 0 for SPD; checked before
    the search).  Tournament selection, blend crossover (shortest-arc on
    angles), Gaussian mutation with per-dimension sigma equal to
    mutation_sigma_fraction times the range, elitism, and independent
    restarts keeping the overall best, against the target built at
    search_cutoff.  The trace is the running best misfit over all
    generations of all restarts, so it is monotone by construction.

    With polish_iters > 0 the best point goes through local_polish at
    final_cutoff for at most that many iterations, in the same bounds,
    and the evaluation count adds the polish's.  The final point is
    scored once, at final_cutoff; for quadrature conditioning with a
    positive window halfwidth the success probability integrates over the
    acceptance window and eps_avg is the window-averaged misfit, otherwise
    the probability density at x is reported.
    """
    if not 0.0 <= window_halfwidth < np.inf:
        raise ValueError(f"window_halfwidth={window_halfwidth} must be finite and >= 0")
    if window_halfwidth > 0.0 and not _is_hm(len(bounds.lower)):
        raise ValueError(f"window_halfwidth={window_halfwidth} applies to hm only")
    cfg = cfg if cfg is not None else GAConfig()
    lo, hi = np.asarray(bounds.lower), np.asarray(bounds.upper)

    search_misfit = _core_misfit_batch(_target_vector(target, search_cutoff))

    def evaluate(pop: np.ndarray) -> np.ndarray:
        return search_misfit(pop)[0]

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_vec: np.ndarray | None = None
    best_val = np.inf
    all_gen_best: list[float] = []
    evals = 0
    for child in children:
        vec, val, gen_best, n = _run_restart(evaluate, lo, hi, cfg, np.random.default_rng(child))
        all_gen_best.extend(gen_best)
        evals += n
        if val < best_val:
            best_val = val
            best_vec = vec

    trace = tuple(np.minimum.accumulate(all_gen_best))
    best_params = vector_to_params(best_vec, window_halfwidth)
    tgt_final = _target_vector(target, final_cutoff)
    if polish_iters > 0:
        polished = local_polish(best_params, tgt_final, final_cutoff, polish_iters, bounds)
        best_params = polished.best_params
        evals += polished.evaluations_count
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


def _descend(
    fun: Callable[[list[float]], tuple[float, list[float]]],
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray, max_iters: int,
    disks: tuple[tuple[int, float, float], ...],
) -> tuple[np.ndarray, int]:
    """Minimize fun, which maps a list of floats to its value and gradient,
    over the box [lo, hi] (infinite limits on unbounded entries) and the
    annuli of disks by a projected BFGS descent from x; the end point and
    the calls of fun.  A disk (i, inner, outer) holds the pair of entries
    i and i + 1 at a radius in [inner, outer], by radial projection.

    Each iteration holds the entries at a limit of the box the gradient
    pushes against, steps the others along the quasi-Newton direction of
    the free block of the Hessian estimate (the gradient, its largest
    entry cut to 0.1, at the start and after a step that is not a
    descent), projects the trial into the box and the annuli and
    backtracks by safeguarded quadratic interpolation until the value
    falls by the Armijo fraction 1e-4 of the slope.  A trial on which fun
    raises NormalizationError is rejected like one that rises.  It stops
    after max_iters iterations, once no free gradient entry exceeds
    1e-12, when 30 trials lower nothing, or when a step lowers the value
    by at most 1e-10 of itself.  At 9 to 11 entries a numpy call costs
    more than its arithmetic, so scalars stay Python floats and the
    entries that have a limit are checked one by one.
    """
    bounded = [(i, float(lo[i]), float(hi[i])) for i in range(x.size)
               if lo[i] > -math.inf or hi[i] < math.inf]

    def project(v: np.ndarray) -> np.ndarray:
        v = np.minimum(np.maximum(v, lo), hi)
        for i, inner, outer in disks:
            radius = math.hypot(v[i], v[i + 1])
            if radius > outer or radius < inner:
                if radius == 0.0:
                    v[i] = inner
                else:
                    v[i:i + 2] *= min(outer, max(inner, radius)) / radius
        return v

    x = project(x)
    f, g_list = fun(x.tolist())
    g = np.array(g_list)
    calls = 1
    inv_h = None  # the inverse Hessian estimate, from the first curvature pair
    for _ in range(max_iters):
        held = [i for i, low, high in bounded
                if (g_list[i] > 0.0 and x[i] <= low) or (g_list[i] < 0.0 and x[i] >= high)]
        g_free = g
        if held:
            g_free = g.copy()
            g_free[held] = 0.0
        if not max(map(abs, g_free.tolist())) > 1e-12:
            break
        if inv_h is None:
            step = -g_free
        elif held:  # invert the free block: the Schur complement of the held one
            keep = np.ones(x.size, dtype=bool)
            keep[held] = False
            h_fa = inv_h[np.ix_(keep, held)]
            step = np.zeros(x.size)
            step[keep] = -(inv_h[np.ix_(keep, keep)] - h_fa @ np.linalg.solve(
                inv_h[np.ix_(held, held)], h_fa.T)) @ g[keep]
        else:
            step = -(inv_h @ g)
        if not g_free @ step < 0.0:
            inv_h, step = None, -g_free
        t = 1.0 if inv_h is not None else min(1.0, 0.1 / float(np.abs(step).max()))
        for _ in range(30):
            trial = project(x + t * step)
            moved = trial - x
            if not moved.any():
                return x, calls
            slope = float(g @ moved)
            calls += 1
            try:
                f_new, g_list = fun(trial.tolist())
            except NormalizationError:
                f_new = math.inf
            if f_new < f and f_new <= f + 1e-4 * slope:
                break
            # to the minimum of the quadratic through f, slope and f_new
            curve = f_new - f - slope
            t *= min(0.5, max(0.1, -0.5 * slope / curve)) if 0.0 < curve < math.inf else 0.5
        else:
            break
        g_new = np.array(g_list)
        y = g_new - g
        sy, yy = float(moved @ y), float(y @ y)
        if sy > 1e-12 * math.sqrt(float(moved @ moved) * yy):
            if inv_h is None:
                inv_h = np.eye(x.size) * (sy / yy)
            hy = inv_h @ y
            u = ((0.5 + 0.5 * float(y @ hy) / sy) * moved - hy) * (1.0 / sy)
            v = u[:, None] * moved  # the BFGS update H + u m^T + m u^T
            inv_h += v
            inv_h += v.T
        progress = f - f_new > 1e-10 * f
        x, f, g = trial, f_new, g_new
        if not progress:
            break
    return x, calls


class _Chart(NamedTuple):
    """The polish's coordinates for one box and start: the descent's
    variables at the start, their box (infinite limits on angles and on
    the pairs in Bargmann coordinates), the annuli (first entry, inner and
    outer radius) that hold those pairs, the misfit with its gradient over
    the variables, and the map from variables to a flat point in the box."""

    start: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    disks: tuple[tuple[int, float, float], ...]
    fun: Callable[[list[float]], tuple[float, list[float]]]
    flat: Callable[[np.ndarray], np.ndarray]


# Each input's (radius, angle) pairs in the flat layout, by the radius's
# index, and whether the pair is the squeezing, s = e^{i theta} tanh r,
# rather than the displacement alpha = |alpha| e^{i phi}.
_PAIRS = ((0, True), (2, False), (4, True), (6, False))


def _chart(full: np.ndarray, bounds: Bounds, core_misfit) -> _Chart:
    """The descent's coordinates over the free entries of the flat point
    full in bounds, for core_misfit (scheme._core_misfit).

    A pair whose two entries are free moves as the real and imaginary
    parts of s_j or alpha_j, the core's own coordinates, in the annulus
    tanh(r limits) or |alpha| limits, so r = 0 and |alpha| = 0 are
    ordinary points.  A pair with a pinned entry moves its free entry in
    polar form, through the Jacobian of s or alpha.  T, x and lam move as
    they are.  flat converts back: r = atanh|s|, |alpha|, the angles by
    atan2, and every bounded entry clamped into its limits."""
    lower, upper = np.asarray(bounds.lower), np.asarray(bounds.upper)
    periodic = np.asarray(bounds.periodic)
    free = lower < upper
    slots = np.flatnonzero(free).tolist()
    base = _bargmann_point(full)
    start = full.copy()
    lo = np.where(periodic, -np.inf, lower)
    hi = np.where(periodic, np.inf, upper)
    disks, bargmann, polar = [], [], []
    for k, squeezed in _PAIRS:
        if free[k] and free[k + 1]:
            radial = math.tanh if squeezed else float
            disks.append((slots.index(k), radial(lower[k]), radial(upper[k])))
            bargmann.append((slots.index(k), k, squeezed))
            start[k:k + 2] = base[k:k + 2]
            lo[k:k + 2], hi[k:k + 2] = -np.inf, np.inf
        elif free[k] or free[k + 1]:
            turn = bool(free[k + 1])  # the angle is the free entry
            polar.append((slots.index(k + turn), k, squeezed, turn, float(full[k + 1 - turn])))

    def fun(y: list[float]) -> tuple[float, list[float]]:
        w = base[:]
        for i, v in zip(slots, y):
            w[i] = v
        tangents = []
        for pos, k, squeezed, turn, fixed in polar:
            radius, angle = (fixed, y[pos]) if turn else (y[pos], fixed)
            rot = cmath.exp(1j * angle)
            if squeezed:
                tanh_r = math.tanh(radius)
                z = rot * tanh_r
                dz = 1j * z if turn else rot * (1.0 - tanh_r * tanh_r)
            else:
                z = radius * rot
                dz = 1j * z if turn else rot
            w[k], w[k + 1] = z.real, z.imag
            tangents.append((pos, k, dz))
        eps, g = core_misfit(w)
        grad = [g[i] for i in slots]
        for pos, k, dz in tangents:
            grad[pos] = g[k] * dz.real + g[k + 1] * dz.imag
        return eps, grad

    def flat(y: np.ndarray) -> np.ndarray:
        w = full.copy()
        w[free] = y
        for pos, k, squeezed in bargmann:
            radius = math.hypot(y[pos], y[pos + 1])
            w[k] = math.atanh(radius) if squeezed else radius
            w[k + 1] = math.atan2(y[pos + 1], y[pos])
        return np.where(periodic, w, np.clip(w, lower, upper))

    if not polar and len(slots) == full.size:
        fun = core_misfit  # every entry free: the variables are the core's point
    return _Chart(start[free], lo[free], hi[free], tuple(disks), fun, flat)


def local_polish(
    params: SchemeParams,
    target: TargetSpec | FockVector,
    cutoff: int = tol.DEFAULT_CUTOFF,
    max_iters: int = 400,
    bounds: Bounds | None = None,
) -> PolishResult:
    """Quasi-Newton descent on the exact gradient from one point, in the
    inputs' Bargmann coordinates.

    Runs _descend for at most max_iters iterations on the dimensions of
    bounds (Bounds.for_kind by default) whose lower limit is below the
    upper, the others held at their pinned value.  An input's (r, theta)
    and (|alpha|, phi) pairs whose entries are both free move as the
    real and imaginary parts of s = e^{i theta} tanh r and of alpha, the
    coordinates the core is linear and bilinear in (_chart): polar
    coordinates are singular at r = 0 and |alpha| = 0, where the descent
    would crawl, and the GA's and the table's points sit near them.  A
    pair with a pinned entry moves in polar form; angles are free to
    cross the 0/2*pi seam (they are wrapped on assembly).  It minimizes
    the misfit the GA minimizes, on the exact Gaussian core, with its
    gradient (scheme._core_misfit), and converts the end point back to
    the flat layout, clamped into the box.  The reported misfit is that
    of the truncated route, misfit(conditional_output(p, cutoff,
    check_input_tail=False), target), and the descent's end point is kept
    only if its reported misfit is lower than the start's, so the
    polished misfit never exceeds the starting one.  With every dimension
    pinned the start is kept.  The polish computes no other figure: the
    caller scores the point it reports.  The result's trace is the
    reported misfit before and after, and its evaluation count is the
    descent's calls, one per value and gradient, plus one.
    """
    full, kind, whw = params_to_vector(params)
    bounds = bounds if bounds is not None else Bounds.for_kind(kind)
    if len(bounds.lower) != full.size:
        raise ValueError(f"a box of width {len(bounds.lower)} for a {kind} point")
    lower, upper = np.asarray(bounds.lower), np.asarray(bounds.upper)
    full[lower == upper] = lower[lower == upper]
    tgt = _target_vector(target, cutoff)

    def reported_misfit(p: SchemeParams) -> float:
        return misfit(conditional_output(p, cutoff, check_input_tail=False), tgt)

    best_params = vector_to_params(full, whw)
    eps_start = eps_here = reported_misfit(best_params)
    calls = 0
    if (lower < upper).any():
        chart = _chart(full, bounds, _core_misfit(tgt))
        y, calls = _descend(chart.fun, chart.start, chart.lower, chart.upper, max_iters,
                            chart.disks)
        if not np.array_equal(y, chart.start):
            end = vector_to_params(chart.flat(y), whw)
            eps_end = reported_misfit(end)
            if eps_end < eps_start:
                best_params, eps_here = end, eps_end

    return PolishResult(best_params, eps_here, (eps_start, eps_here), calls + 1)
