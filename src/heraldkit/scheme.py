"""Conditional output states of the mix-and-measure preparation scheme.

Two squeezed coherent inputs interfere on a beam splitter of transmittance T
(symmetric phase convention), then mode 3 is measured: either a single-photon
detection (SPD) heralds exactly one photon, or a homodyne measurement (HM)
records a rotated-quadrature value x along phase lam.  Either outcome
projects mode 4 onto the conditional state returned here.

Point readings come from the arms.  On inputs truncated at the cutoff N
each input contributes a kappa-scaled arm matrix U_j[d, k] (_arms), with d
of its photons sent to the measured mode 3 and k to the signal mode 4.  One
kernel, _herald, reads the heralded output of a point given as a flat
SPD_LAYOUT or HM_LAYOUT vector, from tables cached per cutoff:

* SPD keeps one photon in mode 3, which needs only rows d <= 1 of the arms:
  two one-dimensional convolutions;
* HM contracts mode 3 with the Hermite functions phi_j(x) at the reading,
  in one Hankel product of the arms.

This closed route is what "closed" means in conditional_output, and score
and the point figures wrap the same kernel.

The whole two-mode array V[j, m] of the truncated inputs, over 0..2N in
each mode, is formed in one place: embedded_two_mode_state embeds the
inputs at 2N and applies the beam splitter sector by sector, building only
the block columns that inputs truncated at N reach
(fock.beam_splitter_apply).  The "oracle" route projects it (used to
cross-check), and the window figures read it: the success probability P
over x +/- delta and the window-averaged misfit eps_avg = 1 - int
|<t|d_x>|^2 dx / int ||d_x||^2 dx, with d_x the unnormalized output at x
and ||d_x|| its full norm, mass above the cutoff included.  Both
integrands are quadratic forms in Hermite functions with a closed-form
primitive, read at the two window edges (_hm_window).  Both routes keep
every output amplitude up to total photon number 2N before truncating,
so their retained and discarded masses agree.

The search runs on the exact Gaussian core instead: both heralds act on a
Gaussian two-mode state, so each output follows from a few complex
numbers and the input recurrence, in O(cutoff) per point, with the inputs
kept whole.  One function, _gaussian_core, holds those numbers'
formulas, and two readers apply them: conditional_output_batch over a
numpy batch (_closed_form_rows), which scores the GA generations and the
deviation-sweep levels, and _core_misfit on one point in Python complex
arithmetic, the Nelder-Mead polish's objective, which would spend most of
its time in numpy's per-call overhead on a batch of one.

A flat point carries its own kind: SPD_LAYOUT has 9 entries, HM_LAYOUT
11, and every function that takes one reads the kind from the length
(any other width raises ValueError), as in vector_to_params(vec,
window_halfwidth=0.0) and conditional_output_batch(rows, cutoff).  The
angle entries are marked once, in _ANGLES.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from . import tolerances as tol
from .errors import NormalizationError
from .fock import (
    BeamSplitterSpec,
    DensityMatrix,
    FockVector,
    TwoModeState,
    _freeze,
    _hermite_gaussian_window,
    _log_factorials,
    _require_unit_norm,
    beam_splitter_apply,
    fidelity,
    hermite_gaussian_columns,
    project_quadrature,
)
from .states import (
    SqueezedCoherentParams,
    _SCALAR_MATH,
    _amplitudes,
    _bargmann_coefficients,
    _input_amplitudes,
    _recurrence_roots,
    _recurrence_rows,
    check_tail_mass,
)

# Admissible heralded quadrature values and beam-splitter transmittances.
_X_RANGE = (0.0, 4.0)
_T_RANGE = (0.1, 0.9)


def _interval(rng: tuple[float, float]) -> str:
    return "[{:g}, {:g}]".format(*rng)


@dataclass(frozen=True)
class SPD:
    """Herald on exactly one photon in the measured arm."""


@dataclass(frozen=True)
class HM:
    """Herald on a rotated-quadrature reading.

    x is the recorded value, lam the local-oscillator phase, and
    window_halfwidth the acceptance halfwidth delta used for success
    probability and average misfit (0 means no window was chosen).
    """

    x: float
    lam: float
    window_halfwidth: float = 0.0

    def __post_init__(self):
        if not _X_RANGE[0] <= self.x <= _X_RANGE[1]:
            raise ValueError(f"heralded quadrature value {self.x} outside {_interval(_X_RANGE)}")
        if not math.isfinite(self.lam):
            raise ValueError(f"local-oscillator phase lam={self.lam} must be finite")
        if not 0.0 <= self.window_halfwidth < math.inf:
            raise ValueError(f"window_halfwidth={self.window_halfwidth} must be finite and >= 0")


Measurement = Union[SPD, HM]


@dataclass(frozen=True)
class SchemeParams:
    """Full parameter set of one scheme evaluation."""

    in1: SqueezedCoherentParams
    in2: SqueezedCoherentParams
    transmittance: float
    measurement: Measurement

    def __post_init__(self):
        if not _T_RANGE[0] <= self.transmittance <= _T_RANGE[1]:
            raise ValueError(f"transmittance {self.transmittance} outside {_interval(_T_RANGE)}")


_TWO_PI = 2.0 * np.pi
_SQRT2 = math.sqrt(2.0)
_LOG_PI = math.log(math.pi)

# Flat layout of a parameter point, shared by the search vectors of the
# optimizer and the batched closed form.  A point's length gives its kind:
# SPD points stop after T.  _ANGLES is True on the entries that wrap onto
# [0, 2 pi); r, alpha and T are magnitudes and x a reading.
HM_LAYOUT = ("r1", "theta1", "alpha1", "phi1", "r2", "theta2", "alpha2", "phi2", "T", "x", "lam")
SPD_LAYOUT = HM_LAYOUT[:9]
_ANGLES = np.array([n.startswith(("theta", "phi", "lam")) for n in HM_LAYOUT])


def layout_for_kind(kind: str) -> tuple[str, ...]:
    if kind == "spd":
        return SPD_LAYOUT
    if kind == "hm":
        return HM_LAYOUT
    raise ValueError(f"unknown measurement kind {kind!r}")


def _is_hm(width: int) -> bool:
    """Whether a flat point of width entries is an HM point; raises
    ValueError unless it is an SPD or an HM point."""
    if width not in (len(SPD_LAYOUT), len(HM_LAYOUT)):
        raise ValueError(f"a flat point has {len(SPD_LAYOUT)} entries (SPD) "
                         f"or {len(HM_LAYOUT)} (HM), not {width}")
    return width == len(HM_LAYOUT)


def vector_to_params(vec: Sequence[float], window_halfwidth: float = 0.0) -> SchemeParams:
    """Assemble SchemeParams from a flat vector, wrapping angle entries; the
    measurement kind follows from the vector's length."""
    v = np.array(vec, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a flat vector, got shape {v.shape}")
    hm = _is_hm(len(v))
    v[_ANGLES[: len(v)]] %= _TWO_PI
    in1 = SqueezedCoherentParams(*v[0:4])
    in2 = SqueezedCoherentParams(*v[4:8])
    meas = HM(v[9], v[10], window_halfwidth) if hm else SPD()
    return SchemeParams(in1, in2, v[8], meas)


def params_to_vector(p: SchemeParams) -> tuple[np.ndarray, str, float]:
    """Inverse of vector_to_params; returns (vector, kind, window_halfwidth)."""
    head = [
        p.in1.r, p.in1.theta, p.in1.alpha_abs, p.in1.phi,
        p.in2.r, p.in2.theta, p.in2.alpha_abs, p.in2.phi,
        p.transmittance,
    ]
    m = p.measurement
    if isinstance(m, SPD):
        return np.array(head), "spd", 0.0
    if isinstance(m, HM):
        return np.array(head + [m.x, m.lam]), "hm", m.window_halfwidth
    raise TypeError(f"unknown measurement {type(m).__name__}")


@dataclass(frozen=True)
class ConditionalOutput:
    """Normalized heralded state plus the bookkeeping of how it was obtained.

    raw_weight is the squared norm of the unnormalized projection restricted
    to the retained space |0>..|cutoff>: outcome probability for SPD,
    probability density at x for HM.  truncation_loss is the fraction of the
    projected mass that fell above the cutoff and was discarded.
    """

    state: FockVector
    raw_weight: float
    truncation_loss: float


def _split_output(full: np.ndarray, cutoff: int) -> ConditionalOutput:
    retained = full[: cutoff + 1]
    mass = np.abs(full) ** 2
    raw_weight = float(np.sum(mass[: cutoff + 1]))
    dropped = float(np.sum(mass[cutoff + 1:]))
    total = raw_weight + dropped
    loss = dropped / total if total > 0.0 else 0.0
    # an impossible outcome (vacuum inputs under SPD) projects to the zero
    # vector; report weight 0 instead of failing to normalize
    state = retained / np.sqrt(raw_weight) if raw_weight > 0.0 else retained
    return ConditionalOutput(FockVector(state, cutoff), raw_weight, loss)


@cache
def _scaled_sqrt_factorials(n_max: int) -> np.ndarray:
    """s[n] = sqrt(n!) / kappa**n for n = 0..n_max, with kappa = sqrt(n_max / e).

    The scale keeps every entry between about exp(-n_max / (2 e)) and
    sqrt(n_max), so the factorial ratios of the arms and their readings
    stay finite at cutoffs where sqrt(n!) itself overflows.
    """
    kappa = np.sqrt(max(n_max, 1) / np.e)
    n = np.arange(n_max + 1)
    return _freeze(np.exp(0.5 * _log_factorials(n_max) - n * np.log(kappa)))


@cache
def _binomials(cutoff: int) -> np.ndarray:
    """C(d + k, d) at [d, k] for d + k <= cutoff and 0 elsewhere, each the
    exact integer rounded once."""
    b = np.zeros((cutoff + 1, cutoff + 1))
    for d in range(cutoff + 1):
        b[d, : cutoff + 1 - d] = [float(math.comb(d + k, d)) for k in range(cutoff + 1 - d)]
    return _freeze(b)


class _Tables(NamedTuple):
    """Everything the closed route reads that depends on the cutoff N alone."""

    s: np.ndarray  # _scaled_sqrt_factorials(2 N)
    binom: np.ndarray  # _binomials(N)
    n: np.ndarray  # 0..2 N
    hankel: np.ndarray  # d + k at [d, k], d, k = 0..N


@cache
def _tables(cutoff: int) -> _Tables:
    n = _freeze(np.arange(2 * cutoff + 1))
    hankel = _freeze(n[: cutoff + 1, None] + n[: cutoff + 1])
    return _Tables(_scaled_sqrt_factorials(2 * cutoff), _binomials(cutoff), n, hankel)


def _inputs(vec: np.ndarray, cutoff: int, check_input_tail: bool) -> np.ndarray:
    """The inputs of the point vec truncated at the cutoff, a_1 and a_2 as
    two rows, each checked for tail mass when asked."""
    roots = _recurrence_roots(cutoff)
    a = np.array([_input_amplitudes(*vec[0:4].tolist(), roots),
                  _input_amplitudes(*vec[4:8].tolist(), roots)], dtype=np.complex128)
    if check_input_tail:
        check_tail_mass(a[0], cutoff)
        check_tail_mass(a[1], cutoff)
    return a


def _arms(
    vec: np.ndarray, cutoff: int, check_input_tail: bool, depth: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kappa-scaled arm matrices U1, U2 of the point vec (flat layout,
    angles as given), and its truncated inputs a_1, a_2 as two rows.

    Input j sends d of its photons to the measured mode 3 and k to the
    signal mode 4:

        U_j[d, k] = (a_j[d+k] / s[d+k]) C(d+k, d) g_j3^d g_j4^k,

    with s = _scaled_sqrt_factorials(2 cutoff), R = 1 - T and the couplings
    g_13 = g_24 = sqrt(T), g_14 = g_23 = i sqrt(R) of the symmetric
    convention.  Only the rows d < depth are built (all of them by default).
    """
    tb = _tables(cutoff)
    a = _inputs(vec, cutoff, check_input_tail)
    t = float(vec[8])
    n = tb.n[: cutoff + 1]
    t_pow, r_pow = math.sqrt(t) ** n, (1j * math.sqrt(1.0 - t)) ** n
    # both arms at once, padded with zeros for the index to read where binom
    # is 0; t_pow and r_pow are the powers of sqrt(T) and i sqrt(R)
    scaled = np.zeros((2, 2 * cutoff + 1), dtype=np.complex128)
    scaled[:, : cutoff + 1] = a / tb.s[: cutoff + 1]
    u = scaled.take(tb.hankel[:depth], axis=1) * tb.binom[:depth]
    u *= np.array([t_pow[:depth], r_pow[:depth]])[:, :, None]
    u *= np.array([r_pow, t_pow])[:, None, :]
    return u[0], u[1], a


def _herald(
    vec: np.ndarray, cutoff: int, check_input_tail: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized closed-route output of the point vec (a flat
    SPD_LAYOUT or HM_LAYOUT vector, angles taken as given) before truncation
    at the cutoff, and the truncated inputs a_1, a_2 it was read from, as
    two rows.  The output is a reading of the arms; V is never formed.

    SPD keeps one photon in the measured mode over |0>..|2 cutoff - 1>: it
    comes from row d = 1 of one arm and row 0 of the other.  HM reads
    <x|_lam V over |0>..|2 cutoff>: the arms meet in the Hankel matrix of
    h[j] = phi_j(x) e^{-i j lam} s[j],

        c[m] = s[m] sum_{k+l=m} (U1^T @ Hankel(h) @ U2)[k, l].

    The reading phases sit on h rather than in the arms: on 800 box draws
    at cutoff 30 that kept the worst weight error against the oracle at
    6e-10, against 1.6e-9 with the phases in the arms.
    """
    tb = _tables(cutoff)
    if len(vec) == len(SPD_LAYOUT):
        u1, u2, inputs = _arms(vec, cutoff, check_input_tail, depth=2)
        w = np.convolve(u1[1], u2[0]) + np.convolve(u1[0], u2[1])
        return tb.s[1] * tb.s[: 2 * cutoff] * w[: 2 * cutoff], inputs
    u1, u2, inputs = _arms(vec, cutoff, check_input_tail)
    h = hermite_gaussian_columns(2 * cutoff, vec[9]) * tb.s * np.exp(-1j * vec[10] * tb.n)
    # (U2^T @ Hankel @ U1)[l, k] has the anti-diagonal sums of the
    # contraction.  Its rows go into rows of 2 cutoff + 3 zeros, read as
    # rows of 2 cutoff + 2: row i then sits shifted right by i places, and
    # column sums give the anti-diagonal sums, each in increasing i.
    wide = 2 * cutoff + 2
    shifted = np.zeros((cutoff + 1) * (wide + 1), dtype=np.complex128)
    shifted.reshape(cutoff + 1, wide + 1)[:, : cutoff + 1] = u2.T @ (h.take(tb.hankel) @ u1)
    sums = shifted[: (cutoff + 1) * wide].reshape(cutoff + 1, wide).sum(axis=0)
    return tb.s * sums[: 2 * cutoff + 1], inputs


def embedded_two_mode_state(
    p: SchemeParams, cutoff: int, check_input_tail: bool = True
) -> TwoModeState:
    """Post-beam-splitter state embedded at twice the cutoff.

    At cutoff 2N every total-photon sector reachable from inputs truncated
    at N is complete, so the beam splitter drops nothing and projections of
    this state are exact for the truncated inputs.
    """
    big = 2 * cutoff
    e = np.zeros((2, big + 1), dtype=np.complex128)
    e[:, : cutoff + 1] = _inputs(params_to_vector(p)[0], cutoff, check_input_tail)
    joint = TwoModeState(np.outer(e[0], e[1]), big)
    mixed, dropped = beam_splitter_apply(joint, BeamSplitterSpec(p.transmittance))
    if dropped != 0.0:
        raise AssertionError("embedding at twice the cutoff must not drop mass")
    return mixed


def output_oracle(
    p: SchemeParams, cutoff: int, check_input_tail: bool = True
) -> ConditionalOutput:
    """Reference evaluation through the explicit two-mode pipeline: the
    single-photon herald reads row 1 of the embedded state, the homodyne
    herald contracts its first index (fock.project_quadrature)."""
    mixed = embedded_two_mode_state(p, cutoff, check_input_tail)
    if isinstance(p.measurement, SPD):
        full = mixed.amps[1]
    elif isinstance(p.measurement, HM):
        full = project_quadrature(mixed, p.measurement.x, p.measurement.lam)[0].amps
    else:
        raise TypeError(f"unknown measurement {type(p.measurement).__name__}")
    return _split_output(full, cutoff)


def conditional_output(
    p: SchemeParams, cutoff: int, method: str = "closed", check_input_tail: bool = True
) -> ConditionalOutput:
    """Heralded signal state for either measurement kind.

    method selects the evaluation route: "closed" (default; one reading of
    the arms, _herald) or "oracle".  Both take every squeezing
    magnitude r >= 0, coherent inputs included.
    """
    if method == "oracle":
        return output_oracle(p, cutoff, check_input_tail)
    if method != "closed":
        raise ValueError(f"unknown method {method!r}")
    return _split_output(_herald(params_to_vector(p)[0], cutoff, check_input_tail)[0], cutoff)


def misfit(
    out: ConditionalOutput | FockVector | DensityMatrix, target: FockVector
) -> float:
    """1 - fidelity between the prepared state and the normalized target."""
    state = out.state if isinstance(out, ConditionalOutput) else out
    return 1.0 - fidelity(target, state)


# ---------------------------------------------------------------------------
# the exact Gaussian core


def _rows_in_ranges(rows: np.ndarray) -> np.ndarray:
    """Which rows are finite and inside the parameter ranges, the rows
    vector_to_params accepts."""
    t = rows[:, 8]
    ok = (
        np.isfinite(rows).all(axis=1)
        # the magnitudes r and |alpha| of both inputs
        & (rows[:, :8][:, ~_ANGLES[:8]] >= 0.0).all(axis=1)
        & (t >= _T_RANGE[0])
        & (t <= _T_RANGE[1])
    )
    if _is_hm(rows.shape[1]):
        ok &= (rows[:, 9] >= _X_RANGE[0]) & (rows[:, 9] <= _X_RANGE[1])
    return ok


def _gaussian_core(point, xp=np):
    """The exact Gaussian core of one flat point, or of a batch of points
    given as columns (rows.T), as (a, b, log_c, linear).

    The inputs are untruncated: the beam splitter turns their Bargmann
    functions c0_j exp(a_j z^2/2 + b_j z) (states._bargmann_coefficients)
    into C exp(z^T A z / 2 + B^T z) in the modes z = (z3, z4), with R = 1 - T,

        A33 = T a1 - R a2,  A34 = i sqrt(TR) (a1 + a2),  A44 = T a2 - R a1,
        B3 = sqrt(T) b1 + i sqrt(R) b2,  B4 = i sqrt(R) b1 + sqrt(T) b2,

    and C = c0_1 c0_2.  The SPD herald keeps the z3 coefficient,
    C (B3 + A34 z4) exp(A44 z4^2/2 + B4 z4): (a, b) = (A44, B4), log_c =
    log C and linear = (B3, A34).  The HM herald contracts z3 with the
    quadrature eigenstate, a Gaussian integral: with p = -e^{-2i lam},
    q = sqrt(2) x e^{-i lam} and Delta = 1 - A33 p (Re Delta > 0 since
    |A33| < 1) the output is c0 exp(a z^2/2 + b z) with

        a = A44 + A34^2 p / Delta,   b = B4 + A34 (B3 p + q) / Delta,
        c0 = C pi^{-1/4} e^{-x^2/2} Delta^{-1/2}
             exp((B3^2 p / 2 + B3 q + A33 q^2 / 2) / Delta),

    so log_c = log c0 and linear is None.  The scale stays in log form,
    because some points in the search box herald with a weight below the
    smallest double.  xp gives exp, log, sqrt, cosh and tanh: numpy for
    a batch, states._SCALAR_MATH for one point as a list of floats
    (Miatto & Quesada, Quantum 4, 366 (2020)).
    """
    a1, b1, c1 = _bargmann_coefficients(*point[0:4], xp)
    a2, b2, c2 = _bargmann_coefficients(*point[4:8], xp)
    t = point[8]
    sq_t, sq_r = xp.sqrt(t), xp.sqrt(1.0 - t)
    a33 = t * a1 - (1.0 - t) * a2
    a34 = 1j * sq_t * sq_r * (a1 + a2)
    a44 = t * a2 - (1.0 - t) * a1
    b3 = sq_t * b1 + 1j * sq_r * b2
    b4 = 1j * sq_r * b1 + sq_t * b2
    log_c = xp.log(c1) + xp.log(c2)
    if len(point) == len(SPD_LAYOUT):
        return a44, b4, log_c, (b3, a34)
    x, lam = point[9], point[10]
    p = -xp.exp(-2j * lam)
    q = _SQRT2 * x * xp.exp(-1j * lam)
    delta = 1.0 - a33 * p
    a = a44 + a34**2 * p / delta
    b = b4 + a34 * (b3 * p + q) / delta
    log_c = log_c + (-0.25 * _LOG_PI - 0.5 * x * x - 0.5 * xp.log(delta)
                     + (0.5 * b3**2 * p + b3 * q + 0.5 * a33 * q * q) / delta)
    return a, b, log_c, None


def _closed_form_rows(rows: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Heralded outputs of regular rows from the exact Gaussian core.

    Returns (d, log_c) with the unnormalized output over |0>..|cutoff> of
    row b equal to exp(log_c[b]) d[b]: d is the input recurrence
    (states._recurrence_rows) on the core's (a, b) started at 1, and for
    SPD d_m = B3 e_m + A34 sqrt(m) e_{m-1} of that recurrence e
    (_gaussian_core).  O(cutoff) per row.
    """
    a, b, log_c, linear = _gaussian_core(rows.T)
    e = _recurrence_rows(a, b, 1.0, cutoff)
    if linear is None:
        return e, log_c
    b3, a34 = linear
    d = b3[:, None] * e
    d[:, 1:] += a34[:, None] * np.sqrt(np.arange(1, cutoff + 1)) * e[:, :-1]
    return d, log_c


def _core_misfit(target: FockVector) -> Callable[[list[float]], float]:
    """The misfit against target of one flat point on the exact Gaussian
    core, as a function of the point given as a list of floats.

    It reads _gaussian_core on Python floats and complex numbers and runs
    the recurrence of states._amplitudes, so one point costs no numpy call:
    the same formulas as conditional_output_batch, whose misfit_batch row it
    equals to rounding.  The target's norm is checked once, here.  A point
    whose output is zero (an impossible outcome) or not finite, an
    overflowing cosh r included, raises NormalizationError, where the batch
    raises it too.
    """
    _require_unit_norm("target", target.norm_sq())
    conj = target.amps.conj().tolist()
    roots = _recurrence_roots(target.cutoff)
    sqrt_m = _recurrence_roots(target.cutoff + 1)[0][1:]  # sqrt(m), m = 1..cutoff

    def point_misfit(point: list[float]) -> float:
        try:
            a, b, log_c, linear = _gaussian_core(point, _SCALAR_MATH)
        # cosh r overflows, or c_0 underflows and its log is refused
        except (OverflowError, ValueError) as exc:
            raise NormalizationError(f"heralded output is not finite ({exc})") from None
        d = _amplitudes(a, b, 1.0, roots)
        if linear is not None:
            b3, a34 = linear
            d = [b3 * d[0]] + [b3 * e + a34 * root * prev
                               for e, root, prev in zip(d[1:], sqrt_m, d)]
        norm_sq = math.hypot(*map(abs, d)) ** 2
        if not (math.isfinite(norm_sq) and cmath.isfinite(log_c)):
            raise NormalizationError("heralded output is not finite")
        if not norm_sq > 0.0:
            _require_unit_norm("out", norm_sq)  # the batch's zero row
        overlap = sum(map(operator.mul, conj, d))
        return 1.0 - (overlap.real**2 + overlap.imag**2) / norm_sq

    return point_misfit


def conditional_output_batch(rows: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Heralded states of many points at once, one point per row.

    rows are flat SPD_LAYOUT or HM_LAYOUT points, all of one kind (read
    from the width, 9 or 11); angles need not be wrapped.  Returns the
    normalized states, shape (B, cutoff + 1) and C-contiguous, and the raw
    weights, shape (B,), of the exact Gaussian core (_closed_form_rows):
    the heralded state of untruncated inputs, truncated at the output.
    Where the input tails above the cutoff vanish, these are row by row the
    state and weight of conditional_output(vector_to_params(row), cutoff,
    check_input_tail=False), which truncates the inputs; elsewhere they
    differ by about the input tail mass.

    Coherent inputs (r = 0) are ordinary rows, and an impossible outcome
    keeps its zero row, as in _split_output.  A row outside the parameter
    ranges raises ValueError, with the message of vector_to_params, before
    any work; a row whose core output is not finite (an input squeezed so
    far that cosh r overflows) raises NormalizationError.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"expected one flat point per row, got shape {rows.shape}")
    for i in np.flatnonzero(~_rows_in_ranges(rows)):
        vector_to_params(rows[i])  # raises, naming the range the row leaves
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d, log_c = _closed_form_rows(rows, cutoff)
        norm_sq = np.sum(np.abs(d) ** 2, axis=1)
        weights = np.exp(2.0 * log_c.real + np.log(norm_sq))
    bad = np.flatnonzero(~(np.isfinite(d).all(axis=1) & np.isfinite(norm_sq)
                           & np.isfinite(log_c)))
    if bad.size:
        raise NormalizationError(f"row {bad[0]}: heralded output is not finite")
    scale = np.exp(1j * log_c.imag) / np.sqrt(np.where(norm_sq > 0.0, norm_sq, 1.0))
    # the core's rows come out column-major; misfit_batch reads C order
    return np.ascontiguousarray(d * scale[:, None]), weights


def misfit_batch(states: np.ndarray, target: FockVector) -> np.ndarray:
    """misfit of each row of states against the target.

    Raises NormalizationError where fidelity would: an unnormalized target
    or row (a zero row from an impossible outcome, for instance).
    """
    _require_unit_norm("target", target.norm_sq())
    norms = np.sum(np.abs(states) ** 2, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= tol.INPUT_NORM_ATOL))
    if bad.size:
        _require_unit_norm("out", float(norms[bad[0]]))
    return 1.0 - np.abs(states @ target.amps.conj()) ** 2


def _probability(full: np.ndarray, inputs: np.ndarray) -> float:
    """Squared norm of an unnormalized output relative to that of the
    truncated inputs, the two rows of inputs."""
    mass = np.sum(np.abs(inputs) ** 2, axis=1)
    return float(np.sum(np.abs(full) ** 2)) / float(mass[0] * mass[1])


def success_prob_spd(p: SchemeParams, cutoff: int, check_input_tail: bool = True) -> float:
    """Probability of the single-photon herald, including mass above the cutoff."""
    if not isinstance(p.measurement, SPD):
        raise TypeError("measurement must be SPD")
    full, inputs = _herald(params_to_vector(p)[0], cutoff, check_input_tail)
    return _probability(full, inputs)


def hm_outcome_density(
    p: SchemeParams, x_value: float, cutoff: int, check_input_tail: bool = True
) -> float:
    """Probability density of reading x_value on the measured arm."""
    if not isinstance(p.measurement, HM):
        raise TypeError("measurement must be HM")
    vec = params_to_vector(p)[0]
    vec[9] = x_value
    full, inputs = _herald(vec, cutoff, check_input_tail)
    return _probability(full, inputs)


def _hm_window(
    p: SchemeParams, cutoff: int, check_input_tail: bool, target: FockVector | None = None
) -> tuple[float, float | None]:
    """P over x +/- window_halfwidth and, given a target, eps_avg (else None).

    With the reading phase e^{-i j lam} on row j of the embedded output V
    (embedded_two_mode_state, 0..2N in each mode), V_lam, the output at x is
    d_x = phi(x)^T V_lam, so both integrands are forms phi^T G phi in the
    Hermite functions: ||d_x||^2 with G = Re(V_lam V_lam^dagger) and
    |<t|d_x>|^2 with G = Re(u u^dagger), u = V_lam[:, :N+1] conj(t).  P is
    the first integral over the squared norm of V (the product of the input
    norms: the embedding drops nothing), eps_avg one minus the second over
    the first.  As phi_n'' = (x^2 - 2n - 1) phi_n and (phi_{n-1} phi_n)' =
    sqrt(2n) (phi_{n-1}^2 - phi_n^2), phi^T G phi has the primitive

        B(x) = 2 phi^T M phi' + sum_n G[n, n] D_n(x),

    with M[j, k] = G[j, k] / (2 (j - k)) off the diagonal and 0 on it,
    phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}, D_0 = erf(x) / 2
    and D_n = D_{n-1} - phi_{n-1} phi_n / sqrt(2n), read as B(hi) - B(lo)
    from the steps phi(hi) - phi(lo) (fock._hermite_gaussian_window)."""
    m = p.measurement
    mixed = embedded_two_mode_state(p, cutoff, check_input_tail)
    j = np.arange(mixed.cutoff + 1)
    v = mixed.amps * np.exp(-1j * m.lam * j)[:, None]
    low, step, d0 = _hermite_gaussian_window(mixed.cutoff + 1, m.x, m.window_halfwidth)
    high = low + step
    # phi' at hi and its step, as two columns (entry -1 is read times 0)
    f = np.column_stack([high, step])
    df = np.sqrt(j / 2.0)[:, None] * f[j - 1] - np.sqrt((j + 1) / 2.0)[:, None] * f[j + 1]
    # D_n(hi) - D_n(lo): high_{n-1} high_n - low_{n-1} low_n = step_{n-1} high_n + low_{n-1} step_n
    pairs = (step[:-2] * high[1:-1] + low[:-2] * step[1:-1]) / np.sqrt(2.0 * j[1:])
    d = d0 - np.concatenate([[0.0], np.cumsum(pairs)])
    gap = np.where(j[:, None] == j, np.inf, 2.0 * np.subtract.outer(j, j))

    def integral(w: np.ndarray) -> float:
        # Re(w w^dagger) is X X^T for the real and imaginary parts side by side
        x = w.view(np.float64)
        g = x @ x.T / mixed.norm_sq()
        # high^T M high' - low^T M low' = step^T M high' + low^T M step'
        mdf = (g / gap) @ df
        return float(2.0 * (step[:-1] @ mdf[:, 0] + low[:-1] @ mdf[:, 1]) + np.diag(g) @ d)

    prob = integral(v)
    if target is None:
        return prob, None
    _require_unit_norm("target", target.norm_sq())
    if not prob >= np.finfo(float).tiny:
        raise NormalizationError(
            f"acceptance window probability {prob:.3g} is below the double range")
    return prob, 1.0 - integral((v[:, : cutoff + 1] @ target.amps.conj())[:, None]) / prob


def success_prob_hm(p: SchemeParams, cutoff: int, check_input_tail: bool = True) -> float:
    """Probability of a quadrature reading inside x +/- window_halfwidth."""
    if not isinstance(p.measurement, HM):
        raise TypeError("measurement must be HM")
    if p.measurement.window_halfwidth == 0.0:
        return 0.0
    return _hm_window(p, cutoff, check_input_tail)[0]


def average_misfit(
    p: SchemeParams, target: FockVector, cutoff: int, check_input_tail: bool = True
) -> float:
    """Misfit averaged over the acceptance window x +/- window_halfwidth:
    one minus the integral of |<t|d_x>|^2 over that of ||d_x||^2, with d_x
    the unnormalized output at x and its full norm (_hm_window).  Each
    integral rounds to about (2 cutoff + 1) eps min(1, 2 window_halfwidth),
    so the result is good to about that over P, which grows on a window of
    low outcome density."""
    if not isinstance(p.measurement, HM):
        raise TypeError("measurement must be HM")
    if p.measurement.window_halfwidth <= 0.0:
        raise ValueError("measurement.window_halfwidth must be > 0")
    return _hm_window(p, cutoff, check_input_tail, target)[1]


class Score(NamedTuple):
    """The reported figures of one parameter point at one cutoff."""

    output: ConditionalOutput
    eps: float
    success_prob: float
    eps_avg: float | None


def score(
    p: SchemeParams, target: FockVector, cutoff: int, check_input_tail: bool = True
) -> Score:
    """Heralded output, misfit, success probability and average misfit.

    success_prob is the herald probability for SPD; for HM it is the
    probability of a reading inside x +/- window_halfwidth, or the outcome
    density at x when there is no window.  eps_avg is average_misfit, None
    without a window.  The output and eps are read from the arms (_herald),
    which are dropped before a window embeds the inputs once for both of
    its figures (_hm_window).
    """
    full, inputs = _herald(params_to_vector(p)[0], cutoff, check_input_tail)
    out = _split_output(full, cutoff)
    eps = misfit(out, target)
    m = p.measurement
    if isinstance(m, HM) and m.window_halfwidth > 0.0:
        return Score(out, eps, *_hm_window(p, cutoff, check_input_tail, target))
    return Score(out, eps, _probability(full, inputs), None)
