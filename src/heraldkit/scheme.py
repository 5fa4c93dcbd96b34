"""Conditional output states of the mix-and-measure preparation scheme.

Two squeezed coherent inputs interfere on a beam splitter of transmittance T
(symmetric phase convention), then mode 3 is measured: either a single-photon
detection (SPD) heralds exactly one photon, or a homodyne measurement (HM)
records a rotated-quadrature value x along phase lam.  Either outcome
projects mode 4 onto the conditional state returned here.

Each measurement kind has two interchangeable evaluation routes on inputs
truncated at the cutoff:

* a closed form that collapses the measurement analytically and never builds
  the two-mode array (used for every reported number and by the
  Nelder-Mead polish; for HM a Hankel product per reading), and
* an oracle that embeds the inputs at twice the cutoff, applies the exact
  sector-by-sector beam splitter and projects (slow; used to cross-check).

Both routes keep every output amplitude up to total photon number 2*cutoff
before truncating, so their retained and discarded masses agree exactly.

The batched route (conditional_output_batch, which scores the GA
generations and the deviation-sweep levels) runs on the exact Gaussian
core instead: both heralds act on a Gaussian two-mode state, so each
output follows from a few complex numbers and the input recurrence, in
O(cutoff) per point, with the inputs kept whole (_closed_form_rows).

The HM window figures, the success probability over x +/- delta and the
window-averaged misfit, need no numerical quadrature: on truncated inputs
the outcome density is a quadratic form in Hermite functions, and its
primitive has a closed form (_hm_window).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import comb, erf, gammaln

from . import tolerances as tol
from .errors import HermiteOverflowError, NormalizationError
from .fock import (
    MODE_FIRST,
    BeamSplitterSpec,
    DensityMatrix,
    FockVector,
    TwoModeState,
    _require_unit_norm,
    beam_splitter_apply,
    fidelity,
    hermite_gaussian_columns,
    hermite_sequence,
    project_fock,
    project_quadrature,
    sqrt_factorials,
    tensor,
)
from .states import (
    SqueezedCoherentParams,
    _bargmann_coefficients,
    _recurrence_rows,
    check_tail_mass,
    squeezed_coherent_amplitudes,
)

_PHASE_CYCLE = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)

# Admissible heralded quadrature values and beam-splitter transmittances.
_X_RANGE = (0.0, 4.0)
_T_RANGE = (0.1, 0.9)


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
            raise ValueError(f"heralded quadrature value {self.x} outside [0, 4]")
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
            raise ValueError(f"transmittance {self.transmittance} outside [0.1, 0.9]")


_TWO_PI = 2.0 * np.pi

# Flat layout of a parameter point, shared by the search vectors of the
# optimizer and the batched closed form.
SPD_LAYOUT = ("r1", "theta1", "alpha1", "phi1", "r2", "theta2", "alpha2", "phi2", "T")
HM_LAYOUT = SPD_LAYOUT + ("x", "lam")


def layout_for_kind(kind: str) -> tuple[str, ...]:
    if kind == "spd":
        return SPD_LAYOUT
    if kind == "hm":
        return HM_LAYOUT
    raise ValueError(f"unknown measurement kind {kind!r}")


def vector_to_params(
    vec: Sequence[float], kind: str, window_halfwidth: float = 0.0
) -> SchemeParams:
    """Assemble SchemeParams from a flat vector, wrapping angle entries."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (len(layout_for_kind(kind)),):
        raise ValueError(f"expected {len(layout_for_kind(kind))} entries for {kind}")
    in1 = SqueezedCoherentParams(v[0], v[1] % _TWO_PI, v[2], v[3] % _TWO_PI)
    in2 = SqueezedCoherentParams(v[4], v[5] % _TWO_PI, v[6], v[7] % _TWO_PI)
    if kind == "spd":
        meas: SPD | HM = SPD()
    else:
        meas = HM(v[9], v[10] % _TWO_PI, window_halfwidth)
    return SchemeParams(in1, in2, v[8], meas)


def params_to_vector(p: SchemeParams) -> tuple[np.ndarray, str, float]:
    """Inverse of vector_to_params; returns (vector, kind, window_halfwidth)."""
    head = [
        p.in1.r, p.in1.theta, p.in1.alpha_abs, p.in1.phi,
        p.in2.r, p.in2.theta, p.in2.alpha_abs, p.in2.phi,
        p.transmittance,
    ]
    if isinstance(p.measurement, SPD):
        return np.array(head), "spd", 0.0
    m = p.measurement
    return np.array(head + [m.x, m.lam]), "hm", m.window_halfwidth


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


def _input_amplitudes(
    p: SchemeParams, cutoff: int, check_input_tail: bool
) -> tuple[np.ndarray, np.ndarray]:
    a1 = squeezed_coherent_amplitudes(p.in1, cutoff)
    a2 = squeezed_coherent_amplitudes(p.in2, cutoff)
    if check_input_tail:
        check_tail_mass(a1, cutoff)
        check_tail_mass(a2, cutoff)
    return a1, a2


def _split_output(full: np.ndarray, cutoff: int) -> ConditionalOutput:
    retained = full[: cutoff + 1]
    raw_weight = float(np.sum(np.abs(retained) ** 2))
    dropped = float(np.sum(np.abs(full[cutoff + 1:]) ** 2))
    total = raw_weight + dropped
    loss = dropped / total if total > 0.0 else 0.0
    vec = FockVector(retained, cutoff)
    # an impossible outcome (vacuum inputs under SPD) projects to the zero
    # vector; report weight 0 instead of failing to normalize
    state = vec.normalized() if raw_weight > 0.0 else vec
    return ConditionalOutput(state, raw_weight, loss)


def _scaled_sqrt_factorials(n_max: int) -> tuple[np.ndarray, float]:
    """(s, kappa) with s[k] = sqrt(k!) / kappa**k for k = 0..n_max.

    kappa = sqrt(n_max / e) keeps every entry between about
    exp(-n_max / (2 e)) and sqrt(n_max), so the factorial ratios of the
    collapsed sums stay finite at cutoffs where sqrt(k!) itself overflows.
    """
    kappa = np.sqrt(max(n_max, 1) / np.e)
    k = np.arange(n_max + 1)
    return np.exp(0.5 * gammaln(k + 1.0) - k * np.log(kappa)), kappa


def _spd_full_amplitudes(a1: np.ndarray, a2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Unnormalized SPD outputs over |0>..|2*cutoff-1>, one row per point.

    a1, a2 hold the truncated input amplitudes with a leading batch axis and
    t the matching transmittances.  Only two reflect/transmit splittings can
    leave one photon in the measured arm, which collapses the heralding to a
    double sum over the input photon numbers n, m:

        c[n+m-1] += i^{n+1} (a1[n]/sqrt(n!)) (a2[m]/sqrt(m!)) sqrt((n+m-1)!)
                    * [m R^{(n+1)/2} T^{(m-1)/2} - n R^{(n-1)/2} T^{(m+1)/2}]

    with R = 1 - T.  The m = 0 and n = 0 legs vanish with their prefactor,
    so the half-integer powers below zero never contribute.  The factorials
    are carried as kappa**k * s[k] (_scaled_sqrt_factorials); the powers of
    kappa cancel up to one overall 1/kappa.
    """
    n_cut = a1.shape[-1] - 1
    n = np.arange(n_cut + 1)
    sqf2, kappa = _scaled_sqrt_factorials(2 * n_cut)
    a1s = _PHASE_CYCLE[(n + 1) % 4] * a1 / sqf2[: n_cut + 1]
    a2s = a2 / sqf2[: n_cut + 1]
    # powers sqrt(.)**e for e = -1..n_cut+1, stored at index e + 1
    e = np.arange(-1, n_cut + 2)
    pow_t = np.sqrt(t)[:, None] ** e
    pow_r = np.sqrt(1.0 - t)[:, None] ** e
    # the bracket has rank two in (n, m)
    u1 = a1s * pow_r[:, 2:]
    v1 = a2s * n * pow_t[:, : n_cut + 1]
    u2 = a1s * n * pow_r[:, : n_cut + 1]
    v2 = a2s * pow_t[:, 2:]
    m_mat = u1[:, :, None] * v1[:, None, :]
    m_mat -= u2[:, :, None] * v2[:, None, :]
    return sqf2[: 2 * n_cut] * _antidiagonal_sums(m_mat)[:, 1:] / kappa


def _antidiagonal_sums(q: np.ndarray) -> np.ndarray:
    """out[b, s] = sum over i + j = s of q[b, i, j], for square q[b].

    Row i of q is written into row i of a zero array shifted right by i
    places, so that column sums give the anti-diagonal sums, each in
    increasing i.
    """
    b, d, _ = q.shape
    skew = np.zeros((b, d, 2 * d), dtype=q.dtype)
    sb, si, sj = skew.strides
    as_strided(skew, shape=q.shape, strides=(sb, si + sj, sj))[...] = q
    return skew.sum(axis=1)[:, : 2 * d - 1]


def _hm_arm_matrices(
    a1: np.ndarray, a2: np.ndarray, t: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm matrices of the homodyne closed form, one pair per point.

    Returns U1[b, d1, k] and U2[b, d2, l]: d counts the photons an input
    sends to the measured arm and k, l those it sends to the signal arm.  The
    arms meet in H_{d1+d2}(x) at one reading (_hm_hankel_amplitudes) or, for
    a window of readings, in their convolution W (_hm_window).
    """
    n_cut = a1.shape[-1] - 1
    n = np.arange(n_cut + 1)
    sqf = sqrt_factorials(n_cut)
    e_lam = (np.exp(-1j * lam) / np.sqrt(2.0))[:, None]
    # inputs padded with zeros up to 2*cutoff, gathered at index d + k
    a1s = np.zeros((len(a1), 2 * n_cut + 1), dtype=np.complex128)
    a2s = np.zeros_like(a1s)
    a1s[:, : n_cut + 1] = a1 * e_lam**n / sqf
    a2s[:, : n_cut + 1] = a2 * (1j * e_lam) ** n / sqf
    sq_t = np.sqrt(t)[:, None]
    sq_r = np.sqrt(1.0 - t)[:, None]
    w = (np.sqrt(2.0) * 1j * np.exp(1j * lam))[:, None]
    idx = np.add.outer(n, n)
    binom = np.where(idx <= n_cut, comb(np.minimum(idx, n_cut) + 0.0, n[:, None]), 0.0)
    u1 = _hankel_rows(a1s, n_cut + 1) * binom
    u1 *= (sq_t**n)[:, :, None]
    u1 *= ((sq_r * w) ** n)[:, None, :]
    u2 = _hankel_rows(a2s, n_cut + 1) * binom
    u2 *= (sq_r**n)[:, :, None]
    u2 *= ((-sq_t * w) ** n)[:, None, :]
    return u1, u2


def _hankel_rows(v: np.ndarray, size: int) -> np.ndarray:
    """Read-only view M[b, i, j] = v[b, i + j] for i, j < size <= (len + 1) / 2."""
    sb, si = v.strides
    return as_strided(v, shape=(len(v), size, size), strides=(sb, si, si), writeable=False)


def _hm_point(p: SchemeParams, cutoff: int, check_input_tail: bool):
    """Arm matrices of one HM point (batch axis of one) and its input norm."""
    a1, a2 = _input_amplitudes(p, cutoff, check_input_tail)
    t, lam = np.array([p.transmittance]), np.array([p.measurement.lam])
    return (*_hm_arm_matrices(a1[None], a2[None], t, lam), _input_norm_sq(a1, a2))


def _hm_amplitudes_at(p: SchemeParams, x: float, cutoff: int, check_input_tail: bool):
    """Hankel kernel on one point: its output at reading x and its input norm."""
    u1, u2, norm = _hm_point(p, cutoff, check_input_tail)
    # the scalar recurrence is cheaper on one point and raises HermiteOverflowError
    h = hermite_sequence(complex(x), 2 * cutoff).real[None]
    return _hm_hankel_amplitudes(u1, u2, np.array([x], dtype=float), h)[0], norm


def _hm_window(p: SchemeParams, edges: np.ndarray, cutoff: int, check_input_tail: bool):
    """Window matrix V of one HM point, and the probability of a reading
    between each pair of consecutive edges.

    V holds the unnormalized outputs over |0>..|2*cutoff> in the basis of
    the normalized Hermite functions phi_j (fock.hermite_gaussian_columns):
    c(x) = phi(x)^T V.  The arm matrices are convolved into
    W[j, s] = sum_{d1+d2=j, k+l=s} U1[d1, k] U2[d2, l] (one Toeplitz product
    per row d1), and V[j, s] = sqrt(2^j j!) sqrt(s!) W[j, s].  The square
    roots are carried as (sqrt(2) kappa)^j kappa^s times
    _scaled_sqrt_factorials, with the powers of kappa folded into the arm
    matrices, so no factor leaves the double range at any cutoff the
    Hermite overflow check of the closed form admits; the edges pass that
    check before W is built.

    The outcome density is the quadratic form p(x) = phi(x)^T G phi(x) with
    G = Re(V V^dagger) / norm.  As phi_n'' = (x^2 - 2n - 1) phi_n and
    (phi_{n-1} phi_n)' = sqrt(2n) (phi_{n-1}^2 - phi_n^2), its primitive is

        B(x) = 2 phi^T M phi' + sum_n G[n, n] D_n(x),

    with M[j, k] = G[j, k] / (2 (j - k)) off the diagonal and 0 on it,
    phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}, D_0 = erf(x) / 2
    and D_n = D_{n-1} - phi_{n-1} phi_n / sqrt(2n).  The probabilities are
    the differences of B over the edges.
    """
    u1, u2, norm = _hm_point(p, cutoff, check_input_tail)
    h = _hermite_rows(edges, 2 * cutoff)
    if not np.isfinite(h).all():
        i, k = np.argwhere(~np.isfinite(h))[0]
        raise HermiteOverflowError(int(k), complex(edges[i]))
    sqf, kappa = _scaled_sqrt_factorials(2 * cutoff)
    n = np.arange(cutoff + 1)
    # (sqrt(2) kappa)^d kappa^k, needed only where U[d, k] != 0, i.e. d + k <= cutoff
    scale = np.sqrt(2.0) ** n[:, None] * kappa ** np.minimum(np.add.outer(n, n), cutoff)
    # padded[d1, cutoff + k] = U1[d1, k], so U2[:, ::-1] @ padded[d1, hankel] holds
    # each row of U2 convolved with U1[d1]
    padded = np.zeros((cutoff + 1, 3 * cutoff + 1), dtype=np.complex128)
    padded[:, cutoff : 2 * cutoff + 1] = u1[0] * scale
    hankel = np.add.outer(n, np.arange(2 * cutoff + 1))
    u2_rev = (u2[0] * scale)[:, ::-1]
    v = np.zeros((2 * cutoff + 1, 2 * cutoff + 1), dtype=np.complex128)
    for d1 in range(cutoff + 1):
        v[d1 : d1 + cutoff + 1] += u2_rev @ padded[d1, hankel]
    v *= sqf[:, None] * sqf

    g = (v @ v.conj().T).real / norm
    j = np.arange(2 * cutoff + 1)
    gap = np.subtract.outer(j, j)
    m = g / np.where(gap == 0, np.inf, 2.0 * gap)
    phi = hermite_gaussian_columns(2 * cutoff + 1, edges)
    # at j = 0 the first term reads phi[-1] times 0
    dphi = np.sqrt(j / 2.0)[:, None] * phi[j - 1] - np.sqrt((j + 1) / 2.0)[:, None] * phi[j + 1]
    steps = phi[: 2 * cutoff] * phi[1 : 2 * cutoff + 1] / np.sqrt(2.0 * j[1:])[:, None]
    d = 0.5 * erf(edges) - np.vstack([np.zeros_like(edges), np.cumsum(steps, axis=0)])
    primitive = 2.0 * np.sum(phi[:-1] * (m @ dphi), axis=0) + np.diag(g) @ d
    return v, np.diff(primitive)


def output_spd_closed_form(
    p: SchemeParams, cutoff: int, check_input_tail: bool = True
) -> ConditionalOutput:
    """SPD conditional state from the collapsed double sum."""
    if not isinstance(p.measurement, SPD):
        raise TypeError("measurement must be SPD")
    a1, a2 = _input_amplitudes(p, cutoff, check_input_tail)
    full = _spd_full_amplitudes(a1[None], a2[None], np.array([p.transmittance]))[0]
    return _split_output(full, cutoff)


def output_hm_closed_form(
    p: SchemeParams, cutoff: int, check_input_tail: bool = True
) -> ConditionalOutput:
    """HM conditional state from the factorized quadruple sum."""
    if not isinstance(p.measurement, HM):
        raise TypeError("measurement must be HM")
    full, _ = _hm_amplitudes_at(p, p.measurement.x, cutoff, check_input_tail)
    return _split_output(full, cutoff)


def embedded_two_mode_state(
    p: SchemeParams, cutoff: int, check_input_tail: bool = True
) -> TwoModeState:
    """Post-beam-splitter state embedded at twice the cutoff.

    At cutoff 2N every total-photon sector reachable from inputs truncated
    at N is complete, so the beam splitter drops nothing and projections of
    this state are exact for the truncated inputs.
    """
    a1, a2 = _input_amplitudes(p, cutoff, check_input_tail)
    big = 2 * cutoff
    e1 = np.zeros(big + 1, dtype=np.complex128)
    e2 = np.zeros(big + 1, dtype=np.complex128)
    e1[: cutoff + 1] = a1
    e2[: cutoff + 1] = a2
    joint = tensor(FockVector(e1, big), FockVector(e2, big))
    mixed, dropped = beam_splitter_apply(joint, BeamSplitterSpec(p.transmittance))
    if dropped != 0.0:
        raise AssertionError("embedding at twice the cutoff must not drop mass")
    return mixed


def output_oracle(
    p: SchemeParams, cutoff: int, check_input_tail: bool = True
) -> ConditionalOutput:
    """Reference evaluation through the explicit two-mode pipeline."""
    mixed = embedded_two_mode_state(p, cutoff, check_input_tail)
    if isinstance(p.measurement, SPD):
        vec, _ = project_fock(mixed, MODE_FIRST, 1)
    elif isinstance(p.measurement, HM):
        vec, _ = project_quadrature(mixed, MODE_FIRST, p.measurement.x, p.measurement.lam)
    else:
        raise TypeError(f"unknown measurement {type(p.measurement).__name__}")
    return _split_output(vec.amps, cutoff)


def conditional_output(
    p: SchemeParams,
    cutoff: int,
    method: str = "closed",
    check_input_tail: bool = True,
) -> ConditionalOutput:
    """Heralded signal state for either measurement kind.

    method selects the evaluation route: "closed" (default) or "oracle".
    Both take every squeezing magnitude r >= 0, coherent inputs included.
    """
    if method == "oracle":
        return output_oracle(p, cutoff, check_input_tail)
    if method != "closed":
        raise ValueError(f"unknown method {method!r}")
    if isinstance(p.measurement, SPD):
        return output_spd_closed_form(p, cutoff, check_input_tail)
    if isinstance(p.measurement, HM):
        return output_hm_closed_form(p, cutoff, check_input_tail)
    raise TypeError(f"unknown measurement {type(p.measurement).__name__}")


def misfit(
    out: ConditionalOutput | FockVector | DensityMatrix, target: FockVector
) -> float:
    """1 - fidelity between the prepared state and the normalized target."""
    state = out.state if isinstance(out, ConditionalOutput) else out
    return 1.0 - fidelity(target, state)


# ---------------------------------------------------------------------------
# batched closed form


def _regular_rows(rows: np.ndarray, kind: str) -> np.ndarray:
    """Rows the batched closed form evaluates: finite and inside the
    parameter ranges."""
    t = rows[:, 8]
    ok = (
        np.isfinite(rows).all(axis=1)
        # r1, alpha1, r2, alpha2
        & (rows[:, [0, 2, 4, 6]] >= 0.0).all(axis=1)
        & (t >= _T_RANGE[0])
        & (t <= _T_RANGE[1])
    )
    if kind == "hm":
        ok &= (rows[:, 9] >= _X_RANGE[0]) & (rows[:, 9] <= _X_RANGE[1])
    return ok


def _hermite_rows(z: np.ndarray, n_max: int) -> np.ndarray:
    """H_0(z)..H_n_max(z) for a vector of points, shape (len(z), n_max + 1).

    Same recurrence as fock.hermite_sequence; an overflow leaves inf or nan
    in its row instead of raising.
    """
    two_z = 2.0 * z
    h = np.empty((n_max + 1, len(z)), dtype=z.dtype)
    h[0] = 1.0
    if n_max >= 1:
        h[1] = two_z
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_max):
            h[k + 1] = two_z * h[k] - 2.0 * k * h[k - 1]
    return h.T


def _hm_hankel_amplitudes(u1: np.ndarray, u2: np.ndarray, x: np.ndarray, h: np.ndarray):
    """Unnormalized HM outputs over |0>..|2*cutoff>, point b read at x[b] with
    h[b] = H_0..H_{2 cutoff}(x[b]).  The arms meet in the Hankel matrix H_{d1+d2}(x):

        c[s] = pi^{-1/4} e^{-x^2/2} sqrt(s!) sum_{k+l=s} (U1^T @ Hankel(x) @ U2)[k, l].
    """
    n_cut = u1.shape[-1] - 1
    hankel = np.ascontiguousarray(_hankel_rows(h, n_cut + 1))
    # Hankel(x) @ U1 with the real Hankel applied to the real and imaginary
    # parts at once: (Hankel @ U1)[d2, k] = (U1^T @ Hankel)[k, d2]
    h_u1 = (hankel @ np.ascontiguousarray(u1).view(np.float64)).view(np.complex128)
    # (U2^T @ Hankel @ U1)[l, k] is the transposed contraction; its
    # anti-diagonal sums are the same
    q = np.swapaxes(u2, 1, 2) @ h_u1
    pref = np.pi**-0.25 * np.exp(-0.5 * x * x)
    return pref[:, None] * sqrt_factorials(2 * n_cut) * _antidiagonal_sums(q)


def _closed_form_rows(rows: np.ndarray, kind: str, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Heralded outputs of regular rows from the exact Gaussian core.

    Returns (d, log_c) with the unnormalized output over |0>..|cutoff> of
    row b equal to exp(log_c[b]) d[b].  The inputs are untruncated: the
    beam splitter turns their Bargmann functions c0_j exp(a_j z^2/2 + b_j z)
    (states._bargmann_coefficients) into C exp(z^T A z / 2 + B^T z) in the
    modes z = (z3, z4), with R = 1 - T,

        A33 = T a1 - R a2,  A34 = i sqrt(TR) (a1 + a2),  A44 = T a2 - R a1,
        B3 = sqrt(T) b1 + i sqrt(R) b2,  B4 = i sqrt(R) b1 + sqrt(T) b2,

    and C = c0_1 c0_2.  The SPD herald keeps the z3 coefficient,
    C (B3 + A34 z4) exp(A44 z4^2/2 + B4 z4), so log_c = log C and
    d_m = B3 e_m + A34 sqrt(m) e_{m-1}, with e the input recurrence
    (states._recurrence_rows) on (A44, B4).  The HM herald contracts z3
    with the quadrature eigenstate, a Gaussian integral: with
    p = -e^{-2i lam}, q = sqrt(2) x e^{-i lam} and Delta = 1 - A33 p
    (Re Delta > 0 since |A33| < 1) the output is c0 exp(a z^2/2 + b z) with

        a = A44 + A34^2 p / Delta,   b = B4 + A34 (B3 p + q) / Delta,
        c0 = C pi^{-1/4} e^{-x^2/2} Delta^{-1/2}
             exp((B3^2 p / 2 + B3 q + A33 q^2 / 2) / Delta),

    so log_c = log c0 and d is the recurrence on (a, b).  Each recurrence
    starts at 1 and the scale stays in log form, because some points in the
    search box herald with a weight below the smallest double.  O(cutoff)
    per row (Miatto & Quesada, Quantum 4, 366 (2020)).
    """
    a1, b1, c1 = _bargmann_coefficients(*rows[:, 0:4].T)
    a2, b2, c2 = _bargmann_coefficients(*rows[:, 4:8].T)
    t = rows[:, 8]
    sq_t, sq_r = np.sqrt(t), np.sqrt(1.0 - t)
    a33 = t * a1 - (1.0 - t) * a2
    a34 = 1j * sq_t * sq_r * (a1 + a2)
    a44 = t * a2 - (1.0 - t) * a1
    b3 = sq_t * b1 + 1j * sq_r * b2
    b4 = 1j * sq_r * b1 + sq_t * b2
    log_c = np.log(c1) + np.log(c2)
    if kind == "spd":
        e = _recurrence_rows(a44, b4, 1.0, cutoff)
        d = b3[:, None] * e
        d[:, 1:] += a34[:, None] * np.sqrt(np.arange(1, cutoff + 1)) * e[:, :-1]
        return d, log_c
    x, lam = rows[:, 9], rows[:, 10]
    p = -np.exp(-2j * lam)
    q = np.sqrt(2.0) * x * np.exp(-1j * lam)
    delta = 1.0 - a33 * p
    a = a44 + a34**2 * p / delta
    b = b4 + a34 * (b3 * p + q) / delta
    log_c += (-0.25 * np.log(np.pi) - 0.5 * x * x - 0.5 * np.log(delta)
              + (0.5 * b3**2 * p + b3 * q + 0.5 * a33 * q * q) / delta)
    return _recurrence_rows(a, b, 1.0, cutoff), log_c


def conditional_output_batch(
    rows: np.ndarray, kind: str, cutoff: int
) -> tuple[np.ndarray, np.ndarray]:
    """Heralded states of many points at once, one point per row.

    rows follow the flat layout of layout_for_kind(kind); angles need not
    be wrapped.  Returns the normalized states, shape (B, cutoff + 1), and
    the raw weights, shape (B,), of the exact Gaussian core
    (_closed_form_rows): the heralded state of untruncated inputs,
    truncated at the output.  Where the input tails above the cutoff
    vanish, these are row by row the state and weight of
    conditional_output(vector_to_params(row, kind), cutoff,
    check_input_tail=False), which truncates the inputs; elsewhere they
    differ by about the input tail mass.

    Coherent inputs (r = 0) are regular.  A row with a value outside the
    parameter ranges, or whose core output is not finite, goes through
    conditional_output itself, so it raises exactly where the scalar route
    does.
    """
    rows = np.asarray(rows, dtype=float)
    width = len(layout_for_kind(kind))
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"expected rows of {width} entries for {kind}")
    states = np.zeros((len(rows), cutoff + 1), dtype=np.complex128)
    weights = np.zeros(len(rows))
    scalar = ~_regular_rows(rows, kind)
    sel = np.flatnonzero(~scalar)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d, log_c = _closed_form_rows(rows[sel], kind, cutoff)
        norm_sq = np.sum(np.abs(d) ** 2, axis=1)
        weight = np.exp(2.0 * log_c.real + np.log(norm_sq))
    finite = np.isfinite(d).all(axis=1) & np.isfinite(norm_sq) & np.isfinite(log_c)
    scalar[sel[~finite]] = True
    sel, d, log_c, norm_sq = sel[finite], d[finite], log_c[finite], norm_sq[finite]
    # an impossible outcome keeps its zero vector, as in _split_output
    scale = np.exp(1j * log_c.imag) / np.sqrt(np.where(norm_sq > 0.0, norm_sq, 1.0))
    states[sel] = d * scale[:, None]
    weights[sel] = weight[finite]
    for i in np.flatnonzero(scalar):
        out = conditional_output(vector_to_params(rows[i], kind), cutoff, check_input_tail=False)
        states[i] = out.state.amps
        weights[i] = out.raw_weight
    return states, weights


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


def _input_norm_sq(a1: np.ndarray, a2: np.ndarray) -> float:
    return float(np.sum(np.abs(a1) ** 2) * np.sum(np.abs(a2) ** 2))


def success_prob_spd(p: SchemeParams, cutoff: int, check_input_tail: bool = True) -> float:
    """Probability of the single-photon herald, including mass above the cutoff."""
    if not isinstance(p.measurement, SPD):
        raise TypeError("measurement must be SPD")
    a1, a2 = _input_amplitudes(p, cutoff, check_input_tail)
    full = _spd_full_amplitudes(a1[None], a2[None], np.array([p.transmittance]))[0]
    return float(np.sum(np.abs(full) ** 2)) / _input_norm_sq(a1, a2)


def hm_outcome_density(
    p: SchemeParams, x_value: float, cutoff: int, check_input_tail: bool = True
) -> float:
    """Probability density of reading x_value on the measured arm."""
    if not isinstance(p.measurement, HM):
        raise TypeError("measurement must be HM")
    full, norm = _hm_amplitudes_at(p, x_value, cutoff, check_input_tail)
    return float(np.sum(np.abs(full) ** 2)) / norm


def success_prob_hm(p: SchemeParams, cutoff: int, check_input_tail: bool = True) -> float:
    """Probability of a quadrature reading inside x +/- window_halfwidth."""
    if not isinstance(p.measurement, HM):
        raise TypeError("measurement must be HM")
    delta = p.measurement.window_halfwidth
    if delta == 0.0:
        return 0.0
    edges = np.array([p.measurement.x - delta, p.measurement.x + delta])
    _, probs = _hm_window(p, edges, cutoff, check_input_tail)
    return float(probs[0])


def average_misfit(
    p: SchemeParams,
    target: FockVector,
    cutoff: int,
    n_subranges: int = tol.DEFAULT_SUBRANGES,
    check_input_tail: bool = True,
) -> float:
    """Probability-weighted misfit over the acceptance window.

    The window x +/- window_halfwidth is split into n_subranges equal
    pieces; each contributes its midpoint misfit weighted by the
    probability of landing in that piece.
    """
    if not isinstance(p.measurement, HM):
        raise TypeError("measurement must be HM")
    delta = p.measurement.window_halfwidth
    if delta <= 0.0:
        raise ValueError("measurement.window_halfwidth must be > 0")
    if n_subranges < 1:
        raise ValueError("n_subranges must be >= 1")
    edges = np.linspace(p.measurement.x - delta, p.measurement.x + delta, n_subranges + 1)
    v, probs = _hm_window(p, edges, cutoff, check_input_tail)
    mids = 0.5 * (edges[:-1] + edges[1:])
    eps = [misfit(_split_output(full, cutoff).state, target)
           for full in hermite_gaussian_columns(2 * cutoff, mids).T @ v]
    weight_sum = float(np.sum(probs))
    if not weight_sum > 0.0:
        raise NormalizationError("acceptance window carries no probability mass")
    return float(probs @ eps) / weight_sum


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
    density at x when there is no window.  eps_avg is the window-averaged
    misfit, None without a window.
    """
    out = conditional_output(p, cutoff, check_input_tail=check_input_tail)
    eps = misfit(out, target)
    if isinstance(p.measurement, SPD):
        prob = success_prob_spd(p, cutoff, check_input_tail=check_input_tail)
        return Score(out, eps, prob, None)
    if p.measurement.window_halfwidth > 0.0:
        prob = success_prob_hm(p, cutoff, check_input_tail=check_input_tail)
        eps_avg = average_misfit(p, target, cutoff, check_input_tail=check_input_tail)
        return Score(out, eps, prob, eps_avg)
    prob = hm_outcome_density(p, p.measurement.x, cutoff, check_input_tail=check_input_tail)
    return Score(out, eps, prob, None)
