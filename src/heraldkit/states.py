"""Constructors for input and target states of the heralding scheme.

Inputs are squeezed coherent states |zeta, alpha> = D(alpha) S(zeta) |0> with
zeta = r e^{i theta}, alpha = |alpha| e^{i phi} and the squeeze operator in
the convention S(zeta) = exp(zeta* a^2 / 2 - zeta a'^2 / 2), which gives the
squeezed-vacuum column <2k|S(r)|0> = (-tanh(r)/2)^k sqrt((2k)!)/k! /
sqrt(cosh r).  Their number amplitudes come from one regular recurrence for
every r >= 0 (see squeezed_coherent_amplitudes); at r = 0 it is the coherent
ladder.

Target families: binomial, negative binomial, amplitude squeezed, squeezed
few-term superpositions (useful as resources for cubic nonlinear gates), and
literal ad hoc superpositions.  Every target is built in O(cutoff) with
exact amplitudes up to the cutoff: the squeezed resource from the input
recurrence and a three-step column recurrence of the squeeze operator (see
resource_state), the others from closed forms over one log-factorial table.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace
from typing import Sequence, Union

import numpy as np

from . import tolerances as tol
from .errors import NormalizationError, TailMassError, TruncationQualityError
from .fock import FockVector, _log_factorials, _loss_amplitudes


@dataclass(frozen=True)
class SqueezedCoherentParams:
    """One input arm: squeezing magnitude/phase and coherent magnitude/phase."""

    r: float
    theta: float
    alpha_abs: float
    phi: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r, self.theta, self.alpha_abs, self.phi))):
            raise ValueError(f"input parameters must be finite, got {self}")
        if self.r < 0:
            raise ValueError(f"squeezing magnitude r={self.r} must be >= 0")
        if self.alpha_abs < 0:
            raise ValueError(f"alpha_abs={self.alpha_abs} must be >= 0")


def check_tail_mass(amps: np.ndarray, cutoff: int):
    """Raise TailMassError when the top TAIL_WINDOW Fock levels, never the
    vacuum, hold too much relative mass."""
    total = float(np.sum(np.abs(amps) ** 2))
    if total == 0.0:
        return
    tail = float(np.sum(np.abs(amps[max(cutoff - tol.TAIL_WINDOW + 1, 1):]) ** 2)) / total
    if tail > tol.TAIL_MASS_LIMIT:
        raise TailMassError(tail, cutoff)


# The math of one point for the formulas that serve one point and a batch
# alike (_bargmann_coefficients, scheme._gaussian_core and
# scheme._core_log_norm_sq): they take their exp, log, sqrt, cosh, tanh and
# angle from xp, numpy for arrays or this for Python floats and complex
# numbers, which is several times cheaper than numpy on one value.
# Overflow raises OverflowError here where numpy returns inf.
_SCALAR_MATH = SimpleNamespace(
    exp=cmath.exp, log=cmath.log, sqrt=math.sqrt, cosh=math.cosh, tanh=math.tanh,
    angle=cmath.phase,
)


def _bargmann_coefficients(r, theta, alpha_abs, phi, xp=np):
    """(a, b, c_0) of the Bargmann function c_0 exp(a z^2 / 2 + b z) of
    D(alpha)S(zeta)|0>, elementwise over arrays of arm parameters, or on
    plain floats with xp = _SCALAR_MATH."""
    alpha = alpha_abs * xp.exp(1j * phi)
    s = xp.exp(1j * theta) * xp.tanh(r)
    c0 = xp.exp(-0.5 * alpha_abs**2 - 0.5 * alpha.conjugate() ** 2 * s) / xp.sqrt(xp.cosh(r))
    return -s, alpha + alpha.conjugate() * s, c0


@cache
def _recurrence_roots(cutoff: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """sqrt(n) for n = 0..cutoff - 1 and 1 / sqrt(n + 1) for the same n."""
    roots = np.sqrt(np.arange(cutoff + 1))
    return tuple(roots[:-1].tolist()), tuple((1.0 / roots[1:]).tolist())


def squeezed_coherent_amplitudes(p: SqueezedCoherentParams, cutoff: int) -> np.ndarray:
    """Unnormalized truncated amplitudes c_0..c_cutoff of D(alpha)S(zeta)|0>.

    The state has the Bargmann function c_0 exp(a z^2 / 2 + b z) with

        a = -e^{i theta} tanh(r),   b = alpha + alpha* e^{i theta} tanh(r),
        c_0 = exp(-|alpha|^2/2 - alpha*^2 e^{i theta} tanh(r)/2) / sqrt(cosh r),

    so the amplitudes follow the normalized recurrence

        sqrt(n+1) c_{n+1} = b c_n + a sqrt(n) c_{n-1},

    which is regular for every r >= 0 and gives the coherent ladder
    alpha^n e^{-|alpha|^2/2} / sqrt(n!) at r = 0 (Miatto & Quesada, Quantum 4,
    366 (2020)).  One input loops in Python complex arithmetic, which is
    cheaper than per-step numpy calls; the same loop (_amplitudes) runs
    over many coefficient triples at once on numpy arrays.
    """
    return np.array(_input_amplitudes(p.r, p.theta, p.alpha_abs, p.phi, _recurrence_roots(cutoff)))


def _input_amplitudes(r, theta, alpha_abs, phi, roots) -> list[complex]:
    """squeezed_coherent_amplitudes on plain floats, as a list, with
    roots = _recurrence_roots(cutoff).  The coefficients come from numpy's
    functions: _SCALAR_MATH would move every figure of the truncated route
    in its last digits.  An input whose c_0 underflows (cosh r overflows
    past r = 710) raises NormalizationError, naming it."""
    with np.errstate(over="ignore"):
        a, b, c = (complex(v) for v in _bargmann_coefficients(r, theta, alpha_abs, phi))
    if c == 0.0:
        raise NormalizationError(f"input r={r:g}, |alpha|={alpha_abs:g} is not finite (c_0 = 0)")
    return _amplitudes(a, b, c, roots)


def _amplitudes(a: complex, b: complex, c: complex, roots) -> list[complex]:
    """Amplitudes c_0..c_cutoff of the Bargmann function c exp(a z^2 / 2 + b z)
    in Python complex arithmetic, as a list, with roots =
    _recurrence_roots(cutoff).  Given numpy arrays a, b, c of one length,
    entry n holds amplitude n of every triple."""
    amps = [c]
    prev = 0j
    for root, inv_root in zip(*roots):
        c, prev = (b * c + a * root * prev) * inv_root, c
        amps.append(c)
    return amps


def binomial_state(p: float, M: int, cutoff: int) -> FockVector:
    """Binomial state: c_n = [C(M,n) p^n (1-p)^(M-n)]^(1/2) on n = 0..M,
    the amplitudes of n of M photons surviving a loss of efficiency p
    (column M of fock._loss_amplitudes)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if not 0 <= M <= cutoff:
        raise ValueError(f"M={M} must lie in 0..cutoff={cutoff}")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[: M + 1] = _loss_amplitudes(p, M)[:, M]
    return FockVector(amps, cutoff).normalized()


def negative_binomial_state(
    eta_nb: float, M: int, varphi: float, cutoff: int, check_tail: bool = True
) -> FockVector:
    """Negative binomial state with c_n ∝ sqrt(C(M+n-1, n)) eta_nb^n e^{i n varphi}.

    M=1 reduces to the geometric ladder sqrt(1 - eta_nb^2) eta_nb^n.
    """
    if not 0.0 <= eta_nb < 1.0:
        raise ValueError(f"eta_nb={eta_nb} outside [0, 1)")
    if M < 1:
        raise ValueError(f"M={M} must be >= 1")
    n = np.arange(cutoff + 1)
    lf = _log_factorials(M + cutoff)
    log_comb = lf[M - 1 + n] - lf[n] - lf[M - 1]
    with np.errstate(divide="ignore"):
        mag = np.exp(0.5 * log_comb + n * np.log(np.maximum(eta_nb, 1e-300)))
    if eta_nb == 0.0:
        mag = np.where(n == 0, 1.0, 0.0)
    amps = mag * np.exp(1j * varphi * n)
    if check_tail:
        check_tail_mass(amps, cutoff)
    return FockVector(amps, cutoff).normalized()


def amplitude_squeezed_state(
    alpha0: float, u: float, delta_as: float, cutoff: int, check_tail: bool = True
) -> FockVector:
    """Photon-number-squeezed superposition,

        c_n ∝ sqrt(2 pi) alpha0^n / (u sqrt(n!)) exp(-(delta_as - n)^2 / (2 u^2)),

    a coherent ladder with a Gaussian envelope of width u around delta_as.
    """
    if alpha0 <= 0:
        raise ValueError("alpha0 must be > 0")
    if u <= 0:
        raise ValueError("u must be > 0")
    if delta_as < 0:
        raise ValueError("delta_as must be >= 0")
    n = np.arange(cutoff + 1)
    log_mag = (
        n * np.log(alpha0) - _log_factorials(cutoff) / 2.0 - (delta_as - n) ** 2 / (2.0 * u * u)
    )
    log_mag -= np.max(log_mag)
    amps = (np.sqrt(2.0 * np.pi) / u) * np.exp(log_mag).astype(np.complex128)
    if check_tail:
        check_tail_mass(amps, cutoff)
    return FockVector(amps, cutoff).normalized()


def resource_state(
    zeta: complex, chi_prime: complex, cutoff: int, check_tail: bool = True
) -> FockVector:
    """Squeezed three-term superposition

        N S(zeta) (|0> + chi' (3 / (2 sqrt(2))) |1> + chi' (sqrt(3)/2) |3>),

    used as a resource for cubic nonlinear gates, built exactly in
    O(cutoff).  With zeta = r e^{i theta}, S a' S^dagger = cosh(r) a' +
    e^{-i theta} sinh(r) a, and the vacuum-column recurrence turn the
    columns S|n> = S a' |n-1> / sqrt(n) into

        sqrt(n) <m|S|n> = sech(r) sqrt(m) <m-1|S|n-1>
                          + e^{-i theta} tanh(r) sqrt(n-1) <m|S|n-2>,

    whose coefficients are at most 1 in size, started from the squeezed
    vacuum S|0> of the input recurrence.  Column n up to the cutoff needs
    only columns below it up to the cutoff, so every kept amplitude is
    exact.  |zeta| above 2 is refused.  Squeezing pushes mass upward, so
    the truncated image is checked: if more than TAIL_MASS_LIMIT of the
    exact state falls above the cutoff the construction refuses.
    check_tail=False accepts the truncation instead.
    """
    z = complex(zeta)
    r = abs(z)
    if r > 2.0:
        raise ValueError(f"|zeta|={r:.3f} above 2; truncation untrustworthy")
    theta = cmath.phase(z)
    core = np.array([1.0, chi_prime * 3.0 / (2.0 * math.sqrt(2.0)), chi_prime * math.sqrt(3.0) / 2.0])
    c0, c1, c3 = core / np.linalg.norm(core)
    vac = squeezed_coherent_amplitudes(SqueezedCoherentParams(r, theta, 0.0, 0.0), cutoff)
    roots = np.sqrt(np.arange(cutoff + 1))
    sech, t = 1.0 / math.cosh(r), cmath.exp(-1j * theta) * math.tanh(r)
    cols = [np.zeros_like(vac), vac]  # cols[n + 1] is S|n>
    for n in range(1, 4):
        raised = np.zeros_like(vac)
        raised[1:] = roots[1:] * cols[-1][:-1]
        cols.append((sech * raised + t * math.sqrt(n - 1) * cols[-2]) / math.sqrt(n))
    amps = c0 * vac + c1 * cols[2] + c3 * cols[4]
    if check_tail:
        lost = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
        if lost > tol.TAIL_MASS_LIMIT:
            raise TruncationQualityError(
                f"squeezing pushed {lost:.3e} of the state mass above cutoff "
                f"{cutoff}; increase the cutoff"
            )
        check_tail_mass(amps, cutoff)
    return FockVector(amps, cutoff).normalized()


def adhoc_superposition(coeffs: Sequence[complex], cutoff: int) -> FockVector:
    """Normalized superposition sum_n coeffs[n] |n>."""
    c = np.asarray(list(coeffs), dtype=np.complex128)
    if c.ndim != 1 or len(c) == 0:
        raise ValueError("coeffs must be a nonempty 1-d sequence")
    if len(c) > cutoff + 1:
        raise ValueError(f"{len(c)} coefficients exceed cutoff {cutoff}")
    if not np.any(c):
        raise ValueError("all-zero coefficient list")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[: len(c)] = c
    return FockVector(amps, cutoff).normalized()


# --- target family specs -----------------------------------------------------


@dataclass(frozen=True)
class Binomial:
    p: float
    M: int


@dataclass(frozen=True)
class NegativeBinomial:
    eta_nb: float
    M: int
    varphi: float = 0.0


@dataclass(frozen=True)
class AmplitudeSqueezed:
    alpha0: float
    u: float
    delta_as: float


@dataclass(frozen=True)
class Resource:
    zeta: complex
    chi_prime: complex


@dataclass(frozen=True)
class AdHoc:
    coefficients: tuple


TargetSpec = Union[Binomial, NegativeBinomial, AmplitudeSqueezed, Resource, AdHoc]


def target_state(spec: TargetSpec, cutoff: int, check_tail: bool = True) -> FockVector:
    """Build the normalized target vector for any family spec.

    check_tail=False skips the truncation-quality guard for the families
    that carry one; binomial and ad hoc targets have finite support and
    never need it.
    """
    if isinstance(spec, Binomial):
        return binomial_state(spec.p, spec.M, cutoff)
    if isinstance(spec, NegativeBinomial):
        return negative_binomial_state(
            spec.eta_nb, spec.M, spec.varphi, cutoff, check_tail=check_tail
        )
    if isinstance(spec, AmplitudeSqueezed):
        return amplitude_squeezed_state(
            spec.alpha0, spec.u, spec.delta_as, cutoff, check_tail=check_tail
        )
    if isinstance(spec, Resource):
        return resource_state(spec.zeta, spec.chi_prime, cutoff, check_tail=check_tail)
    if isinstance(spec, AdHoc):
        return adhoc_superposition(spec.coefficients, cutoff)
    raise TypeError(f"unknown target spec {type(spec).__name__}")
