"""Truncated number-basis linear algebra for a two-mode interferometer.

All states live in a hard-truncated Fock space spanned by |0>..|N_cut>.
Operations are pure: inputs are never mutated and returned arrays are frozen
after construction.  The quadrature convention is X = (a + a') / sqrt(2), so
the vacuum quadrature variance is 1/2, and the rotated eigenbra satisfies

    <x|n>_lam = pi**-0.25 (2**n n!)**-0.5 H_n(x) exp(-x**2/2) exp(-i n lam).

The beam splitter mixes input modes 1 and 2 into output modes 3 and 4, in
the symmetric phase convention

    a1' -> sqrt(T) a3' + i sqrt(1-T) a4',
    a2' -> i sqrt(1-T) a3' + sqrt(T) a4',

written here as the substitution rule applied to creation operators.  In a
two-mode amplitude array c[n, m] the first index is mode 3, the measured
arm, and the second is mode 4, the signal arm; project_quadrature always
contracts the first.

The splitter conserves n + m, so it acts block by block on the sectors of
fixed total photon number s.  Block s follows from block s - 1 by one
creation operator (in the spirit of the recurrences of Miatto & Quesada,
Quantum 4, 366 (2020)):

    U|n, s-n> = (u00 a3' + u10 a4') U|n-1, s-n> / sqrt(n)     for 2n >= s,
    U|n, s-n> = (u01 a3' + u11 a4') U|n, s-n-1> / sqrt(s-n)   otherwise,

with u00 = u11 = sqrt(T) and u01 = u10 = i sqrt(1-T) the entries of the
single-photon matrix of the splitter.  Dividing by the larger root keeps
every coefficient at most sqrt(2) in size.  In the symmetric
convention entry [p, n] of block s is i^(p+n) times a real number, so the
blocks are walked in real form and the phases go on the rows of the state
before and after.  A column of block s comes from a column of block s - 1,
so a state whose amplitudes vanish outside n <= A, m <= B needs only the
band of columns n in [max(0, s - B), min(s, A)], and only that band is
built.  Against a 50-digit reference the blocks agree to 2.1e-14 at
s = 60 and to 8.1e-12 at s = 120, the top sectors of an embedding at
cutoffs 30 and 60.  The blocks are streamed from the vacuum up and never
cached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import tolerances as tol
from .errors import HermiteOverflowError, NormalizationError

_PI_QUARTER = np.pi ** -0.25


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@cache
def _log_factorials(n_max: int) -> np.ndarray:
    """log(n!) for n = 0..n_max, the one log-factorial table of the package."""
    return _freeze(np.array([math.lgamma(n + 1.0) for n in range(n_max + 1)]))


def _loss_amplitudes(eta: float, n_max: int) -> np.ndarray:
    """Loss amplitudes L[p, n] = sqrt(C(n, p) eta^p (1-eta)^(n-p)), 0 for p > n.

    L[p, n] is the amplitude for p of n photons surviving (n - p going to
    the ancilla), computed in log space so no binomial overflows; a zero
    power of a zero base counts as 1, so eta = 0 and eta = 1 are exact.  The
    symmetric convention's phase i^(n-p) is common to every entry of one
    Kraus operator, so it cancels in every use and is left out.
    """
    n = np.arange(n_max + 1)
    kept = n[:, None]
    lost = n[None, :] - kept
    valid = lost >= 0
    lost = np.where(valid, lost, 0)
    lf = _log_factorials(n_max)
    log_sq = lf[n] - lf[kept] - lf[lost] + _log_power(kept, eta) + _log_power(lost, 1.0 - eta)
    return np.where(valid, np.exp(0.5 * log_sq), 0.0)


def _log_power(k: np.ndarray, base: float) -> np.ndarray:
    """log(base^k) elementwise for integer powers k >= 0, with 0^0 = 1."""
    if base > 0.0:
        return k * math.log(base)
    return np.where(k > 0, -np.inf, 0.0)


@dataclass
class FockVector:
    """Amplitudes of a single-mode state over |0>..|cutoff>.

    The vector is not required to be normalized; projection results carry
    their raw weight in the amplitudes.
    """

    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
        a = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if a.ndim != 1 or a.shape[0] != self.cutoff + 1:
            raise ValueError(
                f"amplitude array of length {a.shape} does not match "
                f"cutoff {self.cutoff}"
            )
        self.amps = _freeze(a)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def normalized(self) -> "FockVector":
        n = self.norm_sq()
        if n <= 0.0:
            raise NormalizationError("cannot normalize a zero vector")
        return FockVector(self.amps / np.sqrt(n), self.cutoff)

    def overlap(self, other: "FockVector") -> complex:
        """<self|other> with the bra conjugated."""
        if other.cutoff != self.cutoff:
            raise ValueError("cutoff mismatch in overlap")
        return complex(np.vdot(self.amps, other.amps))


@dataclass
class TwoModeState:
    """Pure two-mode amplitudes c[n, m]; first index mode 3, second mode 4."""

    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
        c = np.ascontiguousarray(self.amps, dtype=np.complex128)
        d = self.cutoff + 1
        if c.shape != (d, d):
            raise ValueError(f"two-mode array {c.shape} does not match cutoff {self.cutoff}")
        n = float(np.sum(np.abs(c) ** 2))
        if n > 1.0 + 1e-12:
            raise ValueError(f"two-mode norm {n} exceeds 1")
        self.amps = _freeze(c)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


@dataclass
class DensityMatrix:
    """Hermitian single-mode operator in the truncated number basis."""

    rho: np.ndarray
    cutoff: int

    def __post_init__(self):
        r = np.ascontiguousarray(self.rho, dtype=np.complex128)
        d = self.cutoff + 1
        if r.shape != (d, d):
            raise ValueError(f"density matrix {r.shape} does not match cutoff {self.cutoff}")
        herm_err = float(np.max(np.abs(r - r.conj().T))) if d else 0.0
        if herm_err > tol.HERMITICITY_ATOL:
            raise ValueError(f"density matrix not Hermitian: deviation {herm_err:.3e}")
        self.rho = _freeze(r)

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def expectation(self, vec: FockVector) -> float:
        """<vec| rho |vec> as a real number."""
        if vec.cutoff != self.cutoff:
            raise ValueError("cutoff mismatch")
        return float(np.real(np.vdot(vec.amps, self.rho @ vec.amps)))


def hermite_sequence(z: complex, n_max: int) -> np.ndarray:
    """Physicists' Hermite polynomials H_0(z)..H_n_max(z) at a complex point.

    Uses the three-term recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1}.  If the
    values leave the double range the failing order is reported instead of
    silently propagating inf/nan.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    h = np.empty(n_max + 1, dtype=np.complex128)
    h[0] = 1.0
    if n_max >= 1:
        h[1] = 2.0 * z
    # overflow is detected after the fact, so the intermediate warnings
    # would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_max):
            h[k + 1] = 2.0 * z * h[k] - 2.0 * k * h[k - 1]
    bad = ~np.isfinite(h)
    if bad.any():
        raise HermiteOverflowError(int(np.argmax(bad)), z)
    return h


@cache
def _hermite_coefficients(n_max: int) -> tuple[tuple[float, float], ...]:
    """(sqrt(2 / k), sqrt((k - 1) / k)) for k = 1..n_max."""
    return tuple((math.sqrt(2.0 / k), math.sqrt((k - 1.0) / k)) for k in range(1, n_max + 1))


def hermite_gaussian_columns(n_max: int, x: float) -> np.ndarray:
    """Normalized Hermite-Gaussian values phi_n(x) = pi**-0.25 (2**n n!)**-0.5
    H_n(x) exp(-x**2/2) for n = 0..n_max, from the normalized recurrence (no
    intermediate can overflow) in Python floats."""
    x = float(x)
    prev, cur = 0.0, float(_PI_QUARTER * np.exp(-0.5 * x * x))
    vals = [cur]
    for up, down in _hermite_coefficients(n_max):
        prev, cur = cur, up * x * cur - down * prev
        vals.append(cur)
    return np.array(vals)


def _hermite_gaussian_window(
    n_max: int, x: float, delta: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """phi_n(lo), phi_n(hi) - phi_n(lo) for n = 0..n_max and the integral of
    phi_0^2 over [lo, hi] = x -/+ delta, x >= 0, each to a few roundings
    relative.

    Where exp(-t^2) changes by more than a factor e across the window, the
    ends and their erf or erfc do not cancel.  On a narrower window the
    integral is the Taylor series about x, exp(-x^2) / sqrt(pi) sum_m
    2 delta^(2m+1) H_2m(x) / (2m+1)! (the odd terms cancel), converged to
    rounding after 16 terms, and the difference runs its own recurrence
    from S_0 = phi_0(lo) expm1(-2 x delta):

        S_n = sqrt(2/n) (hi S_{n-1} + 2 delta phi_{n-1}(lo)) - sqrt((n-1)/n) S_{n-2}.
    """
    lo, hi = x - delta, x + delta
    low = hermite_gaussian_columns(n_max, lo)
    if 4.0 * delta * max(x, delta) > 1.0:
        mass = math.erf(hi) + math.erf(-lo) if lo < 0.0 else math.erfc(lo) - math.erfc(hi)
        return low, hermite_gaussian_columns(n_max, hi) - low, 0.5 * mass
    prev, cur = 0.0, float(low[0]) * math.expm1(-2.0 * delta * x)
    step = [cur]
    for (up, down), below in zip(_hermite_coefficients(n_max), low.tolist()):
        prev, cur = cur, up * (hi * cur + 2.0 * delta * below) - down * prev
        step.append(cur)
    coef = 2.0 * np.cumprod(delta / np.arange(1.0, 33.0))  # 2 delta^(k+1) / (k+1)!
    mass = float(coef[::2] @ hermite_sequence(x, 31).real[::2])
    return low, np.array(step), mass * math.exp(-x * x) / math.sqrt(math.pi)


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Transmittance of the mixing element."""

    transmittance: float

    def __post_init__(self):
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError(f"transmittance {self.transmittance} outside [0, 1]")


# i^k for k mod 4, exact, so multiplying by a power of i only moves bits
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _real_blocks(t: float, a_max: int, b_max: int, s_max: int):
    """Yield (s, lo, R) for sectors s = 0..s_max: the band columns
    n = lo..lo + R.shape[1] - 1 of block s in real form, with
    <p, s-p| U |n, s-n> = i^(p+n) R[p, n - lo].

    The band holds the columns that inputs with n <= a_max and
    s - n <= b_max reach, n in [max(0, s - b_max), min(s, a_max)].  Each
    comes from a column of the band of block s - 1, by the recurrence of
    the module docstring in real form:

        R_s[p, n] = (r sqrt(p) R[p-1, n] + t sqrt(s-p) R[p, n]) / sqrt(s-n)       2n < s,
        R_s[p, n] = (-t sqrt(p) R[p-1, n-1] + r sqrt(s-p) R[p, n-1]) / sqrt(n)    2n >= s,

    with t = sqrt(T), r = sqrt(1-T) and R the block of sector s - 1.  One
    buffer holds the block at rows 1..s+1 between zero rows, so both terms
    read shifted row slices of one gathered copy.  The yielded R is a view
    of that buffer, valid until the next step.
    """
    tt, rr = math.sqrt(t), math.sqrt(1.0 - t)
    width = min(a_max, b_max) + 1
    root = np.sqrt(np.arange(s_max + 1.0))
    # per step s (row s - 1) and band column j: the source column in the
    # band of block s - 1 and the two coefficients over the larger root
    steps = np.arange(1, s_max + 1)[:, None]
    firsts = np.maximum(steps - b_max, 0)
    n = firsts + np.arange(width)
    left = 2 * n < steps
    inv = 1.0 / root[np.clip(np.maximum(n, steps - n), 1, s_max)]
    src = np.arange(width) + (firsts - np.maximum(steps - 1 - b_max, 0)) - ~left
    c_up = np.where(left, rr, -tt) * inv
    c_side = np.where(left, tt, rr) * inv
    buf = np.zeros((s_max + 2, width))
    buf[1, 0] = 1.0
    yield 0, 0, buf[1:2, :1]
    for s in range(1, s_max + 1):
        lo = max(0, s - b_max)
        band = min(s, a_max) - lo + 1
        g = buf[: s + 2].take(src[s - 1, :band], axis=1)
        block = buf[1 : s + 2, :band]
        np.multiply(g[: s + 1], root[: s + 1, None], out=block)
        block *= c_up[s - 1, :band]
        side = g[1:] * root[s::-1, None]
        side *= c_side[s - 1, :band]
        block += side
        yield s, lo, block


def sector_unitary(s: int, spec: BeamSplitterSpec) -> np.ndarray:
    """Beam-splitter block on the total-photon-number-s subspace.

    Entry [p, n] is <p, s-p| U |n, s-n>: the last block of the real walk
    `_real_blocks` over the full band, which climbs from the vacuum block
    through every sector below s, times the phases i^(p+n).
    """
    if s < 0:
        raise ValueError(f"sector {s} is negative")
    for _, _, block in _real_blocks(spec.transmittance, s, s, s):
        pass
    phase = _I_POWERS[np.arange(s + 1) % 4]
    return phase[:, None] * block * phase


def beam_splitter_apply(state: TwoModeState, spec: BeamSplitterSpec) -> tuple[TwoModeState, float]:
    """Mix the two modes of `state` through the beam splitter.

    Total photon number n + m is conserved exactly, so each sector with
    n + m <= cutoff is rotated by its exact unitary block, walked once from
    the vacuum up and applied as it is built.  If c[n, m] vanishes outside
    n <= A and m <= B, only the band of columns that box reaches is built,
    in real form (`_real_blocks`): the input's rows take the phase i^n, each
    anti-diagonal is multiplied as a (band, 2) real array, and the output's
    rows take i^p.  Sectors with n + m > cutoff cannot be represented
    completely on the truncated grid; their amplitudes are dropped and the
    dropped probability mass is returned alongside the new state.
    """
    n_cut = state.cutoff
    c = state.amps
    out = np.zeros_like(c)
    rows = np.flatnonzero(c.any(axis=1))
    if rows.size == 0:
        return TwoModeState(out, n_cut), 0.0
    a_max, b_max = int(rows[-1]), int(np.flatnonzero(c.any(axis=0))[-1])
    dropped = 0.0
    if a_max + b_max > n_cut:
        grid = np.add.outer(np.arange(n_cut + 1), np.arange(n_cut + 1))
        dropped = float(np.sum(np.abs(c[grid > n_cut]) ** 2))
    s_max = min(n_cut, a_max + b_max)
    phase = _I_POWERS[np.arange(max(a_max, s_max) + 1) % 4]
    # the support box with row n times i^n, as pairs (re, im); anti-diagonal
    # s of a (a_max + 1) x (b_max + 1) array has stride b_max, of out n_cut
    box = (phase[: a_max + 1, None] * c[: a_max + 1, : b_max + 1]).view(np.float64).reshape(-1, 2)
    pairs = out.view(np.float64).reshape(-1, 2)
    step_in, step_out = max(b_max, 1), max(n_cut, 1)
    for s, lo, block in _real_blocks(spec.transmittance, a_max, b_max, s_max):
        hi = lo + block.shape[1] - 1
        v = box[s + lo * b_max : s + hi * b_max + 1 : step_in]
        pairs[s : s + s * n_cut + 1 : step_out] = block @ v
    out[: s_max + 1] *= phase[: s_max + 1, None]
    return TwoModeState(out, n_cut), dropped


def project_quadrature(state: TwoModeState, x: float, lam: float) -> tuple[FockVector, float]:
    """Condition on a quadrature reading x along phase lam in the measured mode 3.

    Contracts the first index with <x|n>_lam.  Returns the unnormalized
    amplitude vector of mode 4 and the outcome probability density
    (its squared norm), normalized so integrating over x gives 1.
    """
    c = state.amps
    n_idx = np.arange(state.cutoff + 1)
    bra = hermite_gaussian_columns(state.cutoff, float(x)) * np.exp(-1j * lam * n_idx)
    v = bra @ c
    density = float(np.sum(np.abs(v) ** 2))
    return FockVector(v, state.cutoff), density


def _require_unit_norm(label: str, value: float):
    # written so that a NaN norm fails the check too
    if not abs(value - 1.0) <= tol.INPUT_NORM_ATOL:
        raise NormalizationError(f"{label} must be normalized, got squared norm {value}")


def fidelity(target: FockVector, out: FockVector | DensityMatrix) -> float:
    """|<target|out>|**2 for pure `out`, <target|rho|target> for mixed.

    Both arguments must be normalized; unnormalized input raises.
    """
    _require_unit_norm("target", target.norm_sq())
    if isinstance(out, FockVector):
        _require_unit_norm("out", out.norm_sq())
        return float(abs(target.overlap(out)) ** 2)
    _require_unit_norm("out", out.trace())
    return out.expectation(target)
