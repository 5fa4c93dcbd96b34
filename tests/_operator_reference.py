"""Independent references for the tests.

Number-basis matrices of the squeeze and displacement operators, and the
coherent state, the references for the state constructors: each element
comes from its own closed form, with no recurrence shared with the package.
The Hermite functions of the quadrature eigenbra from scipy's Hermite
polynomials, the reference for the package's normalized recurrence.  The
loss channel as an explicit vacuum-ancilla dilation, the reference for the
closed-form loss amplitudes of heraldkit.fock, with the partial trace it
needs, and as the textbook Kraus sum over those amplitudes, the reference
for the Toeplitz product of heraldkit.imperfections.loss_channel.  Number
states and product states as plain arrays.  The exact Gaussian core's
outputs truncated at the cutoff, normalized there, for the tests that
compare states rather than misfits.
"""
import numpy as np
from scipy.special import eval_genlaguerre, eval_hermite, gammaln

from heraldkit import scheme
from heraldkit.fock import (
    BeamSplitterSpec,
    DensityMatrix,
    FockVector,
    TwoModeState,
    _loss_amplitudes,
    beam_splitter_apply,
)


def basis_state(n: int, cutoff: int) -> FockVector:
    """Number state |n> at the given cutoff."""
    return FockVector(np.eye(cutoff + 1)[n], cutoff)


def tensor(a: FockVector, b: FockVector) -> TwoModeState:
    """Product state with a on the first index (mode 3) and b on the second."""
    return TwoModeState(np.outer(a.amps, b.amps), a.cutoff)


def partial_trace(c: np.ndarray) -> DensityMatrix:
    """Reduced state of the first index of the pure two-mode array c, the
    second traced out; pass c.T for the reduced state of the second."""
    rho = c @ c.conj().T
    return DensityMatrix(0.5 * (rho + rho.conj().T), c.shape[0] - 1)


def coherent_state(alpha: complex, cutoff: int) -> FockVector:
    """Coherent state |alpha> from alpha^n exp(-|alpha|^2 / 2) / sqrt(n!),
    normalized on |0>..|cutoff>."""
    n = np.arange(cutoff + 1)
    amps = complex(alpha) ** n * np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * gammaln(n + 1.0))
    return FockVector(amps / np.linalg.norm(amps), cutoff)


def quadrature_wavefunction(n: int, x: float, lam: float) -> complex:
    """<x|n>_lam = pi^-1/4 (2^n n!)^-1/2 H_n(x) exp(-x^2 / 2) exp(-i n lam),
    with H_n from scipy and the scale in log form."""
    log_norm = 0.25 * np.log(np.pi) + 0.5 * (n * np.log(2.0) + gammaln(n + 1.0))
    scale = np.exp(-log_norm - 0.5 * x * x)
    return complex(eval_hermite(n, x) * scale * np.exp(-1j * n * lam))


def squeeze_operator_matrix(zeta: complex, cutoff: int) -> np.ndarray:
    """Number-basis matrix <m|S(zeta)|n> of the squeeze operator.

    Built from the disentangled closed form

        S = exp(-c a'^2) mu^{-(a'a + 1/2)} exp(c* a^2),
        mu = cosh|zeta|,  c = (zeta / |zeta|) tanh|zeta| / 2,

    which gives a finite single sum per element with integer complex powers
    only (no branch ambiguity).  Elements with m - n odd are exactly zero.
    Every element is exact; columns near the cutoff lose norm because
    squeezing spreads them past it.
    """
    z = complex(zeta)
    dim = cutoff + 1
    if abs(z) == 0.0:
        return np.eye(dim, dtype=np.complex128)
    mu = np.cosh(abs(z))
    c = (z / abs(z)) * np.tanh(abs(z)) / 2.0
    lg = gammaln(np.arange(2 * dim + 2) + 1.0)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for n_col in range(dim):
        for m_row in range(n_col % 2, dim, 2):
            j_lo = max(0, (n_col - m_row + 1) // 2)
            j_hi = n_col // 2
            acc = 0.0 + 0.0j
            for j in range(j_lo, j_hi + 1):
                k = (m_row - n_col + 2 * j) // 2
                log_mag = 0.5 * (lg[n_col] + lg[m_row]) - lg[k] - lg[j] - lg[n_col - 2 * j]
                acc += (
                    (-c) ** k
                    * np.conj(c) ** j
                    * mu ** (-(n_col - 2 * j))
                    * np.exp(log_mag)
                )
            out[m_row, n_col] = acc / np.sqrt(mu)
    return out


def displacement_operator_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis matrix <m|D(alpha)|n> with D(alpha) = exp(alpha a' - alpha* a).

    Uses the associated-Laguerre closed form; the lower triangle follows from
    D(alpha)^dagger = D(-alpha).
    """
    a = complex(alpha)
    dim = cutoff + 1
    out = np.empty((dim, dim), dtype=np.complex128)
    x = abs(a) ** 2
    lg = gammaln(np.arange(dim) + 1.0)
    for n_col in range(dim):
        for m_row in range(n_col, dim):
            d = m_row - n_col
            base = np.exp(0.5 * (lg[n_col] - lg[m_row]) - 0.5 * x) * eval_genlaguerre(
                n_col, d, x
            )
            out[m_row, n_col] = base * a**d
            if m_row != n_col:
                out[n_col, m_row] = base * (-np.conj(a)) ** d
    return out


def loss_dilation(state: FockVector, eta: float) -> DensityMatrix:
    """Loss of efficiency eta on a pure state: a beam splitter of
    transmittance eta couples it to a vacuum ancilla, which is traced out.

    Exact on the truncated space because the ancilla starts in vacuum, so no
    sector exceeds the cutoff.
    """
    joint = tensor(state, basis_state(0, state.cutoff))
    mixed, dropped = beam_splitter_apply(joint, BeamSplitterSpec(eta))
    if dropped != 0.0:
        raise AssertionError("loss dilation must conserve the truncated support")
    return partial_trace(mixed.amps)


def loss_kraus_sum(state: FockVector | DensityMatrix, eta: float) -> DensityMatrix:
    """Loss of efficiency eta as the textbook Kraus sum over the number q of
    lost photons: each term is a shifted slice of rho (|psi><psi| for a pure
    state) weighted by the loss amplitudes of heraldkit.fock."""
    cutoff = state.cutoff
    rho = np.outer(state.amps, state.amps.conj()) if isinstance(state, FockVector) else state.rho
    amps = _loss_amplitudes(eta, cutoff)
    out = np.zeros_like(rho)
    for q in range(cutoff + 1):
        l_q = np.diagonal(amps, offset=q)
        out[: cutoff + 1 - q, : cutoff + 1 - q] += l_q[:, None] * rho[q:, q:] * l_q
    return DensityMatrix(0.5 * (out + out.conj().T), cutoff)


def core_outputs(rows: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact Gaussian core's heralded states of flat points, one per
    row (scheme._closed_form_rows): each output truncated at the cutoff
    and normalized over |0>..|cutoff>, shape (B, cutoff + 1), and its
    weight over that range.  An impossible outcome keeps its zero row and
    weight 0."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d, log_c, _ = scheme._closed_form_rows(np.asarray(rows, dtype=float), cutoff)
        norm_sq = np.sum(np.abs(d) ** 2, axis=1)
        weights = np.exp(2.0 * log_c.real + np.log(norm_sq))
    scale = np.exp(1j * log_c.imag) / np.sqrt(np.where(norm_sq > 0.0, norm_sq, 1.0))
    return d * scale[:, None], weights
