"""Loss modeling and sensitivity sweeps for the preparation scheme.

Photon loss is modeled by a fictitious beam splitter coupling the lossy
mode to vacuum, with transmittance equal to the efficiency eta; tracing out
the ancilla gives the channel.  The amplitude of p out of n photons
surviving is sqrt(C(n, p) eta^p (1-eta)^(n-p)).  The lossy herald reads
these closed-form amplitudes (fock._loss_amplitudes) on the measured arm.
loss_channel(state, eta) sums the same Kraus terms, on a pure state or a
density matrix at the state's cutoff, as one Toeplitz product along the
diagonals of the state.  The explicit dilation and the textbook Kraus loop
stay in the tests as independent references.

An inefficient single-photon detector is loss followed by an ideal
projection: the measured arm passes through the eta_det channel before the
(ideal) click or quadrature reading.  Signal-path transmission eta_signal
acts on the heralded mode after conditioning.  Only detector loss needs
the two-mode state: with eta_det = 1 the lossy herald is the ideal herald
of the closed route (scheme._herald), followed by the signal loss, and the
two-mode state at twice the cutoff is embedded only for points with
eta_det < 1.

Sweeps report misfit statistics as a function of parameter deviation
(input-state parameters scattered around their chosen values) or detection
efficiency, sorted by the swept variable.  The misfit_max column of the
deviation sweep is a running worst case over all deviations up to the
current one, so it is monotone by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tolerances as tol
from .errors import NormalizationError
from .fock import (
    DensityMatrix,
    FockVector,
    TwoModeState,
    _loss_amplitudes,
    _scaled_sqrt_factorials,
    hermite_gaussian_columns,
)
from .scheme import (
    HM,
    SPD,
    SchemeParams,
    _ANGLES,
    _core_misfit_batch,
    _herald,
    _probability,
    _split_output,
    conditional_output,
    embedded_two_mode_state,
    misfit,
    params_to_vector,
)


@dataclass(frozen=True)
class ImperfectionSpec:
    """Efficiencies of the measurement path and the signal path."""

    eta_det: float = 1.0
    eta_signal: float = 1.0

    def __post_init__(self):
        for name in ("eta_det", "eta_signal"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


def loss_channel(state: FockVector | DensityMatrix, eta: float) -> DensityMatrix:
    """Transmit a state through efficiency eta; returns the mixed output at
    the state's cutoff.

    The Kraus sum over the number k of lost photons,

        rho'[m, n] = eta^((m+n)/2) / sqrt(m! n!)
                     sum_k (1-eta)^k / k! sqrt((m+k)! (n+k)!) rho[m+k, n+k],

    is one upper-triangular Toeplitz product with positive weights along
    the diagonals of sigma[m, n] = s[m] rho[m, n] s[n], s the kappa-scaled
    square-root factorials of fock._scaled_sqrt_factorials, which keep
    every factor finite up to cutoffs near 1900, far above where sqrt(n!)
    overflows.  The upper diagonals are the columns of one strided view of
    sigma padded with zeros (_diagonals); the product runs on that view in
    real form, its result goes back through the same view, and the lower
    triangle is the mirror.  eta = 1 returns the state as it is.  The
    truncated space is closed under loss, so the channel is exact there.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta={eta} outside [0, 1]")
    cutoff = state.cutoff
    rho = np.outer(state.amps, state.amps.conj()) if isinstance(state, FockVector) else state.rho
    if eta == 1.0:
        return DensityMatrix(0.5 * (rho + rho.conj().T), cutoff)
    dim = cutoff + 1
    s = _scaled_sqrt_factorials(cutoff)
    n = np.arange(dim)
    # in sigma's scale the weights are (1-eta)^k / s[k]^2, and the prefactor
    # is g[m] g[n] with g[m] = eta^(m/2) / s[m]: the powers of kappa cancel
    w = (1.0 - eta) ** n / s**2
    lag = n[None, :] - n[:, None]
    toeplitz = np.where(lag >= 0, w[np.abs(lag)], 0.0)
    # sigma in rows of 2 dim entries, so each diagonal ends in zeros
    padded = np.zeros((dim, 2 * dim), dtype=np.complex128)
    padded[:, :dim] = s[:, None] * rho * s
    out = np.zeros_like(padded)
    _diagonals(out)[...] = toeplitz @ _diagonals(padded)
    upper = out[:, :dim]
    g = np.sqrt(eta) ** n / s
    upper *= g[:, None] * g
    upper[n, n] = 0.5 * upper[n, n].real
    return DensityMatrix(upper + upper.conj().T, cutoff)


def _diagonals(padded: np.ndarray) -> np.ndarray:
    """Float view of a (dim, 2 dim) complex array whose row i holds its
    entries (i, i), (i, i + 1), ... (i, i + dim - 1), real and imaginary
    parts interleaved; every entry lies inside the array."""
    dim = padded.shape[0]
    flat = padded.view(np.float64)
    row, col = flat.strides
    return np.lib.stride_tricks.as_strided(
        flat, shape=(dim, 2 * dim), strides=(row + 2 * col, col)
    )


def conditional_output_lossy(
    p: SchemeParams,
    imp: ImperfectionSpec,
    cutoff: int,
    check_input_tail: bool = True,
) -> tuple[DensityMatrix | None, float]:
    """Heralded mixed state and herald weight with inefficient detection.

    The measured arm passes through the eta_det loss channel before the
    ideal projection; the heralded arm passes through eta_signal afterwards.
    The weight uses the same normalization as the ideal success
    probabilities: outcome probability for SPD, probability density at x
    for HM.  When the herald can never fire (eta_det = 0 with SPD) the
    weight is exactly 0 and the state is None.  An ideal detector
    (eta_det = 1) heralds on the closed route (scheme._herald), the ideal
    herald of conditional_output; only detector loss embeds the two-mode
    state and walks it (_herald_lossy).
    """
    if imp.eta_det == 1.0:
        closed = _herald(params_to_vector(p)[0], cutoff, check_input_tail)
        return _herald_ideal(*closed, imp, cutoff)
    return _herald_lossy(embedded_two_mode_state(p, cutoff, check_input_tail), p, imp, cutoff)


def _herald_ideal(
    full: np.ndarray, inputs: np.ndarray, imp: ImperfectionSpec, cutoff: int
) -> tuple[DensityMatrix | None, float]:
    """conditional_output_lossy with an ideal detector, on the closed
    route's output and truncated inputs (scheme._herald): the ideal output
    state, passed through the eta_signal channel."""
    weight = _probability(full, inputs)
    if weight == 0.0:
        return None, 0.0
    out = _split_output(full, cutoff)
    if out.raw_weight <= 0.0:
        raise NormalizationError("heralded state lost all mass to truncation")
    return loss_channel(out.state, imp.eta_signal), weight


def _herald_lossy(
    mixed: TwoModeState, p: SchemeParams, imp: ImperfectionSpec, cutoff: int
) -> tuple[DensityMatrix | None, float]:
    """conditional_output_lossy on an already embedded two-mode state, any
    eta_det included."""
    c = mixed.amps
    big = mixed.cutoff
    total = mixed.norm_sq()
    if isinstance(p.measurement, SPD):
        # Losing q photons before an n=1 click means 1+q were present.
        v = _loss_amplitudes(imp.eta_det, big, kept=1)[1:, None] * c[1:]
    elif isinstance(p.measurement, HM):
        # Row q of the bra matrix reads x after q photons were lost.
        amps = _loss_amplitudes(imp.eta_det, big)
        n_idx = np.arange(big + 1)
        phi = hermite_gaussian_columns(big, p.measurement.x) * np.exp(
            -1j * p.measurement.lam * n_idx
        )
        kept = n_idx[None, :] - n_idx[:, None]
        valid = kept >= 0
        kept = np.where(valid, kept, 0)
        v = np.where(valid, phi[kept] * amps[kept, n_idx], 0.0) @ c
    else:
        raise TypeError(f"unknown measurement {type(p.measurement).__name__}")
    weight = float(np.sum(np.abs(v) ** 2)) / total
    if weight == 0.0:
        return None, 0.0
    head = v[:, : cutoff + 1]
    rho_t = head.T @ head.conj()
    rho_t = 0.5 * (rho_t + rho_t.conj().T)
    tr = float(np.real(np.trace(rho_t)))
    if tr <= 0.0:
        raise NormalizationError("heralded state lost all mass to truncation")
    rho = DensityMatrix(rho_t / tr, cutoff)
    if imp.eta_signal != 1.0:
        rho = loss_channel(rho, imp.eta_signal)
    return rho, weight


@dataclass(frozen=True)
class SweepPoint:
    """One row of a sensitivity curve."""

    sweep_var: float
    misfit_mean: float
    misfit_max: float
    herald_weight: float


def _perturbed_rows(p: SchemeParams, d: float, xi: np.ndarray) -> np.ndarray:
    """Scattered copies of p in the flat layout, one per row of the unit
    scatter xi (columns r, theta, alpha_abs, phi of input 1, then input 2):
    magnitudes scale by 1 + d*xi, angles shift by 2*pi*d*xi."""
    base, _, _ = params_to_vector(p)
    rows = np.tile(base, (len(xi), 1))
    rows[:, :8] = np.where(
        _ANGLES[:8], base[:8] + 2.0 * np.pi * d * xi, base[:8] * (1.0 + d * xi)
    )
    return rows


def sweep_parameter_deviation(
    p: SchemeParams,
    target: FockVector,
    rel_devs: Sequence[float],
    sampling: str = "signed_uniform",
    n_samples: int = 50,
    seed: int = 0,
    cutoff: int = tol.DEFAULT_CUTOFF,
) -> list[SweepPoint]:
    """Misfit statistics as the eight input-state parameters are scattered.

    For each relative deviation d the eight parameters (r, theta,
    alpha_abs, phi of both inputs) are drawn n_samples times:
    "signed_uniform" draws the unit scatter uniformly in [-1, 1],
    "worst_case" uses random corner signs (every scatter at +/-1).  d = 0
    skips perturbation entirely and reproduces the unperturbed evaluation
    bit for bit.  The n_samples points of a nonzero level are scored in one
    batched call on the exact Gaussian core (scheme._core_misfit_batch),
    which keeps the inputs and the output whole: its misfit and
    herald_weight count the output's mass above the cutoff.  Points are
    processed and returned sorted ascending, and misfit_max accumulates the
    worst value seen at any deviation <= d.
    """
    devs = sorted(float(d) for d in rel_devs)
    if devs and not 0.0 <= devs[0] <= devs[-1] <= 0.2:
        raise ValueError("relative deviations must lie within [0, 0.2]")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if sampling not in ("signed_uniform", "worst_case"):
        raise ValueError(f"unknown sampling {sampling!r}")
    children = np.random.SeedSequence(seed).spawn(len(devs))
    level_misfit = _core_misfit_batch(target)
    points: list[SweepPoint] = []
    envelope = -np.inf
    for d, child in zip(devs, children):
        if d == 0.0:
            out = conditional_output(p, cutoff, check_input_tail=False)
            eps = np.array([misfit(out, target)])
            weights = np.array([out.raw_weight])
        else:
            rng = np.random.default_rng(child)
            xi = rng.uniform(-1.0, 1.0, size=(n_samples, 8))
            if sampling == "worst_case":
                xi = np.where(xi >= 0.0, 1.0, -1.0)
            eps, weights = level_misfit(_perturbed_rows(p, d, xi))
        envelope = max(envelope, float(np.max(eps)))
        points.append(
            SweepPoint(d, float(np.mean(eps)), envelope, float(np.mean(weights)))
        )
    return points


def sweep_efficiency(
    p: SchemeParams,
    target: FockVector,
    eta_grid: Sequence[float],
    which: str = "det",
    cutoff: int = tol.DEFAULT_CUTOFF,
    check_input_tail: bool = True,
) -> list[SweepPoint]:
    """Misfit of the lossy pipeline over an efficiency grid, sorted ascending.

    which selects where the loss sits: the measurement path ("det"), the
    signal path ("signal"), or both ("both").  Neither route depends on
    eta, so each is built once for the whole grid, and only when a point
    needs it: the closed route (scheme._herald) at the first point with an
    ideal detector, the two-mode embedding at the first point with detector
    loss.  A "signal" grid never embeds.
    """
    if which not in ("det", "signal", "both"):
        raise ValueError(f"unknown placement {which!r}")
    points = []
    closed = mixed = None
    for eta in sorted(float(e) for e in eta_grid):
        imp = ImperfectionSpec(
            eta_det=eta if which in ("det", "both") else 1.0,
            eta_signal=eta if which in ("signal", "both") else 1.0,
        )
        if imp.eta_det == 1.0:
            if closed is None:
                closed = _herald(params_to_vector(p)[0], cutoff, check_input_tail)
            rho, weight = _herald_ideal(*closed, imp, cutoff)
        else:
            if mixed is None:
                mixed = embedded_two_mode_state(p, cutoff, check_input_tail)
            rho, weight = _herald_lossy(mixed, p, imp, cutoff)
        eps = 1.0 if rho is None else misfit(rho, target)
        points.append(SweepPoint(eta, eps, eps, weight))
    return points
