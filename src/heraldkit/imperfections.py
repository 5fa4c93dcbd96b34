"""Loss modeling and sensitivity sweeps for the preparation scheme.

Photon loss is modeled by a fictitious beam splitter coupling the lossy
mode to vacuum, with transmittance equal to the efficiency eta; tracing out
the ancilla gives the channel.  Every use reads the closed-form loss
amplitudes sqrt(C(n, p) eta^p (1-eta)^(n-p)) of p out of n photons
surviving: loss_channel(state, eta) applies them as a Kraus sum to a pure
state or a density matrix at the state's cutoff, and the lossy herald
applies them to the measured arm.  The explicit dilation stays in the tests
as an independent reference for the closed form.

An inefficient single-photon detector is loss followed by an ideal
projection: the measured arm passes through the eta_det channel before the
(ideal) click or quadrature reading.  Signal-path transmission eta_signal
acts on the heralded mode after conditioning.

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
    hermite_gaussian_columns,
)
from .scheme import (
    HM,
    SPD,
    SchemeParams,
    _ANGLES,
    _core_misfit_batch,
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

    The Kraus sum over the number q of lost photons: each term is a shifted
    slice of rho (|psi><psi| for a pure state) weighted by the closed-form
    loss amplitudes.  The truncated space is closed under loss, so the
    channel is exact there.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta={eta} outside [0, 1]")
    cutoff = state.cutoff
    rho = np.outer(state.amps, state.amps.conj()) if isinstance(state, FockVector) else state.rho
    amps = _loss_amplitudes(eta, cutoff)
    out = np.zeros_like(rho)
    for q in range(cutoff + 1):
        l_q = np.diagonal(amps, offset=q)
        out[: cutoff + 1 - q, : cutoff + 1 - q] += l_q[:, None] * rho[q:, q:] * l_q
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out, cutoff)


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
    weight is exactly 0 and the state is None.
    """
    return _herald_lossy(embedded_two_mode_state(p, cutoff, check_input_tail), p, imp, cutoff)


def _herald_lossy(
    mixed: TwoModeState, p: SchemeParams, imp: ImperfectionSpec, cutoff: int
) -> tuple[DensityMatrix | None, float]:
    """conditional_output_lossy on an already embedded two-mode state."""
    c = mixed.amps
    big = mixed.cutoff
    total = mixed.norm_sq()
    amps = _loss_amplitudes(imp.eta_det, big)
    if isinstance(p.measurement, SPD):
        # Losing q photons before an n=1 click means 1+q were present.
        v = amps[1, 1:, None] * c[1:]
    elif isinstance(p.measurement, HM):
        # Row q of the bra matrix reads x after q photons were lost.
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
    signal path ("signal"), or both ("both").  The two-mode state does not
    depend on eta, so it is embedded once for the whole grid.
    """
    if which not in ("det", "signal", "both"):
        raise ValueError(f"unknown placement {which!r}")
    points = []
    mixed = None
    for eta in sorted(float(e) for e in eta_grid):
        imp = ImperfectionSpec(
            eta_det=eta if which in ("det", "both") else 1.0,
            eta_signal=eta if which in ("signal", "both") else 1.0,
        )
        if mixed is None:
            mixed = embedded_two_mode_state(p, cutoff, check_input_tail)
        rho, weight = _herald_lossy(mixed, p, imp, cutoff)
        eps = 1.0 if rho is None else misfit(rho, target)
        points.append(SweepPoint(eta, eps, eps, weight))
    return points
