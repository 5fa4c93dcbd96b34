"""Bundled regression rows: optimized scheme settings with their scores.

Each row pairs a target state with two-decimal scheme parameters, the
misfit and success probability reached there, and (for quadrature
conditioning) the window halfwidth and window-averaged misfit.  Rows with
a non-empty ``fixed`` tuple had those dimensions pinned during the
original search; the pins are preserved so re-polishing respects them.

The rows serve as the package's regression surface: evaluating a row's
parameters must land close to the recorded misfit, and a short local
polish must close most of the gap left by the two-decimal rounding.
``DESIGNATED`` marks the subset exercised by the acceptance suite; it
spans all five target families and both measurement kinds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheme import HM, SPD, SchemeParams
from .states import (
    AdHoc,
    AmplitudeSqueezed,
    Binomial,
    NegativeBinomial,
    Resource,
    SqueezedCoherentParams,
    TargetSpec,
)

_PI_4 = np.pi / 4.0
_PI_2 = np.pi / 2.0
_SQRT3 = float(np.sqrt(3.0))


@dataclass(frozen=True)
class ReferenceRow:
    row_id: str
    label: str
    target: TargetSpec
    kind: str
    eps: float
    params: SchemeParams
    success_prob: float
    eps_avg: float | None
    fixed: tuple[str, ...]


def _row(
    idx: int,
    slug: str,
    label: str,
    target: TargetSpec,
    eps: float,
    in1: tuple[float, float, float, float],
    in2: tuple[float, float, float, float],
    transmittance: float,
    window: tuple[float, float, float] | None,
    success_prob: float,
    eps_avg: float | None,
    fixed: tuple[str, ...] = (),
) -> ReferenceRow:
    if window is None:
        kind = "spd"
        meas: SPD | HM = SPD()
    else:
        kind = "hm"
        meas = HM(window[0], window[1], window[2])
    params = SchemeParams(
        SqueezedCoherentParams(*in1), SqueezedCoherentParams(*in2), transmittance, meas
    )
    return ReferenceRow(
        row_id=f"{idx:02d}-{slug}",
        label=label,
        target=target,
        kind=kind,
        eps=eps,
        params=params,
        success_prob=success_prob,
        eps_avg=eps_avg,
        fixed=fixed,
    )


_F_RARA = ("r1", "alpha1", "r2", "alpha2")
_F_HEAD5 = ("r1", "theta1", "alpha1", "phi1", "r2")
_F_RR = ("r1", "r2")

_ROWS: tuple[ReferenceRow, ...] = (
    _row(1, "binom-0.3-7-hm", "B(0.3,7)", Binomial(0.3, 7), 1.14e-4,
         (0.60, 3.90, 1.00, 4.26), (0.75, 3.62, 0.70, 0.48), 0.59,
         (0.60, 2.17, 0.17), 0.125, 0.008, _F_RARA),
    _row(2, "binom-0.3-7-spd", "B(0.3,7)", Binomial(0.3, 7), 1.26e-4,
         (0.74, 3.50, 0.10, 2.14), (0.16, 4.43, 1.97, 0.08), 0.69,
         None, 0.318, None),
    _row(3, "binom-0.45-8-hm", "B(0.45,8)", Binomial(0.45, 8), 8.06e-4,
         (0.45, 0.74, 0.34, 1.01), (0.45, 0.28, 1.97, 0.06), 0.90,
         (0.61, 0.04, 0.30), 0.275, 0.008),
    _row(4, "binom-0.45-8-spd", "B(0.45,8)", Binomial(0.45, 8), 8.15e-4,
         (0.51, 3.22, 2.44, 4.95), (0.22, 6.18, 0.54, 5.58), 0.65,
         None, 0.079, None),
    _row(5, "binom-0.2-10-hm", "B(0.2,10)", Binomial(0.2, 10), 1.66e-5,
         (0.60, 1.95, 1.00, 4.77), (0.75, 2.86, 0.70, 6.10), 0.49,
         (0.25, 0.56, 0.17), 0.132, 0.009, _F_RARA),
    _row(6, "binom-0.2-10-spd", "B(0.2,10)", Binomial(0.2, 10), 1.88e-5,
         (0.16, 3.39, 0.49, 4.70), (0.09, 5.68, 1.51, 6.27), 0.47,
         None, 0.369, None),
    _row(7, "binom-0.4-15-hm", "B(0.4,15)", Binomial(0.4, 15), 1.91e-4,
         (1.54, 1.08, 0.93, 3.06), (0.27, 0.28, 2.36, 0.09), 0.90,
         (0.73, 2.57, 0.30), 0.527, 0.003),
    _row(8, "negbinom-0.65-1-hm", "NB(0.65,1,0)", NegativeBinomial(0.65, 1, 0.0), 7.83e-4,
         (0.62, 0.13, 0.09, 0.25), (0.21, 0.90, 0.98, 0.02), 0.70,
         (0.23, 0.03, 0.20), 0.265, 0.008),
    _row(9, "negbinom-0.5-5-hm", "NB(0.5,5,pi/4)", NegativeBinomial(0.5, 5, _PI_4), 3.36e-5,
         (0.56, 0.72, 0.58, 0.34), (0.10, 0.07, 1.34, 0.59), 0.80,
         (0.24, 0.03, 0.30), 0.362, 0.006),
    _row(10, "negbinom-0.5-5-hm-pinned", "NB(0.5,5,pi/4)", NegativeBinomial(0.5, 5, _PI_4), 3.37e-5,
         (0.60, 1.57, 0.80, 3.14), (0.60, 2.36, 2.47, 0.69), 0.63,
         (1.55, 3.79, 0.18), 0.065, 0.008, _F_HEAD5),
    _row(11, "negbinom-0.5-5-spd", "NB(0.5,5,pi/4)", NegativeBinomial(0.5, 5, _PI_4), 3.40e-5,
         (0.06, 1.17, 2.11, 5.44), (0.19, 4.78, 0.08, 3.16), 0.65,
         None, 0.159, None),
    _row(12, "negbinom-0.75-6-hm-pinned", "NB(0.75,6,pi/2)", NegativeBinomial(0.75, 6, _PI_2), 3.53e-4,
         (0.60, 1.57, 0.80, 3.14), (0.60, 0.46, 3.04, 1.53), 0.86,
         (2.60, 3.67, 0.23), 0.146, 0.009, _F_HEAD5),
    _row(13, "negbinom-0.75-6-spd", "NB(0.75,6,pi/2)", NegativeBinomial(0.75, 6, _PI_2), 4.96e-4,
         (0.43, 2.45, 0.12, 5.57), (0.45, 0.32, 3.21, 1.63), 0.72,
         None, 0.200, None),
    _row(14, "negbinom-0.45-10-hm", "NB(0.45,10,0)", NegativeBinomial(0.45, 10, 0.0), 8.84e-6,
         (0.60, 6.14, 1.00, 4.44), (0.75, 4.98, 0.70, 5.57), 0.58,
         (0.76, 3.27, 0.16), 0.080, 0.008, _F_RARA),
    _row(15, "negbinom-0.45-10-spd", "NB(0.45,10,0)", NegativeBinomial(0.45, 10, 0.0), 9.15e-6,
         (0.08, 5.54, 0.07, 2.35), (0.12, 3.23, 1.69, 0.00), 0.88,
         None, 0.246, None),
    _row(16, "ampsq-1-0.5-1-spd-pinned", "AS(1,0.5,1)", AmplitudeSqueezed(1.0, 0.5, 1.0), 2.45e-7,
         (0.60, 2.32, 0.09, 5.89), (0.60, 2.30, 0.20, 5.86), 0.50,
         None, 0.210, None, _F_RR),
    _row(17, "ampsq-1-0.5-1-spd", "AS(1,0.5,1)", AmplitudeSqueezed(1.0, 0.5, 1.0), 2.40e-7,
         (0.37, 0.68, 0.14, 5.02), (0.71, 0.67, 0.09, 4.98), 0.37,
         None, 0.167, None),
    _row(18, "ampsq-1-1-1-spd", "AS(1,1,1)", AmplitudeSqueezed(1.0, 1.0, 1.0), 2.07e-4,
         (0.45, 1.05, 0.76, 5.22), (0.50, 0.86, 0.42, 5.18), 0.51,
         None, 0.258, None),
    _row(19, "ampsq-1-1-1-spd-pinned", "AS(1,1,1)", AmplitudeSqueezed(1.0, 1.0, 1.0), 2.21e-4,
         (0.60, 3.91, 0.48, 3.51), (0.60, 4.06, 1.06, 0.46), 0.47,
         None, 0.270, None, _F_RR),
    _row(20, "ampsq-1-2-1-hm", "AS(1,2,1)", AmplitudeSqueezed(1.0, 2.0, 1.0), 1.22e-3,
         (0.37, 1.61, 1.29, 2.40), (0.23, 0.86, 1.78, 0.36), 0.70,
         (1.71, 3.10, 0.40), 0.366, 0.007),
    _row(21, "ampsq-1-2-1-spd", "AS(1,2,1)", AmplitudeSqueezed(1.0, 2.0, 1.0), 1.18e-3,
         (0.26, 4.08, 0.12, 2.74), (0.34, 5.53, 1.44, 0.16), 0.47,
         None, 0.378, None),
    _row(22, "ampsq-rt3-5-3-hm", "AS(sqrt3,5,3)", AmplitudeSqueezed(_SQRT3, 5.0, 3.0), 5.78e-5,
         (0.60, 5.14, 1.00, 4.53), (0.75, 4.61, 0.70, 4.72), 0.68,
         (0.79, 2.83, 0.16), 0.097, 0.008, _F_RARA),
    _row(23, "ampsq-rt3-5-3-spd", "AS(sqrt3,5,3)", AmplitudeSqueezed(_SQRT3, 5.0, 3.0), 1.65e-4,
         (0.56, 3.81, 0.02, 3.15), (0.17, 4.64, 2.05, 0.07), 0.74,
         None, 0.389, None),
    _row(24, "ampsq-1-6-1-hm", "AS(1,6,1)", AmplitudeSqueezed(1.0, 6.0, 1.0), 7.25e-7,
         (0.60, 2.49, 1.00, 4.22), (0.75, 3.09, 0.70, 0.47), 0.70,
         (0.87, 4.25, 0.17), 0.081, 0.009, _F_RARA),
    _row(25, "ampsq-1-6-1-spd", "AS(1,6,1)", AmplitudeSqueezed(1.0, 6.0, 1.0), 1.49e-4,
         (0.36, 2.12, 0.40, 2.53), (0.35, 1.63, 1.67, 6.28), 0.50,
         None, 0.271, None),
    _row(26, "resource-0.6-0.03-hm", "RS(0.6,0.03)", Resource(0.6, 0.03), 6.69e-4,
         (0.46, 2.99, 0.07, 6.26), (1.15, 0.28, 0.02, 1.35), 0.30,
         (0.23, 6.13, 0.55), 0.222, 0.006),
    _row(27, "resource-0.6-0.03-spd", "RS(0.6,0.03)", Resource(0.6, 0.03), 2.85e-4,
         (1.02, 2.70, 0.76, 5.27), (0.61, 0.23, 0.36, 4.02), 0.79,
         None, 0.329, None),
    _row(28, "resource-0.15-0.1-hm", "RS(0.15,0.1)", Resource(0.15, 0.1), 7.28e-3,
         (0.89, 3.31, 0.89, 3.44), (0.03, 5.52, 0.09, 1.63), 0.75,
         (0.00, 3.19, 0.30), 0.122, 0.009),
    _row(29, "resource-0.15-0.1-spd", "RS(0.15,0.1)", Resource(0.15, 0.1), 1.80e-3,
         (1.35, 2.78, 0.85, 0.3), (0.11, 2.81, 0.11, 3.77), 0.89,
         None, 0.165, None),
    _row(30, "resource-0.1i-0.15-spd", "RS(0.1i,0.15)", Resource(0.1j, 0.15), 4.32e-3,
         (0.36, 1.64, 0.58, 0.60), (0.55, 2.30, 0.45, 5.23), 0.62,
         None, 0.314, None),
    _row(31, "resource-0.1i-0.15-spd-pinned", "RS(0.1i,0.15)", Resource(0.1j, 0.15), 4.74e-3,
         (0.60, 0.92, 0.77, 5.83), (0.60, 1.79, 0.53, 4.56), 0.59,
         None, 0.318, None, _F_RR),
    _row(32, "resource-0.4-0.166-spd", "RS(0.4,0.166)", Resource(0.4, 0.166), 5.31e-3,
         (0.54, 5.66, 1.34, 4.31), (1.17, 5.93, 1.31, 1.85), 0.50,
         None, 0.148, None),
    _row(33, "resource-0.4-0.166-spd-pinned", "RS(0.4,0.166)", Resource(0.4, 0.166), 5.37e-3,
         (0.60, 1.72, 1.14, 5.86), (0.60, 1.00, 0.96, 4.78), 0.54,
         None, 0.209, None, _F_RR),
    _row(34, "super-0-1-spd", "(|0>+|1>)/sqrt2", AdHoc((1.0, 1.0)), 1.40e-6,
         (0.41, 2.52, 0.252, 0.63), (0.61, 2.52, 0.74, 5.88), 0.41,
         None, 0.236, None),
    _row(35, "super-0-1-spd-pinned", "(|0>+|1>)/sqrt2", AdHoc((1.0, 1.0)), 5.70e-6,
         (0.60, 0.00, 0.82, 4.71), (0.60, 6.28, 0.25, 3.16), 0.50,
         None, 0.274, None, _F_RR),
    _row(36, "super-1-2-spd", "(2|1>+|2>)/sqrt5", AdHoc((0.0, 2.0, 1.0)), 2.74e-3,
         (0.35, 6.05, 0.41, 4.66), (1.39, 6.13, 0.21, 0.95), 0.35,
         None, 0.159, None),
    _row(37, "super-1-3-spd", "(4|1>+|3>)/sqrt17", AdHoc((0.0, 4.0, 0.0, 1.0)), 2.68e-3,
         (0.71, 5.16, 0.01, 1.00), (0.79, 4.56, 0.00, 0.74), 0.46,
         None, 0.229, None),
    _row(38, "super-1-3-spd-pinned", "(4|1>+|3>)/sqrt17", AdHoc((0.0, 4.0, 0.0, 1.0)), 2.69e-3,
         (0.60, 1.85, 0.00, 4.86), (0.60, 2.44, 0.00, 2.79), 0.60,
         None, 0.190, None, _F_RR),
    _row(39, "super-0-1-2-spd", "(2|0>+2|1>+|2>)/3", AdHoc((2.0, 2.0, 1.0)), 3.36e-3,
         (0.19, 5.74, 0.76, 4.58), (0.27, 6.23, 0.22, 0.45), 0.72,
         None, 0.207, None),
    _row(40, "super-1-3-5-spd", "N(|1>+0.3|3>+0.1|5>)", AdHoc((0.0, 1.0, 0.0, 0.3, 0.0, 0.1)), 7.36e-4,
         (1.08, 0.00, 0.00, 0.00), (0.12, 0.00, 0.00, 0.00), 0.60,
         None, 0.131, None),
)

ROWS: dict[str, ReferenceRow] = {r.row_id: r for r in _ROWS}

DESIGNATED: tuple[str, ...] = (
    "02-binom-0.3-7-spd",
    "03-binom-0.45-8-hm",
    "08-negbinom-0.65-1-hm",
    "11-negbinom-0.5-5-spd",
    "17-ampsq-1-0.5-1-spd",
    "20-ampsq-1-2-1-hm",
    "26-resource-0.6-0.03-hm",
    "27-resource-0.6-0.03-spd",
    "34-super-0-1-spd",
    "40-super-1-3-5-spd",
)


def all_rows() -> tuple[ReferenceRow, ...]:
    return _ROWS


def get_row(row_id: str) -> ReferenceRow:
    try:
        return ROWS[row_id]
    except KeyError:
        raise KeyError(
            f"unknown row id {row_id!r}; known ids: {', '.join(ROWS)}"
        ) from None


def designated_rows() -> tuple[ReferenceRow, ...]:
    return tuple(ROWS[i] for i in DESIGNATED)
