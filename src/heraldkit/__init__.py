"""Conditional preparation of nonclassical optical states.

Two squeezed coherent beams interfere on a beam splitter; measuring one
output mode (single-photon detection or a homodyne quadrature reading)
heralds a tailored state in the other.  The package evaluates the
heralded state exactly on a truncated number basis, scores it against
target families, models detection and transmission loss, and searches
the scheme parameters with a seeded genetic algorithm.
"""
from .errors import (
    ConfigError,
    HeraldkitError,
    HermiteOverflowError,
    NormalizationError,
    TailMassError,
    TruncationQualityError,
)
from .fock import (
    BeamSplitterSpec,
    DensityMatrix,
    FockVector,
    TwoModeState,
    fidelity,
)
from .imperfections import (
    ImperfectionSpec,
    SweepPoint,
    conditional_output_lossy,
    loss_channel,
    sweep_efficiency,
    sweep_parameter_deviation,
)
from .optimizer import (
    Bounds,
    GAConfig,
    OptimizationResult,
    local_polish,
    optimize,
)
from .reference_rows import ReferenceRow, all_rows, designated_rows, get_row
from .scheme import (
    HM,
    SPD,
    ConditionalOutput,
    SchemeParams,
    average_misfit,
    conditional_output,
    hm_outcome_density,
    misfit,
    output_oracle,
    success_prob_hm,
    success_prob_spd,
)
from .states import (
    AdHoc,
    AmplitudeSqueezed,
    Binomial,
    NegativeBinomial,
    Resource,
    SqueezedCoherentParams,
    TargetSpec,
    amplitude_squeezed_state,
    binomial_state,
    negative_binomial_state,
    resource_state,
    target_state,
)

__version__ = "0.1.0"

__all__ = [
    "AdHoc",
    "AmplitudeSqueezed",
    "BeamSplitterSpec",
    "Binomial",
    "Bounds",
    "ConditionalOutput",
    "ConfigError",
    "DensityMatrix",
    "FockVector",
    "GAConfig",
    "HM",
    "HeraldkitError",
    "HermiteOverflowError",
    "ImperfectionSpec",
    "NegativeBinomial",
    "NormalizationError",
    "OptimizationResult",
    "ReferenceRow",
    "Resource",
    "SPD",
    "SchemeParams",
    "SqueezedCoherentParams",
    "SweepPoint",
    "TailMassError",
    "TargetSpec",
    "TruncationQualityError",
    "TwoModeState",
    "all_rows",
    "amplitude_squeezed_state",
    "average_misfit",
    "binomial_state",
    "conditional_output",
    "conditional_output_lossy",
    "designated_rows",
    "fidelity",
    "get_row",
    "hm_outcome_density",
    "local_polish",
    "loss_channel",
    "misfit",
    "negative_binomial_state",
    "optimize",
    "output_oracle",
    "resource_state",
    "success_prob_hm",
    "success_prob_spd",
    "sweep_efficiency",
    "sweep_parameter_deviation",
    "target_state",
]
