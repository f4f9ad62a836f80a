"""Postselected-amplification Mach-Zehnder interferometry toolkit.

Simulates phase-shift measurement of optical coherent states: exact port
amplitudes, weak-value amplified phases, homodyne quadrature statistics,
seeded shot averaging, and photodetector-saturation error analysis.
"""

from .amplification import (
    AmplifiedPhase,
    MODE_AAV,
    MODE_EXACT,
    WeakValue,
    chi_tilde_aav,
    chi_tilde_exact,
    invert_chi,
    invert_chi_branches,
    weak_value,
)
from .errors import (
    ConfigError,
    DarkPointSingularity,
    DomainError,
    NoRoot,
    ZeroAmplitude,
    ZeroSignal,
)
from .homodyne import (
    LoConfig,
    QUADRATURE_STD,
    QuadratureStats,
    modulation_error_compare,
    quadrature_mean,
    quadrature_stats_aav,
    quadrature_stats_exact,
    rescaled_intensity,
)
from .optics import (
    MziParams,
    PortFields,
    bs_matrix,
    bs_transform,
    coherent_amplitude,
    intensity_difference,
    phase_shift,
    propagate_mzi,
    wrap_angle,
)
from .saturation import (
    DetectorParams,
    SaturationReport,
    detector_counts,
    detector_current,
    error_ratio,
    invert_phase_linear_model,
    saturated_quadrature,
)
from .shots import (
    ChiEstimate,
    ShotRun,
    UncertaintyPoint,
    averaged_stats,
    estimate_chi_from_run,
    sample_shots,
    uncertainty_vs_m,
)

__version__ = "0.1.0"

__all__ = [
    "AmplifiedPhase",
    "ChiEstimate",
    "ConfigError",
    "DarkPointSingularity",
    "DetectorParams",
    "DomainError",
    "LoConfig",
    "MODE_AAV",
    "MODE_EXACT",
    "MziParams",
    "NoRoot",
    "PortFields",
    "QUADRATURE_STD",
    "QuadratureStats",
    "SaturationReport",
    "ShotRun",
    "UncertaintyPoint",
    "WeakValue",
    "ZeroAmplitude",
    "ZeroSignal",
    "averaged_stats",
    "bs_matrix",
    "bs_transform",
    "chi_tilde_aav",
    "chi_tilde_exact",
    "coherent_amplitude",
    "detector_counts",
    "detector_current",
    "error_ratio",
    "estimate_chi_from_run",
    "intensity_difference",
    "invert_chi",
    "invert_chi_branches",
    "invert_phase_linear_model",
    "modulation_error_compare",
    "phase_shift",
    "propagate_mzi",
    "quadrature_mean",
    "quadrature_stats_aav",
    "quadrature_stats_exact",
    "rescaled_intensity",
    "sample_shots",
    "saturated_quadrature",
    "uncertainty_vs_m",
    "weak_value",
    "wrap_angle",
]
