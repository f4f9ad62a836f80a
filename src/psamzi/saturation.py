"""Photodetector saturation and its bias on linear phase inversion.

The photocurrent responds as k_max * (1 - exp(-N/N_sat)), so an experimenter
who calibrates the small-signal slope k_max / N_sat and inverts the readout
with the linear model recovers a biased amplified phase once the photon
numbers approach N_sat.  ``error_ratio`` quantifies that bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .amplification import ZERO_AMPLITUDE_TOL, chi_tilde_exact
from .errors import NegativeCount, ZeroAmplitude, ZeroSignal
from .homodyne import LoConfig, quadrature_mean
from .optics import MziParams, propagate_mzi

_COUNT_CLAMP_TOL = 1e-15


@dataclass
class DetectorParams:
    """Opto-electric conversion ceiling and saturation threshold photon number."""

    k_max: float
    n_sat: float

    def __post_init__(self) -> None:
        if self.k_max <= 0 or self.n_sat <= 0:
            raise ValueError(
                f"detector parameters must be positive, got k_max={self.k_max}, "
                f"n_sat={self.n_sat}"
            )


@dataclass
class SaturationReport:
    """Full chain of one saturated readout and the phase bias it produces."""

    n1: float
    n2: float
    x_linear: float
    x_saturated: float
    chi_tilde_biased: float
    eta_e: float
    clamped: bool = False


def detector_current(n_photons: float, det: DetectorParams) -> float:
    """Photocurrent k_max * (1 - exp(-N/N_sat)); monotone, bounded by k_max."""
    if n_photons < 0:
        raise ValueError(f"photon number must be >= 0, got {n_photons}")
    return det.k_max * (1.0 - math.exp(-n_photons / det.n_sat))


def detector_counts(
    beta_mag: float, xi: float, alpha_f: complex
) -> tuple[float, float]:
    """Mean photon numbers at the two homodyne detectors.

    Defined through the two exact identities n1 + n2 = |beta|^2 + |alpha_f|^2
    and (n1 - n2) / (2|beta|) = quadrature mean.  Tiny negative values from
    rounding are clamped to zero; anything beyond 1e-15 raises NegativeCount.
    """
    if beta_mag <= 0:
        raise ValueError(f"LO amplitude must be positive, got {beta_mag}")
    x_bar = quadrature_mean(alpha_f, xi)
    half_total = 0.5 * (beta_mag**2 + abs(alpha_f) ** 2)
    counts = []
    for n in (half_total + beta_mag * x_bar, half_total - beta_mag * x_bar):
        if n < 0.0:
            if n < -_COUNT_CLAMP_TOL:
                raise NegativeCount(f"detector count {n} is negative")
            n = 0.0
        counts.append(n)
    return counts[0], counts[1]


def saturated_quadrature(
    beta_mag: float, xi: float, alpha_f: complex, det: DetectorParams
) -> float:
    """Rescaled current difference of the two saturating detectors.

    (k_max / (2|beta|)) * (exp(-n2/N_sat) - exp(-n1/N_sat)); reduces to
    (k_max / N_sat) * quadrature mean when both counts are far below N_sat.
    """
    n1, n2 = detector_counts(beta_mag, xi, alpha_f)
    return (det.k_max / (2.0 * beta_mag)) * (
        math.exp(-n2 / det.n_sat) - math.exp(-n1 / det.n_sat)
    )


def invert_phase_linear_model(
    x_measured: float, alpha_f_mag: float, det: DetectorParams
) -> tuple[float, bool]:
    """Amplified phase inferred under the assumption of a linear detector.

    Returns (arcsin(x_measured / (alpha_f_mag * k_max / N_sat)), clamped);
    the flag is set when the argument had to be clipped into [-1, 1].
    """
    if alpha_f_mag <= ZERO_AMPLITUDE_TOL:
        raise ZeroAmplitude("cannot invert the readout of a vanishing amplitude")
    arg = x_measured * det.n_sat / (det.k_max * alpha_f_mag)
    clamped = abs(arg) > 1.0
    return math.asin(min(1.0, max(-1.0, arg))), clamped


def error_ratio(
    params: MziParams, lo: LoConfig, det: DetectorParams
) -> SaturationReport:
    """Relative bias |chi_tilde' - chi_tilde| / chi_tilde from saturation.

    Feeds the saturated readout through the linear inversion and compares the
    result against the exact amplified phase.  Raises ZeroSignal when the true
    amplified phase is zero and the ratio is undefined.
    """
    fields = propagate_mzi(params)
    amp = chi_tilde_exact(params)
    if amp.chi_tilde == 0.0:
        raise ZeroSignal("error ratio is undefined at zero amplified phase")
    xi = lo.effective_phase
    n1, n2 = detector_counts(lo.beta_mag, xi, fields.alpha_f)
    x_linear = (det.k_max / det.n_sat) * quadrature_mean(fields.alpha_f, xi)
    x_saturated = saturated_quadrature(lo.beta_mag, xi, fields.alpha_f, det)
    chi_biased, clamped = invert_phase_linear_model(x_saturated, amp.alpha_f_mag, det)
    return SaturationReport(
        n1=n1,
        n2=n2,
        x_linear=x_linear,
        x_saturated=x_saturated,
        chi_tilde_biased=chi_biased,
        eta_e=abs(chi_biased - amp.chi_tilde) / abs(amp.chi_tilde),
        clamped=clamped,
    )
