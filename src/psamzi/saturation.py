"""Photodetector saturation and its bias on linear phase inversion.

The two homodyne detectors receive |alpha_f +/- beta e^{i xi}|^2 / 2 photons
and each photocurrent responds as k_max * (1 - exp(-N/N_sat)), so an
experimenter who calibrates the small-signal slope k_max / N_sat and inverts
the readout with the linear model recovers a biased amplified phase once the
photon numbers approach N_sat.  ``error_ratio`` quantifies that bias.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .amplification import ZERO_AMPLITUDE_TOL, exact_phase
from .errors import ZeroAmplitude, ZeroSignal
from .homodyne import LoConfig, quadrature_mean
from .optics import MziParams, port_amplitudes


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

    n1 = |alpha_f + beta e^{i xi}|^2 / 2 and n2 = |alpha_f - beta e^{i xi}|^2 / 2,
    so they cannot be negative.  They obey n1 + n2 = |beta|^2 + |alpha_f|^2 and
    (n1 - n2) / (2|beta|) = quadrature mean.
    """
    if beta_mag <= 0:
        raise ValueError(f"LO amplitude must be positive, got {beta_mag}")
    lo = cmath.rect(beta_mag, xi)
    return abs(alpha_f + lo) ** 2 / 2, abs(alpha_f - lo) ** 2 / 2


def saturated_quadrature(
    beta_mag: float, xi: float, alpha_f: complex, det: DetectorParams
) -> float:
    """Rescaled current difference of the two saturating detectors.

    (k_max / (2|beta|)) * (exp(-n2/N_sat) - exp(-n1/N_sat)), evaluated through
    |n1 - n2| = 2|beta| |x_bar|, with x_bar the quadrature mean, as
    sign(x_bar) (k_max / (2|beta|)) exp(-min(n1, n2)/N_sat)
    * -expm1(-2|beta| |x_bar| / N_sat), so that it neither cancels nor
    overflows; reduces to (k_max / N_sat) * x_bar when both counts are far
    below N_sat.
    """
    n1, n2 = detector_counts(beta_mag, xi, alpha_f)
    return _current_difference(beta_mag, n1, n2, quadrature_mean(alpha_f, xi), det)


def _current_difference(beta_mag: float, n1: float, n2: float, x_bar: float,
                        det: DetectorParams) -> float:
    """``saturated_quadrature`` from the counts and the quadrature mean it uses."""
    return math.copysign(
        (det.k_max / (2.0 * beta_mag)) * math.exp(-min(n1, n2) / det.n_sat)
        * -math.expm1(-2.0 * beta_mag * abs(x_bar) / det.n_sat),
        x_bar,
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


def error_ratio_fields(theta2: float, chi: float, gamma: float, alpha: complex,
                       lo: LoConfig, det: DetectorParams) -> tuple:
    """``error_ratio``'s SaturationReport fields in order; ``error_ratio`` wraps them."""
    unit_f = port_amplitudes(theta2, chi, gamma)[0]
    alpha_f = alpha / math.sqrt(2.0) * unit_f
    chi_tilde, alpha_f_mag = exact_phase(unit_f, abs(alpha), theta2, chi, gamma)
    if chi_tilde == 0.0:
        raise ZeroSignal("error ratio is undefined at zero amplified phase")
    xi = lo.effective_phase
    n1, n2 = detector_counts(lo.beta_mag, xi, alpha_f)
    x_bar = quadrature_mean(alpha_f, xi)
    x_saturated = _current_difference(lo.beta_mag, n1, n2, x_bar, det)
    chi_biased, clamped = invert_phase_linear_model(x_saturated, alpha_f_mag, det)
    return (n1, n2, (det.k_max / det.n_sat) * x_bar, x_saturated, chi_biased,
            abs(chi_biased - chi_tilde) / abs(chi_tilde), clamped)


def error_ratio(
    params: MziParams, lo: LoConfig, det: DetectorParams
) -> SaturationReport:
    """Relative bias |chi_tilde' - chi_tilde| / chi_tilde from saturation.

    Feeds the saturated readout through the linear inversion and compares the
    result against the exact amplified phase.  Raises ZeroSignal when the true
    amplified phase is zero and the ratio is undefined.
    """
    return SaturationReport(*error_ratio_fields(params.theta2, params.chi, params.gamma,
                                                params.alpha, lo, det))
