"""Ideal homodyne quadrature statistics of the postselected coherent state.

Convention: the quadrature operator mean in a coherent state |a> is
Re(a * exp(-i*xi)) and its standard deviation is exactly 1/2 regardless of the
amplitude or the local-oscillator phase.  With the sensitivity-optimal choice
xi = pi/2 + arg(alpha) the mean becomes |alpha_f| * sin(chi_tilde).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .amplification import AmplifiedPhase, chi_tilde_aav, chi_tilde_exact, invert_chi
from .errors import DomainError, ZeroSignal
from .optics import MziParams, _Checked

__all__ = ["LoConfig", "QUADRATURE_STD", "QuadratureStats",
           "modulation_error_compare", "quadrature_mean", "quadrature_stats_aav",
           "quadrature_stats_exact", "rescaled_intensity"]

# Quadrature standard deviation of any coherent state in this convention.
QUADRATURE_STD = 0.5


class LoConfig(_Checked, namedtuple("LoConfig", "beta_mag xi")):
    """Local-oscillator settings: amplitude and phase."""

    __slots__ = ()

    def __new__(cls, beta_mag: float, xi: float):
        if not all(map(math.isfinite, (beta_mag, xi))):
            raise ValueError(f"LO beta_mag and xi must be finite, got "
                             f"beta_mag={beta_mag}, xi={xi}")
        if beta_mag <= 0:
            raise ValueError(f"LO amplitude must be positive, got {beta_mag}")
        return super().__new__(cls, beta_mag, xi)


class QuadratureStats(namedtuple("QuadratureStats", "mean std_dev snr sensitivity")):
    """Mean, fluctuation, SNR, and phase-estimation sensitivity of one readout."""

    __slots__ = ()


def quadrature_means(alpha_fs: list[complex], xi: float) -> list[float]:
    """Mean homodyne outcome Re(alpha_f * exp(-i*xi)) of each port field."""
    lo_conj = cmath.exp(-1j * xi)
    return [(alpha_f * lo_conj).real for alpha_f in alpha_fs]


def quadrature_mean(alpha_f: complex, xi: float) -> float:
    """Mean homodyne outcome Re(alpha_f * exp(-i*xi))."""
    return quadrature_means([alpha_f], xi)[0]


def phase_slope(amp: AmplifiedPhase) -> float:
    """Readout slope |d mean / d chi_tilde| = |alpha_f| * |cos(chi_tilde)|."""
    return amp.alpha_f_mag * abs(math.cos(amp.chi_tilde))


def phase_sensitivity(amp: AmplifiedPhase, std: float) -> float:
    """chi_tilde over its error-propagated uncertainty std / phase_slope(amp).

    ``std`` is the spread of the readout the phase is inferred from.
    """
    return amp.chi_tilde * phase_slope(amp) / std


def _one_shot_stats(amp: AmplifiedPhase, sign: float = 1.0) -> QuadratureStats:
    """Statistics of one readout with mean sign * |alpha_f| * sin(chi_tilde).

    The sensitivity uses the 1/2 shot fluctuation, QUADRATURE_STD.
    """
    mean = math.copysign(amp.alpha_f_mag, sign) * math.sin(amp.chi_tilde)
    return QuadratureStats(
        mean=mean,
        std_dev=QUADRATURE_STD,
        snr=mean / QUADRATURE_STD,
        sensitivity=phase_sensitivity(amp, QUADRATURE_STD),
    )


def quadrature_stats_aav(params: MziParams) -> QuadratureStats:
    """Quadrature statistics in the small-coupling limit (gamma = 0 scheme only).

    mean = sqrt(N/2) * (cos(theta2) - sin(theta2)) * sin(chi_tilde), so it
    changes sign past the dark point.
    """
    if params.gamma != 0.0:
        raise ValueError("small-coupling statistics are defined for the "
                         "splitter-modulation scheme (gamma = 0)")
    amp = chi_tilde_aav(params)
    return _one_shot_stats(amp, math.cos(params.theta2) - math.sin(params.theta2))


def quadrature_stats_exact(params: MziParams) -> QuadratureStats:
    """Quadrature statistics at any coupling strength.

    mean = |alpha_f| * sin(chi_tilde) with the exact amplified phase.
    """
    return _one_shot_stats(chi_tilde_exact(params))


def modulation_error_compare(params: MziParams, delta: float) -> tuple[float, float]:
    """Relative phase bias from an LO phase error, with and without postselection.

    A conventional readout infers arcsin of the normalized quadrature and picks
    up the full offset ``delta``; the postselected readout inverts the
    amplified phase, dividing the offset by the amplification.  Returns
    (conventional_bias, postselected_bias), both as |inferred - chi| / |chi|.
    """
    chi = params.chi
    if chi == 0.0:
        raise ZeroSignal("relative bias is undefined at chi = 0")
    amp = chi_tilde_exact(params)
    half_pi = math.pi / 2
    if not -half_pi < chi + delta < half_pi:
        raise DomainError(f"chi + delta = {chi + delta} outside (-pi/2, pi/2)")
    if not -half_pi < amp.chi_tilde + delta < half_pi:
        raise DomainError(
            f"chi_tilde + delta = {amp.chi_tilde + delta} outside (-pi/2, pi/2)"
        )
    conventional = math.asin(math.sin(chi + delta))
    inferred = invert_chi(amp.chi_tilde + delta, params.theta2, params.gamma)
    return abs(conventional - chi) / abs(chi), abs(inferred - chi) / abs(chi)


def rescaled_intensity(i1: float, i2: float, i_lo: float) -> tuple[float, bool]:
    """Signal intensity recovered from the two detector intensities and the LO.

    Returns (i1 + i2 - i_lo, clamped); a slightly negative result from
    measurement noise is clamped to zero with the flag set, so downstream
    square roots stay real.
    """
    for name, value in (("i1", i1), ("i2", i2), ("i_lo", i_lo)):
        if value < 0:
            raise ValueError(f"intensity {name} must be >= 0, got {value}")
    i_f = i1 + i2 - i_lo
    if i_f < 0.0:
        return 0.0, True
    return i_f, False
