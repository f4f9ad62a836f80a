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
import sys
from collections import namedtuple
from collections.abc import Iterator

from .amplification import (ZERO_AMPLITUDE_TOL, chi_tilde_exact, exact_phase,
                            readout_phases, weak_value, weak_values)
from .errors import ZeroAmplitude, ZeroSignal
from .homodyne import LoConfig, quadrature_means
from .optics import MziParams, _Checked, port_amplitudes, port_fields

__all__ = ["DetectorParams", "SaturationReport", "detector_counts", "detector_current",
           "error_ratio", "invert_phase_linear_model", "saturated_quadrature"]


class DetectorParams(_Checked, namedtuple("DetectorParams", "k_max n_sat")):
    """Opto-electric conversion ceiling and saturation threshold photon number."""

    __slots__ = ()

    def __new__(cls, k_max: float, n_sat: float):
        if not all(map(math.isfinite, (k_max, n_sat))):
            raise ValueError(f"detector parameters must be finite, got k_max={k_max}, "
                             f"n_sat={n_sat}")
        if k_max <= 0 or n_sat <= 0:
            raise ValueError(f"detector parameters must be positive, got k_max={k_max}, "
                             f"n_sat={n_sat}")
        return super().__new__(cls, k_max, n_sat)


class SaturationReport(namedtuple("SaturationReport",
                                  "n1 n2 x_linear x_saturated chi_tilde_biased eta_e")):
    """Full chain of one saturated readout and the phase bias it produces."""

    __slots__ = ()


def detector_current(n_photons: float, det: DetectorParams) -> float:
    """Photocurrent k_max * (1 - exp(-N/N_sat)); monotone, bounded by k_max."""
    if n_photons < 0:
        raise ValueError(f"photon number must be >= 0, got {n_photons}")
    return det.k_max * (1.0 - math.exp(-n_photons / det.n_sat))


def _check_counts(beta_mag: float, field_mag: float, field: str, given: str) -> None:
    """The LO must be positive, and (beta_mag + the largest |alpha_f|)**2 finite."""
    if beta_mag <= 0:
        raise ValueError(f"LO amplitude must be positive, got {beta_mag}")
    bound = beta_mag + field_mag
    if bound * bound == math.inf:
        raise ValueError(f"lo.beta_mag={beta_mag} overflows the detector counts: "
                         f"(beta_mag + {field})**2 must be finite, got {given}")


def _check_finite(terms: list[tuple[str, float]], given: str) -> None:
    for name, value in terms:
        if value == math.inf:
            raise ValueError(f"the saturated readout overflows: {name} must be finite, "
                             f"got {given}")


def _check_normal(terms: list[tuple[str, float]], given: str) -> None:
    for name, value in terms:
        if value < sys.float_info.min:
            raise ValueError(f"the saturated readout underflows: {name} must be a normal "
                             f"float at |alpha_f|={ZERO_AMPLITUDE_TOL}, got {given}")


def _gains(det: DetectorParams, field_mag: float, field: str) -> list[tuple[str, float]]:
    """k_max |alpha_f| and (k_max / N_sat) |alpha_f|, which scale the inverted ratio."""
    k_max, n_sat = det
    return [(f"k_max * {field}", k_max * field_mag),
            (f"k_max / n_sat * {field}", k_max / n_sat * field_mag)]


def _check_scales(beta_mag: float, field_mag: float, field: str, det: DetectorParams,
                  given: str) -> None:
    """The counts, the current difference's scale and the gains at the largest |alpha_f|."""
    _check_counts(beta_mag, field_mag, field, given)
    k_max, n_sat = det
    _check_finite([("k_max / (2 * beta_mag)", k_max / (2.0 * beta_mag)),
                   *_gains(det, field_mag, field)],
                  f"beta_mag={beta_mag}, k_max={k_max}, n_sat={n_sat}, {given}")


def check_readout_domain(beta_mag: float, alpha_mag: float, det: DetectorParams) -> None:
    """Raise ValueError where this LO, input and detector take the readout off the floats.

    With |x_bar| <= |alpha_f| <= sqrt(2) |alpha|, the counts are below
    (beta_mag + sqrt(2) |alpha|)^2, the current difference is at most
    k_max / (2 beta_mag), the inversion divides by k_max |alpha_f| and
    x_linear is (k_max / N_sat) x_bar; each bound must be finite.  The
    inversion reads only |alpha_f| > ZERO_AMPLITUDE_TOL.  At that least
    |alpha_f|, k_max |alpha_f| and (k_max / N_sat) |alpha_f|, which scale the
    inverted ratio, and 2 beta_mag |alpha_f| and its quotient by N_sat, the
    exponent of the current difference, must be normal floats.  Then no
    subnormal rounding reaches the ratio, which passes +-1 by an ulp at most.
    A NaN passes, for the caller's own checks to name.  ``detector_counts``,
    ``saturated_quadrature`` and ``invert_phase_linear_model`` check the parts
    they evaluate, at the |alpha_f| they are given.
    """
    _check_scales(beta_mag, math.sqrt(2.0) * alpha_mag, "sqrt(2) * |alpha|", det,
                  f"|alpha|={alpha_mag}")
    least = ZERO_AMPLITUDE_TOL
    _check_normal([*_gains(det, least, "|alpha_f|"),
                   ("2 * beta_mag * |alpha_f|", 2.0 * beta_mag * least),
                   ("2 * beta_mag * |alpha_f| / n_sat", 2.0 * beta_mag * least / det.n_sat)],
                  f"beta_mag={beta_mag}, k_max={det.k_max}, n_sat={det.n_sat}")


def _count_pairs(beta_mag: float, xi: float,
                 alpha_fs: list[complex]) -> list[tuple[float, float]]:
    """``detector_counts`` of each port field, with the LO phasor formed once."""
    lo = cmath.rect(beta_mag, xi)
    return [(abs(alpha_f + lo) ** 2 / 2, abs(alpha_f - lo) ** 2 / 2)
            for alpha_f in alpha_fs]


def detector_counts(
    beta_mag: float, xi: float, alpha_f: complex
) -> tuple[float, float]:
    """Mean photon numbers at the two homodyne detectors.

    n1 = |alpha_f + beta e^{i xi}|^2 / 2 and n2 = |alpha_f - beta e^{i xi}|^2 / 2,
    so they cannot be negative.  They obey n1 + n2 = |beta|^2 + |alpha_f|^2 and
    (n1 - n2) / (2|beta|) = quadrature mean.  Raises ValueError where beta_mag
    is not positive or (beta_mag + |alpha_f|)**2 overflows.
    """
    _check_counts(beta_mag, abs(alpha_f), "|alpha_f|", f"|alpha_f|={abs(alpha_f)}")
    return _count_pairs(beta_mag, xi, [alpha_f])[0]


def _current_differences(beta_mag: float, counts: list[tuple[float, float]],
                         x_bars: list[float], det: DetectorParams) -> list[float]:
    """``saturated_quadrature`` from each pair of counts and its quadrature mean."""
    scale = det.k_max / (2.0 * beta_mag)
    minus_two_beta = -2.0 * beta_mag
    n_sat = det.n_sat
    return [math.copysign(scale * math.exp(-min(n1, n2) / n_sat)
                          * -math.expm1(minus_two_beta * abs(x_bar) / n_sat), x_bar)
            for (n1, n2), x_bar in zip(counts, x_bars)]


def saturated_quadrature(
    beta_mag: float, xi: float, alpha_f: complex, det: DetectorParams
) -> float:
    """Rescaled current difference of the two saturating detectors.

    (k_max / (2|beta|)) * (exp(-n2/N_sat) - exp(-n1/N_sat)), evaluated through
    |n1 - n2| = 2|beta| |x_bar|, with x_bar the quadrature mean, as
    sign(x_bar) (k_max / (2|beta|)) exp(-min(n1, n2)/N_sat)
    * -expm1(-2|beta| |x_bar| / N_sat), so that it neither cancels nor
    overflows; reduces to (k_max / N_sat) * x_bar when both counts are far
    below N_sat.  Raises ValueError where the counts, the scale
    k_max / (2|beta|) or the gains at |alpha_f| overflow.
    """
    _check_scales(beta_mag, abs(alpha_f), "|alpha_f|", det, f"|alpha_f|={abs(alpha_f)}")
    counts = _count_pairs(beta_mag, xi, [alpha_f])
    return _current_differences(beta_mag, counts, quadrature_means([alpha_f], xi),
                                det)[0]


def invert_phase_linear_model(
    x_measured: float, alpha_f_mag: float, det: DetectorParams
) -> tuple[float, bool]:
    """Amplified phase inferred under the assumption of a linear detector.

    Returns (arcsin(x_measured / (alpha_f_mag * k_max / N_sat)), clamped);
    the flag is set when the argument had to be clipped into [-1, 1].  A NaN
    readout gives a NaN phase.  Raises ValueError where the gains k_max
    |alpha_f| and (k_max / N_sat) |alpha_f| overflow, or are not normal floats
    at the least |alpha_f| the inversion reads, as ``check_readout_domain``.
    """
    given = f"k_max={det.k_max}, n_sat={det.n_sat}"
    _check_finite(_gains(det, alpha_f_mag, "|alpha_f|"), f"{given}, |alpha_f|={alpha_f_mag}")
    _check_normal(_gains(det, ZERO_AMPLITUDE_TOL, "|alpha_f|"), given)
    inversion = readout_phases([x_measured], [alpha_f_mag], det.k_max, det.n_sat)[0]
    if inversion is None:
        raise ZeroAmplitude("cannot invert the readout of a vanishing amplitude")
    return inversion


def error_ratio_fields(grid: list[float], chi: float, gamma: float,
                       alphas: list[complex], lo: LoConfig,
                       det: DetectorParams) -> Iterator[tuple | None]:
    """``error_ratio``'s SaturationReport fields, point by point, alpha by alpha.

    Each alpha's points run over the theta2 grid.  A point at a dark angle of
    ``weak_values``, where the linear inversion is degenerate even when the
    amplitude is not, gives None, and so does a point whose amplitude
    vanishes or whose amplified phase is zero or subnormal.  Since
    |chi_tilde_biased| <= pi/2, eta_e is at most (pi/2) / |chi_tilde| + 1,
    which is finite for every normal |chi_tilde|.  The dark rule, the unit port
    amplitude and its phase are formed once per angle, the port field's
    scale once per alpha, each port field once, for ``exact_phase``, the
    counts and the quadrature mean, and the LO terms once per run;
    ``error_ratio`` takes the one point of a one-angle, one-alpha grid.
    Points come one at a time, so a caller that keeps a few fields of each
    holds no others.  The caller checks the LO, the largest alpha and the
    detector with ``check_readout_domain`` first; then the inversion clips
    only by rounding, since |x_saturated| N_sat / k_max <= |x_bar| <=
    |alpha_f|, so the fields carry no clamp flag.
    """
    darks = [point is None for point in weak_values(grid, gamma)]
    units = port_amplitudes(grid, [chi], gamma)[0]
    field_rows = port_fields(units, alphas)
    phases, mag_rows = exact_phase(units, field_rows)
    xi = lo.xi
    slope = det.k_max / det.n_sat
    tiny = sys.float_info.min
    for alpha_fs, mags in zip(field_rows, mag_rows):
        counts = _count_pairs(lo.beta_mag, xi, alpha_fs)
        x_bars = quadrature_means(alpha_fs, xi)
        x_sats = _current_differences(lo.beta_mag, counts, x_bars, det)
        inversions = readout_phases(x_sats, mags, det.k_max, det.n_sat)
        for (n1, n2), x_bar, x_sat, inversion, chi_tilde, dark in zip(
            counts, x_bars, x_sats, inversions, phases, darks
        ):
            if dark or inversion is None or abs(chi_tilde) < tiny:
                yield None
            else:
                chi_biased = inversion[0]
                yield (n1, n2, slope * x_bar, x_sat, chi_biased,
                       abs(chi_biased - chi_tilde) / abs(chi_tilde))


def error_ratio(
    params: MziParams, lo: LoConfig, det: DetectorParams
) -> SaturationReport:
    """Relative bias |chi_tilde' - chi_tilde| / chi_tilde from saturation.

    Feeds the saturated readout through the linear inversion and compares the
    result against the exact amplified phase.  Raises ValueError where
    ``check_readout_domain`` refuses the LO, input and detector.  Raises,
    where ``error_ratio_fields`` gives None: ZeroAmplitude where the amplitude
    vanishes, else DarkPointSingularity at a dark angle, else ZeroSignal,
    since the true amplified phase is zero or subnormal and the ratio is
    undefined or overflows.
    """
    check_readout_domain(lo.beta_mag, abs(params.alpha), det)
    fields = next(error_ratio_fields([params.theta2], params.chi, params.gamma,
                                     [params.alpha], lo, det))
    if fields is None:
        chi_tilde_exact(params)
        weak_value(params.theta2, params.gamma)
        raise ZeroSignal("error ratio is undefined at a zero or subnormal amplified phase")
    return SaturationReport(*fields)
