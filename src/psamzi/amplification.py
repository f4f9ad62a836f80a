"""Weak-value analysis of the postselected port and the amplified phase.

Two descriptions are provided.  In the small-coupling (AAV) limit the port
amplitude is (c1 + c2) * exp(i * a_w * chi) * alpha, so the signal phase
appears amplified by the weak value a_w = c1 / (c1 + c2).  Beyond that limit
the amplified phase is simply the argument of the exact port amplitude, which
stays correct in every quadrant and can be inverted back to the bare phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DarkPointSingularity, NoRoot, ZeroAmplitude
from .optics import MziParams, port_amplitudes, wrap_angle

DARK_OVERLAP_TOL = 1e-15
ZERO_AMPLITUDE_TOL = 1e-15

# Fraction of the real part above which an imaginary weak-value component is
# flagged as not extractable from a quadrature measurement.
IMAG_WARNING_RATIO = 0.01


@dataclass
class WeakValue:
    """Interfering contributions of the postselected port and their ratio.

    ``c1`` and ``c2`` are the per-unit-input amplitudes of the two paths into
    the port, ``overlap`` their sum (the pre/post selection overlap) and
    ``a_w = c1 / overlap`` the weak value of the which-path projector.
    """

    c1: complex
    c2: complex
    overlap: complex
    a_w: complex


@dataclass
class AmplifiedPhase:
    """Amplified phase of the postselected port, plus the amplitude it rides on.

    ``imag_warning`` is set when the weak value has an imaginary component
    large enough that the phase is not purely quadrature-extractable.
    """

    chi_tilde: float
    alpha_f_mag: float
    imag_warning: bool = False


def weak_values(grid: list[float],
                gamma: float) -> list[tuple[complex, complex, complex, complex] | None]:
    """``WeakValue`` fields (c1, c2, overlap, a_w) at each angle, None where dark.

    c1 = cos(theta2) / sqrt(2) and c2 = -e^{i gamma} sin(theta2) / sqrt(2).
    This is the one dark-point rule: where |c1 + c2| < DARK_OVERLAP_TOL the
    postselection is exactly orthogonal and a_w = c1 / (c1 + c2) diverges.
    ``weak_value`` calls it with one angle.
    """
    root2 = math.sqrt(2.0)
    arm2 = -cmath.exp(1j * gamma)
    points = []
    for theta2 in grid:
        c1 = complex(math.cos(theta2) / root2)
        c2 = arm2 * math.sin(theta2) / root2
        overlap = c1 + c2
        points.append(None if abs(overlap) < DARK_OVERLAP_TOL
                      else (c1, c2, overlap, c1 / overlap))
    return points


def aav_phase(a_w_reals: list[float | None], chi: float) -> list[float | None]:
    """Wrapped small-coupling phases Re(a_w) * chi, None where a_w is.

    ``chi_tilde_aav`` calls it with one weak value.
    """
    return [None if a_w is None else wrap_angle(a_w * chi) for a_w in a_w_reals]


def exact_phase(units: list[complex],
                alpha_mags: list[float]) -> tuple[list[float], list[list[float | None]]]:
    """Amplified phases of unit port amplitudes, and |alpha_f| over them per |alpha|.

    Returns chi_tilde = arg(unit) wrapped to (-pi, pi] for each unit, and for
    each |alpha| a list of |alpha_f| = |alpha| / sqrt(2) * |unit|, with None
    where the amplitude vanishes and its phase is undefined.  Each unit's
    modulus and phase are formed once for every |alpha|.
    ``chi_tilde_exact`` calls it with one unit and one |alpha|.
    """
    moduli = [abs(unit) for unit in units]
    phases = [wrap_angle(cmath.phase(unit)) for unit in units]
    mags = []
    for alpha_mag in alpha_mags:
        scale = alpha_mag / math.sqrt(2.0)
        # At the float dark point rounding leaves |unit| near 1e-16, which a
        # large N would lift above the threshold; the phase of that residue
        # is noise.
        mags.append([None if min(mag := scale * modulus, modulus) < ZERO_AMPLITUDE_TOL
                     else mag for modulus in moduli])
    return phases, mags


def weak_value(theta2: float, gamma: float = 0.0) -> WeakValue:
    """Weak value of the which-path projector for the postselected port.

    Raises DarkPointSingularity where the overlap vanishes.
    """
    point = weak_values([theta2], gamma)[0]
    if point is None:
        raise DarkPointSingularity(
            f"postselection overlap is zero at theta2={theta2}, gamma={gamma}"
        )
    return WeakValue(*point)


def chi_tilde_aav(params: MziParams) -> AmplifiedPhase:
    """Small-coupling amplified phase Re(a_w) * chi.

    The postselected amplitude it rides on is |c1 + c2| * |alpha|.
    """
    chi = params.chi
    wv = weak_value(params.theta2, params.gamma)
    warn = abs(wv.a_w.imag * chi) > IMAG_WARNING_RATIO * abs(wv.a_w.real * chi)
    return AmplifiedPhase(
        chi_tilde=aav_phase([wv.a_w.real], chi)[0],
        alpha_f_mag=abs(wv.overlap) * abs(params.alpha),
        imag_warning=warn,
    )


def chi_tilde_exact(params: MziParams) -> AmplifiedPhase:
    """Exact amplified phase, valid at any coupling strength.

    Phase and magnitude both come from the unit port amplitude: chi_tilde =
    arg(alpha_f) - arg(alpha) wrapped to (-pi, pi] and |alpha_f| = |alpha| /
    sqrt(2) * |unit|.  Raises ZeroAmplitude at an exact dark point, where the
    phase is undefined.
    """
    theta2, chi, gamma = params.theta2, params.chi, params.gamma
    phases, mags = exact_phase(port_amplitudes([theta2], [chi], gamma)[0],
                               [abs(params.alpha)])
    if mags[0][0] is None:
        raise ZeroAmplitude(
            f"postselected amplitude vanishes at theta2={theta2}, "
            f"chi={chi}, gamma={gamma}"
        )
    return AmplifiedPhase(chi_tilde=phases[0], alpha_f_mag=mags[0][0])


def invert_chi_branches(
    chi_tilde_measured: float, theta2: float, gamma: float = 0.0
) -> tuple[float, ...]:
    """Every bare phase in (-pi/2, pi/2) whose exact amplified phase is the measured one.

    arg(alpha_f) = chi_tilde means Im(alpha_f * exp(-i chi_tilde)) = 0, i.e.
    sin(chi - chi_tilde) = tan(theta2) * sin(gamma - chi_tilde), with
    Re(alpha_f * exp(-i chi_tilde)) > 0.  The two asin branches of the first
    condition are kept when they satisfy the second.  Below the dark point
    (theta2 < pi/4) at most one survives; past it both can.  Returns the
    sorted distinct roots, at most two, or () when there is none.
    """
    s = math.tan(theta2) * math.sin(gamma - chi_tilde_measured)
    if abs(s) > 1.0:
        return ()
    offset = math.asin(s)
    lead = math.sin(theta2) * math.cos(gamma - chi_tilde_measured)
    roots = {
        wrap_angle(chi_tilde_measured + d)
        for d in (offset, math.pi - offset)
        if math.cos(theta2) * math.cos(d) > lead
    }
    return tuple(sorted(r for r in roots if abs(r) < math.pi / 2))


def invert_chi(chi_tilde_measured: float, theta2: float, gamma: float = 0.0) -> float:
    """Recover the bare phase from a measured amplified phase.

    Returns the root of chi_tilde_exact(chi) == chi_tilde_measured in
    (-pi/2, pi/2), from the closed form in invert_chi_branches.  Below the
    dark point the root is unique.  Past it two roots can reproduce the
    measurement; the one nearer zero, the weak-signal branch, is returned.
    Raises NoRoot when no chi in the interval reproduces the measured value.
    """
    roots = invert_chi_branches(chi_tilde_measured, theta2, gamma)
    if not roots:
        raise NoRoot(
            f"no chi in (-pi/2, pi/2) reproduces chi_tilde={chi_tilde_measured} "
            f"at theta2={theta2}, gamma={gamma}"
        )
    return min(roots, key=abs)
