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

MODE_AAV = "aav"
MODE_EXACT = "exact"

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
    mode: str
    imag_warning: bool = False


def postselection_overlap(
    theta2: float, gamma: float
) -> tuple[complex, complex, complex]:
    """Path amplitudes c1, c2 and their sum, the overlap; ``weak_value`` wraps them.

    Raises DarkPointSingularity when |c1 + c2| < 1e-15, i.e. the postselection
    is exactly orthogonal and the weak value diverges.
    """
    c1 = complex(math.cos(theta2) / math.sqrt(2.0))
    c2 = -cmath.exp(1j * gamma) * math.sin(theta2) / math.sqrt(2.0)
    overlap = c1 + c2
    if abs(overlap) < DARK_OVERLAP_TOL:
        raise DarkPointSingularity(
            f"postselection overlap is zero at theta2={theta2}, gamma={gamma}"
        )
    return c1, c2, overlap


def aav_phase(a_w_real: float, chi: float) -> float:
    """Wrapped small-coupling phase Re(a_w) * chi; ``chi_tilde_aav`` wraps it."""
    return wrap_angle(a_w_real * chi)


def exact_phase(unit: complex, alpha_mag: float, theta2: float, chi: float,
                gamma: float) -> tuple[float, float]:
    """(chi_tilde, |alpha_f|) from a unit port amplitude; ``chi_tilde_exact`` wraps them.

    Raises ZeroAmplitude, naming the point by theta2, chi and gamma.
    """
    mag = alpha_mag / math.sqrt(2.0) * abs(unit)
    # At the float dark point rounding leaves |unit| near 1e-16, which a large
    # N would lift above the threshold; the phase of that residue is noise.
    if min(mag, abs(unit)) < ZERO_AMPLITUDE_TOL:
        raise ZeroAmplitude(
            f"postselected amplitude vanishes at theta2={theta2}, "
            f"chi={chi}, gamma={gamma}"
        )
    return wrap_angle(cmath.phase(unit)), mag


def weak_value(theta2: float, gamma: float = 0.0) -> WeakValue:
    """Weak value of the which-path projector for the postselected port.

    Raises DarkPointSingularity where the overlap vanishes.
    """
    c1, c2, overlap = postselection_overlap(theta2, gamma)
    return WeakValue(c1=c1, c2=c2, overlap=overlap, a_w=c1 / overlap)


def chi_tilde_aav(
    chi: float, theta2: float, gamma: float = 0.0, alpha_mag: float = 1.0
) -> AmplifiedPhase:
    """Small-coupling amplified phase Re(a_w) * chi.

    ``alpha_mag`` scales the postselected amplitude |c1 + c2| * |alpha|; it
    defaults to one because the phase itself does not depend on it.
    """
    wv = weak_value(theta2, gamma)
    warn = abs(wv.a_w.imag * chi) > IMAG_WARNING_RATIO * abs(wv.a_w.real * chi)
    return AmplifiedPhase(
        chi_tilde=aav_phase(wv.a_w.real, chi),
        alpha_f_mag=abs(wv.overlap) * alpha_mag,
        mode=MODE_AAV,
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
    unit = port_amplitudes(theta2, chi, gamma)[0]
    chi_tilde, mag = exact_phase(unit, abs(params.alpha), theta2, chi, gamma)
    return AmplifiedPhase(chi_tilde=chi_tilde, alpha_f_mag=mag, mode=MODE_EXACT)


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
