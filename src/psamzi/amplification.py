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

import numpy as np
from scipy.optimize import bisect

from .errors import DarkPointSingularity, NoRoot, ZeroAmplitude
from .optics import MziParams, balanced_bs1, wrap_angle

DARK_OVERLAP_TOL = 1e-15
ZERO_AMPLITUDE_TOL = 1e-15

MODE_AAV = "aav"
MODE_EXACT = "exact"

# Fraction of the real part above which an imaginary weak-value component is
# flagged as not extractable from a quadrature measurement.
IMAG_WARNING_RATIO = 0.01

_BISECT_XTOL = 1e-14
_BRACKET_EDGE = math.pi / 2 - 1e-12
_SCAN_POINTS = 4097


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


def weak_value(theta2: float, gamma: float = 0.0) -> WeakValue:
    """Weak value of the which-path projector for the postselected port.

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
        chi_tilde=wrap_angle(wv.a_w.real * chi),
        alpha_f_mag=abs(wv.overlap) * alpha_mag,
        mode=MODE_AAV,
        imag_warning=warn,
    )


def _phase_of_port(chi: float, theta2: float, gamma: float) -> float:
    """Argument of the postselected amplitude relative to the input phase."""
    return math.atan2(
        math.sin(chi) * math.cos(theta2) - math.sin(gamma) * math.sin(theta2),
        math.cos(chi) * math.cos(theta2) - math.cos(gamma) * math.sin(theta2),
    )


def port_depth(params: MziParams) -> float:
    """Depth 1 - sin(2*theta2) * cos(chi - gamma) = 2 |alpha_f|^2 / N of the port."""
    return 1.0 - math.sin(2.0 * params.theta2) * math.cos(params.chi - params.gamma)


def chi_tilde_exact(params: MziParams) -> AmplifiedPhase:
    """Exact amplified phase, valid at any coupling strength.

    Equals arg(alpha_f) - arg(alpha) wrapped to (-pi, pi].  Raises
    ZeroAmplitude at an exact dark point, where the phase is undefined, and
    ValueError for an unbalanced first splitter, which the closed form does
    not describe.
    """
    if not balanced_bs1(params.theta1):
        raise ValueError(
            f"the closed forms assume theta1 = pi/4, got theta1={params.theta1}"
        )
    mag = math.sqrt(params.n_photons / 2.0) * math.sqrt(max(port_depth(params), 0.0))
    if mag < ZERO_AMPLITUDE_TOL:
        raise ZeroAmplitude(
            f"postselected amplitude vanishes at theta2={params.theta2}, "
            f"chi={params.chi}, gamma={params.gamma}"
        )
    return AmplifiedPhase(
        chi_tilde=wrap_angle(_phase_of_port(params.chi, params.theta2, params.gamma)),
        alpha_f_mag=mag,
        mode=MODE_EXACT,
    )


def invert_chi(chi_tilde_measured: float, theta2: float, gamma: float = 0.0) -> float:
    """Recover the bare phase from a measured amplified phase.

    Solves chi_tilde_exact(chi) == chi_tilde_measured for chi in
    (-pi/2, pi/2) by bisection (interval tolerance 1e-14).  For theta2 below
    pi/4 the forward map is strictly monotone and continuous on the whole
    bracket, so the endpoint bisection succeeds directly.  When the
    postselection overshoots the dark point the map carries a 2pi branch jump;
    candidate roots are then verified and located through a fine scan of the
    wrap-free residual instead.  Raises NoRoot when the measured value is not
    reproduced anywhere in the bracket.
    """

    def residual(chi: float) -> float:
        return _phase_of_port(chi, theta2, gamma) - chi_tilde_measured

    def wrapped(chi: float) -> float:
        # Identical roots, but continuous across the branch cut of atan2.
        return wrap_angle(residual(chi))

    def is_root(chi: float) -> bool:
        return abs(wrapped(chi)) < 1e-9

    lo, hi = -_BRACKET_EDGE, _BRACKET_EDGE
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo == 0.0:
        return lo
    if r_hi == 0.0:
        return hi
    if r_lo * r_hi < 0.0:
        # A non-monotone map can bracket its discontinuity instead of a root,
        # so the bisection result is verified before being trusted.
        candidate = float(bisect(residual, lo, hi, xtol=_BISECT_XTOL))
        if is_root(candidate):
            return candidate

    grid = np.linspace(lo, hi, _SCAN_POINTS)
    values = [wrapped(x) for x in grid]
    for left, right, v_left, v_right in zip(grid, grid[1:], values, values[1:]):
        if v_left == 0.0 and is_root(float(left)):
            return float(left)
        if v_left * v_right < 0.0 and min(abs(v_left), abs(v_right)) < math.pi / 2:
            candidate = float(bisect(wrapped, left, right, xtol=_BISECT_XTOL))
            if is_root(candidate):
                return candidate
    raise NoRoot(
        f"no chi in (-pi/2, pi/2) reproduces chi_tilde={chi_tilde_measured} "
        f"at theta2={theta2}, gamma={gamma}"
    )
