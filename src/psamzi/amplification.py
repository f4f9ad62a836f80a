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
import sys
from collections import namedtuple

from .errors import DarkPointSingularity, NoRoot, ZeroAmplitude
from .optics import MziParams, port_amplitudes, port_fields, wrap_angle

__all__ = ["AmplifiedPhase", "WeakValue", "chi_tilde_aav", "chi_tilde_exact",
           "invert_chi", "invert_chi_branches", "weak_value"]

DARK_OVERLAP_TOL = 1e-15
ZERO_AMPLITUDE_TOL = 1e-15
# Where invert_chi_branches' two branches merge, |tan(theta2) sin(gamma - chi_tilde)|
# is 1; a forward chi_tilde's rounding lifts it past 1 by up to about 2 eps /
# cos(theta2).  Twice that still counts as the merge.
MERGE_ROUNDING = 4 * sys.float_info.epsilon
# invert_chi_branches' root chi_tilde + d moves by (arm - lead) / arm times
# chi_tilde's rounding, with arm = cos(theta2) cos(d), and by the sum's own
# rounding, so a true chi near +-pi/2 can land past the edge.  A root past it by
# at most EDGE_ROUNDING (1 + (arm - lead) / |arm|) is kept and moved onto the
# edge, unless it is past by more than sqrt(EDGE_ROUNDING / cos(theta2)), the
# spread of a merged root.  The float pi/2 lies below the true one, so the edge
# is a bare phase.
EDGE_ROUNDING = 8 * sys.float_info.epsilon

# Fraction of the real part above which an imaginary weak-value component is
# flagged as not extractable from a quadrature measurement.
IMAG_WARNING_RATIO = 0.01


class WeakValue(namedtuple("WeakValue", "c1 c2 overlap a_w")):
    """Interfering contributions of the postselected port and their ratio.

    ``c1`` and ``c2`` are the per-unit-input amplitudes of the two paths into
    the port, ``overlap`` their sum (the pre/post selection overlap) and
    ``a_w = c1 / overlap`` the weak value of the which-path projector.
    """

    __slots__ = ()


class AmplifiedPhase(namedtuple("AmplifiedPhase", "chi_tilde alpha_f_mag imag_warning",
                                defaults=(False,))):
    """Amplified phase of the postselected port, plus the amplitude it rides on.

    ``imag_warning`` is set when the weak value has an imaginary component
    large enough that the phase is not purely quadrature-extractable.
    """

    __slots__ = ()


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
    """Wrapped small-coupling phases Re(a_w) * chi.

    None where a_w is, or where Re(a_w) * chi overflows: the phase is then
    undefined, as ``exact_phase``'s is where the amplitude vanishes.
    ``chi_tilde_aav`` calls it with one weak value.
    """
    return [None if a_w is None or not math.isfinite(phase := a_w * chi)
            else wrap_angle(phase) for a_w in a_w_reals]


def exact_phase(units: list[complex], field_rows: list[list[complex]]
                ) -> tuple[list[float], list[list[float | None]]]:
    """Amplified phases of unit port amplitudes, and |alpha_f| of their port fields.

    Returns chi_tilde = arg(unit) wrapped to (-pi, pi] for each unit, and for
    each row of ``port_fields`` over the units the |alpha_f| = abs(field),
    None where it or |unit| is at most ZERO_AMPLITUDE_TOL (``readout_phases``'
    rule) and the phase is undefined.  Each unit's modulus and phase are
    formed once for every row; ``chi_tilde_exact`` passes one unit and one row.
    """
    moduli = [abs(unit) for unit in units]
    phases = [wrap_angle(cmath.phase(unit)) for unit in units]
    # At the float dark point rounding leaves |unit| near 1e-16, which a large
    # N would lift above the threshold; the phase of that residue is noise.
    return phases, [[None if min(mag := abs(field), modulus) <= ZERO_AMPLITUDE_TOL
                     else mag for field, modulus in zip(fields, moduli)]
                    for fields in field_rows]


def readout_phases(readouts: list[float], alpha_f_mags: list[float | None],
                   k_max: float, n_sat: float) -> list[tuple[float, bool] | None]:
    """Amplified phases asin(x N_sat / (k_max |alpha_f|)) of quadrature readouts.

    A readout x through the small-signal gain k_max / N_sat is read as
    (k_max / N_sat) |alpha_f| sin(chi_tilde).  The ratio is clipped into
    [-1, 1] with a flag, so a noisy excursion is kept, not discarded; a NaN
    ratio stays NaN and unflagged.  None where |alpha_f| is at most
    ZERO_AMPLITUDE_TOL, ``exact_phase``'s zero rule, or None.
    """
    return [None if mag is None or mag <= ZERO_AMPLITUDE_TOL
            else (math.asin(min(max(ratio := x * n_sat / (k_max * mag), -1.0), 1.0)),
                  abs(ratio) > 1.0)
            for x, mag in zip(readouts, alpha_f_mags)]


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

    The postselected amplitude it rides on is |c1 + c2| * |alpha|.  Raises
    ValueError where Re(a_w) * chi overflows.
    """
    chi = params.chi
    wv = weak_value(params.theta2, params.gamma)
    warn = abs(wv.a_w.imag * chi) > IMAG_WARNING_RATIO * abs(wv.a_w.real * chi)
    chi_tilde = aav_phase([wv.a_w.real], chi)[0]
    if chi_tilde is None:
        raise ValueError(f"Re(a_w) * chi overflows at theta2={params.theta2}, chi={chi}")
    return AmplifiedPhase(
        chi_tilde=chi_tilde,
        alpha_f_mag=abs(wv.overlap) * abs(params.alpha),
        imag_warning=warn,
    )


def chi_tilde_exact(params: MziParams) -> AmplifiedPhase:
    """Exact amplified phase, valid at any coupling strength.

    chi_tilde = arg(alpha_f) - arg(alpha) wrapped to (-pi, pi] is the phase
    of the unit port amplitude, and |alpha_f| the modulus of the port field
    of ``port_fields``, as ``propagate_mzi`` forms it.  Raises ZeroAmplitude
    at an exact dark point, where the phase is undefined.
    """
    theta2, chi, gamma = params.theta2, params.chi, params.gamma
    units = port_amplitudes([theta2], [chi], gamma)[0]
    phases, mags = exact_phase(units, port_fields(units, [params.alpha]))
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
    (theta2 < pi/4) at most one survives; past it both can.  A root that
    rounding puts just past +-pi/2 is returned on the edge (EDGE_ROUNDING).
    Returns the sorted distinct roots, at most two, or () when there is none.
    """
    s = math.tan(theta2) * math.sin(gamma - chi_tilde_measured)
    if abs(s) > 1.0 + MERGE_ROUNDING / abs(math.cos(theta2)):
        return ()
    offset = math.asin(min(max(s, -1.0), 1.0))
    lead = math.sin(theta2) * math.cos(gamma - chi_tilde_measured)
    edge = math.pi / 2
    merged = math.sqrt(EDGE_ROUNDING / abs(math.cos(theta2)))
    roots = set()
    for d in (offset, math.pi - offset):
        arm = math.cos(theta2) * math.cos(d)
        root = wrap_angle(chi_tilde_measured + d)
        past = abs(root) - edge
        if (arm > lead and past <= merged
                and past * abs(arm) <= EDGE_ROUNDING * (abs(arm) + arm - lead)):
            roots.add(min(max(root, -edge), edge))
    return tuple(sorted(roots))


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
