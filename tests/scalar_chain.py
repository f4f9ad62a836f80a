"""fig2's and fig4's cells, one point at a time, in plain scalar code.

Each function writes out the float operations of one scan point with the
operands and the order that the library uses, so its results equal the scan
cells bit for bit.  It shares no code with the library: a reordered float
operation inside the library's grid kernels makes the cells differ from these.
None stands for an NA cell.
"""

import cmath
import math

DARK_OVERLAP_TOL = 1e-15
ZERO_AMPLITUDE_TOL = 1e-15


def wrap(phi):
    """phi wrapped to (-pi, pi]."""
    wrapped = math.remainder(phi, math.tau)
    return math.pi if wrapped <= -math.pi else wrapped


def weak_value_real(theta2, gamma):
    """Re(c1 / (c1 + c2)), or None where the overlap c1 + c2 vanishes."""
    c1 = complex(math.cos(theta2) / math.sqrt(2.0))
    c2 = -cmath.exp(1j * gamma) * math.sin(theta2) / math.sqrt(2.0)
    overlap = c1 + c2
    if abs(overlap) < DARK_OVERLAP_TOL:
        return None
    return (c1 / overlap).real


def unit_port(theta2, chi, gamma):
    """e^{i chi} cos(theta2) - e^{i gamma} sin(theta2)."""
    arm1, arm2 = cmath.exp(1j * chi), cmath.exp(1j * gamma)
    return arm1 * math.cos(theta2) - arm2 * math.sin(theta2)


def exact_phase(unit, alpha):
    """(wrapped arg(unit), |alpha / sqrt(2) * unit|), or None where it vanishes."""
    mag = abs(alpha / math.sqrt(2.0) * unit)
    if min(mag, abs(unit)) <= ZERO_AMPLITUDE_TOL:
        return None
    return wrap(cmath.phase(unit)), mag


def fig2_cells(theta2, chi, gamma, alpha):
    """[chi_tilde_aav, chi_tilde_exact, weak_value, port_intensity]."""
    a_w = weak_value_real(theta2, gamma)
    exact = exact_phase(unit_port(theta2, chi, gamma), alpha)
    if a_w is None or exact is None:
        return [None] * 4
    chi_tilde, mag = exact
    return [wrap(a_w * chi), chi_tilde, a_w, mag**2]


def fig4_cells(theta2, chi, gamma, alpha, beta_mag, xi, k_max, n_sat):
    """[n1, n2, eta_e] of the saturated readout with linear inversion."""
    if weak_value_real(theta2, gamma) is None:
        return [None] * 3
    unit = unit_port(theta2, chi, gamma)
    exact = exact_phase(unit, alpha)
    if exact is None or exact[0] == 0.0:
        return [None] * 3
    chi_tilde, mag = exact
    alpha_f = alpha / math.sqrt(2.0) * unit
    lo = cmath.rect(beta_mag, xi)
    n1 = abs(alpha_f + lo) ** 2 / 2
    n2 = abs(alpha_f - lo) ** 2 / 2
    x_bar = (alpha_f * cmath.exp(-1j * xi)).real
    # exp(-n2/N_sat) - exp(-n1/N_sat), through |n1 - n2| = 2 |beta| |x_bar|.
    x_saturated = math.copysign(
        (k_max / (2.0 * beta_mag)) * math.exp(-min(n1, n2) / n_sat)
        * -math.expm1(-2.0 * beta_mag * abs(x_bar) / n_sat),
        x_bar,
    )
    arg = x_saturated * n_sat / (k_max * mag)
    chi_biased = math.asin(min(1.0, max(-1.0, arg)))
    return [n1, n2, abs(chi_biased - chi_tilde) / abs(chi_tilde)]
