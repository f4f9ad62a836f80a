"""Exact complex-amplitude propagation of a coherent state through the interferometer.

A coherent state stays coherent under beam splitters and phase shifters, so
the full propagation reduces to 2x2 complex linear algebra on the pair of arm
amplitudes.  All functions here are pure and safe to call from any thread.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import numpy as np

__all__ = ["MziParams", "PortFields", "bs_matrix", "bs_transform", "coherent_amplitude",
           "intensity_difference", "phase_shift", "propagate_mzi", "wrap_angle"]


def wrap_angle(phi: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    wrapped = math.remainder(phi, math.tau)
    if wrapped <= -math.pi:
        return math.pi
    return wrapped


def coherent_amplitude(n_photons: float, phase: float = 0.0) -> complex:
    """Complex amplitude of a coherent state with the given mean photon number."""
    if n_photons < 0:
        raise ValueError(f"mean photon number must be >= 0, got {n_photons}")
    return cmath.rect(math.sqrt(n_photons), phase)


def theta2_in_range(theta2: float) -> bool:
    """The second splitter's range rule, 0 <= theta2 <= pi/2."""
    return 0.0 <= theta2 <= math.pi / 2


class MziParams(namedtuple("MziParams", "theta2 chi alpha gamma")):
    """All knobs of a single pass through the interferometer.

    The first splitter is 50:50.  Angles are radians: ``theta2`` is the second
    splitter's mixing angle, ``chi`` the signal phase picked up in arm 1 and
    ``gamma`` the modulation phase in arm 2.  ``alpha`` is the input coherent
    amplitude; its squared magnitude is the mean photon number.
    """

    __slots__ = ()

    def __new__(cls, theta2: float, chi: float, alpha: complex, *, gamma: float = 0.0):
        if not theta2_in_range(theta2):
            raise ValueError(f"theta2 must lie in [0, pi/2], got {theta2}")
        if not all(map(cmath.isfinite, (chi, gamma, alpha))):
            raise ValueError(f"chi, gamma and alpha must be finite, got chi={chi}, "
                             f"gamma={gamma}, alpha={alpha}")
        return super().__new__(cls, theta2, chi, alpha, gamma)

    def _replace(self, **changes) -> MziParams:
        return type(self)(**{**self._asdict(), **changes})

    def __getnewargs_ex__(self):  # gamma is keyword-only: copy and pickle name each field
        return (), self._asdict()

    @property
    def n_photons(self) -> float:
        return abs(self.alpha) ** 2

    @property
    def input_phase(self) -> float:
        return cmath.phase(self.alpha)


class PortFields(namedtuple("PortFields", "alpha_f alpha_fbar")):
    """Output amplitudes of the two exit ports (port 3 is the postselected one)."""

    __slots__ = ()

    @property
    def intensity_f(self) -> float:
        return abs(self.alpha_f) ** 2

    @property
    def intensity_fbar(self) -> float:
        return abs(self.alpha_fbar) ** 2


def bs_matrix(theta: float) -> np.ndarray:
    """2x2 scattering matrix of a beam splitter with mixing angle ``theta``."""
    import numpy as np

    c = math.cos(theta)
    s = math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def bs_transform(a_in: complex, b_in: complex, theta: float) -> tuple[complex, complex]:
    """Mix two incident amplitudes on a beam splitter.

    Returns (c, d) with c = a*cos(theta) - i*b*sin(theta) and
    d = -i*a*sin(theta) + b*cos(theta); total intensity is conserved.
    """
    c = math.cos(theta)
    s = math.sin(theta)
    return a_in * c - 1j * b_in * s, -1j * a_in * s + b_in * c


def phase_shift(a: complex, phi: float) -> complex:
    """Advance the amplitude phase by ``phi`` radians."""
    return a * cmath.exp(1j * phi)


def port_amplitudes(grid: list[float], chis: list[float],
                    gamma: float) -> list[list[complex]]:
    """Closed-form postselected-port amplitudes behind a balanced first splitter.

    One list per chi, over the theta2 grid, of the unit-scale amplitude
    e^{i chi} cos(theta2) - e^{i gamma} sin(theta2); ``port_fields`` scales
    it into the port field.  Each angle's terms are formed once for every
    chi.  ``propagate_mzi`` calls it with a one-angle, one-chi grid.
    """
    arm2 = cmath.exp(1j * gamma)
    terms = [(math.cos(theta2), arm2 * math.sin(theta2)) for theta2 in grid]
    return [[arm1 * c2 - arm2_s2 for c2, arm2_s2 in terms]
            for arm1 in [cmath.exp(1j * chi) for chi in chis]]


def port_fields(units: list[complex], alphas: list[complex]) -> list[list[complex]]:
    """The port fields alpha / sqrt(2) * unit, one row per alpha, over the units."""
    return [[scale * unit for unit in units]
            for scale in [alpha / math.sqrt(2.0) for alpha in alphas]]


def propagate_mzi(params: MziParams) -> PortFields:
    """Propagate the input state through both splitters and the arm phases.

    Both port fields come from ``port_fields``, with the unit amplitudes of
    the postselected port from ``port_amplitudes`` and of its complement
    -i (e^{i chi} sin(theta2) + e^{i gamma} cos(theta2)).
    """
    theta2, chi, gamma = params.theta2, params.chi, params.gamma
    unit_f = port_amplitudes([theta2], [chi], gamma)[0][0]
    unit_fbar = (cmath.exp(1j * chi) * math.sin(theta2)
                 + cmath.exp(1j * gamma) * math.cos(theta2))
    return PortFields(*port_fields([unit_f, -1j * unit_fbar], [params.alpha])[0])


def intensity_difference(params: MziParams) -> float:
    """Conventional readout: intensity in port 3 minus intensity in port 4.

    For balanced splitters this equals -N*cos(chi - gamma), the familiar
    interference fringe.
    """
    fields = propagate_mzi(params)
    return fields.intensity_f - fields.intensity_fbar
