"""Postselected-amplification Mach-Zehnder interferometry toolkit.

Simulates phase-shift measurement of optical coherent states: exact port
amplitudes, weak-value amplified phases, homodyne quadrature statistics,
seeded shot averaging, and photodetector-saturation error analysis.

Each library module lists its public names in its own ``__all__``; this
package exports their union.
"""

from . import amplification, errors, homodyne, optics, saturation, shots
from .amplification import *
from .errors import *
from .homodyne import *
from .optics import *
from .saturation import *
from .shots import *

__version__ = "0.1.0"

__all__ = sorted(amplification.__all__ + errors.__all__ + homodyne.__all__
                 + optics.__all__ + saturation.__all__ + shots.__all__)
