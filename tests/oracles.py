"""Independent reference computations shared by the test modules."""

import cmath
import math

import numpy as np


def matrix_oracle(theta2, gamma, chi, alpha):
    """(alpha_f, alpha_fbar) from sequential 2x2 matrix products, 50:50 splitter first."""

    def splitter(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -1j * s], [-1j * s, c]])

    v = splitter(math.pi / 4) @ np.array([alpha, 0.0], dtype=complex)
    v = np.array([v[0] * cmath.exp(1j * chi), v[1] * cmath.exp(1j * gamma)])
    v = splitter(theta2) @ v
    return complex(v[0]), complex(v[1])
