"""Seeded Monte-Carlo model of repeated quadrature measurements.

Each single-shot homodyne outcome on a coherent state is exactly Gaussian with
standard deviation 1/2 around the quadrature mean, so Gaussian sampling is the
exact single-shot distribution, not an approximation.  Averaging M shots
leaves the mean unchanged and shrinks the fluctuation by 1/sqrt(M).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .amplification import chi_tilde_exact, invert_chi, readout_phases
from .errors import ZeroAmplitude
from .homodyne import QUADRATURE_STD, QuadratureStats, phase_slope, quadrature_mean
from .optics import MziParams

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import numpy as np

__all__ = ["ChiEstimate", "UncertaintyPoint", "averaged_stats", "estimate_chi_from_run",
           "sample_shots", "uncertainty_vs_m"]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_shot_count(m: object) -> None:
    """The one shot-count rule: an int, not a bool, of at least 1."""
    if not _is_int(m) or m < 1:
        raise ValueError(f"shot count must be an integer >= 1, got {m!r}")


class ChiEstimate(namedtuple("ChiEstimate", "chi_tilde_hat chi_hat clamped",
                             defaults=(False,))):
    """Phase estimate extracted from a batch of quadrature samples.

    ``clamped`` is set when the normalized sample mean fell outside [-1, 1]
    (possible at small M) and was clipped before the arcsin.
    """

    __slots__ = ()


def sample_shots(alpha_f: complex, xi: float, m: int, seed: int) -> np.ndarray:
    """Draw ``m`` independent quadrature outcomes for the given port amplitude.

    The whole batch is drawn in one vectorized pass from a generator seeded by
    ``seed``, so the same arguments give the same samples, bit for bit.
    """
    _check_shot_count(m)
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    import numpy as np

    return draw_shots(np.random.default_rng(seed), quadrature_mean(alpha_f, xi), m)


def draw_shots(rng: np.random.Generator, mean: float,
               m: int | tuple[int, int]) -> np.ndarray:
    """The next ``m`` single-shot outcomes from ``rng``: mean plus shot noise.

    A shape ``(k, m)`` holds ``k`` batches of ``m`` drawn in turn, the same
    outcomes as ``k`` calls with ``m``.
    """
    # In place: the bits of mean + QUADRATURE_STD * normals, in one array.
    shots = rng.standard_normal(m)
    shots *= QUADRATURE_STD
    shots += mean
    return shots


def averaged_stats(m: int, base: QuadratureStats) -> QuadratureStats:
    """Central-limit statistics of the M-shot average.

    The mean is unchanged; fluctuation shrinks by 1/sqrt(M), so SNR and
    sensitivity grow by sqrt(M).
    """
    _check_shot_count(m)
    root_m = math.sqrt(m)
    return QuadratureStats(
        mean=base.mean,
        std_dev=base.std_dev / root_m,
        snr=base.snr * root_m,
        sensitivity=base.sensitivity * root_m,
    )


def estimate_chi_from_run(
    samples: np.ndarray, alpha_f_mag: float, theta2: float, gamma: float = 0.0
) -> ChiEstimate:
    """Invert a batch of quadrature samples into amplified and bare phase estimates.

    chi_tilde_hat = arcsin(mean(samples) / alpha_f_mag), clipped to [-1, 1] with
    a flag rather than discarding noisy runs, then mapped back through the
    exact forward relation.  Raises ValueError for an empty batch or a
    non-finite sample mean.
    """
    if samples.size == 0:
        raise ValueError("samples must hold at least one shot")
    mean = float(samples.mean())
    if not math.isfinite(mean):
        raise ValueError(f"the sample mean must be finite, got {mean}")
    inversion = readout_phases([mean], [alpha_f_mag], 1.0, 1.0)[0]
    if inversion is None:
        raise ZeroAmplitude("cannot normalize samples by a vanishing amplitude")
    chi_tilde_hat, clamped = inversion
    return ChiEstimate(
        chi_tilde_hat=chi_tilde_hat,
        chi_hat=invert_chi(chi_tilde_hat, theta2, gamma),
        clamped=clamped,
    )


class UncertaintyPoint(namedtuple("UncertaintyPoint", "m chi_tilde lower upper")):
    """Amplified phase with its +/- one-sigma band after M-shot averaging."""

    __slots__ = ()


def uncertainty_vs_m(params: MziParams, m_grid: list[int]) -> list[UncertaintyPoint]:
    """Shrinking one-sigma band of the amplified phase versus shot count.

    The single-shot uncertainty is (1/2) / |d mean / d chi_tilde| evaluated at
    the operating point, scaled by 1/sqrt(M) for each grid entry.
    """
    if not m_grid:
        raise ValueError("m_grid must be nonempty")
    for m in m_grid:
        _check_shot_count(m)
    amp = chi_tilde_exact(params)
    single_shot = QUADRATURE_STD / phase_slope(amp)
    bands = [single_shot / math.sqrt(m) for m in m_grid]
    return [
        UncertaintyPoint(m=m, chi_tilde=amp.chi_tilde, lower=amp.chi_tilde - band,
                         upper=amp.chi_tilde + band)
        for m, band in zip(m_grid, bands)
    ]
