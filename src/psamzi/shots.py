"""Seeded Monte-Carlo model of repeated quadrature measurements.

Each single-shot homodyne outcome on a coherent state is exactly Gaussian with
standard deviation 1/2 around the quadrature mean, so Gaussian sampling is the
exact single-shot distribution, not an approximation.  Averaging M shots
leaves the mean unchanged and shrinks the fluctuation by 1/sqrt(M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .amplification import ZERO_AMPLITUDE_TOL, chi_tilde_exact, invert_chi
from .errors import ZeroAmplitude
from .homodyne import QUADRATURE_STD, QuadratureStats, phase_slope, quadrature_mean
from .optics import MziParams


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ShotRun:
    """One batch of repeated quadrature measurements.

    Identical (seed, m, alpha_f, xi) inputs reproduce identical samples
    bit-for-bit.  ``pulse_duration`` is inert metadata; the total integration
    time is m * pulse_duration.
    """

    m: int
    seed: int
    samples: np.ndarray
    pulse_duration: float = 1.0

    @property
    def sample_mean(self) -> float:
        return float(self.samples.mean())

    @property
    def sample_std(self) -> float:
        return float(self.samples.std(ddof=1)) if self.m > 1 else 0.0

    @property
    def total_time(self) -> float:
        return self.m * self.pulse_duration


@dataclass
class ChiEstimate:
    """Phase estimate extracted from a shot run.

    ``clamped`` is set when the normalized sample mean fell outside [-1, 1]
    (possible at small M) and was clipped before the arcsin.
    """

    chi_tilde_hat: float
    chi_hat: float
    clamped: bool = False


def sample_shots(
    alpha_f: complex,
    xi: float,
    m: int,
    seed: int,
    pulse_duration: float = 1.0,
) -> ShotRun:
    """Draw ``m`` independent quadrature outcomes for the given port amplitude.

    The whole batch is drawn in one vectorized pass from a generator seeded by
    ``seed``, so the result does not depend on scheduling or thread count.
    """
    if not _is_int(m) or m < 1:
        raise ValueError(f"shot count must be an integer >= 1, got {m!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    import numpy as np

    rng = np.random.default_rng(seed)
    mean = quadrature_mean(alpha_f, xi)
    samples = mean + QUADRATURE_STD * rng.standard_normal(m)
    return ShotRun(m=m, seed=seed, samples=samples, pulse_duration=pulse_duration)


def averaged_stats(m: int, base: QuadratureStats) -> QuadratureStats:
    """Central-limit statistics of the M-shot average.

    The mean is unchanged; fluctuation shrinks by 1/sqrt(M), so SNR and
    sensitivity grow by sqrt(M).
    """
    if m < 1:
        raise ValueError(f"shot count must be >= 1, got {m}")
    root_m = math.sqrt(m)
    return QuadratureStats(
        mean=base.mean,
        std_dev=base.std_dev / root_m,
        snr=base.snr * root_m,
        sensitivity=base.sensitivity * root_m,
    )


def estimate_chi_from_run(
    run: ShotRun, alpha_f_mag: float, theta2: float, gamma: float = 0.0
) -> ChiEstimate:
    """Invert a shot run into amplified-phase and bare-phase estimates.

    chi_tilde_hat = arcsin(sample_mean / alpha_f_mag), clipped to [-1, 1] with
    a flag rather than discarding noisy runs, then mapped back through the
    exact forward relation.
    """
    if alpha_f_mag <= ZERO_AMPLITUDE_TOL:
        raise ZeroAmplitude("cannot normalize samples by a vanishing amplitude")
    ratio = run.sample_mean / alpha_f_mag
    clamped = abs(ratio) > 1.0
    chi_tilde_hat = math.asin(min(1.0, max(-1.0, ratio)))
    return ChiEstimate(
        chi_tilde_hat=chi_tilde_hat,
        chi_hat=invert_chi(chi_tilde_hat, theta2, gamma),
        clamped=clamped,
    )


@dataclass
class UncertaintyPoint:
    """Amplified phase with its +/- one-sigma band after M-shot averaging."""

    m: int
    chi_tilde: float
    lower: float
    upper: float


def uncertainty_vs_m(params: MziParams, m_grid: list[int]) -> list[UncertaintyPoint]:
    """Shrinking one-sigma band of the amplified phase versus shot count.

    The single-shot uncertainty is (1/2) / |d mean / d chi_tilde| evaluated at
    the operating point, scaled by 1/sqrt(M) for each grid entry.
    """
    if not m_grid:
        raise ValueError("m_grid must be nonempty")
    if not all(_is_int(m) and m >= 1 for m in m_grid):
        raise ValueError(f"every entry of m_grid must be an integer >= 1, got {m_grid!r}")
    amp = chi_tilde_exact(params)
    slope = phase_slope(amp)
    single_shot = QUADRATURE_STD / slope if slope > 0 else math.inf
    points = []
    for m in m_grid:
        band = single_shot / math.sqrt(m)
        points.append(
            UncertaintyPoint(
                m=m,
                chi_tilde=amp.chi_tilde,
                lower=amp.chi_tilde - band,
                upper=amp.chi_tilde + band,
            )
        )
    return points
