"""Seeded shot sampling, averaging law, and estimator tests."""

import math

import numpy as np
import pytest

from psamzi import (
    MziParams,
    QuadratureStats,
    ShotRun,
    ZeroAmplitude,
    averaged_stats,
    chi_tilde_exact,
    estimate_chi_from_run,
    propagate_mzi,
    quadrature_stats_exact,
    sample_shots,
    uncertainty_vs_m,
)

NEAR_DARK = math.pi / 4 - 0.003

# Frozen single-shot uncertainty (1/2) / (|alpha_f| |cos chi_tilde|) at
# N=100, theta2=pi/4-0.003, chi=1e-2.
SINGLE_SHOT_BAND_REFERENCE = 16.807170005142
SENSITIVITY_REFERENCE = 0.061603421585
CHI_TILDE_REFERENCE = 1.035379179481


def reference_params(chi=1e-2):
    return MziParams(theta2=NEAR_DARK, chi=chi, alpha=10.0 + 0j)


def forward_slope(chi, theta2, step=1e-7):
    """Finite-difference d chi_tilde / d chi at the operating point."""
    up = chi_tilde_exact(MziParams(theta2=theta2, chi=chi + step, alpha=1.0 + 0j))
    down = chi_tilde_exact(MziParams(theta2=theta2, chi=chi - step, alpha=1.0 + 0j))
    return (up.chi_tilde - down.chi_tilde) / (2 * step)


class TestSampling:
    def test_bit_for_bit_reproducibility(self):
        alpha_f = 0.03 + 0.05j
        first = sample_shots(alpha_f, math.pi / 2, 5000, seed=987)
        second = sample_shots(alpha_f, math.pi / 2, 5000, seed=987)
        assert np.array_equal(first.samples, second.samples)
        assert first.sample_mean == second.sample_mean
        third = sample_shots(alpha_f, math.pi / 2, 5000, seed=988)
        assert not np.array_equal(first.samples, third.samples)

    def test_zero_field_mean(self):
        run = sample_shots(0.0 + 0.0j, 0.3, 1_000_000, seed=5)
        assert abs(run.sample_mean) <= 5 * 0.5 / math.sqrt(1_000_000)

    def test_single_shot(self):
        run = sample_shots(1.0 + 0j, 0.0, 1, seed=6)
        assert run.sample_mean == run.samples[0]
        assert run.sample_std == 0.0

    def test_mean_tracks_exact_statistics(self):
        params = reference_params()
        fields = propagate_mzi(params)
        run = sample_shots(fields.alpha_f, math.pi / 2, 10_000, seed=2024)
        expected = quadrature_stats_exact(params).mean
        assert abs(run.sample_mean - expected) <= 5 * 0.5 / math.sqrt(10_000)

    def test_metadata(self):
        run = sample_shots(1.0 + 0j, 0.0, 10, seed=1, pulse_duration=2.5)
        assert run.total_time == 25.0
        assert run.m == 10 and run.seed == 1

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_shots(1.0 + 0j, 0.0, 0, seed=1)

    @pytest.mark.parametrize("m", [-3, 2.0, True, None])
    def test_rejects_non_integer_count(self, m):
        with pytest.raises(ValueError, match="shot count must be an integer >= 1"):
            sample_shots(1.0 + 0j, 0.0, m, seed=1)

    @pytest.mark.parametrize("seed", [-1, None, 1.0, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            sample_shots(1.0 + 0j, 0.0, 10, seed=seed)


class TestAveraging:
    def test_identity_at_one(self):
        base = QuadratureStats(mean=0.2, std_dev=0.5, snr=0.4, sensitivity=0.06)
        assert averaged_stats(1, base) == base

    def test_four_shots_halve_the_noise(self):
        base = QuadratureStats(mean=0.2, std_dev=0.5, snr=0.4, sensitivity=0.06)
        stats = averaged_stats(4, base)
        assert stats.mean == base.mean
        assert math.isclose(stats.std_dev, 0.25, rel_tol=1e-15)
        assert math.isclose(stats.snr, 0.8, rel_tol=1e-15)

    def test_reference_scaling(self):
        base = quadrature_stats_exact(reference_params())
        scaled = averaged_stats(10_000, base)
        assert abs(scaled.sensitivity - 100 * SENSITIVITY_REFERENCE) < 1e-7
        assert abs(scaled.sensitivity - 6.15) < 0.02

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            averaged_stats(0, QuadratureStats(0.0, 0.5, 0.0, 0.0))


class TestEstimator:
    def test_noiseless_round_trip(self):
        params = reference_params()
        amp = chi_tilde_exact(params)
        exact_mean = quadrature_stats_exact(params).mean
        run = ShotRun(m=1, seed=0, samples=np.array([exact_mean]))
        estimate = estimate_chi_from_run(run, amp.alpha_f_mag, NEAR_DARK)
        assert not estimate.clamped
        assert abs(estimate.chi_hat - 1e-2) < 1e-10

    def test_clamps_noisy_excursion(self):
        run = ShotRun(m=1, seed=0, samples=np.array([1.02]))
        estimate = estimate_chi_from_run(run, 1.0, NEAR_DARK)
        assert estimate.clamped
        assert math.isclose(estimate.chi_tilde_hat, math.pi / 2, rel_tol=1e-12)

    def test_rejects_zero_amplitude(self):
        run = sample_shots(0.0 + 0j, 0.0, 10, seed=3)
        with pytest.raises(ZeroAmplitude):
            estimate_chi_from_run(run, 0.0, NEAR_DARK)

    def test_spread_matches_error_propagation(self):
        # Statistical check in the regime where the propagation formula is
        # valid (no arcsin clamping across the spread): chi = 1e-3, m = 1e4.
        chi = 1e-3
        m = 10_000
        params = reference_params(chi)
        amp = chi_tilde_exact(params)
        fields = propagate_mzi(params)
        seeds = np.random.SeedSequence(424242).generate_state(200)
        hats = []
        for seed in seeds:
            run = sample_shots(fields.alpha_f, math.pi / 2, m, int(seed))
            estimate = estimate_chi_from_run(run, amp.alpha_f_mag, NEAR_DARK)
            assert not estimate.clamped
            hats.append(estimate.chi_hat)
        hats = np.array(hats)
        band = 0.5 / (amp.alpha_f_mag * abs(math.cos(amp.chi_tilde)))
        predicted = band / math.sqrt(m) / forward_slope(chi, NEAR_DARK)
        assert abs(hats.std(ddof=1) - predicted) / predicted < 0.2
        # effectively unbiased: systematic offset below the per-run spread
        assert abs(hats.mean() - chi) < hats.std(ddof=1)

    def test_rms_error_halves_when_shots_quadruple(self):
        chi = 1e-3
        params = reference_params(chi)
        amp = chi_tilde_exact(params)
        fields = propagate_mzi(params)
        rms = {}
        for m in (10_000, 40_000):
            seeds = np.random.SeedSequence(777).generate_state(200)
            errors = [
                estimate_chi_from_run(
                    sample_shots(fields.alpha_f, math.pi / 2, m, int(seed)),
                    amp.alpha_f_mag,
                    NEAR_DARK,
                ).chi_hat
                - chi
                for seed in seeds
            ]
            rms[m] = math.sqrt(np.mean(np.square(errors)))
        assert abs(rms[40_000] / rms[10_000] - 0.5) < 0.1


class TestCentralLimit:
    def test_variance_band(self):
        params = reference_params()
        fields = propagate_mzi(params)
        m = 1000
        seeds = np.random.SeedSequence(20240814 + m).generate_state(500)
        means = np.array(
            [
                sample_shots(fields.alpha_f, math.pi / 2, m, int(seed)).sample_mean
                for seed in seeds
            ]
        )
        assert 0.8 * 0.25 / m <= means.var(ddof=1) <= 1.2 * 0.25 / m

    def test_unbiased_mean(self):
        params = reference_params()
        fields = propagate_mzi(params)
        expected = quadrature_stats_exact(params).mean
        m = 400
        seeds = np.random.SeedSequence(99).generate_state(500)
        means = np.array(
            [
                sample_shots(fields.alpha_f, math.pi / 2, m, int(seed)).sample_mean
                for seed in seeds
            ]
        )
        standard_error = 0.5 / math.sqrt(m * len(seeds))
        assert abs(means.mean() - expected) <= 5 * standard_error


class TestUncertaintyVsM:
    def test_band_scaling(self):
        points = uncertainty_vs_m(reference_params(), [1, 100])
        width = {p.m: p.upper - p.lower for p in points}
        assert math.isclose(width[100] / width[1], 0.1, rel_tol=1e-12)
        assert math.isclose(
            width[1], 2 * SINGLE_SHOT_BAND_REFERENCE, rel_tol=1e-9
        )

    def test_constant_center(self):
        points = uncertainty_vs_m(reference_params(), [1, 10, 100, 1000])
        for point in points:
            assert abs(point.chi_tilde - CHI_TILDE_REFERENCE) < 1e-9

    def test_monotone_shrinkage(self):
        points = uncertainty_vs_m(reference_params(), [1, 3, 17, 240, 9000])
        widths = [p.upper - p.lower for p in points]
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            uncertainty_vs_m(reference_params(), [])
        with pytest.raises(ValueError):
            uncertainty_vs_m(reference_params(), [1, 0])

    @pytest.mark.parametrize("m_grid", [[1, 2.5], [True], [1, 2.0]])
    def test_rejects_non_integer_counts(self, m_grid):
        # A float m used to give a row labelled int(m) with a sqrt(m) band.
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            uncertainty_vs_m(reference_params(), m_grid)
