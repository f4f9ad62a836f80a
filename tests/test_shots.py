"""Seeded shot sampling, averaging law, and estimator tests."""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from psamzi import (
    MziParams,
    QuadratureStats,
    ZeroAmplitude,
    averaged_stats,
    chi_tilde_exact,
    estimate_chi_from_run,
    propagate_mzi,
    quadrature_mean,
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
        assert np.array_equal(first, second)
        assert first.mean() == second.mean()
        third = sample_shots(alpha_f, math.pi / 2, 5000, seed=988)
        assert not np.array_equal(first, third)

    def test_zero_field_mean(self):
        samples = sample_shots(0.0 + 0.0j, 0.3, 1_000_000, seed=5)
        assert abs(samples.mean()) <= 5 * 0.5 / math.sqrt(1_000_000)

    def test_single_shot(self):
        samples = sample_shots(1.0 + 0j, 0.0, 1, seed=6)
        assert samples.mean() == samples[0]

    def test_mean_tracks_exact_statistics(self):
        params = reference_params()
        fields = propagate_mzi(params)
        samples = sample_shots(fields.alpha_f, math.pi / 2, 10_000, seed=2024)
        expected = quadrature_stats_exact(params).mean
        assert abs(samples.mean() - expected) <= 5 * 0.5 / math.sqrt(10_000)

    def test_samples_are_mean_plus_half_standard_normal(self):
        # The shot-noise model, bit for bit: the quadrature mean plus 1/2 times
        # the first m standard normals of default_rng(seed).
        alpha_f = 0.4 - 0.7j
        for xi, m, seed in ((math.pi / 2, 1, 0), (0.3, 257, 11), (-2.0, 10_000, 2**40)):
            normals = np.random.default_rng(seed).standard_normal(m)
            expected = quadrature_mean(alpha_f, xi) + 0.5 * normals
            assert np.array_equal(sample_shots(alpha_f, xi, m, seed), expected)

    def test_metadata(self):
        samples = sample_shots(1.0 + 0j, 0.0, 10, seed=1)
        assert samples.shape == (10,)

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

    @pytest.mark.parametrize("m", [math.nan, True, 4.0])
    def test_rejects_non_integer_count(self, m):
        # A NaN count used to give NaN statistics; the rule is sample_shots'.
        with pytest.raises(ValueError, match="shot count must be an integer >= 1"):
            averaged_stats(m, QuadratureStats(0.2, 0.5, 0.4, 0.06))


class TestEstimator:
    def test_noiseless_round_trip(self):
        params = reference_params()
        amp = chi_tilde_exact(params)
        samples = np.array([quadrature_stats_exact(params).mean])
        estimate = estimate_chi_from_run(samples, amp.alpha_f_mag, NEAR_DARK)
        assert not estimate.clamped
        assert abs(estimate.chi_hat - 1e-2) < 1e-10

    def test_clamps_noisy_excursion(self):
        estimate = estimate_chi_from_run(np.array([1.02]), 1.0, NEAR_DARK)
        assert estimate.clamped
        assert math.isclose(estimate.chi_tilde_hat, math.pi / 2, rel_tol=1e-12)

    @pytest.mark.parametrize("edge", [1.0, -1.0])
    def test_unit_ratio_is_not_clamped(self, edge):
        # A ratio of exactly +-1 lies in asin's domain; just past it is clamped.
        estimate = estimate_chi_from_run(np.array([edge]), 1.0, NEAR_DARK)
        assert not estimate.clamped
        assert estimate.chi_tilde_hat == math.copysign(math.pi / 2, edge)
        past = estimate_chi_from_run(np.array([math.nextafter(edge, 2 * edge)]), 1.0,
                                     NEAR_DARK)
        assert past.clamped
        assert past.chi_tilde_hat == estimate.chi_tilde_hat

    def test_rejects_zero_amplitude(self):
        samples = sample_shots(0.0 + 0j, 0.0, 10, seed=3)
        with pytest.raises(ZeroAmplitude):
            estimate_chi_from_run(samples, 0.0, NEAR_DARK)

    @pytest.mark.parametrize("samples, message", [
        ([], "samples must hold at least one shot"),
        ([0.1, math.nan], "the sample mean must be finite, got nan"),
        ([math.inf, 0.1], "the sample mean must be finite, got inf"),
    ])
    def test_rejects_empty_or_non_finite_batch(self, samples, message):
        # An empty batch's mean warned and read as -pi/2; a NaN one reached
        # invert_chi as NaN.
        with pytest.raises(ValueError, match=message):
            estimate_chi_from_run(np.array(samples), 1.0, NEAR_DARK)

    def test_readme_library_example(self):
        # The README's "Library use" block runs as written and prints the
        # value its comment states.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
        commented = re.search(r"print\(estimate\.chi_hat\)\s+# (\S+),", block).group(1)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(block, {})
        assert printed.getvalue() == commented + "\n"
        assert commented == "0.00684876128690215"

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
            samples = sample_shots(fields.alpha_f, math.pi / 2, m, int(seed))
            estimate = estimate_chi_from_run(samples, amp.alpha_f_mag, NEAR_DARK)
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
                sample_shots(fields.alpha_f, math.pi / 2, m, int(seed)).mean()
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
                sample_shots(fields.alpha_f, math.pi / 2, m, int(seed)).mean()
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

    def test_finite_band_at_smallest_slope(self):
        # chi_tilde is fl(pi/2), where |cos| is smallest, and |alpha_f| is
        # just above the zero tolerance: the slope is still a normal float.
        params = MziParams(theta2=0.0, chi=math.pi / 2, alpha=math.sqrt(8e-30) + 0j)
        amp = chi_tilde_exact(params)
        assert amp.chi_tilde == math.pi / 2
        assert math.isclose(amp.alpha_f_mag, 2e-15, rel_tol=1e-12)
        point = uncertainty_vs_m(params, [1])[0]
        # The band is about 4.08e30 wide on each side, so it swamps chi_tilde.
        assert math.isclose(point.upper, 4.08e30, rel_tol=1e-3)
        assert point.lower == -point.upper

    @pytest.mark.parametrize("m_grid", [[1, 2.5], [True], [1, 2.0]])
    def test_rejects_non_integer_counts(self, m_grid):
        # A float m used to give a row labelled int(m) with a sqrt(m) band.
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            uncertainty_vs_m(reference_params(), m_grid)
