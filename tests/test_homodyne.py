"""Quadrature statistics, sensitivity, and LO error-comparison tests."""

import cmath
import math

import numpy as np
import pytest

from psamzi import (
    DomainError,
    LoConfig,
    MziParams,
    QUADRATURE_STD,
    ZeroSignal,
    chi_tilde_exact,
    detector_counts,
    modulation_error_compare,
    propagate_mzi,
    quadrature_mean,
    quadrature_stats_aav,
    quadrature_stats_exact,
    rescaled_intensity,
    weak_value,
)

NEAR_DARK = math.pi / 4 - 0.003

# Frozen oracle values at N=100, theta2=pi/4-0.003, chi=1e-2, gamma=0.
SENSITIVITY_REFERENCE = 0.061603421585
QUADRATURE_MEAN_REFERENCE = 0.050148938950


def fd_sensitivity(prefactor, chi_tilde, step=1e-8):
    """Error-propagation oracle: chi_tilde / (delta_x / |d mean / d chi_tilde|)."""
    slope = (
        prefactor * math.sin(chi_tilde + step)
        - prefactor * math.sin(chi_tilde - step)
    ) / (2 * step)
    return chi_tilde * abs(slope) / QUADRATURE_STD


class TestQuadratureMean:
    def test_in_phase_lo(self):
        alpha_f = 3.0 * cmath.exp(0.7j)
        assert math.isclose(quadrature_mean(alpha_f, 0.7), 3.0, rel_tol=1e-14)

    def test_sine_form_at_optimal_lo(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            mag = rng.uniform(0.1, 5)
            lam = rng.uniform(-math.pi, math.pi)
            chi_tilde = rng.uniform(-1.5, 1.5)
            alpha_f = mag * cmath.exp(1j * (lam + chi_tilde))
            value = quadrature_mean(alpha_f, math.pi / 2 + lam)
            assert math.isclose(value, mag * math.sin(chi_tilde), rel_tol=1e-12, abs_tol=1e-14)

    def test_reference_chain(self):
        params = MziParams(theta2=NEAR_DARK, chi=1e-2, alpha=10.0 + 0j)
        fields = propagate_mzi(params)
        value = quadrature_mean(fields.alpha_f, math.pi / 2)
        assert abs(value - QUADRATURE_MEAN_REFERENCE) < 1e-10
        amp = chi_tilde_exact(params)
        assert math.isclose(
            value, amp.alpha_f_mag * math.sin(amp.chi_tilde), rel_tol=1e-12
        )

    def test_lo_half_turn_flips_sign(self):
        alpha_f = 1.3 - 0.8j
        for xi in (0.0, 0.4, 2.2):
            assert math.isclose(
                quadrature_mean(alpha_f, xi + math.pi),
                -quadrature_mean(alpha_f, xi),
                rel_tol=1e-12,
            )


class TestStatsAav:
    def test_zero_signal(self):
        stats = quadrature_stats_aav(
            MziParams(theta2=0.6, chi=0.0, alpha=10.0 + 0j)
        )
        assert stats.mean == 0.0
        assert stats.sensitivity == 0.0
        assert stats.std_dev == QUADRATURE_STD

    def test_rejects_phase_modulation_scheme(self):
        with pytest.raises(ValueError):
            quadrature_stats_aav(
                MziParams(theta2=0.6, chi=1e-3, alpha=1.0 + 0j, gamma=0.1)
            )

    def test_matches_error_propagation(self):
        params = MziParams(theta2=NEAR_DARK, chi=1e-4, alpha=10.0 + 0j)
        stats = quadrature_stats_aav(params)
        chi_tilde = weak_value(NEAR_DARK).a_w.real * 1e-4
        prefactor = math.sqrt(50.0) * (math.cos(NEAR_DARK) - math.sin(NEAR_DARK))
        oracle = fd_sensitivity(prefactor, chi_tilde)
        assert abs(stats.sensitivity - oracle) / oracle < 1e-6

    def test_doubling_photons_scales_root_two(self):
        lo_n = quadrature_stats_aav(
            MziParams(theta2=0.7, chi=1e-3, alpha=math.sqrt(50.0) + 0j)
        )
        hi_n = quadrature_stats_aav(
            MziParams(theta2=0.7, chi=1e-3, alpha=math.sqrt(100.0) + 0j)
        )
        assert math.isclose(
            hi_n.sensitivity / lo_n.sensitivity, math.sqrt(2.0), rel_tol=1e-12
        )


class TestStatsExact:
    def test_reference_sensitivity(self):
        stats = quadrature_stats_exact(
            MziParams(theta2=NEAR_DARK, chi=1e-2, alpha=10.0 + 0j)
        )
        assert abs(stats.sensitivity - SENSITIVITY_REFERENCE) < 1e-9
        assert stats.std_dev == QUADRATURE_STD
        assert math.isclose(stats.snr, stats.mean / QUADRATURE_STD, rel_tol=1e-14)

    def test_zero_signal(self):
        stats = quadrature_stats_exact(
            MziParams(theta2=0.6, chi=0.0, alpha=10.0 + 0j)
        )
        assert stats.mean == 0.0

    def test_matches_error_propagation(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            theta2 = rng.uniform(0.1, 0.7)
            chi = rng.uniform(1e-4, 0.05) * rng.choice([-1.0, 1.0])
            n = rng.uniform(1.0, 1000.0)
            params = MziParams(theta2=theta2, chi=chi, alpha=math.sqrt(n) + 0j)
            stats = quadrature_stats_exact(params)
            amp = chi_tilde_exact(params)
            oracle = fd_sensitivity(amp.alpha_f_mag, amp.chi_tilde)
            assert abs(abs(stats.sensitivity) - oracle) / oracle < 1e-6

    def test_doubling_photons_scales_root_two(self):
        base = MziParams(theta2=0.72, chi=2e-3, alpha=math.sqrt(200.0) + 0j)
        doubled = MziParams(theta2=0.72, chi=2e-3, alpha=math.sqrt(400.0) + 0j)
        ratio = (
            quadrature_stats_exact(doubled).sensitivity
            / quadrature_stats_exact(base).sensitivity
        )
        assert math.isclose(ratio, math.sqrt(2.0), rel_tol=1e-12)

    def test_aav_is_small_coupling_limit(self):
        for theta2 in np.linspace(0.6, 0.78, 50):
            params = MziParams(theta2=theta2, chi=1e-4, alpha=10.0 + 0j)
            mean_aav = quadrature_stats_aav(params).mean
            mean_exact = quadrature_stats_exact(params).mean
            assert abs(mean_aav - mean_exact) / abs(mean_exact) < 1e-3

    def test_aav_mean_keeps_sign_past_dark_point(self):
        # Past pi/4 the overlap cos(theta2) - sin(theta2) is negative; the
        # small-coupling mean carries that sign and so matches the exact one.
        for theta2 in np.linspace(math.pi / 4 + 0.005, 0.95, 50):
            params = MziParams(theta2=theta2, chi=1e-4, alpha=10.0 + 0j)
            mean_aav = quadrature_stats_aav(params).mean
            mean_exact = quadrature_stats_exact(params).mean
            assert abs(mean_aav - mean_exact) / abs(mean_exact) < 1e-3


class TestInformationBound:
    def test_fisher_information_of_port_quadrature(self):
        # A homodyne readout of a coherent state has Fisher information
        # 4 (d<x>/d chi)^2 about chi.  Postselection cannot beat the
        # unpostselected bound: 2 N cos^2(theta2) in the postselected port,
        # 2 N for both ports together (Jordan, Martinez-Rincon & Howell,
        # PRX 4, 011031, 2014).  The derivative is a central difference.
        rng = np.random.default_rng(2014)
        step = 1e-6
        worst = 0.0
        for _ in range(2000):
            theta2 = rng.uniform(0.0, math.pi / 2)
            chi = rng.uniform(-1.5, 1.5)
            gamma = rng.uniform(-math.pi, math.pi)
            n = rng.uniform(1.0, 1e4)
            xi, xi_bar = rng.uniform(-math.pi, math.pi, size=2)

            def slopes(chi_value):
                fields = propagate_mzi(MziParams(theta2=theta2, chi=chi_value,
                                                 alpha=math.sqrt(n) + 0j, gamma=gamma))
                return (quadrature_mean(fields.alpha_f, xi),
                        quadrature_mean(fields.alpha_fbar, xi_bar))

            (hi, hi_bar), (lo, lo_bar) = slopes(chi + step), slopes(chi - step)
            info = 4 * ((hi - lo) / (2 * step)) ** 2
            info_bar = 4 * ((hi_bar - lo_bar) / (2 * step)) ** 2
            bound = 2 * n * math.cos(theta2) ** 2
            assert info <= bound * (1 + 1e-6)
            assert info + info_bar <= 2 * n * (1 + 1e-6)
            worst = max(worst, info / bound)
        assert worst > 0.99  # the bound is reached at the optimal LO phase


class TestModulationError:
    def test_zero_offset(self):
        params = MziParams(theta2=NEAR_DARK, chi=1e-4, alpha=10.0 + 0j)
        conventional, postselected = modulation_error_compare(params, 0.0)
        assert conventional < 1e-9
        assert postselected < 1e-9

    def test_reference_offset(self):
        params = MziParams(theta2=NEAR_DARK, chi=1e-4, alpha=10.0 + 0j)
        conventional, postselected = modulation_error_compare(params, 1e-3)
        assert math.isclose(conventional, 10.0, rel_tol=1e-9)
        # frozen chain oracle value; first-order estimate delta / (a_w * chi)
        assert abs(postselected - 0.0598382953) < 1e-8
        a_w = weak_value(NEAR_DARK).a_w.real
        assert abs(postselected - 1e-3 / (a_w * 1e-4)) / postselected < 1e-2

    def test_amplification_always_helps(self):
        for theta2, chi, delta in (
            (0.7, 1e-3, 1e-3),
            (0.75, 5e-4, 2e-3),
            (NEAR_DARK, 1e-4, 5e-4),
        ):
            params = MziParams(theta2=theta2, chi=chi, alpha=10.0 + 0j)
            assert weak_value(theta2).a_w.real > 1
            conventional, postselected = modulation_error_compare(params, delta)
            assert postselected < conventional

    def test_domain_error(self):
        params = MziParams(theta2=NEAR_DARK, chi=1e-2, alpha=10.0 + 0j)
        # chi_tilde ~ 1.035 rad, so a 0.6 rad offset leaves (-pi/2, pi/2)
        with pytest.raises(DomainError):
            modulation_error_compare(params, 0.6)

    def test_domain_error_of_bare_phase(self):
        # chi + delta = -1.59 leaves (-pi/2, pi/2); chi_tilde + delta ~ -0.565 does not.
        params = MziParams(theta2=NEAR_DARK, chi=1e-2, alpha=10.0 + 0j)
        assert -math.pi / 2 < chi_tilde_exact(params).chi_tilde - 1.6 < math.pi / 2
        with pytest.raises(DomainError, match=r"^chi \+ delta = "):
            modulation_error_compare(params, -1.6)

    def test_zero_signal(self):
        params = MziParams(theta2=0.6, chi=0.0, alpha=10.0 + 0j)
        with pytest.raises(ZeroSignal):
            modulation_error_compare(params, 1e-3)


class TestRescaledIntensity:
    def test_exact_cancellation(self):
        assert rescaled_intensity(5.0, 5.0, 10.0) == (0.0, False)

    def test_noise_floor_clamp(self):
        value, clamped = rescaled_intensity(4.9, 5.0, 10.0)
        assert value == 0.0
        assert clamped

    def test_detector_count_identity(self):
        alpha_f = math.sqrt(3.0) * cmath.exp(0.9j)
        n1, n2 = detector_counts(math.sqrt(10.0), 0.2, alpha_f)
        value, clamped = rescaled_intensity(n1, n2, 10.0)
        assert not clamped
        assert math.isclose(value, 3.0, rel_tol=1e-12)

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            rescaled_intensity(-0.1, 5.0, 10.0)


def test_lo_effective_phase_and_validation():
    # The LO has two fields, its amplitude and its phase; a phase offset is part of xi.
    assert LoConfig(beta_mag=2.0, xi=0.3)._fields == ("beta_mag", "xi")
    assert not hasattr(LoConfig(beta_mag=2.0, xi=0.3), "effective_phase")
    with pytest.raises(TypeError):
        LoConfig(2.0, 0.3, 0.05)
    with pytest.raises(ValueError):
        LoConfig(beta_mag=0.0, xi=0.0)


@pytest.mark.parametrize("beta_mag, xi", [
    (math.nan, 0.0), (math.inf, 0.0), (3.0, math.nan), (3.0, -math.inf),
])
def test_lo_rejects_non_finite(beta_mag, xi):
    # A NaN LO amplitude used to pass the positivity check and reach the
    # saturation chain as a NaN readout.
    with pytest.raises(ValueError, match="LO beta_mag and xi must be finite"):
        LoConfig(beta_mag=beta_mag, xi=xi)
