"""Detector-saturation model and phase-bias tests."""

import cmath
import math
import random
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psamzi import (
    DarkPointSingularity,
    DetectorParams,
    LoConfig,
    MziParams,
    ZeroAmplitude,
    ZeroSignal,
    chi_tilde_exact,
    coherent_amplitude,
    detector_counts,
    detector_current,
    error_ratio,
    invert_phase_linear_model,
    propagate_mzi,
    quadrature_mean,
    saturated_quadrature,
)
from psamzi.amplification import readout_phases
from psamzi.saturation import error_ratio_fields

FIG4_DETECTOR = DetectorParams(k_max=450.0, n_sat=500.0)
FIG4_LO = LoConfig(beta_mag=math.sqrt(10.0), xi=math.pi / 2)
# The phase of the port field at theta2 0.3, chi 0.01 and a real alpha.
LOCKED_XI = 0.01447862072854517

# Frozen chain-oracle values at the fig-4 working parameters (chi = 1e-4).
ETA_N2000_NEAR_DARK = 0.010148240
ETA_N2000_WEAK = 0.555733500
CURRENT_AT_THRESHOLD = 284.4542514729


def eta_chain_oracle(n_photons, theta2, chi=1e-4):
    """Direct evaluation of the saturated readout -> linear inversion chain.

    The counts and the defining difference of exponentials are evaluated at
    50 digits from the float quadrature mean, so the oracle does not share
    the cancellation that the closed form in ``saturated_quadrature`` avoids.
    """
    params = MziParams(theta2=theta2, chi=chi, alpha=math.sqrt(n_photons) + 0j)
    amp = chi_tilde_exact(params)
    x_bar = amp.alpha_f_mag * math.sin(amp.chi_tilde)
    with localcontext() as ctx:
        ctx.prec = 50
        b, a, x = (Decimal(v) for v in (FIG4_LO.beta_mag, amp.alpha_f_mag, x_bar))
        k_max, n_sat = Decimal(FIG4_DETECTOR.k_max), Decimal(FIG4_DETECTOR.n_sat)
        half_total = (b**2 + a**2) / 2
        n1, n2 = half_total + b * x, half_total - b * x
        x_sat = float(k_max / (2 * b) * ((-n2 / n_sat).exp() - (-n1 / n_sat).exp()))
    biased = math.asin(
        x_sat * FIG4_DETECTOR.n_sat / (FIG4_DETECTOR.k_max * amp.alpha_f_mag)
    )
    return abs(biased - amp.chi_tilde) / abs(amp.chi_tilde)


class TestDetectorCurrent:
    def test_zero_input(self):
        assert detector_current(0.0, FIG4_DETECTOR) == 0.0

    def test_threshold_value(self):
        current = detector_current(500.0, FIG4_DETECTOR)
        assert abs(current - CURRENT_AT_THRESHOLD) < 1e-9
        assert math.isclose(current, 450.0 * (1 - math.exp(-1)), rel_tol=1e-14)

    def test_monotone_and_bounded(self):
        photons = np.linspace(0, 5000, 100)
        currents = [detector_current(n, FIG4_DETECTOR) for n in photons]
        assert all(b > a for a, b in zip(currents, currents[1:]))
        assert currents[-1] < FIG4_DETECTOR.k_max

    def test_linear_at_low_count(self):
        for n in (0.5, 3.0, 10.0):  # up to 0.02 * n_sat
            linear = FIG4_DETECTOR.k_max / FIG4_DETECTOR.n_sat * n
            assert abs(detector_current(n, FIG4_DETECTOR) - linear) / linear < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            detector_current(-1.0, FIG4_DETECTOR)
        with pytest.raises(ValueError):
            DetectorParams(k_max=0.0, n_sat=1.0)

    @pytest.mark.parametrize("k_max, n_sat", [(math.nan, 500.0), (math.inf, math.inf),
                                              (450.0, math.nan)])
    def test_rejects_non_finite(self, k_max, n_sat):
        # A NaN k_max used to give error_ratio a finite eta_e and a
        # chi_tilde_biased of -pi/2.
        with pytest.raises(ValueError, match="detector parameters must be finite"):
            DetectorParams(k_max=k_max, n_sat=n_sat)


class TestDetectorCounts:
    def test_lo_only(self):
        n1, n2 = detector_counts(math.sqrt(10.0), 0.3, 0.0 + 0j)
        assert math.isclose(n1, 5.0, rel_tol=1e-14)
        assert math.isclose(n2, 5.0, rel_tol=1e-14)

    def test_reference_split(self):
        # |beta|^2 = 10, |alpha_f| = 2 with the LO phased for X = 1
        alpha_f = 2.0 * cmath.exp(1j * math.pi / 3)
        n1, n2 = detector_counts(math.sqrt(10.0), 0.0, alpha_f)
        assert abs(n1 - (7.0 + math.sqrt(10.0))) < 1e-12
        assert abs(n2 - (7.0 - math.sqrt(10.0))) < 1e-12

    def test_sum_and_difference_identities(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            beta = rng.uniform(0.2, 8.0)
            xi = rng.uniform(-math.pi, math.pi)
            alpha_f = complex(rng.normal(), rng.normal()) * rng.uniform(0.1, 4.0)
            n1, n2 = detector_counts(beta, xi, alpha_f)
            total = beta**2 + abs(alpha_f) ** 2
            assert abs(n1 + n2 - total) < 1e-12 * max(total, 1.0)
            assert abs((n1 - n2) / (2 * beta) - quadrature_mean(alpha_f, xi)) < 1e-12

    def test_maximal_imbalance(self):
        beta = 2.0
        alpha_f = 1.5 * cmath.exp(0.4j)
        n1, n2 = detector_counts(beta, 0.4, alpha_f)  # in-phase LO
        assert math.isclose(n1 - n2, 2 * beta * 1.5, rel_tol=1e-12)

    def test_exact_cancellation_floor(self):
        # |beta| = |alpha_f| with opposed phase drives one count to zero.
        beta = 1.3
        alpha_f = beta * cmath.exp(1j * math.pi)
        n1, n2 = detector_counts(beta, 0.0, alpha_f)
        assert n1 >= 0.0 and n2 >= 0.0
        assert min(n1, n2) < 1e-14

    def test_balanced_lo_never_fails(self):
        # |beta| = |alpha_f| with the LO in phase or in antiphase: one count
        # is zero up to rounding and must never come out negative.
        rng = random.Random(44)
        for _ in range(1000):
            alpha_f = cmath.rect(math.sqrt(rng.uniform(1.0, 2000.0)),
                                 rng.uniform(-math.pi, math.pi))
            beta = abs(alpha_f)
            xi = cmath.phase(alpha_f) + rng.choice((0.0, math.pi))
            n1, n2 = detector_counts(beta, xi, alpha_f)
            assert min(n1, n2) >= 0.0
            assert min(n1, n2) <= 1e-12 * (beta**2 + abs(alpha_f) ** 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            detector_counts(0.0, 0.0, 1.0 + 0j)


class TestSaturatedQuadrature:
    def test_balanced_input_reads_zero(self):
        assert saturated_quadrature(2.0, 0.7, 0.0 + 0j, FIG4_DETECTOR) == 0.0

    def test_linear_regime_recovers_rescaled_mean(self):
        # counts stay below 0.01 * n_sat: |beta|^2 = 4, |alpha_f|^2 = 1
        beta = 2.0
        for phase in (0.3, 1.0, -0.7):
            alpha_f = cmath.exp(1j * phase)
            x_sat = saturated_quadrature(beta, 0.0, alpha_f, FIG4_DETECTOR)
            x_lin = (
                FIG4_DETECTOR.k_max / FIG4_DETECTOR.n_sat
            ) * quadrature_mean(alpha_f, 0.0)
            assert abs(x_sat - x_lin) / abs(x_lin) < 0.015

    def test_bright_beam_is_compressed(self):
        params = MziParams(theta2=0.3, chi=1e-4, alpha=math.sqrt(2000.0) + 0j)
        fields = propagate_mzi(params)
        x_sat = saturated_quadrature(
            FIG4_LO.beta_mag, math.pi / 2, fields.alpha_f, FIG4_DETECTOR
        )
        x_lin = (
            FIG4_DETECTOR.k_max / FIG4_DETECTOR.n_sat
        ) * quadrature_mean(fields.alpha_f, math.pi / 2)
        assert abs(x_sat) < abs(x_lin)
        assert math.copysign(1.0, x_sat) == math.copysign(1.0, x_lin)

    @pytest.mark.parametrize("beta_max, re_min, re_max, im_max", [
        # |Re(alpha_f)| from 1e-9 to 1, where the plain difference cancels
        (30.0, -9.0, 0.0, 30.0),
        # a strong LO and |x_bar| up to 1e3, where 2|beta| |x_bar| / N_sat
        # passes the overflow point of exp
        (1e3, 0.0, 3.0, 1.0),
    ])
    def test_matches_decimal_reference(self, beta_max, re_min, re_max, im_max):
        # With xi = 0 the quadrature mean is Re(alpha_f) exactly, so the
        # defining difference of exponentials can be evaluated at 50 digits
        # from the same float inputs.  Results below the smallest normal
        # float keep only an absolute precision.
        k_max, n_sat = Decimal(FIG4_DETECTOR.k_max), Decimal(FIG4_DETECTOR.n_sat)
        rng = random.Random(45)
        for _ in range(2000):
            beta = rng.uniform(0.5, beta_max)
            magnitude = 10.0 ** rng.uniform(re_min, re_max)
            re = math.copysign(magnitude, rng.uniform(-1.0, 1.0))
            im = rng.uniform(-im_max, im_max)
            x_sat = saturated_quadrature(beta, 0.0, complex(re, im), FIG4_DETECTOR)
            with localcontext() as ctx:
                ctx.prec = 50
                b, a, y = Decimal(beta), Decimal(re), Decimal(im)
                n1 = ((a + b) ** 2 + y**2) / 2
                n2 = ((a - b) ** 2 + y**2) / 2
                want = k_max / (2 * b) * ((-n2 / n_sat).exp() - (-n1 / n_sat).exp())
                bound = Decimal("1e-12") * abs(want) + Decimal(sys.float_info.min)
                assert abs(Decimal(x_sat) - want) <= bound

    def test_compression_is_universal(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            beta = rng.uniform(0.5, 30.0)
            xi = rng.uniform(-math.pi, math.pi)
            alpha_f = complex(rng.normal(), rng.normal()) * rng.uniform(0.1, 30.0)
            x_sat = saturated_quadrature(beta, xi, alpha_f, FIG4_DETECTOR)
            x_lin = (
                FIG4_DETECTOR.k_max / FIG4_DETECTOR.n_sat
            ) * quadrature_mean(alpha_f, xi)
            assert abs(x_sat) <= abs(x_lin) + 1e-12
            if x_lin != 0.0:
                assert x_sat * x_lin >= 0.0


class TestLinearInversion:
    def test_self_consistent_in_linear_regime(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            mag = rng.uniform(0.1, 3.0)
            chi_tilde = rng.uniform(-1.4, 1.4)
            x_linear_model = (
                FIG4_DETECTOR.k_max / FIG4_DETECTOR.n_sat
            ) * mag * math.sin(chi_tilde)
            recovered, clamped = invert_phase_linear_model(
                x_linear_model, mag, FIG4_DETECTOR
            )
            assert not clamped
            assert abs(recovered - chi_tilde) < 1e-12

    def test_zero_reads_zero(self):
        assert invert_phase_linear_model(0.0, 1.0, FIG4_DETECTOR) == (0.0, False)

    def test_clamp_flag(self):
        over = 1.5 * FIG4_DETECTOR.k_max / FIG4_DETECTOR.n_sat
        recovered, clamped = invert_phase_linear_model(over, 1.0, FIG4_DETECTOR)
        assert clamped
        assert math.isclose(recovered, math.pi / 2, rel_tol=1e-12)

    def test_rejects_zero_amplitude(self):
        with pytest.raises(ZeroAmplitude):
            invert_phase_linear_model(0.1, 0.0, FIG4_DETECTOR)

    def test_nan_readout_is_not_clipped(self):
        # max(-1.0, nan) is -1.0: a NaN ratio used to read as -pi/2, unflagged.
        recovered, clamped = invert_phase_linear_model(math.nan, 1.0, FIG4_DETECTOR)
        assert math.isnan(recovered)
        assert not clamped

    def test_scan_inversion_does_not_clamp(self):
        # |x_saturated| N_sat / k_max <= |x_bar| <= |alpha_f|, since -expm1(-y) <= y
        # and exp(-min(n1, n2) / N_sat) <= 1, so the ratio error_ratio_fields
        # inverts stays in [-1, 1].  Rounding alone can pass 1, by an ulp, with
        # the LO phase-locked to the port field and N_sat above ~1e14 |alpha_f|^2.
        rng = random.Random(24)
        points = 0
        for _ in range(300):
            lo = LoConfig(beta_mag=10.0 ** rng.uniform(-2.0, 3.0),
                          xi=rng.uniform(-math.pi, math.pi) + rng.uniform(-0.1, 0.1))
            det = DetectorParams(k_max=10.0 ** rng.uniform(-2.0, 4.0),
                                 n_sat=10.0 ** rng.uniform(-1.0, 6.0))
            alpha = coherent_amplitude(10.0 ** rng.uniform(-2.0, 5.0),
                                       rng.uniform(-math.pi, math.pi))
            grid = [rng.uniform(0.0, math.pi / 2) for _ in range(50)]
            chi, gamma = rng.uniform(-1.5, 1.5), rng.uniform(-math.pi, math.pi)
            for theta2, fields in zip(grid, error_ratio_fields(grid, chi, gamma, [alpha],
                                                               lo, det)):
                if fields is not None:
                    points += 1
                    params = MziParams(theta2=theta2, chi=chi, alpha=alpha, gamma=gamma)
                    alpha_f_mag = chi_tilde_exact(params).alpha_f_mag
                    _, clamped = readout_phases([fields[3]], [alpha_f_mag],
                                                det.k_max, det.n_sat)[0]
                    assert not clamped
        assert points == 15_000

    def test_zero_amplitude_boundary(self):
        # An |alpha_f| equal to the tolerance vanishes; twice it does not.
        with pytest.raises(ZeroAmplitude):
            invert_phase_linear_model(0.0, 1e-15, FIG4_DETECTOR)
        assert invert_phase_linear_model(0.0, 2e-15, FIG4_DETECTOR) == (0.0, False)


class TestErrorRatio:
    def test_negligible_when_counts_are_tiny(self):
        # all counts ~ 1e-3 * n_sat: weak LO and a single-photon-scale input
        params = MziParams(theta2=0.6, chi=1e-4, alpha=1.0 + 0j)
        lo = LoConfig(beta_mag=math.sqrt(0.5), xi=math.pi / 2)
        report = error_ratio(params, lo, FIG4_DETECTOR)
        assert max(report.n1, report.n2) < 0.3
        assert report.eta_e < 1e-3

    def test_postselection_suppresses_bias(self):
        near_dark = error_ratio(
            MziParams(theta2=math.pi / 4 - 0.01, chi=1e-4, alpha=math.sqrt(2000.0) + 0j),
            FIG4_LO,
            FIG4_DETECTOR,
        )
        weak = error_ratio(
            MziParams(theta2=0.1, chi=1e-4, alpha=math.sqrt(2000.0) + 0j),
            FIG4_LO,
            FIG4_DETECTOR,
        )
        assert abs(near_dark.eta_e - ETA_N2000_NEAR_DARK) < 1e-6
        assert abs(weak.eta_e - ETA_N2000_WEAK) < 1e-6
        assert near_dark.eta_e < weak.eta_e

    def test_matches_chain_oracle(self):
        for n_photons in (100.0, 500.0, 2000.0):
            for theta2 in (0.1, 0.3, 0.7):
                report = error_ratio(
                    MziParams(
                        theta2=theta2, chi=1e-4, alpha=math.sqrt(n_photons) + 0j
                    ),
                    FIG4_LO,
                    FIG4_DETECTOR,
                )
                oracle = eta_chain_oracle(n_photons, theta2)
                # the oracle forms the quadrature from |alpha_f| sin(chi_tilde)
                # instead of Re(alpha_f e^{-i xi}); rounding differences get
                # amplified by the ~1e-4 phase in the denominator
                assert abs(report.eta_e - oracle) < 1e-12

    def test_nondecreasing_in_intensity_at_weak_postselection(self):
        for theta2 in (0.1, 0.3, 0.5):
            etas = [
                error_ratio(
                    MziParams(theta2=theta2, chi=1e-4, alpha=math.sqrt(n) + 0j),
                    FIG4_LO,
                    FIG4_DETECTOR,
                ).eta_e
                for n in (100.0, 500.0, 1000.0, 2000.0)
            ]
            assert all(b >= a for a, b in zip(etas, etas[1:]))

    def test_linear_limit_recovery(self):
        # n_sat scaled by 1e3 at fixed k_max / n_sat: readout approaches the
        # rescaled mean and the bias collapses by the same factor.
        params = MziParams(theta2=0.3, chi=1e-4, alpha=math.sqrt(2000.0) + 0j)
        saturated = error_ratio(params, FIG4_LO, FIG4_DETECTOR)
        relaxed_det = DetectorParams(k_max=450.0 * 1e3, n_sat=500.0 * 1e3)
        relaxed = error_ratio(params, FIG4_LO, relaxed_det)
        assert relaxed.eta_e < 1e-2 * saturated.eta_e
        assert abs(relaxed.x_saturated / relaxed.x_linear - 1.0) < 1e-3

    def test_invariant_under_global_phase(self):
        base_params = MziParams(theta2=0.4, chi=1e-4, alpha=math.sqrt(800.0) + 0j)
        base = error_ratio(base_params, FIG4_LO, FIG4_DETECTOR)
        spin = 1.1
        rotated_params = MziParams(
            theta2=0.4, chi=1e-4, alpha=math.sqrt(800.0) * cmath.exp(1j * spin)
        )
        rotated_lo = LoConfig(beta_mag=FIG4_LO.beta_mag, xi=FIG4_LO.xi + spin)
        rotated = error_ratio(rotated_params, rotated_lo, FIG4_DETECTOR)
        assert abs(rotated.eta_e - base.eta_e) < 1e-12

    @settings(derandomize=True, database=None, max_examples=1000)
    # With the LO locked to the port field at theta2 0.3 and chi 0.01 the ratio
    # is near 1, where each underflow bound of the domain keeps it within rounding.
    @example(beta_mag=0.0, k_max=-320.0, n_sat=-30.0, n_photons=-27.0,  # k_max |alpha_f| is 0
             theta2=0.3, chi=-2.0, xi=LOCKED_XI, phase=0.0)
    @example(beta_mag=8.0, k_max=0.0, n_sat=300.0, n_photons=-20.0,  # k_max / N_sat |alpha_f|
             theta2=0.3, chi=-2.0, xi=LOCKED_XI, phase=0.0)
    @example(beta_mag=-296.0, k_max=0.0, n_sat=-5.0, n_photons=-27.0,  # 2 beta |alpha_f|
             theta2=0.3, chi=-2.0, xi=LOCKED_XI, phase=0.0)
    @example(beta_mag=-219.0, k_max=36.0, n_sat=104.0, n_photons=0.0,  # 2 beta |alpha_f| / N_sat
             theta2=0.3, chi=-2.0, xi=LOCKED_XI, phase=0.0)
    # A subnormal amplified phase, 1.4e-313, at the fig4 detector and 100 photons.
    @example(beta_mag=math.log10(3.0), k_max=math.log10(450.0), n_sat=math.log10(500.0),
             n_photons=2.0, theta2=0.3, chi=-313.0, xi=2.6, phase=0.0)
    @given(beta_mag=st.floats(-320.0, 308.0), k_max=st.floats(-320.0, 308.0),
           n_sat=st.floats(-320.0, 308.0), n_photons=st.floats(-320.0, 308.0),
           theta2=st.floats(0.0, math.pi / 2), chi=st.floats(-330.0, 0.17),
           xi=st.floats(-math.pi, math.pi), phase=st.floats(-math.pi, math.pi))
    def test_whole_float_range(self, beta_mag, k_max, n_sat, n_photons, theta2, chi, xi,
                               phase):
        # LO, detector and photon number 10**(-320..308), and chi 10**(-330..0.17)
        # from zero through the subnormals to 1.5: error_ratio refuses them with
        # ValueError, or with ZeroSignal where the amplified phase is zero or
        # subnormal, or returns finite fields whose inversion passes +-1 by
        # rounding alone.
        chi = 10.0**chi
        params = MziParams(theta2=theta2, chi=chi,
                           alpha=coherent_amplitude(10.0**n_photons, phase))
        det = DetectorParams(k_max=10.0**k_max, n_sat=10.0**n_sat)
        try:
            report = error_ratio(params, LoConfig(beta_mag=10.0**beta_mag, xi=xi), det)
        except ValueError as exc:
            assert str(exc).startswith(("lo.beta_mag=", "the saturated readout "))
            return
        except (DarkPointSingularity, ZeroAmplitude, ZeroSignal):
            return
        assert all(map(math.isfinite, report))
        ratio = (report.x_saturated * det.n_sat
                 / (det.k_max * chi_tilde_exact(params).alpha_f_mag))
        assert abs(ratio) <= 1.0 + 2 * sys.float_info.epsilon

    def test_zero_signal_raises(self):
        with pytest.raises(ZeroSignal):
            error_ratio(
                MziParams(theta2=0.3, chi=0.0, alpha=10.0 + 0j),
                FIG4_LO,
                FIG4_DETECTOR,
            )

    def test_subnormal_signal_raises(self):
        # eta_e divided by the amplified phase, 1.4e-313 here, and overflowed.
        params = MziParams(theta2=0.3, chi=1e-313, alpha=10.0 + 0j)
        assert 0.0 < chi_tilde_exact(params).chi_tilde < sys.float_info.min
        with pytest.raises(ZeroSignal, match="zero or subnormal"):
            error_ratio(params, LoConfig(beta_mag=3.0, xi=2.6), FIG4_DETECTOR)
        # The least normal amplified phase keeps eta_e below (pi/2) / |chi_tilde| + 1.
        params = params._replace(chi=sys.float_info.min)
        chi_tilde = chi_tilde_exact(params).chi_tilde
        assert chi_tilde >= sys.float_info.min
        eta_e = error_ratio(params, LoConfig(beta_mag=3.0, xi=2.6), FIG4_DETECTOR).eta_e
        assert math.isfinite(eta_e)
        assert eta_e <= (math.pi / 2) / chi_tilde + 1

    def test_dark_point_raises(self):
        with pytest.raises(ZeroAmplitude):
            error_ratio(
                MziParams(theta2=math.pi / 4, chi=0.0, alpha=10.0 + 0j),
                FIG4_LO,
                FIG4_DETECTOR,
            )

    def test_dark_angle_raises(self):
        # The amplitude is nonzero at chi = 0.01, but the postselection is
        # dark, so the linear inversion is degenerate: fig4 writes NA and
        # single a null saturation there.
        with pytest.raises(DarkPointSingularity):
            error_ratio(
                MziParams(theta2=math.pi / 4, chi=0.01, alpha=10.0 + 0j),
                FIG4_LO,
                FIG4_DETECTOR,
            )


class TestOffTheFloats:
    """Each public saturation function raises ValueError where its terms leave the floats."""

    @pytest.mark.parametrize("call, quantity", [
        pytest.param(lambda: saturated_quadrature(1e-308, math.pi / 2, 0.5 + 0.5j,
                                                  FIG4_DETECTOR),
                     "k_max / (2 * beta_mag) must be finite", id="quadrature was inf"),
        pytest.param(lambda: saturated_quadrature(1e200, 0.0, 1e200 + 0j, FIG4_DETECTOR),
                     "(beta_mag + |alpha_f|)**2 must be finite", id="quadrature overflowed"),
        pytest.param(lambda: detector_counts(1e200, 0.0, 1e200 + 0j),
                     "(beta_mag + |alpha_f|)**2 must be finite", id="counts overflowed"),
        pytest.param(lambda: invert_phase_linear_model(1.0, 7.0, DetectorParams(1.7e308, 1.0)),
                     "k_max * |alpha_f| must be finite", id="inversion read 0"),
        pytest.param(lambda: invert_phase_linear_model(0.0, 1e-10, DetectorParams(1e-320, 1.0)),
                     "k_max * |alpha_f| must be a normal float", id="inversion divided by 0"),
    ])
    def test_names_the_quantity(self, call, quantity):
        with pytest.raises(ValueError) as info:
            call()
        assert quantity in str(info.value)

    @settings(derandomize=True, database=None, max_examples=250)
    @given(beta_mag=st.floats(-320.0, 308.0), k_max=st.floats(-320.0, 308.0),
           n_sat=st.floats(-320.0, 308.0), field=st.floats(-320.0, 308.0),
           x=st.floats(-320.0, 308.0), sign=st.sampled_from((1.0, -1.0)),
           xi=st.floats(-math.pi, math.pi), phase=st.floats(-math.pi, math.pi))
    def test_finite_or_value_error(self, beta_mag, k_max, n_sat, field, x, sign, xi, phase):
        # Every input 10**(-320..308): each function returns finite values or
        # raises ValueError.  The inversion also raises ZeroAmplitude where
        # |alpha_f| is at most the zero-amplitude tolerance.
        beta_mag, field, x = 10.0**beta_mag, 10.0**field, sign * 10.0**x
        det = DetectorParams(k_max=10.0**k_max, n_sat=10.0**n_sat)
        alpha_f = cmath.rect(field, phase)
        calls = [
            lambda: [detector_current(field, det)],
            lambda: detector_counts(beta_mag, xi, alpha_f),
            lambda: [saturated_quadrature(beta_mag, xi, alpha_f, det)],
            lambda: invert_phase_linear_model(x, field, det)[:1],
        ]
        for call in calls:
            try:
                values = call()
            except (ValueError, ZeroAmplitude):
                continue
            assert all(map(math.isfinite, values))
