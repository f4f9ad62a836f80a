"""Beam-splitter, phase-shifter, and full-interferometer propagation tests."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psamzi import (
    MziParams,
    bs_matrix,
    bs_transform,
    coherent_amplitude,
    intensity_difference,
    phase_shift,
    propagate_mzi,
    wrap_angle,
)

from oracles import matrix_oracle

SQ2 = math.sqrt(2.0)

# Whole-domain working points: theta2 on both sides of the dark angle pi/4,
# any chi and gamma, and an input amplitude of any phase.
ANGLES = st.floats(-math.pi, math.pi)
WORKING_POINTS = st.builds(
    lambda theta2, chi, gamma, n_photons, phase: MziParams(
        theta2=theta2, chi=chi, gamma=gamma, alpha=coherent_amplitude(n_photons, phase)),
    st.floats(0.0, math.pi / 2), ANGLES, ANGLES, st.floats(1e-4, 2500.0), ANGLES,
)


class TestBeamSplitter:
    def test_balanced_split(self):
        alpha = 3.0 - 1.5j
        c, d = bs_transform(alpha, 0.0, math.pi / 4)
        assert cmath.isclose(c, alpha / SQ2, rel_tol=1e-14)
        assert cmath.isclose(d, -1j * alpha / SQ2, rel_tol=1e-14)

    def test_identity_splitter(self):
        alpha, beta = 1.2 + 0.4j, -0.3 + 2.0j
        assert bs_transform(alpha, beta, 0.0) == (alpha, beta)

    def test_pure_reflection(self):
        alpha = 2.0 + 1.0j
        c, d = bs_transform(alpha, 0.0, math.pi / 2)
        assert abs(c) < 1e-15
        assert cmath.isclose(d, -1j * alpha, rel_tol=1e-14)

    def test_matrix_unitary(self):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 1000):
            s = bs_matrix(theta)
            assert np.max(np.abs(s @ s.conj().T - np.eye(2))) < 1e-14

    def test_energy_conserved(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            theta = rng.uniform(0, math.pi / 2)
            c, d = bs_transform(a, b, theta)
            power_in = abs(a) ** 2 + abs(b) ** 2
            assert abs(abs(c) ** 2 + abs(d) ** 2 - power_in) <= 1e-12 * power_in


class TestPhaseShift:
    def test_identity(self):
        alpha = 0.7 - 0.2j
        assert phase_shift(alpha, 0.0) == alpha

    def test_quarter_turn(self):
        assert cmath.isclose(phase_shift(1.0 + 0j, math.pi / 2), 1j, abs_tol=1e-15)

    def test_inverse_composition(self):
        alpha = 4.0 + 3.0j
        back = phase_shift(phase_shift(alpha, 0.37), -0.37)
        assert cmath.isclose(back, alpha, rel_tol=1e-14)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            alpha = complex(rng.normal(), rng.normal())
            phi = rng.uniform(-10, 10)
            assert math.isclose(abs(phase_shift(alpha, phi)), abs(alpha), rel_tol=1e-14)


class TestPropagation:
    def test_balanced_dark_port(self):
        alpha = 10.0 * cmath.exp(0.4j)
        fields = propagate_mzi(
            MziParams(theta2=math.pi / 4, chi=0.0, alpha=alpha)
        )
        assert abs(fields.alpha_f) < 1e-14 * abs(alpha)
        assert cmath.isclose(fields.alpha_fbar, -1j * alpha, rel_tol=1e-14)

    def test_second_splitter_removed(self):
        alpha = 5.0 + 0j
        chi = 0.123
        fields = propagate_mzi(
            MziParams(theta2=0.0, chi=chi, alpha=alpha, gamma=0.8)
        )
        assert cmath.isclose(
            fields.alpha_f, alpha / SQ2 * cmath.exp(1j * chi), rel_tol=1e-14
        )

    def test_matches_matrix_oracle_at_reference_point(self):
        params = MziParams(theta2=0.7, chi=1e-2, alpha=10.0 + 0j, gamma=0.1)
        fields = propagate_mzi(params)
        oracle_f, oracle_fbar = matrix_oracle(0.7, 0.1, 1e-2, 10.0)
        assert abs(fields.alpha_f - oracle_f) < 1e-12
        assert abs(fields.alpha_fbar - oracle_fbar) < 1e-12

    @settings(derandomize=True, database=None, max_examples=1000)
    @given(WORKING_POINTS)
    def test_closed_form_equals_composition(self, params):
        fields = propagate_mzi(params)
        oracle_f, oracle_fbar = matrix_oracle(params.theta2, params.gamma, params.chi,
                                              params.alpha)
        assert abs(fields.alpha_f - oracle_f) < 1e-12
        assert abs(fields.alpha_fbar - oracle_fbar) < 1e-12

    @settings(derandomize=True, database=None, max_examples=1000)
    @given(WORKING_POINTS)
    def test_energy_conservation(self, params):
        fields = propagate_mzi(params)
        total = fields.intensity_f + fields.intensity_fbar
        assert abs(total - params.n_photons) <= 1e-12 * params.n_photons

    def test_phase_covariance(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            alpha = complex(rng.normal(), rng.normal()) * 5
            phi = rng.uniform(-math.pi, math.pi)
            base = propagate_mzi(MziParams(theta2=0.6, chi=0.2, alpha=alpha, gamma=0.1))
            rotated = propagate_mzi(
                MziParams(theta2=0.6, chi=0.2, alpha=alpha * cmath.exp(1j * phi), gamma=0.1)
            )
            spin = cmath.exp(1j * phi)
            assert cmath.isclose(rotated.alpha_f, base.alpha_f * spin, rel_tol=1e-13)
            assert cmath.isclose(rotated.alpha_fbar, base.alpha_fbar * spin, rel_tol=1e-13)


class TestIntensityDifference:
    def test_constructive_complement(self):
        params = MziParams(theta2=math.pi / 4, chi=0.4, alpha=6.0 + 0j, gamma=0.4)
        assert math.isclose(intensity_difference(params), -params.n_photons, rel_tol=1e-12)

    def test_balanced_output(self):
        params = MziParams(theta2=math.pi / 4, chi=math.pi / 2, alpha=3.0 + 0j)
        assert abs(intensity_difference(params)) < 1e-12 * params.n_photons

    def test_fringe_oracle(self):
        # -N*cos(chi - gamma) for balanced splitters, cross-checked against
        # the propagated port magnitudes.
        params = MziParams(theta2=math.pi / 4, chi=math.pi / 3, alpha=10.0 + 0j)
        delta_i = intensity_difference(params)
        assert math.isclose(delta_i, -50.0, rel_tol=1e-12)
        fields = propagate_mzi(params)
        assert math.isclose(
            delta_i, fields.intensity_f - fields.intensity_fbar, rel_tol=1e-12
        )


class TestHelpers:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi, math.pi),
            (2 * math.pi, 0.0),
            (-0.5, -0.5),
        ],
    )
    def test_wrap_angle(self, raw, expected):
        assert math.isclose(wrap_angle(raw), expected, abs_tol=1e-15)

    def test_coherent_amplitude(self):
        alpha = coherent_amplitude(100.0, 0.3)
        assert math.isclose(abs(alpha), 10.0, rel_tol=1e-15)
        assert math.isclose(cmath.phase(alpha), 0.3, rel_tol=1e-15)
        with pytest.raises(ValueError):
            coherent_amplitude(-1.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MziParams(theta2=2.0, chi=0.0, alpha=1.0 + 0j)
        with pytest.raises(TypeError):
            MziParams(0.3, 0.0, 1.0 + 0j, 0.1)  # gamma is keyword-only
        for bad in ({"chi": math.nan}, {"gamma": math.inf},
                    {"alpha": complex(math.inf, 0.0)}, {"alpha": complex(1.0, math.nan)}):
            with pytest.raises(ValueError):
                MziParams(**{"theta2": 0.3, "chi": 0.0, "alpha": 1.0 + 0j, **bad})
        params = MziParams(theta2=0.3, chi=0.0, alpha=coherent_amplitude(25.0, -0.2))
        assert math.isclose(params.n_photons, 25.0, rel_tol=1e-14)
        assert math.isclose(params.input_phase, -0.2, rel_tol=1e-14)
