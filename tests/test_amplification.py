"""Weak-value, amplified-phase, and phase-inversion tests."""

import ast
import cmath
import inspect
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psamzi
from psamzi import (
    DarkPointSingularity,
    DetectorParams,
    LoConfig,
    MziParams,
    NoRoot,
    ZeroAmplitude,
    bs_transform,
    chi_tilde_aav,
    coherent_amplitude,
    chi_tilde_exact,
    detector_counts,
    error_ratio,
    invert_chi,
    invert_chi_branches,
    phase_shift,
    propagate_mzi,
    weak_value,
    wrap_angle,
)
from psamzi import amplification, errors, homodyne, optics, saturation, shots
from psamzi.amplification import IMAG_WARNING_RATIO, MERGE_ROUNDING, aav_phase

SQ2 = math.sqrt(2.0)
NEAR_DARK = math.pi / 4 - 0.003

# Frozen oracle values: cos(t2)/(cos(t2)-sin(t2)) and arg(alpha_f) at the
# reference postselection angle pi/4 - 0.003.
A_W_NEAR_DARK = 167.166166666364
CHI_TILDE_AAV_1E4 = 1.671661666664e-02
CHI_TILDE_EXACT_1E2 = 1.035379179481
CHI_TILDE_EXACT_1E4 = 1.671507374168e-02


def two_vector_states(theta2, gamma):
    """Oracle: the pre- and postselected states |i> and |f> as explicit 2-vectors."""
    pre = np.array([1.0, -1j]) / SQ2
    post = np.array([math.cos(theta2), 1j * math.sin(theta2) * cmath.exp(-1j * gamma)])
    return pre, post


def two_vector_weak_value(theta2, gamma):
    """Oracle: <f|A|i>/<f|i> with explicit 2-vector linear algebra."""
    pre, post = two_vector_states(theta2, gamma)
    projector = np.array([[1.0, 0.0], [0.0, 0.0]])
    return complex(post.conj() @ projector @ pre) / complex(post.conj() @ pre)


def composed_port_amplitude(theta2, gamma, chi, alpha):
    """Oracle: the postselected port amplitude composed element by element."""
    a, b = bs_transform(alpha, 0.0, math.pi / 4)
    return bs_transform(phase_shift(a, chi), phase_shift(b, gamma), theta2)[0]


def port_phase_oracle(theta2, gamma, chi, alpha):
    """Oracle: argument of the composed port amplitude minus the input phase."""
    alpha_f = composed_port_amplitude(theta2, gamma, chi, alpha)
    return wrap_angle(cmath.phase(alpha_f) - cmath.phase(alpha))


class TestWeakValue:
    def test_identity_without_rotation(self):
        wv = weak_value(0.0, 0.0)
        assert wv.c2 == 0.0
        assert cmath.isclose(wv.a_w, 1.0, rel_tol=1e-15)

    def test_near_dark_point_value(self):
        wv = weak_value(NEAR_DARK, 0.0)
        assert math.isclose(wv.a_w.real, A_W_NEAR_DARK, rel_tol=1e-12)
        assert wv.a_w.imag == 0.0
        # leading-order estimate 1/(2*eps) + 1/2 at eps = 0.003
        assert math.isclose(wv.a_w.real, 1 / 0.006 + 0.5, rel_tol=1e-5)

    def test_matches_two_vector_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            theta2 = rng.uniform(0.0, math.pi / 2)
            gamma = rng.uniform(-math.pi, math.pi)
            try:
                wv = weak_value(theta2, gamma)
            except DarkPointSingularity:
                continue
            assert abs(wv.a_w - two_vector_weak_value(theta2, gamma)) < 1e-12

    def test_ratio_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            wv = weak_value(rng.uniform(0.05, 0.7), rng.uniform(-1, 1))
            assert abs(wv.a_w * wv.overlap - wv.c1) < 1e-12

    def test_dark_point_raises(self):
        with pytest.raises(DarkPointSingularity):
            weak_value(math.pi / 4, 0.0)


class TestAavPhase:
    def test_reference_amplification(self):
        amp = chi_tilde_aav(MziParams(theta2=NEAR_DARK, chi=1e-4, alpha=1.0 + 0j))
        assert math.isclose(amp.chi_tilde, CHI_TILDE_AAV_1E4, rel_tol=1e-12)
        assert not amp.imag_warning

    def test_identity_when_unrotated(self):
        for chi in (1e-4, 0.3, -0.2):
            amp = chi_tilde_aav(MziParams(theta2=0.0, chi=chi, alpha=1.0 + 0j))
            assert math.isclose(amp.chi_tilde, chi, rel_tol=1e-14)

    def test_phase_modulation_sets_imag_warning(self):
        # Modulating gamma instead of theta2 leaves the overlap imaginary, so
        # the amplified factor is not a quadrature-extractable phase.
        params = MziParams(theta2=math.pi / 4, chi=1e-2, alpha=1.0 + 0j, gamma=0.02)
        assert chi_tilde_aav(params).imag_warning
        wv = weak_value(math.pi / 4, 0.02)
        assert abs(wv.a_w.imag) > abs(wv.a_w.real)

    def test_overflow_is_undefined(self):
        # Re(a_w) * chi past the largest float has no phase: None in the
        # stage, a ValueError naming the working point in the record call.
        assert aav_phase([2.0, -1.0, None], 1e308) == [None, wrap_angle(-1e308), None]
        with pytest.raises(ValueError, match=r"theta2=0\.5, chi=1e\+308"):
            chi_tilde_aav(MziParams(theta2=0.5, chi=1e308, alpha=1.0 + 0j))

    def test_amplitude_scaling(self):
        amp = chi_tilde_aav(MziParams(theta2=0.6, chi=1e-4, alpha=10.0 + 0j))
        wv = weak_value(0.6, 0.0)
        assert math.isclose(amp.alpha_f_mag, abs(wv.overlap) * 10.0, rel_tol=1e-14)

    def test_reads_every_params_field(self):
        # Seeded points on both sides of the dark point, with gamma != 0 and
        # |alpha| != 1, against the two-vector oracle: a chi_tilde_aav that
        # dropped gamma or took |alpha| as 1 fails.
        rng = np.random.default_rng(24)
        warnings = set()
        for side in (-1.0, 1.0):
            for _ in range(300):
                theta2 = math.pi / 4 + side * rng.uniform(0.01, math.pi / 4 - 0.01)
                gamma = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 1.0)
                chi = rng.choice([-1.0, 1.0]) * rng.uniform(1e-5, 0.3)
                alpha = cmath.rect(rng.uniform(2.0, 40.0), rng.uniform(-math.pi, math.pi))
                params = MziParams(theta2=theta2, chi=chi, alpha=alpha, gamma=gamma)
                amp = chi_tilde_aav(params)
                a_w = two_vector_weak_value(theta2, gamma)
                pre, post = two_vector_states(theta2, gamma)
                phase = a_w.real * chi
                assert abs(wrap_angle(amp.chi_tilde - phase)) < 1e-12 * (1 + abs(phase))
                overlap = abs(complex(post.conj() @ pre))
                assert math.isclose(amp.alpha_f_mag, overlap * abs(alpha), rel_tol=1e-12)
                ratio = abs(a_w.imag) / abs(a_w.real)
                assert amp.imag_warning == (ratio > IMAG_WARNING_RATIO)
                warnings.add(amp.imag_warning)
        assert warnings == {False, True}

    def test_propagates_dark_point(self):
        with pytest.raises(DarkPointSingularity):
            chi_tilde_aav(MziParams(theta2=math.pi / 4, chi=1e-4, alpha=1.0 + 0j))


class TestExactPhase:
    def test_reference_amplification(self):
        params = MziParams(theta2=NEAR_DARK, chi=1e-2, alpha=10.0 + 0j)
        amp = chi_tilde_exact(params)
        assert abs(amp.chi_tilde - CHI_TILDE_EXACT_1E2) < 1e-9
        assert 95 <= amp.chi_tilde / 1e-2 <= 110
        oracle = port_phase_oracle(NEAR_DARK, 0.0, 1e-2, 10.0 + 0j)
        assert abs(amp.chi_tilde - oracle) < 1e-10

    def test_zero_phase(self):
        params = MziParams(theta2=0.6, chi=0.0, alpha=4.0 + 0j)
        assert chi_tilde_exact(params).chi_tilde == 0.0

    def test_agrees_with_aav_at_small_coupling(self):
        params = MziParams(theta2=NEAR_DARK, chi=1e-4, alpha=10.0 + 0j)
        exact = chi_tilde_exact(params)
        assert abs(exact.chi_tilde - CHI_TILDE_EXACT_1E4) < 1e-12
        aav = chi_tilde_aav(params)
        assert abs(exact.chi_tilde - aav.chi_tilde) / aav.chi_tilde < 2e-4

    def test_phase_and_magnitude_identities(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 1000:
            theta2 = rng.uniform(0.0, math.pi / 2)
            gamma = rng.uniform(-math.pi, math.pi)
            chi = rng.uniform(-math.pi, math.pi)
            alpha = cmath.rect(rng.uniform(0.5, 20), rng.uniform(-math.pi, math.pi))
            params = MziParams(theta2=theta2, chi=chi, alpha=alpha, gamma=gamma)
            try:
                amp = chi_tilde_exact(params)
            except ZeroAmplitude:
                continue
            alpha_f = composed_port_amplitude(theta2, gamma, chi, alpha)
            phase_diff = wrap_angle(amp.chi_tilde - cmath.phase(alpha_f) + cmath.phase(alpha))
            assert abs(phase_diff) < 1e-12
            assert abs(amp.alpha_f_mag - abs(alpha_f)) < 1e-12
            checked += 1

    def test_one_port_field(self):
        # |alpha_f| and the detector counts read the one port field of
        # port_fields, so chi_tilde_exact's magnitude squared is propagate_mzi's
        # intensity, and error_ratio's n1 and n2 are detector_counts of
        # propagate_mzi's alpha_f, to the bit, with gamma and the input phase
        # away from zero on both sides of the dark point.  The LO phase 1.2 + 1e-3
        # is not the optimal pi/2 + arg(alpha).
        lo = LoConfig(beta_mag=5.0, xi=1.2 + 1e-3)
        det = DetectorParams(k_max=450.0, n_sat=500.0)
        rng = np.random.default_rng(27)

        def signed(low, high):
            return float(rng.choice([-1.0, 1.0]) * rng.uniform(low, high))

        for _ in range(3000):
            theta2 = math.pi / 4 + signed(1e-3, math.pi / 4 - 1e-3)
            gamma = signed(0.01, math.pi)
            chi = float(rng.uniform(-1.0, 1.0))
            alpha = coherent_amplitude(float(10.0 ** rng.uniform(0.0, 4.0)),
                                       signed(0.01, math.pi))
            params = MziParams(theta2=theta2, chi=chi, alpha=alpha, gamma=gamma)
            alpha_f = propagate_mzi(params).alpha_f
            assert chi_tilde_exact(params).alpha_f_mag**2 == abs(alpha_f) ** 2, params
            report = error_ratio(params, lo, det)
            assert (report.n1, report.n2) == detector_counts(
                lo.beta_mag, lo.xi, alpha_f), params

    def test_dark_point_raises(self):
        # At the float dark point the unit port amplitude is a ~1e-16 rounding
        # residue; a large N must not lift it over the zero-amplitude rule.
        for n_photons in (0.0, 4.0, 1e4, 1e8):
            params = MziParams(theta2=math.pi / 4, chi=0.3,
                               alpha=coherent_amplitude(n_photons), gamma=0.3)
            with pytest.raises(ZeroAmplitude):
                chi_tilde_exact(params)
        with pytest.raises(ZeroAmplitude):
            chi_tilde_exact(MziParams(theta2=0.6, chi=0.1, alpha=0j))

    @pytest.mark.parametrize("n_photons", [100.0, 1e4])
    @pytest.mark.parametrize("gamma", [0.0, 0.01])
    @pytest.mark.parametrize("chi", [1e-5, -1e-3, 0.02])
    def test_port_intensity_near_dark_point(self, chi, gamma, n_photons):
        # Oracle: |alpha_f|^2 = N [sin^2(pi/4 - theta2) + sin(2 theta2)
        # sin^2((chi - gamma)/2)], a sum of non-negative terms that does not
        # cancel.  sin(math.pi) is the error of math.pi, so adding a quarter
        # of it gives pi/4 - theta2 for the float theta2 without rounding.
        for k in range(2, 8):
            for side in (-1.0, 1.0):
                theta2 = math.pi / 4 + side * 10.0**-k
                offset = (math.pi / 4 - theta2) + math.sin(math.pi) / 4
                photons = n_photons * (
                    math.sin(offset) ** 2
                    + math.sin(2 * theta2) * math.sin((chi - gamma) / 2) ** 2
                )
                params = MziParams(theta2=theta2, chi=chi, gamma=gamma,
                                   alpha=coherent_amplitude(n_photons))
                got = chi_tilde_exact(params).alpha_f_mag ** 2
                assert math.isclose(got, photons, rel_tol=1e-9), (k, side)

    @pytest.mark.parametrize("n_photons", [1.0, 100.0, 1e4])
    @pytest.mark.parametrize("chi", [-0.1, -1e-3, 1e-3, 0.1, 1.0])
    def test_beyond_aav_at_dark_point(self, n_photons, chi):
        # At theta2 = pi/4, gamma = 0 the small-coupling form has no port
        # field, while the exact port holds N (1 - cos chi) / 2 ~ N chi^2 / 4
        # photons at phase copysign(pi/2, chi) + chi/2.  The oracle writes
        # 1 - cos chi as 2 sin^2(chi/2), which does not cancel at small chi.
        alpha = coherent_amplitude(n_photons)
        params = MziParams(theta2=math.pi / 4, chi=chi, alpha=alpha)
        photons = n_photons * math.sin(chi / 2) ** 2
        amp = chi_tilde_exact(params)
        assert math.isclose(propagate_mzi(params).intensity_f, photons, rel_tol=1e-9)
        assert math.isclose(amp.alpha_f_mag**2, photons, rel_tol=1e-9)
        assert abs(amp.chi_tilde - (math.copysign(math.pi / 2, chi) + chi / 2)) < 1e-10
        with pytest.raises(DarkPointSingularity):
            chi_tilde_aav(params)

    def test_continuous_on_each_side_of_dark_point(self):
        # No branch jump approaching the dark angle from either side.
        for grid in (
            np.linspace(0.70, math.pi / 4 - 1e-6, 400),
            np.linspace(math.pi / 4 + 1e-6, 0.86, 400),
        ):
            phases = [
                chi_tilde_exact(
                    MziParams(theta2=t, chi=1e-2, alpha=1.0 + 0j)
                ).chi_tilde
                for t in grid
            ]
            steps = np.abs(np.diff(phases))
            assert steps.max() < 0.2

    @settings(derandomize=True, database=None, max_examples=300)
    @given(st.floats(0.01, math.pi / 4 - 1e-3) | st.floats(math.pi / 4 + 1e-3, 1.5),
           st.floats(0.01, math.pi - 0.01) | st.floats(-math.pi + 0.01, -0.01))
    def test_wrap_jumps_by_two_pi(self, theta2, gamma):
        # The port amplitude e^{i chi} cos(theta2) - e^{i gamma} sin(theta2)
        # crosses the negative real axis where sin(chi) = tan(theta2) sin(gamma)
        # and its real part is negative.  Across such a chi, chi_tilde jumps by
        # 2 pi plus the turn of the amplitude, which the ratio of the two
        # amplitudes gives without a wrap.  |sin(chi)| keeps 1e-3 below 1, so
        # asin fixes each crossing far inside the 2e-9 step.
        def unit(chi):
            return (cmath.exp(1j * chi) * math.cos(theta2)
                    - cmath.exp(1j * gamma) * math.sin(theta2))

        s = math.tan(theta2) * math.sin(gamma)
        assume(abs(s) < 1 - 1e-3)
        crossings = [chi for chi in (math.asin(s), math.pi - math.asin(s))
                     if unit(chi).real < 0]
        assume(crossings)
        for chi in crossings:
            below, above = chi - 1e-9, chi + 1e-9
            jump = _forward(theta2, above, gamma) - _forward(theta2, below, gamma)
            turn = cmath.phase(unit(above) / unit(below))
            assert abs(abs(jump - turn) - 2 * math.pi) < 1e-13

    def test_aav_error_vanishes_quadratically(self):
        # The relative gap to the weak-value prediction shrinks ~ chi^2 at
        # gamma = 0 (the gap is even in chi), dominated by chi_tilde^2 / 3.
        chis = np.logspace(-6, -3, 7)
        gaps = []
        for chi in chis:
            params = MziParams(theta2=NEAR_DARK, chi=chi, alpha=1.0 + 0j)
            aav = chi_tilde_aav(params).chi_tilde
            exact = chi_tilde_exact(params).chi_tilde
            gaps.append(abs(exact - aav) / aav)
        assert all(b < a for a, b in zip(gaps[1:], gaps))
        slope = np.polyfit(np.log(chis), np.log(gaps), 1)[0]
        assert abs(slope - 2.0) < 0.1


def _forward(theta2, chi, gamma):
    params = MziParams(theta2=theta2, chi=chi, alpha=1.0 + 0j, gamma=gamma)
    return chi_tilde_exact(params).chi_tilde


class TestInvertChi:
    def test_round_trip_reference(self):
        params = MziParams(theta2=NEAR_DARK, chi=1e-2, alpha=1.0 + 0j)
        measured = chi_tilde_exact(params).chi_tilde
        assert abs(invert_chi(measured, NEAR_DARK) - 1e-2) < 1e-10

    def test_zero_maps_to_zero(self):
        assert abs(invert_chi(0.0, 0.6)) < 1e-10

    def test_round_trip_with_modulation(self):
        params = MziParams(theta2=0.7, chi=1e-4, alpha=1.0 + 0j, gamma=0.05)
        measured = chi_tilde_exact(params).chi_tilde
        assert abs(invert_chi(measured, 0.7, 0.05) - 1e-4) < 1e-10

    def test_round_trip_random(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            theta2 = rng.uniform(0.05, math.pi / 4 - 0.01)
            gamma = rng.uniform(-0.2, 0.2)
            chi = rng.uniform(-0.3, 0.3)
            params = MziParams(theta2=theta2, chi=chi, alpha=1.0 + 0j, gamma=gamma)
            measured = chi_tilde_exact(params).chi_tilde
            assert abs(invert_chi(measured, theta2, gamma) - chi) < 1e-10

    def test_overshot_postselection(self):
        # Beyond the dark angle the forward map wraps and is non-monotone;
        # the solver must still return some phase reproducing the measurement.
        params = MziParams(theta2=0.8, chi=0.1, alpha=1.0 + 0j)
        measured = chi_tilde_exact(params).chi_tilde
        recovered = invert_chi(measured, 0.8)
        check = MziParams(theta2=0.8, chi=recovered, alpha=1.0 + 0j)
        assert abs(chi_tilde_exact(check).chi_tilde - measured) < 1e-9

    def test_no_root(self):
        # Forward image at theta2=0.3 never reaches 3 rad.
        with pytest.raises(NoRoot):
            invert_chi(3.0, 0.3)

    def test_past_dark_close_roots(self):
        # The two roots lie within 3e-5 of each other, close enough for a
        # bracketing solver to miss both and raise NoRoot.
        theta2, gamma = 0.8138007990985905, 0.14106704922706328
        chi = -0.19291433989118023
        measured = _forward(theta2, chi, gamma)
        recovered = invert_chi(measured, theta2, gamma)
        assert abs(wrap_angle(_forward(theta2, recovered, gamma) - measured)) < 1e-9
        branches = invert_chi_branches(measured, theta2, gamma)
        assert len(branches) == 2
        assert min(abs(b - chi) for b in branches) < 1e-10

    def test_overshot_branches_and_rule(self):
        # Past the dark point the weak-signal root, the one nearer zero, wins.
        measured = _forward(0.8, 0.1, 0.0)
        branches = invert_chi_branches(measured, 0.8)
        assert len(branches) == 2
        assert abs(branches[0] - 0.1) < 1e-12
        assert abs(branches[1] - 0.5679) < 1e-4
        assert invert_chi(measured, 0.8) == branches[0]

    def test_branches_random_past_dark(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            theta2 = rng.uniform(math.pi / 4 + 0.01, math.pi / 2 - 0.02)
            gamma = rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.2)
            chi = rng.uniform(-0.3, 0.3)
            measured = _forward(theta2, chi, gamma)
            branches = invert_chi_branches(measured, theta2, gamma)
            assert 1 <= len(branches) <= 2
            assert list(branches) == sorted(branches)
            assert invert_chi(measured, theta2, gamma) in branches
            assert min(abs(b - chi) for b in branches) < 1e-10
            for b in branches:
                assert abs(wrap_angle(_forward(theta2, b, gamma) - measured)) < 1e-9

    def test_single_branch_below_dark(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            theta2 = rng.uniform(0.05, math.pi / 4 - 0.01)
            gamma = rng.uniform(-0.2, 0.2)
            chi = rng.uniform(-0.3, 0.3)
            branches = invert_chi_branches(_forward(theta2, chi, gamma), theta2, gamma)
            assert len(branches) == 1
            assert abs(branches[0] - chi) < 1e-10

    def test_merged_branches_survive_rounding(self):
        # At a merge of the two branches, chi_tilde's rounding lifts
        # |tan(theta2) sin(gamma - chi_tilde)| to 1 + 2**-52; that is no NoRoot.
        theta2, chi, gamma = 0.8365602745041751, 1.1774261424620263, 1.6225084893386965
        measured = _forward(theta2, chi, gamma)
        assert abs(math.tan(theta2) * math.sin(gamma - measured)) > 1.0
        assert abs(invert_chi(measured, theta2, gamma) - chi) < 1e-7

    def test_exact_merge_bound(self):
        # |tan(theta2) sin(gamma - chi_tilde)| equals 1 + MERGE_ROUNDING /
        # cos(theta2) exactly: the bound is kept, and one float step lower in
        # chi_tilde it is passed.
        theta2, gamma, measured = 0.8380165915463175, -0.488669688141782, 1.5333002804073352
        s = math.tan(theta2) * math.sin(gamma - measured)
        assert abs(s) == 1.0 + MERGE_ROUNDING / abs(math.cos(theta2))
        assert invert_chi_branches(measured, theta2, gamma) == (-0.03749604638756132,)
        assert invert_chi_branches(math.nextafter(measured, 0.0), theta2, gamma) == ()

    def test_no_branch(self):
        assert invert_chi_branches(3.0, 0.3) == ()
        # |tan(theta2) * sin(gamma - chi_tilde)| > 1: not even a candidate.
        assert invert_chi_branches(-1.2, 1.3) == ()

    @pytest.mark.parametrize("theta2, chi, gamma", [
        # chi two float steps inside -pi/2: its root rounds onto the edge.
        (1.0, -1.5707963267948961, -1.0),
        # Past the dark angle, where the root barely moves with chi_tilde, the
        # rounding of chi_tilde + d alone puts it six steps past pi/2.
        (0.7973121765196161, 1.5707963267948952, 1.469368665203878),
    ])
    def test_root_on_the_edge_survives_rounding(self, theta2, chi, gamma):
        edge = math.copysign(math.pi / 2, chi)
        assert edge in invert_chi_branches(_forward(theta2, chi, gamma), theta2, gamma)

    def test_merged_root_past_the_edge_is_none(self):
        # A merge of the two branches at chi = 2.13, past pi/2, where
        # tan(theta2) sin(gamma - chi_tilde) rounds past 1: the clipped asin
        # fixes the root's gain to about 1e-16, yet the root is no bare phase.
        theta2, gamma = 1.0, 3.0
        measured = gamma - math.pi + math.asin(1.0 / math.tan(theta2))
        for _ in range(2):
            measured = math.nextafter(measured, math.inf)
        assert math.tan(theta2) * math.sin(gamma - measured) > 1.0
        assert invert_chi_branches(measured, theta2, gamma) == ()

    # theta2 on both sides of the dark angle keeps 1e-3 from it, where the
    # amplitude can vanish, and from pi/2, where the port no longer depends on
    # chi.  chi spans the float interval [-pi/2, pi/2], whose ends lie inside
    # the true open one; a root rounded past an end is kept on it.
    BOTH_SIDES = (st.floats(0.0, math.pi / 4 - 1e-3)
                  | st.floats(math.pi / 4 + 1e-3, math.pi / 2 - 1e-3))

    @settings(derandomize=True, database=None, max_examples=1000)
    @given(BOTH_SIDES, st.floats(-math.pi / 2, math.pi / 2),
           st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
    def test_branches_contain_true_chi(self, theta2, chi, gamma, input_phase):
        params = MziParams(theta2=theta2, chi=chi, gamma=gamma,
                           alpha=coherent_amplitude(100.0, input_phase))
        branches = invert_chi_branches(chi_tilde_exact(params).chi_tilde, theta2, gamma)
        # Where two branches merge, past the dark angle, a root is fixed only
        # to about sqrt(eps / cos(theta2)).
        tol = 8 * math.sqrt(sys.float_info.epsilon / math.cos(theta2))
        assert min(abs(b - chi) for b in branches) < tol


def test_import_pulls_no_scipy():
    # The phase inversion is closed form: importing the package must stay
    # free of scipy, whose import alone used to cost most of a CLI run.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, psamzi; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def _type_checking_namespace(module):
    """``module``'s globals plus the imports it makes only under TYPE_CHECKING."""
    namespace = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(node.body, []), module.__file__, "exec"), namespace)
    return namespace


def test_public_annotations_resolve():
    # Every annotation names something the module defines or imports, for a
    # type checker; numpy stays out of the runtime import.
    for name in psamzi.__all__:
        obj = getattr(psamzi, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            module = sys.modules[obj.__module__]
            typing.get_type_hints(obj, globalns=_type_checking_namespace(module))


def _top_level_names(module):
    """The names ``module`` binds itself: its classes, functions and assignments."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
    return names


def test_each_public_name_is_listed_once():
    # Each library module lists its own public names; the package exports
    # their sorted union, and ``from psamzi import *`` binds exactly that.
    modules = [amplification, errors, homodyne, optics, saturation, shots]
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert psamzi.__all__ == sorted(listed)
    for module in modules:
        assert set(module.__all__) <= _top_level_names(module), module.__name__
    namespace = {}
    exec("from psamzi import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(psamzi.__all__)


def _imported_packages(args, cwd):
    """Run a fresh interpreter under ``-X importtime``; return it and its top packages."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=cwd,
        capture_output=True,
        text=True,
    )
    packages = {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    return result, packages


@pytest.mark.parametrize("args", [
    ["-c", "import psamzi"],
    ["-c", "from psamzi import *"],
    ["-c", "import psamzi.cli"],
    ["-m", "psamzi.cli", "fig2"],
    ["-m", "psamzi.cli", "fig2", "--scan", "theta2", "0.6", "0.95", "2001"],
    ["-m", "psamzi.cli", "fig4", "--config", "detector.json"],
    ["-m", "psamzi.cli", "single", "--config", "point.json"],
    # sample_shots rejects a bad shot count before it imports numpy.
    ["-c", "from psamzi import sample_shots\n"
           "try:\n    sample_shots(1.0, 0.0, 2.0, 1)\nexcept ValueError:\n    pass"],
])
def test_closed_forms_load_no_numpy(args, tmp_path):
    # Only the Monte-Carlo needs numpy and its thread pool; numpy's import
    # would cost most of a CLI run.  The records are named tuples, so nothing
    # loads dataclasses and the inspect it imports.  Without ``site`` (-S),
    # whose start-up hooks may load them first, psamzi itself loads no pathlib
    # or typing.
    (tmp_path / "detector.json").write_text('{"detector": {"k_max": 450, "n_sat": 500}}')
    (tmp_path / "point.json").write_text('{"mzi": {"theta2": 0.78, "chi": 0.01}}')
    never = {"numpy", "concurrent", "dataclasses", "inspect"}
    for flags, unloaded in (([], never), (["-S"], never | {"pathlib", "typing"})):
        result, packages = _imported_packages([*flags, *args], tmp_path)
        assert result.returncode == 0, result.stderr[-500:]
        assert "psamzi" in packages
        assert not packages & unloaded, (flags, packages & unloaded)


def test_fig3_cli_loads_numpy_and_runs(tmp_path):
    # The positive control of the probe above: fig3 draws its shots with numpy,
    # its rows on a thread pool.
    result, packages = _imported_packages(["-m", "psamzi.cli", "fig3", "--seed", "7"], tmp_path)
    assert result.returncode == 0, result.stderr[-500:]
    assert "numpy" in packages
    assert "concurrent" in packages
