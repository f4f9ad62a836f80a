"""Weak-value, amplified-phase, and phase-inversion tests."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psamzi import (
    DarkPointSingularity,
    MODE_AAV,
    MODE_EXACT,
    MziParams,
    NoRoot,
    ZeroAmplitude,
    chi_tilde_aav,
    coherent_amplitude,
    chi_tilde_exact,
    invert_chi,
    invert_chi_branches,
    propagate_mzi,
    quadrature_stats_aav,
    weak_value,
    wrap_angle,
)

SQ2 = math.sqrt(2.0)
NEAR_DARK = math.pi / 4 - 0.003

# Frozen oracle values: cos(t2)/(cos(t2)-sin(t2)) and arg(alpha_f) at the
# reference postselection angle pi/4 - 0.003.
A_W_NEAR_DARK = 167.166166666364
CHI_TILDE_AAV_1E4 = 1.671661666664e-02
CHI_TILDE_EXACT_1E2 = 1.035379179481
CHI_TILDE_EXACT_1E4 = 1.671507374168e-02


def two_vector_weak_value(theta2, gamma):
    """Oracle: <f|A|i>/<f|i> with explicit 2-vector linear algebra."""
    pre = np.array([1.0, -1j]) / SQ2
    post = np.array([math.cos(theta2), 1j * math.sin(theta2) * cmath.exp(-1j * gamma)])
    projector = np.array([[1.0, 0.0], [0.0, 0.0]])
    return complex(post.conj() @ projector @ pre) / complex(post.conj() @ pre)


def port_phase_oracle(theta2, gamma, chi, alpha):
    """Oracle: argument of the propagated port amplitude minus the input phase."""
    fields = propagate_mzi(MziParams(theta2=theta2, chi=chi, alpha=alpha, gamma=gamma))
    return wrap_angle(cmath.phase(fields.alpha_f) - cmath.phase(alpha))


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
        amp = chi_tilde_aav(1e-4, NEAR_DARK)
        assert math.isclose(amp.chi_tilde, CHI_TILDE_AAV_1E4, rel_tol=1e-12)
        assert amp.mode == MODE_AAV
        assert not amp.imag_warning

    def test_identity_when_unrotated(self):
        for chi in (1e-4, 0.3, -0.2):
            assert math.isclose(chi_tilde_aav(chi, 0.0).chi_tilde, chi, rel_tol=1e-14)

    def test_phase_modulation_sets_imag_warning(self):
        # Modulating gamma instead of theta2 leaves the overlap imaginary, so
        # the amplified factor is not a quadrature-extractable phase.
        amp = chi_tilde_aav(1e-2, math.pi / 4, gamma=0.02)
        assert amp.imag_warning
        wv = weak_value(math.pi / 4, 0.02)
        assert abs(wv.a_w.imag) > abs(wv.a_w.real)

    def test_amplitude_scaling(self):
        amp = chi_tilde_aav(1e-4, 0.6, alpha_mag=10.0)
        wv = weak_value(0.6, 0.0)
        assert math.isclose(amp.alpha_f_mag, abs(wv.overlap) * 10.0, rel_tol=1e-14)

    def test_propagates_dark_point(self):
        with pytest.raises(DarkPointSingularity):
            chi_tilde_aav(1e-4, math.pi / 4)


class TestExactPhase:
    def test_reference_amplification(self):
        params = MziParams(theta2=NEAR_DARK, chi=1e-2, alpha=10.0 + 0j)
        amp = chi_tilde_exact(params)
        assert amp.mode == MODE_EXACT
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
        aav = chi_tilde_aav(1e-4, NEAR_DARK)
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
            fields = propagate_mzi(params)
            phase_diff = wrap_angle(
                amp.chi_tilde - wrap_angle(cmath.phase(fields.alpha_f) - cmath.phase(alpha))
            )
            assert abs(phase_diff) < 1e-12
            assert abs(amp.alpha_f_mag - abs(fields.alpha_f)) < 1e-12
            checked += 1

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
            chi_tilde_aav(chi, math.pi / 4)

    def test_unbalanced_first_splitter_raises(self):
        # The closed form would report 0.02204 here; arg(alpha_f) is 0.01203.
        # The small-coupling mean would be 0.0620; the true one is 0.0838.
        params = MziParams(theta2=0.5, chi=0.01, alpha=10.0 + 0j, theta1=0.3)
        for closed_form in (chi_tilde_exact, quadrature_stats_aav):
            with pytest.raises(ValueError):
                closed_form(params)

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

    def test_aav_error_vanishes_quadratically(self):
        # The relative gap to the weak-value prediction shrinks ~ chi^2 at
        # gamma = 0 (the gap is even in chi), dominated by chi_tilde^2 / 3.
        chis = np.logspace(-6, -3, 7)
        gaps = []
        for chi in chis:
            aav = chi_tilde_aav(chi, NEAR_DARK).chi_tilde
            exact = chi_tilde_exact(
                MziParams(theta2=NEAR_DARK, chi=chi, alpha=1.0 + 0j)
            ).chi_tilde
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

    def test_no_branch(self):
        assert invert_chi_branches(3.0, 0.3) == ()
        # |tan(theta2) * sin(gamma - chi_tilde)| > 1: not even a candidate.
        assert invert_chi_branches(-1.2, 1.3) == ()


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
    # Only the Monte-Carlo needs numpy; its import would cost most of a CLI run.
    (tmp_path / "detector.json").write_text('{"detector": {"k_max": 450, "n_sat": 500}}')
    (tmp_path / "point.json").write_text('{"mzi": {"theta2": 0.78, "chi": 0.01}}')
    result, packages = _imported_packages(args, tmp_path)
    assert result.returncode == 0, result.stderr[-500:]
    assert "psamzi" in packages
    assert "numpy" not in packages


def test_fig3_cli_loads_numpy_and_runs(tmp_path):
    # The positive control of the probe above: fig3 draws its shots with numpy.
    result, packages = _imported_packages(["-m", "psamzi.cli", "fig3", "--seed", "7"], tmp_path)
    assert result.returncode == 0, result.stderr[-500:]
    assert "numpy" in packages
