"""Acceptance criteria for the full toolkit.

Each test prints one pass/fail line (visible with ``pytest -s``) and then
asserts, so the whole gate is readable from a single run.
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psamzi import (
    DetectorParams,
    LoConfig,
    MziParams,
    chi_tilde_aav,
    chi_tilde_exact,
    error_ratio,
    invert_chi,
    propagate_mzi,
    quadrature_stats_aav,
    quadrature_stats_exact,
    sample_shots,
    wrap_angle,
)
from psamzi.cli import main
from psamzi.runner import DEFAULT_N_VALUES, default_theta2_grid

NEAR_DARK = math.pi / 4 - 0.003


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def port_amplitude_oracle(theta2, gamma, chi, alpha):
    """Independent 2x2 matrix propagation of the amplitude pair, 50:50 splitter first."""

    def splitter(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -1j * s], [-1j * s, c]])

    v = splitter(math.pi / 4) @ np.array([alpha, 0.0], dtype=complex)
    v = np.array([v[0] * cmath.exp(1j * chi), v[1] * cmath.exp(1j * gamma)])
    v = splitter(theta2) @ v
    return complex(v[0])


def test_criterion_01_dark_port_exactness():
    worst = 0.0
    for alpha in (1.0 + 0j, 10.0 * cmath.exp(0.4j), 300.0 - 40.0j):
        fields = propagate_mzi(MziParams(theta2=math.pi / 4, chi=0.0, alpha=alpha))
        worst = max(worst, abs(fields.alpha_f) / abs(alpha))
    ok = worst < 1e-14
    report("1 dark-port exactness", ok, f"max |alpha_f|/|alpha| = {worst:.2e}")
    assert ok


def test_criterion_02_energy_conservation():
    rng = np.random.default_rng(20250801)
    worst = 0.0
    for _ in range(10_000):
        params = MziParams(
            theta2=rng.uniform(0, math.pi / 2),
            chi=rng.uniform(-math.pi, math.pi),
            alpha=cmath.rect(rng.uniform(1e-3, 100.0), rng.uniform(-math.pi, math.pi)),
            gamma=rng.uniform(-math.pi, math.pi),
        )
        fields = propagate_mzi(params)
        total = fields.intensity_f + fields.intensity_fbar
        worst = max(worst, abs(total - params.n_photons) / params.n_photons)
    ok = worst <= 1e-12
    report("2 energy conservation", ok, f"max relative defect = {worst:.2e}")
    assert ok


def test_criterion_03_amplification_anchor():
    params = MziParams(theta2=NEAR_DARK, chi=1e-2, alpha=10.0 + 0j)
    amp = chi_tilde_exact(params)
    ratio = amp.chi_tilde / 1e-2
    oracle = wrap_angle(
        cmath.phase(port_amplitude_oracle(NEAR_DARK, 0.0, 1e-2, 10.0))
    )
    oracle_gap = abs(amp.chi_tilde - oracle)
    ok = 95 <= ratio <= 110 and oracle_gap < 1e-10
    report(
        "3 amplification anchor",
        ok,
        f"chi_tilde/chi = {ratio:.3f}, oracle gap = {oracle_gap:.2e} rad",
    )
    assert ok


def test_criterion_04_aav_convergence():
    worst_small = 0.0
    for theta2 in np.linspace(0.6, 0.78, 200):
        params = MziParams(theta2=theta2, chi=1e-4, alpha=1.0 + 0j)
        aav = chi_tilde_aav(params).chi_tilde
        exact = chi_tilde_exact(params).chi_tilde
        worst_small = max(worst_small, abs(aav - exact) / abs(exact))
    params = MziParams(theta2=NEAR_DARK, chi=1e-2, alpha=1.0 + 0j)
    aav_large = chi_tilde_aav(params).chi_tilde
    exact_large = chi_tilde_exact(params).chi_tilde
    divergence = abs(aav_large - exact_large) / abs(exact_large)
    ok = worst_small < 1e-2 and divergence > 0.30
    report(
        "4 aav convergence",
        ok,
        f"max small-coupling gap = {worst_small:.2e}, "
        f"large-coupling divergence = {divergence:.2f}",
    )
    assert ok


def test_criterion_05_sensitivity_formulas():
    rng = np.random.default_rng(20250802)
    step = 1e-8
    worst = 0.0
    for _ in range(1000):
        theta2 = rng.uniform(0.1, 0.7)
        chi = rng.uniform(1e-4, 0.05) * rng.choice([-1.0, 1.0])
        n = rng.uniform(1.0, 1000.0)
        params = MziParams(theta2=theta2, chi=chi, alpha=math.sqrt(n) + 0j)
        for stats, amp_phase, prefactor in (
            (
                quadrature_stats_exact(params),
                chi_tilde_exact(params).chi_tilde,
                chi_tilde_exact(params).alpha_f_mag,
            ),
            (
                quadrature_stats_aav(params),
                chi_tilde_aav(params).chi_tilde,
                math.sqrt(n / 2.0) * (math.cos(theta2) - math.sin(theta2)),
            ),
        ):
            slope = (
                prefactor * math.sin(amp_phase + step)
                - prefactor * math.sin(amp_phase - step)
            ) / (2 * step)
            oracle = abs(amp_phase) * abs(slope) / 0.5
            worst = max(worst, abs(abs(stats.sensitivity) - oracle) / oracle)
    base = quadrature_stats_exact(
        MziParams(theta2=0.72, chi=2e-3, alpha=math.sqrt(123.0) + 0j)
    ).sensitivity
    doubled = quadrature_stats_exact(
        MziParams(theta2=0.72, chi=2e-3, alpha=math.sqrt(246.0) + 0j)
    ).sensitivity
    scaling_defect = abs(doubled / base - math.sqrt(2.0))
    ok = worst < 1e-6 and scaling_defect < 1e-12
    report(
        "5 sensitivity formulas",
        ok,
        f"max finite-difference gap = {worst:.2e}, "
        f"sqrt(2)-scaling defect = {scaling_defect:.2e}",
    )
    assert ok


def test_criterion_06_shot_averaging():
    params = MziParams(theta2=NEAR_DARK, chi=1e-2, alpha=10.0 + 0j)
    fields = propagate_mzi(params)
    amp = chi_tilde_exact(params)
    stats = quadrature_stats_exact(params)
    slope = amp.alpha_f_mag * abs(math.cos(amp.chi_tilde))
    details = []
    ok = True
    for m in (100, 1000, 10_000):
        seeds = np.random.SeedSequence([20250803, m]).generate_state(500)
        means = np.array(
            [
                sample_shots(fields.alpha_f, math.pi / 2, m, int(seed)).mean()
                for seed in seeds
            ]
        )
        band = means.var(ddof=1) * m / 0.25
        sensitivity_mc = amp.chi_tilde * slope / means.std(ddof=1)
        tracking = sensitivity_mc / (stats.sensitivity * math.sqrt(m))
        ok = ok and 0.8 <= band <= 1.2 and abs(tracking - 1.0) < 0.2
        details.append(f"M={m}: var ratio {band:.3f}, mc/analytic {tracking:.3f}")
    report("6 shot averaging", ok, "; ".join(details))
    assert ok


def test_criterion_07a_saturation_small_count_regime():
    # Linear-inversion bias floor is (n1 + n2) / (2 * n_sat) ~ 1e-2 here: the
    # LO alone contributes |beta|^2/2 = 5 photons per detector, so eta_e
    # cannot reach 1e-3 anywhere inside the max(n1, n2) < 0.02 * n_sat gate.
    lo = LoConfig(beta_mag=math.sqrt(10.0), xi=math.pi / 2)
    det = DetectorParams(k_max=450.0, n_sat=500.0)
    gate = 0.02 * det.n_sat
    gated = []
    for n in DEFAULT_N_VALUES:
        for theta2 in default_theta2_grid():
            params = MziParams(theta2=theta2, chi=1e-4, alpha=math.sqrt(n) + 0j)
            saturation = error_ratio(params, lo, det)
            if max(saturation.n1, saturation.n2) < gate:
                gated.append(saturation.eta_e)
    assert gated, "gate never fired; criterion would be vacuous"
    worst = max(gated)
    ok = worst < 1e-3
    report(
        "7a saturation small-count regime",
        ok,
        f"{len(gated)} gated rows, max eta_e = {worst:.3e} vs bound 1e-3",
    )
    assert ok, (
        f"max eta_e over gated rows is {worst:.3e}; the readout chain has a "
        f"bias floor of about (n1+n2)/(2*n_sat) ~ 1e-2 at |beta|^2 = 10"
    )


def test_criterion_07b_saturation_postselection_suppression():
    lo = LoConfig(beta_mag=math.sqrt(10.0), xi=math.pi / 2)
    det = DetectorParams(k_max=450.0, n_sat=500.0)
    alpha = math.sqrt(2000.0) + 0j
    near_dark = error_ratio(
        MziParams(theta2=math.pi / 4 - 0.01, chi=1e-4, alpha=alpha), lo, det
    ).eta_e
    weak = error_ratio(
        MziParams(theta2=0.1, chi=1e-4, alpha=alpha), lo, det
    ).eta_e
    ok = near_dark < weak
    report(
        "7b saturation suppressed by postselection",
        ok,
        f"eta_e(pi/4-0.01) = {near_dark:.4f} < eta_e(0.1) = {weak:.4f}",
    )
    assert ok


def test_criterion_08_determinism(tmp_path):
    fig4_cfg = tmp_path / "fig4.json"
    fig4_cfg.write_text(
        json.dumps(
            {
                "lo": {"beta_mag": math.sqrt(10.0)},
                "detector": {"k_max": 450.0, "n_sat": 500.0},
                "scan": {"variable": "theta2", "grid": [0.1, 0.4, 0.7]},
            }
        )
    )
    single_cfg = tmp_path / "single.json"
    single_cfg.write_text(json.dumps({"mzi": {"theta2": 0.7, "chi": 1e-3}}))
    invocations = {
        "fig2": ["fig2", "--scan", "theta2", "0.1", "0.78", "50"],
        "fig3": ["fig3", "--seed", "7", "--scan", "m", "100", "1000", "3"],
        "fig4": ["fig4", "--config", str(fig4_cfg)],
        "single": ["single", "--config", str(single_cfg)],
    }
    # The third run is a fresh interpreter with another string-hash seed, so
    # the output may depend on nothing but the config and the seed.
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "PYTHONHASHSEED": hash_seed}
    ok = True
    details = []
    for name, argv in invocations.items():
        outputs = []
        for label in ("a", "b", "fresh"):
            out = tmp_path / f"{name}_{label}.out"
            if label == "fresh":
                subprocess.run([sys.executable, "-m", "psamzi.cli", *argv, "--out", str(out)],
                               env=env, check=True)
            else:
                assert main(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        identical = outputs[0] == outputs[1] == outputs[2]
        ok = ok and identical
        details.append(f"{name}: {'identical' if identical else 'DIFFERS'}")
    report("8 determinism", ok, "; ".join(details))
    assert ok


def test_criterion_09_round_trip_estimation():
    rng = np.random.default_rng(20250804)
    worst = 0.0
    for _ in range(1000):
        theta2 = rng.uniform(0.05, math.pi / 4 - 0.01)
        gamma = rng.uniform(-0.2, 0.2)
        chi = rng.uniform(-0.3, 0.3)
        params = MziParams(theta2=theta2, chi=chi, alpha=1.0 + 0j, gamma=gamma)
        measured = chi_tilde_exact(params).chi_tilde
        worst = max(worst, abs(invert_chi(measured, theta2, gamma) - chi))
    ok = worst < 1e-10
    report("9 round-trip estimation", ok, f"max |recovered - chi| = {worst:.2e}")
    assert ok
