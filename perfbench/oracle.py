"""Independent output checks for the benchmark.

Every figure row is recomputed here from 2x2 beam-splitter matrices
(``psamzi.bs_matrix``) composed with the arm phases, never from stored golden
bytes, so a change that alters the bytes of a table but keeps its numbers
right (for example a new Monte-Carlo seeding) still passes, while a wrong
number fails.

Each value is judged by its deviation ``|got - want| / max(1, |want|, scale)``
where ``scale`` is the size of the operands the value is a small difference
of (an unwrapped phase, a cancelling band edge).  CSV cells carry 13
significant digits, a rounding of at most 5e-13, so one rule serves parsed CSV
and in-memory rows:

- up to ``REL_TOL`` (1e-12) the value is exact;
- up to ``WRONG_TOL`` (1e-6) it is counted as *imprecise*: psamzi loses digits
  near the dark point, for example ``1 - sin(2 theta2) cos(chi - gamma)``
  cancels in ``chi_tilde_exact``'s amplitude, and fig4's ``eta_e`` has been
  seen 1.3e-7 off; the count and the worst deviation are reported;
- beyond that it is a wrong number and fails the check.
"""

from __future__ import annotations

import cmath
import math

REL_TOL = 1e-12
WRONG_TOL = 1e-6
# The dark point of the postselected port: the weak value's overlap falls
# below this and the runner emits a sentinel row (mirrors the documented rule).
DARK_OVERLAP_TOL = 1e-15
# A recovered phase is a valid root when its forward image reproduces the
# measurement to this (the contract of ``test_overshot_postselection``).
ROOT_TOL = 1e-9
ROUND_TRIP_TOL = 1e-10  # acceptance criterion 9
# fig3's Monte-Carlo sensitivity is a ratio against a sample standard
# deviation over ``runs`` batch means, whose relative standard error is
# 1/sqrt(2 (runs - 1)); six of those bound it.
MC_SIGMAS = 6.0


def wrap(phi: float) -> float:
    w = math.remainder(phi, math.tau)
    return math.pi if w <= -math.pi else w


class Verdicts:
    """Tally of compared values: wrong ones as errors, imprecise ones counted."""

    def __init__(self):
        self.checked = 0
        self.imprecise = 0
        self.worst = 0.0
        self.errors: list[str] = []

    def compare(self, what: str, got, want: float, scale: float = 1.0,
                angle: bool = False) -> None:
        self.checked += 1
        if got is None:
            self.errors.append(f"{what} is a sentinel, oracle {want!r}")
            return
        diff = abs(wrap(got - want)) if angle else abs(got - want)
        deviation = diff / max(1.0, abs(want), scale)
        self.worst = max(self.worst, deviation)
        if not deviation <= WRONG_TOL:
            self.errors.append(f"{what}={got!r}, oracle {want!r}")
        elif deviation > REL_TOL:
            self.imprecise += 1


class Interferometer:
    """Port amplitudes by explicit composition BS2 . phases . BS1."""

    def __init__(self, bs_matrix, theta1: float = math.pi / 4):
        self.bs_matrix = bs_matrix
        self.theta1 = theta1

    def ports(self, theta2: float, chi: float, gamma: float, alpha: complex):
        import numpy as np  # not at module level: numpy's import is measured

        phases = np.diag([cmath.exp(1j * chi), cmath.exp(1j * gamma)])
        m = self.bs_matrix(theta2) @ phases @ self.bs_matrix(self.theta1)
        return complex(m[0, 0] * alpha), complex(m[1, 0] * alpha)

    def weak_value(self, theta2: float, gamma: float) -> complex | None:
        b1, b2 = self.bs_matrix(self.theta1), self.bs_matrix(theta2)
        path1 = complex(b2[0, 0] * b1[0, 0])
        path2 = complex(b2[0, 1] * cmath.exp(1j * gamma) * b1[1, 0])
        if abs(path1 + path2) < DARK_OVERLAP_TOL:
            return None
        return path1 / (path1 + path2)

    def chi_tilde(self, theta2: float, chi: float, gamma: float, alpha: complex):
        alpha_f, _ = self.ports(theta2, chi, gamma, alpha)
        return wrap(cmath.phase(alpha_f) - cmath.phase(alpha)), abs(alpha_f)


def parse_csv(text: str) -> tuple[str, list[str], list[list[float | None]]]:
    """Split a psamzi CSV into its provenance line, header and numeric rows."""
    lines = text.splitlines()
    header = lines[1].split(",")
    rows = [
        [None if cell == "NA" else float(cell) for cell in line.split(",")]
        for line in lines[2:]
    ]
    return lines[0], header, rows


def _grid_checks(v: Verdicts, figure: str, rows, blocks, grid, value_col: int,
                 ifo: Interferometer, gamma: float) -> bool:
    """Row and sentinel counts of a (block x grid) table; False stops the check."""
    if len(rows) != len(blocks) * len(grid):
        v.errors.append(f"{figure} has {len(rows)} rows, expected {len(blocks) * len(grid)}")
        return False
    dark = sum(1 for t in grid if ifo.weak_value(t, gamma) is None)
    sentinels = sum(1 for r in rows if r[value_col] is None)
    if sentinels != dark * len(blocks):
        v.errors.append(f"{figure} has {sentinels} sentinel rows, "
                        f"expected {dark * len(blocks)}")
    return True


def check_fig2(v: Verdicts, rows, spec, ifo: Interferometer, sample: list[int]) -> None:
    """Counts and sampled rows of a fig2 table.

    ``spec`` holds chi_values, grid, gamma, n_photons, input_phase.
    """
    grid, chis, gamma = spec["grid"], spec["chi_values"], spec["gamma"]
    if not _grid_checks(v, "fig2", rows, chis, grid, 2, ifo, gamma):
        return
    alpha = cmath.rect(math.sqrt(spec["n_photons"]), spec["input_phase"])
    for i in sample:
        chi, theta2 = chis[i // len(grid)], grid[i % len(grid)]
        row = rows[i]
        v.compare(f"fig2 row {i} chi", row[0], chi)
        v.compare(f"fig2 row {i} theta2", row[1], theta2)
        a_w = ifo.weak_value(theta2, gamma)
        if a_w is None:
            if any(x is not None for x in row[2:]):
                v.errors.append(f"fig2 row {i} at a dark point is not a sentinel")
            continue
        chi_t, mag = ifo.chi_tilde(theta2, chi, gamma, alpha)
        aav = a_w.real * chi
        v.compare(f"fig2 row {i} chi_tilde_aav", row[2], aav, abs(aav), angle=True)
        v.compare(f"fig2 row {i} chi_tilde_exact", row[3], chi_t, angle=True)
        v.compare(f"fig2 row {i} weak_value", row[4], a_w.real)
        v.compare(f"fig2 row {i} port_intensity", row[5], mag**2)


def check_fig4(v: Verdicts, rows, spec, ifo: Interferometer, sample: list[int]) -> None:
    """Counts and sampled rows of a fig4 table.

    ``spec`` holds n_values, grid, gamma, chi, input_phase, beta_mag, xi,
    k_max and n_sat.
    """
    grid, ns, gamma, chi = spec["grid"], spec["n_values"], spec["gamma"], spec["chi"]
    if not _grid_checks(v, "fig4", rows, ns, grid, 4, ifo, gamma):
        return
    beta, xi = spec["beta_mag"], spec["xi"]
    k_max, n_sat = spec["k_max"], spec["n_sat"]
    for i in sample:
        n_photons, theta2 = ns[i // len(grid)], grid[i % len(grid)]
        row = rows[i]
        v.compare(f"fig4 row {i} theta2", row[0], theta2)
        v.compare(f"fig4 row {i} n_photons", row[1], n_photons)
        if ifo.weak_value(theta2, gamma) is None:
            if any(x is not None for x in row[2:]):
                v.errors.append(f"fig4 row {i} at a dark point is not a sentinel")
            continue
        alpha = cmath.rect(math.sqrt(n_photons), spec["input_phase"])
        alpha_f, _ = ifo.ports(theta2, chi, gamma, alpha)
        chi_t = wrap(cmath.phase(alpha_f) - cmath.phase(alpha))
        x_bar = (alpha_f * cmath.exp(-1j * xi)).real
        half = 0.5 * (beta**2 + abs(alpha_f) ** 2)
        n1, n2 = max(half + beta * x_bar, 0.0), max(half - beta * x_bar, 0.0)
        # exp(-n2/Ns) - exp(-n1/Ns) without cancelling: n1 - n2 = 2 beta x_bar.
        x_sat = (k_max / (2 * beta) * math.exp(-n2 / n_sat)
                 * -math.expm1(-2 * beta * x_bar / n_sat))
        ratio = x_sat * n_sat / (k_max * abs(alpha_f))
        biased = math.asin(min(1.0, max(-1.0, ratio)))
        eta = abs(biased - chi_t) / abs(chi_t)
        v.compare(f"fig4 row {i} n1", row[2], n1)
        v.compare(f"fig4 row {i} n2", row[3], n2)
        v.compare(f"fig4 row {i} eta_e", row[4], eta,
                  (abs(biased) + abs(chi_t)) / abs(chi_t))


def check_fig3(v: Verdicts, rows, spec, ifo: Interferometer) -> None:
    """Analytic columns to the oracle; the Monte-Carlo column within MC_SIGMAS.

    ``spec`` holds theta2, chi, gamma, n_photons, input_phase, m_grid, runs.
    """
    if [r[0] for r in rows] != list(spec["m_grid"]):
        v.errors.append("fig3 rows do not follow the m grid")
        return
    alpha = cmath.rect(math.sqrt(spec["n_photons"]), spec["input_phase"])
    chi_t, mag = ifo.chi_tilde(spec["theta2"], spec["chi"], spec["gamma"], alpha)
    slope = mag * abs(math.cos(chi_t))
    mc_bound = MC_SIGMAS / math.sqrt(2 * (spec["runs"] - 1))
    for row in rows:
        m = row[0]
        sens = chi_t * slope / 0.5 * math.sqrt(m)
        band = 0.5 / slope / math.sqrt(m)
        v.compare(f"fig3 m={m:g} sensitivity", row[1], sens)
        v.compare(f"fig3 m={m:g} chi_tilde", row[3], chi_t)
        v.compare(f"fig3 m={m:g} chi_tilde_lower", row[4], chi_t - band, band)
        v.compare(f"fig3 m={m:g} chi_tilde_upper", row[5], chi_t + band, band)
        if row[2] is None or abs(row[2] / sens - 1.0) > mc_bound:
            v.errors.append(f"fig3 m={m:g} sensitivity_mc={row[2]!r} is not within "
                            f"{mc_bound:.3f} of {sens!r}")


def check_single(v: Verdicts, record: dict, spec: dict, ifo: Interferometer) -> None:
    """Port amplitudes, intensities and phases of a ``single`` record."""
    alpha = cmath.rect(math.sqrt(spec["n_photons"]), spec["input_phase"])
    alpha_f, alpha_fbar = ifo.ports(spec["theta2"], spec["chi"], spec["gamma"], alpha)
    n = spec["n_photons"]
    # Amplitude components and intensities are sums of terms of size sqrt(N)
    # and N; compare them on that scale, not relative to what may cancel.
    for key, want, scale in (
        ("alpha_f.re", alpha_f.real, math.sqrt(n)),
        ("alpha_f.im", alpha_f.imag, math.sqrt(n)),
        ("alpha_fbar.re", alpha_fbar.real, math.sqrt(n)),
        ("alpha_fbar.im", alpha_fbar.imag, math.sqrt(n)),
        ("port_intensity", abs(alpha_f) ** 2, n),
        ("complement_intensity", abs(alpha_fbar) ** 2, n),
        ("intensity_difference", abs(alpha_f) ** 2 - abs(alpha_fbar) ** 2, n),
        ("chi_tilde_exact", wrap(cmath.phase(alpha_f) - cmath.phase(alpha)), 1.0),
        ("quadrature_mean", (alpha_f * cmath.exp(-1j * spec["xi"])).real, math.sqrt(n)),
    ):
        got = record
        for part in key.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        v.compare(f"single {key}", got, want, scale)
