"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines as they execute.

Criterion 2 ties the leading-order coincidence closed form to the exact
rate-equation regression oracle.  The two differ at first order in
(pump_r + gamma_u)/gpar_b, about 1.3e-2 at lag 100 of the benchmark, so
``test_criterion_2_regression_oracle_tolerance`` checks that gap against the
derived first-order defect d1 (long-lag constant plus slow-eigenvalue shift)
and requires the residual to be second order: within eps_max**2 and falling
fourfold when the slow rates are halved.  The whole suite is expected to
pass.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest
from scipy.linalg import expm

from plexciton import (
    Branch,
    SystemParams,
    TrajectoryConfig,
    bloch_steady_state,
    branch_rates,
    dressed_basis,
    emission_rate,
    evolve_populations,
    fano_factor,
    g1_analytic,
    g2_histogram,
    g2_nonresonant_analytic,
    g2_resonant_analytic,
    regression_g2_nonresonant_numeric,
    regression_g2_resonant_numeric,
    simulate_stream,
    spectrum_analytic,
    spectrum_fft_check,
    steady_state_analytic,
)
from plexciton.cli import main
from plexciton.rate_dynamics import Populations, rate_matrix

from conftest import random_params
from test_config_cli import PRESETS
from test_correlations import half_width_from_samples

_MODULE_T0 = time.monotonic()


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")


def exact_fano(rates, pump_r: float, window: float) -> float:
    """Exact Fano factor of the pumped stream's counts in ``window`` (inf:
    the long-window limit).  Every cycle ends in G, so the stream is a
    renewal process and, with the rate matrix Q, its group inverse
    Q# = (Q - Pi)^-1 + Pi, Pi = pi 1^T, and c = (0, 0, grad_-, grad_+),

        F(T) = 1 + (2/T) c.[Q#^2 (e^{QT} - I) - T Q#] e_G,

    which tends to F_inf = 1 - 2 c.Q# e_G.  Both are computed as F_inf plus
    the decaying term, which does not cancel at long windows."""
    q = rate_matrix(rates, pump_r)
    pi = np.outer(steady_state_analytic(rates, pump_r).as_array(), np.ones(4))
    group = np.linalg.inv(q - pi) + pi
    c = np.array([0.0, 0.0, rates.grad_minus, rates.grad_plus])
    limit = 1.0 - 2.0 * c @ group[:, 0]
    if window == math.inf:
        return limit
    return limit + 2.0 / window * c @ group @ group @ (expm(q * window)
                                                        - np.eye(4))[:, 0]


def _random_pumped_sets():
    """Three random pumped parameter sets and their branch rates."""
    rng = np.random.default_rng(9)
    return [(params, branch_rates(params, dressed_basis(params)))
            for params in (random_params(rng) for _ in range(3))]


@pytest.fixture(scope="module")
def antibunch_stream(benchmark_params, benchmark_rates):
    """At least 1e6 minus-branch photons; records its own wall time."""
    steady = steady_state_analytic(benchmark_rates, benchmark_params.pump_r)
    rate_minus = steady.p_mm * benchmark_rates.grad_minus
    duration = 1.05e6 / rate_minus
    t0 = time.monotonic()
    stream = simulate_stream(
        benchmark_params, benchmark_rates,
        TrajectoryConfig(duration=duration, master_seed=20240810,
                         branch_filter=Branch.MINUS))[0]
    return stream, time.monotonic() - t0


class TestCriterion1Antibunching:
    def test_criterion_1_analytic_zero_lag(self, benchmark_rates, benchmark_params):
        tau = np.array([0.0, 1.0])
        values = []
        for branch in Branch:
            values.append(g2_nonresonant_analytic(
                branch, benchmark_rates, benchmark_params.pump_r, benchmark_params.gamma_u,
                tau).values[0])
            values.append(g2_resonant_analytic(branch, benchmark_rates,
                                               tau).values[0])
        passed = all(value == 0.0 for value in values)
        report("1", passed, "analytic coincidences are exactly 0 at zero lag "
                            "(both schemes, both branches)")
        assert passed

    def test_criterion_1_stochastic_first_bin(self, antibunch_stream):
        stream, elapsed = antibunch_stream
        hist = g2_histogram(stream, Branch.MINUS,
                            np.linspace(0.0, 600.0, 601))
        first, err = hist.values[0], hist.stderr[0]
        passed = (stream.n_photons >= 1e6 and first <= 3.0 * err
                  and elapsed < 120.0)
        report("1", passed,
               f"first-bin estimate {first:.4f} <= 3 stderr ({3 * err:.4f}) "
               f"from {stream.n_photons} photons in {elapsed:.1f}s")
        assert stream.n_photons >= 1e6
        assert first <= 3.0 * err
        assert elapsed < 120.0


@pytest.fixture(scope="module")
def spectrum_setup():
    params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=2.0,
                          gamma_nr=0.0, gamma_perp=1.0, gamma_u=0.02,
                          pump_r=0.02)
    basis = dressed_basis(params)
    rates = branch_rates(params, basis)
    steady = steady_state_analytic(rates, params.pump_r)
    return params, basis, rates, steady


@pytest.fixture(scope="module")
def histogram_run():
    # Same mixing and rate ratios as the coincidence benchmark but with
    # the slow rates at 0.005*gpar, where the first-order defect of the
    # closed form (6e-3 at long lags) plus counting noise fits the
    # stated +-0.02 band.
    params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                          gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.0025,
                          pump_r=0.0025)
    rates = branch_rates(params, dressed_basis(params))
    steady = steady_state_analytic(rates, params.pump_r)
    rate_minus = steady.p_mm * rates.grad_minus
    duration = 1.2e7 / rate_minus
    stream = simulate_stream(
        params, rates,
        TrajectoryConfig(duration=duration, master_seed=20240811,
                         branch_filter=Branch.MINUS))[0]
    return params, rates, stream


class TestCriterion2CoincidenceBenchmark:
    def test_criterion_2_curves_monotone_from_zero(self, g2_csv):
        _, _, cols = g2_csv
        names = ("NR_minus", "NR_plus", "R_minus", "R_plus")
        starts = all(cols[name][0] == 0.0 for name in names)
        monotone = all(np.all(np.diff(cols[name]) >= -1e-14)
                       for name in names)
        report("2", starts and monotone,
               "four emitted curves rise monotonically from exactly 0")
        assert starts and monotone

    def test_criterion_2_resonant_identity(self, g2_csv):
        _, _, cols = g2_csv
        gpar_minus = (2.0 + math.sqrt(2)) / 4.0
        ramp = (1.0 - np.exp(-gpar_minus * cols["tau"] / 2.0)) ** 2
        gap = np.max(np.abs(cols["R_minus"] - ramp))
        report("2", gap < 1e-12,
               f"driven minus curve equals the squared ramp, max gap {gap:.2e}")
        assert gap < 1e-12

    def test_criterion_2_closed_form_benchmark(self, g2_csv):
        _, _, cols = g2_csv
        value = cols["NR_minus"][np.nonzero(cols["tau"] == 100.0)[0][0]]
        # Independent arithmetic for the benchmark: substitute the slow rate
        # and the minus branch decay rate into the closed form.
        derived = 1.0 - 0.04 / (2.0 + math.sqrt(2)) - math.exp(-1.0)
        close = abs(value - derived) < 1e-6
        # The five-decimal citation 0.62041 is this number rounded; it sits
        # 5.2e-6 from the full-precision value, so it is checked at its own
        # printable granularity.
        cited = abs(value - 0.62041) < 1e-5
        report("2", close and cited,
               f"pumped minus curve at lag 100 = {value:.8f} "
               f"(derived {derived:.8f})")
        assert close and cited

    def test_criterion_2_regression_oracle_tolerance(self, g2_csv, benchmark_rates,
                                                     benchmark_params):
        # The emitted leading-order curve against the rate-equation
        # regression oracle at lag 100.  Their gap is first order in the
        # slow rate, so the criterion checks it against the derived
        # first-order defect d1, leaving a second-order residual.
        #
        # Derivation: a detection leaves the cycle in the ground state.
        # Laplace-transforming the balance equations from there with
        # s = R + gamma, H(q) = sum_b' gfeed_b'/(q + gpar_b') and T1 = H(0)
        # gives the normalized coincidence of branch b exactly,
        #     g~_b(q) = gpar_b (s + R T1) / [q (q + gpar_b)(q + s + R H(q))].
        # Its slow pole sits at -(s + R T1) to first order: the return cycle
        # through either branch (here mostly the slow plus branch) adds R T1.  Expanding the residues in
        # eps = s/gpar, dropping the terms that decay at the branch rates:
        #     exact - closed = d1(tau) + O(eps_max**2),
        #     d1(tau) = (s/gpar_b)(1 - exp(-s tau)) + R T1 tau exp(-s tau),
        # where eps_max = s / min_b gpar_b.  The first term restores the
        # long-lag limit 1 (the closed form tends to 1 - s/gpar_b), the
        # second the eigenvalue shift.  eps_max**2 (4.7e-3 here) lies below
        # both terms (7.4e-3 and 5.5e-3), so dropping either, or flipping
        # its sign, fails the check.
        def d1_minus(rates, params, tau):
            slow = params.pump_r + params.gamma_u
            return_cycle = (params.pump_r
                            * (rates.gfeed_minus / rates.gpar_minus
                               + rates.gfeed_plus / rates.gpar_plus))
            ramp = slow / rates.gpar_minus * (1.0 - math.exp(-slow * tau))
            shift = return_cycle * tau * math.exp(-slow * tau)
            return ramp + shift

        _, _, cols = g2_csv
        value = cols["NR_minus"][np.nonzero(cols["tau"] == 100.0)[0][0]]
        oracle = regression_g2_nonresonant_numeric(
            benchmark_rates, benchmark_params.pump_r, Branch.MINUS,
            np.array([100.0]))[0]
        gap = oracle - value
        d1 = d1_minus(benchmark_rates, benchmark_params, 100.0)
        residual = gap - d1
        tolerance = ((benchmark_params.pump_r + benchmark_params.gamma_u)
                     / min(benchmark_rates.gpar_minus,
                           benchmark_rates.gpar_plus)) ** 2

        # Second order: halving R and gamma at fixed s*tau = 1 quarters the
        # residual (measured ratio 0.2516).
        half = dataclasses.replace(benchmark_params,
                                   pump_r=benchmark_params.pump_r / 2.0,
                                   gamma_u=benchmark_params.gamma_u / 2.0)
        half_rates = branch_rates(half, dressed_basis(half))
        half_tau = np.array([200.0])
        half_gap = (regression_g2_nonresonant_numeric(
                        half_rates, half.pump_r, Branch.MINUS, half_tau)[0]
                    - g2_nonresonant_analytic(Branch.MINUS, half_rates,
                                              half.pump_r, half.gamma_u,
                                              half_tau).values[0])
        half_residual = half_gap - d1_minus(half_rates, half, 200.0)
        ratio = half_residual / residual

        within = abs(residual) <= tolerance
        quadratic = abs(ratio - 0.25) <= 0.05
        report("2", within and quadratic,
               f"closed form vs ODE regression oracle at lag 100: gap "
               f"{gap:.4e}, first-order defect d1 {d1:.4e}, residual "
               f"{residual:.2e} (tolerance eps_max^2 = {tolerance:.2e}); "
               f"residual ratio at half rates {ratio:.4f} (0.25 +- 0.05)")
        assert within
        assert quadratic


class TestCriterion3Spectrum:
    def test_criterion_3_doublet_separation(self, spectrum_setup):
        params, basis, rates, steady = spectrum_setup
        analytic_ok = (basis.omega_plus - basis.omega_minus
                       == pytest.approx(2.0 * basis.omega_rabi, rel=1e-12))
        # measured from sampled curves: peak locations of the two branches
        grid = np.linspace(basis.omega_center - 8.0, basis.omega_center + 8.0,
                           16001)
        spacing = grid[1] - grid[0]
        peaks = {}
        for branch in Branch:
            curve = spectrum_analytic(branch, rates, steady, basis, grid)
            peaks[branch] = grid[np.argmax(curve.values)]
        measured = peaks[Branch.PLUS] - peaks[Branch.MINUS]
        measured_ok = abs(measured - 2.0 * basis.omega_rabi) < 2.0 * spacing
        report("3", analytic_ok and measured_ok,
               f"doublet separation 2*Omega = {2 * basis.omega_rabi:.6f} "
               f"(measured {measured:.6f})")
        assert analytic_ok and measured_ok

    def test_criterion_3_width_and_peak_ratios(self, spectrum_setup):
        params, basis, rates, steady = spectrum_setup
        tan2 = math.tan(basis.theta) ** 2
        cot4 = 1.0 / math.tan(basis.theta) ** 4

        width_ratio_analytic = rates.gperp_plus / rates.gperp_minus
        peak_ratio_analytic = ((rates.dipole_w_plus * 2 * steady.p_pp
                                / rates.gperp_plus)
                               / (rates.dipole_w_minus * 2 * steady.p_mm
                                  / rates.gperp_minus))
        analytic_ok = (width_ratio_analytic == pytest.approx(tan2, rel=1e-6)
                       and peak_ratio_analytic == pytest.approx(cot4,
                                                                rel=1e-6))

        widths, heights = {}, {}
        for branch in Branch:
            ch = rates.branch(branch)
            grid = basis.omega(branch) + ch.gperp * np.linspace(-15, 15, 8001)
            curve = spectrum_analytic(branch, rates, steady, basis, grid)
            weighted = ch.dipole_w * curve.values
            widths[branch] = half_width_from_samples(grid, weighted)
            heights[branch] = weighted.max()
        width_ratio = widths[Branch.PLUS] / widths[Branch.MINUS]
        peak_ratio = heights[Branch.PLUS] / heights[Branch.MINUS]
        measured_ok = (width_ratio == pytest.approx(tan2, rel=0.01)
                       and peak_ratio == pytest.approx(cot4, rel=0.01))
        report("3", analytic_ok and measured_ok,
               f"linewidth ratio {width_ratio:.6f} ~ tan^2 = {tan2:.6f}; "
               f"peak ratio {peak_ratio:.4f} ~ cot^4 = {cot4:.4f}")
        assert analytic_ok and measured_ok

    def test_criterion_3_fft_matches_lorentzian(self, spectrum_setup):
        params, basis, rates, steady = spectrum_setup
        worst = 0.0
        for branch in Branch:
            ch = rates.branch(branch)
            dt = 1.0 / (80.0 * ch.gperp)
            tau = np.arange(int(25.0 / ch.gperp / dt) + 1) * dt
            g1 = g1_analytic(branch, rates, steady, basis, tau)
            spec = spectrum_fft_check(g1)
            k = np.argmax(spec.values)
            pop = steady.branch(branch)
            analytic = (2.0 * ch.gperp * pop
                        / ((spec.omega[k] - basis.omega(branch)) ** 2
                           + ch.gperp ** 2))
            worst = max(worst, abs(spec.values[k] - analytic) / analytic)
        report("3", worst < 0.01,
               f"transform peak within {100 * worst:.3f}% of the Lorentzian")
        assert worst < 0.01


class TestCriterion4SteadyState:
    def test_criterion_4_analytic_vs_long_time_integration(self):
        rng = np.random.default_rng(20240810)
        ground = Populations(1.0, 0.0, 0.0, 0.0)
        worst_gap = 0.0
        worst_norm = 0.0
        for _ in range(200):
            params = random_params(rng, r_lo=0.02, r_hi=0.1)
            rates = branch_rates(params, dressed_basis(params))
            steady = steady_state_analytic(rates, params.pump_r)
            worst_norm = max(worst_norm, abs(steady.total - 1.0))
            # slowest relaxation mode: pump bottleneck or the weaker branch
            slow = min(params.pump_r + params.gamma_u, rates.gpar_minus,
                       rates.gpar_plus)
            traj = evolve_populations(ground, rates, params.pump_r,
                                      t_end=30.0 / slow, dt_max=np.inf,
                                      n_samples=4)
            gap = np.max(np.abs(traj.final.as_array() - steady.as_array()))
            worst_gap = max(worst_gap, gap)
        passed = worst_gap < 1e-8 and worst_norm < 1e-12
        report("4", passed,
               f"200 random sets: worst ODE gap {worst_gap:.2e} (< 1e-8), "
               f"worst normalization defect {worst_norm:.2e} (< 1e-12)")
        assert worst_gap < 1e-8
        assert worst_norm < 1e-12


class TestCriterion5ResonantWeakDrive:
    def test_criterion_5_weak_drive_population(self):
        worst = 0.0
        gpar, gperp = 1.0, 0.5
        for s in (0.0025, 0.001, 1e-4):
            omega = math.sqrt(s * gperp * gpar)
            p = bloch_steady_state(omega, gpar, gperp).p_ee
            worst = max(worst, abs(p - 2 * s) / (2 * s))
        report("5", worst < 0.01,
               f"stationary population within {100 * worst:.3f}% of "
               "2*Omega^2/(gperp*gpar) up to saturation 0.0025")
        assert worst < 0.01

    def test_criterion_5_regression_vs_closed_form(self, benchmark_rates):
        rng = np.random.default_rng(7)
        worst = 0.0
        base = np.linspace(0.0, 40.0, 400)
        cases = [(benchmark_rates.branch(b).gpar, benchmark_rates.branch(b).gperp)
                 for b in Branch]
        cases += [(g, g * rng.uniform(0.5, 2.5))
                  for g in 10 ** rng.uniform(-0.5, 0.5, size=10)]
        for gpar, gperp in cases:
            omega = math.sqrt(0.0025 * gperp * gpar)
            tau = base / gpar
            numeric = regression_g2_resonant_numeric(omega, gpar, gperp, tau)
            closed = (-gperp * np.expm1(-gpar * tau)
                      + gpar * np.expm1(-gperp * tau)) / (gperp - gpar)
            worst = max(worst, float(np.max(np.abs(numeric - closed))))
        report("5", worst < 5e-3,
               f"Bloch regression vs closed form sup-norm {worst:.2e} (< 5e-3)")
        assert worst < 5e-3


class TestCriterion6PhotonRate:
    def test_criterion_6_weak_drive_rate_arithmetic(self, capsys):
        code = main(["rates", "--config",
                     os.path.join(PRESETS, "resonant_rates.cfg")])
        assert code == 0
        out = capsys.readouterr().out
        fields = {}
        for line in out.splitlines():
            if "=" in line and not line.startswith("#"):
                key, _, value = line.partition("=")
                fields[key.strip()] = value.strip()
        p_minus = float(fields["p_minus"])
        physical = float(fields["p_minus_physical"].split()[0])
        grad_minus = float(fields["grad_minus"])
        exact = p_minus == pytest.approx(0.1 * grad_minus / 1.0, rel=1e-12)
        # grad_minus = 1 internal -> 1 PHz at unit_scale 1000 THz
        headline = physical == pytest.approx(100.0, rel=1e-12)
        report("6", exact and headline,
               f"saturation 0.05 gives p = 0.1*grad exactly; reported "
               f"{physical:g} THz with the branch radiative rate at 1 PHz")
        assert exact and headline

    def test_criterion_6_scaling_envelope(self):
        # 3-decade sweep of R/gamma at symmetric mixing.  The measured rate
        # (with its 3-sigma counting allowance) must track
        # quantum_yield * min(R, gamma) within a factor of 2.  At R = gamma
        # the exact rate sits at eta*min/(2 + 2*gamma/gpar), a hair under
        # half, which the statistical allowance covers.
        gamma_u = 0.002
        outcomes = []
        for k, log_ratio in enumerate(np.linspace(-1.5, 1.5, 7)):
            pump = gamma_u * 10 ** log_ratio
            params = SystemParams(omega0=0.0, omega1=0.0, v0=1.0,
                                  gamma_r=1.0, gamma_nr=0.0, gamma_perp=0.5,
                                  gamma_u=gamma_u, pump_r=pump)
            rates = branch_rates(params, dressed_basis(params))
            steady = steady_state_analytic(rates, params.pump_r)
            total_rate = (steady.p_mm * rates.grad_minus
                          + steady.p_pp * rates.grad_plus)
            duration = 2.5e4 / total_rate
            stream = simulate_stream(
                params, rates, TrajectoryConfig(duration=duration,
                                                master_seed=300 + k))[0]
            est = emission_rate(stream, None)
            floor = params.quantum_yield * min(pump, gamma_u)
            low_ok = est.value + 3.0 * est.stderr >= 0.5 * floor
            high_ok = est.value - 3.0 * est.stderr <= 2.0 * floor
            outcomes.append(low_ok and high_ok)
        passed = all(outcomes)
        report("6", passed,
               "measured rate tracks quantum_yield*min(R, gamma) within a "
               "factor of 2 across a 3-decade R/gamma sweep")
        assert passed


class TestCriterion7StochasticOracle:
    def test_criterion_7_histogram_vs_closed_form(self, histogram_run):
        params, rates, stream = histogram_run
        edges = np.linspace(0.0, 1200.0, 21)
        hist = g2_histogram(stream, Branch.MINUS, edges)
        closed = g2_nonresonant_analytic(Branch.MINUS, rates, params.pump_r,
                                         params.gamma_u, hist.tau).values
        worst = float(np.max(np.abs(hist.values - closed)))
        report("7", worst <= 0.02,
               f"histogram within +-{worst:.4f} of the closed form at every "
               f"bin ({stream.n_photons} photons)")
        assert stream.n_photons >= 1e6
        assert worst <= 0.02

    def test_criterion_7_branch_rates_within_2_percent(self):
        params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                              gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.0025,
                              pump_r=0.0025)
        rates = branch_rates(params, dressed_basis(params))
        steady = steady_state_analytic(rates, params.pump_r)
        stream = simulate_stream(
            params, rates, TrajectoryConfig(duration=3e9,
                                            master_seed=20240812))[0]
        gaps = {}
        for branch in Branch:
            est = emission_rate(stream, branch)
            target = steady.branch(branch) * rates.branch(branch).grad
            gaps[branch.value] = abs(est.value - target) / target
        passed = all(gap < 0.02 for gap in gaps.values())
        report("7", passed,
               f"branch rates match population * radiative rate within "
               f"{100 * max(gaps.values()):.2f}% (< 2%)")
        assert passed

    def test_criterion_7_fano_sub_poissonian_5_sigma(self):
        params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                              gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.0025,
                              pump_r=0.0025)
        rates = branch_rates(params, dressed_basis(params))
        window = 1.0 / (params.pump_r + params.gamma_u)
        blocks = []
        for index in range(20):
            stream = simulate_stream(
                params, rates,
                TrajectoryConfig(duration=400.0 * window,
                                 master_seed=500 + index))[0]
            blocks.append(fano_factor(stream, window))
        blocks = np.array(blocks)
        mean = blocks.mean()
        se = blocks.std(ddof=1) / math.sqrt(blocks.size)
        significance = (1.0 - mean) / se
        report("7", significance >= 5.0,
               f"Fano factor {mean:.3f} below 1 at {significance:.1f} sigma "
               f"(window = 1/(R+gamma))")
        assert significance >= 5.0

    def test_criterion_7_fano_matches_exact_value(self):
        # Companion of the 5-sigma test: its 20 streams against the exact
        # Fano factor at its window.
        params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                              gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.0025,
                              pump_r=0.0025)
        rates = branch_rates(params, dressed_basis(params))
        window = 1.0 / (params.pump_r + params.gamma_u)
        exact = exact_fano(rates, params.pump_r, window)
        assert exact == pytest.approx(0.8126277, abs=1e-7)
        blocks = np.array([fano_factor(simulate_stream(
            params, rates, TrajectoryConfig(duration=400.0 * window,
                                            master_seed=500 + index))[0],
                                       window) for index in range(20)])
        mean = blocks.mean()
        se = blocks.std(ddof=1) / math.sqrt(blocks.size)
        z = (mean - exact) / se
        report("7", abs(z) < 3.0,
               f"Fano factor {mean:.4f} +- {se:.4f} against the exact "
               f"{exact:.4f} (z = {z:+.2f})")
        assert abs(z) < 3.0

    def test_criterion_7_exact_fano_long_window_limit(self):
        # With unit yield every cycle emits one photon, so the long-window
        # Fano factor is the squared coefficient of variation of a cycle:
        # exponential dwells in G and U, then a mixture of the branch decays.
        params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                              gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.0025,
                              pump_r=0.0025)
        rates = branch_rates(params, dressed_basis(params))
        feed = rates.gfeed_total
        share = np.array([rates.gfeed_minus, rates.gfeed_plus]) / feed
        decay = 1.0 / np.array([rates.gpar_minus, rates.gpar_plus])
        mean = 1.0 / params.pump_r + 1.0 / feed + share @ decay
        variance = (1.0 / params.pump_r ** 2 + 1.0 / feed ** 2
                    + 2.0 * share @ decay ** 2 - (share @ decay) ** 2)
        limit = exact_fano(rates, params.pump_r, math.inf)
        assert limit == pytest.approx(0.4926513, abs=1e-7)
        assert abs(limit - variance / mean ** 2) < 1e-12
        assert abs(exact_fano(rates, params.pump_r, 2e8) - limit) < 1e-5

    def test_criterion_7_fano_matches_exact_value_on_random_sets(self):
        # Three random pumped sets, windows of 0.3, 1 and 10 slow times: the
        # mean of 40 seeded estimates of 4000 windows against the exact value.
        zs = []
        for set_index, (params, rates) in enumerate(_random_pumped_sets()):
            for window_index, scale in enumerate((0.3, 1.0, 10.0)):
                window = scale / (params.pump_r + params.gamma_u)
                streams = simulate_stream(params, rates, TrajectoryConfig(
                    duration=4000.0 * window, n_trajectories=40,
                    master_seed=9000 + 10 * set_index + window_index))
                blocks = np.array([fano_factor(s, window) for s in streams])
                se = blocks.std(ddof=1) / math.sqrt(blocks.size)
                zs.append((blocks.mean()
                           - exact_fano(rates, params.pump_r, window)) / se)
        worst = float(np.max(np.abs(zs)))
        report("7", worst <= 4.0,
               f"Fano factor within {worst:.2f} sigma of the exact value on "
               f"{len(zs)} random cases (<= 4)")
        assert worst <= 4.0

    def test_criterion_7_combined_histogram_matches_exact_g2(self):
        # Both branches together: the rate-weighted mixture of the branch
        # regressions, averaged over 20 points a bin, within each bin's
        # Poisson stderr, on 10 streams of ~3e4 photons per random set.
        zs = []
        for set_index, (params, rates) in enumerate(_random_pumped_sets()):
            slow = params.pump_r + params.gamma_u
            steady = steady_state_analytic(rates, params.pump_r)
            branch_rate = {branch: steady.branch(branch) * rates.branch(
                branch).grad for branch in Branch}
            total = sum(branch_rate.values())
            edges = np.linspace(0.0, 3.0 / slow, 31)
            width = edges[1] - edges[0]
            points = (edges[:-1, None]
                      + (np.arange(20) + 0.5) / 20 * width).ravel()
            exact = sum(rate / total * regression_g2_nonresonant_numeric(
                rates, params.pump_r, branch, points)
                        for branch, rate in branch_rate.items())
            exact = exact.reshape(30, 20).mean(axis=1)
            streams = simulate_stream(params, rates, TrajectoryConfig(
                duration=3e4 / total, n_trajectories=10,
                master_seed=9100 + set_index))
            for stream in streams:
                hist = g2_histogram(stream, None, edges)
                zs.append((hist.values - exact) / hist.stderr)
        zs = np.concatenate(zs)
        mean, std, worst = zs.mean(), zs.std(), np.abs(zs).max()
        passed = abs(mean) <= 0.2 and 0.8 <= std <= 1.2 and worst < 4.5
        report("7", passed,
               f"combined histogram against the exact g2: z mean {mean:+.3f}, "
               f"std {std:.3f}, max |z| {worst:.2f} over {zs.size} bins")
        assert abs(mean) <= 0.2
        assert 0.8 <= std <= 1.2
        assert worst < 4.5

    def test_criterion_7_interval_law_on_random_sets(self):
        # Every cycle, and the run, starts in G, so the time to the next kept
        # photon has the phase-type law F(tau) = 1 - 1.e^{S tau} e_G, with S
        # the rate matrix less its kept emissions.  One stream of ~2e4 kept
        # photons per random set and branch selection, KS-tested against it.
        stats = []
        for set_index, (params, rates) in enumerate(_random_pumped_sets()):
            steady = steady_state_analytic(rates, params.pump_r).as_array()
            for selection, branch_filter in enumerate(
                    (None, Branch.MINUS, Branch.PLUS)):
                sub = rate_matrix(rates, params.pump_r)
                rate = 0.0
                for branch in [branch_filter] if branch_filter else Branch:
                    slot = 2 if branch is Branch.MINUS else 3
                    sub[0, slot] -= rates.branch(branch).grad
                    rate += rates.branch(branch).grad * steady[slot]
                stream = simulate_stream(params, rates, TrajectoryConfig(
                    duration=2e4 / rate, master_seed=9200 + 10 * set_index
                    + selection, branch_filter=branch_filter))[0]
                intervals = np.sort(np.diff(stream.times, prepend=0.0))
                law = 1.0 - expm(sub * intervals[:, None, None])[:, :, 0].sum(axis=1)
                n = intervals.size
                gap = max(np.max(np.arange(1, n + 1) / n - law),
                          np.max(law - np.arange(n) / n))
                stats.append(math.sqrt(n) * gap)
        worst = max(stats)
        report("7", worst < 1.95,
               f"inter-photon intervals fit the phase-type law: sqrt(n) D <= "
               f"{worst:.2f} on {len(stats)} random cases (< 1.95, 0.1% level)")
        assert worst < 1.95

    def test_criterion_7_suite_runtime(self):
        elapsed = time.monotonic() - _MODULE_T0
        report("7", elapsed < 600.0,
               f"acceptance module wall time {elapsed:.0f}s (< 600s)")
        assert elapsed < 600.0
