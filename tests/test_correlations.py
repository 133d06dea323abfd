import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from plexciton import (
    Branch,
    ParameterError,
    PhotonStream,
    PlexcitonError,
    Populations,
    SpectrumSeries,
    RegimeWarning,
    ResolutionError,
    SystemParams,
    branch_rates,
    detected_spectrum,
    dressed_basis,
    evolve_populations,
    g1_analytic,
    g2_histogram,
    g2_nonresonant_analytic,
    g2_resonant_analytic,
    regression_g2_nonresonant_numeric,
    regression_g2_resonant_numeric,
    spectrum_analytic,
    spectrum_fft_check,
    steady_state_analytic,
)
from plexciton.bloch import BlochState, evolve_bloch
from plexciton.correlations import CorrelationSeries

from conftest import random_params


def half_width_from_samples(omega, values):
    """Half width at half maximum via linear interpolation of the crossings."""
    peak = np.argmax(values)
    half = values[peak] / 2.0
    left = values[:peak + 1]
    right = values[peak:]
    i = np.nonzero(left < half)[0][-1]
    x_left = np.interp(half, [left[i], left[i + 1]],
                       [omega[i], omega[i + 1]])
    j = np.nonzero(right < half)[0][0]
    x_right = np.interp(half, [right[j], right[j - 1]],
                        [omega[peak + j], omega[peak + j - 1]])
    return (x_right - x_left) / 2.0


class TestG1:
    def test_zero_lag_is_stationary_population(self, benchmark_rates, benchmark_steady,
                                               benchmark_basis):
        g1 = g1_analytic(Branch.MINUS, benchmark_rates, benchmark_steady, benchmark_basis,
                         np.array([0.0, 1.0]))
        assert g1.values[0] == benchmark_steady.p_mm
        assert g1.values[0].imag == 0.0

    def test_modulus_decays_at_branch_dephasing(self, benchmark_rates, benchmark_steady,
                                                benchmark_basis):
        tau = np.linspace(0.0, 20.0, 50)
        for branch in Branch:
            g1 = g1_analytic(branch, benchmark_rates, benchmark_steady, benchmark_basis, tau)
            expected = (benchmark_steady.branch(branch)
                        * np.exp(-benchmark_rates.branch(branch).gperp * tau))
            assert np.max(np.abs(np.abs(g1.values) - expected)) < 1e-15

    def test_phase_flips_sign_at_half_period(self, benchmark_rates, benchmark_steady,
                                             benchmark_basis):
        omega_b = benchmark_basis.omega_plus
        tau = np.array([math.pi / omega_b])
        g1 = g1_analytic(Branch.PLUS, benchmark_rates, benchmark_steady, benchmark_basis, tau)
        assert g1.values[0].real < 0.0
        assert abs(g1.values[0].imag) < 1e-15 * abs(g1.values[0].real)


class TestSpectrum:
    def test_peak_value(self, benchmark_rates, benchmark_steady, benchmark_basis):
        for branch in Branch:
            ch = benchmark_rates.branch(branch)
            omega_b = benchmark_basis.omega(branch)
            spec = spectrum_analytic(branch, benchmark_rates, benchmark_steady,
                                     benchmark_basis, np.array([omega_b - 1.0,
                                                           omega_b,
                                                           omega_b + 1.0]))
            expected = 2.0 * benchmark_steady.branch(branch) / ch.gperp
            assert spec.values[1] == pytest.approx(expected, rel=1e-14)

    def test_quadrature_normalization(self, benchmark_rates, benchmark_steady,
                                      benchmark_basis):
        # Lorentzian normalization oracle: integral over +-700 linewidths
        # captures all but ~0.09% of the weight 2*pi*p_b.
        for branch in Branch:
            ch = benchmark_rates.branch(branch)
            omega_b = benchmark_basis.omega(branch)
            grid = omega_b + ch.gperp * np.linspace(-700, 700, 400001)
            spec = spectrum_analytic(branch, benchmark_rates, benchmark_steady,
                                     benchmark_basis, grid)
            weight = np.trapezoid(spec.values, grid)
            assert weight == pytest.approx(
                2.0 * math.pi * benchmark_steady.branch(branch), rel=1e-3)

    def test_half_width_equals_branch_dephasing(self, benchmark_rates, benchmark_steady,
                                                benchmark_basis):
        for branch in Branch:
            ch = benchmark_rates.branch(branch)
            omega_b = benchmark_basis.omega(branch)
            grid = omega_b + ch.gperp * np.linspace(-12, 12, 4001)
            spec = spectrum_analytic(branch, benchmark_rates, benchmark_steady,
                                     benchmark_basis, grid)
            width = half_width_from_samples(grid, spec.values)
            assert width == pytest.approx(ch.gperp, rel=1e-4)

    def test_symmetric_about_line_center(self, benchmark_rates, benchmark_steady,
                                         benchmark_basis):
        ch = benchmark_rates.branch(Branch.MINUS)
        omega_b = benchmark_basis.omega_minus
        offsets = np.linspace(-5.0, 5.0, 101)
        spec = spectrum_analytic(Branch.MINUS, benchmark_rates, benchmark_steady,
                                 benchmark_basis, omega_b + offsets)
        assert np.max(np.abs(spec.values - spec.values[::-1])) < 1e-15


class TestDetectedSpectrum:
    def test_peak_ratio_at_pi_over_8(self, benchmark_rates, benchmark_steady,
                                     benchmark_basis):
        # cot(pi/8)**4 = (1 + sqrt(2))**4
        ratio = benchmark_steady.p_pp / benchmark_steady.p_mm
        assert ratio == pytest.approx((1 + math.sqrt(2)) ** 4, rel=1e-9)
        for branch, pop in ((Branch.MINUS, benchmark_steady.p_mm),
                            (Branch.PLUS, benchmark_steady.p_pp)):
            omega_b = benchmark_basis.omega(branch)
            spec = detected_spectrum(benchmark_rates, benchmark_steady, benchmark_basis,
                                     np.array([omega_b - 1e-9, omega_b,
                                               omega_b + 1e-9]))
            # weighted peak height is 2 p_b / gamma_perp plus the other line's tail
            assert spec.values[1] >= 2.0 * pop / 0.5

    def test_equal_doublet_at_symmetric_mixing(self):
        params = SystemParams(omega0=0.0, omega1=0.0, v0=2.0, gamma_r=1.0,
                              gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.01,
                              pump_r=0.01)
        basis = dressed_basis(params)
        rates = branch_rates(params, basis)
        steady = steady_state_analytic(rates, params.pump_r)
        offsets = np.linspace(-8.0, 8.0, 2001)
        spec = detected_spectrum(rates, steady, basis,
                                 basis.omega_center + offsets)
        assert np.max(np.abs(spec.values - spec.values[::-1])) < 1e-12

    def test_ratios_random_mixing(self):
        # Peak ratio cot(theta)**4 and width ratio tan(theta)**2, evaluated
        # analytically from the weighted branch components.
        rng = np.random.default_rng(41)
        for _ in range(100):
            theta = rng.uniform(0.1, math.pi / 2 - 0.1)
            omega_rabi = 1.0
            params = SystemParams(
                omega0=omega_rabi * math.cos(2 * theta),
                omega1=-omega_rabi * math.cos(2 * theta),
                v0=omega_rabi * math.sin(2 * theta),
                gamma_r=1.0, gamma_nr=0.0, gamma_perp=0.7,
                gamma_u=0.01, pump_r=0.01)
            basis = dressed_basis(params)
            rates = branch_rates(params, basis)
            steady = steady_state_analytic(rates, params.pump_r)
            peak = {}
            for branch in Branch:
                ch = rates.branch(branch)
                pop = steady.branch(branch)
                peak[branch] = ch.dipole_w * 2.0 * pop / ch.gperp
            assert peak[Branch.PLUS] / peak[Branch.MINUS] == pytest.approx(
                1.0 / math.tan(basis.theta) ** 4, rel=1e-6)
            width_ratio = (rates.gperp_plus / rates.gperp_minus)
            assert width_ratio == pytest.approx(math.tan(basis.theta) ** 2,
                                                rel=1e-6)

    def test_measured_width_ratio_at_pi_over_8(self):
        # Width extraction from densely sampled single-branch curves.
        params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=2.0,
                              gamma_nr=0.0, gamma_perp=1.0, gamma_u=0.02,
                              pump_r=0.02)
        basis = dressed_basis(params)
        rates = branch_rates(params, basis)
        steady = steady_state_analytic(rates, params.pump_r)
        widths = {}
        for branch in Branch:
            ch = rates.branch(branch)
            grid = basis.omega(branch) + ch.gperp * np.linspace(-15, 15, 8001)
            spec = spectrum_analytic(branch, rates, steady, basis, grid)
            widths[branch] = half_width_from_samples(grid, spec.values)
        ratio = widths[Branch.PLUS] / widths[Branch.MINUS]
        assert ratio == pytest.approx(math.tan(math.pi / 8) ** 2, rel=1e-3)
        assert ratio == pytest.approx(0.17157287525381, rel=1e-3)


class TestSpectrumFftCheck:
    def make_g1(self, rates, steady, basis, branch, span_decay=25.0,
                per_decay=80):
        gperp = rates.branch(branch).gperp
        dt = 1.0 / (per_decay * gperp)
        n = int(span_decay / gperp / dt)
        tau = np.arange(n + 1) * dt
        return g1_analytic(branch, rates, steady, basis, tau)

    def test_matches_lorentzian(self, benchmark_rates, benchmark_steady, benchmark_basis):
        for branch in Branch:
            g1 = self.make_g1(benchmark_rates, benchmark_steady, benchmark_basis, branch)
            spec = spectrum_fft_check(g1)
            ch = benchmark_rates.branch(branch)
            pop = benchmark_steady.branch(branch)
            omega_b = benchmark_basis.omega(branch)

            k = np.argmax(spec.values)
            analytic = (2.0 * ch.gperp * pop
                        / ((spec.omega[k] - omega_b) ** 2 + ch.gperp ** 2))
            assert spec.values[k] == pytest.approx(analytic, rel=0.01)
            # peak location within one grid spacing
            grid_step = spec.omega[1] - spec.omega[0]
            assert abs(spec.omega[k] - omega_b) < grid_step
            # integrated weight within 2%
            weight = np.trapezoid(spec.values, spec.omega)
            assert weight == pytest.approx(2.0 * math.pi * pop, rel=0.02)

    def test_doubling_span_halves_resolution(self, benchmark_rates, benchmark_steady,
                                             benchmark_basis):
        # The leakage of the peak into neighboring bins is set by the
        # frequency resolution, which the doubled span halves exactly; the
        # realized peak-location error stays below one spacing throughout.
        spacings = []
        omega_b = benchmark_basis.omega_plus
        for span in (20.0, 40.0):
            g1 = self.make_g1(benchmark_rates, benchmark_steady, benchmark_basis,
                              Branch.PLUS, span_decay=span)
            spec = spectrum_fft_check(g1)
            spacing = spec.omega[1] - spec.omega[0]
            assert abs(spec.omega[np.argmax(spec.values)] - omega_b) < spacing
            spacings.append(spacing)
        assert spacings[1] == pytest.approx(0.5 * spacings[0], rel=1e-12)

    def test_zero_signal_zero_spectrum(self):
        tau = np.linspace(0.0, 10.0, 641)
        g1 = CorrelationSeries(tau=tau, values=np.zeros(641, dtype=complex))
        spec = spectrum_fft_check(g1)
        assert np.all(spec.values == 0.0)

    def test_under_resolved_grid_rejected(self, benchmark_rates, benchmark_steady,
                                          benchmark_basis):
        with pytest.raises(ResolutionError):
            g1 = self.make_g1(benchmark_rates, benchmark_steady, benchmark_basis,
                              Branch.MINUS, per_decay=16)
            spectrum_fft_check(g1)
        with pytest.raises(ResolutionError):
            g1 = self.make_g1(benchmark_rates, benchmark_steady, benchmark_basis,
                              Branch.MINUS, span_decay=8.0)
            spectrum_fft_check(g1)

    @pytest.mark.parametrize("j", [63, 64])
    def test_64_samples_per_decay_time_pass(self, j):
        # |g1| is first down to 1/e at sample j: the documented edge.
        tau = np.arange(40 * 64 + 1) * 0.01
        g1 = CorrelationSeries(tau=tau, values=np.exp(
            -np.arange(tau.size) / (j - 0.5)).astype(complex))
        assert np.flatnonzero(np.abs(g1.values) <= 1.0 / math.e)[0] == j
        if j < 64:
            with pytest.raises(ResolutionError, match="64 samples per decay"):
                spectrum_fft_check(g1)
        else:
            assert spectrum_fft_check(g1).values.size == 2 * 40 * 64

    @pytest.mark.parametrize("off", [0.995e-9, 1.005e-9])
    def test_uniformity_tolerance_edge(self, off):
        # One spacing off by more than 1e-9 dt makes the grid non-uniform.
        dt = 2.0 ** -7  # exact binary grid: only the last spacing moves
        tau = np.arange(4097) * dt
        tau[-1] += off * dt
        g1 = CorrelationSeries(tau=tau, values=np.exp(-np.arange(4097) * dt))
        if off > 1e-9:
            with pytest.raises(ResolutionError, match="must be uniform"):
                spectrum_fft_check(g1)
        else:
            assert spectrum_fft_check(g1).values.size == 8192

    @pytest.mark.parametrize("depth", [0.995e-9, 1.005e-9])
    def test_negativity_tolerance_edge(self, depth):
        # A series built from exp(-tau)'s density with its highest-frequency
        # bin set to -depth times the peak: past 1e-9 of the peak is refused.
        dt, n = 2.0 ** -7, 8192
        tau = np.arange(n // 2 + 1) * dt
        density = dt * np.fft.hfft(np.exp(-tau), n)
        density[n // 2] = -depth * density.max()
        g1 = CorrelationSeries(tau=tau, values=np.conj(
            np.fft.ihfft(density / dt)))
        if depth > 1e-9:
            with pytest.raises(ResolutionError, match="negative density"):
                spectrum_fft_check(g1)
        else:
            spec = spectrum_fft_check(g1)
            assert spec.values.min() == 0.0


class TestG2NonResonant:
    def test_exact_zero_at_zero_lag(self, benchmark_rates, benchmark_params):
        tau = np.array([0.0, 5.0])
        for branch in Branch:
            g2 = g2_nonresonant_analytic(branch, benchmark_rates,
                                         benchmark_params.pump_r,
                                         benchmark_params.gamma_u, tau)
            assert g2.values[0] == 0.0

    def test_long_lag_asymptote(self, benchmark_rates, benchmark_params):
        slow = benchmark_params.pump_r + benchmark_params.gamma_u
        tau = np.array([2000.0])
        for branch in Branch:
            g2 = g2_nonresonant_analytic(branch, benchmark_rates,
                                         benchmark_params.pump_r,
                                         benchmark_params.gamma_u, tau)
            expected = 1.0 - slow / benchmark_rates.branch(branch).gpar
            assert g2.values[0] == pytest.approx(expected, rel=1e-8)

    def test_benchmark_value_at_lag_100(self, benchmark_rates, benchmark_params):
        g2 = g2_nonresonant_analytic(Branch.MINUS, benchmark_rates,
                                     benchmark_params.pump_r, benchmark_params.gamma_u,
                                     np.array([100.0]))
        assert g2.values[0] == pytest.approx(0.6204048300760196, abs=1e-9)

    def test_regime_warning(self, benchmark_rates):
        with pytest.warns(RegimeWarning):
            g2_nonresonant_analytic(Branch.PLUS, benchmark_rates, 0.2, 0.2,
                                    np.array([0.0, 1.0]))

    def test_regime_warning_checks_slower_branch(self):
        # s = 0.04 is small against gpar_minus but not against gpar_plus =
        # 0.026; the minus curve is then far from its regression oracle.
        params = SystemParams(omega0=3.0, omega1=-3.0, v0=1.0, gamma_r=1.0,
                              gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.02,
                              pump_r=0.02)
        rates = branch_rates(params, dressed_basis(params))
        slow = params.pump_r + params.gamma_u
        assert rates.gpar_plus < slow < rates.gpar_minus
        tau = np.array([0.0, 1.0 / slow])
        with pytest.warns(RegimeWarning, match="slower branch"):
            closed = g2_nonresonant_analytic(Branch.MINUS, rates, params.pump_r,
                                             params.gamma_u, tau)
        oracle = regression_g2_nonresonant_numeric(rates, params.pump_r,
                                                   Branch.MINUS, tau)
        assert abs(oracle[1] - closed.values[1]) > 0.2

    def test_benchmark_point_is_silent(self, benchmark_rates, benchmark_params):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            for branch in Branch:
                g2_nonresonant_analytic(branch, benchmark_rates,
                                        benchmark_params.pump_r,
                                        benchmark_params.gamma_u,
                                        np.array([0.0, 1.0]))


class TestG2Resonant:
    def test_exact_zero_at_zero_lag(self, benchmark_rates):
        for branch in Branch:
            g2 = g2_resonant_analytic(branch, benchmark_rates,
                                      np.array([0.0, 3.0]))
            assert g2.values[0] == 0.0

    def test_half_ratio_collapses_to_squared_ramp(self, benchmark_rates):
        tau = np.linspace(0.0, 50.0, 501)
        for branch in Branch:
            gpar_b = benchmark_rates.branch(branch).gpar
            g2 = g2_resonant_analytic(branch, benchmark_rates, tau)
            ramp = (1.0 - np.exp(-gpar_b * tau / 2.0)) ** 2
            assert np.max(np.abs(g2.values - ramp)) < 1e-12

    def test_degenerate_rates_use_removable_limit(self):
        params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                              gamma_nr=0.0, gamma_perp=1.0, gamma_u=0.01,
                              pump_r=0.01)
        rates = branch_rates(params, dressed_basis(params))
        tau = np.linspace(0.0, 30.0, 301)
        gpar_b = rates.gpar_minus
        g2 = g2_resonant_analytic(Branch.MINUS, rates, tau)
        limit = 1.0 - (1.0 + gpar_b * tau) * np.exp(-gpar_b * tau)
        assert np.array_equal(g2.values, limit)
        # nearly degenerate rates approach the same limit smoothly
        params2 = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                               gamma_nr=0.0, gamma_perp=1.0 + 1e-6,
                               gamma_u=0.01, pump_r=0.01)
        rates2 = branch_rates(params2, dressed_basis(params2))
        g2_near = g2_resonant_analytic(Branch.MINUS, rates2, tau)
        assert np.max(np.abs(g2_near.values - limit)) < 1e-5


    # At the last lag gpar * tau overflows: exp(-gpar tau) is 0, and g2 is 1.
    @pytest.mark.parametrize("gap", [0.0, 1e-3, 1.0])
    def test_lag_past_overflow_gives_one(self, benchmark_rates, gap):
        rates = replace(benchmark_rates, gpar_minus=1e20,
                        gperp_minus=1e20 * (1.0 + gap))
        tau = np.array([0.0, 1e-20, 1e300])
        values = g2_resonant_analytic(Branch.MINUS, rates, tau).values
        assert values[0] == 0.0 and 0.0 < values[1] < 1.0 and values[2] == 1.0

    @pytest.mark.parametrize("gap", [0.0, 0.99e-9, 1.01e-9, 1e-8, -1e-6,
                                     1e-6, -9.99e-3, 9.99e-3, 1e-2, -2e-2,
                                     1.0])
    def test_exact_weak_drive_bloch_through_the_degeneracy(
            self, benchmark_rates, gap):
        # Under weak drive the Bloch equations are linear from the ground
        # state: d coh_im/dt = -gperp coh_im + Omega and d p_ee/dt =
        # -gpar p_ee + 2 Omega coh_im, with g2 = p_ee / p_ee(inf) and
        # p_ee(inf) = 2 Omega^2 / (gperp gpar); Omega = 1 scales out.  The
        # state (coh_im, p_ee, 1) keeps the matrix from being triangular:
        # scipy's expm for triangular matrices is off by ~6e-9 at gap 1e-9.
        # At tau = 1e6 the gap times tau is far past where exp overflows.
        gpar, gperp = 1.0, 1.0 + gap
        a = np.array([[-gperp, 0.0, 1.0], [2.0, -gpar, 0.0], [0.0, 0.0, 0.0]])
        tau = np.append(np.linspace(0.0, 40.0, 401), 1e6)
        exact = np.array([expm(a * t)[1, 2] for t in tau]) * gperp * gpar / 2
        rates = replace(benchmark_rates, gpar_minus=gpar, gperp_minus=gperp)
        closed = g2_resonant_analytic(Branch.MINUS, rates, tau).values
        assert closed[0] == 0.0
        assert np.max(np.abs(closed - exact)) < 1e-13


class TestCoincidenceProperties:
    def test_antibunched_bounded_monotone_random(self):
        # 1000 random parameter sets, both schemes, both branches: exact
        # zero at zero lag, strictly below one, never decreasing.  The
        # pumped-scheme curve requires its own validity ordering
        # pump_r + gamma_u < gpar_b, so draws keep the slow rates below the
        # smaller branch decay rate.  Lags stay below the
        # exponential-underflow range so strict bounds stay meaningful in
        # floats.
        rng = np.random.default_rng(42)
        for _ in range(1000):
            theta = rng.uniform(0.3, math.pi / 2 - 0.3)
            gamma_r = 10 ** rng.uniform(-0.5, 0.5)
            gamma_nr = gamma_r * rng.uniform(0.0, 1.0)
            gamma_par = gamma_r + gamma_nr
            params = SystemParams(
                omega0=math.cos(2 * theta),
                omega1=-math.cos(2 * theta),
                v0=math.sin(2 * theta),
                gamma_r=gamma_r,
                gamma_nr=gamma_nr,
                gamma_perp=gamma_par * rng.uniform(0.5, 2.0),
                gamma_u=gamma_par * rng.uniform(0.005, 0.04),
                pump_r=gamma_par * rng.uniform(0.005, 0.04),
            )
            rates = branch_rates(params, dressed_basis(params))
            slow = params.pump_r + params.gamma_u
            branch = Branch.MINUS if rng.random() < 0.5 else Branch.PLUS
            gpar_b = rates.branch(branch).gpar
            assert slow < gpar_b
            tau = np.linspace(0.0, 5.0 / slow, 200)
            nr = g2_nonresonant_analytic(branch, rates, params.pump_r,
                                         params.gamma_u, tau).values
            tau_r = np.linspace(0.0, 20.0 / gpar_b, 200)
            res = g2_resonant_analytic(branch, rates, tau_r).values
            for values in (nr, res):
                assert values[0] == 0.0
                assert np.all(values >= 0.0)
                assert np.all(values < 1.0)
                assert np.all(np.diff(values) >= -1e-14)


# Every library call that takes a lag, time or frequency grid, as
# f(rates, steady, basis, grid); evolve_populations builds its grid from t_end.
GRID_CALLS = {
    "regression_g2_nonresonant_numeric": lambda r, s, b, grid:
        regression_g2_nonresonant_numeric(r, 0.005, Branch.MINUS, grid),
    "regression_g2_resonant_numeric": lambda r, s, b, grid:
        regression_g2_resonant_numeric(0.1, 1.0, 0.5, grid),
    "evolve_bloch": lambda r, s, b, grid:
        evolve_bloch(BlochState(0.0, 0.0, 0.0), 0.1, 1.0, 0.5, grid),
    "evolve_populations": lambda r, s, b, grid:
        evolve_populations(Populations(1.0, 0.0, 0.0, 0.0), r, 0.005,
                           t_end=grid[-1], dt_max=0.1),
    "g1_analytic": lambda r, s, b, grid:
        g1_analytic(Branch.MINUS, r, s, b, grid),
    "spectrum_analytic": lambda r, s, b, grid:
        spectrum_analytic(Branch.PLUS, r, s, b, grid),
    "detected_spectrum": lambda r, s, b, grid: detected_spectrum(r, s, b, grid),
    "g2_nonresonant_analytic": lambda r, s, b, grid:
        g2_nonresonant_analytic(Branch.MINUS, r, 0.005, 0.005, grid),
    "g2_resonant_analytic": lambda r, s, b, grid:
        g2_resonant_analytic(Branch.MINUS, r, grid),
    "g2_histogram": lambda r, s, b, grid:
        g2_histogram(PhotonStream(np.empty(0), np.empty(0, dtype=np.int8), 100.0),
                     Branch.MINUS, grid),
    "CorrelationSeries": lambda r, s, b, grid:
        CorrelationSeries(tau=grid, values=np.zeros(4)),
    "SpectrumSeries": lambda r, s, b, grid:
        SpectrumSeries(omega=grid, values=np.zeros(4)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", sorted(GRID_CALLS))
def test_non_finite_grid_rejected(call, bad, benchmark_rates, benchmark_steady,
                                  benchmark_basis):
    grid = np.array([0.0, 1.0, 2.0, bad])
    with pytest.raises(ParameterError):
        GRID_CALLS[call](benchmark_rates, benchmark_steady, benchmark_basis, grid)


def _even_stream(n):
    """``n`` minus-branch photons evenly spaced over a duration of 1e5."""
    return PhotonStream(np.arange(n) * (1e5 / n), np.zeros(n, dtype=np.int8), 1e5)


# GRID_CALLS plus the calls that reach past their first grid check: the oracle
# on values built from the index alone, and the histogram on streams that hold
# enough photons to be binned.
HOSTILE_GRID_CALLS = {
    **GRID_CALLS,
    "spectrum_fft_check": lambda r, s, b, grid: spectrum_fft_check(
        CorrelationSeries(tau=grid, values=np.exp(-np.arange(grid.size) / 80.0))),
    "g2_histogram_2e4_photons": lambda r, s, b, grid:
        g2_histogram(_even_stream(20_000), Branch.MINUS, grid),
    "g2_histogram_1e6_photons": lambda r, s, b, grid:
        g2_histogram(_even_stream(1_000_000), Branch.MINUS, grid),
}

# Finite grids whose steps, spans or products leave the float range.
HOSTILE_GRIDS = {
    "step_5e-324": np.arange(5) * 5e-324,
    "step_1e-310": np.arange(5) * 1e-310,
    "step_1e-308": np.arange(5) * 1e-308,
    "span_1.7e308": np.array([0.0, 1e300, 1.7e308]),
    "linspace_1e308": np.linspace(0.0, 1e308, 5),
    "denormal_then_1e308": np.array([0.0, 5e-324, 1e308]),
}


@pytest.mark.parametrize("grid", sorted(HOSTILE_GRIDS))
@pytest.mark.parametrize("call", sorted(HOSTILE_GRID_CALLS))
def test_finite_hostile_grid_gives_finite_numbers_or_refusal(
        call, grid, benchmark_rates, benchmark_steady, benchmark_basis):
    # A RuntimeWarning fails the suite, so a call that warns fails here too.
    try:
        result = HOSTILE_GRID_CALLS[call](benchmark_rates, benchmark_steady,
                                          benchmark_basis, HOSTILE_GRIDS[grid])
    except PlexcitonError:
        return
    arrays = [result] if isinstance(result, np.ndarray) else [
        value for value in vars(result).values() if value is not None]
    assert all(np.isfinite(array).all() for array in arrays)


@pytest.mark.parametrize("call, grid, names", [
    ("spectrum_fft_check", "step_5e-324", r"pi / dt"),
    ("spectrum_fft_check", "step_1e-310", r"pi / dt"),
    ("spectrum_fft_check", "step_1e-308", r"pi / dt"),
    ("g1_analytic", "span_1.7e308", r"tau\[-1\] \* \|gperp_b \+ i omega_b\|"),
    ("g2_histogram_2e4_photons", "step_5e-324", r"tau_bins"),
    ("g2_histogram_1e6_photons", "step_5e-324", r"tau_bins"),
])
def test_unrepresentable_grid_refusal_names_its_quantity(
        call, grid, names, benchmark_rates, benchmark_steady, benchmark_basis):
    with pytest.raises(ParameterError, match=names):
        HOSTILE_GRID_CALLS[call](benchmark_rates, benchmark_steady,
                                 benchmark_basis, HOSTILE_GRIDS[grid])
