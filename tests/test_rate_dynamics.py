import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from plexciton import (
    Branch,
    DegenerateSteadyStateError,
    IntegrationError,
    ParameterError,
    Populations,
    SystemParams,
    branch_rates,
    dressed_basis,
    evolve_populations,
    regression_g2_nonresonant_numeric,
    steady_state_analytic,
)
from plexciton import rate_dynamics
from plexciton.rate_dynamics import PopulationTrajectory, evolve_linear, rate_matrix

from conftest import random_params

GROUND = Populations(1.0, 0.0, 0.0, 0.0)


def expm_oracle(rates, pump_r, x0, t):
    """Independent matrix-exponential solution of the balance equations."""
    return expm(rate_matrix(rates, pump_r) * t) @ x0


def populations_rhs(pop, rates, pump_r):
    """Right-hand side of the balance equations at the given populations."""
    return rate_matrix(rates, pump_r) @ pop.as_array()


class TestDerivative:
    def test_ground_state_stationary_without_pump(self, benchmark_rates):
        deriv = populations_rhs(GROUND, benchmark_rates, 0.0)
        assert np.all(deriv == 0.0)

    def test_pump_only_term(self, benchmark_rates):
        deriv = populations_rhs(GROUND, benchmark_rates, 0.01)
        assert deriv == pytest.approx([-0.01, 0.01, 0.0, 0.0], abs=1e-18)

    def test_steady_state_annihilates_derivative(self, benchmark_rates, benchmark_params):
        steady = steady_state_analytic(benchmark_rates, benchmark_params.pump_r)
        deriv = populations_rhs(steady, benchmark_rates, benchmark_params.pump_r)
        assert np.max(np.abs(deriv)) < 1e-12

    def test_probability_conservation(self, benchmark_rates):
        rng = np.random.default_rng(21)
        for _ in range(50):
            raw = rng.random(4)
            pop = Populations(*(raw / raw.sum()))
            deriv = populations_rhs(pop, benchmark_rates, 0.37)
            assert abs(deriv.sum()) < 1e-15


class TestEvolve:
    def test_constant_without_pump(self, benchmark_rates):
        traj = evolve_populations(GROUND, benchmark_rates, 0.0, t_end=50.0, dt_max=0.5)
        assert np.allclose(traj.values, GROUND.as_array(), atol=1e-15)

    def test_single_exponential_branch_decay(self, benchmark_params, benchmark_basis):
        # With the pump and feeding off, an initially populated minus branch
        # decays as a bare exponential.
        params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                              gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.0,
                              pump_r=0.0)
        rates = branch_rates(params, dressed_basis(params))
        start = Populations(0.0, 0.0, 1.0, 0.0)
        traj = evolve_populations(start, rates, 0.0, t_end=8.0, dt_max=1.0,
                                  n_samples=80)
        expected = np.exp(-rates.gpar_minus * traj.times)
        assert np.max(np.abs(traj.values[:, 2] - expected)) < 1e-6

    def test_converges_to_analytic_steady_state(self, benchmark_rates, benchmark_params):
        slow = benchmark_params.pump_r + benchmark_params.gamma_u
        traj = evolve_populations(GROUND, benchmark_rates, benchmark_params.pump_r,
                                  t_end=20.0 / slow, dt_max=1.0)
        steady = steady_state_analytic(benchmark_rates, benchmark_params.pump_r)
        assert np.max(np.abs(traj.final.as_array() - steady.as_array())) < 1e-8

    def test_matches_expm_oracle_along_the_way(self, benchmark_rates, benchmark_params):
        traj = evolve_populations(GROUND, benchmark_rates, benchmark_params.pump_r,
                                  t_end=300.0, dt_max=1.0, n_samples=30)
        for t, state in zip(traj.times[1:], traj.values[1:]):
            oracle = expm_oracle(benchmark_rates, benchmark_params.pump_r,
                                 GROUND.as_array(), t)
            assert np.max(np.abs(state - oracle)) < 1e-9

    def test_conservation_and_positivity_long_run(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            params = random_params(rng, r_lo=0.05, r_hi=0.1)
            rates = branch_rates(params, dressed_basis(params))
            min_rate = min(params.pump_r, params.gamma_u, rates.gpar_minus,
                           rates.gpar_plus)
            traj = evolve_populations(GROUND, rates, params.pump_r,
                                      t_end=100.0 / min_rate, dt_max=np.inf,
                                      n_samples=100)
            sums = traj.values.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-9
            assert traj.values.min() > -1e-12

    def test_trajectory_stores_float_arrays(self):
        traj = PopulationTrajectory([0, 1], [[1, 0, 0, 0]] * 2)
        assert traj.times.dtype == traj.values.dtype == np.float64

    def test_rejects_unnormalized_initial_state(self, benchmark_rates):
        bad = Populations(0.5, 0.0, 0.0, 0.0)
        with pytest.raises(ParameterError, match="sum"):
            evolve_populations(bad, benchmark_rates, 0.01, t_end=1.0, dt_max=0.1)

    @pytest.mark.parametrize("n_samples", [1, 2, 7])
    def test_samples_the_start_and_n_samples_more(self, benchmark_rates,
                                                  n_samples):
        traj = evolve_populations(GROUND, benchmark_rates, 0.01, t_end=1.0,
                                  dt_max=0.1, n_samples=n_samples)
        assert traj.times.tolist() == np.linspace(0.0, 1.0,
                                                  n_samples + 1).tolist()
        assert traj.values.shape == (n_samples + 1, 4)

    def test_rejects_empty_sampling(self, benchmark_rates):
        with pytest.raises(ParameterError, match="n_samples"):
            evolve_populations(GROUND, benchmark_rates, 0.01, t_end=1.0,
                               dt_max=0.1, n_samples=0)

    def test_propagator_rejects_bad_step_and_grid(self, benchmark_rates):
        a = rate_matrix(benchmark_rates, 0.01)
        x0 = GROUND.as_array()
        with pytest.raises(ParameterError, match="dt_cap"):
            evolve_linear(a, x0, np.array([1.0]), 0.0)
        with pytest.raises(ParameterError, match="increasing"):
            evolve_linear(a, x0, np.array([1.0, 1.0]), 0.1)


class TestPropagator:
    @staticmethod
    def textbook_rk4(a, x0, grid, dt_cap):
        """Per-step classic RK4 on ``x' = A x`` with the propagator's step rule."""
        x = np.asarray(x0, dtype=float)
        out, t_prev = [], 0.0
        for t in grid:
            seg = t - t_prev
            if seg > 0.0:
                n_steps = max(1, math.ceil(seg / dt_cap - 1e-12))
                h = seg / n_steps
                for _ in range(n_steps):
                    k1 = a @ x
                    k2 = a @ (x + 0.5 * h * k1)
                    k3 = a @ (x + 0.5 * h * k2)
                    k4 = a @ (x + h * k3)
                    x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out.append(x)
            t_prev = t
        return np.array(out)

    def assert_matches_textbook(self, rates, pump_r, grid):
        fastest = max(pump_r, rates.gfeed_total, rates.gpar_minus,
                      rates.gpar_plus)
        a, x0, dt_cap = rate_matrix(rates, pump_r), GROUND.as_array(), 0.1 / fastest
        reference = self.textbook_rk4(a, x0, grid, dt_cap)
        assert np.max(np.abs(evolve_linear(a, x0, grid, dt_cap) - reference)) <= 1e-11

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 600.0, 601),
        np.linspace(0.0, 30.0, 601),
        np.linspace(0.7, 450.0, 601),
        np.linspace(2.5, 400.0, 5),
    ], ids=["linspace-9-steps", "linspace-1-step", "late-start", "five-points"])
    def test_matches_textbook_rk4(self, benchmark_rates, benchmark_params, grid):
        self.assert_matches_textbook(benchmark_rates, benchmark_params.pump_r, grid)

    def test_drifting_segments_keep_their_own_times(self, benchmark_rates,
                                                    benchmark_params):
        # Neighbouring segments agree to 3e-13 but the first and last differ
        # by 3e-10: one uniform step over them would misplace the samples.
        grid = np.cumsum(0.25 * (1.0 + 3e-13) ** np.arange(1000))
        self.assert_matches_textbook(benchmark_rates, benchmark_params.pump_r, grid)

    @settings(max_examples=40, deadline=None)
    @given(start=st.sampled_from([0.0, 0.3, 17.0]),
           gaps=st.lists(st.sampled_from([0.05, 0.4, 1.0, 2.5, 7.0])
                         | st.floats(1e-3, 20.0), min_size=1, max_size=40))
    def test_non_uniform_grid_matches_textbook_rk4(self, benchmark_rates,
                                                   benchmark_params, start, gaps):
        grid = start + np.cumsum(np.concatenate(([0.0], gaps)))
        self.assert_matches_textbook(benchmark_rates, benchmark_params.pump_r, grid)

    # Segment lengths of a linspace grid differ in their last bits, by more
    # than 1e-12 relative from about 4001 points on.
    @pytest.mark.parametrize("points", [601, 20001])
    def test_linspace_grid_builds_one_step_matrix(self, benchmark_rates,
                                                  benchmark_params, monkeypatch,
                                                  points):
        calls = []

        def counting(a, h):
            calls.append(h)
            return step_matrix(a, h)

        step_matrix = rate_dynamics.rk4_step_matrix
        monkeypatch.setattr(rate_dynamics, "rk4_step_matrix", counting)
        tau = np.linspace(0.0, 500.0, points)
        regression_g2_nonresonant_numeric(benchmark_rates, benchmark_params.pump_r,
                                          Branch.MINUS, tau)
        assert len(calls) == 1

    # A late first sample gets a lead-in run of its own, even on the lattice
    # from 0; a grid that is not uniform goes segment by segment.
    @pytest.mark.parametrize("grid, matrices", [
        (np.linspace(0.0, 500.0, 601), 1),
        (np.linspace(0.7, 500.0, 601), 2),
        (np.linspace(0.0, 500.0, 601)[1:], 2),
        (np.array([0.0, 1.0, 3.0, 4.0, 9.0]), 4),
        (np.array([0.5, 1.0, 3.0, 4.0, 9.0]), 5),
    ], ids=["linspace", "late-start", "late-start-on-lattice", "non-uniform",
            "non-uniform-late"])
    def test_step_matrices_per_grid(self, benchmark_rates, benchmark_params,
                                    monkeypatch, grid, matrices):
        calls = []

        def counting(a, h):
            calls.append(h)
            return step_matrix(a, h)

        step_matrix = rate_dynamics.rk4_step_matrix
        monkeypatch.setattr(rate_dynamics, "rk4_step_matrix", counting)
        evolve_linear(rate_matrix(benchmark_rates, benchmark_params.pump_r),
                      GROUND.as_array(), grid)
        assert len(calls) == matrices

    def test_growing_system_names_first_non_finite_sample(self):
        # e^t overflows past t ~ 709.8: the sample at 700 is finite, 750 not.
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        grid = np.arange(50.0, 1001.0, 50.0)
        with pytest.raises(IntegrationError, match=r"t = 750\.0$"):
            evolve_linear(a, np.array([1.0, 1.0]), grid, 0.1)


class TestSteadyState:
    def test_symmetric_mixing_value(self):
        # theta = pi/4, R = gamma = 0.01, gpar = 1; frozen from the closed
        # form and cross-checked against long-time integration below.
        params = SystemParams(omega0=0.0, omega1=0.0, v0=1.0, gamma_r=1.0,
                              gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.01,
                              pump_r=0.01)
        rates = branch_rates(params, dressed_basis(params))
        steady = steady_state_analytic(rates, params.pump_r)
        assert steady.p_mm == pytest.approx(4.950495049504951e-3, rel=1e-12)
        assert steady.p_pp == pytest.approx(4.950495049504951e-3, rel=1e-12)
        traj = evolve_populations(GROUND, rates, params.pump_r,
                                  t_end=20.0 / 0.02, dt_max=1.0)
        assert np.max(np.abs(traj.final.as_array() - steady.as_array())) < 1e-8

    def test_population_ratio_is_tan4(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            params = random_params(rng)
            basis = dressed_basis(params)
            rates = branch_rates(params, basis)
            steady = steady_state_analytic(rates, params.pump_r)
            tan4 = np.tan(basis.theta) ** 4
            assert steady.p_mm / steady.p_pp == pytest.approx(tan4, rel=1e-12)

    def test_normalized_to_machine_precision(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            params = random_params(rng)
            rates = branch_rates(params, dressed_basis(params))
            steady = steady_state_analytic(rates, params.pump_r)
            assert abs(steady.total - 1.0) < 1e-12

    def test_degenerate_rates_rejected(self, benchmark_rates):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state_analytic(benchmark_rates, 0.0)
        # A branch that is never fed has no stationary share to divide by.
        with pytest.raises(DegenerateSteadyStateError, match="gfeed=\\(0.0, "):
            steady_state_analytic(
                dataclasses.replace(benchmark_rates, gfeed_minus=0.0), 0.01)
        # A branch that does not decay is refused where its rates are built.
        params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=0.0,
                              gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.01,
                              pump_r=0.01)
        with pytest.raises(ParameterError, match="branch rates must be positive"):
            branch_rates(params, dressed_basis(params))


class TestRegression:
    def test_starts_at_zero(self, benchmark_rates, benchmark_params):
        tau = np.array([0.0, 1.0, 10.0])
        for branch in Branch:
            g2 = regression_g2_nonresonant_numeric(benchmark_rates,
                                                   benchmark_params.pump_r,
                                                   branch, tau)
            assert g2[0] == 0.0

    def test_uncorrelated_at_long_lag(self, benchmark_rates, benchmark_params):
        slow = benchmark_params.pump_r + benchmark_params.gamma_u
        tau = np.array([25.0 / slow])
        for branch in Branch:
            g2 = regression_g2_nonresonant_numeric(benchmark_rates,
                                                   benchmark_params.pump_r,
                                                   branch, tau)
            assert abs(g2[-1] - 1.0) < 1e-6

    def test_against_expm_oracle(self, benchmark_rates, benchmark_params):
        tau = np.array([5.0, 50.0, 100.0, 400.0])
        g2 = regression_g2_nonresonant_numeric(benchmark_rates, benchmark_params.pump_r,
                                               Branch.MINUS, tau)
        steady = steady_state_analytic(benchmark_rates, benchmark_params.pump_r)
        for value, t in zip(g2, tau):
            oracle = expm_oracle(benchmark_rates, benchmark_params.pump_r,
                                 GROUND.as_array(), t)[2] / steady.p_mm
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_benchmark_value_at_lag_100(self, benchmark_rates, benchmark_params):
        # Value frozen from the matrix-exponential oracle.  Note it sits
        # 1.3e-2 above the leading-order closed form (0.62040), whose
        # constant term is off by (R + gamma)/gpar_b at long lags.
        g2 = regression_g2_nonresonant_numeric(benchmark_rates, benchmark_params.pump_r,
                                               Branch.MINUS,
                                               np.array([100.0]))
        assert g2[0] == pytest.approx(0.6336023237534651, abs=1e-8)

    def test_leading_order_closed_form_gap(self, benchmark_rates, benchmark_params):
        # The closed form is first-order accurate per branch: its gap to the
        # exact regression stays within 1.5 * (R + gamma)/gpar_b (measured
        # coefficients are 1.24 for minus and 1.00 for plus).  The minus
        # branch also meets the quadratic envelope in terms of the smaller
        # branch rate, 5 * ((R + gamma)/min(gpar))**2; the plus branch does
        # not, because its own first-order defect is the larger scale.
        from plexciton import g2_nonresonant_analytic

        slow = benchmark_params.pump_r + benchmark_params.gamma_u
        tau = np.linspace(0.0, 8.0 / slow, 200)
        min_gpar = min(benchmark_rates.gpar_minus, benchmark_rates.gpar_plus)
        for branch in Branch:
            numeric = regression_g2_nonresonant_numeric(
                benchmark_rates, benchmark_params.pump_r, branch, tau)
            closed = g2_nonresonant_analytic(branch, benchmark_rates,
                                             benchmark_params.pump_r,
                                             benchmark_params.gamma_u, tau).values
            gap = np.max(np.abs(numeric - closed))
            eps_b = slow / benchmark_rates.branch(branch).gpar
            assert gap <= 1.5 * eps_b
        numeric = regression_g2_nonresonant_numeric(
            benchmark_rates, benchmark_params.pump_r, Branch.MINUS, tau)
        closed = g2_nonresonant_analytic(Branch.MINUS, benchmark_rates,
                                         benchmark_params.pump_r,
                                         benchmark_params.gamma_u, tau).values
        assert np.max(np.abs(numeric - closed)) <= 5.0 * (slow / min_gpar) ** 2

    def test_rejects_bad_grid(self, benchmark_rates, benchmark_params):
        with pytest.raises(ParameterError):
            regression_g2_nonresonant_numeric(benchmark_rates, benchmark_params.pump_r,
                                              Branch.MINUS,
                                              np.array([1.0, 0.5]))
