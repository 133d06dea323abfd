import math

import numpy as np
import pytest
from scipy.linalg import expm

from plexciton import (
    Branch,
    ParameterError,
    bloch_steady_state,
    g2_resonant_analytic,
    regression_g2_resonant_numeric,
)
from plexciton.bloch import BlochState, evolve_bloch
from plexciton.model import _SLACK

REST = BlochState(0.0, 0.0, 0.0)


def augmented_matrix(omega, gpar, gperp):
    """Resonant Bloch equations as an affine system lifted with a constant
    coordinate."""
    return np.array([
        [-gpar, 0.0, 2 * omega, 0.0],
        [0.0, -gperp, 0.0, 0.0],
        [-2 * omega, 0.0, -gperp, omega],
        [0.0, 0.0, 0.0, 0.0],
    ])


def expm_oracle(omega, gpar, gperp, x0, t):
    """Independent affine-propagator solution of the Bloch equations."""
    a = augmented_matrix(omega, gpar, gperp)
    return (expm(a * t) @ np.append(x0, 1.0))[:3]


def bloch_rhs(state, omega, gpar, gperp):
    """Time derivative ``(dp_ee, dcoh_re, dcoh_im)`` at the given state."""
    a = augmented_matrix(omega, gpar, gperp)
    return (a @ [state.p_ee, state.coh_re, state.coh_im, 1.0])[:3]


class TestDerivative:
    def test_undriven_ground_state_is_stationary(self):
        assert np.all(bloch_rhs(REST, 0.0, 1.0, 0.5) == 0.0)

    def test_steady_state_annihilates_derivative(self):
        state = bloch_steady_state(0.2, 1.0, 0.7)
        deriv = bloch_rhs(state, 0.2, 1.0, 0.7)
        assert np.max(np.abs(deriv)) < 1e-15

    def test_weak_drive_occupation_scale(self):
        # saturation parameter 0.05 puts one tenth of the population upstairs
        gpar, gperp = 1.0, 0.5
        omega = np.sqrt(0.05 * gpar * gperp)
        state = bloch_steady_state(omega, gpar, gperp)
        assert state.p_ee == pytest.approx(0.1, abs=0.02)
        assert state.p_ee == pytest.approx(0.1 / 1.2, rel=1e-12)


class TestSteadyState:
    def test_undriven_is_ground(self):
        state = bloch_steady_state(0.0, 1.0, 0.5)
        assert (state.p_ee, state.coh_re, state.coh_im) == (0.0, 0.0, 0.0)

    def test_weak_drive_limit_one_percent(self):
        gpar, gperp = 1.3, 0.9
        s = 0.0025
        omega = np.sqrt(s * gperp * gpar)
        state = bloch_steady_state(omega, gpar, gperp)
        assert state.p_ee == pytest.approx(2 * s, rel=0.01)

    def test_saturates_monotonically_at_half(self):
        gpar, gperp = 1.0, 0.8
        drives = np.linspace(0.01, 50.0, 200)
        populations = [bloch_steady_state(om, gpar, gperp).p_ee
                       for om in drives]
        assert np.all(np.diff(populations) > 0.0)
        assert populations[-1] < 0.5
        assert populations[-1] == pytest.approx(0.5, abs=1e-4)

    def test_matches_linear_solve(self):
        # Independent oracle: null vector of the affine stationarity system.
        rng = np.random.default_rng(31)
        for _ in range(50):
            gpar = 10 ** rng.uniform(-0.5, 0.5)
            gperp = gpar * rng.uniform(0.5, 3.0)
            omega = gpar * rng.uniform(0.01, 2.0)
            m = augmented_matrix(omega, gpar, gperp)
            oracle = np.linalg.solve(m[:3, :3], -m[:3, 3])
            state = bloch_steady_state(omega, gpar, gperp)
            got = np.array([state.p_ee, state.coh_re, state.coh_im])
            assert np.max(np.abs(got - oracle)) < 1e-14

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ParameterError):
            bloch_steady_state(0.1, 0.0, 0.5)


class TestState:
    def test_positivity_bound_is_inclusive(self):
        # |coh|^2 = p_ee (1 - p_ee) + _SLACK exactly is a state, and the next
        # float past it is not, with the imaginary part negative (its square
        # counts, not its sign).
        bound = 0.5 * (1.0 - 0.5) + _SLACK
        at = -math.sqrt(_SLACK)
        assert 0.5 ** 2 + at ** 2 == bound
        assert BlochState(0.5, 0.5, at).coh_im == at
        past = -math.sqrt(_SLACK + 1e-16)
        assert 0.5 ** 2 + past ** 2 == np.nextafter(bound, 1.0)
        with pytest.raises(ParameterError, match="positivity"):
            BlochState(0.5, 0.5, past)


class TestEvolve:
    def test_zero_rates_keep_state_and_check_grid(self):
        state = BlochState(0.1, 0.05, 0.1)
        got = evolve_bloch(state, 0.0, 0.0, 0.0, np.array([0.0, 1.0, 5.0]))
        assert np.array_equal(got, np.tile([0.1, 0.05, 0.1], (3, 1)))
        with pytest.raises(ParameterError):
            evolve_bloch(state, 0.0, 0.0, 0.0, np.array([1.0, 0.5]))

    def test_matches_expm_oracle(self):
        omega, gpar, gperp = 0.3, 1.0, 0.7
        tau = np.array([0.5, 2.0, 7.0])
        states = evolve_bloch(REST, omega, gpar, gperp, tau)
        for row, t in zip(states, tau):
            oracle = expm_oracle(omega, gpar, gperp, np.zeros(3), t)
            # fixed-step RK4 at 0.1/rate per step: truncation ~1e-7
            assert np.max(np.abs(row - oracle)) < 1e-6

    def test_positivity_up_to_saturation(self):
        # Saturation 0.0025, 0.1 and 1 at gperp = gpar / 2, then random rates.
        gpar = 1.0
        cases = [(0.5, np.sqrt(s * 0.5 * gpar)) for s in (0.0025, 0.1, 1.0)]
        rng = np.random.default_rng(32)
        cases += [(rng.uniform(0.5, 2.0), rng.uniform(0.05, 1.0))
                  for _ in range(20)]
        tau = np.linspace(0.0, 40.0, 400)
        for gperp, omega in cases:
            states = evolve_bloch(REST, omega, gpar, gperp, tau)
            p = states[:, 0]
            coh2 = states[:, 1] ** 2 + states[:, 2] ** 2
            assert np.all(p >= -1e-12)
            assert np.all(coh2 <= p * (1.0 - p) + 1e-9)


class TestRegression:
    def test_starts_at_zero(self):
        g2 = regression_g2_resonant_numeric(0.02, 1.0, 0.5,
                                            np.array([0.0, 1.0]))
        assert g2[0] == 0.0

    def test_radiative_ratio_closed_form(self):
        # gperp = gpar / 2 collapses the coincidence to a squared ramp.
        gpar = 1.0
        omega = np.sqrt(0.0025 * gpar * gpar / 2)
        tau = np.linspace(0.0, 40.0, 400)
        g2 = regression_g2_resonant_numeric(omega, gpar, gpar / 2, tau)
        ramp = (1.0 - np.exp(-gpar * tau / 2.0)) ** 2
        assert np.max(np.abs(g2 - ramp)) < 5e-3

    def test_uncorrelated_at_long_lag(self):
        g2 = regression_g2_resonant_numeric(0.05, 1.0, 0.5,
                                            np.array([60.0]))
        assert abs(g2[-1] - 1.0) < 1e-4

    def test_weak_drive_convergence_50_rate_sets(self, benchmark_rates):
        # Uniform 5e-3 agreement with the weak-drive closed form at
        # saturation parameter 0.0025, for both branches and random rates.
        rng = np.random.default_rng(33)
        base = np.linspace(0.0, 40.0, 200)
        checked = 0
        for _ in range(48):
            gpar = 10 ** rng.uniform(-0.5, 0.5)
            gperp = gpar * rng.uniform(0.5, 2.5)
            omega = np.sqrt(0.0025 * gperp * gpar)
            tau = base / gpar
            numeric = regression_g2_resonant_numeric(omega, gpar, gperp, tau)
            closed = np.where(
                abs(gperp - gpar) < 1e-9 * gpar,
                1.0 - (1.0 + gpar * tau) * np.exp(-gpar * tau),
                (-gperp * np.expm1(-gpar * tau)
                 + gpar * np.expm1(-gperp * tau)) / (gperp - gpar),
            )
            assert np.max(np.abs(numeric - closed)) < 5e-3
            checked += 1
        # Both dressed branches of the benchmark doublet as well.
        for branch in Branch:
            ch = benchmark_rates.branch(branch)
            omega = np.sqrt(0.0025 * ch.gperp * ch.gpar)
            tau = base / ch.gpar
            numeric = regression_g2_resonant_numeric(omega, ch.gpar,
                                                     ch.gperp, tau)
            closed = g2_resonant_analytic(branch, benchmark_rates, tau).values
            assert np.max(np.abs(numeric - closed)) < 5e-3
            checked += 1
        assert checked == 50
