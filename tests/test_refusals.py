"""Library calls that refuse their input: one row per refusal."""

import math
from dataclasses import replace

import numpy as np
import pytest

from plexciton import (
    Branch,
    CorrelationSeries,
    InsufficientDataError,
    ParameterError,
    PhotonStream,
    Populations,
    ResolutionError,
    SpectrumSeries,
    SystemParams,
    TrajectoryConfig,
    bloch_steady_state,
    branch_rates,
    dressed_basis,
    evolve_populations,
    fano_factor,
    g2_histogram,
    g2_nonresonant_analytic,
    g2_resonant_analytic,
    occupation_fractions,
    regression_g2_resonant_numeric,
    spectrum_fft_check,
)
from plexciton.bloch import BlochState
from plexciton.integrate import check_grid
from plexciton.rate_dynamics import PopulationTrajectory
from plexciton.stochastic import plan_run

PARAMS = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                      gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.005,
                      pump_r=0.005)
RATES = branch_rates(PARAMS, dressed_basis(PARAMS))
# gamma_r = gamma_nr = gamma_perp = 0: every branch rate is zero.
ZERO_DECAY = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=0.0,
                          gamma_nr=0.0, gamma_perp=0.0, gamma_u=0.005,
                          pump_r=0.005)
ZERO_RATES = branch_rates(ZERO_DECAY, dressed_basis(ZERO_DECAY))
EMPTY = PhotonStream(np.empty(0), np.empty(0, dtype=np.int8), 1000.0)
TAU = np.linspace(0.0, 10.0, 11)
GROUND = Populations(1.0, 0.0, 0.0, 0.0)
RUN = TrajectoryConfig(duration=1e4)


REFUSALS = [
    pytest.param(lambda: TrajectoryConfig(duration=1.0, n_trajectories=0),
                 ParameterError, "n_trajectories must be >= 1, got 0",
                 id="no-trajectories"),
    pytest.param(lambda: g2_histogram(EMPTY, Branch.MINUS, [0.0]),
                 ParameterError, "tau_bins must contain at least two edges",
                 id="histogram-one-edge"),
    pytest.param(lambda: fano_factor(EMPTY, 0.0), ParameterError,
                 "window must be positive and finite, got 0.0", id="fano-zero-window"),
    pytest.param(lambda: fano_factor(EMPTY, math.nan), ParameterError,
                 "window must be positive and finite, got nan", id="fano-nan-window"),
    pytest.param(lambda: fano_factor(EMPTY, 1.0), InsufficientDataError,
                 "no photons in any counting window", id="fano-no-photons"),
    pytest.param(lambda: regression_g2_resonant_numeric(0.0, 1.0, 0.5, TAU),
                 ParameterError,
                 "drive amplitude must be positive and finite, got 0.0",
                 id="resonant-regression-no-drive"),
    # A string or None is refused with the message, not a bare TypeError.
    pytest.param(lambda: regression_g2_resonant_numeric("0.1", 1.0, 0.5, TAU),
                 ParameterError,
                 "drive amplitude must be positive and finite, got '0.1'",
                 id="resonant-regression-string-drive"),
    pytest.param(lambda: regression_g2_resonant_numeric(math.inf, 1.0, 0.5,
                                                        TAU),
                 ParameterError,
                 "drive amplitude must be positive and finite, got inf",
                 id="resonant-regression-infinite-drive"),
    pytest.param(lambda: evolve_populations(GROUND, RATES, 0.005, None, 0.1),
                 ParameterError, "t_end must be positive and finite, got None",
                 id="evolve-no-end"),
    pytest.param(lambda: plan_run(PARAMS, RATES, RUN, "3", None),
                 ParameterError, "window must be positive and finite, got '3'",
                 id="plan-string-window"),
    # Refused before sampling; a run would find no whole window to count.
    pytest.param(lambda: plan_run(PARAMS, RATES, RUN, math.inf, None),
                 ParameterError, "window must be positive and finite, got inf",
                 id="plan-infinite-window"),
    pytest.param(lambda: plan_run(PARAMS, RATES, RUN, None, "3"),
                 ParameterError,
                 "largest lag must be positive and finite, got '3'",
                 id="plan-string-lag"),
    pytest.param(lambda: BlochState(1.5, 0.0, 0.0), ParameterError,
                 "p_ee = 1.5 outside [0, 1]", id="bloch-out-of-range"),
    pytest.param(lambda: BlochState(0.5, 0.5, 0.5), ParameterError,
                 "violates density-matrix positivity",
                 id="bloch-not-positive"),
    pytest.param(lambda: Populations(0.5, 0.0, 1.5, 0.0), ParameterError,
                 "p_mm = 1.5 outside [0, 1]", id="populations-out-of-range"),
    pytest.param(lambda: PopulationTrajectory(TAU, np.zeros((3, 4))),
                 ParameterError, "trajectory arrays have inconsistent shapes",
                 id="trajectory-shape"),
    pytest.param(lambda: PopulationTrajectory(TAU, np.full((11, 4), 2.0)),
                 ParameterError, "trajectory contains out-of-range populations",
                 id="trajectory-range"),
    pytest.param(lambda: evolve_populations(GROUND, RATES, 0.005, 1.0, 0.0),
                 ParameterError, "dt_max must be positive, got 0.0",
                 id="evolve-zero-step"),
    pytest.param(lambda: spectrum_fft_check(CorrelationSeries(
        TAU[:2], np.ones(2))), ResolutionError, "need at least 3 samples",
                 id="fft-too-few-samples"),
    pytest.param(lambda: spectrum_fft_check(CorrelationSeries(
        np.array([0.0, 1.0, 3.0]), np.ones(3))), ResolutionError,
                 "tau grid must be uniform and start at 0",
                 id="fft-non-uniform"),
    pytest.param(lambda: spectrum_fft_check(CorrelationSeries(
        TAU, np.ones(11))), ResolutionError,
                 "series does not decay within the sampled span",
                 id="fft-no-decay"),
    pytest.param(lambda: CorrelationSeries(TAU, TAU, np.ones(3)),
                 ParameterError, "stderr and tau must have matching shapes",
                 id="stderr-shape"),
    pytest.param(lambda: SpectrumSeries(TAU, np.ones(3)), ParameterError,
                 "values and omega must have matching shapes",
                 id="spectrum-shape"),
    pytest.param(lambda: SpectrumSeries(TAU, -TAU), ParameterError,
                 "spectral density must be nonnegative",
                 id="spectrum-negative"),
    pytest.param(lambda: g2_resonant_analytic(Branch.MINUS, ZERO_RATES, TAU),
                 ParameterError, "branch rates must be positive",
                 id="resonant-closed-form-zero-decay"),
    pytest.param(lambda: g2_nonresonant_analytic(Branch.PLUS, ZERO_RATES,
                                                 0.005, 0.005, TAU),
                 ParameterError, "branch rates must be positive",
                 id="nonresonant-closed-form-zero-decay"),
    # gperp**2 * gpar underflows to zero.
    pytest.param(lambda: bloch_steady_state(0.1, 1e-200, 1e-200),
                 ParameterError, "branch rates must be positive",
                 id="bloch-steady-state-underflow"),
    pytest.param(lambda: check_grid(np.zeros((2, 2)), "grid"), ParameterError,
                 "grid must be a non-empty 1-d array", id="grid-2d"),
    pytest.param(lambda: check_grid([], "grid"), ParameterError,
                 "grid must be a non-empty 1-d array", id="grid-empty"),
]


@pytest.mark.parametrize("call, error, fragment", REFUSALS)
def test_refusal(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_occupation_without_pump_is_all_ground():
    assert occupation_fractions(
        replace(PARAMS, pump_r=0.0), RATES, TrajectoryConfig(duration=10.0),
    ) == {"gg": 1.0, "uu": 0.0, "mm": 0.0, "pp": 0.0}
