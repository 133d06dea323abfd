"""Library calls that refuse their input: one row per refusal."""

import math
from dataclasses import replace

import numpy as np
import pytest

from plexciton import (
    Branch,
    BranchRates,
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
    steady_state_analytic,
)
from plexciton.bloch import BlochState
from plexciton.model import check_grid
from plexciton.rate_dynamics import PopulationTrajectory, evolve_linear
from plexciton.stochastic import plan_run

PARAMS = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                      gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.005,
                      pump_r=0.005)
RATES = branch_rates(PARAMS, dressed_basis(PARAMS))
# gamma_r = gamma_nr = gamma_perp = 0: every branch rate is zero.
ZERO_DECAY = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=0.0,
                          gamma_nr=0.0, gamma_perp=0.0, gamma_u=0.005,
                          pump_r=0.005)


def zero_rates():
    """The rates of ZERO_DECAY, which BranchRates refuses to build."""
    return branch_rates(ZERO_DECAY, dressed_basis(ZERO_DECAY))


EMPTY = PhotonStream(np.empty(0), np.empty(0, dtype=np.int8), 1000.0)
TAU = np.linspace(0.0, 10.0, 11)
GROUND = Populations(1.0, 0.0, 0.0, 0.0)
RUN = TrajectoryConfig(duration=1e4)


def g1_with(index, value):
    """A 4001-point ``exp(-tau)`` series at ``dt = 0.01``, ``value`` at
    ``index``."""
    tau = np.arange(4001) * 0.01
    values = np.exp(-tau)
    values[index] = value
    return CorrelationSeries(tau, values)


def dense_histogram(spacing, duration):
    """``g2_histogram`` of 1e4 photons ``spacing`` apart over ``duration``,
    in two bins as wide as that spacing."""
    stream = PhotonStream(np.arange(1, 10001) * spacing,
                          np.zeros(10000, dtype=np.int8), duration)
    return g2_histogram(stream, None, np.arange(3) * spacing)


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
                 "p_ee must be in [0, 1], got 1.5", id="bloch-out-of-range"),
    pytest.param(lambda: BlochState(0.5, 0.5, 0.5), ParameterError,
                 "violates density-matrix positivity",
                 id="bloch-not-positive"),
    pytest.param(lambda: Populations(0.5, 0.0, 1.5, 0.0), ParameterError,
                 "p_mm must be in [0, 1], got 1.5", id="populations-out-of-range"),
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
    # Its density at omega = 0 is 2 * (1 - 0.8 * 2) = -1.2.
    pytest.param(lambda: spectrum_fft_check(CorrelationSeries(
        np.arange(30001) * 0.002, np.exp(-np.arange(30001) * 0.002)
        - 0.8 * np.exp(-np.arange(30001) * 0.001))), ResolutionError,
                 "transform produced significantly negative density",
                 id="fft-negative-density"),
    pytest.param(lambda: CorrelationSeries(TAU, TAU, np.ones(3)),
                 ParameterError, "stderr and tau must have matching shapes",
                 id="stderr-shape"),
    pytest.param(lambda: SpectrumSeries(TAU, np.ones(3)), ParameterError,
                 "values and omega must have matching shapes",
                 id="spectrum-shape"),
    pytest.param(lambda: SpectrumSeries(TAU, -TAU), ParameterError,
                 "spectral density must be nonnegative",
                 id="spectrum-negative"),
    # No closed form can be reached with zero decay: the rates are refused.
    pytest.param(lambda: g2_resonant_analytic(Branch.MINUS, zero_rates(), TAU),
                 ParameterError, "branch rates must be positive",
                 id="resonant-closed-form-zero-decay"),
    pytest.param(lambda: g2_nonresonant_analytic(Branch.PLUS, zero_rates(),
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
    # Zero decay is refused wherever a BranchRates is built.
    pytest.param(lambda: BranchRates(*[0.0] * 10), ParameterError,
                 "branch rates must be positive", id="direct-rates-zero-decay"),
    pytest.param(lambda: replace(RATES, gpar_minus=0.0), ParameterError,
                 "branch rates must be positive",
                 id="replaced-rates-zero-decay"),
    pytest.param(lambda: replace(RATES, gperp_plus=math.inf), ParameterError,
                 "gperp=inf", id="replaced-rates-infinite-dephasing"),
    # Raw scalar arguments take SystemParams' rule for the same quantity.
    pytest.param(lambda: steady_state_analytic(RATES, "0.1"), ParameterError,
                 "pump_r must be finite, got '0.1'", id="steady-string-pump"),
    pytest.param(lambda: evolve_populations(GROUND, RATES, math.inf, 1.0, 0.1),
                 ParameterError, "pump_r must be finite and >= 0, got inf",
                 id="evolve-infinite-pump"),
    pytest.param(lambda: evolve_populations(GROUND, RATES, 0.005, 1.0, None),
                 ParameterError, "dt_max must be positive, got None",
                 id="evolve-no-step"),
    pytest.param(lambda: evolve_populations(GROUND, RATES, 0.005, 1.0, 0.1,
                                            "3"),
                 ParameterError, "n_samples must be an integer, got '3'",
                 id="evolve-string-samples"),
    pytest.param(lambda: evolve_populations(GROUND, RATES, 0.005, 1.0, 0.1,
                                            2.5),
                 ParameterError, "n_samples must be an integer, got 2.5",
                 id="evolve-fractional-samples"),
    pytest.param(lambda: evolve_populations(GROUND, RATES, 0.005, 1.0, 0.1,
                                            10 ** 400),
                 ParameterError, "n_samples must be <= 1000000",
                 id="evolve-huge-samples"),
    pytest.param(lambda: evolve_linear(np.eye(2), np.ones(2), TAU, None),
                 ParameterError, "dt_cap must be positive, got None",
                 id="propagator-no-step"),
    # Each step count must be a float: the RK4 step bound needs finite rates.
    pytest.param(lambda: evolve_linear(np.array([[-math.inf]]), np.ones(1),
                                       TAU), ParameterError,
                 "largest entry of the system matrix must be finite",
                 id="propagator-infinite-rate"),
    pytest.param(lambda: evolve_populations(GROUND, RATES, 0.005, 1e308, 0.1),
                 ParameterError, "grid end / step bound must be finite",
                 id="evolve-step-count-overflow"),
    pytest.param(lambda: g2_nonresonant_analytic(Branch.MINUS, RATES, -1.0,
                                                 0.005, TAU),
                 ParameterError, "pump_r must be finite and >= 0, got -1.0",
                 id="nonresonant-closed-form-negative-pump"),
    pytest.param(lambda: g2_nonresonant_analytic(Branch.MINUS, RATES, 0.005,
                                                 math.nan, TAU),
                 ParameterError, "gamma_total must be finite and >= 0, got nan",
                 id="nonresonant-closed-form-nan-feeding"),
    pytest.param(lambda: bloch_steady_state("0.1", 1.0, 0.5), ParameterError,
                 "omega_l_rabi must be finite, got '0.1'",
                 id="bloch-steady-state-string-drive"),
    pytest.param(lambda: bloch_steady_state(0.1, "1", 0.5), ParameterError,
                 "branch rates must be positive", id="bloch-steady-state-string-rate"),
    # Value containers refuse what is not a finite real number.
    pytest.param(lambda: Populations("1", 0, 0, 0), ParameterError,
                 "p_gg must be in [0, 1], got '1'", id="populations-string"),
    pytest.param(lambda: BlochState(0.5, math.nan, 0.0), ParameterError,
                 "coh_re must be finite, got nan", id="bloch-nan-coherence"),
    pytest.param(lambda: PopulationTrajectory(TAU, np.full((11, 4), np.nan)),
                 ParameterError, "trajectory contains out-of-range populations",
                 id="trajectory-nan"),
    pytest.param(lambda: SpectrumSeries(TAU, np.full(11, np.nan)),
                 ParameterError, "values must be finite", id="spectrum-nan"),
    # Array fields take check_grid's rule for a real number; g1 may be complex.
    pytest.param(lambda: CorrelationSeries(TAU, np.full(11, "1")),
                 ParameterError,
                 "values must be real or complex numbers, got dtype <U1",
                 id="correlation-string-values"),
    pytest.param(lambda: CorrelationSeries(TAU, np.ones(11, dtype=object)),
                 ParameterError,
                 "values must be real or complex numbers, got dtype object",
                 id="correlation-object-values"),
    pytest.param(lambda: CorrelationSeries(TAU, TAU, np.full(11, "1")),
                 ParameterError, "stderr must be real numbers, got dtype <U1",
                 id="correlation-string-stderr"),
    pytest.param(lambda: CorrelationSeries(TAU, TAU, np.ones(11, dtype=object)),
                 ParameterError, "stderr must be real numbers, got dtype object",
                 id="correlation-object-stderr"),
    pytest.param(lambda: SpectrumSeries(TAU, np.full(11, "1")), ParameterError,
                 "values must be real numbers, got dtype <U1",
                 id="spectrum-string-values"),
    pytest.param(lambda: SpectrumSeries(TAU, TAU + 1j), ParameterError,
                 "values must be real numbers, got dtype complex128",
                 id="spectrum-complex-values"),
    pytest.param(lambda: SpectrumSeries(TAU, np.ones(11, dtype=object)),
                 ParameterError, "values must be real numbers, got dtype object",
                 id="spectrum-object-values"),
    pytest.param(lambda: SpectrumSeries(TAU, np.ones(11, dtype=bool)),
                 ParameterError, "values must be real numbers, got dtype bool",
                 id="spectrum-bool-values"),
    pytest.param(lambda: PopulationTrajectory(TAU, [[None] * 4] * 11),
                 ParameterError,
                 "trajectory values must be real numbers, got dtype object",
                 id="trajectory-list"),
    pytest.param(lambda: PopulationTrajectory(TAU, np.full((11, 4), "0.25")),
                 ParameterError,
                 "trajectory values must be real numbers, got dtype <U4",
                 id="trajectory-string-values"),
    pytest.param(lambda: spectrum_fft_check(CorrelationSeries(
        TAU, np.full(11, "1"))), ParameterError,
                 "values must be real or complex numbers, got dtype <U1",
                 id="fft-string-values"),
    # Squared, the photon rate overflows a float, or the rate already has.
    pytest.param(lambda: dense_histogram(1e-165, 1e-160),
                 ParameterError, "squared photon rate must be finite",
                 id="histogram-squared-rate-overflows"),
    pytest.param(lambda: dense_histogram(1e-310, 1e-305),
                 ParameterError, "squared photon rate must be finite",
                 id="histogram-infinite-rate"),
    pytest.param(lambda: spectrum_fft_check(g1_with(5, np.inf)),
                 ParameterError, "values must be finite", id="fft-inf-value"),
    pytest.param(lambda: spectrum_fft_check(g1_with(-1, np.inf)),
                 ParameterError, "values must be finite",
                 id="fft-inf-last-value"),
    pytest.param(lambda: spectrum_fft_check(g1_with(5, np.nan)),
                 ParameterError, "values must be finite", id="fft-nan-value"),
    pytest.param(lambda: CorrelationSeries(TAU, np.full(11, -np.inf)),
                 ParameterError, "values must be finite",
                 id="correlation-inf-values"),
    pytest.param(lambda: CorrelationSeries(TAU, np.full(11, complex(0, np.inf))),
                 ParameterError, "values must be finite",
                 id="correlation-complex-inf-values"),
    pytest.param(lambda: CorrelationSeries(TAU, TAU, np.full(11, np.nan)),
                 ParameterError, "stderr must be finite",
                 id="correlation-nan-stderr"),
    pytest.param(lambda: CorrelationSeries(TAU, TAU, np.full(11, np.inf)),
                 ParameterError, "stderr must be finite",
                 id="correlation-inf-stderr"),
    pytest.param(lambda: CorrelationSeries(TAU, np.ones(11), -np.ones(11)),
                 ParameterError, "stderr must be nonnegative",
                 id="correlation-negative-stderr"),
    pytest.param(lambda: SpectrumSeries(TAU, np.full(11, np.inf)),
                 ParameterError, "values must be finite",
                 id="spectrum-inf-values"),
    pytest.param(lambda: check_grid("abc", "grid"), ParameterError,
                 "grid must be real numbers, got dtype <U3", id="grid-string"),
    pytest.param(lambda: check_grid(TAU + 1j, "grid"), ParameterError,
                 "grid must be real numbers, got dtype complex128",
                 id="grid-complex"),
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
