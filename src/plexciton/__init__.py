"""Quantum-light emission from a metal nanoparticle hybridized with an emitter.

Simulates the dressed doublet of a strongly coupled nanoparticle-emitter
system: closed-form spectra and photon correlations for incoherent pumping
and resonant driving, numerical rate/Bloch dynamics as independent oracles,
and an exact stochastic jump simulator producing photon streams.
"""

__version__ = "0.1.0"

from .bloch import (
    BlochState,
    bloch_steady_state,
    evolve_bloch,
    regression_g2_resonant_numeric,
)
from .correlations import (
    CorrelationSeries,
    SpectrumSeries,
    detected_spectrum,
    g1_analytic,
    g2_nonresonant_analytic,
    g2_resonant_analytic,
    spectrum_analytic,
    spectrum_fft_check,
)
from .config import RunConfig, parse_config
from .errors import (
    ConfigError,
    DegenerateSteadyStateError,
    InsufficientDataError,
    IntegrationError,
    ParameterError,
    PlexcitonError,
    RegimeWarning,
    ResolutionError,
)
from .model import (
    Branch,
    BranchRates,
    DressedBasis,
    Scenario,
    SystemParams,
    branch_drive_rabi,
    branch_rates,
    dressed_basis,
    mixing_angle,
    rabi_splitting,
)
from .rate_dynamics import (
    Populations,
    PopulationTrajectory,
    evolve_populations,
    regression_g2_nonresonant_numeric,
    steady_state_analytic,
)
from .stochastic import (
    EmissionRate,
    PhotonStream,
    TrajectoryConfig,
    derive_trajectory_seed,
    emission_rate,
    fano_factor,
    g2_histogram,
    occupation_fractions,
    read_photon_stream,
    simulate_stream,
    write_photon_stream,
)

__all__ = [
    "__version__",
    "Branch",
    "BranchRates",
    "BlochState",
    "ConfigError",
    "CorrelationSeries",
    "DegenerateSteadyStateError",
    "DressedBasis",
    "EmissionRate",
    "InsufficientDataError",
    "IntegrationError",
    "ParameterError",
    "PhotonStream",
    "PlexcitonError",
    "Populations",
    "PopulationTrajectory",
    "RegimeWarning",
    "ResolutionError",
    "RunConfig",
    "Scenario",
    "SpectrumSeries",
    "SystemParams",
    "TrajectoryConfig",
    "bloch_steady_state",
    "branch_drive_rabi",
    "branch_rates",
    "derive_trajectory_seed",
    "detected_spectrum",
    "dressed_basis",
    "emission_rate",
    "evolve_bloch",
    "evolve_populations",
    "fano_factor",
    "g1_analytic",
    "g2_histogram",
    "g2_nonresonant_analytic",
    "g2_resonant_analytic",
    "mixing_angle",
    "occupation_fractions",
    "parse_config",
    "rabi_splitting",
    "read_photon_stream",
    "regression_g2_nonresonant_numeric",
    "regression_g2_resonant_numeric",
    "simulate_stream",
    "spectrum_analytic",
    "spectrum_fft_check",
    "steady_state_analytic",
    "write_photon_stream",
]
