"""The public surface of the plexciton package."""

import pathlib
import re
import types

import plexciton

ROOT = pathlib.Path(__file__).resolve().parent.parent

EXPORTS = {
    "__version__",
    # errors
    "ConfigError", "DegenerateSteadyStateError", "InsufficientDataError",
    "IntegrationError", "ParameterError", "PlexcitonError", "RegimeWarning",
    "ResolutionError",
    # model
    "Branch", "BranchRates", "DressedBasis", "Scenario", "SystemParams",
    "branch_drive_rabi", "branch_rates", "dressed_basis",
    # rate_dynamics and bloch
    "Populations", "evolve_populations", "regression_g2_nonresonant_numeric",
    "steady_state_analytic", "bloch_steady_state",
    "regression_g2_resonant_numeric",
    # correlations
    "CorrelationSeries", "SpectrumSeries", "detected_spectrum", "g1_analytic",
    "g2_nonresonant_analytic", "g2_resonant_analytic", "spectrum_analytic",
    "spectrum_fft_check",
    # stochastic
    "EmissionRate", "PhotonStream", "TrajectoryConfig", "emission_rate",
    "fano_factor", "g2_histogram", "occupation_fractions",
    "read_photon_stream", "simulate_stream", "write_photon_stream",
    # config
    "RunConfig", "parse_config",
}


def test_all_lists_exactly_the_public_names():
    assert len(EXPORTS) == 43
    assert sorted(plexciton.__all__) == sorted(EXPORTS)  # once each
    for name in EXPORTS:
        getattr(plexciton, name)
    # Every public attribute but the submodules is listed, so the imports of
    # __init__ and its __all__ cannot drift apart.
    public = {name for name, value in vars(plexciton).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= EXPORTS


def test_readme_layout_names_every_module():
    # The table's first column names each module once; the count follows it.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table, text = readme.split("## Library layout\n\n", 1)[1].split("\n\n", 1)
    named = re.findall(r"`plexciton\.(\w+)`",
                       " ".join(row.split("|")[1] for row in table.splitlines()))
    modules = {path.stem for path in (ROOT / "src" / "plexciton").glob("*.py")}
    assert sorted(named) == sorted(modules - {"__init__"})
    exported = re.match(r"`plexciton` itself exports (\d+) names", text)
    assert int(exported.group(1)) == len(plexciton.__all__)
