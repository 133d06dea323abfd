"""The library boundary as a property: every public call that takes a scalar,
given any scalar in that place, returns or raises a PlexcitonError subclass,
never another exception (a RuntimeWarning is an error in this suite too)."""

import inspect
import math
import os
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import plexciton
from plexciton import (Branch, PhotonStream, PlexcitonError, Populations,
                       RegimeWarning, SystemParams, TrajectoryConfig,
                       branch_rates, dressed_basis, emission_rate,
                       parse_config, steady_state_analytic)

from test_config_cli import PRESETS

PARAMS = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                      gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.005,
                      pump_r=0.005)
BASIS = dressed_basis(PARAMS)
RATES = branch_rates(PARAMS, BASIS)
STEADY = steady_state_analytic(RATES, PARAMS.pump_r)
TAU = np.linspace(0.0, 10.0, 11)
# 10^4 evenly spaced photons, the fewest g2_histogram accepts.
STREAM = PhotonStream(np.arange(1.0, 10001.0), np.arange(10000) % 2, 2e4)

# Every public name that takes a scalar or a grid, its valid arguments and
# the arguments fed each hostile scalar in turn.  A dataclass is built by
# dataclasses.replace on a valid instance, so every field is fed.
FUNCTIONS = {
    "bloch_steady_state": (
        dict(omega_l_rabi=0.1, gpar_b=1.0, gperp_b=0.5), None),
    "regression_g2_resonant_numeric": (
        dict(omega_l_rabi=0.1, gpar_b=1.0, gperp_b=0.5, tau_grid=TAU), None),
    "branch_drive_rabi": (
        dict(params=PARAMS, basis=BASIS, branch=Branch.MINUS), ["branch"]),
    "g1_analytic": (dict(branch=Branch.MINUS, rates=RATES, steady=STEADY,
                         basis=BASIS, tau_grid=TAU), ["branch", "tau_grid"]),
    "spectrum_analytic": (dict(branch=Branch.PLUS, rates=RATES, steady=STEADY,
                               basis=BASIS, omega_grid=TAU),
                          ["branch", "omega_grid"]),
    "detected_spectrum": (dict(rates=RATES, steady=STEADY, basis=BASIS,
                               omega_grid=TAU), ["omega_grid"]),
    "g2_nonresonant_analytic": (
        dict(branch=Branch.MINUS, rates=RATES, pump_r=0.005,
             gamma_total=0.005, tau_grid=TAU),
        ["branch", "pump_r", "gamma_total", "tau_grid"]),
    "g2_resonant_analytic": (dict(branch=Branch.PLUS, rates=RATES,
                                  tau_grid=TAU), ["branch", "tau_grid"]),
    "steady_state_analytic": (dict(rates=RATES, pump_r=0.005), ["pump_r"]),
    "evolve_populations": (
        dict(initial=Populations(1.0, 0.0, 0.0, 0.0), rates=RATES,
             pump_r=0.005, t_end=10.0, dt_max=0.5, n_samples=4),
        ["pump_r", "t_end", "dt_max", "n_samples"]),
    "regression_g2_nonresonant_numeric": (
        dict(rates=RATES, pump_r=0.005, branch=Branch.MINUS, tau_grid=TAU),
        ["pump_r", "branch", "tau_grid"]),
    "g2_histogram": (dict(stream=STREAM, branch=Branch.MINUS,
                          tau_bins=[0.0, 2.0, 4.0]), ["branch", "tau_bins"]),
    "fano_factor": (dict(stream=STREAM, window=10.0), ["window"]),
    "emission_rate": (dict(stream=STREAM, branch=None), ["branch"]),
}
INSTANCES = [PARAMS, BASIS, RATES, STEADY, STREAM,
             TrajectoryConfig(duration=1e4, branch_filter=Branch.PLUS),
             emission_rate(STREAM, None),
             parse_config(os.path.join(PRESETS, "g2_benchmark.cfg")),
             plexciton.CorrelationSeries(TAU, TAU),
             plexciton.SpectrumSeries(TAU, TAU)]
# Public names with no scalar or grid argument: the path a stream or config
# file is read from or written to goes to the OS as given.
NO_SCALAR = {"__version__", "dressed_basis", "branch_rates", "simulate_stream",
             "occupation_fractions", "spectrum_fft_check", "read_photon_stream",
             "write_photon_stream", "parse_config", "Branch", "Scenario",
             "PlexcitonError", "RegimeWarning", *(
                 name for name in plexciton.__all__
                 if name.endswith("Error") and name != "PlexcitonError")}


def _cases(functions, instances):
    """``(label, call, valid)`` triples; ``call(value)`` feeds one argument,
    whose valid value is ``valid``."""
    cases = []
    for name, (valid, fed) in functions.items():
        fn = getattr(plexciton, name)
        for arg in fed or valid:
            cases.append((f"{name}({arg})", lambda value, fn=fn, valid=valid,
                          arg=arg: fn(**{**valid, arg: value}), valid[arg]))
    for instance in instances:
        for field in fields(instance):
            cases.append((f"{type(instance).__name__}.{field.name}",
                          lambda value, instance=instance, field=field.name:
                          replace(instance, **{field: value}),
                          getattr(instance, field.name)))
    return cases


CASES = _cases(FUNCTIONS, INSTANCES)


def test_every_public_name_is_covered():
    covered = set(FUNCTIONS) | {type(item).__name__ for item in INSTANCES}
    assert covered | NO_SCALAR == set(plexciton.__all__)
    for name in FUNCTIONS:
        params = inspect.signature(getattr(plexciton, name)).parameters
        assert set(FUNCTIONS[name][0]) == set(params), name


# Budget: each example feeds one value to all 90 arguments in about 6 ms on
# one core, so the 24 explicit examples and 150 drawn ones take about 1.5 s.
# An array goes where a scalar goes, and to every array field, where its
# length may or may not match the grid beside it.
@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.floats(), st.integers(), st.text(max_size=4), st.none(),
    st.booleans(), st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.sampled_from(list(Branch)),
    arrays(st.sampled_from([float, int, bool, complex]),
           array_shapes(min_dims=0, max_dims=2, min_side=0)),
))
@example(np.linspace(0.0, 10.0, 11))
@example(np.array([2.0, 1.0, 0.5]))
@example(np.array(0.5))
@example(np.array(3))
@example(np.array([]))
@example(np.zeros((11, 2)))
@example(np.ones((2, 2), dtype=int))
@example(np.array([0.0, 1.0], dtype=object))
@example(np.array([0.5, None], dtype=object))
@example([0.0, 1.0, 2.0])
@example((0.0, 1.0))
@example("0.1")
@example(None)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(10 ** 400)
@example(-1.0)
@example(np.float64(0.5))
@example(np.float64(math.nan))
@example(np.int64(2))
@example(np.int64(-3))
@example(True)
@example(False)
def test_scalar_returns_or_raises_plexciton_error(value):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for label, call, _ in CASES:
            try:
                call(value)
            except PlexcitonError:
                pass
            except Exception as exc:
                pytest.fail(f"{label} = {value!r} raised "
                            f"{type(exc).__name__}: {exc}")


# Every real scalar argument or field, BlochState's too (it is not public).
REAL_CASES = [(label, call, valid) for label, call, valid
              in CASES + _cases({}, [plexciton.bloch.bloch_steady_state(0.1, 1.0, 0.5)])
              if type(valid) is float]


def test_every_real_is_taken_as_its_float():
    # NEP 50 would round what a kept float32 or float16 computes in its own
    # width; an int would print as one.  floatmode="unique" prints every
    # array entry in full, so the reprs differ if any bit does.
    assert len(REAL_CASES) == 52  # 14 arguments, 38 fields
    with warnings.catch_warnings(), np.printoptions(floatmode="unique",
                                                    threshold=sys.maxsize):
        warnings.simplefilter("ignore", RegimeWarning)
        for label, call, valid in REAL_CASES:
            for form in (np.float32, np.float16, int, np.float64):
                value = form(valid)
                try:
                    expected = repr(call(float(value)))
                except PlexcitonError:
                    continue  # not valid in this form, as int(0.005) is not
                assert repr(call(value)) == expected, f"{label} = {value!r}"
