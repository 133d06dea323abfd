import os

import numpy as np
import pytest

from plexciton import (SystemParams, branch_rates, dressed_basis,
                       steady_state_analytic)
from plexciton.cli import main

from test_config_cli import PRESETS, read_csv


@pytest.fixture(scope="session")
def benchmark_params():
    """Doublet benchmark point: v0/delta = 1, (R + gamma)/gpar = 0.01,
    gperp/gpar = 0.5, with gpar = 1."""
    return SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0,
                        gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.005,
                        pump_r=0.005)


@pytest.fixture(scope="session")
def benchmark_basis(benchmark_params):
    return dressed_basis(benchmark_params)


@pytest.fixture(scope="session")
def benchmark_rates(benchmark_params, benchmark_basis):
    return branch_rates(benchmark_params, benchmark_basis)


@pytest.fixture(scope="session")
def benchmark_steady(benchmark_rates, benchmark_params):
    return steady_state_analytic(benchmark_rates, benchmark_params.pump_r)


@pytest.fixture(scope="session")
def g2_csv(tmp_path_factory):
    """The g2 preset's CSV, written once a session: (comments, header, columns)."""
    out = tmp_path_factory.mktemp("g2")
    assert main(["g2", "--config", os.path.join(PRESETS, "g2_benchmark.cfg"),
                 "--out", str(out)]) == 0
    return read_csv(out / "g2.csv")


def random_params(rng: np.random.Generator, *, r_lo: float = 0.02,
                  r_hi: float = 0.1) -> SystemParams:
    """Random valid parameter set with slow pumping/feeding.

    The mixing angle is drawn well inside (0, pi/2) and the pump and feeding
    rates are drawn in [r_lo, r_hi] times the total decay rate.
    """
    theta = rng.uniform(0.15, np.pi / 2 - 0.15)
    omega_rabi = 10 ** rng.uniform(-0.5, 0.5)
    delta = omega_rabi * np.cos(2 * theta)
    v0 = omega_rabi * np.sin(2 * theta)
    gamma_r = 10 ** rng.uniform(-0.5, 0.5)
    gamma_nr = gamma_r * rng.uniform(0.0, 1.0)
    gamma_par = gamma_r + gamma_nr
    return SystemParams(
        omega0=delta,
        omega1=-delta,
        v0=v0,
        gamma_r=gamma_r,
        gamma_nr=gamma_nr,
        gamma_perp=gamma_par * rng.uniform(0.5, 2.0),
        gamma_u=gamma_par * rng.uniform(r_lo, r_hi),
        pump_r=gamma_par * rng.uniform(r_lo, r_hi),
    )
