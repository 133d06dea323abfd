"""Seeded inputs for the benchmark workloads, written as plexciton config files.

Standard library only: nothing here imports numpy or plexciton, so the
benchmark can generate a workload's inputs before it times the program's
import.  The same (workload, seed, scale) always writes the same files.
"""

from __future__ import annotations

import math
import os
import random

# Criterion-7 point of the acceptance suite: v0/delta = 1, gamma_u = pump_r =
# 0.0025 (so the Fano window 1/(R + gamma) is 200), gamma_perp/gamma_par = 0.5.
_CRITERION7 = {
    "scenario": "nonresonant",
    "omega0": 1.0,
    "omega1": -1.0,
    "v0": 1.0,
    "gamma_r": 1.0,
    "gamma_nr": 0.0,
    "gamma_perp": 0.5,
    "gamma_u": 0.0025,
    "pump_r": 0.0025,
}
# Mean pump cycle 1/R + 1/gamma_u + <1/gpar_b> = 400 + 400 + 6.0, so one
# photon per ~806 time units (quantum yield 1).
_CRITERION7_CYCLE = 806.0
_FANO_WINDOW = 200.0

# The presets' physics, so cli_pipeline runs the shipped commands' work.
_G2_PRESET = {
    "scenario": "nonresonant",
    "omega0": 1.0,
    "omega1": -1.0,
    "v0": 1.0,
    "gamma_r": 1.0,
    "gamma_nr": 0.0,
    "gamma_perp": 0.5,
    "gamma_u": 0.005,
    "pump_r": 0.005,
}
_SPECTRUM_PRESET = dict(_G2_PRESET, gamma_r=2.0, gamma_perp=1.0,
                        gamma_u=0.02, pump_r=0.02)
_RATES_PRESET = {
    "scenario": "resonant",
    "omega0": 0.0,
    "omega1": 0.0,
    "v0": 1.0,
    "gamma_r": 2.0,
    "gamma_nr": 0.0,
    "gamma_perp": 1.0,
    "gamma_u": 0.01,
    "pump_r": 0.01,
    "drive_rabi": math.sqrt(0.05),
    "unit_scale": 1000.0,
}

# Per-scale sizes.  "full" is what the benchmark measures; "tiny" keeps every
# code path and gate but runs in well under a second (the self-test).
SIZES = {
    "full": {
        "pumped_photons": 1.5e6,
        "pumped_lag": 6000.0,
        "pumped_bins": 600,
        "ensemble_trajectories": 200,
        "ensemble_windows": 400,
        "sweep_sets": 200,
        "cli_trajectories": 8,
    },
    "tiny": {
        "pumped_photons": 1.2e5,
        "pumped_lag": 1200.0,
        "pumped_bins": 120,
        "ensemble_trajectories": 12,
        "ensemble_windows": 400,
        "sweep_sets": 4,
        "cli_trajectories": 2,
    },
}

WORKLOADS = ("pumped_long", "short_ensemble", "oracle_sweep", "cli_pipeline")


def _write_config(path: str, values: dict, comment: str) -> None:
    lines = [f"# {comment}"]
    for key, value in values.items():
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, (tuple, list)):
            value = ", ".join(repr(float(v)) for v in value)
        lines.append(f"{key} = {value}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _between(low: float, high: float, u: float) -> float:
    return low + (high - low) * u


def random_params(u) -> dict:
    """Valid nonresonant parameters with slow pumping and feeding.

    ``u`` holds seven numbers in [0, 1).  Drawn independently and uniformly,
    they give the test suite's ``random_params`` distribution (pump and
    feeding rates in [0.02, 0.1] of the total decay rate); input generation
    needs no numpy.
    """
    theta = _between(0.15, math.pi / 2 - 0.15, u[0])
    omega_rabi = 10 ** _between(-0.5, 0.5, u[1])
    delta = omega_rabi * math.cos(2 * theta)
    v0 = omega_rabi * math.sin(2 * theta)
    gamma_r = 10 ** _between(-0.5, 0.5, u[2])
    gamma_nr = gamma_r * u[3]
    gamma_par = gamma_r + gamma_nr
    return {
        "scenario": "nonresonant",
        "omega0": delta,
        "omega1": -delta,
        "v0": v0,
        "gamma_r": gamma_r,
        "gamma_nr": gamma_nr,
        "gamma_perp": gamma_par * _between(0.5, 2.0, u[4]),
        "gamma_u": gamma_par * _between(0.02, 0.1, u[5]),
        "pump_r": gamma_par * _between(0.02, 0.1, u[6]),
    }


def latin_hypercube(rng: random.Random, count: int, dims: int) -> list[list[float]]:
    """``count`` points in [0, 1)^dims, one in each of ``count`` strata per axis.

    Each point alone is uniform on the cube, as an independent draw is; the
    strata keep the set's spread of values, and so the work the set costs,
    nearly the same from seed to seed.
    """
    axes = []
    for _ in range(dims):
        strata = list(range(count))
        rng.shuffle(strata)
        axes.append([(k + rng.random()) / count for k in strata])
    return [list(point) for point in zip(*axes)]


def generate(workload: str, seed: int, scale: str, out_dir: str) -> dict:
    """Write the workload's config files into ``out_dir``; return a manifest.

    The manifest names every file, the trajectory seeds and the input sizes,
    so a run's output records exactly what it measured.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[scale]
    rng = random.Random(f"{workload}/{seed}")
    master_seed = rng.randrange(1, 2 ** 31)
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "scale": scale,
                "master_seed": master_seed}

    if workload == "pumped_long":
        duration = size["pumped_photons"] * _CRITERION7_CYCLE
        _write_config(os.path.join(out_dir, "pumped.cfg"), dict(
            _CRITERION7, duration=duration, master_seed=master_seed,
            fano_window=_FANO_WINDOW, tau_max=size["pumped_lag"],
            bins=size["pumped_bins"]), "pumped_long: one long trajectory")
        manifest["sizes"] = {
            "duration": duration,
            "expected_photons": size["pumped_photons"],
            "fano_windows": int(duration / _FANO_WINDOW),
            "histogram_lag": size["pumped_lag"],
            "histogram_bins": size["pumped_bins"],
        }
        manifest["configs"] = ["pumped.cfg"]
    elif workload == "short_ensemble":
        count = size["ensemble_trajectories"]
        duration = size["ensemble_windows"] * _FANO_WINDOW
        _write_config(os.path.join(out_dir, "ensemble.cfg"), dict(
            _CRITERION7, duration=duration, master_seed=master_seed,
            n_trajectories=count, fano_window=_FANO_WINDOW),
            "short_ensemble: trajectory i uses master_seed + i")
        manifest["sizes"] = {
            "trajectories": count,
            "duration": duration,
            "fano_windows": size["ensemble_windows"],
            "expected_photons_each": duration / _CRITERION7_CYCLE,
        }
        manifest["trajectory_seeds"] = [master_seed, master_seed + count - 1]
        manifest["configs"] = ["ensemble.cfg"]
    elif workload == "oracle_sweep":
        names = []
        points = latin_hypercube(rng, size["sweep_sets"], 7)
        for index, point in enumerate(points):
            name = f"set_{index:03d}.cfg"
            _write_config(os.path.join(out_dir, name),
                          dict(random_params(point), tau_steps=601,
                               omega_steps=4001),
                          f"oracle_sweep: parameter set {index}")
            names.append(name)
        manifest["sizes"] = {"parameter_sets": len(names), "tau_points": 601,
                             "omega_points": 4001}
        manifest["configs"] = names
    else:
        n_traj = size["cli_trajectories"]
        configs = {
            "spectrum.cfg": dict(_SPECTRUM_PRESET,
                                 v0_over_delta_sweep=(0.5, 1.0, 2.0),
                                 omega_steps=4001),
            "g2.cfg": dict(_G2_PRESET, tau_max=600.0, tau_steps=601),
            "rates.cfg": dict(_RATES_PRESET),
            "trajectory.cfg": dict(_G2_PRESET, duration=6.0e7,
                                   n_trajectories=n_traj,
                                   master_seed=master_seed, branch="both",
                                   tau_max=600.0, bins=30),
        }
        for name, values in configs.items():
            _write_config(os.path.join(out_dir, name), values,
                          f"cli_pipeline: {name[:-4]} preset")
        manifest["sizes"] = {"trajectories": n_traj, "duration": 6.0e7,
                             "fano_windows": 600000, "omega_points": 4001,
                             "tau_points": 601}
        manifest["configs"] = sorted(configs)
    return manifest
