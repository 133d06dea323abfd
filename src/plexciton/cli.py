"""Command-line front end: figure-grade data files and parameter reports.

Commands
--------
spectrum      emission doublet CSV, one file per coupling value in the sweep
g2            normalized coincidence curves for both excitation schemes
trajectory    stochastic photon streams plus estimator summary
rates         human- and machine-readable parameter/rate report
steady-state  stationary populations of the configured scenario

Exit codes: 0 success, else the error's ``exit_code`` (2 bad input or a path
the OS refuses, 3 numerical failure).  Each command computes before it writes.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__, stochastic
from .bloch import bloch_steady_state
from .config import PHYSICS_KEYS, RunConfig, parse_config
from .correlations import (
    detected_spectrum,
    g2_nonresonant_analytic,
    g2_resonant_analytic,
    spectrum_analytic,
)
from .errors import (
    ConfigError,
    InsufficientDataError,
    ParameterError,
    PlexcitonError,
    RegimeWarning,
)
from .model import (
    Branch,
    Scenario,
    SystemParams,
    branch_drive_rabi,
    branch_rates,
    dressed_basis,
)
from .rate_dynamics import Populations, steady_state_analytic
from .stochastic import (
    TrajectoryConfig,
    atomic_write,
    emission_rate,
    fano_factor,
    g2_histogram,
    simulate_stream,
    write_photon_stream,
)


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv_text(comments: list[str], header: list[str],
              columns: list[np.ndarray]) -> str:
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    for row in zip(*columns):
        lines.append(",".join(_fmt(value) for value in row))
    return "\n".join(lines) + "\n"


def _provenance(params: SystemParams, config: RunConfig) -> list[str]:
    numbers = " ".join(f"{key}={_fmt(getattr(params, field))}"
                       for key, field in PHYSICS_KEYS.items() if key != "scenario")
    return [f"plexciton {__version__}",
            f"params: {numbers} scenario={params.scenario.value}",
            f"unit_scale={_fmt(config.unit_scale)}"]


def cmd_spectrum(config: RunConfig, out_dir: str) -> list[str]:
    """Write one spectrum CSV per coupling value; returns the file paths."""
    base = config.params
    if config.v0_over_delta_sweep is not None:
        if base.delta == 0.0:
            raise ConfigError(
                "v0_over_delta_sweep needs a nonzero detuning (omega0 != omega1)"
            )
        couplings = [ratio * abs(base.delta) for ratio in config.v0_over_delta_sweep]
        names = [f"spectrum_v0dd_{ratio:g}.csv" for ratio in config.v0_over_delta_sweep]
        # Each file is named by its ratio at six significant digits.
        first = {}
        for ratio, name in zip(config.v0_over_delta_sweep, names):
            if name in first:
                raise ConfigError(
                    f"v0_over_delta_sweep values {first[name]!r} and "
                    f"{ratio!r} both name the file {name}")
            first[name] = ratio
    else:
        couplings = [base.v0]
        names = ["spectrum.csv"]

    outputs = []
    for v0, name in zip(couplings, names):
        params = replace(base, v0=v0)
        basis = dressed_basis(params)
        rates = branch_rates(params, basis)
        steady = steady_state_analytic(rates, params.pump_r)
        if config.omega_min is not None:
            lo, hi = config.omega_min, config.omega_max
        else:
            span = 2.0 * basis.omega_rabi + 12.0 * params.gamma_perp
            lo, hi = basis.omega_center - span, basis.omega_center + span
        omega = np.linspace(lo, hi, config.omega_steps)
        s_minus = spectrum_analytic(Branch.MINUS, rates, steady, basis, omega)
        s_plus = spectrum_analytic(Branch.PLUS, rates, steady, basis, omega)
        combined = detected_spectrum(rates, steady, basis, omega)
        abscissa = (omega - basis.omega_center) / params.gamma_perp
        text = _csv_text(
            _provenance(params, config) + [
                "omega column is (omega - omega_center)/gamma_perp",
                "branch columns carry the squared branch dipole weight",
            ],
            ["omega", "S_minus", "S_plus", "S_detected"],
            [abscissa,
             basis.w_minus * s_minus.values,
             basis.w_plus * s_plus.values,
             combined.values],
        )
        outputs.append((os.path.join(out_dir, name), text))
    for path, text in outputs:
        atomic_write(path, [text])
    return [path for path, _ in outputs]


def cmd_g2(config: RunConfig, out_dir: str) -> str:
    """Write the four normalized coincidence curves; returns the file path."""
    params = config.params
    basis = dressed_basis(params)
    rates = branch_rates(params, basis)
    gamma_par = params.gamma_par
    slow = params.pump_r + params.gamma_u
    if config.tau_max is not None:
        tau_max = config.tau_max
    elif slow > 0.0:
        tau_max = 6.0 / slow
    else:
        raise ConfigError("tau_max must be given when pump_r + gamma_u is zero")
    tau = np.linspace(0.0, tau_max, config.tau_steps)

    curves = {}
    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RegimeWarning)
        for branch in Branch:
            curves[f"NR_{branch.value}"] = g2_nonresonant_analytic(
                branch, rates, params.pump_r, params.gamma_u, tau
            ).values
            curves[f"R_{branch.value}"] = g2_resonant_analytic(
                branch, rates, tau
            ).values
        notes = [f"warning: {w.message}" for w in caught
                 if issubclass(w.category, RegimeWarning)]

    text = _csv_text(
        _provenance(params, config) + notes + [
            "tau column is tau * (gamma_r + gamma_nr)",
            "curves are normalized coincidences (divided by [g1(0)]^2)",
        ],
        ["tau", "NR_minus", "NR_plus", "R_minus", "R_plus"],
        [tau * gamma_par, curves["NR_minus"], curves["NR_plus"],
         curves["R_minus"], curves["R_plus"]],
    )
    path = os.path.join(out_dir, "g2.csv")
    atomic_write(path, [text])
    return path


def cmd_trajectory(config: RunConfig, out_dir: str) -> list[str]:
    """Simulate photon streams; write them and an estimator summary."""
    params = config.params
    basis = dressed_basis(params)
    rates = branch_rates(params, basis)
    if config.duration is None:
        raise ConfigError("missing required key for trajectory runs: duration")
    traj = TrajectoryConfig(duration=config.duration,
                            n_trajectories=config.n_trajectories,
                            master_seed=config.master_seed,
                            branch_filter=config.branch_filter)
    slow = params.pump_r + params.gamma_u
    window = config.fano_window
    if window is None and slow > 0.0:
        # The default widens to stay within the window cap.
        window = max(1.0 / slow, config.duration / stochastic.MAX_WINDOWS)
    hist_branch = config.branch_filter or Branch.MINUS
    tau_max = config.tau_max if config.tau_max is not None else (
        3.0 / slow if slow > 0.0 else config.duration / 100.0)
    # Both caps are checked before sampling.
    if window is not None:
        stochastic.fano_windows(config.duration, window)
    stochastic._check_pairs(params, rates, traj, hist_branch, tau_max)
    streams = simulate_stream(params, rates, traj)
    stream = streams[0]
    comments = _provenance(params, config) + [
        f"master_seed={config.master_seed}",
        f"duration={_fmt(stream.duration)}",
        f"n_photons={stream.n_photons}",
    ]
    for branch in (Branch.MINUS, Branch.PLUS):
        if config.branch_filter not in (None, branch):
            continue
        try:
            est = emission_rate(stream, branch)
            comments.append(
                f"rate_{branch.value}={_fmt(est.value)} "
                f"stderr={_fmt(est.stderr)} n={est.n_photons}"
            )
        except InsufficientDataError:
            comments.append(f"rate_{branch.value}=unavailable (no photons)")
    if window is not None:
        try:
            comments.append(f"fano_window={_fmt(window)} "
                            f"fano={_fmt(fano_factor(stream, window))}")
        except InsufficientDataError as exc:
            comments.append(f"fano=unavailable ({exc})")

    edges = np.linspace(0.0, tau_max, config.bins + 1)
    hist = g2_histogram(stream, hist_branch, edges)
    text = _csv_text(
        comments + [f"histogram_branch={hist_branch.value}"],
        ["tau", "g2", "stderr"],
        [hist.tau, hist.values, hist.stderr],
    )
    paths = [os.path.join(out_dir, f"photons_{index:03d}.tsv")
             for index in range(len(streams))]
    for path, photons in zip(paths, streams):
        write_photon_stream(photons, path)
    paths.append(os.path.join(out_dir, "summary.csv"))
    atomic_write(paths[-1], [text])
    return paths


def _require_drive(params: SystemParams) -> None:
    if params.scenario is Scenario.RESONANT and params.omega_l_rabi <= 0.0:
        raise ParameterError("resonant scenario needs drive_rabi > 0")


def _population_lines(steady: Populations) -> list[str]:
    return [f"p_{state} = {_fmt(getattr(steady, 'p_' + state))}"
            for state in ("gg", "uu", "mm", "pp")]


def _write_report(lines: list[str], out_dir: str | None, name: str) -> str:
    """Print a report; also write it when an output dir is given."""
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if out_dir is None:
        return ""
    path = os.path.join(out_dir, name)
    atomic_write(path, [report])
    return path


def cmd_rates(config: RunConfig, out_dir: str | None) -> str:
    """Print the rates report; also write it when an output dir is given."""
    params = config.params
    _require_drive(params)
    basis = dressed_basis(params)
    rates = branch_rates(params, basis)
    scale = config.unit_scale
    lines = [
        f"# plexciton {__version__} rates report",
        f"scenario = {params.scenario.value}",
        f"theta = {_fmt(basis.theta)}",
        f"omega_rabi = {_fmt(basis.omega_rabi)}",
        f"omega_minus = {_fmt(basis.omega_minus)}",
        f"omega_plus = {_fmt(basis.omega_plus)}",
        f"quantum_yield = {_fmt(params.quantum_yield)}",
    ]
    for branch in Branch:
        ch = rates.branch(branch)
        tag = branch.value
        lines += [
            f"gpar_{tag} = {_fmt(ch.gpar)}",
            f"gperp_{tag} = {_fmt(ch.gperp)}",
            f"grad_{tag} = {_fmt(ch.grad)}",
            f"gfeed_{tag} = {_fmt(ch.gfeed)}",
        ]

    if params.scenario is Scenario.RESONANT:
        for branch in Branch:
            ch = rates.branch(branch)
            drive = branch_drive_rabi(params, basis, branch)
            saturation = drive ** 2 / (ch.gperp * ch.gpar)
            occupation = 2.0 * saturation  # weak-drive stationary population
            photon_rate = occupation * ch.grad
            tag = branch.value
            lines += [
                f"drive_rabi_{tag} = {_fmt(drive)}",
                f"saturation_{tag} = {_fmt(saturation)}",
                f"occupation_{tag} = {_fmt(occupation)}",
                f"p_{tag} = {_fmt(photon_rate)}",
                f"p_{tag}_physical = {_fmt(photon_rate * scale)} THz",
            ]
    else:
        steady = steady_state_analytic(rates, params.pump_r)
        lines += _population_lines(steady)
        for branch in Branch:
            photon_rate = steady.branch(branch) * rates.branch(branch).grad
            tag = branch.value
            lines += [
                f"p_{tag} = {_fmt(photon_rate)}",
                f"p_{tag}_physical = {_fmt(photon_rate * scale)} THz",
            ]
    lines += [
        f"gamma_r_physical = {_fmt(params.gamma_r * scale)} THz",
        f"gamma_par_physical = {_fmt(params.gamma_par * scale)} THz",
    ]
    return _write_report(lines, out_dir, "rates.txt")


def cmd_steady_state(config: RunConfig, out_dir: str | None) -> str:
    """Print the stationary state; also write it when an output dir is given."""
    params = config.params
    _require_drive(params)
    basis = dressed_basis(params)
    rates = branch_rates(params, basis)
    lines = [f"# plexciton {__version__} steady state",
             f"scenario = {params.scenario.value}"]
    if params.scenario is Scenario.RESONANT:
        for branch in Branch:
            ch = rates.branch(branch)
            state = bloch_steady_state(branch_drive_rabi(params, basis, branch),
                                       ch.gpar, ch.gperp)
            tag = branch.value
            lines += [
                f"p_ee_{tag} = {_fmt(state.p_ee)}",
                f"coh_re_{tag} = {_fmt(state.coh_re)}",
                f"coh_im_{tag} = {_fmt(state.coh_im)}",
            ]
    else:
        lines += _population_lines(steady_state_analytic(rates, params.pump_r))
    return _write_report(lines, out_dir, "steady_state.txt")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plexciton",
        description="Quantum-light emission from a plasmon-emitter hybrid",
    )
    parser.add_argument("command",
                        choices=["spectrum", "g2", "trajectory", "rates",
                                 "steady-state"])
    parser.add_argument("--config", required=True, help="key = value file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override master_seed")
    parser.add_argument("--scenario", choices=["nonresonant", "resonant"],
                        default=None, help="override the configured scenario")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.seed is not None:
            config = replace(config, master_seed=args.seed)
        if args.scenario is not None:
            config = replace(config, params=replace(
                config.params, scenario=Scenario(args.scenario)))
        out_dir = args.out
        if args.command in ("spectrum", "g2", "trajectory"):
            out_dir = out_dir or "."
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)

        if args.command == "spectrum":
            for path in cmd_spectrum(config, out_dir):
                print(path)
        elif args.command == "g2":
            print(cmd_g2(config, out_dir))
        elif args.command == "trajectory":
            for path in cmd_trajectory(config, out_dir):
                print(path)
        elif args.command == "rates":
            cmd_rates(config, out_dir)
        else:
            cmd_steady_state(config, out_dir)
    except (PlexcitonError, OSError) as exc:
        code = getattr(exc, "exit_code", 2)
        print(f"{'numerical failure' if code == 3 else 'error'}: {exc}",
              file=sys.stderr)
        return code
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
