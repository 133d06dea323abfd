"""Command-line front end: figure-grade data files and parameter reports.

Commands
--------
spectrum      emission doublet CSV, one file per coupling value in the sweep
g2            normalized coincidence curves for both excitation schemes
trajectory    stochastic photon streams plus estimator summary
rates         human- and machine-readable parameter/rate report
steady-state  stationary populations of the configured scenario

Every run setting is a config key.  Exit codes: 0 success, 2 from argparse
on a usage error, else the error's ``exit_code`` (2 bad input or a path the
OS refuses, 3 numerical failure).  ``cmd_*`` compute; ``main`` writes all of
a run's files or none, renaming the staged outputs once the last is staged.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import warnings
from collections.abc import Iterable
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .bloch import bloch_steady_state
from .config import PHYSICS_KEYS, RunConfig, parse_config
# detected_spectrum stays importable from here: perfbench wraps it by name.
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
from .model import (Branch, Scenario, SystemParams, _check_drive, _real,
                    branch_drive_rabi, branch_rates, check_grid, dressed_basis)
from .rate_dynamics import steady_state_analytic
from .stochastic import (
    PhotonStream,
    TrajectoryConfig,
    _runs,
    emission_rate,
    fano_factor,
    g2_histogram,
    plan_run,
    simulate_stream,
    write_photon_stream,
)

# A command's outputs in write order: file name, then CSV/report text or stream.
Outputs = Iterable[tuple[str, str | PhotonStream]]


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


def cmd_spectrum(config: RunConfig) -> Outputs:
    """One spectrum CSV per coupling value."""
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
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            omega = np.linspace(lo, hi, config.omega_steps)
            abscissa = (omega - basis.omega_center) / params.gamma_perp
        check_grid(abscissa, "spectrum grid (omega - omega_center)/gamma_perp",
                   nonnegative=False)
        weighted = [basis.weight(branch) * spectrum_analytic(
            branch, rates, steady, basis, omega).values for branch in Branch]
        text = _csv_text(
            _provenance(params, config) + [
                "omega column is (omega - omega_center)/gamma_perp",
                "branch columns carry the squared branch dipole weight",
            ],
            ["omega", "S_minus", "S_plus", "S_detected"],
            [abscissa, *weighted, weighted[0] + weighted[1]],
        )
        outputs.append((name, text))
    return outputs


def cmd_g2(config: RunConfig) -> Outputs:
    """The four normalized coincidence curves in one CSV."""
    params = config.params
    basis = dressed_basis(params)
    rates = branch_rates(params, basis)
    gamma_par = params.gamma_par
    slow = params.pump_r + params.gamma_u
    if config.tau_max is not None:
        tau_max = config.tau_max
    elif slow > 0.0:
        tau_max = _real(f"default tau_max from pump_r + gamma_u = {slow!r}",
                        6.0 / slow, "positive and finite")
    else:
        raise ConfigError("tau_max must be given when pump_r + gamma_u is zero")
    _real("tau_max * (gamma_r + gamma_nr)", tau_max * gamma_par, "finite")
    tau = np.linspace(0.0, tau_max, config.tau_steps)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RegimeWarning)
        curves = [g2_nonresonant_analytic(branch, rates, params.pump_r,
                                          params.gamma_u, tau).values
                  for branch in Branch]
        curves += [g2_resonant_analytic(branch, rates, tau).values
                   for branch in Branch]
        notes = [f"warning: {w.message}" for w in caught
                 if issubclass(w.category, RegimeWarning)]

    text = _csv_text(
        _provenance(params, config) + notes + [
            "tau column is tau * (gamma_r + gamma_nr)",
            "curves are normalized coincidences (divided by [g1(0)]^2)",
        ],
        ["tau", "NR_minus", "NR_plus", "R_minus", "R_plus"],
        [tau * gamma_par, *curves],
    )
    return [("g2.csv", text)]


def cmd_trajectory(config: RunConfig) -> Outputs:
    """Photon streams, then their estimator summary (of stream 0, built
    before anything is yielded), one stream alive at a time: each is its
    own run (``stochastic._runs``), sampled through ``simulate_stream``."""
    params = config.params
    basis = dressed_basis(params)
    rates = branch_rates(params, basis)
    if config.duration is None:
        raise ConfigError("missing required key for trajectory runs: duration")
    traj = TrajectoryConfig(duration=config.duration,
                            n_trajectories=config.n_trajectories,
                            master_seed=config.master_seed,
                            branch_filter=config.branch_filter)
    window, tau_max, hist_branch = plan_run(params, rates, traj,
                                            config.fano_window, config.tau_max)

    runs = _runs(traj)
    stream = simulate_stream(params, rates, next(runs))[0]
    comments = _provenance(params, config) + [
        f"master_seed={config.master_seed}",
        f"duration={_fmt(stream.duration)}",
        f"n_photons={stream.n_photons}",
    ]
    for branch in [config.branch_filter] if config.branch_filter else Branch:
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
    yield "photons_000.tsv", stream
    del stream  # before the next stream is sampled
    for index, run in enumerate(runs, 1):
        yield f"photons_{index:03d}.tsv", simulate_stream(params, rates, run)[0]
    yield "summary.csv", text


def _require_drive(params: SystemParams) -> None:
    if params.scenario is Scenario.RESONANT and params.omega_l_rabi <= 0.0:
        raise ParameterError("resonant scenario needs drive_rabi > 0")


def _report(title: str, params: SystemParams, rows: list[tuple]) -> str:
    """The ``key = value`` report text, one line per ``(key, value[, unit])``
    row; a value that is not finite is refused, naming its key."""
    lines = [f"# plexciton {__version__} {title}",
             f"scenario = {params.scenario.value}"]
    for key, value, *unit in rows:
        lines.append(" ".join([f"{key} = {_real(key, value, 'finite')!r}", *unit]))
    return "\n".join(lines) + "\n"


def cmd_rates(config: RunConfig) -> Outputs:
    """The parameter and rate report."""
    params = config.params
    _require_drive(params)
    basis = dressed_basis(params)
    rates = branch_rates(params, basis)
    scale = config.unit_scale
    rows = [("theta", basis.theta), ("omega_rabi", basis.omega_rabi),
            ("omega_minus", basis.omega_minus),
            ("omega_plus", basis.omega_plus),
            ("quantum_yield", params.quantum_yield)]
    for branch in Branch:
        ch = rates.branch(branch)
        rows += [(f"{field}_{branch.value}", getattr(ch, field))
                 for field in ("gpar", "gperp", "grad", "gfeed")]

    resonant = params.scenario is Scenario.RESONANT
    if not resonant:
        steady = steady_state_analytic(rates, params.pump_r)
        rows += asdict(steady).items()
    for branch in Branch:
        ch = rates.branch(branch)
        tag = branch.value
        if resonant:
            drive = _check_drive(branch_drive_rabi(params, basis, branch))
            # saturation is half the s = 2 drive**2 / (gpar gperp) of
            # bloch_steady_state, and occupation = s is the weak-drive,
            # first-order population, not the exact s / (1 + 2 s) that
            # steady-state prints (0.1 against 0.0833 on resonant_rates.cfg).
            saturation = drive ** 2 / (ch.gperp * ch.gpar)
            occupation = 2.0 * saturation
            rows += [(f"drive_rabi_{tag}", drive),
                     (f"saturation_{tag}", saturation),
                     (f"occupation_{tag}", occupation)]
        else:
            occupation = steady.branch(branch)
        photon_rate = occupation * ch.grad
        rows += [(f"p_{tag}", photon_rate),
                 (f"p_{tag}_physical", photon_rate * scale, "THz")]
    rows += [("gamma_r_physical", params.gamma_r * scale, "THz"),
             ("gamma_par_physical", params.gamma_par * scale, "THz")]
    return [("rates.txt", _report("rates report", params, rows))]


def cmd_steady_state(config: RunConfig) -> Outputs:
    """The stationary-state report."""
    params = config.params
    _require_drive(params)
    basis = dressed_basis(params)
    rates = branch_rates(params, basis)
    if params.scenario is Scenario.RESONANT:
        rows = []
        for branch in Branch:
            ch = rates.branch(branch)
            state = bloch_steady_state(branch_drive_rabi(params, basis, branch),
                                       ch.gpar, ch.gperp)
            rows += [(f"{key}_{branch.value}", value)
                     for key, value in asdict(state).items()]
    else:
        rows = list(asdict(steady_state_analytic(rates, params.pump_r)).items())
    return [("steady_state.txt", _report("steady state", params, rows))]


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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    staged = []  # (temporary path, target) of each output written so far
    try:
        config = parse_config(args.config)
        writes_files = args.command in ("spectrum", "g2", "trajectory")
        out_dir = (args.out or ".") if writes_files else args.out
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)

        outputs = {"spectrum": cmd_spectrum, "g2": cmd_g2,
                   "trajectory": cmd_trajectory, "rates": cmd_rates,
                   "steady-state": cmd_steady_state}[args.command](config)
        for name, content in outputs:
            if not writes_files:
                sys.stdout.write(content)
            if out_dir is None:
                continue
            path = os.path.join(out_dir, name)
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, "Is a directory", path)
            tmp = f"{path}.{os.urandom(6).hex()}.tmp"
            staged.append((tmp, path))
            if isinstance(content, str):
                with open(tmp, "x", encoding="utf-8") as fh:
                    fh.write(content)
            else:
                write_photon_stream(content, tmp)
            del content  # before the command computes its next output
        for tmp, path in staged:
            os.replace(tmp, path)
        if writes_files:
            print("\n".join(path for _, path in staged))
    except (PlexcitonError, OSError) as exc:
        code = getattr(exc, "exit_code", 2)
        print(f"{'numerical failure' if code == 3 else 'error'}: {exc}",
              file=sys.stderr)
        return code
    finally:  # a staged file not renamed into place is removed
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
