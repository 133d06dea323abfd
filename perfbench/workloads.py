"""The four benchmark workloads: set-up, one timed pass, and correctness gates.

Each workload drives plexciton only through its public functions and
``plexciton.cli.main``.  ``run_pass`` is the timed work; ``check`` compares
the pass's outputs with references computed once per run (outside any
timing) and counts operations attempted and failed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import tempfile
import time
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

import plexciton
from plexciton import (
    Branch,
    RegimeWarning,
    TrajectoryConfig,
    branch_rates,
    cli,
    detected_spectrum,
    dressed_basis,
    emission_rate,
    evolve_populations,
    fano_factor,
    g1_analytic,
    g2_histogram,
    g2_nonresonant_analytic,
    g2_resonant_analytic,
    occupation_fractions,
    parse_config,
    read_photon_stream,
    regression_g2_nonresonant_numeric,
    regression_g2_resonant_numeric,
    simulate_stream,
    spectrum_fft_check,
    steady_state_analytic,
)
from plexciton.rate_dynamics import Populations

from spans import Tracer

_LAYER_FUNCTIONS = (
    parse_config, dressed_basis, branch_rates, steady_state_analytic,
    evolve_populations, regression_g2_nonresonant_numeric,
    regression_g2_resonant_numeric, g1_analytic, g2_nonresonant_analytic,
    g2_resonant_analytic, detected_spectrum, spectrum_fft_check,
    simulate_stream, occupation_fractions, emission_rate, fano_factor,
    g2_histogram, read_photon_stream,
)

# Module attributes plexciton.cli calls; wrapped in the traced run so the
# CLI's calls into other layers become child spans of the command.
CLI_CALLS = (
    "parse_config", "dressed_basis", "branch_rates", "steady_state_analytic",
    "spectrum_analytic", "detected_spectrum", "g2_nonresonant_analytic",
    "g2_resonant_analytic", "bloch_steady_state", "branch_drive_rabi",
    "simulate_stream", "write_photon_stream", "emission_rate", "fano_factor",
    "g2_histogram",
)

# Weak resonant drive for the Bloch oracle: saturation 0.0025 per branch, as
# in acceptance criterion 5, where the regression meets the closed form to 5e-3.
_WEAK_SATURATION = 0.0025


def layer_functions(tracer: Tracer | None) -> SimpleNamespace:
    """The plexciton functions a workload calls, wrapped in spans if traced."""
    return SimpleNamespace(**{
        fn.__name__: tracer.wrap(fn) if tracer is not None else fn
        for fn in _LAYER_FUNCTIONS
    })


class StepLog:
    """Timed steps of every pass, with host-speed probes between them.

    Every pass runs the same steps in the same order, so step ``i`` of one
    pass and step ``i`` of another time the same work.  An item (a
    trajectory, a parameter set, or the whole pass) is one or more steps.
    When ``probe`` is set, it is run between steps at most every ``every``
    seconds, outside any step's timing.
    """

    def __init__(self) -> None:
        self.steps: list[tuple[object, float, float]] = []  # item, start, s
        # Start time, seconds of each kernel, seconds the whole probe took.
        self.probes: list[tuple[float, list[float], float]] = []
        self.probe = None
        self.every = 0.5

    def between(self, force: bool = False) -> None:
        if self.probe is None:
            return
        now = time.perf_counter()
        if force or not self.probes or now - self.probes[-1][0] >= self.every:
            kernels = self.probe()
            self.probes.append((now, kernels, time.perf_counter() - now))


@contextlib.contextmanager
def _step(tracer: Tracer | None, item, log: StepLog):
    """Time one step of a pass; tag the spans it opens with its item's id."""
    log.between()
    if tracer is not None:
        tracer.item = item
    start = time.perf_counter()
    try:
        yield
    finally:
        log.steps.append((item, start, time.perf_counter() - start))
        if tracer is not None:
            tracer.item = None


class Gate:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


class PumpedLong:
    """One long pumped trajectory and every estimator on it."""

    def __init__(self, inputs_dir: str, fns: SimpleNamespace) -> None:
        config = fns.parse_config(os.path.join(inputs_dir, "pumped.cfg"))
        self.params = config.params
        self.rates = fns.branch_rates(self.params, fns.dressed_basis(self.params))
        self.traj = TrajectoryConfig(duration=config.duration,
                                     master_seed=config.master_seed)
        self.window = config.fano_window
        self.edges = np.linspace(0.0, config.tau_max, config.bins + 1)
        self.steps = StepLog()

    def warm_up(self, fns: SimpleNamespace) -> None:
        # One sampler block's worth of photons through every estimator.
        short = replace(self.traj, duration=2.0e8)
        stream = fns.simulate_stream(self.params, self.rates, short)[0]
        fns.occupation_fractions(self.params, self.rates, short)
        fns.emission_rate(stream, Branch.MINUS)
        fns.fano_factor(stream, self.window)
        fns.g2_histogram(stream, Branch.MINUS, self.edges[:11])

    def reference(self) -> None:
        """Bin-averaged RK4 regression oracle and closed-form populations."""
        self.steady = steady_state_analytic(self.rates, self.params.pump_r)
        self.branch_rate = {
            b: self.steady.branch(b) * self.rates.branch(b).grad for b in Branch
        }
        sub = 20
        width = self.edges[1] - self.edges[0]
        fine = (np.arange((self.edges.size - 1) * sub) + 0.5) * (width / sub)
        per_branch = {
            b: regression_g2_nonresonant_numeric(
                self.rates, self.params.pump_r, b, fine).reshape(-1, sub).mean(1)
            for b in Branch
        }
        # A detection of either branch resets the cycle to G, so the
        # combined coincidence is the rate-weighted mixture of the branches.
        total = sum(self.branch_rate.values())
        self.g2_ref = {
            Branch.MINUS: per_branch[Branch.MINUS],
            None: sum(self.branch_rate[b] * per_branch[b] for b in Branch) / total,
        }
        # Counting error of the time spent in each state: a state visited in
        # a fraction q of N cycles with exponential dwells has relative
        # standard error sqrt((2 - q) / (N q)).
        cycles = self.traj.duration * total
        feed_minus = self.rates.gfeed_minus / self.rates.gfeed_total
        visits = {"gg": 1.0, "uu": 1.0, "mm": feed_minus, "pp": 1.0 - feed_minus}
        self.occupation_tol = {
            state: max(0.01, 5.0 * math.sqrt((2.0 - q) / (cycles * q)))
            for state, q in visits.items()
        }

    def run_pass(self, fns: SimpleNamespace, tracer: Tracer | None) -> dict:
        out: dict = {"rates": {}, "g2": {}}
        with _step(tracer, "pass", self.steps):
            stream = fns.simulate_stream(self.params, self.rates, self.traj)[0]
        out["stream"] = stream
        with _step(tracer, "pass", self.steps):
            out["occupation"] = fns.occupation_fractions(self.params, self.rates,
                                                         self.traj)
        for b in Branch:
            with _step(tracer, "pass", self.steps):
                out["rates"][b] = fns.emission_rate(stream, b)
        with _step(tracer, "pass", self.steps):
            out["fano"] = fns.fano_factor(stream, self.window)
        for b in (Branch.MINUS, None):
            with _step(tracer, "pass", self.steps):
                out["g2"][b] = fns.g2_histogram(stream, b, self.edges)
        return out

    def photons(self, out: dict) -> int:
        return out["stream"].n_photons

    def check(self, out: dict, gate: Gate) -> None:
        stream = out["stream"]
        gate.op(stream.n_photons > 0, "simulate_stream produced no photons")
        for branch, est in out["rates"].items():
            target = self.branch_rate[branch]
            gap = abs(est.value - target) / target
            gate.op(gap < 0.02, f"{branch.value} rate off by {gap:.2%}")
        for key, value in zip(("gg", "uu", "mm", "pp"), self.steady.as_array()):
            gap = abs(out["occupation"][key] - value) / value
            gate.op(gap <= self.occupation_tol[key],
                    f"occupation {key} off by {gap:.2%}")
        gate.op(0.0 < out["fano"] < 1.0, f"Fano factor {out['fano']} not in (0, 1)")
        centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        width = self.edges[1] - self.edges[0]
        for branch, hist in out["g2"].items():
            ref = self.g2_ref[branch]
            rate = stream.times_for(branch).size / stream.duration
            exposure = rate ** 2 * width * (stream.duration - centers)
            # Poisson error of the expected pair count in each bin.
            sigma = np.sqrt(np.maximum(ref * exposure, 1.0)) / exposure
            z = float(np.max(np.abs(hist.values - ref) / sigma))
            antibunched = hist.values[0] + 5.0 * hist.stderr[0] < 1.0
            label = "both" if branch is None else branch.value
            gate.op(z <= 5.0 and antibunched,
                    f"g2 histogram ({label}) max |z| {z:.2f}, first bin "
                    f"{hist.values[0]:.3g}")


class ShortEnsemble:
    """Many short independent trajectories: simulate, Fano, rate per item."""

    def __init__(self, inputs_dir: str, fns: SimpleNamespace) -> None:
        config = fns.parse_config(os.path.join(inputs_dir, "ensemble.cfg"))
        self.params = config.params
        self.rates = fns.branch_rates(self.params, fns.dressed_basis(self.params))
        self.window = config.fano_window
        self.trajs = [
            TrajectoryConfig(duration=config.duration,
                             master_seed=config.master_seed + index)
            for index in range(config.n_trajectories)
        ]
        self.steps = StepLog()

    def warm_up(self, fns: SimpleNamespace) -> None:
        self._trajectory(fns, self.trajs[0])

    def reference(self) -> None:
        steady = steady_state_analytic(self.rates, self.params.pump_r)
        self.total_rate = sum(steady.branch(b) * self.rates.branch(b).grad
                              for b in Branch)

    def _trajectory(self, fns, traj):
        stream = fns.simulate_stream(self.params, self.rates, traj)[0]
        return (stream.n_photons, fns.fano_factor(stream, self.window),
                fns.emission_rate(stream, None))

    def run_pass(self, fns: SimpleNamespace, tracer: Tracer | None) -> dict:
        results = []
        for index, traj in enumerate(self.trajs):
            with _step(tracer, index, self.steps):
                results.append(self._trajectory(fns, traj))
        return {"trajectories": results}

    def photons(self, out: dict) -> int:
        return sum(n for n, _, _ in out["trajectories"])

    def check(self, out: dict, gate: Gate) -> None:
        fanos = []
        for index, (_, fano, rate) in enumerate(out["trajectories"]):
            z = abs(rate.value - self.total_rate) / rate.stderr
            gate.op(math.isfinite(fano) and fano > 0.0 and z <= 5.0,
                    f"trajectory {index}: Fano {fano}, rate z {z:.1f}")
            fanos.append(fano)
        fanos = np.array(fanos)
        sigma = fanos.std(ddof=1) / math.sqrt(fanos.size)
        significance = (1.0 - fanos.mean()) / sigma
        gate.op(significance >= 5.0,
                f"mean Fano {fanos.mean():.3f} below 1 at only "
                f"{significance:.1f} sigma")


class OracleSweep:
    """Closed forms against their RK4, FFT and steady-state oracles."""

    def __init__(self, inputs_dir: str, fns: SimpleNamespace) -> None:
        self.configs = [
            fns.parse_config(os.path.join(inputs_dir, name))
            for name in sorted(os.listdir(inputs_dir)) if name.endswith(".cfg")
        ]
        self.steps = StepLog()
        self.regime_warnings = 0
        self.closed_form_gaps: list[float] = []

    def warm_up(self, fns: SimpleNamespace) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            self._one_set(fns, self.configs[0])

    def reference(self) -> None:
        pass  # every oracle is computed inside the pass and compared in check

    def _one_set(self, fns, config) -> dict:
        params = config.params
        basis = fns.dressed_basis(params)
        rates = fns.branch_rates(params, basis)
        steady = fns.steady_state_analytic(rates, params.pump_r)
        slow = params.pump_r + params.gamma_u
        tau = np.linspace(0.0, 6.0 / slow, config.tau_steps)
        out = {"rates": rates, "steady": steady, "basis": basis, "slow": slow,
               "nonres": {}, "res": {}, "fft": {}}
        for b in Branch:
            ch = rates.branch(b)
            tau_res = np.linspace(0.0, 40.0 / ch.gpar, config.tau_steps)
            drive = math.sqrt(_WEAK_SATURATION * ch.gperp * ch.gpar)
            out["nonres"][b] = (
                fns.g2_nonresonant_analytic(b, rates, params.pump_r,
                                            params.gamma_u, tau).values,
                fns.regression_g2_nonresonant_numeric(rates, params.pump_r, b, tau))
            out["res"][b] = (
                fns.g2_resonant_analytic(b, rates, tau_res).values,
                fns.regression_g2_resonant_numeric(drive, ch.gpar, ch.gperp,
                                                   tau_res))
            # 80 samples per dephasing time over 25 of them (criterion 3),
            # and at most 1 rad of line rotation per sample: grids rotating
            # by more than pi alias the line, which spectrum_fft_check does
            # not detect.
            dt = min(1.0 / (80.0 * ch.gperp), 1.0 / abs(basis.omega(b)))
            tau_g1 = np.arange(int(25.0 / ch.gperp / dt) + 1) * dt
            spec = fns.spectrum_fft_check(
                fns.g1_analytic(b, rates, steady, basis, tau_g1))
            k = int(np.argmax(spec.values))  # keep the peak, not the array
            out["fft"][b] = (spec.omega[k], spec.values[k])
        slowest = min(slow, rates.gpar_minus, rates.gpar_plus)
        out["evolved"] = fns.evolve_populations(
            Populations(1.0, 0.0, 0.0, 0.0), rates, params.pump_r,
            40.0 / slowest, np.inf, 4).final
        span = 2.0 * basis.omega_rabi + 12.0 * params.gamma_perp
        out["omega"] = np.linspace(basis.omega_center - span,
                                   basis.omega_center + span, config.omega_steps)
        out["spectrum"] = fns.detected_spectrum(rates, steady, basis, out["omega"])
        return out

    def run_pass(self, fns: SimpleNamespace, tracer: Tracer | None) -> dict:
        results = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RegimeWarning)
            for index, config in enumerate(self.configs):
                with _step(tracer, index, self.steps):
                    results.append(self._one_set(fns, config))
        self.regime_warnings = sum(
            issubclass(w.category, RegimeWarning) for w in caught)
        return {"sets": results}

    def photons(self, out: dict) -> int:
        return 0

    def check(self, out: dict, gate: Gate) -> None:
        self.closed_form_gaps = []
        for index, res in enumerate(out["sets"]):
            rates, steady, basis = res["rates"], res["steady"], res["basis"]
            problems = []
            gap = float(np.max(np.abs(res["evolved"].as_array() - steady.as_array())))
            if not gap < 1e-8:
                problems.append(f"evolve_populations {gap:.1e} from steady state")
            for b in Branch:
                closed, numeric = res["res"][b]
                sup = float(np.max(np.abs(numeric - closed)))
                if not sup < 5e-3:
                    problems.append(f"Bloch regression {b.value} off by {sup:.1e}")
                closed_nr, numeric_nr = res["nonres"][b]
                if closed_nr[0] != 0.0 or closed[0] != 0.0:
                    problems.append(f"closed-form g2 {b.value} nonzero at lag 0")
                # Known leading-order defect (criterion 2): reported, not
                # gated, and only where the closed form claims validity.
                if res["slow"] < rates.branch(b).gpar:
                    self.closed_form_gaps.append(
                        float(np.max(np.abs(closed_nr - numeric_nr))))
                omega_peak, peak = res["fft"][b]
                ch = rates.branch(b)
                lorentz = (2.0 * ch.gperp * steady.branch(b)
                           / ((omega_peak - basis.omega(b)) ** 2 + ch.gperp ** 2))
                if not abs(peak - lorentz) < 0.01 * lorentz:
                    problems.append(f"FFT peak {b.value} off the Lorentzian")
            omega = res["omega"]
            expected = sum(
                rates.branch(b).dipole_w * 2.0 * rates.branch(b).gperp
                * steady.branch(b)
                / ((omega - basis.omega(b)) ** 2 + rates.branch(b).gperp ** 2)
                for b in Branch)
            if not np.allclose(res["spectrum"].values, expected,
                               rtol=1e-12, atol=0.0):
                problems.append("detected spectrum differs from the weighted lines")
            gate.op(not problems, f"set {index}: " + "; ".join(problems))


class CliPipeline:
    """Every CLI command end to end, then every photon stream read back."""

    # Host-speed kernels for its steps: they are text formatting and parsing
    # in Python, which the numpy kernels track worse under load.
    HOST_WORK = ("python", "format", "parse")

    COMMANDS = (
        ("spectrum", "spectrum.cfg"),
        ("g2", "g2.cfg"),
        ("rates", "rates.cfg"),
        ("steady-state", "g2.cfg"),
        ("trajectory", "trajectory.cfg"),
    )

    def __init__(self, inputs_dir: str, fns: SimpleNamespace) -> None:
        self.inputs_dir = inputs_dir
        self.traj_config = fns.parse_config(os.path.join(inputs_dir, "trajectory.cfg"))
        for name in ("spectrum.cfg", "g2.cfg", "rates.cfg"):
            fns.parse_config(os.path.join(inputs_dir, name))
        self.work_dir = os.path.dirname(os.path.abspath(inputs_dir))
        self.steps = StepLog()

    def warm_up(self, fns: SimpleNamespace) -> None:
        out_dir = tempfile.mkdtemp(prefix="warm-", dir=self.work_dir)
        try:
            for command, config in self.COMMANDS[:4]:
                self._command(command, config, out_dir)
        finally:
            shutil.rmtree(out_dir)

    def reference(self) -> None:
        n = self.traj_config.n_trajectories
        self.expected_files = (
            ["spectrum_v0dd_0.5.csv", "spectrum_v0dd_1.csv", "spectrum_v0dd_2.csv",
             "g2.csv", "rates.txt", "steady_state.txt", "summary.csv"]
            + [f"photons_{i:03d}.tsv" for i in range(n)])

    def _command(self, command: str, config: str, out_dir: str) -> tuple[int, str]:
        argv = [command, "--config", os.path.join(self.inputs_dir, config),
                "--out", out_dir]
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = cli.main(argv)
        return code, captured.getvalue()

    def run_pass(self, fns: SimpleNamespace, tracer: Tracer | None) -> dict:
        out_dir = tempfile.mkdtemp(prefix="out-", dir=self.work_dir)
        out = {"dir": out_dir, "codes": {}, "streams": {}}
        patch = (tracer.patched(cli, CLI_CALLS) if tracer is not None
                 else contextlib.nullcontext())
        with patch:
            for command, config in self.COMMANDS:
                span = (tracer.span(f"cli.{command.replace('-', '_')}")
                        if tracer is not None else contextlib.nullcontext())
                with _step(tracer, "pass", self.steps), span:
                    out["codes"][command] = self._command(command, config,
                                                          out_dir)
        for name in sorted(os.listdir(out_dir)):
            if name.startswith("photons_"):
                with _step(tracer, "pass", self.steps):
                    out["streams"][name] = fns.read_photon_stream(
                        os.path.join(out_dir, name))
        return out

    def photons(self, out: dict) -> int:
        return sum(stream.n_photons for stream in out["streams"].values())

    def check(self, out: dict, gate: Gate) -> None:
        try:
            self._check(out, gate)
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)

    def _check(self, out: dict, gate: Gate) -> None:
        for command, (code, stdout) in out["codes"].items():
            gate.op(code == 0, f"{command} exited {code}")
        rates_out = out["codes"]["rates"][1]
        gate.op("p_minus = " in rates_out, "rates report lacks p_minus")
        missing = [name for name in self.expected_files
                   if not os.path.isfile(os.path.join(out["dir"], name))]
        gate.op(not missing, f"missing outputs {missing}")
        duration = self.traj_config.duration
        for name, stream in out["streams"].items():
            gate.op(stream.n_photons > 0 and stream.duration == duration,
                    f"{name}: {stream.n_photons} photons, duration {stream.duration}")
        summary = self._summary(os.path.join(out["dir"], "summary.csv"))
        first = out["streams"].get("photons_000.tsv")
        ok = first is not None and summary.get("n_photons") == str(first.n_photons)
        for b in Branch:
            n = 0 if first is None else int(np.count_nonzero(
                first.tags == (0 if b is Branch.MINUS else 1)))
            value = summary.get(f"rate_{b.value}", "").split(" ")
            ok = ok and value[0] == repr(n / duration) and value[-1] == f"n={n}"
        gate.op(ok, "read-back photon counts or rates differ from summary.csv")

    @staticmethod
    def _summary(path: str) -> dict[str, str]:
        fields = {}
        if not os.path.isfile(path):
            return fields
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("# ") and "=" in line:
                    key, _, value = line[2:].strip().partition("=")
                    fields[key] = value
        return fields


WORKLOADS = {
    "pumped_long": PumpedLong,
    "short_ensemble": ShortEnsemble,
    "oracle_sweep": OracleSweep,
    "cli_pipeline": CliPipeline,
}


def versions() -> dict[str, str]:
    return {"plexciton": plexciton.__version__, "numpy": np.__version__}
