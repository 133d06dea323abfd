"""In-memory spans around calls into plexciton's layers (the traced run only).

A span records name, start, end, parent span and item id.  Counts are added
at the same boundaries by per-layer hooks that look at a call's arguments and
result.  Nothing here is active in an untraced run: the workloads then call
the plexciton functions directly.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from plexciton import bloch, rate_dynamics


def layer_name(fn) -> str:
    """``plexciton.stochastic.fano_factor`` -> ``stochastic.fano_factor``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _rk4_steps(grid, dt_cap: float) -> int:
    # Step rule of plexciton.integrate.evolve_linear: from t = 0, every segment
    # between samples is split into ceil(segment / dt_cap) equal steps.
    segments = np.diff(np.concatenate(([0.0], np.asarray(grid, dtype=float))))
    segments = segments[segments > 0.0]
    return int(np.maximum(1, np.ceil(segments / dt_cap - 1e-12)).sum())


def _rate_dt_cap(rates, pump_r: float, dt_max: float = np.inf) -> float:
    fastest = max(pump_r, rates.gfeed_total, rates.gpar_minus, rates.gpar_plus)
    return min(dt_max, rate_dynamics.STEP_SAFETY / fastest)


# Counts computed from a call's arguments and result.  RK4 step counts are
# computed from the grid and the public STEP_SAFETY rule, not observed.
def _count_evolve_populations(args, kwargs, result):
    initial, rates, pump_r, t_end, dt_max = args[:5]
    n_samples = kwargs.get("n_samples", args[5] if len(args) > 5 else 200)
    grid = np.linspace(0.0, t_end, n_samples + 1)[1:]
    return {"rate_dynamics.rk4_steps":
            _rk4_steps(grid, _rate_dt_cap(rates, pump_r, dt_max))}


def _count_regression_nonresonant(args, kwargs, result):
    rates, pump_r, _branch, tau = args[:4]
    return {"rate_dynamics.rk4_steps": _rk4_steps(tau, _rate_dt_cap(rates, pump_r))}


def _count_regression_resonant(args, kwargs, result):
    omega, gpar, gperp, tau = args[:4]
    fastest = max(gpar, gperp, 2.0 * omega)
    return {"bloch.rk4_steps": _rk4_steps(tau, bloch.STEP_SAFETY / fastest)}


def _count_grid(args, kwargs, result):
    return {"correlations.grid_points": int(result.values.size)}


def _count_simulate(args, kwargs, result):
    return {"stochastic.simulate_stream.photons":
            sum(stream.n_photons for stream in result)}


def _count_histogram(args, kwargs, result):
    # g2_histogram reports values = counts / exposure and
    # stderr = sqrt(max(counts, 1)) / exposure, so counts = (values/stderr)^2.
    ratio = np.divide(result.values, result.stderr,
                      out=np.zeros_like(result.values), where=result.values > 0)
    return {"stochastic.g2_histogram.pairs": int(np.rint(ratio ** 2).sum())}


def _count_fano(args, kwargs, result):
    stream, window = args[:2]
    return {"stochastic.fano_factor.windows": int(stream.duration / window)}


def _count_written(args, kwargs, result):
    return {"stochastic.write_photon_stream.bytes": os.path.getsize(args[1])}


def _count_read(args, kwargs, result):
    return {"stochastic.read_photon_stream.bytes": os.path.getsize(args[0])}


COUNT_HOOKS = {
    "rate_dynamics.evolve_populations": _count_evolve_populations,
    "rate_dynamics.regression_g2_nonresonant_numeric": _count_regression_nonresonant,
    "bloch.regression_g2_resonant_numeric": _count_regression_resonant,
    "stochastic.simulate_stream": _count_simulate,
    "stochastic.g2_histogram": _count_histogram,
    "stochastic.fano_factor": _count_fano,
    "stochastic.write_photon_stream": _count_written,
    "stochastic.read_photon_stream": _count_read,
}
for _name in ("g1_analytic", "spectrum_analytic", "detected_spectrum",
              "spectrum_fft_check", "g2_nonresonant_analytic",
              "g2_resonant_analytic"):
    COUNT_HOOKS[f"correlations.{_name}"] = _count_grid

# Calls whose tracemalloc peak is reported.  tracemalloc runs only inside
# these calls, so it slows nothing else.
PEAK_LAYERS = ("stochastic.g2_histogram", "stochastic.fano_factor")


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item: object = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._stack[-1] if self._stack else None,
                  "item": self.item}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn):
        """``fn`` with a span, its count hook and, if listed, its memory peak."""
        name = layer_name(fn)
        hook = COUNT_HOOKS.get(name)
        peak = name in PEAK_LAYERS

        def traced(*args, **kwargs):
            if peak:
                tracemalloc.start()
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            finally:
                if peak:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                    key = f"{name}.peak_mb"
                    self.counts[key] = max(self.counts[key], peak_mb)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        traced.__name__ = fn.__name__
        return traced

    @contextmanager
    def patched(self, module, names):
        """Wrap ``module.<name>`` for each name while the block runs.

        Used on ``plexciton.cli``: its commands look these names up in their
        own module, so the CLI's calls into other layers become child spans.
        """
        saved = {name: getattr(module, name) for name in names}
        try:
            for name, fn in saved.items():
                setattr(module, name, self.wrap(fn))
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = defaultdict(float)
        for record, covered in zip(self.spans, child):
            totals[record["name"]] += record["end"] - record["start"] - covered
        return dict(totals)

    def inclusive_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for record in self.spans:
            totals[record["name"]] += record["end"] - record["start"]
        return dict(totals)
