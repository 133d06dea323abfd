"""Continuous-time Markov jump simulation of the four-level emission cycle.

The pumped cycle visits G -> U -> (minus or plus) -> G.  Waiting times in
each state are exponential; the branch choice at U is a Bernoulli draw with
the feeding-rate ratio, which is statistically identical to competing
exponential clocks.  A completed branch decay emits a detected photon with
probability equal to the quantum yield (Bernoulli thinning of the jump).

Reproducibility: trajectory ``i`` uses ``numpy``'s PCG64 generator seeded
with ``splitmix64(master_seed + i * 0x9E3779B97F4A7C15 mod 2**64)``.  Within
a trajectory the draws come in fixed-size cycle blocks, ordered as: ground
dwell, upper dwell, branch choice, branch dwell (unit exponential), and,
only when the quantum yield is below one, the detection draw.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientDataError, ParameterError
from .correlations import CorrelationSeries
from .integrate import check_grid
from .model import Branch, BranchRates, SystemParams

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

# Cycles sampled per vectorized block.
_CHUNK = 1 << 19

# Most photons one simulate_stream run may be expected to keep, over all its
# trajectories (a float64 time and an int8 tag each: about 1.2 GB).
# occupation_fractions keeps none; it refuses a run over as many pump cycles
# rather than sample a huge duration without end.
MAX_PHOTONS = 1 << 27

_TAG = {Branch.MINUS: 0, Branch.PLUS: 1}
_TAG_CHAR = {0: "-", 1: "+"}
_CHAR_TAG = {"-": 0, "+": 1}


def _splitmix64(x: int) -> int:
    z = (x + _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_trajectory_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit seed for one trajectory of an ensemble."""
    return _splitmix64((master_seed + index * _GOLDEN64) & _MASK64)


@dataclass(frozen=True)
class TrajectoryConfig:
    """How long, how many, and how to seed a stochastic run."""

    duration: float
    n_trajectories: int = 1
    master_seed: int = 1
    branch_filter: Branch | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.duration < np.inf):
            raise ParameterError(
                f"duration must be positive and finite, got {self.duration}")
        if self.n_trajectories < 1:
            raise ParameterError(
                f"n_trajectories must be >= 1, got {self.n_trajectories}")


@dataclass(frozen=True)
class PhotonStream:
    """Detected photon timestamps of one trajectory, tagged by branch.

    ``tags`` holds 0 for the minus branch and 1 for the plus branch.
    """

    times: np.ndarray
    tags: np.ndarray
    duration: float

    def __post_init__(self) -> None:
        if self.times.shape != self.tags.shape or self.times.ndim != 1:
            raise ParameterError("times and tags must be matching 1-d arrays")
        if np.any((self.tags != 0) & (self.tags != 1)):
            raise ParameterError("tags must be 0 (minus) or 1 (plus)")
        if not (0.0 < self.duration < np.inf):
            raise ParameterError(
                f"duration must be positive and finite, got {self.duration}")
        if self.times.size:
            # Written so that NaN timestamps fail too.
            if not (self.times[0] >= 0.0 and self.times[-1] <= self.duration):
                raise ParameterError("timestamps outside [0, duration]")
            if not np.all(np.diff(self.times) > 0.0):
                raise ParameterError("timestamps must be strictly increasing")

    @property
    def n_photons(self) -> int:
        return int(self.times.size)

    def times_for(self, branch: Branch | None) -> np.ndarray:
        if branch is None:
            return self.times
        return self.times[self.tags == _TAG[branch]]


@dataclass(frozen=True)
class EmissionRate:
    """Photon rate estimate with a Poisson-style standard error."""

    value: float
    stderr: float
    n_photons: int


def _check_run(params: SystemParams, rates: BranchRates,
               config: TrajectoryConfig, stream: bool) -> None:
    """Reject a run with a state it cannot leave, or one expected to keep over
    ``MAX_PHOTONS`` photons (a ``stream``) or else one trajectory's cycles."""
    if params.pump_r == 0.0:
        return  # only the ground state is ever visited
    if rates.gfeed_total == 0.0:
        raise ConfigError("upper level is reachable (pump_r > 0) but has "
                          "zero exit rate (gamma_u = 0)")
    if min(rates.gpar_minus, rates.gpar_plus) == 0.0:
        raise ConfigError("a dressed branch is reachable but has zero decay "
                          "rate (gamma_r + gamma_nr = 0)")
    mean_cycle = 1.0 / params.pump_r + (
        1.0 + rates.gfeed_minus / rates.gpar_minus
        + rates.gfeed_plus / rates.gpar_plus) / rates.gfeed_total
    kept, what = config.duration / mean_cycle, "pump cycles"
    if stream:
        if config.branch_filter is not None:
            kept *= rates.branch(config.branch_filter).gfeed / rates.gfeed_total
        kept *= config.n_trajectories * params.quantum_yield
        what = f"photons kept (n_trajectories = {config.n_trajectories})"
    if kept > MAX_PHOTONS:
        raise ParameterError(f"duration {config.duration} gives ~{kept:.3g} "
                             f"{what}, over the cap of {MAX_PHOTONS}")


def simulate_stream(params: SystemParams, rates: BranchRates,
                    config: TrajectoryConfig) -> list[PhotonStream]:
    """Simulate the jump process and return one photon stream per trajectory."""
    _check_run(params, rates, config, stream=True)
    return [_simulate_one(params, rates, config, index)
            for index in range(config.n_trajectories)]


def _cycle_blocks(rng: np.random.Generator, params: SystemParams,
                  rates: BranchRates, duration: float):
    """Yield ``(ends, dwell_g, dwell_u, is_minus, dwell_b)`` per cycle block.

    Each block makes the four per-cycle draws in contract order; ``ends``
    holds the absolute time each cycle's branch decay completes.  The
    generator is lazy, so draws a consumer makes between two blocks (the
    detection draw) keep their place in the stream.  A consumer drops a
    block's arrays before asking for the next, so that only one block is
    held in memory at a time.
    """
    p_minus = rates.gfeed_minus / rates.gfeed_total
    t0 = 0.0
    while t0 < duration:
        dwell_g = rng.exponential(1.0 / params.pump_r, _CHUNK)
        dwell_u = rng.exponential(1.0 / rates.gfeed_total, _CHUNK)
        is_minus = rng.random(_CHUNK) < p_minus
        branch_rate = np.where(is_minus, rates.gpar_minus, rates.gpar_plus)
        dwell_b = rng.exponential(1.0, _CHUNK) / branch_rate
        ends = t0 + np.cumsum(dwell_g + dwell_u + dwell_b)
        t0 = float(ends[-1])
        yield ends, dwell_g, dwell_u, is_minus, dwell_b


def _simulate_one(params: SystemParams, rates: BranchRates,
                  config: TrajectoryConfig, index: int) -> PhotonStream:
    duration = config.duration
    if params.pump_r == 0.0:
        return PhotonStream(times=np.empty(0), tags=np.empty(0, dtype=np.int8),
                            duration=duration)
    rng = np.random.Generator(np.random.PCG64(
        derive_trajectory_seed(config.master_seed, index)))
    yield_ = params.quantum_yield
    want = None if config.branch_filter is None else _TAG[config.branch_filter]

    times_parts: list[np.ndarray] = []
    tags_parts: list[np.ndarray] = []
    for emit, _, _, is_minus, _ in _cycle_blocks(rng, params, rates, duration):
        keep = emit <= duration
        if yield_ < 1.0:
            keep &= rng.random(_CHUNK) < yield_
        tags = np.where(is_minus, np.int8(0), np.int8(1))
        if want is not None:
            keep &= tags == want
        times_parts.append(emit[keep])
        tags_parts.append(tags[keep])
        del emit, is_minus, _

    return PhotonStream(
        times=np.concatenate(times_parts),
        tags=np.concatenate(tags_parts),
        duration=duration,
    )


def occupation_fractions(params: SystemParams, rates: BranchRates,
                         config: TrajectoryConfig) -> dict[str, float]:
    """Fraction of time one trajectory spends in each of the four states.

    Accumulated over completed pump cycles, so the result carries an
    end-effect bias of at most one cycle over the run length.
    """
    _check_run(params, rates, config, stream=False)
    if params.pump_r == 0.0:
        return {"gg": 1.0, "uu": 0.0, "mm": 0.0, "pp": 0.0}
    rng = np.random.Generator(np.random.PCG64(
        derive_trajectory_seed(config.master_seed, 0)))
    sums = {"gg": 0.0, "uu": 0.0, "mm": 0.0, "pp": 0.0}
    for ends, dwell_g, dwell_u, is_minus, dwell_b in _cycle_blocks(
            rng, params, rates, config.duration):
        keep = ends <= config.duration
        sums["gg"] += float(dwell_g[keep].sum())
        sums["uu"] += float(dwell_u[keep].sum())
        sums["mm"] += float(dwell_b[keep & is_minus].sum())
        sums["pp"] += float(dwell_b[keep & ~is_minus].sum())
        del ends, dwell_g, dwell_u, is_minus, dwell_b
    total = sum(sums.values())
    if total == 0.0:
        raise InsufficientDataError("no completed cycle within the duration")
    return {state: value / total for state, value in sums.items()}


def g2_histogram(stream: PhotonStream, branch: Branch | None,
                 tau_bins: np.ndarray) -> CorrelationSeries:
    """Coincidence histogram normalized to the uncorrelated pair density.

    Counts every ordered photon pair ``i < j`` with ``t_j <= t_i + e_last``
    (not just successive pairs), ``e_last`` the last edge, into the bins by
    np.histogram's rule (last bin closed), and divides each bin by the
    expected count of a rate-matched uncorrelated stream,
    ``rate**2 * width * (T - tau_center)``.  Per-bin standard errors assume
    Poisson pair counts.  Pairs are counted one index offset ``j - i`` at a
    time, so memory is O(photons) whatever the lag window holds.
    """
    edges = check_grid(tau_bins, "tau_bins")
    if edges.size < 2:
        raise ParameterError("tau_bins must contain at least two edges")
    if edges[-1] >= 0.5 * stream.duration:
        raise ParameterError(
            "largest lag bin must stay well below the stream duration")
    times = stream.times_for(branch)
    if times.size < 1e4:
        raise InsufficientDataError(
            f"need at least 1e4 photons of the branch, got {times.size}"
        )
    duration = stream.duration
    rate = times.size / duration
    # Photon i pairs with i+1 .. last[i]; ``first`` holds the photons with a
    # partner at offset k.
    last = np.searchsorted(times, times + edges[-1], "right") - 1
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    first = np.arange(times.size)
    k = 1
    while (first := first[last[first] >= first + k]).size:
        counts += np.histogram(times[first + k] - times[first], edges)[0]
        k += 1
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    exposure = rate ** 2 * widths * (duration - centers)
    values = counts / exposure
    stderr = np.sqrt(np.maximum(counts, 1)) / exposure
    return CorrelationSeries(tau=centers, values=values, branch=branch,
                             normalized=True, stderr=stderr)


def fano_factor(stream: PhotonStream, window: float) -> float:
    """Variance-to-mean ratio of photon counts in disjoint windows."""
    if not (window > 0.0):
        raise ParameterError(f"window must be positive, got {window}")
    n_windows = int(stream.duration / window)
    if n_windows < 100:
        raise InsufficientDataError(
            f"duration covers only {n_windows} windows, need at least 100"
        )
    edges = np.arange(n_windows + 1) * window
    # np.histogram's counts by one search of the sorted timestamps: windows
    # are [e_i, e_i+1), the last one closed.
    cumulative = np.searchsorted(stream.times, edges, "left")
    cumulative[-1] = np.searchsorted(stream.times, edges[-1], "right")
    counts = np.diff(cumulative)
    mean = counts.mean()
    if mean == 0.0:
        raise InsufficientDataError("no photons in any counting window")
    return float(counts.var(ddof=1) / mean)


def emission_rate(stream: PhotonStream, branch: Branch | None) -> EmissionRate:
    """Photon rate of one branch with a Poisson-style error bar."""
    n = int(stream.times_for(branch).size)
    if n == 0:
        raise InsufficientDataError("no photons of the requested branch")
    return EmissionRate(value=n / stream.duration,
                        stderr=np.sqrt(n) / stream.duration,
                        n_photons=n)


def atomic_write(path, chunks) -> None:
    """Write an iterable of text chunks to ``path``, all or nothing.

    The chunks go to a new file beside the target, which is renamed into
    place once complete, so readers never observe a partial file.  On any
    failure the temporary file is removed and an existing target is left
    as it was.  The file is created with mode ``0o666`` less the umask, as
    any new file is.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_photon_stream(stream: PhotonStream, path) -> None:
    """Serialize to the two-column text format ``timestamp<TAB>branch``.

    Written through :func:`atomic_write`, so readers never observe a
    partial stream.
    """
    def chunks():
        yield f"# duration={stream.duration!r}\n"
        step = 1 << 16
        for start in range(0, stream.times.size, step):
            rows = (
                f"{float(t)!r}\t{_TAG_CHAR[int(tag)]}"
                for t, tag in zip(stream.times[start:start + step],
                                  stream.tags[start:start + step])
            )
            yield "\n".join(rows) + "\n"

    atomic_write(path, chunks())


def read_photon_stream(path) -> PhotonStream:
    """Parse the two-column text format produced by :func:`write_photon_stream`.

    A malformed line raises :class:`ParameterError` naming ``path:line``.
    """
    duration = None
    times: list[float] = []
    tags: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    if "duration=" in line:
                        duration = float(line.split("duration=", 1)[1])
                    continue
                stamp, _, tag = line.partition("\t")
                times.append(float(stamp))
                tags.append(_CHAR_TAG[tag.strip()])
            except (KeyError, ValueError):
                raise ParameterError(
                    f"{path}:{lineno}: malformed line {line!r}, expected "
                    "'# duration=<number>' or '<timestamp><TAB><- or +>'"
                ) from None
    if duration is None:
        raise ParameterError(f"{path}: missing '# duration=' header")
    return PhotonStream(times=np.asarray(times, dtype=float),
                        tags=np.asarray(tags, dtype=np.int8),
                        duration=duration)
