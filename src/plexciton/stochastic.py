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
only when the quantum yield is below one, the detection draw.  The last
block of a run is computed only up to the first cycle that must end past
the duration (``reach``, see ``_cycle_blocks``): the rest of its branch
choices is skipped over, and its branch dwells are left undrawn unless a
detection draw follows.  No drawn value changes, so streams are the same
bytes as when every block was computed whole.
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
MAX_PHOTONS = 1 << 27

# Most pump cycles one run may draw, over all its trajectories, counted in
# whole blocks (the dwell arrays of a last block are drawn whole too): 2048
# blocks, about 75 s of sampling at ~35-40 ms per whole block on one core of
# a 2-vCPU Xeon VM (numpy 2.4).
MAX_CYCLES = 1 << 30

# Most counting windows fano_factor may use: its tracemalloc peak is 16.0
# bytes a window, the counts and one temporary of their variance (537 MB
# at the cap, with 1000 photons).
MAX_WINDOWS = 1 << 25

# Most photon pairs g2_histogram may count: about 77 s of counting at ~18 ns
# per pair on the same core.
MAX_PAIRS = 1 << 32

_TAG = {Branch.MINUS: 0, Branch.PLUS: 1}
_CHAR_TAG = {"-": 0, "+": 1}
# What a stream row ends in after its timestamp, by tag.
_ROW_END = ("\t-\n", "\t+\n")

# Rows write_photon_stream formats at a time: 2^16 rows ran no faster and
# took its tracemalloc peak on 1.5e5 photons from 1.9 to 7.7 MB.
_WRITE_ROWS = 1 << 14

# Characters read_photon_stream reads at a time (then up to a line end).
_READ_CHARS = 1 << 18


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
        bad = _first_bad_time(self.times, self.duration)
        if bad >= 0:
            t = float(self.times[bad])
            raise ParameterError(
                f"timestamp {t!r} is NaN or outside [0, duration]"
                if not 0.0 <= t <= self.duration else
                f"timestamp {t!r} is not above the timestamp before it")

    @property
    def n_photons(self) -> int:
        return int(self.times.size)

    def times_for(self, branch: Branch | None) -> np.ndarray:
        if branch is None:
            return self.times
        return self.times[self.tags == _TAG[branch]]


def _first_bad_time(times: np.ndarray, duration: float) -> int:
    """Index of the first timestamp that is NaN, outside ``[0, duration]``
    or not above the one before it; -1 if there is none."""
    ok = (times >= 0.0) & (times <= duration)
    ok[1:] &= times[1:] > times[:-1]
    return -1 if ok.all() else int(ok.argmin())


@dataclass(frozen=True)
class EmissionRate:
    """Photon rate estimate with a Poisson-style standard error."""

    value: float
    stderr: float
    n_photons: int


def _mean_cycle(params: SystemParams, rates: BranchRates) -> float:
    """Mean duration of one pump cycle G -> U -> branch -> G."""
    return 1.0 / params.pump_r + (
        1.0 + rates.gfeed_minus / rates.gpar_minus
        + rates.gfeed_plus / rates.gpar_plus) / rates.gfeed_total


def _expected_kept(params: SystemParams, rates: BranchRates, duration: float,
                   branch: Branch | None) -> float:
    """Photons one trajectory is expected to keep: pump cycles in
    ``duration`` times the quantum yield and, for one ``branch``, its share
    of the cycles.  Needs ``pump_r > 0`` and the rates ``_check_run``
    requires."""
    kept = duration / _mean_cycle(params, rates) * params.quantum_yield
    if branch is not None:
        kept *= rates.branch(branch).gfeed / rates.gfeed_total
    return kept


def _check_run(params: SystemParams, rates: BranchRates,
               config: TrajectoryConfig, stream: bool) -> None:
    """Reject a run with a state it cannot leave, a ``stream`` run expected
    to keep over ``MAX_PHOTONS`` photons (memory), or a run that would draw
    over ``MAX_CYCLES`` cycles (time).  Each trajectory draws whole blocks;
    ``occupation_fractions`` runs only the first."""
    if params.pump_r == 0.0:
        return  # only the ground state is ever visited
    if rates.gfeed_total == 0.0:
        raise ConfigError("upper level is reachable (pump_r > 0) but has "
                          "zero exit rate (gamma_u = 0)")
    if min(rates.gpar_minus, rates.gpar_plus) == 0.0:
        raise ConfigError("a dressed branch is reachable but has zero decay "
                          "rate (gamma_r + gamma_nr = 0)")
    cycles = config.duration / _mean_cycle(params, rates)
    n = config.n_trajectories if stream else 1
    if stream:
        kept = n * _expected_kept(params, rates, config.duration,
                                  config.branch_filter)
        if kept > MAX_PHOTONS:
            raise ParameterError(
                f"duration {config.duration} gives ~{kept:.3g} photons kept "
                f"(n_trajectories = {n}), over the cap of {MAX_PHOTONS}")
    blocks = n * max(1.0, np.ceil(cycles / _CHUNK))
    if blocks > MAX_CYCLES // _CHUNK:
        raise ParameterError(
            f"duration {config.duration} draws ~{blocks:.3g} blocks of "
            f"{_CHUNK} pump cycles (n_trajectories = {n}), over the cap of "
            f"{MAX_CYCLES // _CHUNK}")


def simulate_stream(params: SystemParams, rates: BranchRates,
                    config: TrajectoryConfig) -> list[PhotonStream]:
    """Simulate the jump process and return one photon stream per trajectory."""
    _check_run(params, rates, config, stream=True)
    return [_simulate_one(params, rates, config, index)
            for index in range(config.n_trajectories)]


def _cycle_blocks(rng: np.random.Generator, params: SystemParams,
                  rates: BranchRates, duration: float, yield_: float = 1.0):
    """Yield ``(ends, keep, dwell_g, dwell_u, is_minus, dwell_b)`` per block.

    ``ends`` holds the absolute time each cycle's branch decay completes;
    ``keep`` marks the cycles that complete within ``duration`` and, when
    ``yield_`` is below one, pass the detection draw.  Each block draws in
    contract order: ground dwell, upper dwell, branch choice, branch dwell,
    then the detection draw.

    Only the first ``reach`` cycles of a block are computed: those up to and
    including the first whose ``t0 + cumsum(dwell_g + dwell_u)`` exceeds
    ``duration``, or all of them when none does.  That is ``ends`` without
    the branch dwells, and rounding is monotone, so every later cycle ends
    past ``duration`` too and the block is the run's last.  The search runs
    only when the run is expected to end within the block; otherwise
    ``reach`` is the whole block, which is always safe.

    No drawn value changes, so neither do the stream's bytes.  The two
    dwell arrays are drawn whole, because the ziggurat takes a variable
    number of 64-bit words and later draws depend on them.  A uniform
    double takes exactly one word, so the branch choice draws ``reach``
    values and advances the generator past the rest.  The branch dwell is
    drawn whole only when a later draw needs the state after it (a whole
    block, or the detection draw), and the detection draw comes last.
    ``ends`` is a prefix of the whole block's sequential cumulative sum.
    Blocks are lazy, and a consumer drops a block's arrays before asking
    for the next, so only one block is held at a time.
    """
    p_minus = rates.gfeed_minus / rates.gfeed_total
    mean_gu = 1.0 / params.pump_r + 1.0 / rates.gfeed_total
    detect = yield_ < 1.0
    t0 = 0.0
    while t0 < duration:
        dwell_g = rng.exponential(1.0 / params.pump_r, _CHUNK)
        dwell_u = rng.exponential(1.0 / rates.gfeed_total, _CHUNK)
        reach = _CHUNK
        if duration - t0 <= _CHUNK * mean_gu:
            # The run is expected to end in this block.  Search doubling
            # prefixes from about the expected crossing; first == n means
            # that none of the n cycles passes duration.
            n = 1 << 10
            while n * mean_gu < duration - t0:
                n *= 2
            while (first := int(np.searchsorted(
                    t0 + np.cumsum(dwell_g[:n] + dwell_u[:n]), duration,
                    "right"))) == n < _CHUNK:
                n *= 2
            reach = min(first + 1, _CHUNK)
        if reach < _CHUNK:  # free the whole arrays before the rest is made
            dwell_g, dwell_u = dwell_g[:reach].copy(), dwell_u[:reach].copy()
        is_minus = rng.random(reach) < p_minus
        rng.bit_generator.advance(_CHUNK - reach)
        unit = rng.exponential(
            1.0, _CHUNK if detect or reach == _CHUNK else reach)
        dwell_b = unit[:reach] / np.where(is_minus, rates.gpar_minus,
                                          rates.gpar_plus)
        del unit
        # t0 + cumsum(dwell_g + dwell_u + dwell_b), in place: fewer
        # temporaries leave fewer holes in the heap.
        ends = dwell_g + dwell_u
        ends += dwell_b
        np.cumsum(ends, out=ends)
        ends += t0
        t0 = float(ends[-1])
        keep = ends <= duration
        if detect:
            keep &= rng.random(reach) < yield_
        yield ends, keep, dwell_g, dwell_u, is_minus, dwell_b


def _simulate_one(params: SystemParams, rates: BranchRates,
                  config: TrajectoryConfig, index: int) -> PhotonStream:
    duration = config.duration
    if params.pump_r == 0.0:
        return PhotonStream(times=np.empty(0), tags=np.empty(0, dtype=np.int8),
                            duration=duration)
    rng = np.random.Generator(np.random.PCG64(
        derive_trajectory_seed(config.master_seed, index)))
    want = None if config.branch_filter is None else _TAG[config.branch_filter]

    times_parts: list[np.ndarray] = []
    tags_parts: list[np.ndarray] = []
    for emit, keep, _, _, is_minus, _ in _cycle_blocks(
            rng, params, rates, duration, params.quantum_yield):
        tags = np.where(is_minus, np.int8(0), np.int8(1))
        if want is not None:
            keep &= tags == want
        times_parts.append(emit[keep])
        tags_parts.append(tags[keep])
        del emit, keep, is_minus, _

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
    for ends, keep, dwell_g, dwell_u, is_minus, dwell_b in _cycle_blocks(
            rng, params, rates, config.duration):
        sums["gg"] += float(dwell_g[keep].sum())
        sums["uu"] += float(dwell_u[keep].sum())
        sums["mm"] += float(dwell_b[keep & is_minus].sum())
        sums["pp"] += float(dwell_b[keep & ~is_minus].sum())
        del ends, keep, dwell_g, dwell_u, is_minus, dwell_b
    total = sum(sums.values())
    if total == 0.0:
        raise InsufficientDataError("no completed cycle within the duration")
    return {state: value / total for state, value in sums.items()}


def _check_lag(tau_max: float, duration: float) -> None:
    """Refuse a largest lag of half the stream duration or more."""
    if tau_max >= 0.5 * duration:
        raise ParameterError(
            f"largest lag {tau_max} must stay below half the stream "
            f"duration {duration}")


def _check_pairs(params: SystemParams, rates: BranchRates,
                 config: TrajectoryConfig, branch: Branch,
                 tau_max: float) -> None:
    """Refuse, before sampling, a run that ``g2_histogram`` would refuse
    for its lag window, or whose first stream is expected to give it over
    twice ``MAX_PAIRS`` pairs of ``branch`` photons within ``tau_max``:
    ``n**2 * tau_max / duration`` for ``n`` expected kept photons of the
    branch.  The run is checked as ``simulate_stream`` checks it first.

    The margin keeps runs the exact count accepts.  That count is about the
    expected one times ``1 - tau_max / (2 duration)``, over 3/4 because
    ``tau_max`` must stay below half the duration; antibunching and the
    spread of ``n`` move it little at the 2**17 or more photons a refused
    count needs.  On the trajectory preset's rates it was 0.74-1.00 of the
    expected count (durations 6e7 and 6e8, lags 600 to 0.48 duration).
    """
    _check_run(params, rates, config, stream=True)
    _check_lag(tau_max, config.duration)
    if params.pump_r == 0.0:
        return
    n = _expected_kept(params, rates, config.duration, branch)
    pairs = n * n * tau_max / config.duration
    if pairs > 2 * MAX_PAIRS:
        raise ParameterError(
            f"largest lag {tau_max} is expected to give ~{pairs:.3g} photon "
            f"pairs, over twice the cap of {MAX_PAIRS}")


def g2_histogram(stream: PhotonStream, branch: Branch | None,
                 tau_bins: np.ndarray) -> CorrelationSeries:
    """Coincidence histogram normalized to the uncorrelated pair density.

    Counts every ordered photon pair ``i < j`` with ``t_j <= t_i + e_last``
    (not just successive pairs), ``e_last`` the last edge, into the bins by
    np.histogram's rule (last bin closed), and divides each bin by the
    expected count of a rate-matched uncorrelated stream,
    ``rate**2 * width * (T - tau_center)``.  Per-bin standard errors assume
    Poisson pair counts.  Pairs are counted one index offset ``j - i`` at a
    time, so memory is O(photons) whatever the lag window holds.  The
    pairs are counted before the sweep, and more than ``MAX_PAIRS`` are
    refused.
    """
    edges = check_grid(tau_bins, "tau_bins")
    if edges.size < 2:
        raise ParameterError("tau_bins must contain at least two edges")
    _check_lag(edges[-1], stream.duration)
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
    first = np.arange(times.size)
    pairs = int((last - first).sum())
    if pairs > MAX_PAIRS:
        raise ParameterError(
            f"largest lag {edges[-1]} gives {pairs} photon pairs, over the "
            f"cap of {MAX_PAIRS}")
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    k = 1
    while (first := first[last[first] >= first + k]).size:
        counts += np.histogram(times[first + k] - times[first], edges)[0]
        k += 1
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    exposure = rate ** 2 * widths * (duration - centers)
    values = counts / exposure
    stderr = np.sqrt(np.maximum(counts, 1)) / exposure
    return CorrelationSeries(tau=centers, values=values, stderr=stderr)


def fano_windows(duration: float, window: float) -> int:
    """Number of whole counting windows ``fano_factor`` uses; a window that
    is not positive or gives over ``MAX_WINDOWS`` of them is refused."""
    if not (window > 0.0):
        raise ParameterError(f"window must be positive, got {window}")
    if duration / window > MAX_WINDOWS:
        raise ParameterError(f"window {window} splits the duration "
                             f"{duration} into over the cap of "
                             f"{MAX_WINDOWS} windows")
    return int(duration / window)


def fano_factor(stream: PhotonStream, window: float) -> float:
    """Variance-to-mean ratio of photon counts in disjoint windows.

    Window ``k`` of the ``n = fano_windows(duration, window)`` whole windows
    is ``[k*window, (k+1)*window)``, the last one closed, and photons past
    ``n*window`` are not counted: np.histogram's rule for the edges
    ``np.arange(n + 1) * window``.  Each photon is counted into its window,
    so the cost is O(photons + windows).
    """
    n_windows = fano_windows(stream.duration, window)
    if n_windows < 100:
        raise InsufficientDataError(
            f"duration covers only {n_windows} windows, need at least 100"
        )
    times = stream.times[:np.searchsorted(stream.times, n_windows * window,
                                          "right")]
    # The quotient and the edges k*window round apart, so next to an edge
    # the floor can be one window off either way (at most one while there
    # are far fewer than 2**52 windows); check it against the edges.
    index = (times / window).astype(np.int64)
    index -= times < index * window
    index += times >= (index + 1) * window
    np.minimum(index, n_windows - 1, out=index)  # a photon on the last edge
    counts = np.bincount(index, minlength=n_windows)
    del index
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

    Each timestamp is written as its ``repr``, so it reads back bit for bit.
    Written through :func:`atomic_write`, so readers never observe a
    partial stream.
    """
    times = np.asarray(stream.times, dtype=float)
    tags = np.asarray(stream.tags, dtype=np.int8)

    def chunks():
        yield f"# duration={float(stream.duration)!r}\n"
        for start in range(0, times.size, _WRITE_ROWS):
            stop = start + _WRITE_ROWS
            yield "".join([repr(t) + _ROW_END[g] for t, g in zip(
                times[start:stop].tolist(), tags[start:stop].tolist())])

    atomic_write(path, chunks())


def read_photon_stream(path) -> PhotonStream:
    """Parse the two-column text format produced by :func:`write_photon_stream`.

    The file is read in chunks of whole lines.  A chunk made only of
    canonical rows, as the writer emits them, is parsed in bulk
    (:func:`_canonical_rows`); any other chunk goes through
    :func:`_parse_lines`, which defines the format.  A malformed line, or a
    header or row whose value :class:`PhotonStream` rejects, raises
    :class:`ParameterError` naming ``path:line``.
    """
    time_chunks: list[np.ndarray] = []
    tag_chunks: list[np.ndarray] = []
    row_lines: list[range | list[int]] = []  # each chunk's row line numbers
    header = None
    lineno = 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for chunk in _line_chunks(fh):
            n_lines = chunk.count("\n")
            rows = _canonical_rows(chunk, n_lines)
            if rows is None:
                times, tags, lines, found = _parse_lines(chunk, path,
                                                         lineno + 1)
                header = found or header
            else:
                times, tags = rows
                lines = range(lineno + 1, lineno + 1 + n_lines)
            time_chunks.append(times)
            tag_chunks.append(tags)
            row_lines.append(lines)
            lineno += n_lines
    if header is None:
        raise ParameterError(f"{path}: missing '# duration=' header")
    duration, line = header
    times = np.concatenate(time_chunks)
    try:
        return PhotonStream(times=times, tags=np.concatenate(tag_chunks),
                            duration=duration)
    except ParameterError as exc:
        if 0.0 < duration < np.inf:  # else the header line is at fault
            row = _first_bad_time(times, duration)
            for lines in row_lines:
                if row < len(lines):
                    line = lines[row]
                    break
                row -= len(lines)
        raise ParameterError(f"{path}:{line}: {exc}") from None


def _line_chunks(fh):
    """Yield the text of ``fh`` in chunks of whole lines, each ending in a
    newline (one is added to an unterminated last line): the first line
    alone, which is a written stream's header, then about ``_READ_CHARS``
    characters at a time."""
    chunk = fh.readline()
    while chunk:
        if not chunk.endswith("\n"):
            chunk += fh.readline()
            if not chunk.endswith("\n"):
                chunk += "\n"
        yield chunk
        chunk = fh.read(_READ_CHARS)


def _canonical_rows(chunk: str, n_lines: int):
    """``(times, tags)`` of the ``n_lines`` lines of ``chunk`` if each is a
    canonical row, else None.

    A canonical row is a timestamp that ``float`` accepts, a TAB, and ``-``
    or ``+``, with no other TAB.  ``float`` ignores the same surrounding
    whitespace that :func:`_parse_lines` strips, so on such lines the two
    give the same values.
    """
    if (chunk.count("\t") != n_lines or chunk.count("\t-\n")
            + chunk.count("\t+\n") != n_lines):
        return None
    fields = chunk.replace("\n", "\t").split("\t")
    try:
        times = np.fromiter(map(float, fields[0:-1:2]), float, n_lines)
    except ValueError:
        return None
    plus = np.frombuffer("".join(fields[1::2]).encode(), np.uint8) == ord("+")
    return times, plus.view(np.int8)


def _parse_lines(chunk: str, path, first: int):
    """Parse the lines of ``chunk``, numbered from ``first``, one by one.

    Surrounding whitespace is ignored.  Blank lines and ``#`` comments are
    skipped; a comment holding ``duration=<number>`` is the header.  Any
    other line is a row: a timestamp, a TAB, and ``-`` or ``+``.  Returns
    the rows' times and tags as arrays, their line numbers, and the chunk's
    last header as ``(duration, line)`` or None.  A malformed line raises
    :class:`ParameterError` naming ``path:line``.
    """
    times: list[float] = []
    tags: list[int] = []
    lines: list[int] = []
    header = None
    for lineno, line in enumerate(chunk.split("\n")[:-1], first):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                if "duration=" in line:
                    header = (float(line.split("duration=", 1)[1]), lineno)
                continue
            stamp, _, tag = line.partition("\t")
            times.append(float(stamp))
            tags.append(_CHAR_TAG[tag.strip()])
            lines.append(lineno)
        except (KeyError, ValueError):
            raise ParameterError(
                f"{path}:{lineno}: malformed line {line!r}, expected "
                "'# duration=<number>' or '<timestamp><TAB><- or +>'"
            ) from None
    return (np.array(times, dtype=float), np.array(tags, dtype=np.int8),
            lines, header)
