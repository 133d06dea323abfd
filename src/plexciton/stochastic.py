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
the duration (``reach``, see ``_cycle_block``): only a prefix of its
ground and upper dwells is kept, the rest of its branch choices is skipped
over, and its branch dwells are left undrawn unless a detection draw
follows.  No drawn value changes, so streams are the same bytes as when
every block was computed whole.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InsufficientDataError, ParameterError
from .correlations import CorrelationSeries
from .model import (Branch, BranchRates, SystemParams, _BRANCHES, _integer,
                    _is_real, _numbers, _real, _slot, _store_reals, check_grid)

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

# Cycles sampled per vectorized block.
_CHUNK = 1 << 19

# Values a block draws, scales and sums at a time in its spare buffer.
_SPARE = 1 << 13

# Most photons one run may be expected to keep, over all its trajectories:
# simulate_stream holds them (9 bytes each, 1.2 GB, with one 4.7 MB sampler
# block and never a second copy); the trajectory command, one stream at a
# time, writes them (about 20 bytes of TSV each, 2.7 GB).
MAX_PHOTONS = 1 << 27

# Most pump cycles one run may draw, over all its trajectories, counted in
# whole blocks (every dwell of a last block is drawn too, kept or not): 2048
# blocks, about 30-37 s of sampling at 14-18 ms per whole block (quantum
# yield one, below one) on one core of a 2-vCPU Xeon VM (numpy 2.4).
MAX_CYCLES = 1 << 30

# Most counting windows fano_factor may use.  It holds one node of windows
# and the photons (1.1 MB traced at the cap with 1000 photons), so the cap
# bounds time: 0.11 s there on one core of a 2-vCPU Xeon VM (numpy 2.4).
MAX_WINDOWS = 1 << 25

# Most windows fano_factor counts at a time, 16 bytes each: at least 128,
# numpy's pairwise-sum leaf size, so every node it splits numpy splits too.
_FANO_BLOCK = 1 << 16

# First photons g2_histogram pairs at a time, 8 bytes a float each.  On the
# 1.5e6-photon pumped_long stream with lags to 6000, blocks of 2^15, 2^16 and
# 2^17 photons took 143, 137 and 160 ms (medians of 15, on the core below)
# with tracemalloc peaks of 1.1, 2.2 and 4.3 MB.
_PAIR_BLOCK = 1 << 16

# Most photon pairs g2_histogram may count: about 42 s of counting and
# binning at ~9.7 ns per pair on one core of a 2-vCPU Xeon VM running at
# about half its usual speed (1.02-1.12 s in three runs on the pumped_long
# stream with 1.1e8 pairs).  A refused call has binned every pair up to the
# (block, offset) that passes the cap, so it costs at most that.
MAX_PAIRS = 1 << 32

_CHAR_TAG = {"-": 0, "+": 1}
# What a stream row ends in after its timestamp, by tag.
_ROW_END = ("\t-\n", "\t+\n")

# Values PhotonStream checks at a time, in masks of a byte a value.
_CHECK = 1 << 16

# Rows write_photon_stream formats at a time: 2^16 rows ran no faster and
# took its tracemalloc peak on 1.5e5 photons from 1.9 to 7.7 MB.
_WRITE_ROWS = 1 << 14

# Characters read_photon_stream reads at a time (then up to a line end).
_READ_CHARS = 1 << 18


def _trajectory_rng(seed: int) -> np.random.Generator:
    """The generator of the one-trajectory run at ``seed``: PCG64 seeded with
    splitmix64 of ``seed`` (its step adds ``_GOLDEN64``, then it mixes)."""
    z = (seed + _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return np.random.Generator(np.random.PCG64(z ^ (z >> 31)))


@dataclass(frozen=True)
class TrajectoryConfig:
    """How long, how many, and how to seed a stochastic run."""

    duration: float
    n_trajectories: int = 1
    master_seed: int = 1
    branch_filter: Branch | None = None

    def __post_init__(self) -> None:
        _store_reals(self, {"duration": "positive and finite"})
        for name, low in (("n_trajectories", 1), ("master_seed", None)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        if self.branch_filter is not None:
            object.__setattr__(self, "branch_filter",
                               _BRANCHES[_slot(self.branch_filter)])


@dataclass(frozen=True)
class PhotonStream:
    """Detected photon timestamps of one trajectory, tagged by branch.

    ``tags`` holds 0 for the minus branch and 1 for the plus branch.
    """

    times: np.ndarray
    tags: np.ndarray
    duration: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _numbers(self.times, "times"))
        tags = np.asarray(self.tags)
        if tags.dtype.kind == "c":  # 1+0j would pass as tag 1
            raise ParameterError(f"tags must be real numbers, got dtype {tags.dtype}")
        if self.times.shape != tags.shape or tags.ndim != 1:
            raise ParameterError("times and tags must be matching 1-d arrays")
        for lo in range(0, tags.size, _CHECK):
            if np.any(((part := tags[lo:lo + _CHECK]) != 0) & (part != 1)):
                raise ParameterError("tags must be 0 (minus) or 1 (plus)")
        object.__setattr__(self, "tags", tags.astype(np.int8, copy=False))
        _store_reals(self, {"duration": "positive and finite"})
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
        return self.times[self.tags == _slot(branch)]


def _first_bad_time(times: np.ndarray, duration: float) -> int:
    """Index of the first timestamp that is NaN, outside ``[0, duration]``
    or not above the one before it (-1 if none), ``_CHECK`` at a time."""
    for lo in range(0, times.size, _CHECK):
        part = times[max(lo - 1, 0):lo + _CHECK]  # with the one before
        ok = (part >= 0.0) & (part <= duration)
        ok[1:] &= part[1:] > part[:-1]
        if not ok.all():
            return max(lo - 1, 0) + int(ok.argmin())
    return -1


@dataclass(frozen=True)
class EmissionRate:
    """Photon rate with its Poisson standard error ``sqrt(n)/T``, which
    overstates the error of a sub-Poissonian stream of long-window Fano
    factor ``F`` by ``1/sqrt(F)``: 1.42 for the pumped one at F = 0.49."""

    value: float
    stderr: float
    n_photons: int

    def __post_init__(self) -> None:
        _store_reals(self, {"value": "positive", "stderr": "positive"})
        object.__setattr__(self, "n_photons", _integer("n_photons", self.n_photons, 1))


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
    ``occupation_fractions`` runs the first and draws its last block twice."""
    if params.pump_r == 0.0:
        return  # only the ground state is ever visited
    if rates.gfeed_total == 0.0:
        raise ConfigError("upper level is reachable (pump_r > 0) but has "
                          "zero exit rate (gamma_u = 0)")
    cycles = config.duration / _mean_cycle(params, rates)
    n = config.n_trajectories if stream else 1
    cap = MAX_CYCLES // _CHUNK
    if n > cap:  # each trajectory draws a block; refused before n is a float
        raise ParameterError(
            f"duration {config.duration} draws at least {n} blocks of "
            f"{_CHUNK} pump cycles (n_trajectories = {n}), over the cap of "
            f"{cap}")
    if stream:
        kept = n * _expected_kept(params, rates, config.duration,
                                  config.branch_filter)
        if kept > MAX_PHOTONS:
            raise ParameterError(
                f"duration {config.duration} gives ~{kept:.3g} photons kept "
                f"(n_trajectories = {n}), over the cap of {MAX_PHOTONS}")
    blocks = n * max(1.0, np.ceil(cycles / _CHUNK)) + (not stream)
    if blocks > cap:
        raise ParameterError(
            f"duration {config.duration} draws ~{blocks:.3g} blocks of "
            f"{_CHUNK} pump cycles (n_trajectories = {n}), over the cap of "
            f"{cap}")


def _prefix_size(cycles: float) -> int:
    """Dwells a block keeps when the run is expected to end after ``cycles``
    of its cycles: the power of two of at least 2**11 that covers twice
    that, at most ``_CHUNK``."""
    size = 1 << 11
    while size < 2.0 * cycles and size < _CHUNK:
        size *= 2
    return size


def _pairwise(leaf, lo: int, hi: int, block: int) -> float:
    """numpy's pairwise ``.sum()`` of the values ``[lo, hi)``, bit for bit,
    from ``leaf(lo, hi)``, the sum of a node of at most ``block`` values (at
    least 128, numpy's leaf size, so every node it splits numpy splits too):
    a larger node splits at half its size rounded down to a multiple of 8."""
    m = hi - lo
    if m <= block:
        return leaf(lo, hi)
    h = lo + m // 2 - (m // 2) % 8
    return _pairwise(leaf, lo, h, block) + _pairwise(leaf, h, hi, block)


def _ends_within(t0: float, duration: float, ends: np.ndarray,
                 spare: np.ndarray) -> tuple[int, float]:
    """How many cycle ends ``t0 + cumsum(ends)`` are at most ``duration``,
    and the last, summed in ``spare`` a piece at a time, each from the sum
    before it: every end is the sequential cumulative sum's, bit for bit."""
    count, carry = 0, 0.0
    with np.errstate(over="ignore"):  # an overflowed end is past duration
        for lo in range(0, ends.size, spare.size):
            part = spare[:ends.size - lo]
            part[:] = ends[lo:lo + part.size]
            part[0] += carry
            carry = np.cumsum(part, out=part)[-1]
            part += t0
            count += int(np.searchsorted(part, duration, "right"))
    return count, float(part[-1])


def simulate_stream(params: SystemParams, rates: BranchRates,
                    config: TrajectoryConfig) -> list[PhotonStream]:
    """Simulate the jump process and return one photon stream per trajectory."""
    _check_run(params, rates, config, stream=True)
    return [_simulate_one(params, rates, run) for run in _runs(config)]


def _runs(config: TrajectoryConfig):
    """Trajectory ``i`` as the one-trajectory run at ``master_seed + i * _GOLDEN64``."""
    for index in range(config.n_trajectories):
        yield replace(config, n_trajectories=1,
                      master_seed=config.master_seed + index * _GOLDEN64)


def _pieces(draw, spare: np.ndarray, size: int, stop: int = _CHUNK):
    """Draw ``stop`` values by ``draw(out=...)``, ``spare.size`` at a time
    into ``spare``; yield each piece below index ``size`` as ``(lo, part)``."""
    for lo in range(0, stop, spare.size):
        part = draw(out=spare[:stop - lo])
        if lo < size:
            yield lo, part[:size - lo]


def _cycle_block(rng: np.random.Generator, params: SystemParams,
                 rates: BranchRates, t0: float, duration: float,
                 yield_: float, spare: np.ndarray, fold: int = 0) -> tuple:
    """Draw the block of cycles that starts at ``t0``: ``(ends, is_minus,
    detected, sums)`` of its first ``reach`` cycles, in the module's draw
    order.  ``ends`` holds each cycle's dwell ``g + u + b`` (the caller sums
    the ends ``t0 + cumsum(ends)``, the last starting the next block),
    ``detected`` is None at unit ``yield_``, and ``sums`` hold the ground,
    upper, minus and plus dwells of the first ``fold`` cycles, each a
    running sum, in draw order, of one ``.sum()`` per ``spare``-sized piece.
    A block holds ``ends`` and the masks, 9 bytes a cycle (10 with
    ``detected``): all but the ground dwells are drawn into the caller's
    ``spare``, scaled there (unit-exponential branch dwells divided by the
    branch's rate), summed and added to ``ends``.

    ``reach`` runs to the first cycle whose ``t0 + cumsum(g + u)`` passes
    ``duration``, searched only in an expected last block.  That keeps a
    ``_prefix_size`` prefix of ground and upper dwells (the rest, as the
    ziggurat takes a variable number of words, are drawn and dropped),
    drawn again whole if the search passes it, skips its branch choices
    past ``reach`` (one word each), and draws its branch dwells past it
    only when the detection draw follows."""
    scales = 1.0 / params.pump_r, 1.0 / rates.gfeed_total
    size, last = _CHUNK, duration - t0 <= _CHUNK * sum(scales)
    if last:  # the run is expected to end in this block
        size = _prefix_size((duration - t0) / sum(scales))
        state = rng.bit_generator.state
    while True:
        ends = rng.standard_exponential(size)
        ends *= scales[0]
        for lo in range(size, _CHUNK, spare.size):  # dropped
            rng.standard_exponential(out=spare[:_CHUNK - lo])
        sums = [0.0] * 4
        for lo, part in _pieces(rng.standard_exponential, spare, size):
            part *= scales[1]
            if lo < fold:  # each sum takes only the first fold cycles
                sums[0] += float(ends[lo:min(fold, lo + part.size)].sum())
                sums[1] += float(part[:fold - lo].sum())
            ends[lo:lo + part.size] += part
        if not last or (reach := _ends_within(
                t0, duration, ends, spare)[0]) < size or size == _CHUNK:
            break
        rng.bit_generator.state = state  # past the kept prefix: redraw whole
        size = _CHUNK
    reach = min(reach + 1, _CHUNK) if last else _CHUNK
    ends.resize(reach, refcheck=False)  # free the unused tail in place
    is_minus = np.empty(reach, dtype=bool)
    for lo, part in _pieces(rng.random, spare, reach, reach):
        np.less(part, rates.gfeed_minus / rates.gfeed_total,
                out=is_minus[lo:lo + part.size])
    rng.bit_generator.advance(_CHUNK - reach)
    detected = np.empty(reach, dtype=bool) if yield_ < 1.0 else None
    with np.errstate(over="ignore"):  # an overflowed dwell ends past duration
        for lo, part in _pieces(rng.standard_exponential, spare, reach,
                                reach if detected is None else _CHUNK):
            branch = is_minus[lo:lo + part.size]
            part /= np.where(branch, rates.gpar_minus, rates.gpar_plus)
            if lo < fold:
                kept = branch[:fold - lo]
                sums[2] += float(np.compress(kept, part).sum())
                sums[3] += float(np.compress(~kept, part).sum())
            ends[lo:lo + part.size] += part
    for lo, part in _pieces(rng.random, spare, reach,
                            0 if detected is None else reach):
        np.less(part, yield_, out=detected[lo:lo + part.size])
    return ends, is_minus, detected, sums


def _simulate_one(params: SystemParams, rates: BranchRates,
                  config: TrajectoryConfig) -> PhotonStream:
    """One trajectory's stream, held with one block and never copied: each
    block's ends are summed in place and its kept photons written, a piece
    of ``spare.size`` cycles at a time, into one times and one tags array,
    grown when a block outgrows them by the photons the rest of the run
    expects, five sigma over, and trimmed in place."""
    duration = config.duration
    times, tags = np.empty(0), np.empty(0, dtype=np.int8)
    if params.pump_r == 0.0:
        return PhotonStream(times=times, tags=tags, duration=duration)
    rng = _trajectory_rng(config.master_seed)
    want = None if config.branch_filter is None else _slot(config.branch_filter)
    n, t0, spare = 0, 0.0, np.empty(_SPARE)
    while t0 < duration:
        ends, is_minus, keep, _ = _cycle_block(
            rng, params, rates, t0, duration, params.quantum_yield, spare)
        with np.errstate(over="ignore"):  # an overflowed end is past duration
            np.cumsum(ends, out=ends)
            ends += t0
        t0 = float(ends[-1])
        within = int(np.searchsorted(ends, duration, "right"))  # ends ascend
        block_tags = np.logical_not(is_minus, out=is_minus).view(np.int8)
        if want is not None:  # the tags become the mask of want's photons
            np.equal(block_tags, want, out=is_minus)
            keep = is_minus if keep is None else np.logical_and(
                keep, is_minus, out=keep)
        kept = within if keep is None else int(np.count_nonzero(keep[:within]))
        if n + kept > times.size:
            more = _expected_kept(params, rates, max(duration - t0, 0.0),
                                  config.branch_filter)
            size = n + kept + int(more + 5.0 * more ** 0.5)
            times.resize(size, refcheck=False)
            tags.resize(size, refcheck=False)
        chosen = slice(None)  # every photon within the duration, or keep's
        for lo in range(0, within, spare.size):
            piece = slice(lo, min(lo + spare.size, within))
            if keep is not None:
                chosen = keep[piece]
            m = n + (piece.stop - lo if keep is None
                     else int(np.count_nonzero(chosen)))
            times[n:m] = ends[piece][chosen]
            tags[n:m] = block_tags[piece][chosen] if want is None else want
            n = m
        del ends, is_minus, keep, block_tags, chosen
    times.resize(n, refcheck=False)  # no view of either is left
    tags.resize(n, refcheck=False)
    return PhotonStream(times=times, tags=tags, duration=duration)


def occupation_fractions(params: SystemParams, rates: BranchRates,
                         config: TrajectoryConfig) -> dict[str, float]:
    """Fraction of time one trajectory spends in each of the four states.

    Accumulated over completed pump cycles, so the result carries an
    end-effect bias of at most one cycle over the run length.  Dwells are
    summed as drawn; a block with a cycle ending past the duration (always
    the last) is drawn again from its start to sum only those before it.
    """
    _check_run(params, rates, config, stream=False)
    if params.pump_r == 0.0:
        return {"gg": 1.0, "uu": 0.0, "mm": 0.0, "pp": 0.0}
    rng = _trajectory_rng(config.master_seed)
    sums = {"gg": 0.0, "uu": 0.0, "mm": 0.0, "pp": 0.0}
    t0, duration, spare = 0.0, config.duration, np.empty(_SPARE)
    while t0 < duration:
        state = rng.bit_generator.state
        ends, _, _, block = _cycle_block(rng, params, rates, t0, duration,
                                         1.0, spare, _CHUNK)
        # With no detection draw the kept cycles are a prefix.
        kept, end = _ends_within(t0, duration, ends, spare)
        del ends
        if end > duration:  # draw it again, summing only the kept cycles
            rng.bit_generator.state = state
            block = _cycle_block(rng, params, rates, t0, duration, 1.0,
                                 spare, kept)[3]
        for key, value in zip(sums, block):
            sums[key] += value
        t0 = end
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


def plan_run(params: SystemParams, rates: BranchRates,
             config: TrajectoryConfig, window: float | None,
             tau_max: float | None) -> tuple[float | None, float, Branch]:
    """Resolve a run's ``(window, tau_max, branch)``; refuse, before
    sampling, a run that would be refused after it.

    With ``slow = pump_r + gamma_u`` the defaults are the Fano window
    ``max(1/slow, duration/MAX_WINDOWS)`` (none if ``slow == 0``), the
    largest lag ``3/slow`` (else ``duration/100``) and the branch filter,
    else minus; a default set by ``slow`` that is not positive and finite
    is refused by the sum's name.  The checks run in order: the window cap,
    the run as ``simulate_stream`` checks it, a lag that is positive, finite
    and below half the duration, and the first stream's expected pairs of
    branch photons within ``tau_max``, ``n**2 * tau_max / duration`` for
    ``n`` expected kept photons, against twice ``MAX_PAIRS``.

    The margin keeps runs the exact count accepts.  That count is about the
    expected one times ``1 - tau_max / (2 duration)``, over 3/4 because
    ``tau_max`` must stay below half the duration; antibunching and the
    spread of ``n`` move it little at the 2**17 or more photons a refused
    count needs.  On the trajectory preset's rates it was 0.74-1.00 of the
    expected count (durations 6e7 and 6e8, lags 600 to 0.48 duration).
    Two refusals still come after sampling, and such a run writes nothing:
    under 1e4 photons of the histogram branch (``InsufficientDataError``),
    and an exact pair count over ``MAX_PAIRS`` that the margin let through.
    """
    slow = params.pump_r + params.gamma_u
    if window is None and slow > 0.0:
        window = _real(f"default fano_window from pump_r + gamma_u = {slow!r}",
                       max(1.0 / slow, config.duration / MAX_WINDOWS),
                       "positive and finite")
    if tau_max is None and slow > 0.0:
        tau_max = _real(f"default tau_max from pump_r + gamma_u = {slow!r}",
                        3.0 / slow, "positive and finite")
    elif tau_max is None:
        tau_max = config.duration / 100.0
    branch = config.branch_filter or Branch.MINUS
    if window is not None:
        window = _fano_windows(config.duration, window)[1]
    _check_run(params, rates, config, stream=True)
    tau_max = _real("largest lag", tau_max, "positive and finite")
    _check_lag(tau_max, config.duration)
    if params.pump_r > 0.0:
        n = _expected_kept(params, rates, config.duration, branch)
        pairs = n * n * tau_max / config.duration
        if pairs > 2 * MAX_PAIRS:
            raise ParameterError(
                f"largest lag {tau_max} is expected to give ~{pairs:.3g} "
                f"photon pairs, over twice the cap of {MAX_PAIRS}")
    return window, tau_max, branch


def g2_histogram(stream: PhotonStream, branch: Branch | None,
                 tau_bins: np.ndarray) -> CorrelationSeries:
    """Coincidence histogram normalized to the uncorrelated pair density.

    Counts every ordered photon pair ``i < j`` with ``t_j <= t_i + e_last``
    (not just successive pairs), ``e_last`` the last edge, into the bins by
    np.histogram's rule (last bin closed), and divides each bin by the
    expected count of a rate-matched uncorrelated stream,
    ``rate**2 * width * (T - tau_center)``.  Per-bin standard errors assume
    Poisson pair counts; ``tau_bins`` with a bin too narrow for either to
    be a finite float, and a stream whose squared photon rate is not, are
    refused.  Pairs are found by ``_block_lags``, one block of
    ``_PAIR_BLOCK`` first photons ``i`` and one index offset ``k = j - i``
    at a time, with comparisons only; ``j`` may lie past the block.  Each
    (block, offset)'s pairs are counted, checked against ``MAX_PAIRS`` and
    binned before the next is searched.  The one that takes the count past
    the cap is refused before it is binned, naming its offset and the
    block's first photon, so a refused call costs at most what an accepted
    call at the cap does.  Time is O(photons + pairs) and memory one pair
    block (a few ``_PAIR_BLOCK``-sized arrays) plus the photons of the
    branch, whatever the lag window holds.
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
    _real("squared photon rate", rate * rate, "finite")
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    pairs = 0
    for lo in range(0, times.size - 1, _PAIR_BLOCK):
        for k, lag in _block_lags(times, lo, edges[-1]):
            pairs += lag.size
            if pairs > MAX_PAIRS:
                raise ParameterError(
                    f"largest lag {edges[-1]} gives {pairs} photon pairs, over "
                    f"the cap of {MAX_PAIRS} (counted to index offset {k} "
                    f"from photon {lo})")
            counts += np.histogram(lag, edges)[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    exposure = rate ** 2 * np.diff(edges) * (duration - centers)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused below
        values, stderr = counts / exposure, np.sqrt(np.maximum(counts, 1)) / exposure
    if not (np.isfinite(values).all() and np.isfinite(stderr).all()):
        raise ParameterError("tau_bins has a bin too narrow to normalise its pair count")
    return CorrelationSeries(tau=centers, values=values, stderr=stderr)


def _block_lags(times: np.ndarray, lo: int, last: float):
    """Yield ``(k, lags)`` for each index offset ``k = 1, 2, ...`` at which
    a photon ``i`` of the block ``lo <= i < lo + _PAIR_BLOCK`` has a
    partner ``j = i + k < n``, ``times[j] <= times[i] + last``: the lags
    ``times[j] - times[i]`` of those pairs, in order of ``i``.

    The ``m`` photons of the block that can have a partner at ``k`` are
    marked by a mask while over half of them do, and from then on listed
    as indices; a photon with no partner at ``k`` has none further on, so
    the list shrinks, and the sweep stops once it is empty.  Each offset
    costs one comparison a photon of the mask or list, so at most two a
    pair it yields.  A mask offset's lags are one slice difference, taken
    whole when every photon pairs.
    """
    n = times.size
    first = times[lo:min(lo + _PAIR_BLOCK, n - 1)]
    reach = first + last
    k, m = 1, first.size
    has = times[lo + 1:lo + 1 + m] <= reach
    while 2 * (count := np.count_nonzero(has)) > m:
        lag = times[lo + k:lo + k + m] - first[:m]
        yield k, lag if count == m else lag[has]
        del lag
        k += 1
        m = min(first.size, n - k - lo)
        has = times[lo + k:lo + k + m] <= reach[:m]
    has = np.flatnonzero(has)
    while has.size:
        yield k, times[lo + k:][has] - first[has]
        k += 1
        has = has[:np.searchsorted(has, n - k - lo)]
        has = has[times[lo + k:][has] <= reach[has]]


def _fano_windows(duration: float, window: float) -> tuple[int, float]:
    """``(n, window)``: the number of whole counting windows ``fano_factor``
    uses, and the window as a float; a window that is not positive and
    finite, or gives over ``MAX_WINDOWS`` of them, is refused."""
    window = _real("window", window, "positive and finite")
    if duration / window > MAX_WINDOWS:
        raise ParameterError(f"window {window} splits the duration "
                             f"{duration} into over the cap of "
                             f"{MAX_WINDOWS} windows")
    return int(duration / window), window


def fano_factor(stream: PhotonStream, window: float) -> float:
    """Variance-to-mean ratio of photon counts in disjoint windows.

    Window ``k`` of the ``n`` whole windows that ``_fano_windows`` counts
    is ``[k*window, (k+1)*window)``, the last one closed, and photons past
    ``n*window`` are not counted: np.histogram's rule for the edges
    ``np.arange(n + 1) * window``.  Each photon is counted into its
    window, so the time is O(photons + windows).  The variance is ``var(ddof=1)``'s
    own float operations, in its order, down numpy's pairwise tree one node
    of at most ``_FANO_BLOCK`` windows at a time: memory is one node plus the
    photons (0.92 MB traced on 6.0e6 windows and 1.5e6 photons).
    """
    n_windows, window = _fano_windows(stream.duration, window)
    if n_windows < 100:
        raise InsufficientDataError(
            f"duration covers only {n_windows} windows, need at least 100"
        )
    times = stream.times[:np.searchsorted(stream.times, n_windows * window,
                                          "right")]
    # counts.mean(): an integer sum below 2**53 is exact in float64.
    mean = times.size / n_windows
    if mean == 0.0:
        raise InsufficientDataError("no photons in any counting window")

    def squares(lo: int, hi: int) -> float:
        """Summed squared deviations of windows [lo, hi), one tree node."""
        first, last = np.searchsorted(times, np.array((lo, hi)) * window)
        part = times[first:] if hi == n_windows else times[first:last]
        # The quotient and the edges k*window round apart, so next to an edge
        # the floor can be one window off either way (at most one while far
        # fewer than 2**52 windows); check it against the edges, as above.
        index = (part / window).astype(np.int64)
        index -= part < index * window
        index += part >= (index + 1) * window
        np.minimum(index, n_windows - 1, out=index)  # on the last edge
        dev = np.bincount(index - lo, minlength=hi - lo) - mean
        np.multiply(dev, dev, out=dev)
        return float(dev.sum())

    return _pairwise(squares, 0, n_windows, _FANO_BLOCK) / (n_windows - 1) / mean


def emission_rate(stream: PhotonStream, branch: Branch | None) -> EmissionRate:
    """Photon rate of one branch with a Poisson-style error bar."""
    n = (stream.n_photons if branch is None
         else int(np.count_nonzero(stream.tags == _slot(branch))))
    if n == 0:
        raise InsufficientDataError("no photons of the requested branch")
    return EmissionRate(value=n / stream.duration,
                        stderr=np.sqrt(n) / stream.duration,
                        n_photons=n)


def write_photon_stream(stream: PhotonStream, path) -> None:
    """Serialize to the two-column text format ``timestamp<TAB>branch``.

    Each timestamp is written as its ``repr``, so it reads back bit for bit.
    The rows go to a new file beside ``path`` (mode ``0o666`` less the
    umask), renamed into place once complete: no reader sees a partial
    stream, and a failure removes that file and leaves ``path`` as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(f"# duration={stream.duration!r}\n")
            for start in range(0, stream.n_photons, _WRITE_ROWS):
                stop = start + _WRITE_ROWS
                fh.write("".join([repr(t) + _ROW_END[g] for t, g in zip(
                    stream.times[start:stop].tolist(),
                    stream.tags[start:stop].tolist())]))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_photon_stream(path) -> PhotonStream:
    """Parse the two-column text format produced by :func:`write_photon_stream`.

    The file is read in chunks of whole lines.  A chunk made only of
    canonical rows, as the writer emits them, is parsed in bulk
    (:func:`_canonical_rows`); any other chunk goes through
    :func:`_parse_lines`, which defines the format.  Both give a chunk's
    ``(times, tags, row line numbers, header or None)``.  A malformed line,
    or a header or row whose value :class:`PhotonStream` rejects, raises
    :class:`ParameterError` naming ``path:line``.
    """
    parts, lineno = [], 0  # each chunk's (times, tags, row lines, header)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for chunk in _line_chunks(fh):
            n_lines = chunk.count("\n")
            parts.append(_canonical_rows(chunk, lineno + 1, n_lines)
                         or _parse_lines(chunk, path, lineno + 1))
            lineno += n_lines
    headers = [part[3] for part in parts if part[3] is not None]
    if not headers:
        raise ParameterError(f"{path}: missing '# duration=' header")
    duration, line = headers[-1]
    times = np.concatenate([part[0] for part in parts])
    try:
        return PhotonStream(times=times, tags=np.concatenate(
            [part[1] for part in parts]), duration=duration)
    except ParameterError as exc:
        if _is_real(duration, "positive and finite"):  # else the header's line
            line = np.concatenate([part[2] for part in parts])[
                _first_bad_time(times, duration)]
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


def _canonical_rows(chunk: str, first: int, n_lines: int):
    """``(times, tags, range(first, first + n_lines), None)``, the shape of
    :func:`_parse_lines`, if the ``n_lines`` lines of ``chunk``, numbered
    from ``first``, are each a canonical row, else None.

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
    return times, plus.view(np.int8), range(first, first + n_lines), None


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
            np.array(lines, dtype=np.int64), header)
