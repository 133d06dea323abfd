import functools
import gc
import hashlib
import os
import re
import stat
import tempfile
import tracemalloc
import weakref
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plexciton import (
    Branch,
    ConfigError,
    CorrelationSeries,
    InsufficientDataError,
    ParameterError,
    PhotonStream,
    SpectrumSeries,
    SystemParams,
    TrajectoryConfig,
    branch_rates,
    dressed_basis,
    emission_rate,
    fano_factor,
    g2_histogram,
    occupation_fractions,
    parse_config,
    read_photon_stream,
    simulate_stream,
    steady_state_analytic,
    write_photon_stream,
)
from plexciton import stochastic
from plexciton.stochastic import _CHUNK, _GOLDEN64, MAX_PHOTONS

from conftest import random_params


def make_setup(pump=0.005, feed=0.005, gamma_r=1.0, gamma_nr=0.0, v0=1.0,
               delta=1.0):
    params = SystemParams(omega0=delta, omega1=-delta, v0=v0,
                          gamma_r=gamma_r, gamma_nr=gamma_nr,
                          gamma_perp=(gamma_r + gamma_nr), gamma_u=feed,
                          pump_r=pump)
    rates = branch_rates(params, dressed_basis(params))
    return params, rates


def poisson_stream(rng, rate, duration):
    """Synthetic homogeneous Poisson photon stream (uncorrelated oracle)."""
    times = np.cumsum(rng.exponential(1.0 / rate, int(rate * duration * 1.3) + 100))
    times = times[times <= duration]
    return PhotonStream(times=times, tags=np.zeros(times.size, dtype=np.int8),
                        duration=duration)


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        params, rates = make_setup()
        config = TrajectoryConfig(duration=2e5, n_trajectories=2,
                                  master_seed=77)
        first = simulate_stream(params, rates, config)
        second = simulate_stream(params, rates, config)
        for a, b in zip(first, second):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.tags, b.tags)
        assert not np.array_equal(first[0].times[:50], first[1].times[:50])

    def test_draw_order_is_pinned(self):
        # Stream digests recorded before the cycle-block sampler was shared
        # by the simulator and occupation_fractions, the occupations' since
        # their dwells are summed a piece at a time; a reordered, added or
        # dropped draw changes them.  The yield below one brings in the
        # detection draw, the branch filter its mask, and each trajectory
        # spans more than two blocks.  At feed = pump the ground and upper
        # dwells share a scale, so only the stream at feed 3 and the
        # occupations catch the two scales swapped.
        config = TrajectoryConfig(duration=8e6, n_trajectories=2,
                                  master_seed=2024, branch_filter=Branch.MINUS)
        pinned = {
            1.0: "d4651622c5f74c71913670ac27297939dd70a2faa39f91b07cd0800cb026dcad",
            3.0: "cb51a68478ed39dca13404d0b8c16b03f2704d9485a01aa98cc82bb59f0a7e9c",
        }
        for feed, expected in pinned.items():
            params, rates = make_setup(pump=1.0, feed=feed, gamma_nr=0.3)
            p_minus = rates.gfeed_minus / rates.gfeed_total
            mean_cycle = (1.0 / params.pump_r + 1.0 / rates.gfeed_total
                          + p_minus / rates.gpar_minus
                          + (1.0 - p_minus) / rates.gpar_plus)
            assert params.quantum_yield < 1.0
            assert config.duration / mean_cycle > 2 * _CHUNK
            digest = hashlib.sha256()
            for stream in simulate_stream(params, rates, config):
                digest.update(stream.times.astype("<f8").tobytes())
                digest.update(stream.tags.tobytes())
            assert digest.hexdigest() == expected
        params, rates = make_setup(pump=1.0, feed=1.0, gamma_nr=0.3)
        occupations = repr(occupation_fractions(params, rates, config))
        assert hashlib.sha256(occupations.encode()).hexdigest() == (
            "773c29c37224a74e3eb870a1c599f675311b80849de60e5e4dbfb7ae3b9ad0b2")

    def test_seed_derivation_is_stable(self):
        # Frozen values pin the documented seed-mixing function
        # (splitmix64 finalizer of master_seed + index * golden-ratio step).
        for master_seed, index, seed in [(0, 0, 16294208416658607535),
                                         (0, 1, 7960286522194355700),
                                         (1, 0, 10451216379200822465)]:
            rng = stochastic._trajectory_rng(master_seed + index * _GOLDEN64)
            assert rng.bit_generator.state == np.random.PCG64(seed).state

    @settings(max_examples=10, deadline=None)
    @given(master_seed=st.integers(min_value=-(1 << 63),
                                   max_value=(1 << 64) - 1),
           n=st.integers(min_value=2, max_value=4))
    @example(master_seed=(1 << 64) - 1, n=3)  # every later sum wraps
    def test_trajectory_is_a_run_of_its_own(self, master_seed, n):
        # Trajectory i of an n-trajectory run is the one-trajectory run at
        # master_seed + i * _GOLDEN64 mod 2**64, byte for byte: the
        # trajectory command samples its streams one at a time so.
        params, rates = make_setup()
        config = TrajectoryConfig(duration=2e4, n_trajectories=n,
                                  master_seed=master_seed)
        for index, stream in enumerate(simulate_stream(params, rates, config)):
            seed = (master_seed + index * stochastic._GOLDEN64) % (1 << 64)
            alone = simulate_stream(params, rates, replace(
                config, n_trajectories=1, master_seed=seed))[0]
            assert alone.times.tobytes() == stream.times.tobytes()
            assert alone.tags.tobytes() == stream.tags.tobytes()

    def test_pump_off_gives_empty_stream(self):
        params, rates = make_setup(pump=0.0)
        stream = simulate_stream(params, rates,
                                 TrajectoryConfig(duration=1e4))[0]
        assert stream.n_photons == 0

    def test_stuck_upper_level_rejected(self):
        params, rates = make_setup(feed=0.0)
        with pytest.raises(ConfigError, match="upper level"):
            simulate_stream(params, rates, TrajectoryConfig(duration=1e4))

    def test_undecaying_branch_rejected(self):
        params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=0.0,
                              gamma_nr=0.0, gamma_perp=0.0, gamma_u=0.01,
                              pump_r=0.01)
        # Refused where the rates are built, so no run can be planned.
        with pytest.raises(ParameterError, match="branch rates must be positive"):
            branch_rates(params, dressed_basis(params))

    def test_unit_yield_emits_every_cycle(self):
        # With no non-radiative channel every branch decay is detected, so
        # photon counts equal completed cycles: consecutive photons are
        # separated by at least one full pump cycle and the count matches
        # the mean cycle time estimate within normal fluctuations.
        params, rates = make_setup(pump=0.05, feed=0.05)
        assert params.quantum_yield == 1.0
        stream = simulate_stream(params, rates,
                                 TrajectoryConfig(duration=2e5, master_seed=3))[0]
        mean_cycle = 1.0 / 0.05 + 1.0 / 0.05 + (
            rates.gfeed_minus / 0.05 / rates.gpar_minus
            + rates.gfeed_plus / 0.05 / rates.gpar_plus)
        expected = stream.duration / mean_cycle
        assert stream.n_photons == pytest.approx(expected, rel=0.05)

    def test_thinning_scales_with_quantum_yield(self):
        base, base_rates = make_setup(gamma_r=1.0, gamma_nr=0.0)
        lossy, lossy_rates = make_setup(gamma_r=0.25, gamma_nr=0.75)
        assert lossy.quantum_yield == 0.25
        config = TrajectoryConfig(duration=3e6, master_seed=9)
        n_full = simulate_stream(base, base_rates, config)[0].n_photons
        n_thin = simulate_stream(lossy, lossy_rates, config)[0].n_photons
        assert n_thin / n_full == pytest.approx(0.25, rel=0.05)

    def test_branch_filter_keeps_physics(self):
        params, rates = make_setup()
        config = TrajectoryConfig(duration=2e6, master_seed=5,
                                  branch_filter=Branch.MINUS)
        stream = simulate_stream(params, rates, config)[0]
        assert np.all(stream.tags == 0)
        full = simulate_stream(params, rates,
                               TrajectoryConfig(duration=2e6, master_seed=5))[0]
        assert np.array_equal(stream.times, full.times_for(Branch.MINUS))

    def test_dwell_time_statistics(self):
        # Distributional oracle: mean dwick times of each leg of the cycle
        # follow the configured exponential scales.
        params, rates = make_setup(pump=0.02, feed=0.01)
        fractions = occupation_fractions(
            params, rates, TrajectoryConfig(duration=5e6, master_seed=13))
        steady = steady_state_analytic(rates, params.pump_r)
        for key, value in (("gg", steady.p_gg), ("uu", steady.p_uu),
                           ("mm", steady.p_mm), ("pp", steady.p_pp)):
            assert fractions[key] == pytest.approx(value, rel=0.05, abs=2e-4)

    # The g2 benchmark's rates with branch decay rates so small that a
    # cycle's branch dwell (1e-307, 3e-308) or its end (1e-305) overflows:
    # that cycle ends past any duration, so the run keeps nothing, and the
    # overflow warns of nothing (a RuntimeWarning is an error here).
    @pytest.mark.parametrize("gamma_r", [1e-305, 1e-307, 3e-308])
    def test_decay_past_the_float_range_keeps_nothing(self, gamma_r):
        params = SystemParams(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=gamma_r,
                              gamma_nr=0.0, gamma_perp=0.5, gamma_u=0.005,
                              pump_r=0.005)
        rates = branch_rates(params, dressed_basis(params))
        config = TrajectoryConfig(duration=2e5)
        assert simulate_stream(params, rates, config)[0].n_photons == 0
        with pytest.raises(InsufficientDataError):
            occupation_fractions(params, rates, config)


# Cycles occupation_fractions sums at a time, one ``.sum()`` a dwell kind.
PIECE = 1 << 13


def reference_blocks(rng, params, rates, duration, yield_):
    """The full-block sampler: every draw of a block made whole, and (yield
    below one) the detection draw after the block."""
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
        keep = ends <= duration
        if yield_ < 1.0:
            keep &= rng.random(_CHUNK) < yield_
        yield ends, keep, dwell_g, dwell_u, is_minus, dwell_b


def reference_rng(config, index=0):
    return stochastic._trajectory_rng(config.master_seed + index * _GOLDEN64)


def reference_stream(params, rates, config, index=0):
    """Times and tags of trajectory ``index`` by the full-block sampler."""
    times, tags = [], []
    for ends, keep, _, _, is_minus, _ in reference_blocks(
            reference_rng(config, index), params, rates, config.duration,
            params.quantum_yield):
        tag = np.where(is_minus, np.int8(0), np.int8(1))
        if config.branch_filter is not None:
            keep &= tag == (config.branch_filter is Branch.PLUS)
        times.append(ends[keep])
        tags.append(tag[keep])
    return np.concatenate(times), np.concatenate(tags)


def reference_occupations(params, rates, config):
    """``repr`` of occupation_fractions by the full-block sampler: a block
    adds to each sum, in draw order, one ``.sum()`` of the kept dwells of
    each of its pieces of ``PIECE`` cycles."""
    sums = {"gg": 0.0, "uu": 0.0, "mm": 0.0, "pp": 0.0}
    for ends, keep, dwell_g, dwell_u, is_minus, dwell_b in reference_blocks(
            reference_rng(config), params, rates, config.duration, 1.0):
        block = dict.fromkeys(sums, 0.0)
        for lo in range(0, _CHUNK, PIECE):
            kept, minus = keep[lo:lo + PIECE], is_minus[lo:lo + PIECE]
            block["gg"] += float(dwell_g[lo:lo + PIECE][kept].sum())
            block["uu"] += float(dwell_u[lo:lo + PIECE][kept].sum())
            block["mm"] += float(dwell_b[lo:lo + PIECE][kept & minus].sum())
            block["pp"] += float(dwell_b[lo:lo + PIECE][kept & ~minus].sum())
        for key in sums:
            sums[key] += block[key]
    total = sum(sums.values())
    if total == 0.0:
        return "InsufficientDataError"
    return repr({state: value / total for state, value in sums.items()})


def occupations_repr(params, rates, config):
    try:
        return repr(occupation_fractions(params, rates, config))
    except InsufficientDataError:
        return "InsufficientDataError"


# Unit and sub-unit quantum yield at fast rates: a cycle takes 8.0 and 6.6.
PREFIX_SETUPS = {"unit-yield": make_setup(pump=1.0, feed=1.0),
                 "lossy": make_setup(pump=1.0, feed=1.0, gamma_nr=0.3)}
# The mean time of one block of cycles, per setup.
BLOCK_TIME = {setup: _CHUNK * stochastic._mean_cycle(*PREFIX_SETUPS[setup])
              for setup in PREFIX_SETUPS}


class TestPrefixSampler:
    """The last block of a run is computed only up to its duration, with
    every drawn value, and so every stream, unchanged."""

    @staticmethod
    def assert_matches_full_blocks(params, rates, config):
        stream = simulate_stream(params, rates, config)[0]
        times, tags = reference_stream(params, rates, config)
        assert np.array_equal(stream.times, times)
        assert np.array_equal(stream.tags, tags)
        if config.branch_filter is None:
            assert (occupations_repr(params, rates, config)
                    == reference_occupations(params, rates, config))

    @pytest.mark.parametrize("setup", PREFIX_SETUPS)
    @pytest.mark.parametrize("branch", [None, Branch.MINUS, Branch.PLUS])
    @pytest.mark.parametrize("where", ["no-cycle", "block-1",
                                       "just-past-block-1", "block-3"])
    def test_streams_match_full_blocks(self, setup, branch, where):
        params, rates = PREFIX_SETUPS[setup]
        config = TrajectoryConfig(duration=1.0, master_seed=404,
                                  branch_filter=branch)
        if where == "no-cycle":
            duration = 0.01
        elif where == "block-1":
            duration = 300.0
        elif where == "block-3":
            duration = 2.5 * BLOCK_TIME[setup]
            blocks = reference_blocks(reference_rng(config), params, rates,
                                      duration, params.quantum_yield)
            assert sum(1 for _ in blocks) == 3
        else:  # the second block keeps a cycle or so
            first = next(reference_blocks(reference_rng(config), params,
                                          rates, np.inf, 1.0))
            duration = float(first[0][-1]) + 4.0
        assert (params.quantum_yield < 1.0) == (setup == "lossy")
        self.assert_matches_full_blocks(params, rates,
                                        replace(config, duration=duration))

    @settings(max_examples=15, deadline=None)
    @given(setup=st.sampled_from(sorted(PREFIX_SETUPS)),
           branch=st.sampled_from([None, Branch.MINUS, Branch.PLUS]),
           exponent=st.floats(min_value=-7.0, max_value=0.1))
    def test_streams_match_full_blocks_property(self, setup, branch,
                                                exponent):
        # From under one cycle (no photon) to just past one block.
        params, rates = PREFIX_SETUPS[setup]
        config = TrajectoryConfig(duration=BLOCK_TIME[setup] * 10.0 ** exponent,
                                  master_seed=405, branch_filter=branch)
        self.assert_matches_full_blocks(params, rates, config)

    @pytest.mark.parametrize("setup", PREFIX_SETUPS)
    @pytest.mark.parametrize("branch", [None, Branch.MINUS, Branch.PLUS])
    @pytest.mark.parametrize("where", ["block-1", "block-2"])
    def test_streams_match_full_blocks_after_redraw(self, monkeypatch, setup,
                                                    branch, where):
        # A last block whose crossing falls past its kept prefix is drawn
        # again whole: the prefix is forced to 256 dwells, and the last
        # block's crossing, 500 to 600 cycles in, lies past them.
        params, rates = PREFIX_SETUPS[setup]
        config = TrajectoryConfig(duration=4000.0, master_seed=406,
                                  branch_filter=branch)
        if where == "block-2":
            first = next(reference_blocks(reference_rng(config), params,
                                          rates, np.inf, 1.0))
            config = replace(config, duration=float(first[0][-1]) + 4000.0)
        *_, last = reference_blocks(reference_rng(config), params, rates,
                                    config.duration, 1.0)
        assert np.count_nonzero(last[1]) > 256
        calls = []

        def forced(cycles):
            calls.append(cycles)
            return 256

        monkeypatch.setattr(stochastic, "_prefix_size", forced)
        self.assert_matches_full_blocks(params, rates, config)
        assert calls  # the last block kept a prefix

    @pytest.mark.parametrize("setup", PREFIX_SETUPS)
    @pytest.mark.parametrize("path", ["first-block", "redraw"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_occupations_match_at_a_piece_edge(self, monkeypatch, setup, path,
                                               offset):
        # The run keeps PIECE cycles, or one fewer or more, so the last
        # piece occupation_fractions sums holds all, all but one, or one of
        # its cycles.  Forced to keep a prefix of 2**11 dwells, the block's
        # crossing lies past it and the block is drawn again whole.
        params, rates = PREFIX_SETUPS[setup]
        config = TrajectoryConfig(duration=1.0, master_seed=409)
        ends = next(reference_blocks(reference_rng(config), params, rates,
                                     np.inf, 1.0))[0]
        kept = PIECE + offset
        config = replace(config,
                         duration=0.5 * float(ends[kept - 1] + ends[kept]))
        assert np.count_nonzero(ends <= config.duration) == kept
        calls = []

        def forced(cycles):
            calls.append(cycles)
            return 1 << 11

        if path == "redraw":
            monkeypatch.setattr(stochastic, "_prefix_size", forced)
        self.assert_matches_full_blocks(params, rates, config)
        assert bool(calls) == (path == "redraw")

    def test_occupations_redraw_a_block_ending_past_the_duration(
            self, monkeypatch):
        # At half a block's time the first block is not expected to be the
        # last (its ground and upper dwells take a quarter of that time), so
        # it is drawn whole, yet its cycle ends pass the duration:
        # occupation_fractions draws it once more, to sum only the cycles
        # within the duration.
        params, rates = PREFIX_SETUPS["unit-yield"]
        config = TrajectoryConfig(duration=0.5 * BLOCK_TIME["unit-yield"],
                                  master_seed=408)
        drawn = []
        draw = stochastic._cycle_block

        def counting(*args):
            block = draw(*args)
            drawn.append(block[0].size)
            return block

        monkeypatch.setattr(stochastic, "_cycle_block", counting)
        assert (occupations_repr(params, rates, config)
                == reference_occupations(params, rates, config))
        assert drawn == [_CHUNK, _CHUNK]
        drawn.clear()
        self.assert_matches_full_blocks(params, rates, config)
        assert drawn == [_CHUNK] * 3  # the stream's, then occupations' two

    @pytest.mark.parametrize("setup", PREFIX_SETUPS)
    def test_short_run_allocates_under_half_a_block(self, setup):
        # About 40 cycles: of the ground and upper dwells, prefixes of 2**11
        # are kept and the rest drawn into a spare buffer, as are the branch
        # dwells past them when a detection draw follows; the full-block
        # sampler allocated about seven block-sized arrays.
        params, rates = PREFIX_SETUPS[setup]
        config = TrajectoryConfig(duration=300.0)
        tracemalloc.start()
        try:
            simulate_stream(params, rates, config)
            occupation_fractions(params, rates, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _CHUNK * 4

    def test_long_run_holds_one_block(self):
        # Each run ends 2% of a block's time before the mean end of a block,
        # so its last block keeps 98% of its cycles, and every block is
        # drawn whole (a block's ground and upper dwells take a quarter of
        # its time, so none is expected to end the run).  Holding the last
        # block's arrays while drawing the next cost 2.1 block arrays more;
        # the slack, _CHUNK bytes (1/8 of a float array), covers the 2% more
        # cycles an earlier block keeps.  One block holds its summed dwells
        # and branch mask, 9 bytes a cycle, and a piece of one branch's
        # dwells while it is summed; three dwell arrays, 25 bytes a cycle,
        # fail the absolute bound.
        params, rates = PREFIX_SETUPS["unit-yield"]
        peaks = {}
        for blocks in (1, 3, 6):
            config = TrajectoryConfig(
                duration=(blocks - 0.02) * BLOCK_TIME["unit-yield"])
            tracemalloc.start()
            try:
                occupation_fractions(params, rates, config)
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] <= peaks[1] + _CHUNK
        assert peaks[6] <= peaks[1] + _CHUNK
        assert max(peaks.values()) <= 11 * _CHUNK

    def test_long_stream_holds_one_block(self):
        # As above, for simulate_stream less the stream it returns (9 bytes
        # a photon): a run holds its stream and one block, whose summed
        # dwells and branch mask take 9 bytes a cycle (the slack covers the
        # stream's margin and a spare buffer; three dwell arrays, 25 bytes
        # a cycle, fail it).
        # A stream gathered in per-block parts and concatenated, or trimmed
        # by a copy, is held twice: 4.6 MB more per block of photons.
        params, rates = PREFIX_SETUPS["unit-yield"]
        over = {}
        for blocks in (1, 3, 6):
            config = TrajectoryConfig(
                duration=(blocks - 0.02) * BLOCK_TIME["unit-yield"])
            tracemalloc.start()
            try:
                photons = simulate_stream(params, rates, config)[0].n_photons
                over[blocks] = tracemalloc.get_traced_memory()[1] - 9 * photons
            finally:
                tracemalloc.stop()
        assert max(over.values()) <= 11 * _CHUNK
        assert over[6] <= over[3] + _CHUNK

    @pytest.mark.parametrize("branch", [None, Branch.MINUS, Branch.PLUS])
    def test_streams_match_full_blocks_when_grown(self, monkeypatch, branch):
        # With no photon expected, the stream arrays start empty and grow at
        # every block by exactly what it keeps: three trajectories of two
        # blocks each, the last computed only up to the duration.
        params, rates = PREFIX_SETUPS["lossy"]
        calls = []

        def nothing(*args):
            calls.append(args)
            return 0.0

        monkeypatch.setattr(stochastic, "_expected_kept", nothing)
        config = TrajectoryConfig(duration=1.5 * BLOCK_TIME["lossy"],
                                  n_trajectories=3, master_seed=407,
                                  branch_filter=branch)
        streams = simulate_stream(params, rates, config)
        assert len(calls) == 1 + 3 * 2  # the photon cap, then each growth
        for index, stream in enumerate(streams):
            times, tags = reference_stream(params, rates, config, index)
            assert stream.times.tobytes() == times.tobytes()
            assert stream.tags.tobytes() == tags.tobytes()


class TestValidation:
    @pytest.mark.parametrize("duration", [np.inf, np.nan])
    def test_trajectory_duration_must_be_finite(self, duration):
        with pytest.raises(ParameterError, match="duration"):
            TrajectoryConfig(duration=duration)

    @pytest.mark.parametrize("run", [simulate_stream, occupation_fractions])
    def test_huge_run_rejected_before_sampling(self, run):
        params, rates = make_setup()
        with pytest.raises(ParameterError, match="over the cap"):
            run(params, rates, TrajectoryConfig(duration=1e300))

    @pytest.mark.parametrize("run", [
        simulate_stream,
        lambda *args: stochastic.plan_run(*args, None, None)],
        ids=["simulate_stream", "plan_run"])
    def test_trajectory_count_past_a_float_rejected(self, run):
        # Each trajectory draws a block, so the count is refused while it is
        # still an integer: as a float it would overflow.
        params, rates = make_setup()
        with pytest.raises(ParameterError, match=(
                r"at least 10{400} blocks .* over the cap of 2048")):
            run(params, rates, TrajectoryConfig(duration=1.0,
                                                n_trajectories=10 ** 400))

    def test_run_size_counts_every_trajectory(self):
        # Each trajectory alone is under the cap, the two together are not.
        params, rates = make_setup()
        mean_cycle = 1.0 / params.pump_r + (
            1.0 + rates.gfeed_minus / rates.gpar_minus
            + rates.gfeed_plus / rates.gpar_plus) / rates.gfeed_total
        config = TrajectoryConfig(duration=0.75 * MAX_PHOTONS * mean_cycle,
                                  n_trajectories=2)
        with pytest.raises(ParameterError, match="photons kept"):
            simulate_stream(params, rates, config)

    @pytest.mark.parametrize("branch", [None, Branch.MINUS, Branch.PLUS])
    def test_run_size_counts_kept_photons(self, monkeypatch, branch):
        # The estimate follows the yield (0.25 here) and the branch filter
        # (the minus branch takes 15% of cycles): the run passes a cap 5%
        # above the photons it keeps and fails one 5% below.  2e5 cycles keep
        # at least 7e3 photons, so 5% is over 4 sigma of counting noise.
        params, rates = make_setup(gamma_nr=3.0)
        config = TrajectoryConfig(duration=4e7, n_trajectories=2,
                                  branch_filter=branch)
        kept = sum(s.n_photons for s in simulate_stream(params, rates, config))
        monkeypatch.setattr(stochastic, "MAX_PHOTONS", int(1.05 * kept))
        simulate_stream(params, rates, config)
        monkeypatch.setattr(stochastic, "MAX_PHOTONS", int(0.95 * kept))
        with pytest.raises(ParameterError, match="photons kept"):
            simulate_stream(params, rates, config)

    def test_run_draw_counts_whole_blocks(self, monkeypatch):
        # 1.5 blocks' worth of mean cycles draws two blocks per trajectory:
        # the first is computed whole, the second only up to the duration,
        # but the dwell arrays of both are drawn whole.  The cap counts
        # these blocks over every trajectory of a stream run, and over the
        # one trajectory occupation_fractions samples, whose last block is
        # drawn a second time to sum only the cycles within the duration.
        params, rates = make_setup()
        mean_cycle = 1.0 / params.pump_r + (
            1.0 + rates.gfeed_minus / rates.gpar_minus
            + rates.gfeed_plus / rates.gpar_plus) / rates.gfeed_total
        drawn = []
        draw = stochastic._cycle_block

        def counting(*args):
            block = draw(*args)
            drawn.append(block[0].size)
            return block

        monkeypatch.setattr(stochastic, "_cycle_block", counting)
        monkeypatch.setattr(stochastic, "MAX_CYCLES", 4 * _CHUNK)
        config = TrajectoryConfig(duration=1.5 * _CHUNK * mean_cycle,
                                  n_trajectories=2)
        simulate_stream(params, rates, config)
        assert len(drawn) == 4 and drawn[0] == drawn[2] == _CHUNK
        with pytest.raises(ParameterError, match="over the cap"):
            simulate_stream(params, rates, replace(config, n_trajectories=3))
        occupation_fractions(params, rates, replace(config, n_trajectories=3))
        assert len(drawn) == 7

    def test_run_keeping_nothing_is_still_capped(self, monkeypatch):
        # Quantum yield 0 keeps no photon, so only the draw cap stops this.
        params, rates = make_setup(gamma_r=0.0, gamma_nr=1.0)
        monkeypatch.setattr(stochastic, "MAX_CYCLES", 4 * _CHUNK)
        with pytest.raises(ParameterError, match="over the cap"):
            simulate_stream(params, rates, TrajectoryConfig(duration=1e300))

    @pytest.mark.parametrize("at", [1 << 16, (1 << 16) + 1, (1 << 17) + 5])
    def test_stream_checks_find_the_first_bad_value_across_pieces(self, at):
        # PhotonStream checks its arrays 2**16 values at a time: a timestamp
        # not above the one before it, first in a piece, is still found, as
        # is a bad tag past the first piece.
        times = np.arange(1.0, (1 << 17) + 10)
        tags = np.zeros(times.size, dtype=np.int8)
        bad = times.copy()
        bad[at] = bad[at - 1]
        assert stochastic._first_bad_time(bad, times[-1]) == at
        with pytest.raises(ParameterError, match="not above"):
            PhotonStream(times=bad, tags=tags, duration=times[-1])
        tags[at] = 2
        with pytest.raises(ParameterError, match="tags"):
            PhotonStream(times=times, tags=tags, duration=times[-1])

    def test_stream_checks_hold_no_photon_sized_mask(self):
        # The range, order and tag checks of 2**20 photons: whole-array
        # masks took about 3 bytes a photon; a piece at a time, a few
        # 2**16-value masks.
        times = np.arange(1.0, (1 << 20) + 1)
        tags = np.zeros(times.size, dtype=np.int8)
        tracemalloc.start()
        try:
            PhotonStream(times=times, tags=tags, duration=times[-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < times.size

    @pytest.mark.parametrize("bad", [7, -1])
    def test_out_of_range_tag_rejected(self, bad):
        with pytest.raises(ParameterError, match="tags"):
            PhotonStream(times=np.array([1.0, 2.0, 3.0]),
                         tags=np.array([0, 1, bad], dtype=np.int8),
                         duration=5.0)

    # A constructor, then the fields it must store as arrays or the
    # ParameterError message it must raise.
    @pytest.mark.parametrize("make, expected", [
        pytest.param(lambda: PhotonStream(times=[0.5], tags=[0], duration=1.0),
                     ("times", "tags"), id="stream-lists"),
        pytest.param(lambda: PhotonStream(times=[0.5, 0.6], tags=[0],
                                          duration=1.0),
                     "matching 1-d arrays", id="stream-list-lengths-differ"),
        pytest.param(lambda: CorrelationSeries(tau=[0.0, 1.0], values=[1.0, 2.0],
                                               stderr=(0.1, 0.1)),
                     ("tau", "values", "stderr"), id="correlation-lists"),
        pytest.param(lambda: CorrelationSeries(tau=[0.0, 1.0], values=[1.0]),
                     "values and tau", id="correlation-list-lengths-differ"),
        pytest.param(lambda: SpectrumSeries(omega=[0.0, 1.0], values=[1.0, 2.0]),
                     ("omega", "values"), id="spectrum-lists"),
        pytest.param(lambda: TrajectoryConfig(duration=1e3, n_trajectories=2.5),
                     "n_trajectories must be an integer", id="fractional-count"),
        pytest.param(lambda: TrajectoryConfig(duration=1e3, master_seed=1.5),
                     "master_seed must be an integer", id="fractional-seed"),
        pytest.param(lambda: TrajectoryConfig(duration=1e3, master_seed="7"),
                     "master_seed must be an integer", id="string-seed"),
        pytest.param(lambda: TrajectoryConfig(duration="1e3"),
                     "duration must be positive and finite",
                     id="string-duration"),
        pytest.param(lambda: TrajectoryConfig(duration=None),
                     "duration must be positive and finite",
                     id="no-duration"),
        pytest.param(lambda: PhotonStream(times=[1.0], tags=[0], duration="1"),
                     "duration must be positive and finite",
                     id="stream-string-duration"),
        pytest.param(lambda: TrajectoryConfig(duration=10 ** 400),
                     "duration must be positive and finite",
                     id="huge-int-duration"),
        pytest.param(lambda: PhotonStream(times=[1.0], tags=[0],
                                          duration=10 ** 400),
                     "duration must be positive and finite",
                     id="stream-huge-int-duration"),
        pytest.param(lambda: PhotonStream(times=["a"], tags=[0], duration=1.0),
                     "times must be real numbers", id="stream-string-times"),
        pytest.param(lambda: PhotonStream(times=[0.1], tags=[1 + 0j],
                                          duration=1.0),
                     "tags must be real numbers", id="stream-complex-tags"),
    ])
    def test_value_types_take_array_likes_and_refuse_wrong_types(self, make,
                                                                  expected):
        if isinstance(expected, str):
            with pytest.raises(ParameterError, match=expected):
                make()
        else:
            value = make()
            for name in expected:
                assert isinstance(getattr(value, name), np.ndarray), name

    def test_numpy_integer_seed_is_stored_as_int(self):
        # A numpy seed would overflow in the seed derivation's 64-bit sum.
        config = TrajectoryConfig(duration=1e3, n_trajectories=np.int64(2),
                                  master_seed=np.uint64(2 ** 63))
        assert type(config.n_trajectories) is int and config.n_trajectories == 2
        assert type(config.master_seed) is int and config.master_seed == 2 ** 63
        stochastic._trajectory_rng(config.master_seed + _GOLDEN64)


class TestPlanRun:
    def test_defaults(self, monkeypatch):
        params, rates = make_setup()  # pump_r + gamma_u = 0.01
        run = TrajectoryConfig(duration=6e7)
        assert stochastic.plan_run(params, rates, run, None, None) == (
            100.0, 300.0, Branch.MINUS)
        assert stochastic.plan_run(
            params, rates, replace(run, branch_filter=Branch.PLUS), 5.0,
            600.0) == (5.0, 600.0, Branch.PLUS)
        # 6e7 / 2^16 = 915.5 windows is wider than 1/(pump_r + gamma_u).
        monkeypatch.setattr(stochastic, "MAX_WINDOWS", 1 << 16)
        assert stochastic.plan_run(params, rates, run, None, 600.0)[0] == (
            6e7 / (1 << 16))

    def test_defaults_without_slow_rates(self):
        # No pump and no feeding: no Fano window, and a lag of 1% of the run.
        params, rates = make_setup(pump=0.0, feed=0.0)
        assert stochastic.plan_run(params, rates, TrajectoryConfig(
            duration=1e4), None, None) == (None, 100.0, Branch.MINUS)

    # At pump_r + gamma_u = 2e-310, 1/slow and 3/slow overflow; at inf,
    # 3/slow is 0.  A default that is not positive and finite is refused by
    # the sum it is derived from, not as a window or lag never given; the
    # window at inf is duration / MAX_WINDOWS.
    @pytest.mark.parametrize("rate, window, tau_max, refused", [
        (1e-310, None, 300.0, "fano_window from pump_r + gamma_u = 2e-310 "
                              "must be positive and finite, got inf"),
        (1e-310, 5.0, None, "tau_max from pump_r + gamma_u = 2e-310 "
                            "must be positive and finite, got inf"),
        (1e308, None, None, "tau_max from pump_r + gamma_u = inf "
                            "must be positive and finite, got 0.0"),
    ])
    def test_defaults_not_positive_and_finite_refused(self, rate, window,
                                                      tau_max, refused):
        params, rates = make_setup(pump=rate, feed=rate)
        with pytest.raises(ParameterError,
                           match=f"^{re.escape('default ' + refused)}$"):
            stochastic.plan_run(params, rates, TrajectoryConfig(duration=1e5),
                                window, tau_max)
        if rate > 1.0:
            assert stochastic.plan_run(
                params, rates, TrajectoryConfig(duration=1e5), None,
                300.0)[0] == 1e5 / stochastic.MAX_WINDOWS

    @pytest.mark.parametrize("tau_max", [np.nan, 0.0, -1.0, np.inf])
    def test_lag_must_be_positive_and_finite(self, tau_max):
        params, rates = make_setup()
        with pytest.raises(ParameterError, match="positive and finite"):
            stochastic.plan_run(params, rates, TrajectoryConfig(duration=6e7),
                                None, tau_max)


class TestStoredFloats:
    # Under NEP 50 a float32 field times a Python float rounds in float32, so
    # each value type stores the float of every real it checks.
    VALUES = {"omega0": 30.1, "omega1": -10.3, "v0": 20.7, "gamma_r": 3.3,
              "gamma_nr": 1.1, "gamma_perp": 4.9, "gamma_u": 2.3,
              "pump_r": 1.7, "omega_l_rabi": 0.6}

    @staticmethod
    def run(values, duration):
        params = SystemParams(**values)
        rates = branch_rates(params, dressed_basis(params))
        config = TrajectoryConfig(duration=duration, master_seed=28)
        return params, rates, config, simulate_stream(params, rates, config)[0]

    @pytest.mark.parametrize("kind", [np.float32, np.float64, int])
    def test_reals_are_stored_as_floats(self, kind):
        values = {key: kind(value) for key, value in self.VALUES.items()}
        duration = kind(2000.5)
        got = self.run(values, duration)
        want = self.run({key: float(value) for key, value in values.items()},
                        float(duration))
        assert got[:3] == want[:3]
        assert np.array_equal(got[3].times, want[3].times)
        assert np.array_equal(got[3].tags, want[3].tags)
        params, rates, config, stream = got
        stored = [getattr(params, key) for key in self.VALUES]
        stored += [getattr(rates, field.name) for field in fields(rates)]
        stored += [config.duration, stream.duration, PhotonStream(
            stream.times, stream.tags, duration).duration]
        stored.append(stochastic.plan_run(params, rates, config, kind(5.0),
                                          kind(50.0))[0])
        assert all(type(value) is float for value in stored), stored

    def test_records_keep_python_numbers(self):
        # An emission rate and a run config built directly are checked by
        # their fields' rules and keep a float32 as its float, a numpy
        # integer as an int.
        value = np.float32(0.3)
        rate = stochastic.EmissionRate(value=value, stderr=value,
                                       n_photons=np.int64(9))
        config = replace(parse_config(os.path.join(
            os.path.dirname(__file__), os.pardir, "presets",
            "g2_benchmark.cfg")), unit_scale=value, tau_max=value,
            bins=np.int64(30))
        stored = [rate.value, rate.stderr, config.unit_scale, config.tau_max]
        assert stored == [float(value)] * 4
        assert all(type(number) is float for number in stored)
        assert type(rate.n_photons) is type(config.bins) is int
        with pytest.raises(ParameterError, match="n_photons"):
            replace(rate, n_photons=0)
        with pytest.raises(ParameterError, match="bins"):
            replace(config, bins=1)
        with pytest.raises(ParameterError, match="unit_scale"):
            replace(config, unit_scale=np.nan)


class TestErgodicityAndRenewal:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_mean_cycle_is_the_inverse_photon_rate(self, seed):
        # Each cycle ends in one branch decay, so the stationary decay rate
        # p_mm gpar_minus + p_pp gpar_plus is one over the mean cycle, which
        # sizes the photon and draw caps and the sampler's stream arrays.
        params = random_params(np.random.default_rng(seed))
        rates = branch_rates(params, dressed_basis(params))
        steady = steady_state_analytic(rates, params.pump_r)
        rate = (steady.p_mm * rates.gpar_minus
                + steady.p_pp * rates.gpar_plus)
        assert stochastic._mean_cycle(params, rates) * rate == pytest.approx(
            1.0, rel=1e-12)

    def test_occupations_match_steady_state_within_3se(self):
        params, rates = make_setup()
        steady = steady_state_analytic(rates, params.pump_r)
        blocks = []
        for index in range(16):
            config = TrajectoryConfig(duration=4e5, master_seed=1000 + index)
            fractions = occupation_fractions(params, rates, config)
            blocks.append([fractions[k] for k in ("gg", "uu", "mm", "pp")])
        blocks = np.array(blocks)
        mean = blocks.mean(axis=0)
        se = blocks.std(axis=0, ddof=1) / np.sqrt(blocks.shape[0])
        target = steady.as_array()
        assert np.all(np.abs(mean - target) <= 3.0 * se + 1e-12)

    def test_interval_lag1_autocorrelation_consistent_with_zero(self):
        params, rates = make_setup(pump=0.02, feed=0.02)
        config = TrajectoryConfig(duration=6e6, master_seed=21,
                                  branch_filter=Branch.MINUS)
        stream = simulate_stream(params, rates, config)[0]
        intervals = np.diff(stream.times_for(Branch.MINUS))
        n = intervals.size
        assert n > 5000
        x = intervals - intervals.mean()
        r1 = np.dot(x[:-1], x[1:]) / np.dot(x, x)
        assert abs(r1) < 3.0 / np.sqrt(n)


@functools.cache
def half_integer_stream():
    """1.2e4 photons on half-integer times with a dense burst of 2000.

    Every lag is a multiple of 0.5 and exact in floating point, so lags can
    sit exactly on bin edges.  The burst at spacing 0.5 gives its photons
    hundreds of partners within lags of a few hundred.
    """
    rng = np.random.default_rng(58)
    gaps = np.concatenate((rng.integers(1, 8, 5000), np.ones(2000, dtype=int),
                           rng.integers(1, 8, 5000)))
    times = 0.5 * np.cumsum(gaps)
    return PhotonStream(times=times, tags=np.zeros(times.size, dtype=np.int8),
                        duration=float(times[-1]) + 3.0)


def reference_pair_lags(times, tau_max):
    """Lags of all pairs j > i with lag <= tau_max, by blocked ``np.subtract.outer``."""
    parts = []
    for lo in range(0, times.size, 500):
        rows = times[lo:lo + 500]
        hi = np.searchsorted(times, rows[-1] + tau_max, "right")
        lags = np.subtract.outer(times[lo:hi], rows).T
        later = np.arange(lo, hi)[None, :] > np.arange(lo, lo + rows.size)[:, None]
        parts.append(lags[later & (lags <= tau_max)])
    return np.concatenate(parts)


def offset_counts(times, last):
    """Photons with a partner at each index offset ``k = 1, 2, ...``, and
    the first offset at which at most half of the ``n - k`` have one: where
    ``g2_histogram``'s sweep turns from a mask to an index list."""
    room = (np.searchsorted(times, times + last, "right")
            - np.arange(1, times.size + 1))
    counts = np.bincount(room)[::-1].cumsum()[::-1][1:]
    offsets = np.arange(1, counts.size + 1)
    listed = int(np.argmin(2 * counts > times.size - offsets)) + 1
    return counts, listed


def eighths_stream(seed):
    """1e4 photons with gaps of 1 to 8 eighths: lags are exact multiples of
    1/8, and a last edge of ``m`` eighths pairs every photon at the first
    ``m // 8`` offsets."""
    times = 0.125 * np.cumsum(np.random.default_rng(seed).integers(1, 9, 10000))
    return PhotonStream(times=times, tags=np.zeros(times.size, dtype=np.int8),
                        duration=float(times[-1]) + 1.0)


def histogram_counts(stream, edges):
    """Pair counts behind ``g2_histogram``, undoing its documented normalization."""
    hist = g2_histogram(stream, None, edges)
    rate = stream.n_photons / stream.duration
    exposure = rate ** 2 * np.diff(edges) * (stream.duration - hist.tau)
    return np.rint(hist.values * exposure).astype(np.int64)


class TestHistogram:
    def test_poisson_stream_is_flat_unity(self):
        rng = np.random.default_rng(51)
        stream = poisson_stream(rng, rate=0.05, duration=2e6)
        hist = g2_histogram(stream, Branch.MINUS, np.linspace(0.0, 400.0, 21))
        z = (hist.values - 1.0) / hist.stderr
        assert np.max(np.abs(z)) < 3.5

    def test_first_bin_antibunched(self):
        # The coincidence dip opens quadratically, so the first bin must be
        # narrow against the branch decay time for the near-zero estimate.
        params, rates = make_setup()
        config = TrajectoryConfig(duration=6e8, master_seed=31,
                                  branch_filter=Branch.MINUS)
        stream = simulate_stream(params, rates, config)[0]
        hist = g2_histogram(stream, Branch.MINUS,
                            np.linspace(0.0, 600.0, 601))
        assert hist.values[0] <= 3.0 * hist.stderr[0]

    def test_large_lag_bins_reach_unity(self):
        params, rates = make_setup()
        config = TrajectoryConfig(duration=6e8, master_seed=31,
                                  branch_filter=Branch.MINUS)
        stream = simulate_stream(params, rates, config)[0]
        edges = np.linspace(1500.0, 2500.0, 6)
        hist = g2_histogram(stream, Branch.MINUS, edges)
        z = (hist.values - 1.0) / hist.stderr
        assert np.max(np.abs(z)) < 3.5

    def test_empty_bin_error_is_one_pair(self):
        # Photons one apart: no pair lies in [0, 0.5), and its standard
        # error is that of one pair, sqrt(1) / exposure, exactly.
        times = np.arange(10000) + 0.5
        stream = PhotonStream(times=times,
                              tags=np.zeros(times.size, dtype=np.int8),
                              duration=1e4)
        edges = np.array([0.0, 0.5, 1.5])
        hist = g2_histogram(stream, Branch.MINUS, edges)
        rate = times.size / stream.duration
        exposure = rate ** 2 * np.diff(edges) * (stream.duration - hist.tau)
        assert hist.values[0] == 0.0
        assert hist.stderr[0] == 1.0 / exposure[0]
        assert hist.values[1] == (times.size - 1) / exposure[1]

    def test_requires_enough_photons(self):
        rng = np.random.default_rng(52)
        stream = poisson_stream(rng, rate=0.05, duration=2e4)
        with pytest.raises(InsufficientDataError):
            g2_histogram(stream, Branch.MINUS, np.linspace(0.0, 10.0, 5))

    def test_rejects_bad_bins(self):
        rng = np.random.default_rng(53)
        stream = poisson_stream(rng, rate=0.05, duration=1e6)
        with pytest.raises(ParameterError):
            g2_histogram(stream, Branch.MINUS, np.array([-1.0, 1.0]))

    # Lags land exactly on inner edges (0.5, 3.0, ...) and on the last edge;
    # the burst needs hundreds of index offsets.
    @pytest.mark.parametrize("edges", [
        [0.0, 0.5, 3.0, 3.5, 10.0, 40.5, 41.0, 120.0, 250.0],
        [2.5, 7.0, 7.5, 100.0],
        [0.0, 300.0],
    ], ids=["uneven", "late-start", "one-bin"])
    def test_counts_match_every_pair(self, edges):
        stream = half_integer_stream()
        edges = np.array(edges)
        reference, _ = np.histogram(reference_pair_lags(stream.times, edges[-1]),
                                    edges)
        assert np.array_equal(histogram_counts(stream, edges), reference)

    @settings(max_examples=40, deadline=None)
    @given(edges=st.lists(st.integers(0, 160), min_size=2, max_size=12,
                          unique=True))
    def test_counts_match_every_pair_property(self, edges):
        stream = half_integer_stream()
        edges = 0.5 * np.sort(edges)
        lags = reference_pair_lags(stream.times, edges[-1])
        assert np.array_equal(histogram_counts(stream, edges),
                              np.histogram(lags, edges)[0])

    # Photons on a grid of 1/8 with mean gap 1 and a last edge of 3 to 10:
    # over half of them have a partner at offset 1 and few at the largest,
    # so the sweep runs both its slice and its index phase.  Lags can sit
    # exactly on edges.  One default block holds all 1e4 photons; in blocks
    # of 1000 or 64 first photons pairs cross the block edges, and the last
    # block's photons run out of partners at its own offsets.
    @settings(max_examples=90, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), last=st.integers(24, 80),
           inner=st.sets(st.integers(0, 79), min_size=1, max_size=10),
           block=st.sampled_from([stochastic._PAIR_BLOCK, 1000, 64]))
    def test_counts_match_every_pair_across_phases(self, seed, last, inner,
                                                   block):
        times = 0.125 * np.cumsum(
            np.random.default_rng(seed).geometric(0.125, 10000))
        stream = PhotonStream(times=times,
                              tags=np.zeros(times.size, dtype=np.int8),
                              duration=float(times[-1]) + 1.0)
        edges = 0.125 * np.array(sorted({v % last for v in inner} | {last}))
        counts, listed = offset_counts(times, edges[-1])
        assert 1 < listed <= counts.size
        lags = reference_pair_lags(times, edges[-1])
        with mock.patch.object(stochastic, "_PAIR_BLOCK", block):
            assert np.array_equal(histogram_counts(stream, edges),
                                  np.histogram(lags, edges)[0])

    # Gaps of 1 to 8 eighths and a last edge of 3 to 10: every photon has
    # a partner at the first offsets (their lags are binned unmasked), over
    # half but not all at the next (masked), and few at the largest (the
    # index list).  Lags can sit exactly on edges.  Blocks as above.
    @settings(max_examples=90, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), last=st.integers(24, 80),
           inner=st.sets(st.integers(0, 79), min_size=1, max_size=10),
           block=st.sampled_from([stochastic._PAIR_BLOCK, 1000, 64]))
    def test_counts_match_every_pair_from_full_offsets(self, seed, last,
                                                       inner, block):
        stream = eighths_stream(seed)
        edges = 0.125 * np.array(sorted({v % last for v in inner} | {last}))
        counts, listed = offset_counts(stream.times, edges[-1])
        n = stream.n_photons
        assert counts[0] == n - 1
        assert any(counts[k - 1] < n - k for k in range(2, listed))
        assert listed <= counts.size
        lags = reference_pair_lags(stream.times, edges[-1])
        with mock.patch.object(stochastic, "_PAIR_BLOCK", block):
            assert np.array_equal(histogram_counts(stream, edges),
                                  np.histogram(lags, edges)[0])

    # A sampled stream of more photons than one default block, with ~7
    # partners a photon: the pair (B - 1, B + 1) crosses the first edge B.
    def test_counts_match_every_pair_over_blocks(self):
        params, rates = make_setup()
        config = TrajectoryConfig(duration=4.5e7, master_seed=62)
        stream = simulate_stream(params, rates, config)[0]
        block = stochastic._PAIR_BLOCK
        edges = np.linspace(0.0, 3000.0, 31)
        assert stream.n_photons > block
        assert stream.times[block + 1] - stream.times[block - 1] <= edges[-1]
        lags = reference_pair_lags(stream.times, edges[-1])
        assert np.array_equal(histogram_counts(stream, edges),
                              np.histogram(lags, edges)[0])

    # Past 2**30 times are multiples of 2**-22, so t + 0.1*k rounds: up for
    # k = 2, 7, 9, where the photon placed at fl(t + e_last) is a partner by
    # the search but its lag lies past the last edge, and down for k = 3.
    @pytest.mark.parametrize("k", [2, 3, 7, 9])
    def test_counts_match_every_pair_where_last_edge_rounds(self, k):
        rng = np.random.default_rng(59 + k)
        last = 0.1 * k
        base = 2.0 ** 30 + np.cumsum(rng.uniform(0.0, 0.4 * last, 10000))
        placed = base[::10] + last
        assert np.all((placed - base[::10] > last) == (k != 3))
        assert np.all(placed - base[::10] != last)
        times = np.union1d(base, placed)
        stream = PhotonStream(times=times,
                              tags=np.zeros(times.size, dtype=np.int8),
                              duration=float(times[-1]) + 1.0)
        edges = np.linspace(0.0, last, 5)
        lags = reference_pair_lags(times, last)
        assert np.array_equal(histogram_counts(stream, edges),
                              np.histogram(lags, edges)[0])

    def test_memory_stays_bounded_in_pairs(self):
        # 1e4 photons with 500 partners each within the last edge: 5e6
        # pairs, 40 MB as one lag array.
        times = np.arange(1.0, 10001.0)
        stream = PhotonStream(times=times, tags=np.zeros(times.size, dtype=np.int8),
                              duration=10001.0)
        edges = np.linspace(0.0, 500.0, 51)
        tracemalloc.start()
        try:
            g2_histogram(stream, None, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_memory_stays_bounded_in_photons(self):
        # 2^20 photons (an 8 MB array) with ~3 partners each: the sweep holds
        # a few arrays of one pair block, not of the stream.
        times = np.cumsum(np.random.default_rng(63).exponential(1.0, 1 << 20))
        stream = PhotonStream(times=times, tags=np.zeros(times.size, dtype=np.int8),
                              duration=float(times[-1]) + 1.0)
        edges = np.linspace(0.0, 3.0, 31)
        tracemalloc.start()
        try:
            g2_histogram(stream, None, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * stochastic._PAIR_BLOCK
        assert peak < 6 * block <= 0.5 * times.nbytes

    def test_pair_count_capped(self, monkeypatch):
        stream = half_integer_stream()
        edges = np.array([0.0, 300.0])
        pairs = int(histogram_counts(stream, edges).sum())  # every lag <= 300
        monkeypatch.setattr(stochastic, "MAX_PAIRS", pairs)
        g2_histogram(stream, None, edges)
        monkeypatch.setattr(stochastic, "MAX_PAIRS", pairs - 1)
        with pytest.raises(ParameterError, match=(
                rf"{pairs} photon pairs, over the cap of {pairs - 1}")):
            g2_histogram(stream, None, edges)

    # The count is checked at each offset before its pairs are binned: the
    # refusal names the offset that passes the cap, the block's first photon
    # and the pairs counted to it, in the sweep's mask phase (the last offset
    # before the index list) and in its index-list phase (the second offset
    # of the list).  The stream fits in one block, which starts at photon 0.
    @pytest.mark.parametrize("step", [pytest.param(-1, id="mask"),
                                      pytest.param(1, id="list")])
    def test_pair_count_refused_at_the_offset_past_the_cap(self, monkeypatch,
                                                           step):
        stream = eighths_stream(61)
        edges = np.array([0.0, 5.0])
        counts, listed = offset_counts(stream.times, edges[-1])
        k = listed + step
        assert counts[k - 1] > 0
        pairs = int(counts[:k].sum())
        monkeypatch.setattr(stochastic, "MAX_PAIRS", pairs - 1)
        with pytest.raises(ParameterError, match=(
                rf"^largest lag 5.0 gives {pairs} photon pairs, over the cap "
                rf"of {pairs - 1} \(counted to index offset {k} from photon "
                rf"0\)$")):
            g2_histogram(stream, None, edges)

    # In blocks of 1000 first photons, a cap passed at offset k of the block
    # from photon 3000: every pair of the photons before it is counted, and
    # those of the block's photons at offsets up to k.  All 1000 of them have
    # a partner at offset 3, 934 at 7 (a mask) and 260 at 10 (a list).
    @pytest.mark.parametrize("k", [3, 7, 10])
    def test_pair_count_refused_in_a_later_block(self, monkeypatch, k):
        stream = eighths_stream(61)
        times, lo = stream.times, 3000
        room = (np.searchsorted(times, times + 5.0, "right")
                - np.arange(1, times.size + 1))  # partners of each photon
        block = room[lo:lo + 1000]
        pairs = int(room[:lo].sum() + np.minimum(block, k).sum())
        assert pairs > room[:lo].sum() + np.minimum(block, k - 1).sum()
        monkeypatch.setattr(stochastic, "_PAIR_BLOCK", 1000)
        monkeypatch.setattr(stochastic, "MAX_PAIRS", pairs - 1)
        with pytest.raises(ParameterError, match=(
                rf"^largest lag 5.0 gives {pairs} photon pairs, over the cap "
                rf"of {pairs - 1} \(counted to index offset {k} from photon "
                rf"{lo}\)$")):
            g2_histogram(stream, None, np.array([0.0, 5.0]))


def pairwise_tree(leaf, n, block):
    """Add ``leaf(lo, hi)`` over the nodes of numpy's pairwise sum of ``n``
    values: a node of ``m`` over ``block`` values splits at ``m // 2``
    rounded down to a multiple of 8, and its halves' sums are added."""
    def node(lo, hi):
        m = hi - lo
        if m <= block:
            return leaf(lo, hi)
        h = lo + m // 2 - (m // 2) % 8
        return node(lo, h) + node(h, hi)
    return node(0, n)


class TestFano:
    @staticmethod
    def histogram_fano(stream, window):
        n_windows = int(stream.duration / window)
        counts, _ = np.histogram(stream.times,
                                 np.arange(n_windows + 1) * window)
        return float(counts.var(ddof=1) / counts.mean())

    def test_counts_follow_numpy_histogram_at_edges(self):
        # 100 windows of 2.0 end at 200.0 inside a 201.5 duration: photons on
        # inner edges open a window, one on the last edge closes the last
        # window, and those past it are not counted.
        rng = np.random.default_rng(57)
        times = np.unique(np.concatenate((
            2.0 * rng.integers(0, 100, 60), [200.0, 200.5, 201.5],
            rng.uniform(0.0, 201.5, 300))))
        stream = PhotonStream(times=times,
                              tags=np.zeros(times.size, dtype=np.int8),
                              duration=201.5)
        assert fano_factor(stream, 2.0) == self.histogram_fano(stream, 2.0)

    @staticmethod
    def nudge(x, ulps):
        """``x`` moved by ``ulps`` representable steps."""
        for _ in range(abs(ulps)):
            x = np.nextafter(x, np.copysign(np.inf, ulps))
        return x

    # Photons sit on the edges k * window or a few ulps either side, where a
    # window that is not representable (0.1, 1/3) makes the quotient and the
    # edge round apart.  The duration ends up to 3 windows past an edge, so
    # with ``extra = 0`` the last edge falls an ulp inside or outside it.
    # The explicit examples need both corrections, one just below 2**24.
    @settings(max_examples=60, deadline=None)
    @given(window=st.one_of(st.sampled_from([0.1, 1.0 / 3.0]),
                            st.floats(min_value=0.01, max_value=50.0)),
           first=st.just(0),
           windows=st.integers(101, 151),
           extra=st.floats(min_value=0.0, max_value=3.0),
           end_ulps=st.integers(-1, 1),
           on_edges=st.lists(
               st.tuples(st.integers(0, 154), st.integers(-2, 2)),
               min_size=1, max_size=40),
           anywhere=st.lists(st.floats(min_value=0.0, max_value=1.0),
                             max_size=40))
    @example(window=0.1, first=(1 << 24) - 64, windows=101, extra=0.0,
             end_ulps=-1, anywhere=[0.5],
             on_edges=[(k, u) for k in range(155) for u in (-1, 0, 1)])
    @example(window=1.0 / 3.0, first=0, windows=101, extra=0.0,
             end_ulps=1, anywhere=[0.5],
             on_edges=[(k, u) for k in range(155) for u in (-1, 0, 1)])
    def test_counts_match_numpy_histogram_property(
            self, window, first, windows, extra, end_ulps, on_edges, anywhere):
        duration = float(self.nudge((first + windows + extra) * window,
                                    end_ulps))
        start = first * window
        times = np.unique(np.concatenate((
            [start],
            [self.nudge((first + k) * window, ulps) for k, ulps in on_edges],
            start + np.array(anywhere) * (duration - start))))
        times = times[(times >= 0.0) & (times <= duration)]
        stream = PhotonStream(times=times,
                              tags=np.zeros(times.size, dtype=np.int8),
                              duration=duration)
        assert fano_factor(stream, window) == self.histogram_fano(stream, window)

    # A window of any real type counts as its float.  The 1000th window of
    # np.float32(0.1) ends at 100.0 in float32 and at 100.0000014901 in
    # float64; the last photon lies between the two edges.
    @pytest.mark.parametrize("window, n_windows", [
        (np.float32(0.1), 1000), (np.float64(0.1), 1000), (2, 100)])
    def test_window_counts_as_its_float(self, window, n_windows):
        w = float(window)
        rng = np.random.default_rng(28)
        times = np.sort(np.concatenate((
            rng.uniform(0.0, (n_windows - 1) * w, 340),
            rng.uniform((n_windows - 1) * w, (n_windows - 0.001) * w, 16),
            [n_windows * w - 5e-7])))
        stream = PhotonStream(times=times, tags=np.zeros(times.size, dtype=np.int8),
                              duration=n_windows * w + 1e-5)
        assert fano_factor(stream, window) == fano_factor(stream, w)
        assert fano_factor(stream, w) == self.histogram_fano(stream, w)

    def test_poisson_baseline_is_unity(self):
        rng = np.random.default_rng(54)
        stream = poisson_stream(rng, rate=0.05, duration=4e5)
        window = 100.0
        blocks = []
        for k in range(20):
            piece = stream.times[(stream.times >= k * 2e4)
                                 & (stream.times < (k + 1) * 2e4)] - k * 2e4
            sub = PhotonStream(times=piece,
                               tags=np.zeros(piece.size, dtype=np.int8),
                               duration=2e4)
            blocks.append(fano_factor(sub, window))
        blocks = np.array(blocks)
        se = blocks.std(ddof=1) / np.sqrt(blocks.size)
        assert abs(blocks.mean() - 1.0) <= 3.0 * se

    def test_tiny_window_dilutes_to_unity(self):
        rng = np.random.default_rng(55)
        stream = poisson_stream(rng, rate=0.5, duration=4e3)
        fano = fano_factor(stream, window=0.002)
        assert fano == pytest.approx(1.0, abs=5e-3)

    def test_simulated_stream_is_sub_poissonian(self):
        params, rates = make_setup()
        slow = params.pump_r + params.gamma_u
        config = TrajectoryConfig(duration=4e6, master_seed=61)
        stream = simulate_stream(params, rates, config)[0]
        fano = fano_factor(stream, window=1.0 / slow)
        assert fano < 1.0

    def test_window_count_capped(self, monkeypatch):
        rng = np.random.default_rng(58)
        stream = poisson_stream(rng, rate=0.5, duration=1e3)
        with pytest.raises(ParameterError, match="over the cap"):
            fano_factor(stream, window=1e-300)  # refused before allocating
        monkeypatch.setattr(stochastic, "MAX_WINDOWS", 1000)
        assert fano_factor(stream, window=1.0) == self.histogram_fano(stream, 1.0)
        with pytest.raises(ParameterError, match="over the cap"):
            fano_factor(stream, window=0.999)

    # Window counts across the edges of the variance's blocks, and far past
    # numpy's 128-element pairwise-sum leaves.
    @pytest.mark.parametrize("n_windows", [3 * 2 ** 16 + 7, 2 ** 20 + 3])
    def test_counts_match_numpy_histogram_in_blocks(self, n_windows):
        rng = np.random.default_rng(n_windows)
        stream = poisson_stream(rng, rate=1.7, duration=0.5 * n_windows)
        assert fano_factor(stream, 0.5) == self.histogram_fano(stream, 0.5)

    # Nodes of 128 windows (numpy's own leaf size) put a few hundred to a few
    # thousand windows into many nodes.  Photons sit on window edges, on the
    # edges of those nodes and on the last edge, or a few ulps either side.
    @settings(max_examples=60, deadline=None)
    @given(window=st.one_of(st.sampled_from([0.1, 1.0 / 3.0]),
                            st.floats(min_value=0.01, max_value=50.0)),
           windows=st.integers(300, 3000),
           extra=st.floats(min_value=0.0, max_value=3.0),
           end_ulps=st.integers(-2, 2),
           on_edges=st.lists(st.tuples(st.integers(0, 3003),
                                       st.integers(-2, 2)), max_size=40),
           on_nodes=st.lists(st.tuples(st.integers(0, 1 << 10),
                                       st.integers(-2, 2)), max_size=40),
           last_ulps=st.lists(st.integers(-2, 2), max_size=3),
           anywhere=st.lists(st.floats(min_value=0.0, max_value=1.0),
                             min_size=1, max_size=200))
    @example(window=0.1, windows=1000, extra=0.0, end_ulps=0, on_edges=[],
             on_nodes=[(k, u) for k in range(16) for u in range(-2, 3)],
             last_ulps=[-1, 0], anywhere=[0.5])
    def test_counts_match_numpy_histogram_across_nodes(
            self, window, windows, extra, end_ulps, on_edges, on_nodes,
            last_ulps, anywhere):
        duration = float(self.nudge((windows + extra) * window, end_ulps))
        n_windows = int(duration / window)
        nodes = []
        pairwise_tree(lambda lo, hi: nodes.append(lo) or 0.0, n_windows, 128)
        times = np.unique(np.concatenate((
            [self.nudge(k * window, ulps) for k, ulps in on_edges],
            [self.nudge(nodes[k % len(nodes)] * window, ulps)
             for k, ulps in on_nodes],
            [self.nudge(n_windows * window, ulps) for ulps in last_ulps],
            np.array(anywhere) * duration)))
        times = times[(times >= 0.0) & (times <= duration)]
        stream = PhotonStream(times=times,
                              tags=np.zeros(times.size, dtype=np.int8),
                              duration=duration)
        with mock.patch.object(stochastic, "_FANO_BLOCK", 128):
            fano = fano_factor(stream, window)
        assert fano == self.histogram_fano(stream, window)

    # fano_factor adds its nodes' sums as numpy's float64 sum adds them; a
    # numpy whose sum takes another order fails here by name.
    @pytest.mark.parametrize("size", [24577, 1000003, 6045000, (1 << 20) + 5])
    def test_numpy_sums_along_the_pairwise_tree(self, size):
        values = np.random.default_rng(size).random(size) * 1e3
        tree = pairwise_tree(lambda lo, hi: float(values[lo:hi].sum()), size,
                             stochastic._FANO_BLOCK)
        assert float(np.add.reduce(values)) == tree, (
            "numpy's float64 sum no longer adds along the pairwise tree that "
            "fano_factor walks")

    @staticmethod
    def fano_peak(stream, window):
        tracemalloc.start()
        try:
            fano_factor(stream, window)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_bounded_in_windows(self):
        # 2**20 windows and about 1000 photons: one node of window counts
        # and their squared deviations, 16 bytes a window, plus the photons.
        rng = np.random.default_rng(59)
        stream = poisson_stream(rng, rate=1e-3, duration=float(1 << 20))
        peak = self.fano_peak(stream, 1.0)
        assert peak < 3 * 8 * stochastic._FANO_BLOCK + 64 * stream.n_photons

    def test_memory_bounded_at_window_cap(self):
        # MAX_WINDOWS windows and about 1000 photons (8 bytes a window would
        # be 268 MB).
        rng = np.random.default_rng(60)
        duration = float(stochastic.MAX_WINDOWS)
        stream = poisson_stream(rng, rate=1000.0 / duration, duration=duration)
        assert self.fano_peak(stream, 1.0) < 2 * 10 ** 6

    def test_requires_100_windows(self):
        rng = np.random.default_rng(56)
        stream = poisson_stream(rng, rate=0.5, duration=1e3)
        with pytest.raises(InsufficientDataError):
            fano_factor(stream, window=100.0)

    def test_keeps_no_photons_after_return(self):
        # Its node sum recurses through a closure, a reference cycle: left
        # standing, it would hold the photons until the garbage collector
        # ran, past the stream's last user (the trajectory command drops
        # each stream before it samples the next).
        stream = poisson_stream(np.random.default_rng(61), 1.0, 1e4)
        times = weakref.ref(stream.times)
        gc.disable()
        try:
            fano_factor(stream, 10.0)
            del stream
            assert times() is None
        finally:
            gc.enable()


class TestEmissionRate:
    def test_matches_product_of_population_and_radiative_rate(self):
        # >= 1e6 completed cycles at unit yield
        params, rates = make_setup(pump=0.02, feed=0.02)
        steady = steady_state_analytic(rates, params.pump_r)
        mean_cycle = 1.0 / 0.02 + 1.0 / 0.02 + 2.0  # bounded below by pump legs
        config = TrajectoryConfig(duration=1.05e6 * mean_cycle, master_seed=71)
        stream = simulate_stream(params, rates, config)[0]
        assert stream.n_photons >= 1e6
        for branch in Branch:
            est = emission_rate(stream, branch)
            target = steady.branch(branch) * rates.branch(branch).grad
            assert est.value == pytest.approx(target, rel=0.02)
            assert abs(est.value - target) < 4.0 * est.stderr

    def test_empty_stream_rejected(self):
        stream = PhotonStream(times=np.empty(0),
                              tags=np.empty(0, dtype=np.int8), duration=10.0)
        with pytest.raises(InsufficientDataError):
            emission_rate(stream, None)


def read_line_by_line(path):
    """Reference reader: the format's rule applied one line at a time.

    Returns ``(duration, times, tags)`` as lists, or raises
    :class:`ParameterError` whose message is the ``path:line:`` (or
    ``path:``) prefix the library's message must start with.
    """
    duration, header_line = None, None
    times, tags, lines = [], [], []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    if "duration=" in line:
                        duration = float(line.split("duration=", 1)[1])
                        header_line = lineno
                    continue
                stamp, _, tag = line.partition("\t")
                times.append(float(stamp))
                tags.append({"-": 0, "+": 1}[tag.strip()])
                lines.append(lineno)
            except (KeyError, ValueError):
                raise ParameterError(f"{path}:{lineno}: malformed") from None
    if duration is None:
        raise ParameterError(f"{path}: missing '# duration=' header")
    if not 0.0 < duration < np.inf:
        raise ParameterError(f"{path}:{header_line}: ")
    previous = -np.inf
    for t, lineno in zip(times, lines):
        if not (0.0 <= t <= duration and t > previous):
            raise ParameterError(f"{path}:{lineno}: ")
        previous = t
    return duration, times, tags


# Timestamps in each form repr gives: subnormal, exponent below 1e-4,
# positional, exponent from 1e16, and near the largest durations.
REPR_FORMS = [0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 1e-5,
              9.999999999999999e-05, 1e-4, 0.5, 9999999999999998.0, 1e16,
              1.2345e17, 1e300]
# A canonical row, as a function of the timestamp it should carry.
CANONICAL_ROW = st.sampled_from([
    lambda t: f"{t!r}\t-\n".encode(),
    lambda t: f"{t!r}\t+\n".encode(),
])
# Whitespace that str.strip() and float() both drop, ASCII and not.
_SPACE = st.sampled_from([" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x85",
                          "\u2003", "\u3000"])
# Lines the writer never emits: other line ends, blank lines, comments,
# stray whitespace, bad tags and numbers, undecodable bytes, rows whose
# timestamp is out of order, out of range or NaN.
ODD_LINE = st.one_of(
    st.sampled_from([
        lambda t: f"{t!r}\t-\r\n".encode(),
        lambda t: f"{t!r}\t+\r".encode(),
        lambda t: f"{t!r}\t\t-\n".encode(),
        lambda t: f"\t{t!r}\t+\n".encode(),
        lambda t: f"{t!r}\t- \n".encode(),
        lambda t: f"{t!r}\tx\n".encode(),
        lambda t: f"{t!r}\n".encode(),
        lambda t: f"{t!r}\t\n".encode(),
        lambda t: f"{t!r}e\t-\n".encode(),
        lambda t: f"{t!r}\xff\t-\n".encode("utf-8", "surrogateescape"),
        lambda t: f"1_{t!r}\t-\n".encode(),
    ]),
    st.builds(lambda a, b: lambda t: f"{a}{t!r}{b}\t-\n".encode(),
              _SPACE, _SPACE),
    st.sampled_from([b"\n", b"  \n", b"\t\n", b"\r\n", b"\r", b"#\n",
                     b"# a comment\t-\n", b"# \xff\n", b"#duration=5e2\n",
                     b"0.5\t+\n", b"2e3\t-\n", b"nan\t-\n", b"-1.0\t+\n",
                     b"\xe2\x80\x83\n", b"\t-\n", b"+\n"]),
)


@functools.lru_cache(maxsize=None)
def written_stream_lines():
    """One simulated stream of ~2e4 photons and the lines it is written as."""
    params, rates = make_setup()
    stream = simulate_stream(params, rates, TrajectoryConfig(
        duration=8e6, master_seed=87))[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "photons.tsv")
        write_photon_stream(stream, path)
        with open(path, "rb") as fh:
            return stream, tuple(fh.read().splitlines(keepends=True))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        params, rates = make_setup()
        stream = simulate_stream(params, rates,
                                 TrajectoryConfig(duration=4e5,
                                                  master_seed=81))[0]
        path = tmp_path / "photons.tsv"
        write_photon_stream(stream, path)
        loaded = read_photon_stream(path)
        assert loaded.duration == stream.duration
        assert np.array_equal(loaded.times, stream.times)
        assert np.array_equal(loaded.tags, stream.tags)

    def test_estimators_accept_external_files(self, tmp_path):
        rng = np.random.default_rng(82)
        stream = poisson_stream(rng, rate=0.1, duration=2e5)
        path = tmp_path / "external.tsv"
        write_photon_stream(stream, path)
        loaded = read_photon_stream(path)
        est = emission_rate(loaded, Branch.MINUS)
        assert est.value == pytest.approx(0.1, rel=0.05)
        fano = fano_factor(loaded, window=200.0)
        assert fano == pytest.approx(1.0, abs=0.15)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "broken.tsv"
        path.write_text("1.5\t-\n2.5\t+\n", encoding="utf-8")
        with pytest.raises(ParameterError, match="duration"):
            read_photon_stream(path)

    @pytest.mark.parametrize("text, line", [
        ("# duration=10.0\n1.5\tx\n", 2),
        ("# duration=10.0\n1.5\t-\n2.5\n", 3),
        ("# duration=10.0\n1.5e\t-\n", 2),
        ("# duration=ten\n1.5\t-\n", 1),
        ("# duration=10.0\n2.0\t-\n1.0\t+\n", 3),
        ("# duration=10.0\n1.0\t-\n\n1.0\t+\n", 4),
        ("# duration=10.0\n-1.0\t-\n", 2),
        ("# duration=10.0\n1.0\t-\n# note\n12.0\t+\n", 4),
        ("1.0\t-\n2.0\t+\n# duration=1.5\n", 2),
        ("# duration=0.0\n", 1),
    ], ids=["bad-tag", "no-tab", "bad-number", "bad-duration",
            "out-of-order", "repeated", "negative", "past-duration",
            "header-last", "zero-duration"])
    def test_malformed_line_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "broken.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParameterError, match=rf"broken\.tsv:{line}: "):
            read_photon_stream(path)

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "broken.tsv"
        path.write_bytes(b"# duration=10.0\n1.5\t-\n2.5\xff\t+\n")
        with pytest.raises(ParameterError, match=r"broken\.tsv:3: "):
            read_photon_stream(path)

    @pytest.mark.parametrize("text, line", [
        ("# duration=nan\n1.5\t-\n", 1),
        ("# duration=10.0\nnan\t-\n", 2),
        ("# duration=inf\n1.5\t-\n", 1),
        ("# duration=10.0\n1.0\t+\n2.0\t-\ninf\t-\n", 4),
    ], ids=["nan-duration", "nan-timestamp", "inf-duration", "inf-timestamp"])
    def test_non_finite_values_rejected(self, tmp_path, text, line):
        path = tmp_path / "nan.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParameterError, match=rf"nan\.tsv:{line}: "):
            read_photon_stream(path)

    @settings(max_examples=60, deadline=None)
    @given(times=st.lists(st.one_of(
               st.floats(min_value=0.0, max_value=1e12),
               st.floats(min_value=0.0, max_value=1e300),
               st.floats(min_value=0.0, max_value=1e-4),
               st.sampled_from(REPR_FORMS)), max_size=30),
           tags=st.lists(st.sampled_from([0, 1]), min_size=30, max_size=30),
           duration=st.floats(min_value=1e-9, max_value=1e300),
           write_rows=st.integers(1, 8),
           read_chars=st.integers(1, 64))
    @example(times=REPR_FORMS, tags=[0, 1] * 15, duration=1.0,
             write_rows=3, read_chars=1)
    def test_write_read_round_trip_property(self, times, tags, duration,
                                            write_rows, read_chars):
        # Writing runs over several chunks of write_rows rows, and reading
        # over chunk boundaries every read_chars characters.
        times = np.unique(times)
        tags = np.array(tags[:times.size], dtype=np.int8)
        duration = float(np.max(times, initial=duration))
        stream = PhotonStream(times=times, tags=tags, duration=duration)
        expected = f"# duration={duration!r}\n" + "".join(
            f"{t!r}\t{'-+'[g]}\n" for t, g in zip(times.tolist(), tags))
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(stochastic, "_WRITE_ROWS", write_rows), \
                mock.patch.object(stochastic, "_READ_CHARS", read_chars):
            path = os.path.join(tmp, "photons.tsv")
            write_photon_stream(stream, path)
            with open(path, "rb") as fh:
                written = fh.read()
            loaded = read_photon_stream(path)
        assert written == expected.encode()
        assert loaded.duration == duration
        assert loaded.times.tobytes() == times.tobytes()
        assert np.array_equal(loaded.tags, tags)

    def test_stream_longer_than_write_chunk(self, tmp_path):
        rng = np.random.default_rng(84)
        n = 2 * stochastic._WRITE_ROWS + 3
        times = np.cumsum(rng.exponential(1.0, n))
        tags = rng.integers(0, 2, n).astype(np.int8)
        # A numpy duration is written as a plain float too.
        stream = PhotonStream(times=times, tags=tags, duration=times[-1] + 1)
        path = tmp_path / "photons.tsv"
        write_photon_stream(stream, path)
        expected = f"# duration={float(stream.duration)!r}\n" + "".join(
            f"{t!r}\t{'-+'[g]}\n" for t, g in zip(times.tolist(), tags))
        assert path.read_bytes() == expected.encode()
        loaded = read_photon_stream(path)
        assert loaded.times.tobytes() == times.tobytes()
        assert np.array_equal(loaded.tags, tags)

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(st.one_of(CANONICAL_ROW, CANONICAL_ROW, ODD_LINE),
                          min_size=1, max_size=40),
           header_at=st.integers(0, 40),
           last_newline=st.booleans(),
           read_chars=st.integers(1, 200))
    def test_reader_matches_line_by_line(self, lines, header_at, last_newline,
                                         read_chars):
        # Rows count up from 1.0 wherever they sit, so canonical rows form
        # valid runs that chunk boundaries cut; odd lines may break them.
        times = iter(float(k) for k in range(1, len(lines) + 1))
        body = [line if isinstance(line, bytes) else line(next(times))
                for line in lines]
        body.insert(min(header_at, len(body)), b"# duration=1e3\n")
        text = b"".join(body)
        if not last_newline:
            text = text.rstrip(b"\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "photons.tsv")
            with open(path, "wb") as fh:
                fh.write(text)
            try:
                expected = read_line_by_line(path)
            except ParameterError as exc:
                expected = exc
            with mock.patch.object(stochastic, "_READ_CHARS", read_chars):
                try:
                    loaded = read_photon_stream(path)
                except ParameterError as exc:
                    assert isinstance(expected, ParameterError), str(exc)
                    assert str(exc).startswith(str(expected))
                    return
        assert not isinstance(expected, ParameterError), str(expected)
        duration, times, tags = expected
        assert loaded.duration == duration
        assert loaded.times.tobytes() == np.array(times, float).tobytes()
        assert loaded.tags.tolist() == tags

    @settings(max_examples=60, deadline=None)
    @given(how=st.sampled_from(["swap", "truncate", "0xff", "note", "blank",
                                "no-header", "nan", "-1.0", "past"]),
           data=st.data())
    def test_mutated_written_stream_matches_line_by_line(self, how, data):
        # One written stream of ~2e4 rows, read in ~400 chunks, with one
        # mutation anywhere: a refused row is named across chunk boundaries.
        stream, lines = written_stream_lines()
        lines = list(lines)
        row = data.draw(st.integers(1, len(lines) - 2), label="row")
        if how == "swap":
            lines[row], lines[row + 1] = lines[row + 1], lines[row]
        elif how in ("note", "blank"):
            lines.insert(row, b"# note\n" if how == "note" else b"\n")
        elif how == "no-header":
            del lines[0]
        elif how in ("nan", "-1.0", "past"):
            stamp = repr(2.0 * stream.duration) if how == "past" else how
            lines[row] = stamp.encode() + lines[row][lines[row].index(b"\t"):]
        text = b"".join(lines)
        cut = data.draw(st.integers(0, len(text) - 1), label="byte")
        if how == "truncate":
            text = text[:cut]
        elif how == "0xff":
            text = text[:cut] + b"\xff" + text[cut + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "photons.tsv")
            with open(path, "wb") as fh:
                fh.write(text)
            try:
                expected = read_line_by_line(path)
            except ParameterError as exc:
                expected = exc
            with mock.patch.object(stochastic, "_READ_CHARS", 1 << 10):
                try:
                    loaded = read_photon_stream(path)
                except ParameterError as exc:
                    assert isinstance(expected, ParameterError), str(exc)
                    assert str(exc).startswith(str(expected))
                    return
        assert not isinstance(expected, ParameterError), str(expected)
        duration, times, tags = expected
        assert loaded.duration == duration
        assert loaded.times.tobytes() == np.array(times, float).tobytes()
        assert loaded.tags.tolist() == tags

    def test_write_and_read_memory_bounded(self, tmp_path):
        rng = np.random.default_rng(85)
        times = np.cumsum(rng.exponential(1.0, 150_000))
        stream = PhotonStream(times=times,
                              tags=rng.integers(0, 2, times.size).astype(np.int8),
                              duration=times[-1] + 1.0)
        path = tmp_path / "photons.tsv"
        peaks = []
        for run in (lambda: write_photon_stream(stream, path),
                    lambda: read_photon_stream(path)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # The line-by-line writer and reader peaked at 6.4 and 8.8 MB.
        assert peaks[0] < 4e6 and peaks[1] < 6e6, peaks

    def test_line_parsed_read_memory_bounded(self, tmp_path):
        rng = np.random.default_rng(86)
        times = np.cumsum(rng.exponential(1.0, 100_000))
        stream = PhotonStream(times=times,
                              tags=rng.integers(0, 2, times.size).astype(np.int8),
                              duration=times[-1] + 1.0)
        path = tmp_path / "photons.tsv"
        write_photon_stream(stream, path)
        # A space after each TAB sends every chunk through the line parser.
        text = path.read_text(encoding="utf-8").replace("\t", "\t ")
        path.write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            loaded = read_photon_stream(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.times.tobytes() == times.tobytes()
        # Row line numbers held as Python lists to the end peaked at 6.2 MB,
        # as one int64 array a chunk at 3.7 MB.
        assert peak < 4.5e6, peak

    def test_file_mode_follows_umask(self, tmp_path):
        stream = poisson_stream(np.random.default_rng(83), rate=0.1,
                                duration=1e3)
        path = tmp_path / "photons.tsv"
        old = os.umask(0o022)
        try:
            write_photon_stream(stream, path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_failed_write_keeps_target(self, tmp_path, monkeypatch):
        path = tmp_path / "photons.tsv"
        path.write_text("# duration=1.0\n", encoding="utf-8")
        # With no row end for the plus tag, formatting the rows fails after
        # the header is written.
        monkeypatch.setattr(stochastic, "_ROW_END", ("\t-\n",))
        stream = PhotonStream(np.array([0.5, 1.5]), np.array([0, 1]), 2.0)
        with pytest.raises(IndexError):
            write_photon_stream(stream, path)
        assert path.read_bytes() == b"# duration=1.0\n"
        assert list(tmp_path.glob("*.tmp")) == []
