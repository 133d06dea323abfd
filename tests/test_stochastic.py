import functools
import hashlib
import os
import stat
import tempfile
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plexciton import (
    Branch,
    ConfigError,
    InsufficientDataError,
    ParameterError,
    PhotonStream,
    SystemParams,
    TrajectoryConfig,
    branch_rates,
    derive_trajectory_seed,
    dressed_basis,
    emission_rate,
    fano_factor,
    g2_histogram,
    occupation_fractions,
    read_photon_stream,
    simulate_stream,
    steady_state_analytic,
    write_photon_stream,
)
from plexciton import stochastic
from plexciton.stochastic import _CHUNK, MAX_PHOTONS, atomic_write


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
        # Digests recorded before the cycle-block sampler was shared by the
        # simulator and occupation_fractions; a reordered, added or dropped
        # draw changes them.  The yield below one brings in the detection
        # draw, the branch filter its mask, and each trajectory spans more
        # than two blocks.
        params, rates = make_setup(pump=1.0, feed=1.0, gamma_nr=0.3)
        config = TrajectoryConfig(duration=8e6, n_trajectories=2,
                                  master_seed=2024, branch_filter=Branch.MINUS)
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
        assert digest.hexdigest() == (
            "d4651622c5f74c71913670ac27297939dd70a2faa39f91b07cd0800cb026dcad")
        occupations = repr(occupation_fractions(params, rates, config))
        assert hashlib.sha256(occupations.encode()).hexdigest() == (
            "f0d948b7651842b34c0ace096b2438c0eb029424a185c35742b63c7ed4d622c9")

    def test_seed_derivation_is_stable(self):
        # Frozen values pin the documented seed-mixing function
        # (splitmix64 finalizer of master_seed + index * golden-ratio step).
        assert derive_trajectory_seed(0, 0) == 16294208416658607535
        assert derive_trajectory_seed(0, 1) == 7960286522194355700
        assert derive_trajectory_seed(1, 0) == 10451216379200822465

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
        rates = branch_rates(params, dressed_basis(params))
        with pytest.raises(ConfigError, match="branch"):
            simulate_stream(params, rates, TrajectoryConfig(duration=1e4))

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


def reference_rng(config):
    return np.random.Generator(np.random.PCG64(
        derive_trajectory_seed(config.master_seed, 0)))


def reference_stream(params, rates, config):
    """Times and tags of trajectory 0 by the full-block sampler."""
    times, tags = [], []
    for ends, keep, _, _, is_minus, _ in reference_blocks(
            reference_rng(config), params, rates, config.duration,
            params.quantum_yield):
        tag = np.where(is_minus, np.int8(0), np.int8(1))
        if config.branch_filter is not None:
            keep &= tag == (config.branch_filter is Branch.PLUS)
        times.append(ends[keep])
        tags.append(tag[keep])
    return np.concatenate(times), np.concatenate(tags)


def reference_occupations(params, rates, config):
    """``repr`` of occupation_fractions by the full-block sampler."""
    sums = {"gg": 0.0, "uu": 0.0, "mm": 0.0, "pp": 0.0}
    for ends, keep, dwell_g, dwell_u, is_minus, dwell_b in reference_blocks(
            reference_rng(config), params, rates, config.duration, 1.0):
        sums["gg"] += float(dwell_g[keep].sum())
        sums["uu"] += float(dwell_u[keep].sum())
        sums["mm"] += float(dwell_b[keep & is_minus].sum())
        sums["pp"] += float(dwell_b[keep & ~is_minus].sum())
    total = sum(sums.values())
    if total == 0.0:
        return "InsufficientDataError"
    return repr({state: value / total for state, value in sums.items()})


def occupations_repr(params, rates, config):
    try:
        return repr(occupation_fractions(params, rates, config))
    except InsufficientDataError:
        return "InsufficientDataError"


# Unit and sub-unit quantum yield at fast rates: a cycle takes about 3.
PREFIX_SETUPS = {"unit-yield": make_setup(pump=1.0, feed=1.0),
                 "lossy": make_setup(pump=1.0, feed=1.0, gamma_nr=0.3)}
BLOCK_TIME = 3.0 * _CHUNK  # about one block of cycles


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
            duration = 2.5 * BLOCK_TIME
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
        config = TrajectoryConfig(duration=BLOCK_TIME * 10.0 ** exponent,
                                  master_seed=405, branch_filter=branch)
        self.assert_matches_full_blocks(params, rates, config)

    def test_short_run_allocates_under_three_blocks(self):
        # About 100 cycles: the ground and upper dwells are drawn whole
        # (8 MB); the full-block sampler allocated about seven block-sized
        # arrays.
        params, rates = PREFIX_SETUPS["unit-yield"]
        config = TrajectoryConfig(duration=300.0)
        tracemalloc.start()
        try:
            simulate_stream(params, rates, config)
            occupation_fractions(params, rates, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * _CHUNK * 8


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
        # one trajectory occupation_fractions samples.
        params, rates = make_setup()
        mean_cycle = 1.0 / params.pump_r + (
            1.0 + rates.gfeed_minus / rates.gpar_minus
            + rates.gfeed_plus / rates.gpar_plus) / rates.gfeed_total
        drawn = []
        blocks = stochastic._cycle_blocks

        def counting(*args):
            for block in blocks(*args):
                drawn.append(block[0].size)
                yield block

        monkeypatch.setattr(stochastic, "_cycle_blocks", counting)
        monkeypatch.setattr(stochastic, "MAX_CYCLES", 4 * _CHUNK)
        config = TrajectoryConfig(duration=1.5 * _CHUNK * mean_cycle,
                                  n_trajectories=2)
        simulate_stream(params, rates, config)
        assert len(drawn) == 4 and drawn[0] == drawn[2] == _CHUNK
        with pytest.raises(ParameterError, match="over the cap"):
            simulate_stream(params, rates, replace(config, n_trajectories=3))
        occupation_fractions(params, rates, replace(config, n_trajectories=3))
        assert len(drawn) == 6

    def test_run_keeping_nothing_is_still_capped(self, monkeypatch):
        # Quantum yield 0 keeps no photon, so only the draw cap stops this.
        params, rates = make_setup(gamma_r=0.0, gamma_nr=1.0)
        monkeypatch.setattr(stochastic, "MAX_CYCLES", 4 * _CHUNK)
        with pytest.raises(ParameterError, match="over the cap"):
            simulate_stream(params, rates, TrajectoryConfig(duration=1e300))

    @pytest.mark.parametrize("bad", [7, -1])
    def test_out_of_range_tag_rejected(self, bad):
        with pytest.raises(ParameterError, match="tags"):
            PhotonStream(times=np.array([1.0, 2.0, 3.0]),
                         tags=np.array([0, 1, bad], dtype=np.int8),
                         duration=5.0)


class TestErgodicityAndRenewal:
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

    def test_memory_bounded_in_windows(self):
        # 2**20 windows and about 1000 photons: the counts and the variance's
        # one window-sized temporary, 16 bytes a window.
        rng = np.random.default_rng(59)
        stream = poisson_stream(rng, rate=1e-3, duration=float(1 << 20))
        tracemalloc.start()
        try:
            fano_factor(stream, window=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * (1 << 20) + 64 * stream.n_photons

    def test_requires_100_windows(self):
        rng = np.random.default_rng(56)
        stream = poisson_stream(rng, rate=0.5, duration=1e3)
        with pytest.raises(InsufficientDataError):
            fano_factor(stream, window=100.0)


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
        path.write_text("1.5\t-\n2.5\t+\n")
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
        path.write_text(text)
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
        path.write_text(text)
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

    def test_failed_write_keeps_target(self, tmp_path):
        path = tmp_path / "photons.tsv"
        path.write_text("# duration=1.0\n")

        def chunks():
            yield "# duration=2.0\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, chunks())
        assert path.read_text() == "# duration=1.0\n"
        assert list(tmp_path.glob("*.tmp")) == []
