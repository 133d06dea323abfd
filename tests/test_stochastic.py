import functools
import hashlib
import os
import stat
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), window=st.floats(min_value=0.01, max_value=50.0),
           extra=st.floats(min_value=0.0, max_value=3.0))
    def test_counts_match_numpy_histogram_property(self, data, window, extra):
        duration = (101 + data.draw(st.integers(0, 50)) + extra) * window
        on_edges = data.draw(st.lists(st.integers(0, int(duration / window)),
                                      min_size=1, max_size=40))
        anywhere = data.draw(st.lists(
            st.floats(min_value=0.0, max_value=duration), max_size=40))
        times = np.unique(np.concatenate(([0.0], np.array(on_edges) * window,
                                          anywhere)))
        times = times[times <= duration]
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
    ], ids=["bad-tag", "no-tab", "bad-number", "bad-duration"])
    def test_malformed_line_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "broken.tsv"
        path.write_text(text)
        with pytest.raises(ParameterError, match=rf"broken\.tsv:{line}: "):
            read_photon_stream(path)

    @pytest.mark.parametrize("text", ["# duration=nan\n1.5\t-\n",
                                      "# duration=10.0\nnan\t-\n"],
                             ids=["nan-duration", "nan-timestamp"])
    def test_non_finite_values_rejected(self, tmp_path, text):
        path = tmp_path / "nan.tsv"
        path.write_text(text)
        with pytest.raises(ParameterError):
            read_photon_stream(path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           duration=st.floats(min_value=1e-9, max_value=1e12))
    def test_write_read_round_trip_property(self, data, duration):
        times = np.unique(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=duration), max_size=30)))
        tags = np.array(data.draw(st.lists(st.sampled_from([0, 1]),
                                           min_size=times.size,
                                           max_size=times.size)),
                        dtype=np.int8)
        stream = PhotonStream(times=times, tags=tags, duration=duration)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "photons.tsv")
            write_photon_stream(stream, path)
            loaded = read_photon_stream(path)
        assert loaded.duration == duration
        assert loaded.times.tobytes() == times.tobytes()
        assert np.array_equal(loaded.tags, tags)

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
