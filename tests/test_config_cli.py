import contextlib
import io
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plexciton import (Branch, ConfigError, ParameterError, Scenario,
                       TrajectoryConfig, branch_rates, dressed_basis,
                       parse_config)
from plexciton import cli as cli_module, stochastic
from plexciton.cli import main

PRESETS = os.path.join(os.path.dirname(__file__), os.pardir, "presets")


def read_csv(path):
    """Parse a CSV with '#' comment lines; returns (comments, header, columns)."""
    comments, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(part) for part in line.split(",")])
    data = np.array(rows)
    return comments, header, {name: data[:, k] for k, name in enumerate(header)}


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE_CFG = """
scenario = nonresonant
omega0 = 1.0
omega1 = -1.0
v0 = 1.0
gamma_r = 1.0
gamma_nr = 0.0
gamma_perp = 0.5
gamma_u = 0.005
pump_r = 0.005
"""


class TestParseConfig:
    def test_benchmark_preset_values(self):
        config = parse_config(os.path.join(PRESETS, "g2_benchmark.cfg"))
        params = config.params
        assert params.v0 / params.delta == 1.0
        assert (params.pump_r + params.gamma_u) / params.gamma_par == 0.01
        assert params.gamma_perp / params.gamma_par == 0.5
        assert params.scenario is Scenario.NONRESONANT
        assert config.tau_max == 600.0
        assert config.tau_steps == 601

    def test_empty_file_lists_all_missing_keys(self, tmp_path):
        path = write_cfg(tmp_path, "# nothing here\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        for key in ("scenario", "omega0", "omega1", "v0", "gamma_r",
                    "gamma_nr", "gamma_perp", "gamma_u", "pump_r"):
            assert key in str(err.value)

    def test_negative_rate_names_key(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG.replace("gamma_u = 0.005",
                                                    "gamma_u = -0.005"))
        with pytest.raises(ConfigError, match="gamma_u"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG + "gamma_prep = 0.5\n")
        with pytest.raises(ConfigError, match="gamma_prep"):
            parse_config(path)

    def test_bad_enum_value(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG.replace("nonresonant", "pulsed"))
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "absent.cfg"))

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG + "v0 = 2.0\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["tau_max", "duration", "fano_window"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_span_rejected(self, tmp_path, key, value):
        path = write_cfg(tmp_path, BASE_CFG + f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(path)

    @pytest.mark.parametrize("key", ["omega_min", "omega0", "omega1", "v0",
                                     "v0_over_delta_sweep", "unit_scale"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_number_rejected(self, tmp_path, key, value):
        text = "0.5, " + value if key == "v0_over_delta_sweep" else value
        lines = [line for line in BASE_CFG.splitlines()
                 if not line.startswith(key + " ")]
        path = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {text}", ""]))
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(path)

    def test_branch_filter_parsed(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG + "branch = minus\n")
        assert parse_config(path).branch_filter is Branch.MINUS

    @pytest.mark.parametrize("key", ["omega_steps", "tau_steps", "bins"])
    def test_step_count_limit_parses(self, tmp_path, key):
        path = write_cfg(tmp_path, BASE_CFG + f"{key} = 1000000\n")
        assert getattr(parse_config(path), key) == 10 ** 6

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_valid_config_round_trips_property(self, data):
        # Parses to the written values; any one value made invalid raises
        # ConfigError naming its key, and nothing else.
        written = data.draw(valid_configs())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cfg_text(written))
            config = parse_config(path)
            for key, value in written.items():
                assert parsed_value(config, key) == expected_value(key, value)

            for key in written:
                bad = data.draw(st.sampled_from(NOT_A_VALUE)
                                | st.sampled_from(OUT_OF_RANGE.get(key, ["x"])))
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(cfg_text({**written, key: bad}))
                with pytest.raises(ConfigError, match=f"'{key}'"):
                    parse_config(path)


_finite = st.floats(-1e6, 1e6)
_nonnegative = st.floats(0.0, 1e6)
_positive = st.floats(1e-6, 1e6)
_steps = st.integers(2, 10 ** 6)

OPTIONAL_VALUES = {
    "drive_rabi": _nonnegative,
    "unit_scale": _nonnegative,
    "omega_steps": _steps,
    "tau_max": _positive,
    "tau_steps": _steps,
    "bins": _steps,
    "duration": _positive,
    "n_trajectories": st.integers(1, 10 ** 6),
    "master_seed": st.integers(-2 ** 70, 2 ** 70),
    "branch": st.sampled_from(["minus", "plus", "both", "Plus", "BOTH"]),
    "fano_window": _positive,
    "v0_over_delta_sweep": st.lists(_positive, min_size=1, max_size=4).map(tuple),
}

# Invalid for every key: not a number, not finite, or not a word any key takes.
NOT_A_VALUE = ["abc", "nan", "inf", "-inf", "1e400", "1..2"]

# Numbers, or words, outside one key's range.
OUT_OF_RANGE = {
    "scenario": ["pulsed", "both"],
    "v0": ["0", "-1.5"],
    **{key: ["-1e-3"] for key in ("gamma_r", "gamma_nr", "gamma_perp",
                                 "gamma_u", "pump_r", "drive_rabi",
                                 "unit_scale")},
    **{key: ["0", "-3.0"] for key in ("tau_max", "duration", "fano_window")},
    **{key: ["1", "0", "1000001", "10000000000", "2.5"]
       for key in ("omega_steps", "tau_steps", "bins")},
    "n_trajectories": ["0", "-4", "1.5"],
    "master_seed": ["3.5"],
    "branch": ["all", "nonresonant"],
    "v0_over_delta_sweep": ["0.5, -1", "0.5,", "0"],
}


@st.composite
def valid_configs(draw):
    """Required keys plus any subset of the optional ones, all in range."""
    gamma_r, gamma_nr = draw(_nonnegative), draw(_nonnegative)
    written = {
        "scenario": draw(st.sampled_from(["nonresonant", "resonant",
                                          "Resonant"])),
        "omega0": draw(_finite),
        "omega1": draw(_finite),
        "v0": draw(_positive),
        "gamma_r": gamma_r,
        "gamma_nr": gamma_nr,
        "gamma_perp": (gamma_r + gamma_nr) / 2.0 + draw(_nonnegative),
        "gamma_u": draw(_nonnegative),
        "pump_r": draw(_nonnegative),
    }
    for key in draw(st.sets(st.sampled_from(sorted(OPTIONAL_VALUES)))):
        written[key] = draw(OPTIONAL_VALUES[key])
    if draw(st.booleans()):
        low = draw(_finite)
        written["omega_min"], written["omega_max"] = low, low + draw(_positive)
    return written


def cfg_text(written):
    def text(value):
        if isinstance(value, tuple):
            return ", ".join(repr(part) for part in value)
        return value if isinstance(value, str) else repr(value)
    return "".join(f"{key} = {text(value)}\n" for key, value in written.items())


def parsed_value(config, key):
    field = {"drive_rabi": "omega_l_rabi"}.get(key, key)
    if hasattr(config.params, field):
        return getattr(config.params, field)
    return config.branch_filter if key == "branch" else getattr(config, key)


def expected_value(key, value):
    if key == "scenario":
        return Scenario(value.lower())
    if key == "branch":
        return None if value.lower() == "both" else Branch(value.lower())
    return value


@pytest.fixture(scope="module")
def spectrum_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("spectrum")
    code = main(["spectrum", "--config",
                 os.path.join(PRESETS, "spectrum_benchmark.cfg"),
                 "--out", str(out)])
    assert code == 0
    return {ratio: read_csv(out / f"spectrum_v0dd_{ratio:g}.csv")
            for ratio in (0.5, 1.0, 2.0)}


class TestG2Command:
    def test_columns(self, g2_csv):
        _, header, _ = g2_csv
        assert header == ["tau", "NR_minus", "NR_plus", "R_minus", "R_plus"]

    def test_all_curves_start_at_zero(self, g2_csv):
        _, _, cols = g2_csv
        for name in ("NR_minus", "NR_plus", "R_minus", "R_plus"):
            assert cols[name][0] == 0.0

    def test_all_curves_monotone(self, g2_csv):
        _, _, cols = g2_csv
        for name in ("NR_minus", "NR_plus", "R_minus", "R_plus"):
            assert np.all(np.diff(cols[name]) >= -1e-14)

    def test_resonant_minus_is_squared_ramp(self, g2_csv):
        # gamma_perp/gamma_par = 0.5 collapses the driven coincidence
        _, _, cols = g2_csv
        gpar_minus = (2 + math.sqrt(2)) / 4
        tau = cols["tau"]  # gamma_par = 1, so the column is the raw lag
        ramp = (1.0 - np.exp(-gpar_minus * tau / 2.0)) ** 2
        assert np.max(np.abs(cols["R_minus"] - ramp)) < 1e-12

    def test_parameter_echo(self, g2_csv):
        comments, _, _ = g2_csv
        assert comments[1] == (
            "# params: omega0=1.0 omega1=-1.0 v0=1.0 gamma_r=1.0 gamma_nr=0.0 "
            "gamma_perp=0.5 gamma_u=0.005 pump_r=0.005 drive_rabi=0.0 "
            "scenario=nonresonant")

    def test_benchmark_value_on_grid(self, g2_csv):
        # Derived benchmark: 1 - 0.04/(2 + sqrt(2)) - exp(-1).  Its common
        # five-decimal citation 0.62041 is the same number rounded, which
        # already sits 5.2e-6 away, so the tight tolerance applies to the
        # full-precision value.
        _, _, cols = g2_csv
        row = np.nonzero(cols["tau"] == 100.0)[0]
        assert row.size == 1
        derived = 1.0 - 0.04 / (2.0 + math.sqrt(2)) - math.exp(-1.0)
        assert abs(cols["NR_minus"][row[0]] - derived) < 1e-6
        assert abs(cols["NR_minus"][row[0]] - 0.62041) < 1e-5

    def test_regime_warning_lands_in_comments(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG
                        .replace("pump_r = 0.005", "pump_r = 0.2")
                        .replace("gamma_u = 0.005", "gamma_u = 0.2"))
        out = tmp_path / "warn"
        assert main(["g2", "--config", cfg, "--out", str(out)]) == 0
        comments, _, _ = read_csv(out / "g2.csv")
        assert any("warning" in line for line in comments)

    def test_round_trip_precision(self, g2_csv, tmp_path):
        # Emitted values re-parse to at least 12 significant digits; the
        # repr formatting makes the round trip exact.
        _, _, cols = g2_csv
        gpar_minus = (2 + math.sqrt(2)) / 4
        tau = cols["tau"]
        slow, eps = 0.01, 0.01 / gpar_minus
        direct = -np.expm1(-slow * tau) + eps * np.expm1(-gpar_minus * tau)
        assert np.array_equal(cols["NR_minus"], direct)


class TestSpectrumCommand:
    def test_three_files_for_default_sweep(self, spectrum_files):
        assert len(spectrum_files) == 3
        for _, header, _ in spectrum_files.values():
            assert header == ["omega", "S_minus", "S_plus", "S_detected"]

    def test_peak_ratio_is_cot4(self, spectrum_files):
        for ratio, (_, _, cols) in spectrum_files.items():
            theta = 0.5 * math.atan2(ratio, 1.0)
            expected = 1.0 / math.tan(theta) ** 4
            measured = cols["S_plus"].max() / cols["S_minus"].max()
            assert measured == pytest.approx(expected, rel=0.01)

    def test_abscissa_is_offset_over_gamma_perp(self, spectrum_files):
        # omega column is (omega - omega_center)/gamma_perp and spans the
        # doublet symmetrically
        for ratio, (_, _, cols) in spectrum_files.items():
            omega = cols["omega"]
            assert omega[0] == pytest.approx(-omega[-1], rel=1e-12)
            rabi = math.hypot(ratio, 1.0)  # delta = gamma_perp = 1
            k_minus = np.argmax(cols["S_minus"])
            k_plus = np.argmax(cols["S_plus"])
            assert omega[k_minus] == pytest.approx(-rabi, abs=0.02)
            assert omega[k_plus] == pytest.approx(rabi, abs=0.02)

    def test_detected_is_sum_of_weighted_branches(self, spectrum_files):
        _, _, cols = spectrum_files[1.0]
        total = cols["S_minus"] + cols["S_plus"]
        assert np.max(np.abs(total - cols["S_detected"])) < 1e-15

    def test_one_file_without_sweep(self, tmp_path, capsys):
        # BASE_CFG: omega_rabi = sqrt(2), gamma_perp = 0.5.
        cfg = write_cfg(tmp_path, BASE_CFG + "omega_steps = 101\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert sorted(os.listdir(tmp_path / "o")) == ["spectrum.csv"]
        assert capsys.readouterr().out == f"{tmp_path / 'o' / 'spectrum.csv'}\n"
        _, header, cols = read_csv(tmp_path / "o" / "spectrum.csv")
        assert header == ["omega", "S_minus", "S_plus", "S_detected"]
        edge = (2.0 * math.sqrt(2.0) + 12.0 * 0.5) / 0.5
        assert cols["omega"][0] == pytest.approx(-edge, rel=1e-14)
        assert cols["omega"][-1] == pytest.approx(edge, rel=1e-14)
        assert cols["omega"].size == 101
        assert np.array_equal(cols["S_minus"] + cols["S_plus"],
                              cols["S_detected"])

    def test_explicit_window(self, tmp_path, capsys):
        # The doublet center is (omega0 + omega1)/2 = 0.
        cfg = write_cfg(tmp_path, BASE_CFG + "omega_min = -3\nomega_max = 1\n"
                        "omega_steps = 5\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, _, cols = read_csv(tmp_path / "spectrum.csv")
        assert cols["omega"].tolist() == [-6.0, -4.0, -2.0, 0.0, 2.0]


class TestTrajectoryCommand:
    def test_deterministic_outputs(self, tmp_path):
        cfg = os.path.join(PRESETS, "trajectory.cfg")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["trajectory", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["trajectory", "--config", cfg, "--out", str(out2)]) == 0
        first = (out1 / "photons_000.tsv").read_bytes()
        second = (out2 / "photons_000.tsv").read_bytes()
        assert first == second

    def test_master_seed_changes_stream(self, tmp_path):
        cfg = os.path.join(PRESETS, "trajectory.cfg")
        reseeded = write_cfg(tmp_path, _preset_text(
            "trajectory.cfg", "master_seed = 1", "master_seed = 99"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["trajectory", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["trajectory", "--config", reseeded, "--out", str(out2)]) == 0
        assert ((out1 / "photons_000.tsv").read_bytes()
                != (out2 / "photons_000.tsv").read_bytes())

    def test_summary_rate_within_error_bar(self, tmp_path):
        from plexciton import (SystemParams, branch_rates, dressed_basis,
                               steady_state_analytic)
        cfg = os.path.join(PRESETS, "trajectory.cfg")
        out = tmp_path / "run"
        assert main(["trajectory", "--config", cfg, "--out", str(out)]) == 0
        comments, header, cols = read_csv(out / "summary.csv")
        assert header == ["tau", "g2", "stderr"]
        assert cols["stderr"].min() > 0.0
        config = parse_config(cfg)
        rates = branch_rates(config.params, dressed_basis(config.params))
        steady = steady_state_analytic(rates, config.params.pump_r)
        line = next(c for c in comments if c.startswith("# rate_minus="))
        fields = dict(part.split("=") for part in line[2:].split() if "=" in part)
        value, stderr = float(fields["rate_minus"]), float(fields["stderr"])
        target = steady.p_mm * rates.grad_minus
        assert abs(value - target) <= 4.0 * stderr

    def test_branch_filter_reports_only_its_rate(self, tmp_path):
        cfg = write_cfg(tmp_path, _preset_text("trajectory.cfg", "branch = both",
                                               "branch = minus"))
        assert main(["trajectory", "--config", cfg, "--out", str(tmp_path)]) == 0
        comments, _, _ = read_csv(tmp_path / "summary.csv")
        assert [c.split("=")[0] for c in comments if c.startswith("# rate_")] == [
            "# rate_minus"]
        assert "# histogram_branch=minus" in comments

    def test_streams_match_one_eager_run(self, tmp_path):
        # Sampled one at a time, each stream is the bytes of the same
        # trajectory of one simulate_stream run over all three.
        cfg = write_cfg(tmp_path, _streams_text(3))
        out = tmp_path / "out"
        assert main(["trajectory", "--config", cfg, "--out", str(out)]) == 0
        config = parse_config(cfg)
        rates = branch_rates(config.params, dressed_basis(config.params))
        run = TrajectoryConfig(duration=config.duration, n_trajectories=3,
                               master_seed=config.master_seed)
        eager = tmp_path / "eager.tsv"
        for index, stream in enumerate(
                stochastic.simulate_stream(config.params, rates, run)):
            stochastic.write_photon_stream(stream, eager)
            assert (out / f"photons_{index:03d}.tsv").read_bytes() == (
                eager.read_bytes())
        assert sorted(path.name for path in out.iterdir()) == [
            "photons_000.tsv", "photons_001.tsv", "photons_002.tsv",
            "summary.csv"]

    def test_run_holds_one_stream(self, tmp_path):
        # A run's tracemalloc peak does not grow with its streams: at six it
        # is within one stream (9 bytes a photon) of the peak at one.  A run
        # that held every stream until it wrote them would add five.  The
        # first run also imports what sampling needs, so only the second at
        # one counts.
        peaks = {}
        for n in (1, 1, 6):
            cfg = write_cfg(tmp_path, _streams_text(n), name=f"{n}.cfg")
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["trajectory", "--config", cfg,
                                 "--out", str(tmp_path / str(n))]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        photons = stochastic.read_photon_stream(
            tmp_path / "1" / "photons_000.tsv").n_photons
        assert peaks[6] - peaks[1] < 9 * photons

    def test_unavailable_rate_and_fano_lines(self, tmp_path, monkeypatch):
        # A stream of minus photons only, counted in 50 windows (under 100).
        times = np.sort(np.random.default_rng(3).uniform(0.0, 6.0e7, 20000))
        stream = stochastic.PhotonStream(times, np.zeros(times.size, np.int8),
                                         6.0e7)
        monkeypatch.setattr(cli_module, "simulate_stream",
                            lambda *args: [stream])
        cfg = write_cfg(tmp_path, _preset_text(
            "trajectory.cfg", "bins = 30", "bins = 30\nfano_window = 1.2e6"))
        assert main(["trajectory", "--config", cfg, "--out", str(tmp_path)]) == 0
        comments, _, _ = read_csv(tmp_path / "summary.csv")
        assert "# rate_plus=unavailable (no photons)" in comments
        assert ("# fano=unavailable (duration covers only 50 windows, need at "
                "least 100)") in comments

    def test_default_fano_window_widens_to_window_cap(self, tmp_path,
                                                       monkeypatch):
        # 6e7 / 2^16 = 915.5 is wider than 1/(pump_r + gamma_u) = 100.
        monkeypatch.setattr(stochastic, "MAX_WINDOWS", 1 << 16)
        cfg = os.path.join(PRESETS, "trajectory.cfg")
        out = tmp_path / "run"
        assert main(["trajectory", "--config", cfg, "--out", str(out)]) == 0
        comments, _, _ = read_csv(out / "summary.csv")
        line = next(c for c in comments if c.startswith("# fano_window="))
        assert line.startswith(f"# fano_window={6.0e7 / (1 << 16)!r} fano=")

    def test_pair_check_before_sampling_keeps_runs_at_the_cap(
            self, tmp_path, capsys, monkeypatch):
        # A lag window of 1e5 holds ~36 minus photons, and the exact pair
        # count is 3% below the expected one: the run at a cap of exactly
        # its count completes, and one pair less is refused by that count.
        cfg = write_cfg(tmp_path, _preset_text(
            "trajectory.cfg", "tau_max = 600.0", "tau_max = 1e5"))
        config = parse_config(cfg)
        rates = branch_rates(config.params, dressed_basis(config.params))
        run = TrajectoryConfig(duration=config.duration,
                               master_seed=config.master_seed)
        stream = stochastic.simulate_stream(config.params, rates, run)[0]
        times = stream.times_for(Branch.MINUS)
        pairs = int((np.searchsorted(times, times + 1e5, "right") - 1
                     - np.arange(times.size)).sum())
        monkeypatch.setattr(stochastic, "MAX_PAIRS", pairs)
        assert main(["trajectory", "--config", cfg,
                     "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(stochastic, "MAX_PAIRS", pairs - 1)
        assert main(["trajectory", "--config", cfg,
                     "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert f"gives {pairs} photon pairs, over the cap" in err


class TestRatesCommand:
    def test_resonant_weak_drive_report(self, capsys):
        code = main(["rates", "--config",
                     os.path.join(PRESETS, "resonant_rates.cfg")])
        assert code == 0
        report = capsys.readouterr().out
        fields = {}
        for line in report.splitlines():
            if "=" in line and not line.startswith("#"):
                key, _, value = line.partition("=")
                fields[key.strip()] = value.strip()
        # saturation 0.05 per branch -> occupation 0.1, rate 0.1 * grad
        assert float(fields["saturation_minus"]) == pytest.approx(0.05, rel=1e-12)
        assert float(fields["p_minus"]) == pytest.approx(0.1, rel=1e-12)
        assert float(fields["p_plus"]) == pytest.approx(0.1, rel=1e-12)
        assert fields["p_minus_physical"].endswith("THz")
        assert float(fields["p_minus_physical"].split()[0]) == pytest.approx(
            100.0, rel=1e-12)
        assert float(fields["quantum_yield"]) == 1.0

    def test_nonresonant_report_prints_populations(self, capsys):
        code = main(["rates", "--config",
                     os.path.join(PRESETS, "g2_benchmark.cfg")])
        assert code == 0
        report = capsys.readouterr().out
        assert "p_gg" in report and "p_pp" in report
        assert "theta" in report


class TestSteadyStateCommand:
    def test_nonresonant(self, capsys):
        code = main(["steady-state", "--config",
                     os.path.join(PRESETS, "g2_benchmark.cfg")])
        assert code == 0
        out = capsys.readouterr().out
        fields = dict(line.replace(" ", "").split("=")
                      for line in out.splitlines()
                      if "=" in line and not line.startswith("#"))
        total = sum(float(fields[k]) for k in ("p_gg", "p_uu", "p_mm", "p_pp"))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestExitCodes:
    @pytest.mark.parametrize("code", [0, 2])
    def test_console_entry_point_exits_with_the_code(self, tmp_path, capsys,
                                                      monkeypatch, code):
        # pyproject's console script is plexciton.cli:entry; exit 2 is a
        # config file that does not exist.
        config = (os.path.join(PRESETS, "resonant_rates.cfg") if code == 0
                  else str(tmp_path / "missing.cfg"))
        monkeypatch.setattr(sys, "argv",
                            ["plexciton", "rates", "--config", config])
        with pytest.raises(SystemExit) as stop:
            cli_module.entry()
        assert stop.value.code == code
        out, err = capsys.readouterr()
        assert ("p_minus = " in out) if code == 0 else err.startswith("error: ")

    def test_module_runs_as_a_process(self, capsys):
        # python -m plexciton.cli goes through the __main__ guard and
        # entry(), in a fresh interpreter, and prints main's report.
        args = ["rates", "--config", os.path.join(PRESETS, "resonant_rates.cfg")]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        run = subprocess.run([sys.executable, "-m", "plexciton.cli", *args],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, encoding="utf-8")
        assert (run.returncode, run.stderr) == (0, "")
        assert main(args) == 0
        assert run.stdout == capsys.readouterr().out
        assert run.stdout.startswith("# plexciton 0.1.0 rates report\n")

    # Every run setting is a config key: the command line names only the
    # command, the config file and the output directory.
    @pytest.mark.parametrize("flag", [["--seed", "2"], ["--scenario", "resonant"]])
    def test_run_setting_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            main(["trajectory", "--config", os.path.join(PRESETS, "trajectory.cfg"),
                  "--out", str(out), *flag])
        assert stop.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()
        assert [action.option_strings or [action.dest]
                for action in cli_module._build_parser()._actions] == [
            ["-h", "--help"], ["command"], ["--config"], ["--out"]]

    def test_validation_error_is_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "omega0 = 1.0\n")
        assert main(["g2", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_resonant_without_drive_is_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE_CFG.replace("nonresonant", "resonant"))
        assert main(["rates", "--config", str(path)]) == 2
        capsys.readouterr()

    def test_non_finite_grid_is_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG + "omega_min = -inf\nomega_max = 3.0\n")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert "omega_min" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key", ["omega_steps", "tau_steps", "bins"])
    @pytest.mark.parametrize("value", [10 ** 6 + 1, 10 ** 10])
    def test_huge_step_count_is_2_and_writes_nothing(self, tmp_path, capsys,
                                                     key, value):
        cfg = write_cfg(tmp_path, BASE_CFG + f"{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["g2", "--config", cfg, "--out", str(out)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_duration_is_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG + "duration = 1e300\n")
        out = tmp_path / "out"
        assert main(["trajectory", "--config", cfg, "--out", str(out)]) == 2
        assert "duration" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_numerical_error_is_3(self, tmp_path, capsys, monkeypatch):
        import plexciton.cli as cli_module
        from plexciton.errors import IntegrationError

        def boom(config):
            raise IntegrationError("synthetic failure")

        monkeypatch.setattr(cli_module, "cmd_g2", boom)
        cfg = write_cfg(tmp_path, BASE_CFG)
        assert main(["g2", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical" in capsys.readouterr().err


def _preset_text(name, old, new):
    with open(os.path.join(PRESETS, name), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    return text.replace(old, new)


def _streams_text(n):
    """The trajectory preset at duration 4e7 (~1e5 photons, ~1.4e4 of them
    minus, over the histogram's 1e4) with ``n`` trajectories."""
    return _preset_text("trajectory.cfg", "duration = 6.0e7",
                        f"duration = 4.0e7\nn_trajectories = {n}")


_SHORT_RUN = _preset_text("trajectory.cfg", "duration = 6.0e7", "duration = 1e6")
# 6e9 / 100 = 6e7 windows, over MAX_WINDOWS; sampling would keep 1.5e7 photons.
_LONG_RUN_TOO_MANY_WINDOWS = _preset_text(
    "trajectory.cfg", "duration = 6.0e7",
    "duration = 6.0e9\nfano_window = 100.0")
# The same run with its default window and a lag window of 2.9e9: ~2.2e6
# minus photons are expected to give ~2.3e12 pairs, over 2 * MAX_PAIRS.
_LONG_RUN_TOO_MANY_PAIRS = _preset_text(
    "trajectory.cfg", "duration = 6.0e7", "duration = 6.0e9").replace(
    "tau_max = 600.0", "tau_max = 2.9e9")
# A 1% yield keeps the pair count low, so only the lag window, over half
# the duration, is refused; sampling the run takes seconds.
_LONG_DIM_RUN_LAG_OVER_HALF = _LONG_RUN_TOO_MANY_PAIRS.replace(
    "tau_max = 2.9e9", "tau_max = 3.1e9").replace(
    "gamma_nr = 0.0", "gamma_nr = 99.0").replace(
    "gamma_perp = 0.5", "gamma_perp = 50.0")
_ZERO_YIELD = BASE_CFG.replace("gamma_r = 1.0", "gamma_r = 0.0").replace(
    "gamma_nr = 0.0", "gamma_nr = 1.0")
# gamma_r = gamma_nr = gamma_perp = 0: every branch rate is zero.
_ZERO_DECAY = BASE_CFG.replace("gamma_r = 1.0", "gamma_r = 0.0").replace(
    "gamma_perp = 0.5", "gamma_perp = 0.0")

# Decay and feeding of 1e-310: the populations' normalizing sum underflows.
_TINY_CYCLE_RATES = BASE_CFG.replace("gamma_r = 1.0", "gamma_r = 1e-310").replace(
    "gamma_u = 0.005", "gamma_u = 1e-310")

# Report values past the float range: the resonant preset's saturation at
# gamma_r = 1e-310; a drive of 1e150 at rates of 1e-90, whose photon rate
# at unit_scale = 0 is inf * 0 = nan; a rate of 1e10 at 1e300 THz a unit.
_RESONANT_TINY_DECAY = _preset_text("resonant_rates.cfg", "gamma_r = 2.0",
                                    "gamma_r = 1e-310")
_HUGE_DRIVE_TINY_DECAY = (
    BASE_CFG.replace("nonresonant", "resonant")
    .replace("gamma_r = 1.0", "gamma_r = 1e-90")
    .replace("gamma_perp = 0.5", "gamma_perp = 1e-90")
    + "drive_rabi = 1e150\nunit_scale = 0\n")
_PHYSICAL_RATE_OVERFLOWS = (
    BASE_CFG.replace("gamma_r = 1.0", "gamma_r = 1e10")
    .replace("gamma_perp = 0.5", "gamma_perp = 1e10") + "unit_scale = 1e300\n")
# omega0 = omega1 = 1.7e308: the doublet's centre overflows.
_DOUBLET_OVERFLOWS = BASE_CFG.replace("omega0 = 1.0", "omega0 = 1.7e308").replace(
    "omega1 = -1.0", "omega1 = 1.7e308")

# command, config file bytes (None: the config path is a directory), whether
# --out is an existing regular file, and the exit code.
BAD_RUNS = [
    pytest.param("g2", None, False, 2, id="config-is-directory"),
    pytest.param("g2", BASE_CFG.encode() + b"tau_max = 1\xff\n", False, 2,
                 id="undecodable-byte"),
    pytest.param("g2", BASE_CFG.encode(), True, 2, id="out-is-file"),
    pytest.param("trajectory", _SHORT_RUN.encode(), False, 3,
                 id="too-few-photons"),
    pytest.param("trajectory", _preset_text(
        "trajectory.cfg", "tau_max = 600.0", "tau_max = 3e7").encode(),
                 False, 2, id="lag-window-over-half-duration"),
    pytest.param("spectrum", (BASE_CFG + "v0_over_delta_sweep = 0.5, 1e-4\n")
                 .encode(), False, 2, id="sweep-fails-at-second-value"),
    pytest.param("spectrum", (BASE_CFG + "v0_over_delta_sweep = 1.0000001, "
                              "1.0000002\n").encode(), False, 2,
                 id="sweep-file-names-collide"),
    pytest.param("trajectory", (_SHORT_RUN + "fano_window = 1e-300\n").encode(),
                 False, 2, id="fano-window-count"),
    pytest.param("trajectory", _LONG_RUN_TOO_MANY_WINDOWS.encode(), False, 2,
                 id="fano-window-count-long-run"),
    pytest.param("trajectory", (_ZERO_YIELD + "duration = 1e300\n").encode(),
                 False, 2, id="zero-yield-huge-duration"),
    pytest.param("trajectory", (BASE_CFG + "duration = 1\n"
                                "n_trajectories = 1000000\n").encode(),
                 False, 2, id="million-trajectories"),
    pytest.param("g2", _ZERO_DECAY.encode(), False, 2,
                 id="g2-zero-decay"),
    pytest.param("rates", _ZERO_DECAY.replace(
        "nonresonant", "resonant\ndrive_rabi = 0.1").encode(), False, 2,
                 id="resonant-rates-zero-decay"),
    pytest.param("spectrum", BASE_CFG.replace("omega0 = 1.0", "omega0 = -1.0")
                 .encode() + b"v0_over_delta_sweep = 1\n", False, 2,
                 id="sweep-at-zero-detuning"),
    pytest.param("g2", BASE_CFG.replace("0.005", "0.0").encode(), False, 2,
                 id="g2-no-slow-rate-no-tau-max"),
    pytest.param("trajectory", BASE_CFG.encode(), False, 2,
                 id="trajectory-without-duration"),
    pytest.param("g2", BASE_CFG.encode() + b"tau_max 5\n", False, 2,
                 id="line-without-equals"),
    pytest.param("g2", BASE_CFG.encode() + b"tau_max =\n", False, 2,
                 id="empty-value"),
    pytest.param("spectrum", BASE_CFG.encode() + b"omega_min = -1\n", False, 2,
                 id="omega-min-alone"),
    pytest.param("spectrum", BASE_CFG.encode() + b"omega_min = 1\n"
                 b"omega_max = 1\n", False, 2, id="omega-min-not-below-max"),
    pytest.param("rates", BASE_CFG.replace("nonresonant", "resonant").encode()
                 + b"drive_rabi = 1e300\n", False, 2,
                 id="rates-drive-square-overflows"),
    pytest.param("steady-state", _TINY_CYCLE_RATES.encode(), False, 2,
                 id="population-sum-underflows"),
    pytest.param("spectrum", BASE_CFG.replace("v0 = 1.0", "v0 = 1.7e308")
                 .encode(), False, 2, id="spectrum-default-grid-overflows"),
    pytest.param("spectrum", BASE_CFG.encode() + b"omega_min = -1e308\n"
                 b"omega_max = 1e308\n", False, 2,
                 id="spectrum-grid-span-overflows"),
    pytest.param("spectrum", BASE_CFG.encode() + b"omega_min = 1e-20\n"
                 b"omega_max = 1.7e308\n", False, 2,
                 id="spectrum-grid-offset-overflows"),
    pytest.param("g2", BASE_CFG.replace("0.005", "1e-310").encode(), False, 2,
                 id="g2-default-tau-max-overflows"),
    pytest.param("g2", BASE_CFG.replace("1.0\ngamma_nr", "1e20\ngamma_nr")
                 .replace("gamma_perp = 0.5", "gamma_perp = 1e20").encode()
                 + b"tau_max = 1.7e308\n", False, 2,
                 id="g2-tau-column-overflows"),
    pytest.param("rates", _RESONANT_TINY_DECAY.encode(), False, 2,
                 id="rates-saturation-overflows"),
    pytest.param("rates", _HUGE_DRIVE_TINY_DECAY.encode(), False, 2,
                 id="rates-huge-drive-tiny-decay"),
    pytest.param("rates", _PHYSICAL_RATE_OVERFLOWS.encode(), False, 2,
                 id="rates-physical-rate-overflows"),
    pytest.param("g2", _DOUBLET_OVERFLOWS.encode(), False, 2,
                 id="g2-doublet-overflows"),
]


# Runs refused before sampling: config file text and the message.
REFUSED_BEFORE_SAMPLING = [
    pytest.param(_LONG_RUN_TOO_MANY_WINDOWS,
                 "over the cap of 33554432 windows", id="window-cap"),
    pytest.param(_LONG_RUN_TOO_MANY_PAIRS,
                 "photon pairs, over twice the cap of 4294967296",
                 id="pair-cap"),
    pytest.param(_LONG_DIM_RUN_LAG_OVER_HALF,
                 "largest lag 3100000000.0 must stay below half the stream "
                 "duration 6000000000.0", id="lag-over-half-duration"),
    # ~2.5e8 photons kept in ~480 blocks: only the photon cap refuses it.
    pytest.param(BASE_CFG + "duration = 1e11\n",
                 "photons kept (n_trajectories = 1), over the cap of "
                 "134217728", id="photon-cap"),
    pytest.param(BASE_CFG + "duration = 1\nn_trajectories = 1000000\n",
                 "pump cycles (n_trajectories = 1000000), over the cap of "
                 "2048", id="million-trajectories"),
    pytest.param(_ZERO_YIELD + "duration = 1e300\n",
                 "pump cycles (n_trajectories = 1), over the cap of 2048",
                 id="zero-yield-huge-duration"),
]


class TestFailureBoundary:
    @pytest.mark.parametrize("config, message", REFUSED_BEFORE_SAMPLING)
    def test_refused_before_sampling(self, tmp_path, capsys, monkeypatch,
                                     config, message):
        def sampled(*args):
            raise AssertionError("sampled before the run was checked")

        monkeypatch.setattr(cli_module, "simulate_stream", sampled)
        cfg = write_cfg(tmp_path, config)
        assert main(["trajectory", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize("command, config, out_is_file, code", BAD_RUNS)
    def test_fails_with_one_line_and_writes_nothing(self, tmp_path, capsys,
                                                     command, config,
                                                     out_is_file, code):
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        if config is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(config)
        if out_is_file:
            out.write_text("kept\n", encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("numerical failure: " if code == 3 else "error: ")
        if out_is_file:
            assert out.read_text(encoding="utf-8") == "kept\n"
        else:
            assert not out.exists() or not any(out.iterdir())

    # Zero decay gets one message from every command, in either scenario.
    @pytest.mark.parametrize("scenario", ["nonresonant", "resonant"])
    @pytest.mark.parametrize("command", ["spectrum", "g2", "trajectory",
                                         "rates", "steady-state"])
    def test_zero_decay_refused_by_every_command(self, tmp_path, capsys,
                                                 command, scenario):
        cfg = write_cfg(tmp_path, _ZERO_DECAY.replace(
            "scenario = nonresonant", f"scenario = {scenario}")
            + "duration = 1e4\ndrive_rabi = 0.1\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: branch rates must be positive")
        assert not any(out.iterdir())


    # The populations' normalizing sum underflows to 0 or overflows to inf.
    @pytest.mark.parametrize("config", [
        pytest.param(_TINY_CYCLE_RATES, id="underflow"),
        pytest.param(BASE_CFG.replace("0.005", "1e300"), id="overflow")])
    def test_population_sum_refused_by_name(self, tmp_path, capsys, config):
        assert main(["steady-state", "--config", write_cfg(tmp_path, config)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: sum of the unnormalized populations must be positive and "
            "finite, got ")

    # A value past the float range is refused by the name it would print.
    @pytest.mark.parametrize("command, config, name", [
        pytest.param("rates", _RESONANT_TINY_DECAY, "saturation_minus",
                     id="saturation"),
        pytest.param("rates", _HUGE_DRIVE_TINY_DECAY, "saturation_minus",
                     id="huge-drive-tiny-decay"),
        pytest.param("rates", _PHYSICAL_RATE_OVERFLOWS, "gamma_r_physical",
                     id="physical-rate"),
        *(pytest.param(command, _DOUBLET_OVERFLOWS, "omega_minus",
                       id=f"{command}-doublet")
          for command in ("spectrum", "g2", "rates", "steady-state")),
    ])
    def test_non_finite_value_refused_by_name(self, tmp_path, capsys, command,
                                              config, name):
        assert main([command, "--config", write_cfg(tmp_path, config),
                     "--out", str(tmp_path / "out")]) == 2
        assert (capsys.readouterr().err
                == f"error: {name} must be finite, got inf\n")

    # Closed forms whose squares or exponentials overflow to exact values:
    # 1/inf and exp(-inf) are 0.
    @pytest.mark.parametrize("command, config", [
        pytest.param("spectrum", BASE_CFG + "v0_over_delta_sweep = 1e300\n",
                     id="spectrum-huge-coupling"),
        pytest.param("g2", BASE_CFG.replace("nonresonant", "resonant").replace(
            "gamma_perp = 0.5", "gamma_perp = 1e20") + "tau_max = 1.7e308\n",
                     id="g2-huge-lags"),
    ])
    def test_overflow_to_exact_values_runs_clean(self, tmp_path, capsys,
                                                 command, config):
        cfg = write_cfg(tmp_path, config)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""


# The keys a hostile run sets, and the values it takes: zero, denormals and
# extreme magnitudes of either sign, and spellings float() reads as a
# non-finite number or from non-ASCII digits.
HOSTILE_KEYS = ["omega0", "omega1", "v0", "gamma_r", "gamma_nr", "gamma_perp",
                "gamma_u", "pump_r", "drive_rabi", "omega_min", "omega_max",
                "tau_max", "v0_over_delta_sweep", "unit_scale"]
HOSTILE_VALUES = [0.0, 5e-324, 1e-310, 1e-300, 1e-150, 1e-20, 1.0, 1e20,
                  1e150, 1e300, 1.7e308, -1e300, -1.0,
                  "Infinity", "+inf", "NaN", "-nan", "\uff11", "\uff11e3"]
# The integer keys a hostile run sets, and their values.  The sampling
# budget: with duration = 1e5 a trajectory draws at most ~2e5 cycles, under
# one sampler block, and 3 trajectories are the most any value accepts
# (2049 is over the cap of 2048 blocks); a grid or bin count is at most
# 2049, so no file takes 10**6 rows.
HOSTILE_COUNT_KEYS = ["omega_steps", "tau_steps", "bins", "n_trajectories",
                      "master_seed"]
HOSTILE_COUNTS = [-1, 0, 1, 2, 3, 2049, 10 ** 6 + 1, 2 ** 64, 2.5, "1e3",
                  "\uff13"]
# Every key a hostile run writes before its changes.
HOSTILE_BASE = dict(line.split(" = ") for line in BASE_CFG.split("\n") if line)
HOSTILE_BASE.update({"drive_rabi": "0.1", "duration": "1e5"})
# A value printed as inf, -inf or nan: after "=" in a report or comment, or
# as a CSV cell.
NON_FINITE = re.compile(r"(^|[=,]) ?-?(inf|nan)\b", re.MULTILINE)


def run_hostile(command, text):
    """Run ``command`` on the config ``text``: it exits 0 with no stderr and
    prints no non-finite value, or exits 2 or 3 with one stderr line and
    writes no file."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        err, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
            code = main([command, "--config", cfg, "--out", out])
        err = err.getvalue()
        if code == 0:
            assert err == ""
            written = [stdout.getvalue()]
            for name in os.listdir(out):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    written.append(fh.read())
            assert not any(NON_FINITE.search(text) for text in written)
        else:
            assert code in (2, 3)
            assert err.count("\n") == 1
            assert err.startswith("numerical failure: " if code == 3
                                  else "error: ")
            assert not os.path.exists(out) or not os.listdir(out)


COMMANDS = ["spectrum", "g2", "trajectory", "rates", "steady-state"]


class TestHostileConfig:
    # About 4 ms a run for the four commands that sample nothing, and about
    # 15 ms for a trajectory run that samples its block.
    @settings(max_examples=400, deadline=None)
    @given(command=st.sampled_from(COMMANDS),
           scenario=st.sampled_from(["nonresonant", "resonant"]),
           changes=st.dictionaries(st.sampled_from(HOSTILE_KEYS),
                                   st.sampled_from(HOSTILE_VALUES),
                                   min_size=1, max_size=3),
           counts=st.dictionaries(st.sampled_from(HOSTILE_COUNT_KEYS),
                                  st.sampled_from(HOSTILE_COUNTS), max_size=1))
    # A branch decay rate of 1e-310 ends every cycle past the float range;
    # fast feeding at zero detuning keeps ~2.5e4 photons of each branch.
    @example(command="trajectory", scenario="nonresonant",
             changes={"gamma_r": 1e-310}, counts={})
    @example(command="trajectory", scenario="nonresonant",
             changes={"pump_r": 1e20, "gamma_u": 1e20, "omega0": -1.0},
             counts={"n_trajectories": 2})
    def test_run_succeeds_quietly_or_fails_in_one_line(self, command, scenario,
                                                       changes, counts):
        run_hostile(command, cfg_text(
            {**HOSTILE_BASE, "scenario": scenario, **changes, **counts}))

    # A default fano_window or tau_max of 1/, 3/ or 6/(pump_r + gamma_u) that
    # overflows (the sum 2e-310) or is 0 (the sum inf) is refused by the
    # sum's name, not as a window, lag or grid the config never set.  The
    # refusal comes after --out is made, so the directory stays empty.
    @pytest.mark.parametrize("command, rate, extra, refused", [
        ("g2", "1e-310", {}, "tau_max from pump_r + gamma_u = 2e-310 "
                             "must be positive and finite, got inf"),
        ("g2", "1e308", {}, "tau_max from pump_r + gamma_u = inf "
                            "must be positive and finite, got 0.0"),
        ("trajectory", "1e-310", {}, "fano_window from pump_r + gamma_u = "
                                     "2e-310 must be positive and finite, got inf"),
        ("trajectory", "1e-310", {"fano_window": "5.0"},
         "tau_max from pump_r + gamma_u = 2e-310 must be positive and "
         "finite, got inf"),
    ], ids=["g2", "g2-huge", "trajectory-window", "trajectory-lag"])
    def test_defaults_not_positive_and_finite_refused(
            self, tmp_path, capsys, command, rate, extra, refused):
        cfg = write_cfg(tmp_path, cfg_text(
            {**HOSTILE_BASE, "pump_r": rate, "gamma_u": rate, **extra}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not any(out.iterdir())
        assert capsys.readouterr().err == f"error: default {refused}\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_or_duplicate_key(self, command):
        for key, value in HOSTILE_BASE.items():
            run_hostile(command, cfg_text(HOSTILE_BASE) + cfg_text({key: value}))
            run_hostile(command, cfg_text(
                {other: text for other, text in HOSTILE_BASE.items() if other != key}))


class TestOutputFiles:
    # A run whose later output path is a directory writes all its files or
    # none: only the directory is left in --out, with no staged *.tmp file
    # beside or in it, and no path is printed.
    @pytest.mark.parametrize("command, config, blocked", [
        pytest.param("spectrum", BASE_CFG + "v0_over_delta_sweep = 0.5, 1, 2\n",
                     "spectrum_v0dd_1.csv", id="spectrum"),
        pytest.param("trajectory", _preset_text(
            "trajectory.cfg", "duration = 6.0e7",
            "duration = 6.0e7\nn_trajectories = 2"),
                     "photons_001.tsv", id="trajectory"),
    ])
    def test_failed_write_keeps_no_file_and_prints_no_path(
            self, tmp_path, capsys, command, config, blocked):
        cfg = write_cfg(tmp_path, config)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and blocked in captured.err
        assert [path.name for path in out.iterdir()] == [blocked]
        assert not any((out / blocked).iterdir())

    # A run stopped while it samples its third stream, by a refusal or by
    # the user, writes no file: the two streams staged before are removed.
    @pytest.mark.parametrize("error", [ParameterError("refused"),
                                       KeyboardInterrupt()],
                             ids=["plexciton-error", "keyboard-interrupt"])
    def test_failure_while_sampling_writes_nothing(self, tmp_path, capsys,
                                                    monkeypatch, error):
        calls = []

        def sample(*args):
            calls.append(args)
            if len(calls) == 3:
                raise error
            return stochastic.simulate_stream(*args)

        monkeypatch.setattr(cli_module, "simulate_stream", sample)
        argv = ["trajectory", "--config", write_cfg(tmp_path, _streams_text(4)),
                "--out", str(tmp_path / "out")]
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: refused\n"
        assert len(calls) == 3
        assert list((tmp_path / "out").iterdir()) == []
        assert capsys.readouterr().out == ""

    # A text output is written straight into its staged file, so it is
    # renamed once, from that file to its target; a stream is staged by
    # write_photon_stream inside main's staged file.
    @pytest.mark.parametrize("command, config, name", [
        pytest.param("g2", os.path.join(PRESETS, "g2_benchmark.cfg"), "g2.csv",
                     id="g2"),
        pytest.param("trajectory", None, "summary.csv", id="trajectory"),
    ])
    def test_text_output_is_renamed_once(self, tmp_path, capsys, monkeypatch,
                                         command, config, name):
        cfg = config or write_cfg(tmp_path, _streams_text(2))
        out = tmp_path / "out"
        renames, rename = [], os.replace

        def recording(src, dst):
            renames.append((os.fspath(src), os.fspath(dst)))
            rename(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        target = os.path.join(str(out), name)
        into = [src for src, dst in renames if dst == target]
        assert len(into) == 1
        assert re.fullmatch(re.escape(target) + r"\.[0-9a-f]{12}\.tmp", into[0])
        assert into[0] not in [dst for _, dst in renames]  # staged once
        if command == "g2":
            assert renames == [(into[0], target)]
        assert sorted(path.name for path in out.iterdir()) == (
            [name] if command == "g2"
            else ["photons_000.tsv", "photons_001.tsv", "summary.csv"])

    def test_outputs_follow_umask(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        old = os.umask(0o022)
        try:
            for command in ("g2", "steady-state"):
                assert main([command, "--config", cfg, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        capsys.readouterr()
        for name in ("g2.csv", "steady_state.txt"):
            assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o644
        assert list(out.glob("*.tmp")) == []
