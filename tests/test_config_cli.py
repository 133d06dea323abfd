import math
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plexciton import (Branch, ConfigError, Scenario, TrajectoryConfig,
                       branch_rates, dressed_basis, parse_config)
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
    path.write_text(text)
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
def g2_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("g2")
    code = main(["g2", "--config", os.path.join(PRESETS, "g2_benchmark.cfg"),
                 "--out", str(out)])
    assert code == 0
    return read_csv(out / "g2.csv")


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


class TestTrajectoryCommand:
    def test_deterministic_outputs(self, tmp_path):
        cfg = os.path.join(PRESETS, "trajectory.cfg")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["trajectory", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["trajectory", "--config", cfg, "--out", str(out2)]) == 0
        first = (out1 / "photons_000.tsv").read_bytes()
        second = (out2 / "photons_000.tsv").read_bytes()
        assert first == second

    def test_seed_flag_changes_stream(self, tmp_path):
        cfg = os.path.join(PRESETS, "trajectory.cfg")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["trajectory", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["trajectory", "--config", cfg, "--out", str(out2),
                     "--seed", "99"]) == 0
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

    def test_window_over_cap_refused_before_sampling(self, tmp_path, capsys,
                                                     monkeypatch):
        def sampled(*args):
            raise AssertionError("sampled before the window check")

        monkeypatch.setattr(cli_module, "simulate_stream", sampled)
        cfg = write_cfg(tmp_path, _LONG_RUN_TOO_MANY_WINDOWS)
        assert main(["trajectory", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "over the cap of 33554432 windows" in capsys.readouterr().err

    def test_pair_count_over_cap_refused_before_sampling(
            self, tmp_path, capsys, monkeypatch):
        def sampled(*args):
            raise AssertionError("sampled before the pair check")

        monkeypatch.setattr(cli_module, "simulate_stream", sampled)
        cfg = write_cfg(tmp_path, _LONG_RUN_TOO_MANY_PAIRS)
        assert main(["trajectory", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "photon pairs, over twice the cap of 4294967296" in err

    def test_lag_over_half_duration_refused_before_sampling(
            self, tmp_path, capsys, monkeypatch):
        def sampled(*args):
            raise AssertionError("sampled before the lag check")

        monkeypatch.setattr(cli_module, "simulate_stream", sampled)
        cfg = write_cfg(tmp_path, _LONG_DIM_RUN_LAG_OVER_HALF)
        assert main(["trajectory", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert ("largest lag 3100000000.0 must stay below half the stream "
                "duration 6000000000.0") in err

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

    def test_scenario_override_flag(self, capsys):
        code = main(["steady-state", "--config",
                     os.path.join(PRESETS, "resonant_rates.cfg"),
                     "--scenario", "nonresonant"])
        assert code == 0
        assert "p_gg" in capsys.readouterr().out


class TestExitCodes:
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

        def boom(config, out_dir):
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
]


class TestFailureBoundary:
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
            out.write_text("kept\n")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("numerical failure: " if code == 3 else "error: ")
        if out_is_file:
            assert out.read_text() == "kept\n"
        else:
            assert not out.exists() or not any(out.iterdir())


class TestOutputFiles:
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
