import math
import os
import stat

import numpy as np
import pytest

from plexciton import Branch, ConfigError, Scenario, parse_config
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

    def test_numerical_error_is_3(self, tmp_path, capsys, monkeypatch):
        import plexciton.cli as cli_module
        from plexciton.errors import IntegrationError

        def boom(config, out_dir):
            raise IntegrationError("synthetic failure")

        monkeypatch.setattr(cli_module, "cmd_g2", boom)
        cfg = write_cfg(tmp_path, BASE_CFG)
        assert main(["g2", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical" in capsys.readouterr().err


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
