"""The README preset commands reproduce their recorded output bytes.

The digests were recorded with numpy 2.4.6 and plexciton 0.1.0 (the version
is echoed into every file).  The photon stream follows the seed/draw
contract, the CSVs and reports print every value at full ``repr`` precision,
so any change to a number, a comment line or the draw order shows here.
That includes the sign of a zero: the resonant steady-state report prints
``coh_re = -0.0`` for both branches.
"""

import contextlib
import hashlib
import io
import os

import pytest

from plexciton import PhotonStream, cli, parse_config
from plexciton.cli import main

from test_config_cli import PRESETS

COMMANDS = [
    ("g2", "g2_benchmark.cfg"),
    ("spectrum", "spectrum_benchmark.cfg"),
    ("trajectory", "trajectory.cfg"),
    ("rates", "resonant_rates.cfg"),
    ("steady-state", "g2_benchmark.cfg"),
    ("steady-state", "resonant_rates.cfg"),
]

SHA256 = {
    "g2-g2_benchmark/g2.csv": "d0ec378db93d62af3b8373be3adea1ed49e5a223d13f9461b89a06deb9753f54",
    "rates-resonant_rates/rates.txt": "23a716d3c26cd2f86eb752b9d0d9356a57a49962fbee86bccd9003e26eed4712",
    "spectrum-spectrum_benchmark/spectrum_v0dd_0.5.csv": "1d36f29486e3575ef6c17adf4602747bea220074f05427b0cfa188665a5e06b7",
    "spectrum-spectrum_benchmark/spectrum_v0dd_1.csv": "ce955e1de7517979e212a9b16516d99911a926005290dc7f5a94c90890da543f",
    "spectrum-spectrum_benchmark/spectrum_v0dd_2.csv": "3b145a9a13335bfd0aabbd749c41ca37558f0026fdab7a58aad5ca893b5d9824",
    "steady-state-g2_benchmark/steady_state.txt": "fff85054eee9a412465fe62b17aca85c53e3c41d222226a35187ae8f415f78e9",
    "steady-state-resonant_rates/steady_state.txt": "abee511afcbe603a5708992cf19fc9cd3fa813e15ab825994e885f7bbc53e976",
    "trajectory-trajectory/photons_000.tsv": "54574c75ed0c33a850ad7f0d393b48dbd1d9f13c66302e6142f2a5d4cf11e5c4",
    "trajectory-trajectory/summary.csv": "a22c546e888e82e3eb6994c277760e8d7ba3f87bf62cf833a9623bea9bccc4bb",
}


# What each preset run prints: the paths of the files it wrote, in write
# order, or the report it also wrote under --out.
STDOUT = {
    "g2-g2_benchmark": ["g2.csv"],
    "rates-resonant_rates": "rates.txt",
    "spectrum-spectrum_benchmark": ["spectrum_v0dd_0.5.csv",
                                    "spectrum_v0dd_1.csv",
                                    "spectrum_v0dd_2.csv"],
    "steady-state-g2_benchmark": "steady_state.txt",
    "steady-state-resonant_rates": "steady_state.txt",
    "trajectory-trajectory": ["photons_000.tsv", "summary.csv"],
}


@pytest.fixture(scope="module")
def preset_runs(tmp_path_factory):
    """The output root and each run's stdout, by run directory name."""
    out = tmp_path_factory.mktemp("presets")
    stdout = {}
    for command, config in COMMANDS:
        # Each command writes into its own directory, so two commands that
        # write the same file name keep both outputs.
        sub = out / f"{command}-{config.removesuffix('.cfg')}"
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = main([command, "--config", os.path.join(PRESETS, config),
                         "--out", str(sub)])
        assert code == 0, f"{command} {config} exited {code}"
        stdout[sub.name] = captured.getvalue()
    return out, stdout


@pytest.fixture(scope="module")
def preset_outputs(preset_runs):
    out, _ = preset_runs
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.rglob("*") if path.is_file()}


def test_presets_write_exactly_the_recorded_files(preset_outputs):
    assert sorted(preset_outputs) == sorted(SHA256)


def _test_id(path):
    # A file's name alone identifies it unless two commands write that name.
    name = path.rsplit("/", 1)[-1]
    clashes = sum(key.endswith("/" + name) for key in SHA256)
    return name if clashes == 1 else path


@pytest.mark.parametrize("name", sorted(SHA256), ids=_test_id)
def test_preset_output_bytes_unchanged(preset_outputs, name):
    assert preset_outputs.get(name) == SHA256[name], f"{name} differs"


@pytest.mark.parametrize("run", sorted(STDOUT))
def test_preset_stdout(preset_runs, run):
    out, stdout = preset_runs
    expected = STDOUT[run]
    if isinstance(expected, list):
        assert stdout[run] == "".join(f"{out / run / name}\n" for name in expected)
    else:
        assert stdout[run].encode("utf-8") == (out / run / expected).read_bytes()


@pytest.mark.parametrize("command, config", COMMANDS)
def test_command_returns_outputs_and_writes_nothing(tmp_path, monkeypatch,
                                                    capsys, command, config):
    expected = STDOUT[f"{command}-{config.removesuffix('.cfg')}"]
    run = getattr(cli, "cmd_" + command.replace("-", "_"))
    parsed = parse_config(os.path.abspath(os.path.join(PRESETS, config)))
    monkeypatch.chdir(tmp_path)
    outputs = run(parsed)
    assert [name for name, _ in outputs] == (
        expected if isinstance(expected, list) else [expected])
    assert all(isinstance(content, PhotonStream) == name.endswith(".tsv")
               for name, content in outputs)
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr() == ("", "")
