"""Strict ``key = value`` run-configuration files.

The format is flat text: one assignment per line, ``#`` starts a comment,
blank lines are ignored.  Physics parameters are all required; grid and
trajectory settings have defaults.  Unknown or misspelled keys are an error,
so no physics input can be silently defaulted.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .model import Branch, Scenario, SystemParams

REQUIRED_KEYS = (
    "scenario",
    "omega0",
    "omega1",
    "v0",
    "gamma_r",
    "gamma_nr",
    "gamma_perp",
    "gamma_u",
    "pump_r",
)

# key -> default (None means "derive at command time")
OPTIONAL_KEYS = {
    "drive_rabi": 0.0,
    "unit_scale": 1.0,
    "omega_min": None,
    "omega_max": None,
    "omega_steps": 4001,
    "tau_max": None,
    "tau_steps": 601,
    "bins": 20,
    "duration": None,
    "n_trajectories": 1,
    "master_seed": 1,
    "branch": "both",
    "fano_window": None,
    "v0_over_delta_sweep": None,
}

_NONNEGATIVE = ("gamma_r", "gamma_nr", "gamma_perp", "gamma_u", "pump_r",
                "drive_rabi", "unit_scale")
_INT_KEYS = ("omega_steps", "tau_steps", "bins", "n_trajectories", "master_seed")


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one configuration file."""

    params: SystemParams
    unit_scale: float
    omega_min: float | None
    omega_max: float | None
    omega_steps: int
    tau_max: float | None
    tau_steps: int
    bins: int
    duration: float | None
    n_trajectories: int
    master_seed: int
    branch_filter: Branch | None
    fano_window: float | None
    v0_over_delta_sweep: tuple[float, ...] | None


def _parse_lines(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            entries[key] = value
    return entries


def _as_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': must be finite, got {text!r}")
    return value


def _as_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key '{key}': not an integer: {text!r}") from None


def parse_config(path: str) -> RunConfig:
    """Read, validate, and type a configuration file.

    Raises
    ------
    ConfigError
        Naming every missing required key, the first unknown key, or the
        first invalid value encountered.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    entries = _parse_lines(path)

    known = set(REQUIRED_KEYS) | set(OPTIONAL_KEYS)
    for key in entries:
        if key not in known:
            raise ConfigError(f"unknown key '{key}'")
    missing = [key for key in REQUIRED_KEYS if key not in entries]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    values: dict[str, object] = {}
    for key, text in entries.items():
        if key == "scenario":
            try:
                values[key] = Scenario(text.lower())
            except ValueError:
                raise ConfigError(
                    f"key 'scenario': must be 'nonresonant' or 'resonant', "
                    f"got {text!r}"
                ) from None
        elif key == "branch":
            if text.lower() not in ("minus", "plus", "both"):
                raise ConfigError(
                    f"key 'branch': must be 'minus', 'plus', or 'both', got {text!r}"
                )
            values[key] = text.lower()
        elif key == "v0_over_delta_sweep":
            sweep = tuple(_as_float(key, part) for part in text.split(","))
            if not sweep or any(ratio <= 0.0 for ratio in sweep):
                raise ConfigError("key 'v0_over_delta_sweep': ratios must be positive")
            values[key] = sweep
        elif key in _INT_KEYS:
            values[key] = _as_int(key, text)
        else:
            values[key] = _as_float(key, text)

    for key, default in OPTIONAL_KEYS.items():
        values.setdefault(key, default)

    for key in _NONNEGATIVE:
        if values[key] is not None and values[key] < 0.0:
            raise ConfigError(f"key '{key}': must be nonnegative, got {values[key]}")
    if values["v0"] <= 0.0:
        raise ConfigError(f"key 'v0': must be positive, got {values['v0']}")
    for key in ("omega_steps", "tau_steps", "bins"):
        if values[key] < 2:
            raise ConfigError(f"key '{key}': must be at least 2, got {values[key]}")
    if values["n_trajectories"] < 1:
        raise ConfigError("key 'n_trajectories': must be at least 1")
    for key in ("tau_max", "duration", "fano_window"):
        if values[key] is not None and values[key] <= 0.0:
            raise ConfigError(f"key '{key}': must be positive, got {values[key]}")
    if (values["omega_min"] is None) != (values["omega_max"] is None):
        raise ConfigError("omega_min and omega_max must be given together")
    if values["omega_min"] is not None and values["omega_min"] >= values["omega_max"]:
        raise ConfigError("omega_min must be below omega_max")

    params = SystemParams(
        omega0=values["omega0"],
        omega1=values["omega1"],
        v0=values["v0"],
        gamma_r=values["gamma_r"],
        gamma_nr=values["gamma_nr"],
        gamma_perp=values["gamma_perp"],
        gamma_u=values["gamma_u"],
        pump_r=values["pump_r"],
        omega_l_rabi=values["drive_rabi"],
        scenario=values["scenario"],
    )
    branch_filter = None if values["branch"] == "both" else Branch(values["branch"])
    return RunConfig(
        params=params,
        unit_scale=values["unit_scale"],
        omega_min=values["omega_min"],
        omega_max=values["omega_max"],
        omega_steps=values["omega_steps"],
        tau_max=values["tau_max"],
        tau_steps=values["tau_steps"],
        bins=values["bins"],
        duration=values["duration"],
        n_trajectories=values["n_trajectories"],
        master_seed=values["master_seed"],
        branch_filter=branch_filter,
        fano_window=values["fano_window"],
        v0_over_delta_sweep=values["v0_over_delta_sweep"],
    )
