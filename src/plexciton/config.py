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

# Largest grid step or bin count.  A 10**6-point grid takes tens of MB; a
# mistyped 10**10 would ask for tens of GB.
MAX_STEPS = 10 ** 6


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


def _number(kind, low=-math.inf, high=math.inf, above=False):
    """Parser of an int, or a finite float, no less than ``low`` (greater if
    ``above``) and no more than ``high``."""
    rule = (f"in {low}..{high}" if high < math.inf
            else f"{'>' if above else '>='} {low}")

    def parse(key: str, text: str):
        try:
            value = kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"key '{key}': not {what}: {text!r}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"key '{key}': must be finite, got {text!r}")
        if value < low or value > high or (above and value == low):
            raise ConfigError(f"key '{key}': must be {rule}, got {value}")
        return value
    return parse


def _choice(enum, **extra):
    """Parser of an ``enum`` value or ``extra`` word, in any case."""
    options = {member.value: member for member in enum} | extra

    def parse(key: str, text: str):
        if text.lower() not in options:
            raise ConfigError(f"key '{key}': must be one of "
                              f"{', '.join(options)}, got {text!r}")
        return options[text.lower()]
    return parse


_nonnegative = _number(float, low=0)
_positive = _number(float, low=0, above=True)
_steps = _number(int, low=2, high=MAX_STEPS)


def _ratios(key: str, text: str) -> tuple[float, ...]:
    return tuple(_positive(key, part) for part in text.split(","))


_REQUIRED = object()

# key -> (parser, default).  Each parser checks type and range and names the
# key when it fails; _REQUIRED keys have no default, and None is derived at
# command time.  The physics keys come first, in SystemParams field order,
# which the CLI's parameter echo follows.
_KEYS = {
    "omega0": (_number(float), _REQUIRED),
    "omega1": (_number(float), _REQUIRED),
    "v0": (_positive, _REQUIRED),
    "gamma_r": (_nonnegative, _REQUIRED),
    "gamma_nr": (_nonnegative, _REQUIRED),
    "gamma_perp": (_nonnegative, _REQUIRED),
    "gamma_u": (_nonnegative, _REQUIRED),
    "pump_r": (_nonnegative, _REQUIRED),
    "drive_rabi": (_nonnegative, 0.0),
    "scenario": (_choice(Scenario), _REQUIRED),
    "unit_scale": (_nonnegative, 1.0),
    "omega_min": (_number(float), None),
    "omega_max": (_number(float), None),
    "omega_steps": (_steps, 4001),
    "tau_max": (_positive, None),
    "tau_steps": (_steps, 601),
    "bins": (_steps, 20),
    "duration": (_positive, None),
    "n_trajectories": (_number(int, low=1), 1),
    "master_seed": (_number(int), 1),
    "branch": (_choice(Branch, both=None), None),
    "fano_window": (_positive, None),
    "v0_over_delta_sweep": (_ratios, None),
}

# Keys that fill a field of another name.
_FIELD = {"drive_rabi": "omega_l_rabi", "branch": "branch_filter"}

# Physics key -> SystemParams field, in field order.
PHYSICS_KEYS = {key: _FIELD.get(key, key) for key in _KEYS
                if _FIELD.get(key, key) in SystemParams.__dataclass_fields__}


def _parse_lines(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
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
    for key in entries:
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}'")
    missing = [key for key, (_, default) in _KEYS.items()
               if default is _REQUIRED and key not in entries]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    values = {_FIELD.get(key, key): parse(key, entries[key]) if key in entries
              else default for key, (parse, default) in _KEYS.items()}
    if (values["omega_min"] is None) != (values["omega_max"] is None):
        raise ConfigError("omega_min and omega_max must be given together")
    if values["omega_min"] is not None and values["omega_min"] >= values["omega_max"]:
        raise ConfigError("omega_min must be below omega_max")
    params = SystemParams(**{field: values.pop(field)
                             for field in PHYSICS_KEYS.values()})
    return RunConfig(params=params, **values)
