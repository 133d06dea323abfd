"""Strict ``key = value`` run-configuration files.

The format is flat text: one assignment per line, ``#`` starts a comment,
blank lines are ignored.  Physics parameters are all required; grid and
trajectory settings have defaults.  Unknown or misspelled keys are an error,
so no physics input can be silently defaulted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigError, ParameterError
from .model import (MAX_STEPS, _PARAM_RULES, Branch, Scenario, SystemParams,
                    _integer, _real)


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one configuration file: each number is checked
    by its key's rule in ``_KEYS`` and kept as a Python float or int; the
    rest reach only ``SystemParams`` and ``TrajectoryConfig``, which check."""

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

    def __post_init__(self) -> None:
        for key, (rule, _) in _KEYS.items():  # physics keys are in params
            value = getattr(self, key, None)
            if isinstance(rule, tuple):
                object.__setattr__(self, key, _integer(key, value, *rule))
            elif isinstance(rule, str) and value is not None:
                object.__setattr__(self, key, _real(key, value, rule))


def _number(rule):
    """Parser of a float meeting ``rule``, a ``model._REAL_RULES`` name, or
    of an int within ``rule``, a tuple of ``model._integer``'s bounds."""
    kind, what = (float, "a number") if isinstance(rule, str) else (int, "an integer")

    def parse(key: str, text: str):
        name = f"key '{key}'"
        try:
            value = kind(text)
        except ValueError:
            raise ConfigError(f"{name}: not {what}: {text!r}") from None
        try:
            if kind is int:
                return _integer(name, value, *rule)
            return _real(name, value, rule)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from None
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


_positive = _number("positive and finite")


def _ratios(key: str, text: str) -> tuple[float, ...]:
    return tuple(_positive(key, part) for part in text.split(","))


_REQUIRED = object()

# key -> (rule, default): a number's rule (a model._REAL_RULES name or
# model._integer's bounds; a physics key's is its field's), checked by
# _number's parser naming the key, else the key's parser.  _REQUIRED keys
# have no default, and None is derived at command time.  The physics
# keys come first, in SystemParams field order, for the CLI's echo.
_KEYS = {
    **{key: (_PARAM_RULES[key], _REQUIRED) for key in (
        "omega0", "omega1", "v0", "gamma_r", "gamma_nr", "gamma_perp",
        "gamma_u", "pump_r")},
    "drive_rabi": (_PARAM_RULES["omega_l_rabi"], 0.0),
    "scenario": (_choice(Scenario), _REQUIRED),
    "unit_scale": ("finite and >= 0", 1.0),
    "omega_min": ("finite", None),
    "omega_max": ("finite", None),
    "omega_steps": ((2, MAX_STEPS), 4001),
    "tau_max": ("positive and finite", None),
    "tau_steps": ((2, MAX_STEPS), 601),
    "bins": ((2, MAX_STEPS), 20),
    "duration": ("positive and finite", None),
    "n_trajectories": ((1,), 1),
    "master_seed": ((), 1),
    "branch": (_choice(Branch, both=None), None),
    "fano_window": ("positive and finite", None),
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

    values = {_FIELD.get(key, key): (rule if callable(rule) else _number(rule))(
        key, entries[key]) if key in entries else default
        for key, (rule, default) in _KEYS.items()}
    if (values["omega_min"] is None) != (values["omega_max"] is None):
        raise ConfigError("omega_min and omega_max must be given together")
    if values["omega_min"] is not None and values["omega_min"] >= values["omega_max"]:
        raise ConfigError("omega_min must be below omega_max")
    params = SystemParams(**{field: values.pop(field)
                             for field in PHYSICS_KEYS.values()})
    return RunConfig(params=params, **values)
