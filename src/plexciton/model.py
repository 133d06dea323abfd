"""Input parameters, hybridized-doublet structure, and per-branch relaxation rates.

A metal nanoparticle's dipole plasmon mode (frequency ``omega1``) hybridizes
with a nearby quantum emitter's optical transition (frequency ``omega0``)
through an electrostatic coupling ``v0``.  The one-excitation manifold then
splits into two dressed branches, labelled ``minus`` and ``plus``, separated
by twice the Rabi frequency.  Every relaxation channel of the bare system
feeds the two branches with simple trigonometric weights of the mixing angle.

Units: hbar = 1 throughout, so every energy-like quantity is an angular
frequency and every rate shares that unit.  The detuning convention is
``delta = (omega0 - omega1) / 2``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

# Below this squared dressed-state amplitude one branch effectively decouples
# (its decay rates vanish) and no steady state exists.
MIN_BRANCH_WEIGHT = 1e-6


class Branch(str, Enum):
    """One of the two dressed transitions to the ground state."""

    MINUS = "minus"
    PLUS = "plus"


class Scenario(str, Enum):
    """How the system is excited: incoherent pumping or resonant driving."""

    NONRESONANT = "nonresonant"
    RESONANT = "resonant"


def _rule(table: dict, name: str):
    """``table[value]``, or ParameterError naming any other ``value``."""
    def lookup(value):
        try:
            return table[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            keys = ", ".join(repr(key.value) for key in table)
            raise ParameterError(
                f"{name} must be one of {keys}, got {value!r}") from None
    return lookup


# The one branch rule: a branch's slot in every (minus, plus) pair.  A str
# enum member hashes and compares as its value, so "minus" finds slot 0 too.
_SLOT = {Branch.MINUS: 0, Branch.PLUS: 1}
_BRANCHES = tuple(_SLOT)  # the branch in each slot
_slot = _rule(_SLOT, "branch")
_scenario = _rule({member: member for member in Scenario}, "scenario")

# The _real rule of each real field of SystemParams (in field order),
# DressedBasis (the doublet's ends first: they name its overflow) and
# BranchRates (by slot).
_PARAM_RULES = {"omega0": "finite", "omega1": "finite",
                "v0": "positive and finite", **dict.fromkeys((
                    "gamma_r", "gamma_nr", "gamma_perp", "gamma_u", "pump_r",
                    "omega_l_rabi"), "finite and >= 0")}
_BASIS_RULES = {"omega_minus": "finite", "omega_plus": "finite", "theta": "finite",
                "omega_rabi": "finite", "w_minus": "in [0, 1]", "w_plus": "in [0, 1]"}
_RATE_RULES = {f"{field}_{b.value}": rule for b in Branch for field, rule in (
    ("gpar", "positive and finite"), ("gperp", "positive and finite"),
    ("grad", "finite and >= 0"), ("gfeed", "finite and >= 0"),
    ("dipole_w", "in [0, 1]"))}

# Largest grid step, bin or sample count: 10**6 points take tens of MB.
MAX_STEPS = 10 ** 6

# Rounding may take a probability this far outside [0, 1], or a sum off 1.
_SLACK = 1e-9

# What each rule of _real asks of a real number's float.
_REAL_RULES = {"finite": math.isfinite,
               "finite and >= 0": lambda x: 0.0 <= x < math.inf,
               "positive and finite": lambda x: 0.0 < x < math.inf,
               "positive": lambda x: x > 0.0,
               "in [0, 1]": lambda x: -_SLACK <= x <= 1.0 + _SLACK}


def _is_real(value, rule: str) -> bool:
    """Whether ``value`` is a real number whose float meets ``rule``."""
    try:  # float first: it is checked far faster than the numbers.Real ABC
        return (isinstance(value, (float, numbers.Real))
                and _REAL_RULES[rule](float(value)))
    except OverflowError:  # an int too large for a float
        return False


def _real(name: str, value, rule: str) -> float:
    """``value`` as a float, or ParameterError naming ``name`` unless
    ``_is_real(value, rule)``."""
    if not _is_real(value, rule):
        raise ParameterError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def _store_reals(obj, rules: dict) -> None:
    """Store ``_real(name, value, rule)`` in field ``name`` of ``obj``, in order."""
    for name, rule in rules.items():
        object.__setattr__(obj, name, _real(name, getattr(obj, name), rule))


def _integer(name: str, value, low=None, high=None) -> int:
    """``value`` as an int, or ParameterError naming ``name`` unless it is an
    integer no less than ``low`` and no more than ``high``, when given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ParameterError(f"{name} must be <= {high}, got {value}")
    return value


def _numbers(values, name: str, complex_ok: bool = False,
             finite: bool = False) -> np.ndarray:
    """``values`` as a float (or, when ``complex_ok``, complex) array, or
    ParameterError naming ``name`` unless their dtype holds such numbers
    and, when ``finite``, each of them is finite."""
    values = np.asarray(values)
    kinds, what = ("iufc", "real or complex") if complex_ok else ("iuf", "real")
    if values.dtype.kind not in kinds:
        raise ParameterError(f"{name} must be {what} numbers, got dtype {values.dtype}")
    values = values.astype(complex if values.dtype.kind == "c" else float, copy=False)
    if finite and not np.isfinite(values).all():
        raise ParameterError(f"{name} must be finite")
    return values


def check_grid(grid, name: str, nonnegative: bool = True) -> np.ndarray:
    """The rule of every lag, time and frequency grid: ``grid`` as a float
    array, or ParameterError naming ``name`` unless it is a non-empty 1-d array
    of real, finite, strictly increasing values, nonnegative if ``nonnegative``."""
    grid = _numbers(grid, name)
    if grid.ndim != 1 or grid.size == 0:
        raise ParameterError(f"{name} must be a non-empty 1-d array")
    # A NaN fails every comparison; an increasing grid is infinite only at ends.
    if not ((grid[:-1] < grid[1:]).all() and -np.inf < grid[0] and grid[-1] < np.inf):
        raise ParameterError(f"{name} must be finite and strictly increasing")
    if nonnegative and grid[0] < 0.0:
        raise ParameterError(f"{name} must be nonnegative")
    return grid


def _check_drive(omega_l_rabi) -> float:
    """A drive amplitude as a float; refused unless it and its square are finite."""
    drive = _real("omega_l_rabi", omega_l_rabi, "finite")
    _real("omega_l_rabi**2", drive * drive, "finite")
    return drive


def _check_branch_rates(gpar, gperp) -> tuple[float, float]:
    """A branch's decay rates as floats; refused unless both are positive and
    finite numbers, and so is ``gperp**2 * gpar``, the smallest product a
    closed form or report divides by (tiny or huge rates under- or overflow it)."""
    if not (_is_real(gpar, "positive and finite")
            and _is_real(gperp, "positive and finite") and _is_real(
                float(gperp) * float(gperp) * float(gpar), "positive and finite")):
        raise ParameterError(
            "branch rates must be positive and finite, and so must "
            f"gperp**2 * gpar, got gpar={gpar!r}, gperp={gperp!r}")
    return float(gpar), float(gperp)


@dataclass(frozen=True)
class SystemParams:
    """Raw physical inputs, all in hbar = 1 angular-frequency units.

    Attributes
    ----------
    omega0 : float
        Emitter transition frequency (ground to lower excited state).
    omega1 : float
        Dipole plasmon mode frequency of the nanoparticle.
    v0 : float
        Emitter-plasmon coupling matrix element, real and positive.
    gamma_r : float
        Radiative decay rate of the bare plasmon mode.
    gamma_nr : float
        Non-radiative decay rate of the bare plasmon mode.
    gamma_perp : float
        Phase (transverse) relaxation rate of the plasmon mode.  Must be at
        least half the total energy relaxation rate.
    gamma_u : float
        Non-radiative decay rate of the emitter's upper pump level into its
        lower excited state.
    pump_r : float
        Incoherent pump rate from the ground state into the upper level.
    omega_l_rabi : float
        Base Rabi amplitude of a resonant laser drive.  The amplitude seen by
        one branch is this value times the branch's dressed dipole amplitude
        (``sqrt`` of the branch weight); see :func:`branch_drive_rabi`.
    scenario : Scenario
        Which excitation scheme this parameter set describes.
    """

    omega0: float
    omega1: float
    v0: float
    gamma_r: float
    gamma_nr: float
    gamma_perp: float
    gamma_u: float
    pump_r: float
    omega_l_rabi: float = 0.0
    scenario: Scenario = Scenario.NONRESONANT

    def __post_init__(self) -> None:
        _store_reals(self, _PARAM_RULES)
        object.__setattr__(self, "scenario", _scenario(self.scenario))
        if self.gamma_perp < (self.gamma_r + self.gamma_nr) / 2.0:
            raise ParameterError(
                "gamma_perp must be at least (gamma_r + gamma_nr)/2, got "
                f"{self.gamma_perp} < {(self.gamma_r + self.gamma_nr) / 2.0}"
            )

    @property
    def delta(self) -> float:
        """Half the emitter-plasmon detuning, ``(omega0 - omega1) / 2``."""
        return (self.omega0 - self.omega1) / 2.0

    @property
    def gamma_par(self) -> float:
        """Total longitudinal relaxation rate of the bare plasmon mode."""
        return self.gamma_r + self.gamma_nr

    @property
    def quantum_yield(self) -> float:
        """Radiative fraction of the plasmon decay (0 if there is no decay)."""
        if self.gamma_par == 0.0:
            return 0.0
        return self.gamma_r / self.gamma_par


@dataclass(frozen=True)
class DressedBasis:
    """Mixing angle, Rabi splitting, and transition structure of the doublet.

    ``theta`` solves ``tan(2 theta) = v0 / delta`` through the two-argument
    arctangent, so it lies in (0, pi/2) for every v0 > 0 and passes
    continuously through pi/4 at zero detuning.  ``omega_rabi`` is
    ``hypot(v0, delta)``, and the doublet spans twice it.  ``w_minus`` and
    ``w_plus`` are the squared plasmon amplitudes of the two dressed states
    (``cos**2 theta`` and ``sin**2 theta``); they always sum to one and
    control every per-branch rate.
    """

    theta: float
    omega_rabi: float
    omega_minus: float
    omega_plus: float
    w_minus: float
    w_plus: float

    def __post_init__(self) -> None:  # a doublet past the float range
        _store_reals(self, _BASIS_RULES)

    @property
    def omega_center(self) -> float:
        """Mean transition frequency, midpoint of the doublet."""
        return 0.5 * (self.omega_minus + self.omega_plus)

    def omega(self, branch: Branch) -> float:
        return (self.omega_minus, self.omega_plus)[_slot(branch)]

    def weight(self, branch: Branch) -> float:
        return (self.w_minus, self.w_plus)[_slot(branch)]


def dressed_basis(params: SystemParams) -> DressedBasis:
    """Diagonalize the one-excitation manifold of the coupled system.

    Raises
    ------
    ParameterError
        If the mixing is so one-sided that one branch carries less than
        ``MIN_BRANCH_WEIGHT`` of the plasmon amplitude; that branch would
        have vanishing decay and no stationary state, or if a branch
        frequency overflows.
    """
    delta = params.delta
    theta = 0.5 * math.atan2(params.v0, delta)
    omega = math.hypot(params.v0, delta)
    center = 0.5 * (params.omega0 + params.omega1)
    w_minus = math.cos(theta) ** 2
    w_plus = 1.0 - w_minus  # enforce the sum rule exactly
    if min(w_minus, w_plus) < MIN_BRANCH_WEIGHT:
        raise ParameterError(
            "mixing too one-sided: min branch weight "
            f"{min(w_minus, w_plus):.3e} < {MIN_BRANCH_WEIGHT:.0e}"
        )
    return DressedBasis(
        theta=theta,
        omega_rabi=omega,
        omega_minus=center - omega,
        omega_plus=center + omega,
        w_minus=w_minus,
        w_plus=w_plus,
    )


class BranchChannel(NamedTuple):
    """All relaxation rates of a single dressed branch."""

    gpar: float
    gperp: float
    grad: float
    gfeed: float
    dipole_w: float


@dataclass(frozen=True)
class BranchRates:
    """Per-branch relaxation, dephasing, and feeding rates.

    Decay rates of a branch scale with its plasmon weight.  The feeding rates
    from the upper pump level are cross-assigned: the minus branch is fed in
    proportion to ``w_plus`` and vice versa, because feeding proceeds through
    the emitter amplitude of the dressed state, which is complementary to its
    plasmon amplitude.
    """

    gpar_minus: float
    gpar_plus: float
    gperp_minus: float
    gperp_plus: float
    grad_minus: float
    grad_plus: float
    gfeed_minus: float
    gfeed_plus: float
    dipole_w_minus: float
    dipole_w_plus: float

    def __post_init__(self) -> None:  # a branch that never decays has no line
        _check_branch_rates(self.gpar_minus, self.gperp_minus)
        _check_branch_rates(self.gpar_plus, self.gperp_plus)
        _store_reals(self, _RATE_RULES)  # zero feeding is the run's to refuse
        object.__setattr__(self, "_channels", (  # the channels in slot order
            BranchChannel(self.gpar_minus, self.gperp_minus, self.grad_minus,
                          self.gfeed_minus, self.dipole_w_minus),
            BranchChannel(self.gpar_plus, self.gperp_plus, self.grad_plus,
                          self.gfeed_plus, self.dipole_w_plus)))

    def branch(self, branch: Branch) -> BranchChannel:
        return self._channels[_slot(branch)]

    @property
    def gfeed_total(self) -> float:
        return self.gfeed_minus + self.gfeed_plus


def branch_rates(params: SystemParams, basis: DressedBasis) -> BranchRates:
    """Split every bare relaxation rate between the two dressed branches."""
    wm, wp = basis.w_minus, basis.w_plus
    grad_m = params.gamma_r * wm
    grad_p = params.gamma_r * wp
    return BranchRates(
        gpar_minus=grad_m + params.gamma_nr * wm,
        gpar_plus=grad_p + params.gamma_nr * wp,
        gperp_minus=params.gamma_perp * wm,
        gperp_plus=params.gamma_perp * wp,
        grad_minus=grad_m,
        grad_plus=grad_p,
        gfeed_minus=params.gamma_u * wp,
        gfeed_plus=params.gamma_u * wm,
        dipole_w_minus=wm,
        dipole_w_plus=wp,
    )


def branch_drive_rabi(params: SystemParams, basis: DressedBasis,
                      branch: Branch) -> float:
    """Rabi amplitude a resonant drive imprints on one branch.

    The branch transition dipole carries the plasmon amplitude of the dressed
    state, so the base amplitude is scaled by ``sqrt`` of the branch weight.
    """
    return params.omega_l_rabi * math.sqrt(basis.weight(branch))
