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
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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
        if not (0.0 < self.v0 < math.inf):
            raise ParameterError(f"v0 must be positive and finite, got {self.v0}")
        for name in ("omega0", "omega1"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(
                    f"{name} must be finite, got {getattr(self, name)}")
        for name in ("gamma_r", "gamma_nr", "gamma_perp", "gamma_u",
                     "pump_r", "omega_l_rabi"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ParameterError(f"{name} must be finite and >= 0, got {value}")
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


def mixing_angle(v0: float, delta: float) -> float:
    """Mixing angle of the dressed doublet, in (0, pi/2).

    Defined through ``tan(2 theta) = v0 / delta`` with the two-argument
    arctangent, so the angle passes continuously through pi/4 at zero
    detuning and never leaves the open interval for any v0 > 0.
    """
    if not (v0 > 0.0):
        raise ParameterError(f"v0 must be positive, got {v0}")
    return 0.5 * math.atan2(v0, delta)


def rabi_splitting(v0: float, delta: float) -> float:
    """Rabi frequency ``sqrt(delta**2 + v0**2)``; the doublet spans twice this."""
    return math.hypot(v0, delta)


@dataclass(frozen=True)
class DressedBasis:
    """Mixing angle, Rabi splitting, and transition structure of the doublet.

    ``w_minus`` and ``w_plus`` are the squared plasmon amplitudes of the two
    dressed states (``cos**2 theta`` and ``sin**2 theta``); they always sum to
    one and control every per-branch rate.
    """

    delta: float
    theta: float
    omega_rabi: float
    omega_minus: float
    omega_plus: float
    w_minus: float
    w_plus: float

    @property
    def omega_center(self) -> float:
        """Mean transition frequency, midpoint of the doublet."""
        return 0.5 * (self.omega_minus + self.omega_plus)

    def omega(self, branch: Branch) -> float:
        return self.omega_minus if branch is Branch.MINUS else self.omega_plus

    def weight(self, branch: Branch) -> float:
        return self.w_minus if branch is Branch.MINUS else self.w_plus


def dressed_basis(params: SystemParams) -> DressedBasis:
    """Diagonalize the one-excitation manifold of the coupled system.

    Raises
    ------
    ParameterError
        If the mixing is so one-sided that one branch carries less than
        ``MIN_BRANCH_WEIGHT`` of the plasmon amplitude; that branch would
        have vanishing decay and no stationary state.
    """
    delta = params.delta
    theta = mixing_angle(params.v0, delta)
    omega = rabi_splitting(params.v0, delta)
    center = 0.5 * (params.omega0 + params.omega1)
    w_minus = math.cos(theta) ** 2
    w_plus = 1.0 - w_minus  # enforce the sum rule exactly
    if min(w_minus, w_plus) < MIN_BRANCH_WEIGHT:
        raise ParameterError(
            "mixing too one-sided: min branch weight "
            f"{min(w_minus, w_plus):.3e} < {MIN_BRANCH_WEIGHT:.0e}"
        )
    return DressedBasis(
        delta=delta,
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
    gnr: float
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
    gnr_minus: float
    gnr_plus: float
    gfeed_minus: float
    gfeed_plus: float
    dipole_w_minus: float
    dipole_w_plus: float

    def branch(self, branch: Branch) -> BranchChannel:
        if branch is Branch.MINUS:
            return BranchChannel(self.gpar_minus, self.gperp_minus,
                                 self.grad_minus, self.gnr_minus,
                                 self.gfeed_minus, self.dipole_w_minus)
        return BranchChannel(self.gpar_plus, self.gperp_plus,
                             self.grad_plus, self.gnr_plus,
                             self.gfeed_plus, self.dipole_w_plus)

    @property
    def gfeed_total(self) -> float:
        return self.gfeed_minus + self.gfeed_plus


def branch_rates(params: SystemParams, basis: DressedBasis) -> BranchRates:
    """Split every bare relaxation rate between the two dressed branches."""
    wm, wp = basis.w_minus, basis.w_plus
    grad_m = params.gamma_r * wm
    grad_p = params.gamma_r * wp
    gnr_m = params.gamma_nr * wm
    gnr_p = params.gamma_nr * wp
    return BranchRates(
        gpar_minus=grad_m + gnr_m,
        gpar_plus=grad_p + gnr_p,
        gperp_minus=params.gamma_perp * wm,
        gperp_plus=params.gamma_perp * wp,
        grad_minus=grad_m,
        grad_plus=grad_p,
        gnr_minus=gnr_m,
        gnr_plus=gnr_p,
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
