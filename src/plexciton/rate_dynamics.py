"""Population balance equations of the incoherently pumped emission cycle.

The four relevant states are the ground state G, the emitter's upper pump
level U, and the two dressed branches.  Pumping drives G -> U at rate R, the
upper level feeds each branch at its cross-assigned rate, and each branch
relaxes back to G at its longitudinal rate.  Direct U -> G decay is neglected
against the much faster feeding rates.  State order in all arrays is
``(gg, uu, mm, pp)`` for populations of G, U, minus, plus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSteadyStateError, IntegrationError, ParameterError
# STEP_SAFETY stays importable from here; the step rule is in integrate.
from .integrate import STEP_SAFETY, evolve_linear
from .model import (MAX_STEPS, Branch, BranchRates, _SLACK, _integer, _numbers,
                    _real, _slot, _store_reals, check_grid)

_POPULATION_RULES = dict.fromkeys(("p_gg", "p_uu", "p_mm", "p_pp"), "in [0, 1]")


@dataclass(frozen=True)
class Populations:
    """Diagonal of the four-level density matrix."""

    p_gg: float
    p_uu: float
    p_mm: float
    p_pp: float

    def __post_init__(self) -> None:
        _store_reals(self, _POPULATION_RULES)

    @property
    def total(self) -> float:
        return self.p_gg + self.p_uu + self.p_mm + self.p_pp

    def branch(self, branch: Branch) -> float:
        return (self.p_mm, self.p_pp)[_slot(branch)]

    def as_array(self) -> np.ndarray:
        return np.array([self.p_gg, self.p_uu, self.p_mm, self.p_pp])


@dataclass(frozen=True)
class PopulationTrajectory:
    """Time grid and population samples from a single integration run."""

    times: np.ndarray
    values: np.ndarray  # shape (n, 4)

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", check_grid(self.times, "trajectory times"))
        object.__setattr__(self, "values", _numbers(self.values, "trajectory values"))
        if self.values.shape != (self.times.size, 4):
            raise ParameterError("trajectory arrays have inconsistent shapes")
        if not (np.abs(self.values - 0.5) <= 0.5 + _SLACK).all():  # or NaN
            raise ParameterError("trajectory contains out-of-range populations")

    @property
    def final(self) -> Populations:
        return Populations(*self.values[-1])


def rate_matrix(rates: BranchRates, pump_r: float) -> np.ndarray:
    """Generator matrix of the balance equations in (gg, uu, mm, pp) order.

    Columns sum to zero, so total probability is conserved exactly.
    """
    r = pump_r
    gm, gp = rates.gfeed_minus, rates.gfeed_plus
    lm, lp = rates.gpar_minus, rates.gpar_plus
    return np.array([
        [-r,        0.0,  lm,   lp],
        [r, -(gm + gp),  0.0,  0.0],
        [0.0,       gm,  -lm,  0.0],
        [0.0,       gp,  0.0,  -lp],
    ])


def evolve_populations(initial: Populations, rates: BranchRates, pump_r: float,
                       t_end: float, dt_max: float,
                       n_samples: int = 200) -> PopulationTrajectory:
    """Integrate the balance equations with fixed-step RK4.

    The internal step never exceeds ``dt_max`` nor the propagator's own
    bound, ``STEP_SAFETY`` divided by the fastest rate in the system, and
    ``n_samples`` is at most ``MAX_STEPS``.  The final state must stay
    normalized to within 1e-9 or an :class:`IntegrationError` is raised.
    """
    if abs(initial.total - 1.0) > _SLACK:
        raise ParameterError(f"initial populations sum to {initial.total}, not 1")
    pump_r = _real("pump_r", pump_r, "finite and >= 0")
    t_end = _real("t_end", t_end, "positive and finite")
    dt_max = _real("dt_max", dt_max, "positive")
    n_samples = _integer("n_samples", n_samples, 1, MAX_STEPS)
    times = np.linspace(0.0, t_end, n_samples + 1)
    states = evolve_linear(rate_matrix(rates, pump_r), initial.as_array(),
                           times, dt_max)
    if abs(float(states[-1].sum()) - 1.0) > _SLACK:
        raise IntegrationError(
            f"final populations sum to {states[-1].sum()}, drifted off 1"
        )
    return PopulationTrajectory(times=times, values=states)


def steady_state_analytic(rates: BranchRates, pump_r: float) -> Populations:
    """Closed-form stationary populations of the pumping cycle.

    The branch populations follow from the balance of pumping, feeding, and
    branch decay; the ground and upper level are reconstructed from the
    stationarity conditions of their own equations.  The result is normalized
    so the four components sum to one.
    """
    pump_r = _real("pump_r", pump_r, "finite")
    gm, gp = rates.gfeed_minus, rates.gfeed_plus
    lm, lp = rates.gpar_minus, rates.gpar_plus
    if min(gm, gp) <= 0.0 or pump_r <= 0.0:
        raise DegenerateSteadyStateError(
            "steady state requires pump_r and every branch feeding rate to "
            f"be positive (got pump_r={pump_r}, gfeed=({gm}, {gp}))"
        )
    gg = (gm + gp) * lm * lp
    uu = pump_r * lm * lp
    mm = pump_r * gm * lp
    pp = pump_r * gp * lm
    total = _real("sum of the unnormalized populations", gg + uu + mm + pp,
                  "positive and finite")
    return Populations(gg / total, uu / total, mm / total, pp / total)


def regression_g2_nonresonant_numeric(rates: BranchRates, pump_r: float,
                                      branch: Branch,
                                      tau_grid: np.ndarray) -> np.ndarray:
    """Normalized two-photon coincidence of one branch under incoherent pumping.

    A photon detection projects the system onto the ground state, so the
    regression of the diagonal dynamics reduces to re-evolving the balance
    equations from ``gg = 1`` and dividing the branch population by its
    stationary value: ``g2(tau) = p_b(tau | G) / p_b(inf)``.
    """
    stationary = steady_state_analytic(rates, pump_r).branch(branch)
    stationary = _real("stationary branch population", stationary, "positive")
    a = rate_matrix(rates, pump_r)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    states = evolve_linear(a, x0, tau_grid)
    return states[:, 2 + _slot(branch)] / stationary
