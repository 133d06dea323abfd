"""Optical Bloch equations for one resonantly driven dressed transition.

Under strong hybridization the two branches are spectrally well separated, so
a laser tuned exactly to one of them drives an isolated two-level transition
between the ground state and that branch.  In the frame rotating at the laser
frequency the state is ``(p_ee, coh_re, coh_im)``: the excited population and
the real and imaginary parts of the ground-excited coherence.

Convention (fixed by requiring the weak-drive stationary population
``2 Omega**2 / (gperp * gpar)``):

    d p_ee / dt = -gpar * p_ee + 2 * Omega * coh_im
    d coh  / dt = -gperp * coh + i * Omega * (1 - 2 * p_ee)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
# STEP_SAFETY stays importable from here; the step rule is in integrate.
from .integrate import STEP_SAFETY, evolve_linear

_POSITIVITY_SLACK = 1e-9


@dataclass(frozen=True)
class BlochState:
    """Two-level density matrix in the rotating frame."""

    p_ee: float
    coh_re: float
    coh_im: float

    def __post_init__(self) -> None:
        if not (-_POSITIVITY_SLACK <= self.p_ee <= 1.0 + _POSITIVITY_SLACK):
            raise ParameterError(f"p_ee = {self.p_ee} outside [0, 1]")
        coh2 = self.coh_re ** 2 + self.coh_im ** 2
        if coh2 > self.p_ee * (1.0 - self.p_ee) + _POSITIVITY_SLACK:
            raise ParameterError(
                f"|coherence|^2 = {coh2} violates density-matrix positivity"
            )


def bloch_steady_state(omega_l_rabi: float, gpar_b: float,
                       gperp_b: float) -> BlochState:
    """Exact stationary point of the driven two-level dynamics.

    With the saturation parameter ``s = 2 * Omega**2 / (gpar * gperp)`` the
    stationary population is ``s / (1 + 2 s)``: it reduces to ``s`` for weak
    driving and saturates monotonically at one half.
    """
    if not (gpar_b > 0.0 and gperp_b > 0.0):
        raise ParameterError(
            f"branch rates must be positive, got gpar={gpar_b}, gperp={gperp_b}"
        )
    if omega_l_rabi == 0.0:
        return BlochState(0.0, 0.0, 0.0)
    # coh_re decays to zero.  This operation order, and -0.0 for coh_re,
    # keep the printed steady-state report byte for byte.
    gperp2 = gperp_b ** 2
    s = 2.0 * omega_l_rabi ** 2 * gperp_b / (gpar_b * gperp2)
    p = s / (1.0 + 2.0 * s)
    pref = omega_l_rabi * (1.0 - 2.0 * p) / gperp2
    return BlochState(p, -0.0 * pref, gperp_b * pref)


def _bloch_augmented_matrix(omega_l_rabi: float, gpar_b: float,
                            gperp_b: float) -> np.ndarray:
    # Affine system lifted to linear form with a constant fourth coordinate.
    return np.array([
        [-gpar_b, 0.0, 2.0 * omega_l_rabi, 0.0],
        [0.0, -gperp_b, 0.0, 0.0],
        [-2.0 * omega_l_rabi, 0.0, -gperp_b, omega_l_rabi],
        [0.0, 0.0, 0.0, 0.0],
    ])


def evolve_bloch(initial: BlochState, omega_l_rabi: float, gpar_b: float,
                 gperp_b: float, tau_grid: np.ndarray) -> np.ndarray:
    """Integrate the Bloch equations; rows are ``(p_ee, coh_re, coh_im)``."""
    a = _bloch_augmented_matrix(omega_l_rabi, gpar_b, gperp_b)
    x0 = np.array([initial.p_ee, initial.coh_re, initial.coh_im, 1.0])
    states = evolve_linear(a, x0, tau_grid)
    return states[:, :3]


def regression_g2_resonant_numeric(omega_l_rabi: float, gpar_b: float,
                                   gperp_b: float,
                                   tau_grid: np.ndarray) -> np.ndarray:
    """Normalized two-photon coincidence of a resonantly driven branch.

    A detection projects the transition to its ground state, so the
    coincidence is the re-excitation transient divided by the stationary
    population: ``g2(tau) = p_ee(tau | ground) / p_ee(inf)``.
    """
    if not (omega_l_rabi > 0.0):
        raise ParameterError(f"drive amplitude must be positive, got {omega_l_rabi}")
    stationary = bloch_steady_state(omega_l_rabi, gpar_b, gperp_b).p_ee
    states = evolve_bloch(BlochState(0.0, 0.0, 0.0), omega_l_rabi,
                          gpar_b, gperp_b, tau_grid)
    return states[:, 0] / stationary
