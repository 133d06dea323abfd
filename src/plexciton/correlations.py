"""Closed-form field correlations, emission spectra, and photon coincidences.

The first-order coherence of each branch decays exponentially at the branch
dephasing rate while rotating at the branch transition frequency, so each
line is a Lorentzian.  Detected intensities additionally carry the squared
branch dipole weight, which makes the two peak heights scale with the fourth
power of the mixing-angle cotangent while the linewidths scale with its
square.  Second-order coincidences are normalized, divided by the squared
zero-lag first-order coherence, and start at exactly zero for both
excitation schemes: the source emits photons one at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RegimeWarning, ResolutionError
from .integrate import check_grid
from .model import Branch, BranchRates, DressedBasis
from .rate_dynamics import Populations

# Relative gap between branch dephasing and decay below which the
# second-order coincidence switches to its removable-singularity limit.
DEGENERATE_RATE_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationSeries:
    """A correlation function sampled on a nonnegative lag grid.

    Estimated series (from photon streams) carry per-bin standard errors;
    analytic ones do not.
    """

    tau: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        tau = check_grid(self.tau, "tau")
        if self.values.shape != tau.shape:
            raise ParameterError("values and tau must have matching shapes")
        if self.stderr is not None and self.stderr.shape != tau.shape:
            raise ParameterError("stderr and tau must have matching shapes")


@dataclass(frozen=True)
class SpectrumSeries:
    """A nonnegative spectral density sampled on a frequency grid."""

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        omega = check_grid(self.omega, "omega", nonnegative=False)
        if self.values.shape != omega.shape:
            raise ParameterError("values and omega must have matching shapes")
        if np.any(self.values < 0.0):
            raise ParameterError("spectral density must be nonnegative")


def g1_analytic(branch: Branch, rates: BranchRates, steady: Populations,
                basis: DressedBasis, tau_grid: np.ndarray) -> CorrelationSeries:
    """First-order coherence of one branch in the stationary regime.

    ``g1(tau) = p_b(inf) * exp(-(gperp_b + i * omega_b) * tau)``; negative
    lags follow by complex conjugation and are not tabulated.
    """
    tau = check_grid(tau_grid, "tau_grid")
    ch = rates.branch(branch)
    values = steady.branch(branch) * np.exp(-(ch.gperp + 1j * basis.omega(branch)) * tau)
    return CorrelationSeries(tau=tau, values=values)


def spectrum_analytic(branch: Branch, rates: BranchRates, steady: Populations,
                      basis: DressedBasis,
                      omega_grid: np.ndarray) -> SpectrumSeries:
    """Lorentzian emission line of one branch, without the dipole weight."""
    omega = check_grid(omega_grid, "omega_grid", nonnegative=False)
    ch = rates.branch(branch)
    pop = steady.branch(branch)
    values = 2.0 * ch.gperp * pop / ((omega - basis.omega(branch)) ** 2 + ch.gperp ** 2)
    return SpectrumSeries(omega=omega, values=values)


def detected_spectrum(rates: BranchRates, steady: Populations,
                      basis: DressedBasis,
                      omega_grid: np.ndarray) -> SpectrumSeries:
    """Far-field doublet: dipole-weighted sum of the two branch lines.

    With the squared-dipole weighting the two peak heights are
    ``2 p_b(inf) / gamma_perp`` for either branch, so their ratio equals the
    stationary population ratio, the fourth power of the mixing cotangent.
    """
    omega = check_grid(omega_grid, "omega_grid", nonnegative=False)
    total = np.zeros_like(omega)
    for branch in Branch:
        part = spectrum_analytic(branch, rates, steady, basis, omega)
        total += rates.branch(branch).dipole_w * part.values
    return SpectrumSeries(omega=omega, values=total)


def _decay_scale(tau: np.ndarray, amplitudes: np.ndarray) -> float | None:
    """Dephasing-rate estimate from the 1/e crossing of |g1|; None if flat."""
    a0 = amplitudes[0]
    if a0 <= 0.0:
        return None
    below = np.nonzero(amplitudes <= a0 / math.e)[0]
    if below.size == 0:
        return None
    return 1.0 / tau[below[0]]


def spectrum_fft_check(g1: CorrelationSeries) -> SpectrumSeries:
    """Discrete-Fourier spectrum of a sampled first-order coherence.

    The series is extended to negative lags by conjugation and transformed
    with ``exp(+i omega tau)`` kernel, yielding a real spectrum on the grid
    ``2 pi k / (N dt)``.  Serves as an independent numerical cross-check of
    the closed-form Lorentzian.

    The caller must sample the carrier finely enough: the phase of ``g1``
    may turn by at most pi per sample.  A faster rotation is aliased onto a
    wrong line inside ``(-pi/dt, pi/dt]``, and the samples cannot show
    this, so no check here catches it.

    Raises
    ------
    ResolutionError
        If the grid is non-uniform, shorter than 20 decay times, or coarser
        than 64 samples per decay time (both judged from the sampled decay
        itself).
    """
    tau = g1.tau
    values = np.asarray(g1.values, dtype=complex)
    if tau.size < 3:
        raise ResolutionError("need at least 3 samples")
    dts = np.diff(tau)
    dt = float(dts[0])
    if tau[0] != 0.0 or np.any(np.abs(dts - dt) > 1e-9 * dt):
        raise ResolutionError("tau grid must be uniform and start at 0")

    amplitudes = np.abs(values)
    gamma_est = _decay_scale(tau, amplitudes)
    if gamma_est is None:
        if amplitudes[0] == 0.0:
            # Zero signal transforms to a zero spectrum on the natural grid.
            n = 2 * (tau.size - 1)
            omega = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n, dt))
            return SpectrumSeries(omega=omega, values=np.zeros(n))
        raise ResolutionError("series does not decay within the sampled span")
    if tau[-1] * gamma_est < 20.0:
        raise ResolutionError(
            f"span {tau[-1]:.3g} is under 20 decay times (1/gamma ~ "
            f"{1.0 / gamma_est:.3g})"
        )
    if dt * gamma_est > 1.0 / 64.0:
        raise ResolutionError(
            f"spacing {dt:.3g} is coarser than 64 samples per decay time"
        )

    n = 2 * (tau.size - 1)
    two_sided = np.zeros(n, dtype=complex)
    two_sided[:tau.size] = values
    two_sided[tau.size:] = np.conj(values[-2:0:-1])
    spectrum = dt * n * np.fft.ifft(two_sided)
    omega = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n, dt))
    density = np.fft.fftshift(spectrum.real)
    if np.any(density < -1e-9 * density.max(initial=0.0) - 1e-300):
        raise ResolutionError("transform produced significantly negative density")
    return SpectrumSeries(omega=omega, values=np.maximum(density, 0.0))


def g2_nonresonant_analytic(branch: Branch, rates: BranchRates, pump_r: float,
                            gamma_total: float,
                            tau_grid: np.ndarray) -> CorrelationSeries:
    """Two-photon coincidence of one branch under incoherent pumping.

    Leading-order closed form in the slow-pumping regime
    ``pump_r + gamma_total << min_b gpar_b``:

        g2(tau) = (1 - exp(-(R + gamma) tau))
                  - (R + gamma)/gpar_b * (1 - exp(-gpar_b tau))

    which vanishes identically at zero lag.  Outside the regime the value is
    still computed but a :class:`RegimeWarning` is emitted.

    Accuracy: the form is leading order only.  With ``s = R + gamma``,
    ``T1 = sum_b' gfeed_b'/gpar_b'`` and ``eps_max = s / min_b gpar_b``, the
    exact coincidence (the rate-equation regression) satisfies

        exact - closed = d1(tau) + O(eps_max**2),
        d1(tau) = s/gpar_b (1 - exp(-s tau)) + R T1 tau exp(-s tau),

    once the terms decaying at the branch rates have died out.  The first
    term mends the long-lag limit ``1 - s/gpar_b`` of the form, where every
    normalized coincidence tends to 1; the second is the shift of the slow
    eigenvalue to ``s + R T1`` by the return cycle through either branch.
    Because feeding couples in the other branch, the regime needs ``s``
    small against both branch decay rates, not only against ``gpar_b``; the
    warning fires when ``s`` reaches the slower of the two.
    """
    tau = check_grid(tau_grid, "tau_grid")
    gpar_b = rates.branch(branch).gpar
    slow = pump_r + gamma_total
    slowest = min(rates.gpar_minus, rates.gpar_plus)
    if slow >= slowest:
        warnings.warn(
            f"pump_r + gamma = {slow} is not small against the slower branch "
            f"decay rate {slowest}; the closed form is outside its regime",
            RegimeWarning,
            stacklevel=2,
        )
    eps = slow / gpar_b
    values = -np.expm1(-slow * tau) + eps * np.expm1(-gpar_b * tau)
    return CorrelationSeries(tau=tau, values=values)


def g2_resonant_analytic(branch: Branch, rates: BranchRates,
                         tau_grid: np.ndarray) -> CorrelationSeries:
    """Two-photon coincidence of one branch under weak resonant driving.

        g2(tau) = (gperp_b (1 - exp(-gpar_b tau))
                   - gpar_b (1 - exp(-gperp_b tau))) / (gperp_b - gpar_b)

    When the two rates coincide to within ``DEGENERATE_RATE_TOL`` the
    removable singularity is replaced by its limit
    ``1 - (1 + gpar_b tau) exp(-gpar_b tau)``.
    """
    tau = check_grid(tau_grid, "tau_grid")
    ch = rates.branch(branch)
    gpar_b, gperp_b = ch.gpar, ch.gperp
    if not (gpar_b > 0.0 and gperp_b > 0.0):
        raise ParameterError(
            f"branch rates must be positive, got gpar={gpar_b}, gperp={gperp_b}"
        )
    if abs(gperp_b - gpar_b) < DEGENERATE_RATE_TOL * gpar_b:
        values = 1.0 - (1.0 + gpar_b * tau) * np.exp(-gpar_b * tau)
    else:
        values = (-gperp_b * np.expm1(-gpar_b * tau)
                  + gpar_b * np.expm1(-gperp_b * tau)) / (gperp_b - gpar_b)
    return CorrelationSeries(tau=tau, values=values)
