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
from .model import Branch, BranchRates, DressedBasis, _numbers, _real, check_grid
from .rate_dynamics import Populations


@dataclass(frozen=True)
class CorrelationSeries:
    """A correlation function sampled on a nonnegative lag grid.

    Estimated series (from photon streams) carry per-bin standard errors;
    analytic ones do not.  A ``values`` or ``stderr`` entry that is not
    finite, and a negative ``stderr`` entry, is refused.
    """

    tau: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        tau = check_grid(self.tau, "tau")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "values", _numbers(
            self.values, "values", complex_ok=True, finite=True))
        if self.stderr is not None:
            object.__setattr__(self, "stderr",
                               _numbers(self.stderr, "stderr", finite=True))
        if self.values.shape != tau.shape:
            raise ParameterError("values and tau must have matching shapes")
        if self.stderr is not None and self.stderr.shape != tau.shape:
            raise ParameterError("stderr and tau must have matching shapes")
        if self.stderr is not None and (self.stderr < 0.0).any():
            raise ParameterError("stderr must be nonnegative")


@dataclass(frozen=True)
class SpectrumSeries:
    """A nonnegative, finite spectral density sampled on a frequency grid."""

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        omega = check_grid(self.omega, "omega", nonnegative=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values",
                           _numbers(self.values, "values", finite=True))
        if self.values.shape != omega.shape:
            raise ParameterError("values and omega must have matching shapes")
        if (self.values < 0.0).any():
            raise ParameterError("spectral density must be nonnegative")


def g1_analytic(branch: Branch, rates: BranchRates, steady: Populations,
                basis: DressedBasis, tau_grid: np.ndarray) -> CorrelationSeries:
    """First-order coherence of one branch in the stationary regime.

    ``g1(tau) = p_b(inf) * exp(-(gperp_b + i * omega_b) * tau)``; negative
    lags follow by complex conjugation and are not tabulated.
    """
    tau = check_grid(tau_grid, "tau_grid")
    decay = rates.branch(branch).gperp + 1j * basis.omega(branch)
    _real("tau[-1] * |gperp_b + i omega_b|", float(tau[-1]) * abs(decay), "finite")
    values = steady.branch(branch) * np.exp(-decay * tau)
    return CorrelationSeries(tau=tau, values=values)


def spectrum_analytic(branch: Branch, rates: BranchRates, steady: Populations,
                      basis: DressedBasis,
                      omega_grid: np.ndarray) -> SpectrumSeries:
    """Lorentzian emission line of one branch, without the dipole weight."""
    omega = check_grid(omega_grid, "omega_grid", nonnegative=False)
    ch = rates.branch(branch)
    pop = steady.branch(branch)
    with np.errstate(over="ignore"):  # 1/inf is exact
        values = 2.0 * ch.gperp * pop / ((omega - basis.omega(branch)) ** 2
                                         + ch.gperp ** 2)
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


def spectrum_fft_check(g1: CorrelationSeries) -> SpectrumSeries:
    """Discrete-Fourier spectrum of a sampled first-order coherence.

    The series is extended to negative lags by conjugation and transformed
    with ``exp(+i omega tau)`` kernel, yielding a real spectrum on the grid
    ``2 pi k / (N dt)``.  That is one Hermitian transform: ``np.fft.hfft``
    of the conjugated samples.  Serves as an independent numerical
    cross-check of the closed-form Lorentzian.

    The caller must sample the carrier finely enough: the phase of ``g1``
    may turn by at most pi per sample.  A faster rotation is aliased onto a
    wrong line inside ``(-pi/dt, pi/dt]``, and the samples cannot show
    this, so no check here catches it.

    Raises
    ------
    ParameterError
        If the largest angular frequency ``pi / dt`` is not finite.
    ResolutionError
        If the grid is non-uniform, the series never decays to 1/e, or the
        grid is shorter than 20 decay times or coarser than 64 samples per
        decay time.  The decay time ``t_e = tau[j]`` is the first grid time
        at which ``|g1|`` is down to ``|g1(0)|/e``, and both are counted in
        samples: ``tau.size - 1 >= 20 j`` and ``j >= 64`` pass.
    """
    tau, values = g1.tau, g1.values
    if tau.size < 3:
        raise ResolutionError("need at least 3 samples")
    dts = np.diff(tau)
    dt = float(dts[0])
    if tau[0] != 0.0 or np.any(np.abs(dts - dt) > 1e-9 * dt):
        raise ResolutionError("tau grid must be uniform and start at 0")

    n = 2 * (tau.size - 1)
    _real("largest angular frequency pi / dt", math.pi / dt, "finite")
    omega = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n, dt))
    amplitudes = np.abs(values)
    if amplitudes[0] == 0.0:
        # Zero signal transforms to a zero spectrum on the natural grid.
        return SpectrumSeries(omega=omega, values=np.zeros(n))
    below = np.nonzero(amplitudes <= amplitudes[0] / math.e)[0]
    if below.size == 0:
        raise ResolutionError("series does not decay within the sampled span")
    j = int(below[0])  # t_e = tau[j], so t_e / dt is j
    if tau.size - 1 < 20 * j:
        raise ResolutionError(
            f"span {tau[-1]:.3g} is under 20 decay times (1/gamma ~ {tau[j]:.3g})")
    if j < 64:
        raise ResolutionError(
            f"spacing {dt:.3g} is coarser than 64 samples per decay time")

    density = dt * np.fft.fftshift(np.fft.hfft(np.conj(values), n))
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
    slow = (_real("pump_r", pump_r, "finite and >= 0")
            + _real("gamma_total", gamma_total, "finite and >= 0"))
    gpar_b = rates.branch(branch).gpar
    slowest = min(rates.gpar_minus, rates.gpar_plus)
    if slow >= slowest:
        warnings.warn(
            f"pump_r + gamma = {slow} is not small against the slower branch "
            f"decay rate {slowest}; the closed form is outside its regime",
            RegimeWarning,
            stacklevel=2,
        )
    eps = _real("(pump_r + gamma_total) / gpar_b", slow / gpar_b, "finite")
    with np.errstate(over="ignore"):  # exp(-inf) is exact
        values = -np.expm1(-slow * tau) + eps * np.expm1(-gpar_b * tau)
    return CorrelationSeries(tau=tau, values=values)


def g2_resonant_analytic(branch: Branch, rates: BranchRates,
                         tau_grid: np.ndarray) -> CorrelationSeries:
    """Two-photon coincidence of one branch under weak resonant driving.

        g2(tau) = (gperp_b (1 - exp(-gpar_b tau))
                   - gpar_b (1 - exp(-gperp_b tau))) / (gperp_b - gpar_b)

    Within 1% of each other the rates ``lo <= hi`` give the same form, which
    is symmetric in them, as ``1 - exp(-lo tau) (1 + lo tau phi1((lo - hi)
    tau))``, ``phi1(x) = expm1(x)/x``, which neither cancels nor overflows.
    """
    tau = check_grid(tau_grid, "tau_grid")
    ch = rates.branch(branch)
    gpar_b, gperp_b = ch.gpar, ch.gperp
    with np.errstate(over="ignore"):  # exp(-inf) is exact
        if abs(gperp_b - gpar_b) < 1e-2 * gpar_b:
            lo, hi = sorted((gpar_b, gperp_b))
            t = np.minimum(tau, 1e3 / lo)  # exp(-1e3) is 0; lo t stays finite
            x = (lo - hi) * t
            phi1 = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
            values = 1.0 - np.exp(-lo * t) * (1.0 + lo * t * phi1)
        else:
            values = (-gperp_b * np.expm1(-gpar_b * tau)
                      + gpar_b * np.expm1(-gperp_b * tau)) / (gperp_b - gpar_b)
    return CorrelationSeries(tau=tau, values=values)
