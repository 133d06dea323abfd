import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from plexciton import (
    Branch,
    ParameterError,
    SystemParams,
    branch_drive_rabi,
    branch_rates,
    dressed_basis,
    mixing_angle,
    rabi_splitting,
)

from conftest import random_params


def make_params(**overrides):
    base = dict(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0, gamma_nr=0.0,
                gamma_perp=0.5, gamma_u=0.01, pump_r=0.01)
    base.update(overrides)
    return SystemParams(**base)


class TestMixingAngle:
    def test_equal_coupling_and_detuning(self):
        assert mixing_angle(1.0, 1.0) == pytest.approx(math.pi / 8, abs=1e-15)

    def test_zero_detuning_gives_quarter_pi(self):
        assert mixing_angle(2.0, 0.0) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_three_four_five_triangle(self):
        assert mixing_angle(4.0, 3.0) == pytest.approx(0.46364760900080615,
                                                       abs=1e-12)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ParameterError):
            mixing_angle(0.0, 1.0)
        with pytest.raises(ParameterError):
            mixing_angle(-1.0, 1.0)

    def test_continuous_through_zero_detuning(self):
        eps = 1e-12
        assert abs(mixing_angle(1.0, eps) - mixing_angle(1.0, -eps)) < 1e-11

    @given(v0=st.floats(1e-6, 1e6), delta=st.floats(-1e6, 1e6,
                                                    allow_nan=False))
    def test_branch_swap_symmetry(self, v0, delta):
        total = mixing_angle(v0, delta) + mixing_angle(v0, -delta)
        assert total == pytest.approx(math.pi / 2, abs=1e-12)

    @given(v0=st.floats(1e-6, 1e6), delta=st.floats(-1e6, 1e6))
    def test_range_is_open_interval(self, v0, delta):
        theta = mixing_angle(v0, delta)
        assert 0.0 < theta < math.pi / 2


class TestRabiSplitting:
    def test_pythagorean(self):
        assert rabi_splitting(4.0, 3.0) == 5.0

    def test_zero_detuning(self):
        assert rabi_splitting(7.5, 0.0) == 7.5

    def test_equal_inputs(self):
        assert rabi_splitting(1.0, 1.0) == pytest.approx(math.sqrt(2), rel=1e-15)


class TestDressedBasis:
    def test_resonant_doublet(self):
        params = make_params(omega0=10.0, omega1=10.0, v0=2.0)
        basis = dressed_basis(params)
        assert basis.omega_minus == pytest.approx(8.0, abs=1e-12)
        assert basis.omega_plus == pytest.approx(12.0, abs=1e-12)
        assert basis.theta == pytest.approx(math.pi / 4, abs=1e-15)

    def test_against_eigendecomposition(self):
        # Independent oracle: eigenvalues of the 2x2 one-excitation block.
        params = make_params(omega0=11.0, omega1=9.0, v0=1.0)
        basis = dressed_basis(params)
        assert basis.delta == 1.0
        assert basis.theta == pytest.approx(math.pi / 8, abs=1e-15)
        assert basis.omega_rabi == pytest.approx(math.sqrt(2), rel=1e-15)
        assert basis.omega_minus == pytest.approx(10 - math.sqrt(2), rel=1e-14)
        assert basis.omega_plus == pytest.approx(10 + math.sqrt(2), rel=1e-14)
        block = np.array([[basis.delta, params.v0], [params.v0, -basis.delta]])
        lo, hi = np.linalg.eigvalsh(block)
        center = (params.omega0 + params.omega1) / 2
        assert basis.omega_minus - center == pytest.approx(lo, rel=1e-12)
        assert basis.omega_plus - center == pytest.approx(hi, rel=1e-12)

    def test_eigenvalue_consistency_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = random_params(rng)
            basis = dressed_basis(params)
            block = np.array([[basis.delta, params.v0],
                              [params.v0, -basis.delta]])
            lo, hi = np.linalg.eigvalsh(block)
            assert basis.omega_rabi == pytest.approx(hi, rel=1e-12)
            assert -basis.omega_rabi == pytest.approx(lo, rel=1e-12)

    def test_weight_sum_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            basis = dressed_basis(random_params(rng))
            assert basis.w_minus + basis.w_plus == 1.0

    def test_degenerate_mixing_guard(self):
        with pytest.raises(ParameterError, match="one-sided"):
            dressed_basis(make_params(omega0=1.0, omega1=-1.0, v0=1e-4))


class TestBranchRates:
    def test_symmetric_mixing_halves(self):
        params = make_params(omega0=0.0, omega1=0.0, v0=1.0)  # theta = pi/4
        rates = branch_rates(params, dressed_basis(params))
        assert rates.gpar_minus == pytest.approx(0.5, rel=1e-15)
        assert rates.gpar_plus == pytest.approx(0.5, rel=1e-15)

    def test_pi_over_8_splitting(self):
        params = make_params()  # theta = pi/8, gamma_par = 1
        rates = branch_rates(params, dressed_basis(params))
        assert rates.gpar_minus == pytest.approx((2 + math.sqrt(2)) / 4, rel=1e-14)
        assert rates.gpar_plus == pytest.approx((2 - math.sqrt(2)) / 4, rel=1e-14)

    def test_feeding_is_cross_assigned(self):
        params = make_params(gamma_u=1.0)  # theta = pi/8
        rates = branch_rates(params, dressed_basis(params))
        assert rates.gfeed_minus == pytest.approx((2 - math.sqrt(2)) / 4, rel=1e-14)
        assert rates.gfeed_plus == pytest.approx((2 + math.sqrt(2)) / 4, rel=1e-14)

    def test_sum_rules_random(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            params = random_params(rng)
            rates = branch_rates(params, dressed_basis(params))
            gpar = params.gamma_r + params.gamma_nr
            assert rates.gpar_minus + rates.gpar_plus == pytest.approx(
                gpar, rel=1e-14)
            assert rates.gperp_minus + rates.gperp_plus == pytest.approx(
                params.gamma_perp, rel=1e-14)
            assert rates.gfeed_minus + rates.gfeed_plus == pytest.approx(
                params.gamma_u, rel=1e-14)

    def test_branch_decomposition_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            params = random_params(rng)
            basis = dressed_basis(params)
            rates = branch_rates(params, basis)
            for branch in Branch:
                ch = rates.branch(branch)
                assert ch.gpar == ch.grad + ch.gnr
                assert ch.dipole_w == basis.weight(branch)


class TestSystemParams:
    def test_rejects_negative_rate(self):
        with pytest.raises(ParameterError, match="gamma_r"):
            make_params(gamma_r=-0.1)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ParameterError, match="v0"):
            make_params(v0=0.0)

    @pytest.mark.parametrize("name", ["omega0", "omega1", "v0"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_frequency(self, name, value):
        with pytest.raises(ParameterError, match=name):
            make_params(**{name: value})

    def test_rejects_subphysical_dephasing(self):
        with pytest.raises(ParameterError, match="gamma_perp"):
            make_params(gamma_r=1.0, gamma_nr=1.0, gamma_perp=0.9)

    def test_dephasing_bound_is_inclusive(self):
        make_params(gamma_r=1.0, gamma_nr=0.0, gamma_perp=0.5)

    def test_quantum_yield(self):
        assert make_params(gamma_r=1.0, gamma_nr=3.0,
                           gamma_perp=2.0).quantum_yield == 0.25
        assert make_params(gamma_nr=0.0).quantum_yield == 1.0


class TestBranchDrive:
    def test_scales_with_dipole_amplitude(self):
        params = make_params(omega_l_rabi=0.3)
        basis = dressed_basis(params)
        minus = branch_drive_rabi(params, basis, Branch.MINUS)
        plus = branch_drive_rabi(params, basis, Branch.PLUS)
        assert minus == pytest.approx(0.3 * math.cos(math.pi / 8), rel=1e-14)
        assert plus == pytest.approx(0.3 * math.sin(math.pi / 8), rel=1e-14)
        assert minus ** 2 + plus ** 2 == pytest.approx(0.09, rel=1e-14)
