import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from plexciton import (
    Branch,
    ParameterError,
    PhotonStream,
    Scenario,
    SystemParams,
    TrajectoryConfig,
    branch_drive_rabi,
    branch_rates,
    dressed_basis,
    emission_rate,
    g1_analytic,
    g2_histogram,
    g2_nonresonant_analytic,
    g2_resonant_analytic,
    regression_g2_nonresonant_numeric,
    spectrum_analytic,
    steady_state_analytic,
)

from conftest import random_params


def make_params(**overrides):
    base = dict(omega0=1.0, omega1=-1.0, v0=1.0, gamma_r=1.0, gamma_nr=0.0,
                gamma_perp=0.5, gamma_u=0.01, pump_r=0.01)
    base.update(overrides)
    return SystemParams(**base)


def basis_at(v0, delta):
    """The dressed basis at coupling ``v0`` and detuning ``delta``."""
    return dressed_basis(make_params(omega0=delta, omega1=-delta, v0=v0))


# The ratio delta / v0 within which dressed_basis accepts the mixing: at
# 400 the smaller branch weight is about 1.6e-6, above MIN_BRANCH_WEIGHT.
ACCEPTED_RATIO = st.floats(-400.0, 400.0)


class TestMixingAngle:
    def test_equal_coupling_and_detuning(self):
        assert basis_at(1.0, 1.0).theta == pytest.approx(math.pi / 8,
                                                         abs=1e-15)

    def test_zero_detuning_gives_quarter_pi(self):
        assert basis_at(2.0, 0.0).theta == pytest.approx(math.pi / 4,
                                                         abs=1e-15)

    def test_three_four_five_triangle(self):
        assert basis_at(4.0, 3.0).theta == pytest.approx(0.46364760900080615,
                                                         abs=1e-12)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ParameterError, match="v0"):
            basis_at(0.0, 1.0)
        with pytest.raises(ParameterError, match="v0"):
            basis_at(-1.0, 1.0)

    def test_continuous_through_zero_detuning(self):
        eps = 1e-12
        assert abs(basis_at(1.0, eps).theta - basis_at(1.0, -eps).theta) < 1e-11

    @given(v0=st.floats(1e-6, 1e6), ratio=ACCEPTED_RATIO)
    def test_branch_swap_symmetry(self, v0, ratio):
        delta = v0 * ratio
        total = basis_at(v0, delta).theta + basis_at(v0, -delta).theta
        assert total == pytest.approx(math.pi / 2, abs=1e-12)

    @given(v0=st.floats(1e-6, 1e6), ratio=ACCEPTED_RATIO)
    def test_range_is_open_interval(self, v0, ratio):
        assert 0.0 < basis_at(v0, v0 * ratio).theta < math.pi / 2


class TestRabiSplitting:
    def test_pythagorean(self):
        assert basis_at(4.0, 3.0).omega_rabi == 5.0

    def test_zero_detuning(self):
        assert basis_at(7.5, 0.0).omega_rabi == 7.5

    def test_equal_inputs(self):
        assert basis_at(1.0, 1.0).omega_rabi == pytest.approx(math.sqrt(2),
                                                              rel=1e-15)


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
        assert params.delta == 1.0
        assert basis.theta == pytest.approx(math.pi / 8, abs=1e-15)
        assert basis.omega_rabi == pytest.approx(math.sqrt(2), rel=1e-15)
        assert basis.omega_minus == pytest.approx(10 - math.sqrt(2), rel=1e-14)
        assert basis.omega_plus == pytest.approx(10 + math.sqrt(2), rel=1e-14)
        block = np.array([[params.delta, params.v0], [params.v0, -params.delta]])
        lo, hi = np.linalg.eigvalsh(block)
        center = (params.omega0 + params.omega1) / 2
        assert basis.omega_minus - center == pytest.approx(lo, rel=1e-12)
        assert basis.omega_plus - center == pytest.approx(hi, rel=1e-12)

    def test_eigenvalue_consistency_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = random_params(rng)
            basis = dressed_basis(params)
            block = np.array([[params.delta, params.v0],
                              [params.v0, -params.delta]])
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

    def test_refuses_a_doublet_past_the_float_range(self):
        # The centre 0.5 * (omega0 + omega1) overflows.
        with pytest.raises(ParameterError,
                           match=r"^omega_minus must be finite, got inf$"):
            dressed_basis(make_params(omega0=1.7e308, omega1=1.7e308))
        basis = dressed_basis(make_params())
        for name in ("omega_minus", "omega_plus"):
            with pytest.raises(ParameterError, match=f"^{name} must be finite"):
                dataclasses.replace(basis, **{name: math.nan})


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
                assert ch.gpar == ch.grad + params.gamma_nr * basis.weight(branch)
                assert ch.dipole_w == basis.weight(branch)

    # One hostile value per field _check_branch_rates leaves to the rules.
    @pytest.mark.parametrize("field, bad, rule", [
        ("grad_minus", "x", "finite and >= 0"),
        ("grad_plus", -1.0, "finite and >= 0"),
        ("gfeed_minus", math.nan, "finite and >= 0"),
        ("gfeed_plus", math.inf, "finite and >= 0"),
        ("dipole_w_minus", 1.5, "in [0, 1]"),
        ("dipole_w_plus", None, "in [0, 1]"),
    ])
    def test_refuses_each_hostile_field(self, field, bad, rule):
        rates = branch_rates(make_params(), dressed_basis(make_params()))
        with pytest.raises(ParameterError, match=(
                f"^{field} must be {re.escape(rule)}")):
            dataclasses.replace(rates, **{field: bad})


class TestSystemParams:
    def test_rejects_negative_rate(self):
        with pytest.raises(ParameterError, match="gamma_r"):
            make_params(gamma_r=-0.1)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ParameterError, match="v0"):
            make_params(v0=0.0)
        with pytest.raises(ParameterError, match="v0"):
            make_params(v0=-1.0)

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

    # Wrong types and unknown scenarios: the field, its value and the whole
    # message.
    @pytest.mark.parametrize("name, value, message", [
        ("v0", "1", "v0 must be positive and finite, got '1'"),
        ("omega0", "1", "omega0 must be finite, got '1'"),
        ("gamma_r", "1", "gamma_r must be finite and >= 0, got '1'"),
        ("pump_r", None, "pump_r must be finite and >= 0, got None"),
        ("gamma_perp", 1j, "gamma_perp must be finite and >= 0, got 1j"),
        ("omega_l_rabi", "0.1",
         "omega_l_rabi must be finite and >= 0, got '0.1'"),
        ("scenario", "bogus",
         "scenario must be one of 'nonresonant', 'resonant', got 'bogus'"),
        ("scenario", "RESONANT",
         "scenario must be one of 'nonresonant', 'resonant', got 'RESONANT'"),
        ("scenario", Branch.MINUS, "scenario must be one of 'nonresonant', "
         "'resonant', got <Branch.MINUS: 'minus'>"),
        # Integers too large for a float.
        ("v0", 10 ** 400, f"v0 must be positive and finite, got {10 ** 400}"),
        ("omega0", 10 ** 400, f"omega0 must be finite, got {10 ** 400}"),
        ("pump_r", 10 ** 400,
         f"pump_r must be finite and >= 0, got {10 ** 400}"),
    ], ids=["v0-str", "omega0-str", "gamma_r-str", "pump_r-none",
            "gamma_perp-complex", "omega_l_rabi-str", "scenario-unknown",
            "scenario-upper-case", "scenario-branch", "v0-huge-int",
            "omega0-huge-int", "pump_r-huge-int"])
    def test_refuses_wrong_types_and_unknown_scenario(self, name, value,
                                                       message):
        with pytest.raises(ParameterError) as info:
            make_params(**{name: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("scenario", list(Scenario) + ["resonant"])
    def test_scenario_is_stored_as_member(self, scenario):
        params = make_params(scenario=scenario)
        assert params.scenario is Scenario(scenario)

    def test_numpy_scalars_are_real_numbers(self):
        assert make_params(v0=np.float32(1.0), gamma_u=np.int64(0)).v0 == 1.0

    def test_quantum_yield(self):
        assert make_params(gamma_r=1.0, gamma_nr=3.0,
                           gamma_perp=2.0).quantum_yield == 0.25
        assert make_params(gamma_nr=0.0).quantum_yield == 1.0
        assert make_params(gamma_r=0.0, gamma_nr=0.0,
                           gamma_perp=0.0).quantum_yield == 0.0


class TestBranchDrive:
    def test_scales_with_dipole_amplitude(self):
        params = make_params(omega_l_rabi=0.3)
        basis = dressed_basis(params)
        minus = branch_drive_rabi(params, basis, Branch.MINUS)
        plus = branch_drive_rabi(params, basis, Branch.PLUS)
        assert minus == pytest.approx(0.3 * math.cos(math.pi / 8), rel=1e-14)
        assert plus == pytest.approx(0.3 * math.sin(math.pi / 8), rel=1e-14)
        assert minus ** 2 + plus ** 2 == pytest.approx(0.09, rel=1e-14)



def _branch_calls():
    """Name -> (call taking a branch, check of ``call(None)`` or None when
    None is refused)."""
    params = make_params()
    basis = dressed_basis(params)
    rates = branch_rates(params, basis)
    steady = steady_state_analytic(rates, params.pump_r)
    tau = np.linspace(0.0, 50.0, 11)
    omega = np.linspace(-3.0, 3.0, 11)
    rng = np.random.default_rng(5)
    times = np.sort(rng.uniform(0.0, 1e5, 30000))
    stream = PhotonStream(times, (np.arange(times.size) % 5 < 2).astype(
        np.int8), 1e5)  # 18000 minus and 12000 plus photons
    edges = np.linspace(0.0, 20.0, 5)
    return {
        "omega": (basis.omega, None),
        "weight": (basis.weight, None),
        "rates": (rates.branch, None),
        "populations": (steady.branch, None),
        "g1": (lambda b: g1_analytic(b, rates, steady, basis, tau), None),
        "spectrum": (lambda b: spectrum_analytic(b, rates, steady, basis,
                                                 omega), None),
        "g2-nonresonant": (lambda b: g2_nonresonant_analytic(
            b, rates, params.pump_r, params.gamma_u, tau), None),
        "g2-resonant": (lambda b: g2_resonant_analytic(b, rates, tau), None),
        "regression": (lambda b: regression_g2_nonresonant_numeric(
            rates, params.pump_r, b, tau), None),
        # None: the photons of both branches.
        "emission-rate": (lambda b: emission_rate(stream, b),
                          lambda est: est.n_photons == 30000),
        "histogram": (lambda b: g2_histogram(stream, b, edges),
                      lambda hist: np.isfinite(hist.values).all()),
        # None: no filter.
        "branch-filter": (lambda b: TrajectoryConfig(
            duration=1.0, branch_filter=b).branch_filter,
                          lambda value: value is None),
    }


BRANCH_CALLS = _branch_calls()


class TestBranchRule:
    """Every per-branch lookup takes a Branch or its value and nothing else."""

    @pytest.mark.parametrize("name", BRANCH_CALLS)
    def test_member_and_value_give_the_same_bits(self, name):
        call, _ = BRANCH_CALLS[name]
        by_member = [pickle.dumps(call(branch)) for branch in Branch]
        by_value = [pickle.dumps(call(branch.value)) for branch in Branch]
        assert by_value == by_member
        assert by_member[0] != by_member[1]

    @pytest.mark.parametrize("bad", ["both", "MINUS", 0, 1.5])
    @pytest.mark.parametrize("name", BRANCH_CALLS)
    def test_anything_else_is_refused_naming_the_value(self, name, bad):
        call, _ = BRANCH_CALLS[name]
        with pytest.raises(ParameterError, match=re.escape(
                f"branch must be one of 'minus', 'plus', got {bad!r}")):
            call(bad)

    @pytest.mark.parametrize("name", BRANCH_CALLS)
    def test_none_keeps_its_documented_meaning(self, name):
        call, check = BRANCH_CALLS[name]
        if check is None:
            with pytest.raises(ParameterError, match="got None"):
                call(None)
        else:
            assert check(call(None))

    def test_filter_is_stored_as_member(self):
        assert TrajectoryConfig(duration=1.0,
                                branch_filter="plus").branch_filter is Branch.PLUS
