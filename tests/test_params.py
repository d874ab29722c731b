import math
import warnings

import numpy as np
import pytest

from spinboson_nrg import (
    DomainError,
    KondoParams,
    SpinBosonPoint,
    map_to_kondo,
    noninteracting_reference,
    renormalized_tunneling,
)
from spinboson_nrg.params import OMEGA_C, log_renormalized_tunneling


class TestSpinBosonPoint:
    def test_valid_point(self):
        p = SpinBosonPoint(alpha=0.5, epsilon=0.1, delta_ratio=0.04)
        assert OMEGA_C == 2.0
        assert p.delta_abs == pytest.approx(0.08)
        assert p.epsilon_abs == pytest.approx(0.008)

    @pytest.mark.parametrize(
        "alpha", [-0.1, 0.0, 1.0, 1.2, math.nan, math.inf, -math.inf]
    )
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(DomainError, match="dissipation sector"):
            SpinBosonPoint(alpha=alpha, epsilon=0.0, delta_ratio=0.04)

    @pytest.mark.parametrize(
        "ratio", [0.0, -0.01, 0.11, 0.5, math.nan, math.inf, -math.inf]
    )
    def test_delta_ratio_out_of_range(self, ratio):
        with pytest.raises(DomainError):
            SpinBosonPoint(alpha=0.5, epsilon=0.0, delta_ratio=ratio)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DomainError):
            SpinBosonPoint(alpha=0.5, epsilon=-0.1, delta_ratio=0.04)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(DomainError, match="finite"):
            SpinBosonPoint(alpha=0.5, epsilon=eps, delta_ratio=0.04)


class TestKondoParams:
    def test_absolute_couplings(self):
        k = KondoParams(rho0_jperp=0.04, rho0_jpar=0.8, field=0.0)
        assert k.jperp == pytest.approx(0.08)
        assert k.jpar == pytest.approx(1.6)

    def test_ferromagnetic_rejected(self):
        with pytest.raises(DomainError):
            KondoParams(rho0_jperp=0.04, rho0_jpar=-0.5, field=0.0)
        with pytest.raises(DomainError):
            KondoParams(rho0_jperp=0.04, rho0_jpar=0.0, field=0.0)

    @pytest.mark.parametrize("jperp", [0.0, -0.04])
    def test_non_positive_jperp_rejected(self, jperp):
        with pytest.raises(DomainError, match="rho0_jperp=.* must be > 0"):
            KondoParams(rho0_jperp=jperp, rho0_jpar=0.8, field=0.0)

    def test_longitudinal_flag(self):
        assert KondoParams(0.04, 0.8, 0.0).in_longitudinal_sector
        assert not KondoParams(0.8, 0.04, 0.0).in_longitudinal_sector

    @pytest.mark.parametrize("name", ["rho0_jperp", "rho0_jpar", "field"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected(self, name, value):
        values = {"rho0_jperp": 0.1, "rho0_jpar": 0.6, "field": 0.05, name: value}
        with pytest.raises(DomainError, match="finite"):
            KondoParams(**values)

    def test_negative_field_allowed(self):
        assert KondoParams(0.1, 0.6, -0.05).field == -0.05


class TestMapToKondo:
    def test_quarter_alpha_exact(self):
        # delta = -pi/4, tan(pi/4) = 1, so rho0_jpar = 4/pi
        k = map_to_kondo(SpinBosonPoint(alpha=0.25, epsilon=0.0, delta_ratio=0.04))
        assert k.rho0_jpar == pytest.approx(4.0 / math.pi, rel=1e-12)
        assert k.rho0_jperp == 0.04
        assert k.field == 0.0

    def test_transverse_coupling_equals_tunneling(self):
        # wc = 2 makes J_perp equal the bare tunneling amplitude
        p = SpinBosonPoint(alpha=0.3, epsilon=0.5, delta_ratio=0.04)
        k = map_to_kondo(p)
        assert k.jperp == pytest.approx(p.delta_abs, rel=1e-14)
        assert k.field == pytest.approx(0.5 * 0.08, rel=1e-14)

    @pytest.mark.filterwarnings("ignore:.*longitudinal.*:UserWarning")
    def test_alpha_near_one_gives_weak_jpar(self):
        k = map_to_kondo(SpinBosonPoint(alpha=1 - 1e-9, epsilon=0.0, delta_ratio=0.04))
        assert 0.0 < k.rho0_jpar < 1e-8

    @pytest.mark.filterwarnings("ignore:.*longitudinal.*:UserWarning")
    def test_jpar_strictly_decreasing_in_alpha(self):
        alphas = np.linspace(0.02, 0.98, 49)
        jpars = [
            map_to_kondo(SpinBosonPoint(alpha=float(a), epsilon=0.0, delta_ratio=0.04)).rho0_jpar
            for a in alphas
        ]
        assert all(a > b for a, b in zip(jpars, jpars[1:]))

    def test_jpar_diverges_at_small_alpha(self):
        k = map_to_kondo(SpinBosonPoint(alpha=1e-8, epsilon=0.0, delta_ratio=0.04))
        assert k.rho0_jpar > 1e3

    def test_leaving_longitudinal_sector_warns(self):
        with pytest.warns(UserWarning, match="longitudinal"):
            k = map_to_kondo(SpinBosonPoint(alpha=0.99, epsilon=0.0, delta_ratio=0.04))
        assert not k.in_longitudinal_sector


class TestRenormalizedTunneling:
    def test_exact_square_at_half(self):
        p = SpinBosonPoint(alpha=0.5, epsilon=0.0, delta_ratio=0.04)
        assert renormalized_tunneling(p) == pytest.approx(2.0 * 0.04**2, rel=1e-14)

    def test_small_alpha_limit(self):
        p = SpinBosonPoint(alpha=1e-12, epsilon=0.0, delta_ratio=0.04)
        assert renormalized_tunneling(p) == pytest.approx(0.08, rel=1e-9)

    def test_alpha_09_power_ten(self):
        p = SpinBosonPoint(alpha=0.9, epsilon=0.0, delta_ratio=0.04)
        assert renormalized_tunneling(p) / OMEGA_C == pytest.approx(1.048576e-14, rel=1e-9)

    def test_strictly_decreasing_in_alpha(self):
        values = [
            renormalized_tunneling(SpinBosonPoint(alpha=a, epsilon=0.0, delta_ratio=0.04))
            for a in np.linspace(0.05, 0.95, 19)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_below_float_range_reads_zero_without_warning(self):
        p = SpinBosonPoint(alpha=1 - 1e-9, epsilon=0.0, delta_ratio=0.04)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dr = renormalized_tunneling(p)
            log_dr = log_renormalized_tunneling(p)
        assert dr == 0.0
        assert math.isfinite(log_dr)
        assert log_dr == pytest.approx(math.log(OMEGA_C) + 1e9 * math.log(0.04))


class TestNoninteractingReference:
    def test_symmetric(self):
        assert noninteracting_reference(0.08, 0.0) == (1.0, 0.0)

    def test_equal_bias(self):
        sx, sz = noninteracting_reference(0.08, 0.08)
        assert sx == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        assert sz == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_triple_bias(self):
        # (1, 3)/sqrt(10)
        sx, sz = noninteracting_reference(0.08, 0.24)
        assert sx == pytest.approx(0.31622776601683794, rel=1e-12)
        assert sz == pytest.approx(0.9486832980505138, rel=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d, e = rng.uniform(1e-3, 5.0), rng.uniform(0.0, 5.0)
            sx, sz = noninteracting_reference(float(d), float(e))
            assert abs(math.hypot(sx, sz) - 1.0) < 1e-14

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            noninteracting_reference(0.0, 0.1)
        with pytest.raises(DomainError):
            noninteracting_reference(0.1, -0.1)
