import math

import numpy as np
import pytest

from spinboson_nrg import (
    DomainError,
    KondoParams,
    NRGConfig,
    OperatorBlocks,
    Sector,
    SpinBosonPoint,
    add_site,
    build_chain,
    entanglement_entropy,
    exact_ground,
    find_alpha_max,
    ground_expectation_raw,
    init_impurity_site,
    init_operator_blocks,
    map_to_kondo,
    propagate,
    run,
    truncate,
)
import spinboson_nrg.sweep as sweep_mod
from spinboson_nrg.oracle import sector_hamiltonians, spin_flip_matrix

GENERIC = KondoParams(rho0_jperp=0.1, rho0_jpar=0.6, field=0.05)


def _trajectory(k, chain, sites, n_keep=None):
    st = init_impurity_site(k)
    ops = init_operator_blocks(st)
    for _ in range(sites - 1):
        st = add_site(st, chain)
        if n_keep is not None:
            st = truncate(st, n_keep)
        ops = propagate(ops, st)
    return st, ops


class TestInitOperatorBlocks:
    def test_spin_flip_structure(self):
        st = init_impurity_site(GENERIC)
        ops = init_operator_blocks(st)
        # only the two-dimensional (0, 0) sector hosts the spin flip
        center = (Sector(0, 0), Sector(0, 0))
        assert np.allclose(np.abs(np.linalg.eigvalsh(ops.ox[center])), [1.0, 1.0])
        for key, m in ops.ox.items():
            assert key[0] == key[1]
            if key != center:
                assert np.max(np.abs(m)) < 1e-14

    def test_impurity_sz_diagonal(self):
        st = init_impurity_site(GENERIC)
        ops = init_operator_blocks(st)
        for sec in st.blocks:
            w = np.linalg.eigvalsh(ops.oz[(sec, sec)])
            assert np.all(np.isin(np.round(2 * w), [-1, 1]))

    def test_blocks_symmetric(self):
        st = init_impurity_site(GENERIC)
        ops = init_operator_blocks(st)
        for m in list(ops.ox.values()) + list(ops.oz.values()):
            assert np.max(np.abs(m - m.T)) < 1e-14


class TestPropagate:
    def test_identity_stays_identity(self):
        chain = build_chain(2.0, 4)
        st = init_impurity_site(GENERIC)
        eye = {(s, s): np.eye(b.kept) for s, b in st.blocks.items()}
        ops = OperatorBlocks(n=0, ox=dict(eye), oz=dict(eye))
        for _ in range(3):
            st = add_site(st, chain)
            st = truncate(st, 100)
            ops = propagate(ops, st)
            for s, b in st.blocks.items():
                assert np.max(np.abs(ops.ox[(s, s)] - np.eye(b.kept))) < 1e-12

    def test_hermiticity_preserved_long_run(self):
        p = SpinBosonPoint(alpha=0.4, epsilon=0.1, delta_ratio=0.04)
        k = map_to_kondo(p)
        chain = build_chain(2.0, 51)
        st = init_impurity_site(k)
        ops = init_operator_blocks(st)
        for _ in range(50):
            st = add_site(st, chain)
            st = truncate(st, 150)
            ops = propagate(ops, st)
        worst = max(
            float(np.max(np.abs(m - m.T)))
            for blocks in (ops.ox, ops.oz)
            for m in blocks.values()
        )
        assert worst < 1e-9

    def test_untruncated_blocks_match_direct_evaluation(self):
        # basis-independent data: the per-sector spectrum of the operator
        # restricted to the sector, computed directly in the oracle basis
        chain = build_chain(2.0, 3)
        st, ops = _trajectory(GENERIC, chain, 3)
        hams, basis = sector_hamiltonians(GENERIC, chain, 3)
        for sec in st.blocks:
            direct = spin_flip_matrix(basis, sec)
            # a missing block is a zero block
            m = ops.ox.get((sec, sec), np.zeros_like(direct))
            w_prop = np.linalg.eigvalsh(m)
            w_direct = np.linalg.eigvalsh(direct)
            assert np.max(np.abs(w_prop - w_direct)) < 1e-10

    def test_wrong_iteration_rejected(self):
        chain = build_chain(2.0, 3)
        st = init_impurity_site(GENERIC)
        ops = init_operator_blocks(st)
        st = add_site(st, chain)
        st = add_site(st, chain)
        with pytest.raises(ValueError, match="propagate"):
            propagate(ops, st)


class TestExpectationValues:
    def test_matches_oracle_raw(self):
        chain = build_chain(2.0, 4)
        st, ops = _trajectory(GENERIC, chain, 4)
        exact = exact_ground(GENERIC, chain, 4)
        sx_raw, sz_raw = ground_expectation_raw(st, ops)
        assert sx_raw == pytest.approx(exact.sx_raw, abs=1e-10)
        assert sz_raw == pytest.approx(exact.sz_raw, abs=1e-10)

    def test_sign_convention(self):
        # run alone flips the raw read-out of the last iteration
        p = SpinBosonPoint(alpha=0.5, epsilon=0.25, delta_ratio=0.1)
        _, report = run(p, NRGConfig(n_max=8))
        assert not report.even_odd_averaged
        n, sx_raw, sz_raw = report.history[-1]
        assert n == report.n_m
        assert report.sx == -sx_raw and report.sz == -sz_raw
        assert report.sx > 0.0 and report.sz > 0.0  # figure convention

    def test_energy_derivative_identity_alpha_02(self):
        # correlator vs central difference of the chain ground energy, on
        # identical chain lengths, within 1%
        from dataclasses import replace

        p = SpinBosonPoint(alpha=0.2, epsilon=0.0, delta_ratio=0.04)
        k = map_to_kondo(p)
        cfg = NRGConfig()
        _, report = run(p, cfg)

        def e0(kk):
            chain = build_chain(cfg.lam, report.n_m)
            st = init_impurity_site(kk)
            for _ in range(report.n_m):
                st = add_site(st, chain)
                st = truncate(st, cfg.n_keep)
            return st.e0_accumulated

        r = 1e-4
        deriv = (
            e0(replace(k, rho0_jperp=k.rho0_jperp * (1 + r)))
            - e0(replace(k, rho0_jperp=k.rho0_jperp * (1 - r)))
        ) / (r * k.jperp)
        assert abs(report.sx - (-deriv)) / abs(report.sx) <= 0.01


class TestEntanglementEntropy:
    def test_pure_product_state(self):
        assert entanglement_entropy(1.0, 0.0) == (1.0, 0.0, 0.0)

    def test_maximally_mixed(self):
        p_plus, p_minus, e = entanglement_entropy(0.0, 0.0)
        assert (p_plus, p_minus) == (0.5, 0.5)
        assert e == 1.0

    def test_norm_0p6(self):
        p_plus, p_minus, e = entanglement_entropy(0.6, 0.0)
        assert p_plus == pytest.approx(0.8, abs=1e-15)
        assert p_minus == pytest.approx(0.2, abs=1e-15)
        assert e == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_depends_only_on_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            norm = rng.uniform(0, 1)
            theta = rng.uniform(0, 2 * math.pi)
            e1 = entanglement_entropy(norm * math.cos(theta), norm * math.sin(theta))[2]
            e2 = entanglement_entropy(norm, 0.0)[2]
            assert abs(e1 - e2) < 1e-12

    def test_binary_entropy_symmetry(self):
        for norm in np.linspace(0, 1, 21):
            p_plus, p_minus, e = entanglement_entropy(float(norm), 0.0)
            h = 0.0
            for p in (p_minus, p_plus):  # swapped arguments, same entropy
                if p > 0:
                    h -= p * math.log2(p)
            assert abs(e - h) < 1e-15

    def test_clamp_and_error(self):
        # slightly over one is clamped, far over one is nonphysical
        assert entanglement_entropy(1.0 + 5e-7, 0.0)[2] == 0.0
        with pytest.raises(DomainError, match="nonphysical"):
            entanglement_entropy(1.1, 0.0)


class TestFindAlphaMax:
    @staticmethod
    def _fake_points(monkeypatch, entropy, unconverged=()):
        """Replace run_point by a record of entropy(alpha); the alphas in
        unconverged did not converge."""

        def fake(p, cfg):
            return sweep_mod._record(
                p, cfg, converged=p.alpha not in unconverged, entropy=entropy(p.alpha)
            )

        monkeypatch.setattr(sweep_mod, "run_point", fake)

    def test_zero_bias_rejected(self):
        with pytest.raises(DomainError, match="eps_over_delta"):
            find_alpha_max(0.0, 0.04, NRGConfig())

    def test_monotone_entropy_rejected(self, monkeypatch):
        self._fake_points(monkeypatch, lambda a: a)
        with pytest.raises(DomainError, match="no interior maximum"):
            find_alpha_max(0.1, 0.04, NRGConfig())

    def test_quadratic_profile_located(self, monkeypatch):
        self._fake_points(monkeypatch, lambda a: 1.0 - (a - 0.37) ** 2)
        result = find_alpha_max(0.1, 0.04, NRGConfig())
        assert abs(result.alpha_m - 0.37) <= 0.01
        assert result.entropy_max == pytest.approx(1.0, abs=1e-3)
        assert result.n_evaluations == len(result.evaluations)
        for alpha, rec in result.evaluations.items():
            assert rec.alpha == alpha
            assert rec.entropy == 1.0 - (alpha - 0.37) ** 2
        assert result.unconverged == ()

    def test_unconverged_evaluations_reported(self, monkeypatch):
        self._fake_points(monkeypatch, lambda a: 1.0 - (a - 0.37) ** 2, (0.3,))
        result = find_alpha_max(0.1, 0.04, NRGConfig())
        assert 0.3 in result.evaluations
        assert result.unconverged == (0.3,)
