import math
from dataclasses import replace

import numpy as np
import pytest

from spinboson_nrg import (
    DomainError,
    KondoParams,
    NRGConfig,
    SpinBosonPoint,
    build_chain,
    entanglement_entropy,
    exact_ground,
    find_alpha_max,
    hellmann_feynman_check,
    map_to_kondo,
    run,
)
import spinboson_nrg.sweep as sweep_mod
from spinboson_nrg.engine import Sector, add_site, init_impurity_site, truncate
from spinboson_nrg.observables import (
    OperatorBlocks,
    ground_expectation_raw,
    init_operator_blocks,
    propagate,
)
from spinboson_nrg.oracle import _fock_space

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
        assert np.allclose(np.abs(np.linalg.eigvalsh(ops.blocks[center][0])), [1.0, 1.0])
        for key, m in ops.blocks.items():
            assert key[0] == key[1]
            if key != center:
                assert np.max(np.abs(m[0])) < 1e-14  # O_x is zero-filled there

    def test_impurity_sz_diagonal(self):
        st = init_impurity_site(GENERIC)
        ops = init_operator_blocks(st)
        for sec in st.blocks:
            w = np.linalg.eigvalsh(ops.blocks[(sec, sec)][1])
            assert np.all(np.isin(np.round(2 * w), [-1, 1]))

    def test_blocks_symmetric(self):
        st = init_impurity_site(GENERIC)
        ops = init_operator_blocks(st)
        for m in ops.blocks.values():  # both operators of each stacked block
            assert np.max(np.abs(m - np.swapaxes(m, 1, 2))) < 1e-14


class TestPropagate:
    def test_identity_stays_identity(self):
        chain = build_chain(2.0, 4)
        st = init_impurity_site(GENERIC)
        eye = {(s, s): np.eye(len(b.energies)) for s, b in st.blocks.items()}
        ops = OperatorBlocks(n=0, blocks={k: np.array([m, m]) for k, m in eye.items()})
        for _ in range(3):
            st = add_site(st, chain)
            st = truncate(st, 100)
            ops = propagate(ops, st)
            for s, b in st.blocks.items():
                assert np.max(np.abs(ops.blocks[(s, s)][0] - np.eye(len(b.energies)))) < 1e-12

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
            float(np.max(np.abs(m - np.swapaxes(m, 1, 2)))) for m in ops.blocks.values()
        )
        assert worst < 1e-9

    def test_untruncated_blocks_match_direct_evaluation(self):
        # basis-independent data: the per-sector spectrum of the operator
        # restricted to the sector, computed directly in the oracle basis.
        # O_x is an isospin scalar, so the charge sector q holds the spectrum
        # of every multiplet block with 2I >= |q| of the same parity
        chain = build_chain(2.0, 3)
        st, ops = _trajectory(GENERIC, chain, 3)
        _, ox, sectors = _fock_space(GENERIC, chain, 3)
        for sec, states in sectors.items():
            direct = ox[np.ix_(states, states)]
            w_prop = []
            for s in st.blocks:
                if s.two_sz == sec.two_sz and s.q >= abs(sec.q) and (s.q - sec.q) % 2 == 0:
                    # OperatorBlocks holds every sector's block, zeros included
                    w_prop.append(np.linalg.eigvalsh(ops.blocks[(s, s)][0]))
            w_prop = np.sort(np.concatenate(w_prop))
            w_direct = np.linalg.eigvalsh(direct)
            assert np.max(np.abs(w_prop - w_direct)) < 1e-10

    def test_seeded_only_from_the_impurity_site(self):
        st = add_site(init_impurity_site(GENERIC), build_chain(2.0, 2))
        with pytest.raises(ValueError, match="seeded from the impurity-site state"):
            init_operator_blocks(st)

    def test_wrong_iteration_rejected(self):
        chain = build_chain(2.0, 3)
        st = init_impurity_site(GENERIC)
        ops = init_operator_blocks(st)
        st = add_site(st, chain)
        st = add_site(st, chain)
        with pytest.raises(ValueError, match="propagate"):
            propagate(ops, st)


class TestExpectationValues:
    def test_no_level_at_zero_rejected(self):
        st = init_impurity_site(GENERIC)
        ops = init_operator_blocks(st)
        lifted = {s: replace(b, energies=b.energies + 1.0) for s, b in st.blocks.items()}
        with pytest.raises(ValueError, match="no ground state"):
            ground_expectation_raw(replace(st, blocks=lifted), ops)

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
        with pytest.warns(UserWarning, match=r"N\*"):  # n_max = 8 is below N*
            _, report = run(p, NRGConfig(n_max=8))
        assert not report.even_odd_averaged
        n, sx_raw, sz_raw = report.history[-1]
        assert n == report.n_m
        assert report.sx == -sx_raw and report.sz == -sz_raw
        assert report.sx > 0.0 and report.sz > 0.0  # figure convention

    def test_energy_derivative_identity_alpha_02(self):
        # correlator vs central difference of the chain ground energy, on
        # identical chain lengths, within 1%
        p = SpinBosonPoint(alpha=0.2, epsilon=0.0, delta_ratio=0.04)
        cfg = NRGConfig()
        _, report = run(p, cfg)
        chain = build_chain(cfg.lam, report.n_m)
        hf = hellmann_feynman_check(map_to_kondo(p), chain, report.n_m + 1, cfg.n_keep)
        assert abs(report.sx - (-hf.derivative)) / abs(report.sx) <= 0.01

    def test_energy_derivative_residual_measures_truncation(self):
        # at depth the residual is the truncation error: 1.6e-4 with 300 kept
        # states and 5.8e-3 with 100, so a check that drops n_keep fails one
        p = SpinBosonPoint(alpha=0.5, epsilon=0.1, delta_ratio=0.04)
        _, report = run(p, NRGConfig())
        chain = build_chain(2.0, report.n_m)
        k = map_to_kondo(p)
        residual = {
            n_keep: hellmann_feynman_check(k, chain, report.n_m + 1, n_keep).residual
            for n_keep in (100, 300)
        }
        assert residual[300] < 1e-3 < residual[100]


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

    @pytest.mark.parametrize(
        "sx, sz", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (math.inf, 0.0)]
    )
    def test_non_finite_norm_is_nonphysical(self, sx, sz):
        # a NaN norm fails every comparison; it must not read as a pure state
        with pytest.raises(DomainError, match="nonphysical"):
            entanglement_entropy(sx, sz)


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
        with pytest.raises(DomainError, match="still rising at alpha = 0.9"):
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

    def test_peak_below_first_grid_point(self):
        # at eps/Delta = 0.5 the entropy peaks in (0.1, 0.2) and falls from
        # alpha = 0.1 on the grid; alpha = 0 (E = 0, never solved) brackets it
        result = find_alpha_max(0.5, 0.04, NRGConfig())
        assert 0.11 < result.alpha_m < 0.15
        assert min(result.evaluations) > 0.0
        assert result.entropy_max > result.evaluations[0.1].entropy
        assert result.n_evaluations == len(result.evaluations) == 16
        assert result.unconverged == ()

    def test_unconverged_evaluations_reported(self, monkeypatch):
        self._fake_points(monkeypatch, lambda a: 1.0 - (a - 0.37) ** 2, (0.3,))
        result = find_alpha_max(0.1, 0.04, NRGConfig())
        assert 0.3 in result.evaluations
        assert result.unconverged == (0.3,)
