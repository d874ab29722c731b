import numpy as np
import pytest

from spinboson_nrg import (
    DomainError,
    KondoParams,
    build_chain,
    compare_with_nrg,
    exact_ground,
    hellmann_feynman_check,
)
from spinboson_nrg.oracle import _apply_f, _apply_fdag, build_basis

from dense_hamiltonian import full_hamiltonian

GENERIC = KondoParams(rho0_jperp=0.1, rho0_jpar=0.6, field=0.05)
ZERO_FIELD = KondoParams(rho0_jperp=0.3, rho0_jpar=1.1, field=0.0)


def _operator_matrix(apply_fn, sites, orb):
    dim = 1 << (2 * sites)
    m = np.zeros((dim, dim))
    for occ in range(dim):
        res = apply_fn(occ, orb)
        if res is not None:
            new_occ, sign = res
            m[new_occ, occ] = sign
    return m


class TestFockBasis:
    def test_state_count_and_partition(self):
        for sites in (1, 2, 3):
            basis = build_basis(sites)
            assert basis.dim == 2 * 4**sites
            total = sum(len(v) for v in basis.sectors.values())
            assert total == basis.dim
            seen = sorted(i for v in basis.sectors.values() for i in v)
            assert seen == list(range(basis.dim))

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            build_basis(6)
        with pytest.raises(DomainError):
            build_basis(0)

    @pytest.mark.parametrize(
        "entry, chain_sites, sites",
        [(compare_with_nrg, 2, 4), (exact_ground, 2, 4), (hellmann_feynman_check, 1, 3)],
    )
    def test_chain_shorter_than_sites(self, entry, chain_sites, sites):
        # sites needs sites - 1 hoppings; a shorter chain is named, not indexed
        match = f"sites={sites} needs {sites - 1} chain hoppings, the chain has {chain_sites}"
        with pytest.raises(DomainError, match=match):
            entry(GENERIC, build_chain(2.0, chain_sites), sites)


class TestJordanWigner:
    def test_anticommutation(self):
        sites = 2
        n_orb = 2 * sites
        f = [_operator_matrix(_apply_f, sites, o) for o in range(n_orb)]
        fdag = [_operator_matrix(_apply_fdag, sites, o) for o in range(n_orb)]
        eye = np.eye(1 << n_orb)
        for a in range(n_orb):
            for b in range(n_orb):
                anti = f[a] @ fdag[b] + fdag[b] @ f[a]
                expected = eye if a == b else 0.0 * eye
                assert np.max(np.abs(anti - expected)) < 1e-12
                assert np.max(np.abs(f[a] @ f[b] + f[b] @ f[a])) < 1e-12

    def test_fdag_is_transpose_of_f(self):
        for orb in range(4):
            f = _operator_matrix(_apply_f, 2, orb)
            fdag = _operator_matrix(_apply_fdag, 2, orb)
            assert np.array_equal(f.T, fdag)


class TestHamiltonian:
    def test_hermitian_and_block_diagonal(self):
        chain = build_chain(2.0, 3)
        ham, labels, basis = full_hamiltonian(GENERIC, chain, 3)
        assert np.max(np.abs(ham - ham.T)) == 0.0
        same_sector = (labels[:, None, 0] == labels[None, :, 0]) & (
            labels[:, None, 1] == labels[None, :, 1]
        )
        assert np.max(np.abs(ham[~same_sector])) < 1e-12

    def test_single_site_analytic_ground(self):
        k = KondoParams(rho0_jperp=0.04, rho0_jpar=0.8, field=0.0)
        chain = build_chain(2.0, 2)
        result = exact_ground(k, chain, 1)
        assert result.e0 == pytest.approx(-k.jpar / 4 - k.jperp / 2, abs=1e-12)

    def test_free_chain_fills_negative_levels(self):
        # decoupled impurity: many-body ground = 2 * sum of negative
        # single-particle energies of the tridiagonal chain matrix
        k = KondoParams(rho0_jperp=1e-30, rho0_jpar=1e-30, field=0.0)
        for sites in (3, 4):
            chain = build_chain(2.0, sites)
            tri = np.diag(chain.hop[: sites - 1], 1)
            tri = tri + tri.T
            w = np.linalg.eigvalsh(tri)
            expected = 2.0 * w[w < 0].sum()
            result = exact_ground(k, chain, sites)
            assert result.e0 == pytest.approx(expected, abs=1e-12)

    def test_degenerate_multiplet_average(self):
        # J_perp ~ 0, h = 0: twofold-degenerate ground, symmetric observables
        k = KondoParams(rho0_jperp=1e-30, rho0_jpar=0.8, field=0.0)
        chain = build_chain(2.0, 2)
        result = exact_ground(k, chain, 2)
        assert result.degeneracy >= 2
        assert abs(result.sz_raw) < 1e-12
        assert abs(result.sx_raw) < 1e-12


class TestHellmannFeynman:
    def test_single_site_residual(self):
        # E0(J_perp) = -J_par/4 - J_perp/2 is linear, so the residual is
        # pure roundoff
        k = KondoParams(rho0_jperp=0.04, rho0_jpar=0.8, field=0.0)
        chain = build_chain(2.0, 2)
        hf = hellmann_feynman_check(k, chain, 1)
        assert hf.residual < 1e-8
        assert hf.derivative == pytest.approx(-1.0, abs=1e-8)

    def test_residual_scales_quadratically(self):
        k = KondoParams(rho0_jperp=0.25, rho0_jpar=0.6, field=0.1)
        chain = build_chain(2.0, 3)
        r_large = hellmann_feynman_check(k, chain, 3, dj=1e-2 * k.jperp).residual
        r_mid = hellmann_feynman_check(k, chain, 3, dj=1e-3 * k.jperp).residual
        r_small = hellmann_feynman_check(k, chain, 3, dj=1e-4 * k.jperp).residual
        assert 50 < r_large / r_mid < 200
        assert 50 < r_mid / r_small < 200

    def test_dimension_guard_only_untruncated(self):
        # untruncated, the solve is capped like the dense one; with n_keep
        # the check runs past MAX_SITES, as deep as the chain reaches
        chain = build_chain(2.0, 7)
        with pytest.raises(DomainError, match="sites=6 outside 1..5"):
            hellmann_feynman_check(GENERIC, chain, 6)
        assert hellmann_feynman_check(GENERIC, chain, 8, 50).residual < 1e-2


class TestCompareWithNRG:
    @pytest.mark.parametrize("sites", [1, 2, 3, 4, 5])
    def test_untruncated_pass(self, sites):
        # sites=1 is the impurity step alone; at nonzero field the charge
        # multiplets alone, at zero field the spin flip F too
        chain = build_chain(2.0, sites)
        for k in (GENERIC, ZERO_FIELD):
            cmp = compare_with_nrg(k, chain, sites)
            assert cmp.passed
            assert cmp.max_eigenvalue_dev < 1e-9

    def test_field_moves_ground_sector(self):
        # strong field: the ground state carries net spin projection
        k = KondoParams(rho0_jperp=0.05, rho0_jpar=0.5, field=0.4)
        chain = build_chain(2.0, 3)
        cmp = compare_with_nrg(k, chain, 3)
        assert cmp.passed
        result = exact_ground(k, chain, 3)
        assert result.sz_raw < -0.1

    def test_truncated_run_reports_deviation(self):
        chain = build_chain(2.0, 3)
        cmp = compare_with_nrg(GENERIC, chain, 3, n_keep=50)
        assert not cmp.passed
        assert cmp.max_eigenvalue_dev > 0.0
