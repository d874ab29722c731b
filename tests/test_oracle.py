import math
from functools import reduce

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
import spinboson_nrg.oracle as oracle_mod
from spinboson_nrg.fock import FDAG_DN, FDAG_UP
from spinboson_nrg.oracle import _apply_f, _fock_space

from dense_hamiltonian import fock_operators, full_hamiltonian, nan_level, sector_hamiltonians

GENERIC = KondoParams(rho0_jperp=0.1, rho0_jpar=0.6, field=0.05)
ZERO_FIELD = KondoParams(rho0_jperp=0.3, rho0_jpar=1.1, field=0.0)


class TestFockBasis:
    def test_state_count_and_partition(self):
        # every state lies in exactly one sector
        for sites in (1, 2, 3):
            blocks, sectors = sector_hamiltonians(GENERIC, build_chain(2.0, sites), sites)
            seen = np.sort(np.concatenate(list(sectors.values())))
            assert np.array_equal(seen, np.arange(2 * 4**sites))
            assert all(len(blocks[s]) == len(v) for s, v in sectors.items())

    def test_dimension_guard(self):
        for sites in (0, 6):
            with pytest.raises(DomainError, match=f"sites={sites} outside 1..5"):
                sector_hamiltonians(GENERIC, build_chain(2.0, 7), sites)

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
        f = fock_operators(2, _apply_f)
        fdag = fock_operators(2)
        eye = np.eye(len(f[0]))
        for a in range(len(f)):
            for b in range(len(f)):
                anti = f[a] @ fdag[b] + fdag[b] @ f[a]
                expected = eye if a == b else 0.0 * eye
                assert np.max(np.abs(anti - expected)) < 1e-12
                assert np.max(np.abs(f[a] @ f[b] + f[b] @ f[a])) < 1e-12

    def test_fdag_is_transpose_of_f(self):
        for f, fdag in zip(fock_operators(2, _apply_f), fock_operators(2)):
            assert np.array_equal(f.T, fdag)


def _kronecker_hamiltonian(k, chain, sites):
    """H from `fock`'s site operators, with the Jordan-Wigner string as the
    parity diag(1, -1, -1, 1) of every lower site.  Kronecker order impurity,
    site sites - 1, ..., site 0 gives the oracle's state index."""
    parity = np.diag([1.0, -1.0, -1.0, 1.0])

    def site_op(site, op):
        factors = [np.eye(2)] + [
            op if n == site else parity if n < site else np.eye(4)
            for n in reversed(range(sites))
        ]
        return reduce(np.kron, factors)

    def impurity(op):
        return np.kron(op, np.eye(4**sites))

    s_z = impurity(np.diag([0.5, -0.5]))  # impurity bit 0 is spin up
    s_minus = impurity(np.array([[0.0, 0.0], [1.0, 0.0]]))
    up = [site_op(n, FDAG_UP) for n in range(sites)]
    dn = [site_op(n, FDAG_DN) for n in range(sites)]
    ham = 0.5 * k.jpar * (up[0] @ up[0].T - dn[0] @ dn[0].T) @ s_z + k.field * s_z
    for n in range(sites - 1):
        for fdag in (up, dn):
            hop = chain.hop[n] * fdag[n + 1] @ fdag[n].T
            ham = ham + hop + hop.T
    flip = 0.5 * k.jperp * up[0] @ dn[0].T @ s_minus
    return ham + flip + flip.T


class TestHamiltonian:
    @pytest.mark.parametrize("sites", [1, 2, 3])
    @pytest.mark.parametrize("k", [GENERIC, ZERO_FIELD], ids=["generic", "zero-field"])
    def test_blocks_match_kronecker_products(self, k, sites):
        # an independent build of H, which would catch a slip in the
        # oracle's Jordan-Wigner signs that the comparison with the
        # iterative solver cannot see (on this chain the signs are a gauge)
        chain = build_chain(2.0, sites)
        dense = _kronecker_hamiltonian(k, chain, sites)
        blocks, sectors = sector_hamiltonians(k, chain, sites)
        inside = np.zeros(dense.shape, dtype=bool)
        for sec, states in sectors.items():
            np.testing.assert_array_equal(blocks[sec], dense[np.ix_(states, states)])
            inside[np.ix_(states, states)] = True
        assert np.max(np.abs(dense[~inside])) == 0.0

    def test_hermitian_and_block_diagonal(self):
        chain = build_chain(2.0, 3)
        ham, labels = full_hamiltonian(GENERIC, chain, 3)
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

    @pytest.mark.parametrize(
        "k, sites, degeneracy",
        [(ZERO_FIELD, 2, 2), (ZERO_FIELD, 4, 2), (GENERIC, 3, 1)],
        ids=["zero-field-2", "zero-field-4", "generic-3"],
    )
    def test_readout_is_ground_space_trace(self, k, sites, degeneracy):
        # the multiplet average is the trace of O_x and 2 S_z over the ground
        # eigenspace, here from one eigh of the full H with no sectors.  At
        # zero field the ground is a doublet in sectors (0, +-1) with nonzero
        # sx, and its states read sz +-0.845 (2 sites) and +-0.598 (4 sites),
        # so the average is not any one state's value
        chain = build_chain(2.0, sites)
        ham, ox, _ = _fock_space(k, chain, sites)
        w, v = np.linalg.eigh(ham)
        space = v[:, w - w[0] <= 1e-9]
        two_sz = np.where(np.arange(len(ham)) < len(ham) // 2, 1.0, -1.0)
        result = exact_ground(k, chain, sites)
        assert result.degeneracy == space.shape[1] == degeneracy
        assert result.sx_raw == pytest.approx(
            np.trace(space.T @ ox @ space) / degeneracy, abs=1e-12)
        assert result.sz_raw == pytest.approx(
            np.trace(space.T @ (two_sz[:, None] * space)) / degeneracy, abs=1e-12)


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

    @pytest.mark.parametrize("scale", [0.0, -1e-4, 1.0, 2.0, math.nan, math.inf])
    def test_step_outside_range_rejected(self, scale):
        # the stencil needs J_perp - dj > 0; a negative step is the same stencil
        chain = build_chain(2.0, 3)
        with pytest.raises(DomainError, match="dj="):
            hellmann_feynman_check(GENERIC, chain, 3, dj=scale * GENERIC.jperp)


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

    def test_nan_eigenvalue_fails(self, monkeypatch):
        # one NaN level among the solver's: the builtin max would drop it
        monkeypatch.setattr(oracle_mod, "_at_depth", nan_level(oracle_mod._at_depth))
        cmp = compare_with_nrg(GENERIC, build_chain(2.0, 3), 3)
        assert math.isnan(cmp.max_eigenvalue_dev)
        assert not cmp.passed
