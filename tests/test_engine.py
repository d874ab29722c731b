import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from spinboson_nrg import (
    DomainError,
    IterationState,
    KondoParams,
    NRGConfig,
    Sector,
    SectorBlock,
    SpinBosonPoint,
    add_site,
    build_chain,
    entanglement_entropy,
    exact_ground,
    init_impurity_site,
    init_operator_blocks,
    map_to_kondo,
    propagate,
    renormalized_tunneling,
    run,
    truncate,
)
import spinboson_nrg.engine as engine_mod
from spinboson_nrg.engine import DEGENERACY_TOL, ETA, PARTICLE_HOLE, SITE_ONE
from spinboson_nrg.engine import SPIN_FLIP
from spinboson_nrg.engine import _n_star, _plateau_status
from spinboson_nrg.engine import rotate
from spinboson_nrg.fock import DN, DOUBLE, EMPTY, FDAG_DN, FDAG_UP, UP
from spinboson_nrg.oracle import full_hamiltonian

GENERIC = KondoParams(rho0_jperp=0.1, rho0_jpar=0.6, field=0.05)


def _global_spectrum(state):
    return np.sort(
        np.concatenate([b.energies for b in state.blocks.values()])
    )


class TestImpuritySite:
    def test_ising_only_spectrum(self):
        # (J_par/2)(n_up - n_dn) S_z alone: {-J/4 x2, 0 x4, +J/4 x2}
        k = KondoParams(rho0_jperp=1e-30, rho0_jpar=0.8, field=0.0)
        st = init_impurity_site(k)
        spec = _global_spectrum(st) + st.e0_accumulated
        expected = [-0.4, -0.4, 0, 0, 0, 0, 0.4, 0.4]
        assert np.allclose(spec, expected, atol=1e-12)

    def test_spin_flip_ground_energy(self):
        k = KondoParams(rho0_jperp=0.04, rho0_jpar=0.8, field=0.0)
        st = init_impurity_site(k)
        assert st.e0_accumulated == pytest.approx(-k.jpar / 4 - k.jperp / 2, abs=1e-14)

    def test_zeeman_only_split(self):
        k = KondoParams(rho0_jperp=1e-30, rho0_jpar=1e-30, field=0.3)
        st = init_impurity_site(k)
        spec = _global_spectrum(st) + st.e0_accumulated
        assert spec[0] == pytest.approx(-0.15, abs=1e-12)
        assert spec[-1] == pytest.approx(0.15, abs=1e-12)
        # ground states have the impurity spin anti-aligned with the field:
        # every sector at zero energy holds one, and each has <S_z> < 0
        oz = init_operator_blocks(st).oz
        ground = {s: b for s, b in st.blocks.items() if b.energies[0] == 0.0}
        assert len(ground) == 4  # the impurity down with site 0 in any state
        for s, b in ground.items():
            for i in np.flatnonzero(b.energies <= 1e-12):
                assert oz[(s, s)][i, i] == pytest.approx(-0.5, abs=1e-12)

    def test_eight_states_in_sectors(self):
        st = init_impurity_site(GENERIC)
        assert sum(b.kept for b in st.blocks.values()) == 8
        assert len(st.blocks) == 7  # (0,0) is two dimensional


class TestAddSite:
    def test_free_chain_ground_energy(self):
        # decoupled impurity: filled Fermi sea of the tridiagonal chain
        k = KondoParams(rho0_jperp=1e-30, rho0_jpar=1e-30, field=0.0)
        for sites in (3, 4):
            chain = build_chain(2.0, sites)
            st = init_impurity_site(k)
            for _ in range(sites - 1):
                st = add_site(st, chain)
            tri = np.diag(chain.hop[: sites - 1], 1)
            tri = tri + tri.T
            w = np.linalg.eigvalsh(tri)
            assert st.e0_accumulated == pytest.approx(2 * w[w < 0].sum(), abs=1e-12)

    def test_decoupled_impurity_double_degeneracy(self):
        k = KondoParams(rho0_jperp=1e-30, rho0_jpar=1e-30, field=0.0)
        chain = build_chain(2.0, 3)
        st = init_impurity_site(k)
        for _ in range(2):
            st = add_site(st, chain)
        spec = _global_spectrum(st)
        # free impurity spin: every level at least twofold degenerate
        assert len(spec) % 2 == 0
        assert np.allclose(spec[0::2], spec[1::2], atol=1e-12)

    def test_untruncated_ground_energy_matches_oracle(self):
        chain = build_chain(2.0, 4)
        st = init_impurity_site(GENERIC)
        for _ in range(3):
            st = add_site(st, chain)
        exact = exact_ground(GENERIC, chain, 4)
        assert st.e0_accumulated == pytest.approx(exact.e0, abs=1e-12)

    def test_chain_exhausted_raises(self):
        chain = build_chain(2.0, 1)
        st = init_impurity_site(GENERIC)
        st = add_site(st, chain)
        with pytest.raises(Exception, match="chain"):
            add_site(st, chain)


class TestFermionicSigns:
    @pytest.mark.parametrize(
        "k",
        [
            KondoParams(rho0_jperp=0.1, rho0_jpar=0.6, field=0.05),
            KondoParams(rho0_jperp=0.3, rho0_jpar=1.1, field=0.0),
        ],
    )
    def test_product_assembly_matches_jordan_wigner(self, k):
        # rebuild the iteration-1 Hamiltonian in the raw occupation basis from
        # the engine's eigen data and compare elementwise with the oracle's
        # Jordan-Wigner-ordered construction
        chain = build_chain(2.0, 2)
        st0 = init_impurity_site(k)
        st1 = add_site(st0, chain)
        ham_oracle, _, _ = full_hamiltonian(k, chain, 2)
        shift = st1.e0_accumulated - st0.e0_accumulated

        worst = 0.0
        for sec, blk in st1.blocks.items():
            v = blk.vectors
            h_eig = v @ np.diag(blk.energies + shift) @ v.T + st0.e0_accumulated * np.eye(len(blk.energies))
            # rotate the block factor back from the iteration-0 eigenbasis
            rot = np.zeros_like(h_eig)
            raw_index = []
            for (s0, loc), (t, rows) in st1.layout.items():
                if t != sec:
                    continue
                rot[rows, rows] = st0.blocks[s0].vectors
                # iteration-0 basis: bare impurity state x site-0 occupation
                for (bare, loc0), (t0, _) in st0.layout.items():
                    if t0 == s0:
                        imp_bit = (1 - bare.two_sz) // 2
                        raw_index.append(imp_bit * 16 + loc0 + 4 * loc)
            h_raw = rot @ h_eig @ rot.T
            ref = ham_oracle[np.ix_(raw_index, raw_index)]
            worst = max(worst, float(np.max(np.abs(h_raw - ref))))
        assert worst < 1e-12


class TestTruncate:
    def _toy_state(self):
        e_a = np.arange(14) * 0.1
        e_b = np.array([0.05, 1.45, 1.45 + 1e-14, 2.0, 2.1, 2.2])
        blocks = {
            Sector(0, 0): SectorBlock(e_a, np.eye(14)),
            Sector(1, 1): SectorBlock(e_b, np.eye(6)),
        }
        return IterationState(n=1, blocks=blocks, e0_accumulated=0.0)

    def test_identity_when_everything_fits(self):
        st = self._toy_state()
        assert truncate(st, 300) is st

    def test_degenerate_pair_straddling_cutoff(self):
        st = self._toy_state()
        out = truncate(st, 16)
        # rank 16 is degenerate with rank 15, so both survive
        assert sum(b.kept for b in out.blocks.values()) == 17
        assert out.blocks[Sector(0, 0)].kept == 14
        assert out.blocks[Sector(1, 1)].kept == 3

    def test_minimum_keep_enforced(self):
        with pytest.raises(DomainError):
            truncate(self._toy_state(), 8)

    def test_truncated_state_still_iterates(self):
        chain = build_chain(2.0, 5)
        st = init_impurity_site(GENERIC)
        for _ in range(4):
            st = add_site(st, chain)
            st = truncate(st, 60)
        assert sum(b.kept for b in st.blocks.values()) <= 60 + 8
        assert min(b.energies[0] for b in st.blocks.values()) == 0.0

    @staticmethod
    def _tuple_sort_counts(state, n_keep):
        # the reference rule: sort (energy, sector, index) over every state,
        # move the cut past near-degenerate neighbours, count per sector
        entries = sorted(
            (float(e), s, i)
            for s in state.blocks
            for i, e in enumerate(state.blocks[s].energies)
        )
        cut = min(n_keep, len(entries))
        while cut < len(entries):
            e_prev, e_next = entries[cut - 1][0], entries[cut][0]
            if e_next - e_prev >= DEGENERACY_TOL * max(1.0, abs(e_prev)):
                break
            cut += 1
        counts = {}
        for _, s, _ in entries[:cut]:
            counts[s] = counts.get(s, 0) + 1
        return counts

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_threshold_matches_tuple_sort(self, eps):
        # at eps = 0 mirror sectors are bitwise degenerate at every cut
        k = map_to_kondo(SpinBosonPoint(alpha=0.4, epsilon=eps, delta_ratio=0.04))
        chain = build_chain(2.0, 13)
        for n_keep in (16, 60, 150):
            st = init_impurity_site(k)
            for _ in range(12):
                st = add_site(st, chain)
                out = truncate(st, n_keep)
                assert {s: b.kept for s, b in out.blocks.items()} == (
                    self._tuple_sort_counts(st, n_keep)
                )
                for s, b in out.blocks.items():
                    full, c = st.blocks[s], b.kept
                    assert np.array_equal(b.energies, full.energies[:c])
                    assert np.array_equal(b.vectors, full.vectors[:, :c])
                    assert len(b.sym) == len(full.sym)
                    for x, y in zip(b.sym, full.sym):
                        assert np.array_equal(x, y[:c])
                st = out

    def test_no_clear_gap_keeps_everything(self):
        st = self._toy_state()
        # the seven highest states lie within the tolerance of each other, so
        # no clear gap follows rank 16
        e_b = 1.3 + 1e-14 * np.arange(6)
        st.blocks[Sector(1, 1)] = SectorBlock(e_b, np.eye(6))
        everything = {s: b.kept for s, b in st.blocks.items()}
        assert self._tuple_sort_counts(st, 16) == everything
        assert truncate(st, 16) is st


class TestFixedPoint:
    def test_rescaled_spectra_approach_fixed_point(self):
        p = SpinBosonPoint(alpha=0.5, epsilon=0.0, delta_ratio=0.04)
        k = map_to_kondo(p)
        cfg = NRGConfig()
        # deep in the strong-coupling regime: omega_N / Delta_r < 1e-5
        chain = build_chain(cfg.lam, 56)
        st = init_impurity_site(k)
        spectra = {}
        for n in range(1, 56):
            st = add_site(st, chain)
            st = truncate(st, cfg.n_keep)
            if n in (52, 53, 54, 55):
                spectra[n] = _global_spectrum(st)[:10]
        for pair in ((52, 54), (53, 55)):
            a, b = spectra[pair[0]], spectra[pair[1]]
            drift = np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-2))
            assert drift < 1e-4, f"drift {drift} between N={pair[0]} and N={pair[1]}"


class TestRun:
    def test_stopping_rule_alpha_half(self):
        p = SpinBosonPoint(alpha=0.5, epsilon=0.0, delta_ratio=0.04)
        k = map_to_kondo(p)
        cfg = NRGConfig()
        state, report = run(k, cfg)
        assert report.converged
        assert report.scale_met and report.plateau_met
        assert report.n_m > report.n_star
        # solving 2^(-(N-1)/2) < ETA * Delta_r requires at least 31 sites
        dr = renormalized_tunneling(p)
        assert report.n_star == pytest.approx(1.0 - 2.0 * math.log2(ETA * dr))
        assert report.n_m >= 31

    def test_unconverged_flagged_not_raised(self):
        p = SpinBosonPoint(alpha=0.5, epsilon=0.0, delta_ratio=0.04)
        k = map_to_kondo(p)
        state, report = run(k, NRGConfig(n_max=10))
        assert not report.converged
        assert report.n_m == 10
        assert math.isfinite(report.sx) and math.isfinite(report.sz)

    def test_lambda_15_alpha_09_terminates(self):
        p = SpinBosonPoint(alpha=0.9, epsilon=0.0, delta_ratio=0.04)
        k = map_to_kondo(p)
        state, report = run(k, NRGConfig(lam=1.5, n_keep=100))
        assert report.converged
        assert report.n_m < 300
        # omega_N must undercut ETA * Delta_r ~ 2e-16
        assert report.n_m > report.n_star

    def test_alpha_near_one_converges(self):
        # ln Delta_r = ln 2 + 1000 ln 0.04 ~ -3218: Delta_r is far below the
        # float range, N* ~ 2800, and omega_N underflows to 0.0 near n = 649
        p = SpinBosonPoint(alpha=0.999, epsilon=0.0, delta_ratio=0.04)
        with pytest.warns(UserWarning, match="longitudinal"):
            k = map_to_kondo(p)
        state, report = run(k, NRGConfig(lam=10.0, n_keep=16, n_max=3000))
        assert report.converged
        assert report.delta_r == 0.0 and state.unscale == 0.0
        assert report.n_m > report.n_star > 2700
        # the paper's limit: maximal entanglement as alpha -> 1 at eps = 0
        assert entanglement_entropy(report.sx, report.sz)[2] > 0.999


@pytest.mark.parametrize("lam", [1.5, 2.0, 10.0])
def test_depth_picks_the_float_rule_iteration(lam):
    """n > N* first holds where Lambda^(-(n-1)/2) < ETA * Delta_r first does."""
    for ratio in (0.01, 0.04, 0.1):
        for alpha in np.linspace(0.01, 0.99, 99):
            p = SpinBosonPoint(alpha=float(alpha), epsilon=0.0, delta_ratio=ratio)
            target = ETA * renormalized_tunneling(p)
            assert target >= sys.float_info.min  # a normal float
            n = 1
            while lam ** (-(n - 1) / 2.0) >= target:
                n += 1
            assert n == max(1, math.floor(_n_star(p, lam)) + 1), (alpha, ratio)


@pytest.mark.parametrize("name", ["lam"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_config_rejected(name, value):
    with pytest.raises(DomainError):
        NRGConfig(**{name: value})


class TestPlateauDetection:
    def test_flat_history_plateaus(self):
        hist = [(n, 0.5, 0.1) for n in range(10)]
        assert _plateau_status(hist) == (True, False)

    def test_even_odd_alternation_detected(self):
        hist = [(n, 0.5 + (1e-4 if n % 2 else -1e-4), 0.0) for n in range(12)]
        plateau, even_odd = _plateau_status(hist)
        assert plateau and even_odd

    def test_drifting_history_rejected(self):
        hist = [(n, 0.5 + 0.01 * n, 0.0) for n in range(12)]
        assert _plateau_status(hist) == (False, False)


def _alpha_04(eps):
    return map_to_kondo(SpinBosonPoint(alpha=0.4, epsilon=eps, delta_ratio=0.04))


def _action(new, old, i, t):
    """Generator i on the product rows, as the matrix from t to its image."""
    g = new.symmetries[i]
    dims = {s: b.vectors.shape[0] for s, b in new.blocks.items()}
    m = np.zeros((dims[g.sector(t)], dims[t]))
    for (s, loc), (sec, rows) in new.layout.items():
        if sec == t:
            image = new.layout[(g.sector(s), g.perm[loc])][1]
            sign = g.sign[new.n % 2][loc] * old.blocks[s].sym[i]
            m[np.r_[image], np.r_[rows]] = sign
    return m


def _oracle_action(g, sites):
    """g in the oracle's occupation basis, the product of its site actions."""
    code = {EMPTY: (0, 0), UP: (1, 0), DN: (0, 1), DOUBLE: (1, 1)}
    local = {bits: loc for loc, bits in code.items()}
    n_orb = 2 * sites
    m = np.zeros((2 * 4**sites, 2 * 4**sites))
    for state in range(len(m)):
        imp, occ = state >> n_orb, state & ((1 << n_orb) - 1)
        image, sign = 0, 1.0
        for n in range(sites):
            loc = local[((occ >> 2 * n) & 1, (occ >> (2 * n + 1)) & 1)]
            up, dn = code[g.perm[loc]]
            image |= (up << 2 * n) | (dn << (2 * n + 1))
            sign *= g.sign[n % 2][loc]
        if g.scale[1] < 0:
            imp = 1 - imp
        m[(imp << n_orb) | image, state] = sign
    return m


@pytest.mark.parametrize("eps", [0.0, 0.3])
class TestZ2Symmetry:
    def test_only_representatives_are_diagonalized(self, eps, monkeypatch):
        calls = []
        diagonalize = engine_mod._diagonalize

        def recording(ham, sector):
            calls.append((sector, ham.shape[0]))
            return diagonalize(ham, sector)

        monkeypatch.setattr(engine_mod, "_diagonalize", recording)
        chain = build_chain(2.0, 8)
        st = init_impurity_site(_alpha_04(eps))
        expected = (SPIN_FLIP, PARTICLE_HOLE) if eps == 0.0 else (PARTICLE_HOLE,)
        assert st.symmetries == expected
        for _ in range(8):
            calls.clear()
            new = add_site(st, chain)
            reps = new.representatives()
            assert {s for s, _ in calls} == reps
            for t, blk in new.blocks.items():
                dims = [d for s, d in calls if s == t]
                if t not in reps:
                    assert dims == []
                    continue
                # one block per character of the generators that fix t
                fixed = [g for g in new.symmetries if g.sector(t) == t]
                assert sum(dims) == blk.vectors.shape[0]
                assert len(dims) <= 2 ** len(fixed)
            if Sector(0, 0) in new.blocks:  # on every other iteration
                # fixed by P, and at zero field by F too
                split = len([s for s, _ in calls if s == Sector(0, 0)])
                assert split == (4 if eps == 0.0 else 2)
            st = truncate(new, 120)

    def test_images_and_characters_are_exact(self, eps):
        chain = build_chain(2.0, 11)
        old = init_impurity_site(_alpha_04(eps))
        for _ in range(10):
            new = add_site(old, chain)
            for t, blk in new.blocks.items():
                for i, g in enumerate(new.symmetries):
                    u = g.sector(t)
                    image, sym = new.blocks[u], blk.sym[i]
                    assert set(np.unique(sym)) <= {-1.0, 1.0}
                    assert np.array_equal(image.energies, blk.energies)
                    gv = _action(new, old, i, t) @ blk.vectors
                    if u == t:
                        # the characters of a fixed sector
                        np.testing.assert_allclose(
                            blk.vectors.T @ gv, np.diag(sym), rtol=0, atol=1e-12
                        )
                    else:
                        assert np.array_equal(gv, image.vectors * sym)
            old = truncate(new, 120)

    def test_kept_energies_match_unsymmetrized_path(self, eps):
        chain = build_chain(2.0, 13)
        sym = init_impurity_site(_alpha_04(eps))
        ref = replace(sym, symmetries=())
        for _ in range(12):
            sym = truncate(add_site(sym, chain), 150)
            ref = truncate(add_site(ref, chain), 150)
            assert ref.symmetries == () and ref.representatives() == ref.blocks.keys()
            assert sym.blocks.keys() == ref.blocks.keys()
            for t in sym.blocks:
                np.testing.assert_allclose(
                    sym.blocks[t].energies, ref.blocks[t].energies, rtol=0, atol=1e-10
                )

    def test_filled_blocks_match_full_rotation(self, eps):
        chain = build_chain(2.0, 9)
        st = init_impurity_site(_alpha_04(eps))
        ops = init_operator_blocks(st)
        for _ in range(8):
            st = truncate(add_site(st, chain), 120)
            full = rotate(st, (ops.ox, ops.oz), SITE_ONE)
            full += [rotate(st, None, f)[0] for f in (FDAG_UP, FDAG_DN)]
            ops = propagate(ops, st)
            filled = [ops.ox, ops.oz, *engine_mod._fdag_blocks(st)]
            for op, ref in zip(filled, full):
                assert op.keys() == ref.keys()
                for key in ref:
                    np.testing.assert_allclose(op[key], ref[key], rtol=0, atol=1e-12)

    def test_particle_hole_commutes_with_oracle_hamiltonian(self, eps):
        k = _alpha_04(eps)
        ham, labels, _ = full_hamiltonian(k, build_chain(2.0, 3), 3)
        for g in (PARTICLE_HOLE, SPIN_FLIP):
            m = _oracle_action(g, 3)
            assert np.array_equal(m @ m.T, np.eye(len(m)))
            # the sector map: labels of the image states
            image = np.argmax(np.abs(m), axis=0)
            assert np.array_equal(labels[image], labels * np.array(g.scale))
            holds = g in engine_mod.symmetries_of(k)
            commutator = np.abs(m @ ham - ham @ m).max()
            assert (commutator < 1e-14) if holds else (commutator > 1e-3)
