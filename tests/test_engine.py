import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

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
    ground_expectation_raw,
    init_impurity_site,
    init_operator_blocks,
    map_to_kondo,
    propagate,
    renormalized_tunneling,
    run,
    truncate,
)
import spinboson_nrg.engine as engine_mod
from spinboson_nrg.engine import DEGENERACY_TOL, ETA, FDAG, SITE_ONE, SPIN_FLIP
from spinboson_nrg.engine import EngineError
from spinboson_nrg.engine import _n_star, _plateau_status
from spinboson_nrg.engine import rotate
from spinboson_nrg.fock import DN, DOUBLE, EMPTY, FDAG_DN, FDAG_UP, FLIP, FLIP_SIGN
from spinboson_nrg.fock import N_EL, UP
from spinboson_nrg.oracle import _apply_fdag, full_hamiltonian, sector_hamiltonians

GENERIC = KondoParams(rho0_jperp=0.1, rho0_jpar=0.6, field=0.05)


def _global_spectrum(state):
    # every multiplet counted 2I + 1 times
    return np.sort(
        np.concatenate([np.repeat(b.energies, b.mult) for b in state.blocks.values()])
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
        # the impurity down with site 0 in any state: the empty site and the
        # double form one isospin doublet, up and down are singlets
        assert len(ground) == 3
        assert sum(b.mult for b in ground.values()) == 4
        for s, b in ground.items():
            for i in np.flatnonzero(b.energies <= 1e-12):
                assert oz[(s, s)][i, i] == pytest.approx(-0.5, abs=1e-12)

    def test_eight_states_in_sectors(self):
        st = init_impurity_site(GENERIC)
        assert sum(b.kept for b in st.blocks.values()) == 8
        # (2I, 2Sz) = (1, +-1) hold one doublet each, (0, 0) two singlets
        assert len(st.blocks) == 5
        assert {s: b.mult for s, b in st.blocks.items() if b.mult > 1} == {
            Sector(1, -1): 2, Sector(1, 1): 2
        }


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


def _fock_ops(sites):
    """f^dag per orbital (2 site + spin) and the electron parity, on the
    oracle's Fock space of the impurity and `sites` chain sites."""
    dim = 1 << (2 * sites)
    fdag = []
    for orb in range(2 * sites):
        m = np.zeros((dim, dim))
        for occ in range(dim):
            res = _apply_fdag(occ, orb)
            if res is not None:
                m[res[0], occ] = res[1]
        fdag.append(np.kron(np.eye(2), m))  # the impurity bit is the high one
    parity = np.diag([(-1.0) ** bin(i % dim).count("1") for i in range(2 * dim)])
    return fdag, parity


def _fock_highest_weights(k, sites):
    """The last iteration's kept highest weights as Fock vectors of the oracle,
    built up site by site from the engine's layout and vectors.

    A channel of an old highest weight |J J> (q = 2J) on site n is: UP and DN
    the parity-signed f^dag_n |J J>, DOUBLE f^dag_n,up f^dag_n,dn |J J>, and
    EMPTY sqrt(q/(q+1)) |J J> - (-1)^n/sqrt(q (q+1)) f^dag_n,up f^dag_n,dn I^-|J J>.
    """
    fdag, parity = _fock_ops(sites)
    chain = build_chain(2.0, sites)
    n_orb = 2 * sites
    vectors = {}
    for two_sz in (1, -1):  # the bare impurity, every site empty
        v = np.zeros((2 << n_orb, 1))
        v[(1 - two_sz) // 2 << n_orb, 0] = 1.0
        vectors[Sector(0, two_sz)] = v
    st = init_impurity_site(k)
    for n in range(sites):
        up, dn = fdag[2 * n], fdag[2 * n + 1]
        lower = sum((-1) ** m * fdag[2 * m + 1].T @ fdag[2 * m].T for m in range(n))
        product = {}
        for (s, loc), (t, rows) in st.layout.items():
            v, q = vectors[s], s.q
            if loc == EMPTY:
                v = np.sqrt(q / (q + 1)) * v - (-1) ** n / np.sqrt(q * (q + 1)) * (
                    up @ (dn @ (lower @ v))
                )
            elif loc == DOUBLE:
                v = up @ (dn @ v)
            else:
                v = (up if loc == UP else dn) @ (parity @ v)
            cols = product.setdefault(t, np.zeros((len(v), st.blocks[t].vectors.shape[0])))
            cols[:, rows] = v
        vectors = {t: product[t] @ b.vectors for t, b in st.blocks.items()}
        if n + 1 < sites:
            st = add_site(st, chain)
    raise_op = sum((-1) ** m * fdag[2 * m] @ fdag[2 * m + 1] for m in range(sites))
    return st, vectors, raise_op, chain


class TestFermionicSigns:
    @pytest.mark.parametrize(
        "k",
        [
            KondoParams(rho0_jperp=0.1, rho0_jpar=0.6, field=0.05),
            KondoParams(rho0_jperp=0.3, rho0_jpar=1.1, field=0.0),
        ],
    )
    def test_product_assembly_matches_jordan_wigner(self, k):
        # embed every kept multiplet of four sites into the oracle's
        # Jordan-Wigner-ordered Fock space: an orthonormal set of highest
        # weights, in their sector, each an eigenvector of the oracle's H
        st, vectors, raise_op, chain = _fock_highest_weights(k, 4)
        ham, labels, _ = full_hamiltonian(k, chain, 4)
        for t, blk in st.blocks.items():
            v = vectors[t]
            assert blk.mult == t.q + 1
            np.testing.assert_allclose(v.T @ v, np.eye(v.shape[1]), rtol=0, atol=1e-12)
            outside = np.any(labels != np.array(t), axis=1)
            assert np.max(np.abs(v[outside]), initial=0.0) == 0.0
            assert np.max(np.abs(raise_op @ v)) < 1e-12
            energies = st.e0_accumulated + st.unscale * blk.energies
            np.testing.assert_allclose(ham @ v, v * energies, rtol=0, atol=1e-12)


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
        # the reference rule: sort (energy, sector, index, member) over every
        # state, a multiplet giving 2I + 1, move the cut past near-degenerate
        # neighbours, count the states per sector
        entries = sorted(
            (float(e), s, i, member)
            for s in state.blocks
            for i, e in enumerate(state.blocks[s].energies)
            for member in range(state.blocks[s].mult)
        )
        cut = min(n_keep, len(entries))
        while cut < len(entries):
            e_prev, e_next = entries[cut - 1][0], entries[cut][0]
            if e_next - e_prev >= DEGENERACY_TOL * max(1.0, abs(e_prev)):
                break
            cut += 1
        counts = {}
        for _, s, _, _ in entries[:cut]:
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
                    full, c = st.blocks[s], len(b.energies)
                    assert b.mult == full.mult == s.q + 1
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
        cfg = NRGConfig()
        state, report = run(p, cfg)
        assert report.converged
        assert report.scale_met and report.plateau_met
        assert report.n_m > report.n_star
        # solving 2^(-(N-1)/2) < ETA * Delta_r requires at least 31 sites
        dr = renormalized_tunneling(p)
        assert report.n_star == pytest.approx(1.0 - 2.0 * math.log2(ETA * dr))
        assert report.n_m >= 31

    def test_unconverged_flagged_not_raised(self):
        p = SpinBosonPoint(alpha=0.5, epsilon=0.0, delta_ratio=0.04)
        with pytest.warns(UserWarning, match=r"N\*="):
            state, report = run(p, NRGConfig(n_max=10))
        assert not report.converged
        assert report.n_m == 10
        assert math.isfinite(report.sx) and math.isfinite(report.sz)

    def test_cap_at_or_below_depth_warns_once(self):
        # N* = 30.9 here: n_max = 30 cannot converge, n_max = 31 can
        p = SpinBosonPoint(alpha=0.5, epsilon=0.0, delta_ratio=0.04)
        n_star = _n_star(p, 2.0)
        assert 30 < n_star < 31
        with pytest.warns(UserWarning) as caught:
            _, report = run(p, NRGConfig(n_keep=16, n_max=30))
        assert [str(w.message) for w in caught] == [
            f"n_max=30 <= N*={n_star:.1f}: the run cannot pass the depth N* and"
            " will not converge"
        ]
        assert caught[0].filename == __file__  # the line that called run
        assert not report.scale_met
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = run(p, NRGConfig(n_keep=16, n_max=31))
        assert report.n_m == 31 and report.scale_met

    def test_lambda_15_alpha_09_terminates(self):
        p = SpinBosonPoint(alpha=0.9, epsilon=0.0, delta_ratio=0.04)
        state, report = run(p, NRGConfig(lam=1.5, n_keep=100))
        assert report.converged
        assert report.n_m < 300
        # omega_N must undercut ETA * Delta_r ~ 2e-16
        assert report.n_m > report.n_star

    def test_alpha_near_one_converges(self):
        # ln Delta_r = ln 2 + 1000 ln 0.04 ~ -3218: Delta_r is far below the
        # float range, N* ~ 2800, and omega_N underflows to 0.0 near n = 649
        p = SpinBosonPoint(alpha=0.999, epsilon=0.0, delta_ratio=0.04)
        with pytest.warns(UserWarning, match="longitudinal"):
            state, report = run(p, NRGConfig(lam=10.0, n_keep=16, n_max=3000))
        assert report.converged
        assert renormalized_tunneling(p) == 0.0 and state.unscale == 0.0
        assert report.n_m > report.n_star > 2700
        # the paper's limit: maximal entanglement as alpha -> 1 at eps = 0
        assert entanglement_entropy(report.sx, report.sz)[2] > 0.999


needs_openblas = pytest.mark.skipif(
    engine_mod._openblas() is None, reason="numpy's OpenBLAS not found"
)


class TestOrbitPool:
    @needs_openblas
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_pooled_run_matches_serial_loop(self, eps, monkeypatch):
        p = SpinBosonPoint(alpha=0.4, epsilon=eps, delta_ratio=0.04)
        cfg = NRGConfig(n_keep=100)
        threads = set()
        diagonalize = engine_mod._diagonalize

        def recording(ham, sector):
            threads.add(threading.get_ident())
            return diagonalize(ham, sector)

        monkeypatch.setattr(engine_mod, "_diagonalize", recording)
        state, report = run(p, cfg)
        assert threads - {threading.get_ident()}  # the pool diagonalized

        chain = build_chain(cfg.lam, cfg.n_max)
        st = init_impurity_site(map_to_kondo(p))
        ops = init_operator_blocks(st)
        for n, sx_raw, sz_raw in report.history[1:]:
            st = truncate(add_site(st, chain), cfg.n_keep)
            ops = propagate(ops, st)
            assert st.n == n
            np.testing.assert_allclose(
                ground_expectation_raw(st, ops), (sx_raw, sz_raw), rtol=0, atol=1e-12
            )
        assert st.blocks.keys() == state.blocks.keys()
        for t, b in st.blocks.items():
            np.testing.assert_allclose(
                b.energies, state.blocks[t].energies, rtol=0, atol=1e-12
            )

    def test_oversubscribed_pool_matches_serial(self):
        # more threads than cores and a short switch interval: an update lost
        # between the workers would show in the kept blocks
        chain = build_chain(2.0, 9)
        serial = pooled = init_impurity_site(_alpha_04(0.0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                for _ in range(8):
                    serial = truncate(add_site(serial, chain), 120)
                    pooled = truncate(add_site(pooled, chain, pool.map), 120)
                    assert pooled.blocks.keys() == serial.blocks.keys()
                    for t, b in serial.blocks.items():
                        assert np.array_equal(pooled.blocks[t].energies, b.energies)
                        assert np.array_equal(pooled.blocks[t].vectors, b.vectors)
        finally:
            sys.setswitchinterval(interval)

    @needs_openblas
    @pytest.mark.parametrize("fail", [False, True])
    def test_blas_threads_pinned_and_restored(self, fail, monkeypatch):
        get, set_ = engine_mod._openblas()
        saved = get()
        set_(2)
        before = get()
        seen = []
        eigh = np.linalg.eigh

        def probe(ham):
            if threading.current_thread() is not threading.main_thread():
                seen.append(get())
                if fail:
                    raise np.linalg.LinAlgError("synthetic breakdown")
            return eigh(ham)

        monkeypatch.setattr(np.linalg, "eigh", probe)
        p = SpinBosonPoint(alpha=0.4, epsilon=0.0, delta_ratio=0.04)
        try:
            if fail:
                with pytest.raises(EngineError, match="eigensolver failed"):
                    run(p, NRGConfig(n_max=4))
            else:
                run(p, NRGConfig(n_max=4))
            assert get() == before
        finally:
            set_(saved)
        # the pool's calls run with BLAS on one thread
        assert seen and set(seen) == {1}


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


@pytest.mark.parametrize("lam, depth", [(1.5, 3700), (2.0, 2200), (10.0, 700)])
def test_unscale_is_omega_n_in_closed_form(lam, depth):
    """unscale is Lambda^(-(N-1)/2) exactly, and 0.0 once that underflows."""
    # four untruncated steps; blocks grow fourfold per step
    chain = build_chain(lam, 4)
    st = init_impurity_site(GENERIC)
    for n in range(1, 5):
        st = add_site(st, chain)
        assert st.unscale == lam ** (-(n - 1) / 2)
    # one step from deep in the chain, where a product of step factors would
    # stick at the smallest subnormal instead of reaching 0.0
    for n, omega in ((depth - 100, lam ** (-(depth - 101) / 2)), (depth, 0.0)):
        block = SectorBlock(np.zeros(1), np.eye(1))
        prev = IterationState(
            n - 1, {Sector(0, 1): block}, 0.0, unscale=lam ** (-(n - 2) / 2)
        )
        assert engine_mod._extend(prev, [], lam).unscale == omega


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
            sign = g.sign[loc] * old.blocks[s].sym[i]
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
            sign *= g.sign[loc]
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
        assert st.symmetries == ((SPIN_FLIP,) if eps == 0.0 else ())
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
                # at zero field fixed by F, and split into F-even and F-odd
                split = len([s for s, _ in calls if s == Sector(0, 0)])
                assert split == (2 if eps == 0.0 else 1)
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
        # at eps > 0 the table is empty, so the reference is the run at the
        # opposite field, whose sectors are the mirror images (2I, -2Sz)
        chain = build_chain(2.0, 13)
        k = _alpha_04(eps)
        sym = init_impurity_site(k)
        if eps == 0.0:
            ref, mirror = replace(sym, symmetries=()), lambda t: t
        else:
            ref, mirror = init_impurity_site(replace(k, field=-k.field)), SPIN_FLIP.sector
        for _ in range(12):
            sym = truncate(add_site(sym, chain), 150)
            ref = truncate(add_site(ref, chain), 150)
            assert ref.symmetries == () and ref.representatives() == ref.blocks.keys()
            assert {mirror(t) for t in sym.blocks} == ref.blocks.keys()
            for t in sym.blocks:
                np.testing.assert_allclose(
                    sym.blocks[t].energies,
                    ref.blocks[mirror(t)].energies,
                    rtol=0,
                    atol=1e-10,
                )

    def test_filled_blocks_match_full_rotation(self, eps):
        chain = build_chain(2.0, 9)
        st = init_impurity_site(_alpha_04(eps))
        ops = init_operator_blocks(st)
        for _ in range(8):
            st = truncate(add_site(st, chain), 120)
            full = rotate(st, (ops.ox, ops.oz), SITE_ONE)
            full += [rotate(st, None, partial(engine_mod._site_fdag, f))[0] for f in FDAG]
            ops = propagate(ops, st)
            filled = [ops.ox, ops.oz, *engine_mod._fdag_blocks(st)]
            for op, ref in zip(filled, full):
                assert op.keys() == ref.keys()
                for key in ref:
                    np.testing.assert_allclose(op[key], ref[key], rtol=0, atol=1e-12)

    def test_isospin_and_flip_commute_with_oracle_hamiltonian(self, eps):
        k = _alpha_04(eps)
        ham, labels, _ = full_hamiltonian(k, build_chain(2.0, 3), 3)
        m = _oracle_action(SPIN_FLIP, 3)
        assert np.array_equal(m @ m.T, np.eye(len(m)))
        # the sector map: labels of the image states
        image = np.argmax(np.abs(m), axis=0)
        assert np.array_equal(labels[image], labels * np.array(SPIN_FLIP.scale))
        holds = SPIN_FLIP in engine_mod.symmetries_of(k)
        commutator = np.abs(m @ ham - ham @ m).max()
        assert (commutator < 1e-14) if holds else (commutator > 1e-3)
        # the staggered isospin raiser commutes at every field; F flips its sign
        fdag, _ = _fock_ops(3)
        raise_op = sum((-1) ** n * fdag[2 * n] @ fdag[2 * n + 1] for n in range(3))
        assert np.abs(raise_op @ ham - ham @ raise_op).max() < 1e-14
        assert np.array_equal(m @ raise_op @ m.T, -raise_op)


def _dense(op, order, dims):
    """A BlockOp as one matrix over the kept multiplets of the sectors in order."""
    off = dict(zip(order, np.cumsum([0] + [dims[s] for s in order])))
    m = np.zeros((off[order[-1]] + dims[order[-1]],) * 2)
    for (t, u), blk in op.items():
        m[off[t] : off[t] + dims[t], off[u] : off[u] + dims[u]] = blk
    return m


def _check_against_dense(st, op, dense, pos):
    """op against U_t^T dense U_u on every pair of st's blocks; dense acts on
    the old kept multiplets x the four site states, pos[t] the rows of t there."""
    for t, bt in st.blocks.items():
        for u, bu in st.blocks.items():
            ref = bt.vectors.T @ dense[np.ix_(pos[t], pos[u])] @ bu.vectors
            got = op.get((t, u), np.zeros_like(ref))
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12, err_msg=f"{t} {u}")


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_rotations_match_dense_kron(eps):
    # the carried observables (O (x) 1) and the newest site's f^dag, built as
    # dense np.kron products on the old kept multiplets x the site's four
    # states and rotated by the kept vectors, independently of `rotate`
    chain = build_chain(2.0, 7)
    st = init_impurity_site(_alpha_04(eps))
    ops = init_operator_blocks(st)
    for n in range(1, 7):
        old, old_ops = st, ops
        st = truncate(add_site(old, chain), 40)
        ops = propagate(old_ops, st)
        order = sorted(old.blocks)
        dims = {s: len(old.blocks[s].energies) for s in order}
        off = dict(zip(order, np.cumsum([0] + [dims[s] for s in order])))
        pos = {t: np.zeros(len(b.vectors), dtype=int) for t, b in st.blocks.items()}
        for (s, loc), (t, rows) in st.layout.items():
            if t in pos:  # a product sector may be truncated away
                pos[t][rows] = (off[s] + np.arange(dims[s])) * 4 + loc
        for new_op, old_op in ((ops.ox, old_ops.ox), (ops.oz, old_ops.oz)):
            _check_against_dense(st, new_op, np.kron(_dense(old_op, order, dims), np.eye(4)), pos)
        # f^dag_sigma of site n on the highest weights of an old multiplet I =
        # q/2: the empty site enters I + 1/2 with weight sqrt(q/(q+1)), and the
        # n old sites and q give the fermion parity it passes
        for f, fdag in zip(FDAG, engine_mod._fdag_blocks(st)):
            dense = 0.0
            for s in order:
                site = f.copy()
                site[:, EMPTY] *= math.sqrt(s.q / (s.q + 1))
                proj = _dense({(s, s): np.eye(dims[s])}, order, dims)
                dense = dense + (-1.0) ** (s.q + n) * np.kron(proj, site)
            _check_against_dense(st, fdag, dense, pos)


def test_rotate_matches_dense_kron_for_a_general_product():
    # B with two elements in a row (UP <- UP and UP <- DN) and A with blocks
    # (s, s) and (s, s + 2 two_sz) put two pieces on the same rows of one
    # block; the second op lacks the blocks off the diagonal
    chain = build_chain(2.0, 4)
    old = truncate(add_site(add_site(init_impurity_site(GENERIC), chain), chain), 40)
    st = add_site(old, chain)
    order = sorted(old.blocks)
    dims = {s: len(old.blocks[s].energies) for s in order}
    off = dict(zip(order, np.cumsum([0] + [dims[s] for s in order])))
    rng = np.random.default_rng(3)
    a = {(s, u): rng.standard_normal((dims[s], dims[u])) for s in order for u in order if s.q == u.q}
    a2 = {(s, u): m for (s, u), m in a.items() if s == u}
    b = SITE_ONE + engine_mod.SITE_S_PLUS
    pos = {t: np.zeros(len(blk.vectors), dtype=int) for t, blk in st.blocks.items()}
    for (s, loc), (t, rows) in st.layout.items():
        pos[t][rows] = (off[s] + np.arange(dims[s])) * 4 + loc
    for op, ref in zip(rotate(st, (a, a2), b), (a, a2)):
        _check_against_dense(st, op, np.kron(_dense(ref, order, dims), b), pos)


@pytest.mark.parametrize("field", [0.0, 0.05])
def test_ising_term_alone_matches_oracle(field):
    # at J_perp -> 0 (the smallest positive coupling) the impurity step is
    # the Ising term J_par S_z s_z, whose pieces sit on diagonal blocks of
    # the product basis: each must enter as m + m^T, not as one triangle
    k = KondoParams(rho0_jperp=1e-30, rho0_jpar=0.8, field=field)
    st = init_impurity_site(k)
    hams, _ = sector_hamiltonians(k, build_chain(2.0, 1), 1)
    for (q, two_sz), h in hams.items():
        # a multiplet of isospin I has a member in every sector q = -2I .. 2I
        levels = [
            b.energies
            for s, b in st.blocks.items()
            if s.two_sz == two_sz and s.q >= abs(q) and (s.q - q) % 2 == 0
        ]
        np.testing.assert_allclose(
            np.sort(np.concatenate(levels)) + st.e0_accumulated,
            np.linalg.eigvalsh(h),
            rtol=0,
            atol=1e-12,
        )


def test_character_split_sees_a_symmetric_matrix(monkeypatch):
    # a block is assembled in its lower triangle; the character split of a
    # fixed sector gathers full rows, so it must get the mirrored matrix
    seen = []
    split = engine_mod._diagonalize_by_characters

    def recording(ham, sector, acts):
        seen.append(ham.copy())
        return split(ham, sector, acts)

    monkeypatch.setattr(engine_mod, "_diagonalize_by_characters", recording)
    chain = build_chain(2.0, 6)
    st = init_impurity_site(_alpha_04(0.0))
    for _ in range(5):
        st = truncate(add_site(st, chain), 60)
    assert len(seen) >= 5
    for ham in seen:
        assert np.array_equal(ham, ham.T)
    assert any(np.count_nonzero(np.triu(ham, 1)) for ham in seen)


def _two_site_fdag():
    """f^dag_{n, sigma} on two sites, site 0 first in the Jordan-Wigner order."""
    parity = np.diag([(-1.0) ** e for e in N_EL])
    return [
        [np.kron(f, np.eye(4)) for f in FDAG],
        [np.kron(parity, f) for f in FDAG],
    ]


class TestChargeSU2:
    """The charge isospin that the engine's multiplet blocks rely on."""

    def test_hopping_commutes_with_staggered_isospin(self):
        (up0, dn0), (up1, dn1) = _two_site_fdag()
        hop = up1 @ up0.T + dn1 @ dn0.T
        hop = hop + hop.T
        staggered = up0 @ dn0 - up1 @ dn1  # (-1)^n on site n
        assert np.abs(hop @ staggered - staggered @ hop).max() == 0.0
        uniform = up0 @ dn0 + up1 @ dn1
        assert np.abs(hop @ uniform - uniform @ hop).max() > 0.5

    def test_site_doublet_and_flip_sign(self):
        raiser = FDAG_UP @ FDAG_DN  # I^+ on an even site
        assert raiser[DOUBLE, EMPTY] == 1.0 and np.count_nonzero(raiser) == 1
        flip = np.zeros((4, 4))
        flip[list(FLIP), [EMPTY, UP, DN, DOUBLE]] = FLIP_SIGN
        assert np.array_equal(flip @ raiser @ flip.T, -raiser)
        # f^dag_up and (-1)^n f_dn form a rank-1/2 tensor: [I^+, (-1)^n f_dn]
        # is f^dag_up on either parity of n
        for z in (1.0, -1.0):
            lowered = z * FDAG_DN.T
            assert np.array_equal(z * raiser @ lowered - lowered @ (z * raiser), FDAG_UP)

    @pytest.mark.parametrize("sites", [2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_oracle_levels_repeat_in_lower_charge_sectors(self, sites, eps):
        # a multiplet of isospin I has a member in every sector q = -2I .. 2I
        hams, _ = sector_hamiltonians(_alpha_04(eps), build_chain(2.0, sites), sites)
        levels = {s: np.linalg.eigvalsh(h) for s, h in hams.items()}
        pairs = 0
        for (q, two_sz), w in levels.items():
            for outer in (q - 2, q + 2):
                if abs(outer) > abs(q) and (outer, two_sz) in levels:
                    pairs += 1
                    distance = np.abs(levels[(outer, two_sz)][:, None] - w[None, :])
                    assert distance.min(axis=1).max() < 1e-12
        assert pairs > 0
