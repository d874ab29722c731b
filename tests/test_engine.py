import math
import os
import sys
import threading
import time
import warnings
import weakref
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
    SpinBosonPoint,
    build_chain,
    entanglement_entropy,
    exact_ground,
    map_to_kondo,
    renormalized_tunneling,
    run,
)
import spinboson_nrg.engine as engine_mod
from spinboson_nrg.engine import DEGENERACY_TOL, ETA, FDAG, PLATEAU_TOL, PLATEAU_WINDOW
from spinboson_nrg.engine import SITE_ONE
from spinboson_nrg.engine import EngineError
from spinboson_nrg.engine import _n_star, _plateau_status
from spinboson_nrg.engine import Sector, SectorBlock, add_site, init_impurity_site
from spinboson_nrg.engine import iterate, rotate, truncate
from spinboson_nrg.observables import (
    ground_expectation_raw,
    init_operator_blocks,
    propagate,
)
from spinboson_nrg.fock import DN, DOUBLE, EMPTY, FDAG_DN, FDAG_UP, FLIP, FLIP_SIGN
from spinboson_nrg.fock import N_EL, UP

from dense_hamiltonian import fock_operators, full_hamiltonian, sector_hamiltonians

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
        oz = init_operator_blocks(st).blocks  # S_z is the second of the stack
        ground = {s: b for s, b in st.blocks.items() if b.energies[0] == 0.0}
        # the impurity down with site 0 in any state: the empty site and the
        # double form one isospin doublet, up and down are singlets
        assert len(ground) == 3
        assert sum(b.mult for b in ground.values()) == 4
        for s, b in ground.items():
            for i in np.flatnonzero(b.energies <= 1e-12):
                assert oz[(s, s)][1, i, i] == pytest.approx(-0.5, abs=1e-12)

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

    def test_iterate_runs_to_the_chain_end(self):
        # iterations 0 .. chain.length, untruncated when n_keep is None
        chain = build_chain(2.0, 3)
        states = [st for st, _, _ in iterate(GENERIC, chain)]
        assert [st.n for st in states] == [0, 1, 2, 3]
        exact = exact_ground(GENERIC, chain, 4)
        assert states[-1].e0_accumulated == pytest.approx(exact.e0, abs=1e-12)


def _fock_highest_weights(k, sites):
    """The last iteration's kept highest weights as Fock vectors of the oracle,
    built up site by site from the engine's layout and vectors.

    A channel of an old highest weight |J J> (q = 2J) on site n is: UP and DN
    the parity-signed f^dag_n |J J>, DOUBLE f^dag_n,up f^dag_n,dn |J J>, and
    EMPTY sqrt(q/(q+1)) |J J> - (-1)^n/sqrt(q (q+1)) f^dag_n,up f^dag_n,dn I^-|J J>.
    """
    fdag = fock_operators(sites)
    n_orb = 2 * sites
    # the electron parity; the impurity bit is the high one
    parity = np.diag([(-1.0) ** bin(i % (1 << n_orb)).count("1") for i in range(2 << n_orb)])
    chain = build_chain(2.0, sites)
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
        ham, labels = full_hamiltonian(k, chain, 4)
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
                    # F parities at zero field, none without F
                    assert (b.sym is None) == (full.sym is None) == (eps > 0.0)
                    if full.sym is not None:
                        assert np.array_equal(b.sym, full.sym[:c])
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

    def test_even_odd_read_out_averages_the_last_two_iterations(self):
        # at lambda 1.3 this point's flow alternates with the parity of n by
        # more than PLATEAU_TOL, so it converges on the even/odd plateau
        p = SpinBosonPoint(alpha=0.5, epsilon=1.0, delta_ratio=0.1)
        _, report = run(p, NRGConfig(lam=1.3, n_keep=100))
        assert report.converged and report.even_odd_averaged
        assert report.drift_sx > PLATEAU_TOL
        h = report.history
        assert report.sx == -(h[-1][1] + h[-2][1]) / 2
        assert report.sz == -(h[-1][2] + h[-2][2]) / 2

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


class TestBlockPool:
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
        if engine_mod._usable_cpus() > 1:
            assert threads - {threading.get_ident()}  # a helper diagonalized too
        else:
            assert threads == {threading.get_ident()}  # no helper on one CPU

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
        # between the helpers and the caller would show in the kept blocks
        chain = build_chain(2.0, 9)
        serial = pooled = init_impurity_site(_alpha_04(0.0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(7) as pool:
                mapper = partial(engine_mod._drain, pool, 7)
                for _ in range(8):
                    serial = truncate(add_site(serial, chain), 120)
                    pooled = truncate(add_site(pooled, chain, mapper), 120)
                    assert pooled.blocks.keys() == serial.blocks.keys()
                    for t, b in serial.blocks.items():
                        assert np.array_equal(pooled.blocks[t].energies, b.energies)
                        assert np.array_equal(pooled.blocks[t].vectors, b.vectors)
        finally:
            sys.setswitchinterval(interval)

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        p = SpinBosonPoint(alpha=0.4, epsilon=0.1, delta_ratio=0.04)
        cfg = NRGConfig(n_keep=100)
        pooled_state, pooled_report = run(p, cfg)
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        state, report = run(p, cfg)
        assert not started
        assert report == pooled_report
        assert state.blocks.keys() == pooled_state.blocks.keys()
        for t, b in state.blocks.items():
            assert np.array_equal(b.energies, pooled_state.blocks[t].energies)
            assert np.array_equal(b.vectors, pooled_state.blocks[t].vectors)

    @needs_openblas
    def test_overlapping_runs_share_the_pin(self):
        # run A enters, then run B, then A exits: B's pool still runs with
        # OpenBLAS on one thread, and the last run out restores the count
        get, set_ = engine_mod._openblas()
        saved = get()
        set_(2)
        events = [(threading.Event(), threading.Event()) for _ in "AB"]

        def hold(entered, leave):
            with engine_mod._block_mapper():
                entered.set()
                leave.wait(30)

        a, b = (threading.Thread(target=hold, args=e) for e in events)
        try:
            a.start()
            assert events[0][0].wait(30)
            b.start()
            assert events[1][0].wait(30)
            events[0][1].set()
            a.join()
            during = get()
            events[1][1].set()
            b.join()
            after = get()
        finally:
            for _, leave in events:
                leave.set()
            set_(saved)
        assert (during, after) == (1, 2)

    @needs_openblas
    @pytest.mark.parametrize("fail", [False, True])
    def test_blas_threads_pinned_and_restored(self, fail, monkeypatch):
        get, set_ = engine_mod._openblas()
        saved = get()
        set_(2)
        before = get()
        seen = []
        eigh = np.linalg.eigh
        threads = set(threading.enumerate())

        def probe(ham):
            seen.append(get())
            if fail:
                raise np.linalg.LinAlgError("synthetic breakdown")
            return eigh(ham)

        monkeypatch.setattr(np.linalg, "eigh", probe)
        p = SpinBosonPoint(alpha=0.4, epsilon=0.0, delta_ratio=0.04)
        try:
            # n_max = 4 is below N*
            with pytest.warns(UserWarning, match=r"N\*"):
                if fail:
                    with pytest.raises(EngineError, match="eigensolver failed"):
                        run(p, NRGConfig(n_max=4))
                else:
                    run(p, NRGConfig(n_max=4))
            assert get() == before
        finally:
            set_(saved)
        # every call, the caller's and the helpers', runs with BLAS on one
        # thread, and no helper outlives the run
        assert seen and set(seen) == {1}
        assert set(threading.enumerate()) == threads

    @needs_openblas
    def test_worker_process_maps_serially(self, monkeypatch):
        # in a multiprocessing worker the sibling processes fill the cores: no
        # pool, and the OpenBLAS count is left as it is
        import multiprocessing

        get, set_ = engine_mod._openblas()
        saved = get()
        set_(2)
        monkeypatch.setattr(
            multiprocessing, "parent_process", multiprocessing.current_process
        )
        try:
            with engine_mod._block_mapper() as mapper:
                assert mapper is map
                assert get() == 2
            assert get() == 2
        finally:
            set_(saved)


class TestDrain:
    # a step's blocks, largest first, of mixed sizes
    ROWS = (90, 60, 45, 30, 12, 8, 8, 4, 2, 1)

    @pytest.mark.parametrize("helpers", [0, 1, 3])
    def test_results_in_input_order_each_block_once(self, helpers):
        blocks = [np.zeros(n) for n in self.ROWS]
        calls = []

        def solve(block, k):
            calls.append(k)
            time.sleep(1e-5 * len(block))  # lets the GIL go, as eigh does
            return k, len(block)

        threads = set(threading.enumerate())
        with ThreadPoolExecutor(max(helpers, 1)) as pool:
            for _ in range(20):  # the helpers serve step after step
                calls.clear()
                out = engine_mod._drain(pool, helpers, solve, blocks, range(len(blocks)))
                assert out == list(enumerate(self.ROWS))
                assert sorted(calls) == list(range(len(blocks)))
        assert set(threading.enumerate()) == threads

    @pytest.mark.parametrize("helpers", [0, 1, 3])
    def test_each_share_takes_blocks_in_list_order(self, helpers):
        # one shared index: every thread takes the next block of the list, so
        # the step ends on the smallest blocks
        calls = []

        def solve(block, k):
            calls.append((threading.get_ident(), k))
            time.sleep(1e-5 * len(block))  # lets the GIL go, as eigh does
            return k

        blocks = [np.zeros(n) for n in self.ROWS]
        with ThreadPoolExecutor(max(helpers, 1)) as pool:
            for _ in range(20):
                calls.clear()
                engine_mod._drain(pool, helpers, solve, blocks, range(len(blocks)))
                if not helpers:
                    assert [k for _, k in calls] == list(range(len(blocks)))
                for thread in {t for t, _ in calls}:
                    share = [k for t, k in calls if t == thread]
                    assert share == sorted(share)

    def test_one_cpu_maps_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        blocks = [np.zeros(n) for n in self.ROWS]
        with engine_mod._block_mapper() as mapper:
            threads = list(mapper(lambda block: threading.get_ident(), blocks))
        assert threads == [threading.get_ident()] * len(blocks)

    def test_a_step_is_freed_when_drain_returns(self):
        # an idle helper must not hold the last step's blocks and results:
        # at paper fidelity they are megabytes of full eigenvector arrays
        class Result:
            pass

        with ThreadPoolExecutor(2) as pool:
            blocks = [np.zeros(n) for n in self.ROWS]
            out = engine_mod._drain(pool, 2, lambda block: Result(), blocks)
            refs = [weakref.ref(r) for r in out]
            del out
            for _ in range(100):  # a helper may still be returning from its task
                if not any(r() for r in refs):
                    break
                time.sleep(0.01)
            assert not any(r() for r in refs)

    @pytest.mark.parametrize("helpers", [1, 3])
    @pytest.mark.parametrize("caller_fails", [True, False])
    def test_an_error_in_either_share_reaches_the_caller(self, helpers, caller_fails):
        # the failing share starts its first block, and the other waits for
        # that, so each share holds a block; the failure then stops the drain
        failing = threading.Event()
        calls = []

        def solve(block):
            calls.append(len(block))
            if (threading.current_thread() is threading.main_thread()) == caller_fails:
                failing.set()
                raise EngineError("synthetic breakdown")
            assert failing.wait(30)
            time.sleep(0.05)  # the failure is recorded meanwhile
            return len(block)

        threads = set(threading.enumerate())
        with ThreadPoolExecutor(helpers) as pool:
            with pytest.raises(EngineError, match="synthetic breakdown"):
                engine_mod._drain(pool, helpers, solve, [np.zeros(n) for n in self.ROWS])
            # no thread took a block after the failure: each took at most one
            assert len(calls) <= helpers + 1 < len(self.ROWS)
        assert set(threading.enumerate()) == threads


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


@pytest.mark.parametrize(
    "name, value, message",
    [("n_keep", 15, "n_keep must be >= 16"), ("n_max", 0, "n_max must be >= 1")],
)
def test_config_below_its_floor_rejected(name, value, message):
    with pytest.raises(DomainError, match=message):
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

    @pytest.mark.parametrize("col", [1, 2])
    @pytest.mark.parametrize("pos", range(PLATEAU_WINDOW))
    def test_nan_in_window_not_settled(self, col, pos):
        # the builtin max and min skip a NaN anywhere but first
        hist = [[n, -0.1, 0.2] for n in range(PLATEAU_WINDOW)]
        hist[pos][col] = math.nan
        assert _plateau_status([tuple(h) for h in hist]) == (False, False)

    def test_nan_in_parity_window_not_settled(self):
        # alternating flow: the NaN sits in the even-n subsequence only
        hist = [(n, 0.5 + (1e-4 if n % 2 else -1e-4), 0.0) for n in range(8)]
        hist[2] = (2, math.nan, 0.0)
        assert _plateau_status(hist) == (False, False)


def _alpha_04(eps):
    return map_to_kondo(SpinBosonPoint(alpha=0.4, epsilon=eps, delta_ratio=0.04))


def _mirror(t):
    """The sector F maps t to."""
    return Sector(t.q, -t.two_sz)


def _flip_action(new, old, t):
    """F on the product rows, as the matrix from t to its image."""
    dims = {s: b.vectors.shape[0] for s, b in new.blocks.items()}
    m = np.zeros((dims[_mirror(t)], dims[t]))
    for (s, loc), (sec, rows) in new.layout.items():
        if sec == t:
            image = new.layout[(_mirror(s), FLIP[loc])][1]
            sign = FLIP_SIGN[loc] * old.blocks[s].sym
            m[np.r_[image], np.r_[rows]] = sign
    return m


def _oracle_flip(sites):
    """F in the oracle's occupation basis, the product of its site actions."""
    code = {EMPTY: (0, 0), UP: (1, 0), DN: (0, 1), DOUBLE: (1, 1)}
    local = {bits: loc for loc, bits in code.items()}
    n_orb = 2 * sites
    m = np.zeros((2 * 4**sites, 2 * 4**sites))
    for state in range(len(m)):
        imp, occ = state >> n_orb, state & ((1 << n_orb) - 1)
        image, sign = 0, 1.0
        for n in range(sites):
            loc = local[((occ >> 2 * n) & 1, (occ >> (2 * n + 1)) & 1)]
            up, dn = code[FLIP[loc]]
            image |= (up << 2 * n) | (dn << (2 * n + 1))
            sign *= FLIP_SIGN[loc]
        m[((1 - imp) << n_orb) | image, state] = sign
    return m


# F and the identity form the group Z2; its characters are the F parities
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
        assert st.flip == (eps == 0.0)
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
                # an F-even and an F-odd block where F fixes t
                fixed = new.flip and _mirror(t) == t
                assert sum(dims) == blk.vectors.shape[0]
                assert len(dims) <= (2 if fixed else 1)
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
                if not new.flip:
                    assert blk.sym is None
                    continue
                u = _mirror(t)
                image, sym = new.blocks[u], blk.sym
                assert set(np.unique(sym)) <= {-1.0, 1.0}
                assert np.array_equal(image.energies, blk.energies)
                fv = _flip_action(new, old, t) @ blk.vectors
                if u == t:
                    # the parities of a fixed sector
                    np.testing.assert_allclose(
                        blk.vectors.T @ fv, np.diag(sym), rtol=0, atol=1e-12
                    )
                else:
                    assert np.array_equal(fv, image.vectors * sym)
            old = truncate(new, 120)

    def test_kept_energies_match_unsymmetrized_path(self, eps):
        # at eps > 0 F does not hold, so the reference is the run at the
        # opposite field, whose sectors are the mirror images (2I, -2Sz)
        chain = build_chain(2.0, 13)
        k = _alpha_04(eps)
        sym = init_impurity_site(k)
        if eps == 0.0:
            ref, mirror = replace(sym, flip=False), lambda t: t
        else:
            ref, mirror = init_impurity_site(replace(k, field=-k.field)), _mirror
        for _ in range(12):
            sym = truncate(add_site(sym, chain), 150)
            ref = truncate(add_site(ref, chain), 150)
            assert not ref.flip and ref.representatives() == ref.blocks.keys()
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
            full = [rotate(st, ops.blocks, SITE_ONE)]
            full += [rotate(st, None, partial(engine_mod._site_fdag, f)) for f in FDAG]
            ops = propagate(ops, st)
            filled = [ops.blocks, *engine_mod._fdag_blocks(st)]
            for op, ref in zip(filled, full):
                assert op.keys() == ref.keys()
                for key in ref:
                    np.testing.assert_allclose(op[key], ref[key], rtol=0, atol=1e-12)

    def test_image_rows_are_mirrored_not_rotated(self, eps, monkeypatch):
        # what `rotate` is asked to compute, per call of `_pieces`: the site
        # factor and the row sectors
        calls = []
        pieces = engine_mod._pieces

        def recording(layout, n_old_sites, a, b, row_sectors):
            calls.append((b, set(row_sectors)))
            return pieces(layout, n_old_sites, a, b, row_sectors)

        chain = build_chain(2.0, 6)
        st = init_impurity_site(_alpha_04(eps))
        ops = init_operator_blocks(st)
        for _ in range(5):
            st = truncate(add_site(st, chain), 120)
            monkeypatch.setattr(engine_mod, "_pieces", recording)
            calls.clear()
            engine_mod._fdag_blocks(st)
            fdag_calls = list(calls)
            calls.clear()
            ops = propagate(ops, st)
            monkeypatch.setattr(engine_mod, "_pieces", pieces)
            every, reps = set(st.blocks), st.representatives()
            if eps == 0.0:
                # f^dag_dn is the mirror of f^dag_up, and the observables are
                # rotated into the representative rows only
                assert reps < every
                assert fdag_calls == [(engine_mod._SITE_FDAG[0], every)]
                assert calls == [(SITE_ONE, reps)]
            else:
                assert reps == every
                assert fdag_calls == [(site, every) for site in engine_mod._SITE_FDAG]
                assert calls == [(SITE_ONE, every)]

    def test_isospin_and_flip_commute_with_oracle_hamiltonian(self, eps):
        k = _alpha_04(eps)
        ham, labels = full_hamiltonian(k, build_chain(2.0, 3), 3)
        m = _oracle_flip(3)
        assert np.array_equal(m @ m.T, np.eye(len(m)))
        # the sector map: labels of the image states
        image = np.argmax(np.abs(m), axis=0)
        assert np.array_equal(labels[image], labels * np.array((1, -1)))
        holds = init_impurity_site(k).flip
        commutator = np.abs(m @ ham - ham @ m).max()
        assert (commutator < 1e-14) if holds else (commutator > 1e-3)
        # the staggered isospin raiser commutes at every field; F flips its sign
        fdag = fock_operators(3)
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


def _component(op, i):
    """The i-th operator of a BlockOp whose blocks are stacked."""
    return {key: m[i] for key, m in op.items()}


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
        for i in range(2):  # O_x + O_x^dag, then S_z
            old_op = _component(old_ops.blocks, i)
            dense = np.kron(_dense(old_op, order, dims), np.eye(4))
            _check_against_dense(st, _component(ops.blocks, i), dense, pos)
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
    # block; the second op lacks the blocks off the diagonal, so the stack
    # holds zeros there
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
    stacked = {k: np.array([m, a2.get(k, np.zeros_like(m))]) for k, m in a.items()}
    out = rotate(st, stacked, b)
    for i, ref in enumerate((a, a2)):
        dense = np.kron(_dense(ref, order, dims), b)
        _check_against_dense(st, _component(out, i), dense, pos)


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_stacked_rotation_equals_separate_rotations(eps):
    # at eps = 0 the parity array (+1, -1) takes the mirrored path, and each
    # operator rotated alone takes its own parity as a number
    chain = build_chain(2.0, 6)
    st = init_impurity_site(_alpha_04(eps))
    ops = init_operator_blocks(st)
    for _ in range(5):
        st = truncate(add_site(st, chain), 60)
        assert st.flip == (eps == 0.0)
        stacked = rotate(st, ops.blocks, SITE_ONE, (1.0, -1.0))
        apart = [
            rotate(st, _component(ops.blocks, i), SITE_ONE, c) for i, c in enumerate((1.0, -1.0))
        ]
        assert stacked.keys() == apart[0].keys() == apart[1].keys()
        for key, m in stacked.items():
            assert np.array_equal(m, np.array([apart[0][key], apart[1][key]]))
        ops = propagate(ops, st)


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


def test_blocks_are_read_from_their_lower_triangle_alone(monkeypatch):
    # a block is assembled in its lower triangle, and every reader of it,
    # eigh and the parity split of a fixed sector alike, reads only that
    # triangle and writes nothing: NaN above the diagonal stays there and
    # leaves every record of a run as it was
    p = SpinBosonPoint(alpha=0.4, epsilon=0.0, delta_ratio=0.04)
    cfg = NRGConfig(n_keep=100)
    _, clean = run(p, cfg)
    split = []
    solve = engine_mod._diagonalize_representative

    def poisoned(flip, old, layout, ham, r, entries):
        ham[np.triu_indices(len(ham), 1)] = np.nan
        before = ham.copy()
        out = solve(flip, old, layout, ham, r, entries)
        assert np.array_equal(ham, before, equal_nan=True)
        split.append(r.two_sz == 0)
        return out

    monkeypatch.setattr(engine_mod, "_diagonalize_representative", poisoned)
    _, report = run(p, cfg)
    assert report.converged and report == clean
    assert sum(split) > report.n_m  # fixed sectors were split, more than once a step


def test_parity_split_diagonalizes_each_parity(monkeypatch):
    # F swaps three row pairs (one with sign +1, two with -1) and fixes two
    # rows of each sign; the rows are shuffled so that no pair is adjacent
    sizes = []
    diagonalize = engine_mod._diagonalize

    def recording(ham, sector):
        sizes.append(len(ham))
        return diagonalize(ham, sector)

    monkeypatch.setattr(engine_mod, "_diagonalize", recording)
    rng = np.random.default_rng(5)
    d = 10
    rows = rng.permutation(d)
    dest, sign = np.arange(d), np.ones(d)
    for (a, b), c in zip(rows[:6].reshape(3, 2), (1.0, -1.0, -1.0)):
        dest[a], dest[b] = b, a
        sign[a] = sign[b] = c
    sign[rows[6:8]] = -1.0  # fixed F-odd rows; rows[8:] are fixed F-even
    f = np.zeros((d, d))
    f[dest, np.arange(d)] = sign
    assert np.array_equal(f @ f, np.eye(d))
    a = rng.standard_normal((d, d))
    ham = 0.5 * ((a + a.T) + f @ (a + a.T) @ f)  # symmetric, commutes with F
    w, v, parity = engine_mod._split_by_parity(ham, Sector(0, 0), dest, sign)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(ham), rtol=0, atol=1e-12)
    np.testing.assert_allclose(v.T @ v, np.eye(d), rtol=0, atol=1e-12)
    np.testing.assert_allclose(f @ v, v * parity, rtol=0, atol=1e-12)
    # a pair gives a state to each parity, a fixed row to its own
    assert sorted(parity) == [-1.0] * 5 + [1.0] * 5
    assert sizes == [5, 5]
    # with every row fixed and even there is no F-odd block to diagonalize
    sizes.clear()
    w, v, parity = engine_mod._split_by_parity(ham, Sector(0, 0), np.arange(d), np.ones(d))
    np.testing.assert_allclose(w, np.linalg.eigvalsh(ham), rtol=0, atol=1e-12)
    assert sizes == [d] and np.array_equal(parity, np.ones(d))


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
