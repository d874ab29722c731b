"""Brute-force exact diagonalization of the impurity plus a short chain.

Certifies the iterative solver: identical Hamiltonian, solved sector by
sector in the full many-body Fock space with explicit Jordan-Wigner signs.
The global fermion ordering is by site index, up orbital before down; the
impurity spin carries no fermion number.  Capped at 5 chain sites (2048
states) to keep the dense solve sub-second.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chain import WilsonChain
from .engine import (
    IterationState,
    Sector,
    add_site,
    init_impurity_site,
    truncate,
)
from .params import DomainError, KondoParams

MAX_SITES = 5

_GROUND_TOL = 1e-9


@dataclass(frozen=True)
class FockBasis:
    """Enumeration of impurity x chain occupation states, grouped by sector.

    A state index is imp_bit * 4^sites + occ, where occ holds one bit per
    orbital (orbital 2*site for up, 2*site + 1 for down) and imp_bit = 0
    means impurity spin up.
    """

    sites: int
    dim: int
    sectors: dict[Sector, tuple[int, ...]]


def build_basis(sites: int) -> FockBasis:
    if not 1 <= sites <= MAX_SITES:
        raise DomainError(f"sites={sites} outside 1..{MAX_SITES} (dimension guard)")
    n_orb = 2 * sites
    sectors: dict[Sector, list[int]] = {}
    for imp_bit in (0, 1):
        imp_tsz = 1 - 2 * imp_bit
        for occ in range(1 << n_orb):
            n_up = sum((occ >> (2 * s)) & 1 for s in range(sites))
            n_dn = sum((occ >> (2 * s + 1)) & 1 for s in range(sites))
            sec = Sector(n_up + n_dn - sites, imp_tsz + n_up - n_dn)
            sectors.setdefault(sec, []).append(imp_bit * (1 << n_orb) + occ)
    return FockBasis(
        sites=sites,
        dim=2 * 4**sites,
        sectors={s: tuple(v) for s, v in sorted(sectors.items())},
    )


def _jw_sign(occ: int, orb: int) -> float:
    below = occ & ((1 << orb) - 1)
    return -1.0 if bin(below).count("1") % 2 else 1.0


def _apply_fdag(occ: int, orb: int) -> tuple[int, float] | None:
    if (occ >> orb) & 1:
        return None
    return occ | (1 << orb), _jw_sign(occ, orb)


def _apply_f(occ: int, orb: int) -> tuple[int, float] | None:
    if not (occ >> orb) & 1:
        return None
    return occ & ~(1 << orb), _jw_sign(occ, orb)


def _hop_terms(chain: WilsonChain, sites: int) -> list[tuple[int, int, float]]:
    terms = []
    for n in range(sites - 1):
        t = float(chain.hop[n])
        for spin in (0, 1):
            terms.append((2 * (n + 1) + spin, 2 * n + spin, t))
    return terms


def sector_hamiltonians(
    k: KondoParams, chain: WilsonChain, sites: int, basis: FockBasis | None = None
) -> tuple[dict[Sector, np.ndarray], FockBasis]:
    """Dense Hamiltonian blocks, one per (q, 2Sz) sector."""
    basis = basis or build_basis(sites)
    n_orb = 2 * sites
    occ_mask = (1 << n_orb) - 1
    hops = _hop_terms(chain, sites)
    blocks: dict[Sector, np.ndarray] = {}
    for sec, states in basis.sectors.items():
        pos = {st: i for i, st in enumerate(states)}
        d = len(states)
        ham = np.zeros((d, d))
        for j, st in enumerate(states):
            imp_bit, occ = st >> n_orb, st & occ_mask
            imp_sz = 0.5 * (1 - 2 * imp_bit)
            n_up0 = occ & 1
            n_dn0 = (occ >> 1) & 1
            ham[j, j] += 0.5 * k.jpar * (n_up0 - n_dn0) * imp_sz + k.field * imp_sz

            for orb_to, orb_from, t in hops:
                res = _apply_f(occ, orb_from)
                if res is None:
                    continue
                mid, s1 = res
                res = _apply_fdag(mid, orb_to)
                if res is None:
                    continue
                new_occ, s2 = res
                i = pos[(imp_bit << n_orb) | new_occ]
                amp = t * s1 * s2
                ham[i, j] += amp
                ham[j, i] += amp

            # J_perp/2 * f0up^dag f0dn S^- acting on impurity-up states;
            # the Hermitian conjugate is added through the mirrored element
            if imp_bit == 0:
                res = _apply_f(occ, 1)
                if res is not None:
                    mid, s1 = res
                    res = _apply_fdag(mid, 0)
                    if res is not None:
                        new_occ, s2 = res
                        i = pos[(1 << n_orb) | new_occ]
                        amp = 0.5 * k.jperp * s1 * s2
                        ham[i, j] += amp
                        ham[j, i] += amp
        blocks[sec] = ham
    return blocks, basis


def full_hamiltonian(
    k: KondoParams, chain: WilsonChain, sites: int
) -> tuple[np.ndarray, np.ndarray, FockBasis]:
    """Full dense Hamiltonian plus per-state sector labels (for invariants)."""
    blocks, basis = sector_hamiltonians(k, chain, sites)
    ham = np.zeros((basis.dim, basis.dim))
    labels = np.zeros((basis.dim, 2), dtype=int)
    for sec, states in basis.sectors.items():
        idx = np.asarray(states)
        ham[np.ix_(idx, idx)] = blocks[sec]
        labels[idx] = (sec.q, sec.two_sz)
    return ham, labels, basis


def spin_flip_matrix(basis: FockBasis, sector: Sector) -> np.ndarray:
    """O_x + O_x^dag restricted to one sector (it is sector-diagonal)."""
    states = basis.sectors[sector]
    n_orb = 2 * basis.sites
    occ_mask = (1 << n_orb) - 1
    pos = {st: i for i, st in enumerate(states)}
    d = len(states)
    m = np.zeros((d, d))
    for j, st in enumerate(states):
        imp_bit, occ = st >> n_orb, st & occ_mask
        if imp_bit != 0:
            continue
        res = _apply_f(occ, 1)
        if res is None:
            continue
        mid, s1 = res
        res = _apply_fdag(mid, 0)
        if res is None:
            continue
        new_occ, s2 = res
        i = pos[(1 << n_orb) | new_occ]
        m[i, j] += s1 * s2
        m[j, i] += s1 * s2
    return m


@dataclass
class ExactGround:
    e0: float
    sx_raw: float
    sz_raw: float
    degeneracy: int


def _solve(k: KondoParams, chain: WilsonChain, sites: int):
    """Each sector's eigenvalues and eigenvectors, and the basis."""
    blocks, basis = sector_hamiltonians(k, chain, sites)
    return {s: np.linalg.eigh(b) for s, b in blocks.items()}, basis


def exact_ground(k: KondoParams, chain: WilsonChain, sites: int) -> ExactGround:
    """Exact ground energy and raw observables, multiplet averaged."""
    return _ground(*_solve(k, chain, sites))


def _ground(eig, basis: FockBasis) -> ExactGround:
    e0 = min(w[0] for w, _ in eig.values())
    tol = _GROUND_TOL * max(1.0, abs(e0))

    n_orb = 2 * basis.sites
    sx_vals: list[float] = []
    sz_vals: list[float] = []
    for sec in sorted(eig):
        w, v = eig[sec]
        hit = np.nonzero(w - e0 <= tol)[0]
        if len(hit) == 0:
            continue
        ox = spin_flip_matrix(basis, sec)
        imp_sz = np.array(
            [0.5 * (1 - 2 * (st >> n_orb)) for st in basis.sectors[sec]]
        )
        for i in hit:
            vec = v[:, i]
            sx_vals.append(float(vec @ ox @ vec))
            sz_vals.append(2.0 * float(vec @ (imp_sz * vec)))
    return ExactGround(
        e0=float(e0),
        sx_raw=float(np.mean(sx_vals)),
        sz_raw=float(np.mean(sz_vals)),
        degeneracy=len(sx_vals),
    )


@dataclass
class HFCheck:
    residual: float
    derivative: float
    sx_raw: float


def hellmann_feynman_check(
    k: KondoParams, chain: WilsonChain, sites: int, dj: float | None = None
) -> HFCheck:
    """Residual of <O_x + O_x^dag> against the J_perp derivative of E0.

    Central difference [E0(J+dj) - E0(J-dj)]/dj; the factor 1/2 from
    dH/dJ_perp cancels the stencil's 1/2.  For the exact solver the residual
    is O(dj^2).
    """
    jperp = k.jperp
    dj = 1e-4 * jperp if dj is None else dj
    base = exact_ground(k, chain, sites)
    up = exact_ground(k_with_jperp(k, jperp + dj), chain, sites)
    dn = exact_ground(k_with_jperp(k, jperp - dj), chain, sites)
    derivative = (up.e0 - dn.e0) / dj
    return HFCheck(
        residual=abs(base.sx_raw - derivative),
        derivative=derivative,
        sx_raw=base.sx_raw,
    )


def k_with_jperp(k: KondoParams, jperp_abs: float) -> KondoParams:
    """Copy of the couplings with the absolute transverse coupling replaced."""
    return replace(k, rho0_jperp=jperp_abs / 2.0)


@dataclass
class NRGComparison:
    max_eigenvalue_dev: float
    sx_dev: float
    sz_dev: float
    passed: bool


def compare_with_nrg(
    k: KondoParams, chain: WilsonChain, sites: int, n_keep: int | None = None
) -> NRGComparison:
    """Run the iterative solver on the same finite chain and compare.

    With n_keep=None nothing is truncated and every eigenvalue as well as
    both raw observables must agree to 1e-9; a deliberately truncated run
    reports its deviation and never passes that gate.
    """
    from .observables import ground_expectation_raw, init_operator_blocks, propagate

    eig, basis = _solve(k, chain, sites)
    exact = _ground(eig, basis)

    state: IterationState = init_impurity_site(k)
    ops = init_operator_blocks(state)
    for _ in range(sites - 1):
        state = add_site(state, chain)
        if n_keep is not None:
            state = truncate(state, n_keep)
        ops = propagate(ops, state)

    max_dev = 0.0
    for sec, (exact_w, _) in sorted(eig.items()):
        blk = state.blocks.get(sec)
        if blk is None:
            if n_keep is None:
                max_dev = np.inf
            continue
        nrg_w = state.e0_accumulated + state.unscale * blk.energies
        m = min(len(exact_w), len(nrg_w))
        if n_keep is None and len(exact_w) != len(nrg_w):
            max_dev = np.inf
        if m:
            max_dev = max(max_dev, float(np.max(np.abs(exact_w[:m] - nrg_w[:m]))))

    sx_raw, sz_raw = ground_expectation_raw(state, ops)
    sx_dev = abs(sx_raw - exact.sx_raw)
    sz_dev = abs(sz_raw - exact.sz_raw)
    return NRGComparison(
        max_eigenvalue_dev=max_dev,
        sx_dev=sx_dev,
        sz_dev=sz_dev,
        passed=bool(
            n_keep is None and max_dev <= 1e-9 and sx_dev <= 1e-9 and sz_dev <= 1e-9
        ),
    )
