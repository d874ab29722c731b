"""Brute-force exact diagonalization of the impurity plus a short chain.

Certifies the iterative solver: identical Hamiltonian, built once on the full
many-body Fock space with explicit Jordan-Wigner signs and solved sector by
sector.  The global fermion ordering is by site index, up orbital before
down; the impurity spin carries no fermion number.  A state index is
imp_bit * 4^sites + occ, where occ holds one bit per orbital (orbital
2*site for up, 2*site + 1 for down) and imp_bit = 0 means impurity spin up.
A site's two bits, (occ >> 2*site) & 3, read as `fock`'s EMPTY, UP, DN and
DOUBLE.  Capped at 5 chain sites (2048 states) to keep the dense solve
sub-second.  The energy-derivative (Hellmann-Feynman) check reads the
iterative solver alone, so it also runs truncated at full depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .chain import WilsonChain
from .engine import Sector, iterate
from .params import DomainError, KondoParams

MAX_SITES = 5

_GROUND_TOL = 1e-9


def _jw_sign(occ: np.ndarray, orb: int) -> np.ndarray:
    """(-1) to the number of occupied orbitals below orb, per state index."""
    below = sum((occ >> o) & 1 for o in range(orb))
    return 1.0 - 2.0 * (below % 2)


def _apply_fdag(occ: np.ndarray, orb: int) -> tuple[np.ndarray, np.ndarray]:
    """f^dag_orb on every state index in occ (the impurity bit above the
    orbitals passes through): the images and the amplitudes, 0 where orb is
    occupied and the Jordan-Wigner sign elsewhere."""
    return occ | (1 << orb), (1 - ((occ >> orb) & 1)) * _jw_sign(occ, orb)


def _apply_f(occ: np.ndarray, orb: int) -> tuple[np.ndarray, np.ndarray]:
    """f_orb on every state index in occ, as `_apply_fdag`."""
    return occ & ~(1 << orb), ((occ >> orb) & 1) * _jw_sign(occ, orb)


def _check_sites(chain: WilsonChain, sites: int, n_keep: int | None = None):
    """DomainError unless the chain holds the sites - 1 hoppings that sites
    needs and, with nothing truncated (n_keep=None), sites is 1..MAX_SITES."""
    if chain.length < sites - 1:
        raise DomainError(f"sites={sites} needs {sites - 1} chain hoppings,"
                          f" the chain has {chain.length}")
    if sites < 1 or n_keep is None and sites > MAX_SITES:
        raise DomainError(f"sites={sites} outside 1..{MAX_SITES} (dimension guard)")


def _at_depth(k: KondoParams, chain: WilsonChain, sites: int, n_keep: int | None):
    """`iterate`'s (state, sx_raw, sz_raw) at iteration sites - 1."""
    *_, last = islice(iterate(k, chain, n_keep), sites)
    return last


def _fock_space(
    k: KondoParams, chain: WilsonChain, sites: int
) -> tuple[np.ndarray, np.ndarray, dict[Sector, np.ndarray]]:
    """H, O_x + O_x^dag and each sector's states, over the whole Fock space."""
    _check_sites(chain, sites)
    n_orb = 2 * sites
    dim = 2 << n_orb
    state = np.arange(dim)
    imp, occ = state >> n_orb, state & ((1 << n_orb) - 1)

    def add_pair(m: np.ndarray, to: int, frm: int, scale: float, flip: int = 0):
        # scale (T + T^dag) for T = f^dag_to f_frm, times S^- when flip = 1,
        # which takes impurity up (the lower half of the states) to down
        mid, a1 = _apply_f(state, frm)
        new, a2 = _apply_fdag(mid, to)
        amp = a1 * a2 * (1 - flip * imp)
        j = np.flatnonzero(amp)
        i = new[j] + (flip << n_orb)
        m[i, j] = m[j, i] = scale * amp[j]

    imp_sz = 0.5 * (1 - 2 * imp)
    n_up0, n_dn0 = occ & 1, (occ >> 1) & 1
    ham = np.zeros((dim, dim))
    ham[state, state] += 0.5 * k.jpar * (n_up0 - n_dn0) * imp_sz + k.field * imp_sz
    for n in range(sites - 1):
        for spin in (0, 1):
            add_pair(ham, 2 * (n + 1) + spin, 2 * n + spin, float(chain.hop[n]))
    ox = np.zeros((dim, dim))
    add_pair(ox, 0, 1, 1.0, flip=1)
    ham += 0.5 * k.jperp * ox

    n_up = sum((occ >> (2 * s)) & 1 for s in range(sites))
    n_dn = sum((occ >> (2 * s + 1)) & 1 for s in range(sites))
    labels = np.stack([n_up + n_dn - sites, 1 - 2 * imp + n_up - n_dn], axis=1)
    keys, inverse = np.unique(labels, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    sectors = {Sector(*key.tolist()): np.flatnonzero(inverse == c) for c, key in enumerate(keys)}
    return ham, ox, sectors


@dataclass
class ExactGround:
    e0: float
    sx_raw: float
    sz_raw: float
    degeneracy: int
    # each (q, 2Sz) sector's eigenvalues in ascending order
    levels: dict[Sector, np.ndarray] = field(repr=False, compare=False)


def exact_ground(k: KondoParams, chain: WilsonChain, sites: int) -> ExactGround:
    """Exact ground energy and raw observables, multiplet averaged, and every
    sector's levels, from one dense solve per sector."""
    ham, ox, sectors = _fock_space(k, chain, sites)
    eig = {s: np.linalg.eigh(ham[np.ix_(i, i)]) for s, i in sectors.items()}
    e0 = min(w[0] for w, _ in eig.values())
    tol = _GROUND_TOL * max(1.0, abs(e0))

    # the ground multiplet, one column per state, over the whole Fock space
    blocks = []
    for sec, (w, v) in eig.items():
        hit = w - e0 <= tol
        block = np.zeros((len(ham), np.count_nonzero(hit)))
        block[sectors[sec]] = v[:, hit]
        blocks.append(block)
    ground = np.hstack(blocks)
    # the impurity bit is the high one: the lower half of the states has spin up
    two_sz = np.where(np.arange(len(ham)) < len(ham) // 2, 1.0, -1.0)
    return ExactGround(
        e0=float(e0),
        sx_raw=float(np.mean(np.einsum("ij,ij->j", ground, ox @ ground))),
        sz_raw=float(np.mean(np.einsum("i,ij,ij->j", two_sz, ground, ground))),
        degeneracy=ground.shape[1],
        levels={s: w for s, (w, _) in eig.items()},
    )


@dataclass
class HFCheck:
    residual: float
    derivative: float
    sx_raw: float


def hellmann_feynman_check(
    k: KondoParams,
    chain: WilsonChain,
    sites: int,
    n_keep: int | None = None,
    dj: float | None = None,
) -> HFCheck:
    """Residual of <O_x + O_x^dag> against the J_perp derivative of E0, both
    read from `iterate` at iteration sites - 1 with n_keep kept states.

    Central difference [E0(J+dj) - E0(J-dj)]/dj of `e0_accumulated`; the
    factor 1/2 from dH/dJ_perp cancels the stencil's 1/2.  Untruncated
    (n_keep=None, at most MAX_SITES sites) the residual is O(dj^2); on a
    truncated run it measures the truncation error.  dj defaults to
    1e-4 J_perp and must lie in (0, J_perp), where both stencil couplings
    are positive.
    """
    _check_sites(chain, sites, n_keep)
    dj = 1e-4 * k.jperp if dj is None else dj
    if not 0.0 < dj < k.jperp:
        raise DomainError(f"dj={dj} must be finite and in (0, jperp={k.jperp})")

    def e0(jperp: float) -> float:
        state, _, _ = _at_depth(replace(k, rho0_jperp=jperp / 2.0), chain, sites, n_keep)
        return float(state.e0_accumulated)

    _, sx_raw, _ = _at_depth(k, chain, sites, n_keep)
    derivative = (e0(k.jperp + dj) - e0(k.jperp - dj)) / dj
    return HFCheck(
        residual=abs(sx_raw - derivative),
        derivative=derivative,
        sx_raw=sx_raw,
    )


@dataclass
class NRGComparison:
    max_eigenvalue_dev: float
    sx_dev: float
    sz_dev: float
    passed: bool


def compare_with_nrg(k: KondoParams, chain: WilsonChain, sites: int) -> NRGComparison:
    """Run the iterative solver untruncated on the same finite chain and
    compare: every eigenvalue and both raw observables must agree to 1e-9.

    Each exact sector deviates by its largest eigenvalue difference, or by
    inf where either side has a level the other lacks; a NaN anywhere fails.
    """
    exact = exact_ground(k, chain, sites)
    state, sx_raw, sz_raw = _at_depth(k, chain, sites, None)

    # the charge sector q of the oracle holds the I_z = q/2 member of every
    # multiplet with 2I >= |q| of the same parity
    levels: dict[Sector, list[np.ndarray]] = {}
    for (two_i, two_sz), blk in state.blocks.items():
        w = state.e0_accumulated + state.unscale * blk.energies
        for q in range(-two_i, two_i + 1, 2):
            levels.setdefault(Sector(q, two_sz), []).append(w)
    nrg_w = {sec: np.sort(np.concatenate(ws)) for sec, ws in levels.items()}

    max_dev = float(np.max([
        np.max(np.abs(w - nrg_w[sec])) if len(w) == len(nrg_w.get(sec, ())) else np.inf
        for sec, w in exact.levels.items()
    ]))
    sx_dev = abs(sx_raw - exact.sx_raw)
    sz_dev = abs(sz_raw - exact.sz_raw)
    return NRGComparison(
        max_eigenvalue_dev=max_dev,
        sx_dev=sx_dev,
        sz_dev=sz_dev,
        passed=bool(np.max([max_dev, sx_dev, sz_dev]) <= 1e-9),
    )
