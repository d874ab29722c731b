"""The oracle's full Hamiltonian, its sector blocks and fermion operators as
dense matrices, for tests of invariants that span sectors, and a solver
read-out with a NaN level planted, for tests that the comparison fails on it."""

import numpy as np

from spinboson_nrg.chain import WilsonChain
from spinboson_nrg.engine import Sector
from spinboson_nrg.oracle import _apply_fdag, _fock_space
from spinboson_nrg.params import KondoParams


def full_hamiltonian(
    k: KondoParams, chain: WilsonChain, sites: int
) -> tuple[np.ndarray, np.ndarray]:
    """Full dense Hamiltonian plus per-state sector labels (q, 2Sz)."""
    ham, _, sectors = _fock_space(k, chain, sites)
    labels = np.zeros((len(ham), 2), dtype=int)
    for sec, states in sectors.items():
        labels[states] = sec
    return ham, labels


def sector_hamiltonians(
    k: KondoParams, chain: WilsonChain, sites: int
) -> tuple[dict[Sector, np.ndarray], dict[Sector, np.ndarray]]:
    """Dense Hamiltonian blocks, one per (q, 2Sz) sector, and each sector's
    state indices."""
    ham, _, sectors = _fock_space(k, chain, sites)
    return {s: ham[np.ix_(i, i)] for s, i in sectors.items()}, sectors


def fock_operators(sites: int, apply=_apply_fdag) -> list[np.ndarray]:
    """f^dag (or f, with apply=_apply_f) of each orbital 2 site + spin, dense
    on the oracle's Fock space of the impurity and `sites` chain sites."""
    state = np.arange(2 << (2 * sites))
    ops = []
    for orb in range(2 * sites):
        image, amp = apply(state, orb)
        m = np.zeros((len(state), len(state)))
        m[image, state] = amp
        ops.append(m)
    return ops


def nan_level(at_depth):
    """`oracle._at_depth` with the top level of its first block set to NaN."""
    def planted(*args):
        state, sx_raw, sz_raw = at_depth(*args)
        blk = next(iter(state.blocks.values()))
        blk.energies = np.append(blk.energies[:-1], np.nan)
        return state, sx_raw, sz_raw
    return planted
