"""The oracle's full Hamiltonian and fermion operators as dense matrices, for
tests of invariants that span sectors."""

import numpy as np

from spinboson_nrg.chain import WilsonChain
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
