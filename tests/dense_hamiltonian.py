"""The oracle's sector blocks assembled into one dense matrix, for tests of
invariants that span sectors."""

import numpy as np

from spinboson_nrg.chain import WilsonChain
from spinboson_nrg.oracle import FockBasis, sector_hamiltonians
from spinboson_nrg.params import KondoParams


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
