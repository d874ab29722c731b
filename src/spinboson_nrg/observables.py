"""Local operator propagation, ground-state expectations and entanglement.

Two operators are carried through the iterations: the impurity spin-flip
correlator O_x + O_x^dag (giving sx) and the impurity S_z (giving sz as the
thermodynamic average 2<S_z>), stacked in that order in each block of one
BlockOp.  The engine's `rotate`, the routine that also carries the
Hamiltonian's f^dag, takes it into every new eigenbasis: at iteration 0 the
two are S^- (x) s^+ plus its transpose and S_z (x) 1 on the bare impurity and
site 0, and each later step rotates O (x) 1.  Both are charge-isospin scalars
and conserve the total spin projection, so their blocks are keyed (s, s) and
hold the same matrix on every member of a multiplet as on its highest weight,
and both contain an even number of fermion operators, so no sign strings
appear when a site is added.  Each declares only its parity under the spin
flip (O_x even, S_z odd), from which `rotate` completes the blocks that the
flip mirrors.

Sign convention: with the Hamiltonian used here the raw ground-state
correlator <O_x + O_x^dag> is negative and, for a positive field, <2 S_z> is
negative.  Only `engine.run` flips their sign, so that the reported sx -> +1
at weak dissipation and sz -> +1 when polarized, and judges convergence, with
the engine's PLATEAU_WINDOW, PLATEAU_TOL and DEGENERACY_TOL; the entropy
depends only on the magnitude, so nothing physical changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import DEGENERACY_TOL, BlockOp, IterationState, rotate
from .engine import S_MINUS, S_Z, SITE_ONE, SITE_S_PLUS  # bare impurity and site ops
from .params import DomainError


@dataclass
class OperatorBlocks:
    """O_x + O_x^dag and impurity S_z in the eigenbasis of iteration n, stacked
    in that order: one (2, d, d) array per (s, s) block, for every sector."""

    n: int
    blocks: BlockOp


def init_operator_blocks(state: IterationState) -> OperatorBlocks:
    """Exact matrices of O_x + O_x^dag and impurity S_z at iteration 0."""
    if state.layout is None or state.n != 0:
        raise ValueError("operator blocks must be seeded from the impurity-site state")
    flip = rotate(state, S_MINUS, SITE_S_PLUS)  # keys are (s, s)
    blocks = {}
    for key, oz in rotate(state, S_Z, SITE_ONE).items():  # S_z has every block
        ox = flip[key] + flip[key].T if key in flip else np.zeros_like(oz)
        blocks[key] = np.array([ox, oz])
    return OperatorBlocks(0, blocks)


def propagate(ops: OperatorBlocks, state: IterationState) -> OperatorBlocks:
    """Rotate O (x) 1 into the kept eigenbasis of the next iteration.

    Both operators are rotated in one pass, with their spin-flip parities:
    O_x is even and S_z is odd.
    """
    if state.layout is None or state.n != ops.n + 1:
        raise ValueError(
            f"cannot propagate operators tagged n={ops.n} to iteration n={state.n}"
        )
    return OperatorBlocks(state.n, rotate(state, ops.blocks, SITE_ONE, (1.0, -1.0)))


def ground_expectation_raw(
    state: IterationState, ops: OperatorBlocks
) -> tuple[float, float]:
    """Raw (<O_x + O_x^dag>, 2<S_z>) averaged over the ground multiplet.

    Averaging the diagonal over all states within DEGENERACY_TOL of the
    ground removes the eigensolver's arbitrary basis choice in a degenerate
    subspace.  Each isospin multiplet weighs its 2I + 1 states, which share
    the values of its highest weight.
    """
    diagonals: list[np.ndarray] = []
    weights: list[int] = []
    for s in sorted(state.blocks):
        block = state.blocks[s]
        if block.energies[0] > DEGENERACY_TOL:  # ascending: no ground level here
            continue
        ground = np.flatnonzero(block.energies <= DEGENERACY_TOL)
        diagonals.append(ops.blocks[(s, s)][:, ground, ground])
        weights += [block.mult] * len(ground)
    if not weights:
        raise ValueError("no ground state found below the degeneracy tolerance")
    sx, sz = np.average(np.concatenate(diagonals, axis=1), axis=1, weights=weights)
    return float(sx), 2.0 * float(sz)


def entanglement_entropy(sx: float, sz: float) -> tuple[float, float, float]:
    """Density-matrix eigenvalues and the entropy of entanglement in bits.

    p_pm = (1 +- |<sigma>|)/2 with |<sigma>| = sqrt(sx^2 + sz^2) (sy vanishes
    by symmetry); E = -p+ log2 p+ - p- log2 p- with 0 log 0 = 0.
    """
    norm = math.hypot(sx, sz)
    if not norm <= 1.0 + 1e-6:  # NaN too
        raise DomainError(f"nonphysical density matrix: |<sigma>| = {norm}")
    norm = min(norm, 1.0)
    p_plus = 0.5 * (1.0 + norm)
    p_minus = 1.0 - p_plus
    entropy = 0.0
    for p in (p_plus, p_minus):
        if p > 0.0:
            entropy -= p * math.log2(p)
    return p_plus, p_minus, entropy
