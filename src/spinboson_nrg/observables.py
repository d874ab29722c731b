"""Local operator propagation, ground-state expectations and entanglement.

Two operators are carried through the iterations: the impurity spin-flip
correlator O_x + O_x^dag (giving sx) and the impurity S_z (giving sz as the
thermodynamic average 2<S_z>).  Both are BlockOps taken into every new
eigenbasis by the engine's `rotate`, the routine that also carries the
Hamiltonian's f^dag: at iteration 0 they are S^- (x) s^+ plus its transpose
and S_z (x) 1 on the bare impurity and site 0, and each later step rotates
O (x) 1.  Both are charge-isospin scalars and conserve the total spin
projection, so their blocks are keyed (s, s) and hold the same matrix on
every member of a multiplet as on its highest weight, and both contain an
even number of fermion operators, so no sign strings appear when a site is
added.

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

from .engine import DEGENERACY_TOL, SPIN_FLIP, BlockOp, IterationState
from .engine import fill_images, rotate
from .engine import S_MINUS, S_Z, SITE_ONE, SITE_S_PLUS  # bare impurity and site ops
from .params import DomainError


@dataclass
class OperatorBlocks:
    """O_x + O_x^dag and impurity S_z in the eigenbasis of iteration n."""

    n: int
    ox: BlockOp
    oz: BlockOp


def init_operator_blocks(state: IterationState) -> OperatorBlocks:
    """Exact matrices of O_x + O_x^dag and impurity S_z at iteration 0."""
    if state.layout is None or state.n != 0:
        raise ValueError("operator blocks must be seeded from the impurity-site state")
    (flip,) = rotate(state, (S_MINUS,), SITE_S_PLUS)
    (oz,) = rotate(state, (S_Z,), SITE_ONE)
    return OperatorBlocks(
        n=0,
        ox={key: m + m.T for key, m in flip.items()},  # keys are (s, s)
        oz=oz,
    )


def propagate(ops: OperatorBlocks, state: IterationState) -> OperatorBlocks:
    """Rotate O (x) 1 into the kept eigenbasis of the next iteration.

    Both operators are rotated in one pass, into the representative sectors
    only; `fill_images` gives the rest: F S_z F = -S_z while F O_x F = O_x.
    """
    if state.layout is None or state.n != ops.n + 1:
        raise ValueError(
            f"cannot propagate operators tagged n={ops.n} to iteration n={state.n}"
        )
    rotated = rotate(state, (ops.ox, ops.oz), SITE_ONE, state.representatives())
    conj = [
        ((1.0, 0, False), (-1.0 if g == SPIN_FLIP else 1.0, 1, False))
        for g in state.symmetries
    ]
    fill_images(state, rotated, conj)
    return OperatorBlocks(n=state.n, ox=rotated[0], oz=rotated[1])


def ground_expectation_raw(
    state: IterationState, ops: OperatorBlocks
) -> tuple[float, float]:
    """Raw (<O_x + O_x^dag>, 2<S_z>) averaged over the ground multiplet.

    Averaging the diagonal over all states within DEGENERACY_TOL of the
    ground removes the eigensolver's arbitrary basis choice in a degenerate
    subspace.  Each isospin multiplet weighs its 2I + 1 states, which share
    the values of its highest weight.
    """
    sx_vals: list[float] = []
    sz_vals: list[float] = []
    weights: list[int] = []
    for s in sorted(state.blocks):
        block = state.blocks[s]
        if block.energies[0] > DEGENERACY_TOL:  # ascending: no ground level here
            continue
        ox, oz = ops.ox.get((s, s)), ops.oz.get((s, s))
        for i in np.nonzero(block.energies <= DEGENERACY_TOL)[0]:
            sx_vals.append(0.0 if ox is None else float(ox[i, i]))
            sz_vals.append(0.0 if oz is None else 2.0 * float(oz[i, i]))
            weights.append(block.mult)
    if not sx_vals:
        raise ValueError("no ground state found below the degeneracy tolerance")
    sx, sz = np.average([sx_vals, sz_vals], axis=1, weights=weights)
    return float(sx), float(sz)


def entanglement_entropy(sx: float, sz: float) -> tuple[float, float, float]:
    """Density-matrix eigenvalues and the entropy of entanglement in bits.

    p_pm = (1 +- |<sigma>|)/2 with |<sigma>| = sqrt(sx^2 + sz^2) (sy vanishes
    by symmetry); E = -p+ log2 p+ - p- log2 p- with 0 log 0 = 0.
    """
    norm = math.hypot(sx, sz)
    if norm > 1.0 + 1e-6:
        raise DomainError(f"nonphysical density matrix: |<sigma>| = {norm}")
    norm = min(norm, 1.0)
    p_plus = 0.5 * (1.0 + norm)
    p_minus = 1.0 - p_plus
    entropy = 0.0
    for p in (p_plus, p_minus):
        if p > 0.0:
            entropy -= p * math.log2(p)
    return p_plus, p_minus, entropy
