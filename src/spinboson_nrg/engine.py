"""Iterative block diagonalization of the impurity + chain Hamiltonian sequence.

Iteration N covers the impurity spin and chain sites 0 .. N.  Total charge
relative to half filling (q) and twice the total spin projection (two_sz) are
conserved, so every iteration is diagonalized sector by sector.

Each iteration is one extension step: on the product of the kept states with
the four states of a new site it diagonalizes

    H = scale * diag(E_old) + sum_k c_k (A_k (x) B_k + h.c.),

with A_k a BlockOp on the old block (or its identity, never materialised) and
B_k a site matrix.  One routine, `rotate`, takes any A (x) B into the kept
eigenbasis: the f^dag of the newest site and the carried observables alike.
Each step stores once where every (previous sector, site state) pair sits in
the product basis, IterationState.layout, and the Hamiltonian assembly and
every rotation read that map.  The first step extends the bare impurity
(iteration -1, energies +-h/2) by site 0 with the Kondo exchange; every later
step adds the hopping xi_N (f^dag_new f_old + h.c.).

Spin flip at zero field: F flips the impurity spin and every site (up <->
down, sign -1 on the double, see `fock.FLIP`) and commutes with H when h = 0.
In the product basis F is a signed permutation: the rows of (s, loc) go to
the rows of (s.flipped(), FLIP[loc]), with the site sign times, for a
two_sz = 0 sector s, the flip parity of each kept state (SectorBlock.parity);
a kept state of a two_sz != 0 sector maps to the state with the same index
in the mirror sector.  With IterationState.spin_symmetric set, a step
assembles and diagonalizes only two_sz > 0, builds each (q, -two_sz) sector
as the same energies with vectors F V, and diagonalizes each two_sz = 0
sector as its flip-even and flip-odd halves, merged in energy order.  Both
relations then hold exactly at the next step, and mirror partners are
bitwise degenerate, so truncation never separates them.

Rescaling convention: stored sector energies at iteration N are
(E - E0) / IterationState.unscale, with the current ground state at zero;
unscale is omega_N = Lambda^(-(N-1)/2) for N >= 1 and 1 for N <= 0, a rule
that only `_extend` applies.  The subtracted ground shifts are accumulated
unrescaled in e0_accumulated, so the absolute chain ground energy stays
available for energy-derivative checks.

Truncation keeps every state at or below one cut energy E_cut across all
sectors, the n_keep-th lowest energy moved up to the next clear gap (see
`truncate`); blocks are ascending, so each sector keeps a prefix.

Fermionic signs: A (x) B means B acting after A.  A site term that changes
the electron count anticommutes past the fermions of the block state A leads
to; within a sector their parity is constant, so the sign is a per-block
scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .chain import WilsonChain, build_chain, energy_scale
from .fock import DQ, DTSZ, FDAG_DN, FDAG_UP, FLIP, FLIP_SIGN, IMP_DN, IMP_UP
from .fock import LOCAL_STATES, N_EL
from .params import DomainError, KondoParams, kondo_to_spinboson
from .params import renormalized_tunneling


class EngineError(RuntimeError):
    """Internal solver failure (eigensolver breakdown, dimension mismatch)."""


class Sector(NamedTuple):
    q: int
    two_sz: int

    def flipped(self) -> "Sector":
        """The mirror sector under the spin flip, (q, -two_sz)."""
        return Sector(self.q, -self.two_sz)


@dataclass(frozen=True)
class NRGConfig:
    """Solver settings; the fast defaults favor turnaround over fidelity."""

    lam: float = 2.0
    n_keep: int = 300
    n_max: int = 300
    eta: float = 1e-2            # stop once omega_N < eta * Delta_r
    plateau_tol: float = 1e-6
    degeneracy_tol: float = 1e-10
    plateau_window: int = 4

    def __post_init__(self):
        if not 1.0 < self.lam < math.inf:
            raise DomainError("lam must be finite and exceed 1")
        if self.n_keep < 16:
            raise DomainError("n_keep must be >= 16")
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        if not 0.0 < self.eta < 1.0:
            raise DomainError("eta must lie in (0, 1)")
        tols = (self.plateau_tol, self.degeneracy_tol)
        if not all(0.0 < t < math.inf for t in tols):
            raise DomainError("tolerances must be positive and finite")
        if self.plateau_window < 2:
            raise DomainError("plateau_window must be >= 2")

    @classmethod
    def paper_fidelity(cls, **overrides) -> "NRGConfig":
        """Production settings: finer discretization, larger kept basis."""
        return cls(**{**PAPER_FIDELITY, **overrides})


# the production bundle behind NRGConfig.paper_fidelity and --paper-fidelity
PAPER_FIDELITY = {"lam": 1.5, "n_keep": 1200}


@dataclass
class SectorBlock:
    energies: np.ndarray      # ascending, iteration ground state at zero
    vectors: np.ndarray       # product basis -> eigenbasis, kept columns only
    parity: np.ndarray | None = None  # flip eigenvalue +-1 of each state, two_sz = 0

    @property
    def kept(self) -> int:
        """Number of kept states, the length of energies."""
        return len(self.energies)


# block-sparse operator: (to_sector, from_sector) -> matrix between the kept
# states of the two sectors; a missing key is a zero block
BlockOp = dict[tuple[Sector, Sector], np.ndarray]

# (previous sector, new-site state) -> (product sector, its rows there)
Layout = dict[tuple[Sector, int], tuple[Sector, slice]]

# the bare impurity: one state per sector (q = 0, two_sz = +-1)
_BARE_DN, _BARE_UP = Sector(0, IMP_DN), Sector(0, IMP_UP)
S_MINUS: BlockOp = {(_BARE_DN, _BARE_UP): np.ones((1, 1))}
S_Z: BlockOp = {(s, s): np.full((1, 1), 0.5 * s.two_sz) for s in (_BARE_DN, _BARE_UP)}

# site matrices on the four-state basis of `fock`
SITE_ONE = np.eye(4)
SITE_S_PLUS = FDAG_UP @ FDAG_DN.T                 # f^dag_up f_dn
SITE_S_Z = 0.5 * np.diag(np.array(DTSZ, float))  # (n_up - n_dn) / 2


@dataclass
class IterationState:
    n: int
    blocks: dict[Sector, SectorBlock]
    e0_accumulated: float
    unscale: float = 1.0             # omega_N: stored energies -> D0 units
    layout: Layout | None = None     # rows of the product basis, set by _extend
    # zero field: the spin flip F is a symmetry, so blocks come in mirror
    # pairs V(q, -m) = F V(q, m) and two_sz = 0 states carry their F parity
    spin_symmetric: bool = False


def _block_parity_sign(q: int, n_sites: int) -> float:
    """(-1)^(electron count) of a block state; q is relative to half filling."""
    return -1.0 if (q + n_sites) % 2 else 1.0


def _diagonalize(ham: np.ndarray, sector: Sector) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(ham)
    except np.linalg.LinAlgError as exc:
        raise EngineError(
            f"eigensolver failed in sector (q={sector.q}, 2Sz={sector.two_sz}),"
            f" dimension {ham.shape[0]}"
        ) from exc


def _flip_rows(
    layout: Layout, old: dict[Sector, SectorBlock]
) -> dict[Sector, tuple[np.ndarray, np.ndarray]]:
    """The spin flip F on the product basis, for the sectors with two_sz >= 0.

    For product sector t, F e_r = sign[r] e_dest[r], where dest[r] is a row of
    t.flipped().  old holds the blocks of the previous iteration, whose
    two_sz = 0 sectors carry their flip parity.
    """
    dims: dict[Sector, int] = {}
    for t, rows in layout.values():
        dims[t] = max(dims.get(t, 0), rows.stop)
    out = {
        t: (np.empty(n, dtype=np.intp), np.empty(n))
        for t, n in dims.items()
        if t.two_sz >= 0
    }
    for (s, loc), (t, rows) in layout.items():
        if t.two_sz < 0:
            continue
        dest, sign = out[t]
        mirror = layout[(s.flipped(), FLIP[loc])][1]
        dest[rows] = np.arange(mirror.start, mirror.stop)
        sign[rows] = FLIP_SIGN[loc] * (old[s].parity if s.two_sz == 0 else 1.0)
    return out


def _diagonalize_by_parity(
    ham: np.ndarray, sector: Sector, dest: np.ndarray, sign: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalize a flip-invariant sector as its flip-even and odd halves.

    F pairs row r with row dest[r] (r itself for a fixed row).  The half of
    parity p has the basis c (e_r + p sign[r] e_dest[r]) over the first row of
    each pair (c = 1/sqrt 2) and over the fixed rows with sign p (c = 1/2, as
    both terms land on the same row); its matrix is gathered from ham.  The
    two spectra are merged in energy order; returns the energies, vectors
    and parities.
    """
    rows = np.arange(len(dest))
    energies, parity = [], []
    vectors = np.zeros((len(rows), len(rows)))  # the halves span the sector
    for p in (1.0, -1.0):
        r = rows[(rows < dest) | ((rows == dest) & (sign == p))]
        if not len(r):
            continue
        d, s = dest[r], p * sign[r]
        c = np.where(r == d, 0.5, math.sqrt(0.5))
        # in place where possible: fewer temporaries keep the peak memory down
        half = ham[r]
        half += s[:, None] * ham[d]
        m = half[:, r]
        m += half[:, d] * s
        m *= c[:, None]
        m *= c
        w, x = _diagonalize(m, sector)
        cols = slice(len(parity), len(parity) + len(w))
        x *= c[:, None]
        vectors[r, cols] = x
        x *= s[:, None]
        vectors[d, cols] += x
        energies.extend(w)
        parity.extend([p] * len(w))
    order = np.argsort(energies, kind="stable")
    return np.array(energies)[order], vectors[:, order], np.array(parity)[order]


def _pieces(layout: Layout, n_old_sites: int, a, b):
    """Nonzero blocks of A (x) B on a product basis over an n_old_sites block.

    Yields the (sector, rows) of the row and of the column block, the signed
    site matrix element, and the A block (None when A is the identity).
    """
    if a is None:
        a = {(s, s): None for s in sorted({s for s, _ in layout})}
    nonzero = zip(*map(list, np.nonzero(b)))
    site = [(i, j, float(b[i, j]), (N_EL[i] - N_EL[j]) % 2) for i, j in nonzero]
    for (s_to, s_from), block in a.items():
        for l_to, l_from, elem, odd in site:
            row, col = layout.get((s_to, l_to)), layout.get((s_from, l_from))
            if row is None or col is None:
                continue
            if odd:
                elem *= _block_parity_sign(s_to.q, n_old_sites)
            yield row, col, elem, block


def rotate(
    state: IterationState,
    a: BlockOp | None,
    b: np.ndarray,
    to_sectors: set[Sector] | None = None,
) -> BlockOp:
    """A (x) B in the kept eigenbasis of state.

    A acts on the block of the previous iteration (None for its identity) and
    B on the newest site.  to_sectors, when given, limits the result to the
    blocks whose row sector it contains.
    """
    out: BlockOp = {}
    blocks = state.blocks
    targets = blocks if to_sectors is None else to_sectors
    pieces = _pieces(state.layout, state.n, a, b)
    for (t_to, r_to), (t_from, r_from), elem, a_blk in pieces:
        if t_to not in targets or t_from not in blocks:
            continue
        u_to, u_from = blocks[t_to].vectors[r_to], blocks[t_from].vectors[r_from]
        m = u_to.T @ u_from if a_blk is None else u_to.T @ a_blk @ u_from
        m *= elem
        key = (t_to, t_from)
        if key in out:
            out[key] += m
        else:
            out[key] = m
    return out


def _extend(state: IterationState, terms, lam: float | None = None) -> IterationState:
    """Add one site: diagonalize scale * diag(E_old) + sum c (A (x) B + h.c.).

    terms holds (c, A, B) triples; lam is None only for the impurity step.
    """
    n_new = state.n + 1
    unscale = energy_scale(lam, n_new) if n_new > 0 else 1.0
    scale = state.unscale / unscale

    layout: Layout = {}
    diag: dict[Sector, list[np.ndarray]] = {}
    for s in sorted(state.blocks):
        e = scale * state.blocks[s].energies
        for loc in LOCAL_STATES:
            t = Sector(s.q + DQ[loc], s.two_sz + DTSZ[loc])
            parts = diag.setdefault(t, [])
            off = sum(map(len, parts))
            layout[(s, loc)] = (t, slice(off, off + len(e)))
            parts.append(e)
    # at zero field the flip supplies every two_sz < 0 sector
    symmetric = state.spin_symmetric
    hams = {
        t: np.diag(np.concatenate(parts))
        for t, parts in diag.items()
        if t.two_sz >= 0 or not symmetric
    }

    for c, a, b in terms:
        # the old block holds n_new sites
        for (t, r), (_, k), elem, a_blk in _pieces(layout, n_new, a, b):
            if t not in hams:
                continue
            m = (c * elem) * a_blk
            hams[t][r, k] += m
            hams[t][k, r] += m.T

    flip = _flip_rows(layout, state.blocks) if symmetric else {}
    eig = {}  # sector -> (energies, vectors, flip parities or None)
    for t in sorted(hams):
        if t not in flip:
            eig[t] = (*_diagonalize(hams[t], t), None)
        elif t.two_sz == 0:
            eig[t] = _diagonalize_by_parity(hams[t], t, *flip[t])
        else:
            # the mirror sector: the same energies and the vectors F V, whose
            # row q is sign * row source[q] of V, F taking source[q] to q
            dest, sign = flip[t]
            w, v = _diagonalize(hams[t], t)
            source = np.empty_like(dest)
            source[dest] = np.arange(len(dest))
            mirror = v[source]
            mirror *= sign[source, None]
            eig[t], eig[t.flipped()] = (w, v, None), (w, mirror, None)

    shift = min(w[0] for w, _, _ in eig.values())
    return IterationState(
        n=n_new,
        blocks={
            t: SectorBlock(w - shift, v, p) for t, (w, v, p) in sorted(eig.items())
        },
        e0_accumulated=state.e0_accumulated + unscale * shift,
        unscale=unscale,
        layout=layout,
        spin_symmetric=state.spin_symmetric,
    )


def init_impurity_site(k: KondoParams) -> IterationState:
    """Iteration 0: the bare impurity extended by site 0.

    The bare impurity carries the Zeeman term; the step adds the transverse
    spin flip (J_perp/2)(S^- s^+ + h.c.) and the longitudinal Ising term
    J_par S_z s_z.  The chain kinetic energy starts at the next iteration.
    """
    blocks = {
        s: SectorBlock(np.array([0.5 * k.field * s.two_sz]), np.eye(1))
        for s in (_BARE_DN, _BARE_UP)
    }
    bare = IterationState(
        n=-1, blocks=blocks, e0_accumulated=0.0, spin_symmetric=k.field == 0.0
    )
    return _extend(
        bare, [(0.5 * k.jperp, S_MINUS, SITE_S_PLUS), (0.5 * k.jpar, S_Z, SITE_S_Z)]
    )


def add_site(state: IterationState, chain: WilsonChain) -> IterationState:
    """Extend the chain by one site and rediagonalize every sector.

    Builds the rescaled Hamiltonian sqrt(Lambda) * H_N + xi_N * (hopping) on
    the kept-states x new-site product basis; f_old is the f^dag of the
    previous newest site, rotated into the kept eigenbasis and transposed.
    """
    if state.n + 1 > chain.length:
        raise EngineError(
            f"chain provides {chain.length} hoppings, cannot add site {state.n + 1}"
        )
    xi = chain.coupling(state.n)
    terms = []
    for fdag in (FDAG_UP, FDAG_DN):
        f_old = {(s, t): m.T for (t, s), m in rotate(state, None, fdag).items()}
        terms.append((xi, f_old, fdag))
    return _extend(state, terms, chain.lam)


def truncate(
    state: IterationState, n_keep: int, degeneracy_tol: float = 1e-10
) -> IterationState:
    """Retain the globally lowest n_keep states across all sectors.

    The cut energy is that of the n_keep-th lowest state, moved up to the
    first gap e[i+1] - e[i] >= degeneracy_tol * max(1, |e[i]|), so a
    near-degenerate multiplet is never split and the kept count may exceed
    n_keep slightly; with no such gap nothing is cut and state itself is
    returned.  Each sector keeps its states at or below the cut, a prefix of
    its ascending block.
    """
    if n_keep < 16:
        raise DomainError("n_keep must be >= 16")
    e = np.sort(np.concatenate([b.energies for b in state.blocks.values()]))
    e = e[n_keep - 1 :]
    gap = np.diff(e) >= degeneracy_tol * np.maximum(1.0, np.abs(e[:-1]))
    if not gap.any():
        return state
    e_cut = e[gap.argmax()]

    blocks: dict[Sector, SectorBlock] = {}
    for s, b in state.blocks.items():
        c = int(np.searchsorted(b.energies, e_cut, side="right"))
        if c:
            parity = None if b.parity is None else b.parity[:c]
            blocks[s] = SectorBlock(b.energies[:c], b.vectors[:, :c], parity)
    return replace(state, blocks=blocks)


@dataclass
class ConvergenceReport:
    n_m: int
    converged: bool
    scale_met: bool
    plateau_met: bool
    even_odd_averaged: bool
    delta_r: float
    omega_final: float
    drift_sx: float
    drift_sz: float
    sx: float
    sz: float
    history: tuple[tuple[int, float, float], ...]


def _drift(values: list[float]) -> float:
    return max(values) - min(values) if values else math.inf


def _plateau_status(
    history: list[tuple[int, float, float]], window: int, tol: float
) -> tuple[bool, bool]:
    if len(history) < window:
        return False, False
    recent = history[-window:]
    if _drift([h[1] for h in recent]) < tol and _drift([h[2] for h in recent]) < tol:
        return True, False
    # even/odd alternation: accept if each parity subsequence has settled
    if len(history) >= 2 * window:
        tail = history[-2 * window :]
        even = [h for h in tail if h[0] % 2 == 0]
        odd = [h for h in tail if h[0] % 2 == 1]
        if min(len(even), len(odd)) >= 2:
            settled = all(
                _drift([h[c] for h in part]) < tol
                for part in (even, odd)
                for c in (1, 2)
            )
            if settled:
                return True, True
    return False, False


def run(k: KondoParams, cfg: NRGConfig) -> tuple[IterationState, ConvergenceReport]:
    """Iterate until omega_N < eta * Delta_r and the observables plateau.

    Delta_r is `renormalized_tunneling` of the spin-boson point that k maps
    back to, and the report carries that value.  Reaching n_max without
    satisfying both criteria is not an error; the report carries
    converged=False and the drift over the last window.
    """
    from .observables import ground_expectation_raw, init_operator_blocks, propagate

    chain = build_chain(cfg.lam, cfg.n_max)
    delta_r = renormalized_tunneling(kondo_to_spinboson(k))

    state = init_impurity_site(k)
    ops = init_operator_blocks(state)
    sx0, sz0 = ground_expectation_raw(state, ops, cfg.degeneracy_tol)
    history: list[tuple[int, float, float]] = [(0, sx0, sz0)]

    scale_met = plateau_met = even_odd = False
    while state.n < cfg.n_max:
        state = add_site(state, chain)
        state = truncate(state, cfg.n_keep, cfg.degeneracy_tol)
        ops = propagate(ops, state)
        sx_raw, sz_raw = ground_expectation_raw(state, ops, cfg.degeneracy_tol)
        history.append((state.n, sx_raw, sz_raw))
        scale_met = energy_scale(cfg.lam, state.n) < cfg.eta * delta_r
        plateau_met, even_odd = _plateau_status(
            history, cfg.plateau_window, cfg.plateau_tol
        )
        if scale_met and plateau_met:
            break

    if even_odd and len(history) >= 2:
        sx_raw = 0.5 * (history[-1][1] + history[-2][1])
        sz_raw = 0.5 * (history[-1][2] + history[-2][2])
    else:
        sx_raw, sz_raw = history[-1][1], history[-1][2]

    window = history[-cfg.plateau_window :]
    report = ConvergenceReport(
        n_m=state.n,
        converged=scale_met and plateau_met,
        scale_met=scale_met,
        plateau_met=plateau_met,
        even_odd_averaged=even_odd,
        delta_r=delta_r,
        omega_final=energy_scale(cfg.lam, state.n),
        drift_sx=_drift([h[1] for h in window]),
        drift_sz=_drift([h[2] for h in window]),
        sx=-sx_raw,
        sz=-sz_raw,
        history=tuple(history),
    )
    return state, report
