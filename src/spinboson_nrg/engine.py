"""Iterative block diagonalization of the impurity + chain Hamiltonian sequence.

Iteration N covers the impurity spin and chain sites 0 .. N.  Twice the total
spin projection (two_sz) is conserved, and so is the charge isospin of the
chain, I^+ = sum_n (-1)^n f^dag_{n up} f^dag_{n dn} with I_z = q/2 (q the
charge relative to half filling): the staggered sign makes the hopping commute
with I^+, and the impurity, the site-0 exchange, the field and the carried
operators are isospin scalars.  The kept states are therefore multiplets, and
each iteration is diagonalized once per (I, two_sz), on the highest weights
(I_z = I) alone.  A block is keyed by their sector, Sector(q = 2I, two_sz),
and each of its levels stands for mult = 2I + 1 states.

Each iteration is one extension step: on the product of the kept multiplets
with the new site it diagonalizes

    H = scale * diag(E_old) + sum_k c_k (A_k (x) B_k + h.c.),

with A_k a BlockOp on the old block (or its identity, never materialised) and
B_k a site matrix on four channels.  On site n the empty state and (-1)^n
times the double form an isospin doublet, and up and down are singlets, so
an old multiplet I couples to the site in four ways, named after the site
state they hold at the highest weight: UP and DN (I), DOUBLE (I + 1/2) and,
for I > 0, EMPTY (I - 1/2, the empty site with weight sqrt(2I/(2I+1))); the
`fock` tables DQ and DTSZ give their (2I, two_sz) shifts.  An isospin-scalar
site matrix acts on the channels as on the site states.  f^dag of the newest
site, a rank-1/2 tensor, is carried as its highest-weight blocks
<I+1/2, I+1/2| f^dag |I, I>, and `_site_fdag` and `_site_raising` hold the
spin-1/2 recoupling factors by which it enters the next f^dag and the
hopping.  One routine, `rotate`, takes any A (x) B into the kept eigenbasis:
the f^dag of the newest site and the carried observables alike, the latter as
one BlockOp whose blocks stack them.  It makes one pass per block (t_to,
t_from) of the result: the rows of Y = (A (x) B) U_from are filled piece by
piece, for every stacked operator at once, and then multiplied by U_to^T
once.  Each step stores once where every (previous sector, channel) pair sits
in the product basis, IterationState.layout, and the assembly and every
rotation read that map.  The first step extends the bare impurity (iteration
-1, energies +-h/2) by site 0 with the Kondo exchange; every later step adds
the hopping xi_N (f^dag_new f_old + h.c.).

Assembly: an assembled block holds only its lower triangle (and its diagonal
blocks in full), as every reader of it, numpy's `eigh` and the parity split
alike, reads only that triangle.  Each piece is written once, transposed when
it lies above the diagonal; a piece on a diagonal block, such as the Ising
term of the first step, adds itself and its transpose.

Spin flip: at zero field the flip F of every spin commutes with H, and
IterationState.flip says so.  It maps the sector (q, two_sz) to (q, -two_sz)
and a site state as the `fock` table FLIP, FLIP_SIGN.  F I^+ F = -I^+ with
the `fock` conventions, so F keeps I and I_z and maps highest weights to
highest weights, only flipping the sign of I^+-.  On the channels it acts as
on the site states: DOUBLE takes the double's -1, and on EMPTY the -1 that F
gives the lowered old state cancels it.  A kept multiplet j of sector s obeys
F|j, s> = sym[j] |j, F(s)>, so in the product basis F is a signed
permutation: the rows of (s, loc) go to the rows of (F(s), FLIP[loc]), times
sym and FLIP_SIGN[loc].  A step diagonalizes only the sectors with
two_sz >= 0, the representatives.  One with two_sz > 0 gives its mirror the
same energies and the vectors F V, so the pair is bitwise degenerate and
truncation never separates it; as F^2 = 1, F takes the mirror's states back
with sign +1 too, so sym is +1 on both.  A sector that F fixes (two_sz = 0)
is split into its F-even and F-odd blocks (`_split_by_parity`), and its sym
is the parity of each state.  F X F has the block sym(t1) X[t1, t2] sym(t2)
at (F t1, F t2), `_mirror`: an operator given to `rotate` with its F parity
is rotated into the representative row sectors only and completed by its
mirror, and f^dag_dn is the mirror of f^dag_up.  Without F every sector is
diagonalized in full and sym is None.

Rescaling convention: stored sector energies at iteration N are
(E - E0) / IterationState.unscale, with the current ground state at zero;
unscale is omega_N = Lambda^(-(N-1)/2) for N >= 1 and 1 for N <= 0, computed
in closed form by `_extend`, which rescales the old energies by the step
factor sqrt(Lambda) (1 up to N = 1).  omega_N is never a divisor, as it
underflows to 0.0 (from N = 649 at Lambda = 10, N ~ 2150 at Lambda = 2).  The
ground shifts are accumulated unrescaled in e0_accumulated, so the absolute
chain ground energy stays available for energy-derivative checks.

Truncation keeps every state at or below one cut energy E_cut across all
sectors, the n_keep-th lowest energy, each multiplet counted 2I + 1 times,
moved up to the next clear gap (see `truncate`); blocks are ascending, so
each sector keeps a prefix.

Concurrency: the representatives of one iteration are independent
eigenproblems, and numpy's `eigh` releases the GIL on a block of more than
about 500 elements (23 rows and up), so threads gain on the large blocks only.
`run` diagonalizes them on the calling thread and one helper thread per
further usable CPU, with OpenBLAS held on one thread for the run
(`_block_mapper`): a multithreaded BLAS beside the helpers would oversubscribe
the cores.  The blocks come largest first, and each thread takes the next one
(`_drain`).  With one usable CPU there is no helper.  The results are gathered
by sector, so any of these runs matches a serial one at the same BLAS thread
count bit for bit.  `run` stays serial where numpy's OpenBLAS is not found and
in the worker processes of a sweep.

Step loop and verdict: `iterate` alone steps the iterations (`add_site`,
`truncate`, then the observables' `propagate` and read-out), for `run` and
the oracle alike, with the builtin map as the mapper by default; only `run`
applies the figures' sign flip to the raw observables and judges
convergence, in its `ConvergenceReport`, with the fixed constants ETA,
PLATEAU_WINDOW, PLATEAU_TOL and DEGENERACY_TOL.

Fermionic signs: A (x) B means B acting after A.  A site term that changes
the electron count anticommutes past the fermions of the block state A leads
to; within a multiplet their parity is constant, so the sign is a per-block
scalar.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .chain import WilsonChain, build_chain
from .fock import DQ, DTSZ, EMPTY, FDAG_DN, FDAG_UP, FLIP, FLIP_SIGN, IMP_DN, IMP_UP
from .fock import LOCAL_STATES, N_EL
from .params import DomainError, KondoParams, SpinBosonPoint
from .params import _caller_stacklevel, log_renormalized_tunneling, map_to_kondo


class EngineError(RuntimeError):
    """Internal solver failure (eigensolver breakdown, dimension mismatch)."""


class Sector(NamedTuple):
    q: int
    two_sz: int


@dataclass(frozen=True)
class NRGConfig:
    """Solver settings; the fast defaults favor turnaround over fidelity."""

    lam: float = 2.0
    n_keep: int = 300
    n_max: int = 300

    def __post_init__(self):
        if not 1.0 < self.lam < math.inf:
            raise DomainError("lam must be finite and exceed 1")
        if self.n_keep < 16:
            raise DomainError("n_keep must be >= 16")
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")

    @classmethod
    def paper_fidelity(cls) -> "NRGConfig":
        """Production settings: finer discretization, larger kept basis."""
        return cls(lam=1.5, n_keep=1200)


# `run` has converged once omega_N < ETA * Delta_r and `_plateau_status` holds;
# levels within DEGENERACY_TOL are one multiplet, for truncation and read-out
ETA = 1e-2
PLATEAU_WINDOW = 4
PLATEAU_TOL = 1e-6
DEGENERACY_TOL = 1e-10


@dataclass
class SectorBlock:
    energies: np.ndarray      # ascending, iteration ground state at zero
    vectors: np.ndarray       # product basis -> eigenbasis, kept columns only
    # with F, the +-1 of each state: F|j, s> = sym[j] |j, F(s)>; +1 throughout
    # unless F fixes s (two_sz = 0), where it is the F parity; None without F
    sym: np.ndarray | None = None
    mult: int = 1             # 2I + 1: the states each level stands for

    @property
    def kept(self) -> int:
        """Number of kept states, each multiplet counted mult times."""
        return len(self.energies) * self.mult


# block-sparse operator: (to_sector, from_sector) -> matrix between the kept
# multiplets of the two sectors; a missing key is a zero block
BlockOp = dict[tuple[Sector, Sector], np.ndarray]

# (previous sector, channel) -> (product sector, its rows there)
Layout = dict[tuple[Sector, int], tuple[Sector, slice]]

# the bare impurity: one isospin singlet per sector (q = 0, two_sz = +-1)
_BARE_DN, _BARE_UP = Sector(0, IMP_DN), Sector(0, IMP_UP)
S_MINUS: BlockOp = {(_BARE_DN, _BARE_UP): np.ones((1, 1))}
S_Z: BlockOp = {(s, s): np.full((1, 1), 0.5 * s.two_sz) for s in (_BARE_DN, _BARE_UP)}

# isospin-scalar site matrices on the four-state basis of `fock`
SITE_ONE = np.eye(4)
SITE_S_PLUS = FDAG_UP @ FDAG_DN.T                 # f^dag_up f_dn
SITE_S_Z = 0.5 * np.diag(np.array(DTSZ, float))  # (n_up - n_dn) / 2
FDAG = (FDAG_UP, FDAG_DN)


def _site_fdag(f: np.ndarray, q: int) -> np.ndarray:
    """The site's f^dag_sigma (f = FDAG_UP or FDAG_DN) on the channels of an
    old multiplet I = q/2, from I to I + 1/2 at the highest weight.

    Only the EMPTY channel holds the empty site, with weight sqrt(q/(q+1)).
    It also gives the hopping terms in which the old f lowers I.
    """
    m = f.copy()
    m[:, EMPTY] *= math.sqrt(q / (q + 1))
    return m


def _site_raising(f: np.ndarray, q: int) -> np.ndarray:
    """The hopping's site factor where the old block's f_sigma raises I = q/2
    by 1/2; f is f^dag_-sigma (FDAG_UP or FDAG_DN).

    Between the highest weights of the EMPTY channel of I + 1/2 and the
    singlet channel -sigma of I, f_sigma acts on a lowered member of the old
    multiplet, so by the Wigner-Eckart theorem its reduced element is the
    highest-weight block of f^dag_-sigma, times the recoupling factor
    -1/sqrt((q+1)(q+2)).  The staggered signs of the site and of the old
    block's newest site cancel here.
    """
    m = np.zeros((4, 4))
    m[EMPTY] = f[:, EMPTY] * (-1.0 / math.sqrt((q + 1) * (q + 2)))
    return m


@dataclass
class IterationState:
    n: int
    blocks: dict[Sector, SectorBlock]
    e0_accumulated: float
    unscale: float = 1.0             # omega_N: stored energies -> D0 units
    layout: Layout | None = None     # rows of the product basis, set by _extend
    flip: bool = False               # F commutes with H (zero field)

    def representatives(self) -> set[Sector]:
        """The sectors diagonalized in full: with F, those with two_sz >= 0."""
        return {t for t in self.blocks if not self.flip or t.two_sz >= 0}


def _block_parity_sign(q: int, n_sites: int) -> float:
    """(-1)^(electron count) of a block state; q is relative to half filling."""
    return -1.0 if (q + n_sites) % 2 else 1.0


def _diagonalize(ham: np.ndarray, sector: Sector) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(ham)
    except np.linalg.LinAlgError as exc:
        raise EngineError(
            f"eigensolver failed in sector (2I={sector.q}, 2Sz={sector.two_sz}),"
            f" dimension {ham.shape[0]}"
        ) from exc


def _flipped(t: Sector) -> Sector:
    return Sector(t.q, -t.two_sz)


def _split_by_parity(ham: np.ndarray, sector: Sector, dest, sign):
    """Diagonalize a sector that F fixes, its F-even and F-odd blocks apart.

    F acts on the rows as the signed involution F e_r = sign[r] e_dest[r]; the
    symmetric H, held in the lower triangle of ham, commutes with it.  A row a
    that F fixes lies in the block of parity sign[a]; a swapped pair a <
    dest[a] gives (e_a + p sign[a] e_dest[a]) / sqrt(2) to the block of
    parity p.  With b_a = norm_a (e_a + p F e_a) and F H F = H, <b_a|H|b_b> =
    2 norm_a norm_b <e_a|H|e_b + p F e_b>, gathered from the rows a of H.
    Returns the energies, the vectors and the parity of each state, in energy
    order.
    """
    d = len(ham)
    lead = np.flatnonzero(dest >= np.arange(d))  # a row of each pair, or fixed
    fixed = dest[lead] == lead
    energies, vectors, parity = np.empty(d), np.zeros((d, d)), np.empty(d)
    lo = 0
    for p in (1.0, -1.0):
        a = lead[~fixed | (sign[lead] == p)]
        if not a.size:  # every row is fixed, with the other parity
            continue
        b, cols = dest[a], slice(lo, lo + len(a))
        norm = 1.0 / np.sqrt(np.where(a == b, 4.0, 2.0))
        coef = p * sign[a] * norm
        # H[a_i, c_j] = ham[max, min], at its flat index in the lower triangle
        m = ham.take(np.maximum.outer(a, a) * d + np.minimum.outer(a, a)) * norm
        m += ham.take(np.maximum.outer(a, b) * d + np.minimum.outer(a, b)) * coef
        m *= (2.0 * norm)[:, None]
        energies[cols], x = _diagonalize(m, sector)
        vectors[a, cols] = norm[:, None] * x
        vectors[b, cols] += coef[:, None] * x  # a fixed row gets x/2 + x/2
        parity[cols], lo = p, cols.stop
    order = np.argsort(energies, kind="stable")
    return energies[order], vectors[:, order], parity[order]


def _nonzero_elements(m: np.ndarray) -> tuple[tuple[int, int, float, bool], ...]:
    """The nonzero elements (i, j, value, odd) of a channel matrix; odd marks
    an element that changes the fermion parity."""
    return tuple(
        (i, j, float(m[i, j]), (N_EL[i] - N_EL[j]) % 2 == 1) for i, j in zip(*np.nonzero(m))
    )


@lru_cache(maxsize=None)
def _site_elements(site_of, q: int):
    """`_nonzero_elements` of site_of(q), computed once per process for each
    site factor below and q."""
    return _nonzero_elements(site_of(q))


# the hopping's site factors per spin, as functions of the old sector's q
_SITE_FDAG = tuple(partial(_site_fdag, f) for f in FDAG)
_SITE_RAISING = tuple(partial(_site_raising, f) for f in FDAG)


def _pieces(layout: Layout, n_old_sites: int, a, b, row_sectors):
    """Nonzero blocks of A (x) B on a product basis over an n_old_sites block.

    b is the channel matrix, or a function b(q) of the old column sector's q
    that gives it.  Yields the (sector, rows) of the row and of the column
    block, the signed channel matrix element, and the value a holds for the
    A block, for the row sectors in row_sectors.
    """
    fixed = None if callable(b) else _nonzero_elements(b)
    elements = partial(_site_elements, b) if fixed is None else lambda q: fixed
    for (s_to, s_from), block in a.items():
        for l_to, l_from, elem, odd in elements(s_from.q):
            row, col = layout.get((s_to, l_to)), layout.get((s_from, l_from))
            if row is None or col is None or row[0] not in row_sectors:
                continue
            if odd:
                elem *= _block_parity_sign(s_to.q, n_old_sites)
            yield row, col, elem, block


def rotate(state: IterationState, op: BlockOp | None, b, parity=None) -> BlockOp:
    """A (x) B in the kept eigenbasis of state.

    A, the BlockOp op, acts on the block of the previous iteration (None: its
    identity); its blocks may carry leading stack axes, several operators
    rotated in one pass.  B acts on the channels of the newest site (a matrix,
    or a function of the old sector's q, as in `_pieces`).  parity, when
    given, is the F parity of the result, F X F = parity X, a number or an
    array over the stack axes: under F only the representative row sectors
    are rotated, and `_mirror` completes the rest.  One pass per block (t_to,
    t_from) of the result: Y[rows] = elem A U_from[cols] for each of its
    pieces, then U_to^T Y.
    """
    if op is None:
        op = {(s, s): None for s in sorted({s for s, _ in state.layout})}
    blocks = state.blocks
    groups: dict[tuple[Sector, Sector], list] = {}
    mirrored = parity is not None and state.flip
    targets = state.representatives() if mirrored else blocks
    for (t_to, rows), (t_from, cols), elem, m in _pieces(
        state.layout, state.n, op, b, targets
    ):
        if t_from in blocks:
            groups.setdefault((t_to, t_from), []).append((rows, cols, elem, m))

    out: BlockOp = {}
    for key, pieces in groups.items():
        u_to, u_from = blocks[key[0]].vectors, blocks[key[1]].vectors
        # the stack axes of A, none for the identity
        y = np.zeros(np.shape(pieces[0][3])[:-2] + (len(u_to), u_from.shape[1]))
        written = set()
        for rows, cols, elem, m in pieces:
            x, target = u_from[cols], y[..., rows, :]
            if rows.start in written:
                target += elem * (x if m is None else m @ x)
                continue
            written.add(rows.start)
            if m is None:
                np.multiply(x, elem, out=target)
            else:
                np.matmul(m, x, out=target)
                if elem != 1.0:
                    target *= elem
        out[key] = u_to.T @ y
    if mirrored:
        out.update(_mirror(state, {k: m for k, m in out.items() if k[0].two_sz > 0}, parity))
    return out


def _mirror(state: IterationState, op: BlockOp, c) -> BlockOp:
    """c F op F, block by block: c sym(t1) op[t1, t2] sym(t2) at (F t1, F t2);
    c is a number or an array over the stack axes of op's blocks."""
    blocks = state.blocks
    c = np.asarray(c)[..., None, None]
    return {
        (_flipped(t1), _flipped(t2)): (c * blocks[t1].sym[:, None]) * m * blocks[t2].sym
        for (t1, t2), m in op.items()
    }


def _fdag_flip_sign() -> float:
    """c in F f^dag_up F = c f^dag_dn on a site, read off FLIP, FLIP_SIGN; the
    unpacking fails unless one c holds exactly."""
    site = np.zeros((4, 4))
    site[list(FLIP), list(LOCAL_STATES)] = FLIP_SIGN
    image = site @ FDAG_UP @ site.T
    (c,) = [c for c in (1.0, -1.0) if np.array_equal(image, c * FDAG_DN)]
    return c


_FDAG_FLIP_SIGN = _fdag_flip_sign()


def _flip_rows(old, layout: Layout, entries) -> tuple[np.ndarray, np.ndarray]:
    """F on the rows of a product sector t, whose (old sector, channel, rows)
    are entries, as (dest, sign): F e_r = sign[r] e_dest[r], dest a row of F(t).

    The rows of (s, loc) go to those of (F(s), FLIP[loc]), with the sign
    FLIP_SIGN[loc] sym(s).
    """
    d = entries[-1][2].stop
    dest, sign = np.empty(d, dtype=np.intp), np.empty(d)
    for s, loc, rows in entries:
        image = layout[_flipped(s), FLIP[loc]][1]
        dest[rows] = np.arange(image.start, image.stop)
        sign[rows] = FLIP_SIGN[loc] * old[s].sym
    return dest, sign


def _diagonalize_representative(flip: bool, old, layout: Layout, ham, r, entries):
    """Energies, vectors and sym of the representative r, and of F(r) when F
    moves it, from the lower triangle of ham on r; entries are r's (old
    sector, channel, rows)."""
    if not flip:
        w, v = _diagonalize(ham, r)
        return {r: (w, v, None)}
    dest, sign = _flip_rows(old, layout, entries)
    if r.two_sz == 0:  # F maps the rows of r onto themselves
        return {r: _split_by_parity(ham, r, dest, sign)}
    w, v = _diagonalize(ham, r)
    image = np.empty_like(v)
    image[dest] = v * sign[:, None]  # F V, a signed permutation of the rows
    ones = np.ones(len(w))
    return {r: (w, v, ones), _flipped(r): (w, image, ones)}


def _extend(
    state: IterationState, terms, lam: float | None = None, mapper=map
) -> IterationState:
    """Add one site: diagonalize scale * diag(E_old) + sum c (A (x) B + h.c.).

    terms holds (c, A, B) triples; lam is None only for the impurity step.
    Each piece is written once, into the lower triangle, which is all that
    `eigh` reads.  The representatives are diagonalized through mapper,
    largest block first.
    """
    n_new = state.n + 1
    scale = math.sqrt(lam) if n_new > 1 else 1.0
    unscale = lam ** (-(n_new - 1) / 2) if n_new > 1 else 1.0
    old = state.blocks

    layout: Layout = {}
    entries: dict[Sector, list[tuple[Sector, int, slice]]] = {}
    for s in sorted(old):
        e = len(old[s].energies)
        for loc in LOCAL_STATES:
            t = Sector(s.q + DQ[loc], s.two_sz + DTSZ[loc])
            if t.q < 0:  # a singlet has no I - 1/2 channel
                continue
            parts = entries.setdefault(t, [])
            off = parts[-1][2].stop if parts else 0
            layout[(s, loc)] = (t, slice(off, off + e))
            parts.append((s, loc, slice(off, off + e)))
    # only the representatives are assembled and diagonalized
    reps = [r for r in sorted(entries, reverse=True) if not state.flip or r.two_sz >= 0]
    hams = {}
    for r in reps:
        d = entries[r][-1][2].stop
        hams[r] = np.zeros((d, d))
        diagonal = [old[s].energies for s, _, _ in entries[r]]
        np.multiply(np.concatenate(diagonal), scale, out=hams[r].reshape(-1)[:: d + 1])
    written = set()  # the off-diagonal blocks that hold a piece already
    for c, a, b in terms:
        # the old block holds n_new sites
        for (t, r), (_, k), elem, a_blk in _pieces(layout, n_new, a, b, hams):
            if r.start == k.start:  # a block on the diagonal holds m + m^T
                m = (c * elem) * a_blk
                h = hams[t][r, r]
                h += m
                h += m.T
                continue
            if r.start < k.start:
                r, k, a_blk = k, r, a_blk.T
            h = hams[t][r, k]
            if (t, r.start, k.start) in written:
                h += (c * elem) * a_blk
            else:
                np.multiply(a_blk, c * elem, out=h)
                written.add((t, r.start, k.start))

    eig = {}  # sector -> (energies, vectors, sym)
    reps.sort(key=lambda r: -len(hams[r]))  # the largest first
    solve = partial(_diagonalize_representative, state.flip, old, layout)
    for out in mapper(solve, [hams[r] for r in reps], reps, [entries[r] for r in reps]):
        eig.update(out)

    shift = min(w[0] for w, _, _ in eig.values())
    return IterationState(
        n=n_new,
        blocks={
            t: SectorBlock(w - shift, v, sym, t.q + 1)
            for t, (w, v, sym) in sorted(eig.items())
        },
        e0_accumulated=state.e0_accumulated + unscale * shift,
        unscale=unscale,
        layout=layout,
        flip=state.flip,
    )


def init_impurity_site(k: KondoParams) -> IterationState:
    """Iteration 0: the bare impurity extended by site 0.

    The bare impurity carries the Zeeman term; the step adds the transverse
    spin flip (J_perp/2)(S^- s^+ + h.c.) and the longitudinal Ising term
    J_par S_z s_z.  The chain kinetic energy starts at the next iteration.
    """
    flip = k.field == 0.0
    sym = np.ones(1) if flip else None  # F maps each bare state to the other
    blocks = {
        s: SectorBlock(np.array([0.5 * k.field * s.two_sz]), np.eye(1), sym)
        for s in (_BARE_DN, _BARE_UP)
    }
    bare = IterationState(n=-1, blocks=blocks, e0_accumulated=0.0, flip=flip)
    return _extend(
        bare, [(0.5 * k.jperp, S_MINUS, SITE_S_PLUS), (0.5 * k.jpar, S_Z, SITE_S_Z)]
    )


def _fdag_blocks(state: IterationState) -> list[BlockOp]:
    """f^dag_up and f^dag_dn of the newest site in the kept eigenbasis, as
    their highest-weight blocks from I to I + 1/2.

    f^dag_up is rotated into every row sector.  Under F, f^dag_dn is its
    `_mirror` (F f^dag_up F = c f^dag_dn), at the work of rotating both into
    the representative rows; without F it is rotated too.
    """
    up = rotate(state, None, _SITE_FDAG[0])
    if state.flip:
        return [up, _mirror(state, up, _FDAG_FLIP_SIGN)]
    return [up, rotate(state, None, _SITE_FDAG[1])]


def add_site(state: IterationState, chain: WilsonChain, mapper=map) -> IterationState:
    """Extend the chain by one site and rediagonalize every sector.

    Builds the rescaled Hamiltonian sqrt(Lambda) * H_N + xi_N * (hopping) on
    the kept-multiplets x channels product basis.  Per spin sigma the old
    f_sigma enters twice: lowering I, as the transpose of the previous newest
    site's f^dag_sigma blocks (`_fdag_blocks`) with `_site_fdag`, and raising
    I, through the f^dag_sigma blocks themselves with `_site_raising`.
    mapper runs the representatives' diagonalizations (see `_extend`).
    """
    if state.n + 1 > chain.length:
        raise EngineError(
            f"chain provides {chain.length} hoppings, cannot add site {state.n + 1}"
        )
    xi = chain.coupling(state.n)
    terms = []
    for spin, blocks in enumerate(_fdag_blocks(state)):
        lowering = {(s, t): m.T for (t, s), m in blocks.items()}
        terms.append((xi, lowering, _SITE_FDAG[spin]))
        terms.append((xi, blocks, _SITE_RAISING[spin]))
    return _extend(state, terms, chain.lam, mapper)


def truncate(state: IterationState, n_keep: int) -> IterationState:
    """Retain the globally lowest n_keep states across all sectors.

    Each multiplet counts as its mult = 2I + 1 states.  The cut energy is that
    of the n_keep-th lowest state, moved up to the first gap
    e[i+1] - e[i] >= DEGENERACY_TOL * max(1, |e[i]|), so a near-degenerate
    multiplet is never split and the kept count may exceed n_keep slightly;
    with no such gap nothing is cut and state itself is returned.  Each
    sector keeps its states at or below the cut, a prefix of its ascending
    block.
    """
    if n_keep < 16:
        raise DomainError("n_keep must be >= 16")
    old = state.blocks.values()
    sizes = [len(b.energies) for b in old]
    levels = np.concatenate([b.energies for b in old])
    order = np.argsort(levels, kind="stable")
    # the levels from the one holding the n_keep-th state on, in energy order
    counts = np.cumsum(np.repeat([b.mult for b in old], sizes)[order])
    e = levels[order[np.searchsorted(counts, n_keep) :]]
    gap = np.diff(e) >= DEGENERACY_TOL * np.maximum(1.0, np.abs(e[:-1]))
    if not gap.any():
        return state
    e_cut = e[gap.argmax()]

    # each block is ascending, so it keeps its levels up to the cut
    below = np.cumsum(levels <= e_cut)[np.cumsum(sizes) - 1]
    blocks: dict[Sector, SectorBlock] = {}
    for (s, b), c in zip(state.blocks.items(), np.diff(below, prepend=0)):
        if c:
            # copies, so that the untruncated arrays are freed
            sym = None if b.sym is None else b.sym[:c]
            energies, vectors = b.energies[:c].copy(), b.vectors[:, :c].copy()
            blocks[s] = SectorBlock(energies, vectors, sym, b.mult)
    return replace(state, blocks=blocks)


@dataclass
class ConvergenceReport:
    """The read-out of a run and its verdict.

    sx, sz: -<O_x + O_x^dag> and -2<S_z> of the ground multiplet (`run` flips
    the raw sign), averaged over the last two iterations when even_odd_averaged,
    the plateau of a flow alternating with the parity of n; sz is 0.0 where F
    is a symmetry (IterationState.flip).  They are results only when
    converged: scale_met (n_m > n_star, the depth `_n_star`) and plateau_met
    (`_plateau_status`).
    drift_sx, drift_sz: max - min of the raw values over the last
    PLATEAU_WINDOW iterations.  history: (n, sx_raw, sz_raw) per iteration
    0 .. n_m, in the raw sign.
    """

    n_m: int
    converged: bool
    scale_met: bool
    plateau_met: bool
    even_odd_averaged: bool
    n_star: float
    drift_sx: float
    drift_sz: float
    sx: float
    sz: float
    history: tuple[tuple[int, float, float], ...]


def _drift(values: list[float]) -> float:
    """max - min, NaN if any value is; the builtins skip a NaN that is not first."""
    return math.nan if any(map(math.isnan, values)) else max(values) - min(values)


def _settled(rows: list[tuple[int, float, float]]) -> bool:
    return all(_drift([h[c] for h in rows]) < PLATEAU_TOL for c in (1, 2))


def _plateau_status(history: list[tuple[int, float, float]]) -> tuple[bool, bool]:
    """(plateau_met, even_odd): both raw observables moved by less than
    PLATEAU_TOL over the last PLATEAU_WINDOW iterations, or, for a flow that
    alternates between even and odd n, each parity did over twice as many."""
    if len(history) >= PLATEAU_WINDOW and _settled(history[-PLATEAU_WINDOW:]):
        return True, False
    tail = history[-2 * PLATEAU_WINDOW :]  # n runs consecutively
    if len(tail) == 2 * PLATEAU_WINDOW and _settled(tail[::2]) and _settled(tail[1::2]):
        return True, True
    return False, False


def _n_star(p: SpinBosonPoint, lam: float) -> float:
    """N* = 1 - 2 (ln ETA + ln Delta_r) / ln Lambda, finite where Delta_r
    underflows: omega_N = Lambda^(-(N-1)/2) < ETA * Delta_r iff N > N*."""
    return 1.0 - 2.0 * (math.log(ETA) + log_renormalized_tunneling(p)) / math.log(lam)


@lru_cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy wheels
    bundle, as ctypes functions, or None where that library is not found."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            if hasattr(lib, name.format("get_num_threads")):
                get = getattr(lib, name.format("get_num_threads"))
                set_ = getattr(lib, name.format("set_num_threads"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _drain(pool: ThreadPoolExecutor, helpers: int, fn, *iterables) -> list:
    """map(fn, *iterables) as a list, on the calling thread and helpers
    drain tasks of pool.

    Every share takes the next task of the list, through one index under a
    lock; `_extend` lists the blocks largest first, so the step ends on the
    smallest.  An exception raised in any share stops the drain, and is raised
    once every share is back.
    """
    tasks = list(zip(*iterables))
    results: list = [None] * len(tasks)
    lock, index, failed = threading.Lock(), iter(range(len(tasks))), []

    def take() -> int | None:
        with lock:
            return None if failed else next(index, None)

    def drain() -> None:
        try:
            while (i := take()) is not None:
                results[i] = fn(*tasks[i])
        except BaseException:
            failed.append(True)
            raise

    shares = [pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        errors = [e for e in (share.exception() for share in shares) if e]
    if errors:
        raise errors[0]
    return results


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the OS cannot say)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


# the OpenBLAS count that the first run in found, once per run holding the pin
_PIN_LOCK, _pinned = threading.Lock(), []


@contextlib.contextmanager
def _block_mapper():
    """The mapper that `run` diagonalizes each iteration's blocks with.

    `_drain` on a thread pool with one helper per usable CPU besides the
    caller, while OpenBLAS is held on one thread (a multithreaded BLAS beside
    the helpers oversubscribes the cores).  With one usable CPU there is no
    helper, and the executor, which starts threads on submit, starts none.
    The builtin map keeps the run serial where OpenBLAS is not found, as its
    threads cannot be pinned, and in a multiprocessing worker, whose sibling
    processes (a `run_sweep` pool) fill the cores already.  Concurrent runs
    in one process share the process-wide pin: the first one in reads the
    count, and the last one out restores it.
    """
    # a multiprocessing worker has imported multiprocessing; elsewhere the
    # check does not import it
    mp = sys.modules.get("multiprocessing")
    blas = _openblas()
    if blas is None or (mp is not None and mp.parent_process() is not None):
        yield map
        return
    get, set_ = blas
    with _PIN_LOCK:
        _pinned.append(_pinned[0] if _pinned else get())
        set_(1)
    try:
        helpers = _usable_cpus() - 1
        with ThreadPoolExecutor(max(helpers, 1)) as pool:
            yield partial(_drain, pool, helpers)
    finally:
        with _PIN_LOCK:
            saved = _pinned.pop()
            if not _pinned:  # the last run out
                set_(saved)


def iterate(k: KondoParams, chain: WilsonChain, n_keep: int | None = None, mapper=map):
    """Yield (state, sx_raw, sz_raw) at the iterations 0 .. chain.length, each
    step after the impurity site keeping n_keep states (all with None)."""
    from .observables import ground_expectation_raw, init_operator_blocks, propagate

    state = init_impurity_site(k)
    ops = init_operator_blocks(state)
    yield (state, *ground_expectation_raw(state, ops))
    while state.n < chain.length:
        state = add_site(state, chain, mapper)
        if n_keep is not None:
            state = truncate(state, n_keep)
        ops = propagate(ops, state)
        yield (state, *ground_expectation_raw(state, ops))


def run(p: SpinBosonPoint, cfg: NRGConfig) -> tuple[IterationState, ConvergenceReport]:
    """Solve the point p: iterate its Kondo couplings (`map_to_kondo`) past
    p's depth `_n_star` until the observables plateau.

    Reaching n_max short of both criteria is not an error; the report carries
    converged=False and the drift over the last window.  An n_max at or below
    the depth, which no run can pass, warns once (UserWarning) before the run.
    """
    chain = build_chain(cfg.lam, cfg.n_max)
    n_star = _n_star(p, cfg.lam)
    if cfg.n_max <= n_star:
        warnings.warn(
            f"n_max={cfg.n_max} <= N*={n_star:.1f}: the run cannot pass the depth"
            " N* and will not converge",
            UserWarning,
            stacklevel=_caller_stacklevel(),
        )

    history: list[tuple[int, float, float]] = []
    with _block_mapper() as mapper:
        for state, sx_raw, sz_raw in iterate(map_to_kondo(p), chain, cfg.n_keep, mapper):
            history.append((state.n, sx_raw, sz_raw))
            scale_met = state.n > n_star
            plateau_met, even_odd = _plateau_status(history)
            if scale_met and plateau_met:
                break

    if even_odd:
        sx_raw = 0.5 * (history[-1][1] + history[-2][1])
        sz_raw = 0.5 * (history[-1][2] + history[-2][2])
    else:
        sx_raw, sz_raw = history[-1][1], history[-1][2]

    window = history[-PLATEAU_WINDOW:]
    report = ConvergenceReport(
        n_m=state.n,
        converged=scale_met and plateau_met,
        scale_met=scale_met,
        plateau_met=plateau_met,
        even_odd_averaged=even_odd,
        n_star=n_star,
        drift_sx=_drift([h[1] for h in window]),
        drift_sz=_drift([h[2] for h in window]),
        sx=-sx_raw,
        # S_z is odd under F: where F is a symmetry its read-out is roundoff
        sz=0.0 if state.flip else -sz_raw,
        history=tuple(history),
    )
    return state, report
