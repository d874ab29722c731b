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
the f^dag of the newest site and the carried observables alike.  Each step
stores once where every (previous sector, channel) pair sits in the product
basis, IterationState.layout, and the assembly and every rotation read that
map.  The first step extends the bare impurity (iteration -1, energies
+-h/2) by site 0 with the Kondo exchange; every later step adds the hopping
xi_N (f^dag_new f_old + h.c.).

Spin flip: at zero field the flip F of every spin (`fock.FLIP`, (q, m) ->
(q, -m)) commutes with H; IterationState.symmetries holds it, or nothing at
nonzero field.  F I^+ F = -I^+ with the `fock` conventions, so F keeps I and
I_z and maps highest weights to highest weights, only flipping the sign of
I^+-.  On the channels it is still the site table (`Z2`): DOUBLE takes the
double's -1, and on EMPTY the -1 that F gives the lowered old state cancels
it.  A kept multiplet j of sector s obeys G|j, s> = sym[j] |j, G(s)>, with
sym the +-1 array the block stores for the generator G, so in the product
basis G is a signed permutation: the rows of (s, loc) go to the rows of
(G(s), perm[loc]), times sym and the channel sign.  A step diagonalizes one
representative per orbit of sectors, the largest; a sector that G fixes
(two_sz = 0) is split into its G-even and G-odd blocks.  The other sector of
the orbit gets the same energies and the vectors G V, so orbit partners are
bitwise degenerate and truncation never separates them.  Operators are
rotated into the representative row sectors only, and `fill_images` gives the
other blocks: G X G^-1 has the block sym(t1) X[t1, t2] sym(t2) at
(G t1, G t2).  An empty table diagonalizes every sector in full.

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

Concurrency: the orbits of one iteration are independent eigenproblems.
`run` diagonalizes them on a thread pool, one thread per usable CPU, largest
block first, with OpenBLAS held on one thread for the loop (`_orbit_mapper`):
numpy's `eigh` releases the GIL, and a multithreaded BLAS under the pool
would oversubscribe the cores.  The results are gathered by sector, so a
pooled run matches a serial one at the same BLAS thread count bit for bit.
`add_site` and `_extend` take the mapper, the builtin map by default, as the
oracle and direct callers use them; `run` stays serial too where numpy's
OpenBLAS is not found and in the worker processes of a sweep.

Read-out and verdict: only `run` applies the figures' sign flip to the raw
ground-state observables and judges convergence, in its `ConvergenceReport`,
with the fixed constants ETA, PLATEAU_WINDOW, PLATEAU_TOL and DEGENERACY_TOL.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .chain import WilsonChain, build_chain
from .fock import DQ, DTSZ, EMPTY, FDAG_DN, FDAG_UP, FLIP, FLIP_SIGN, IMP_DN, IMP_UP
from .fock import LOCAL_STATES, N_EL
from .params import DomainError, KondoParams, SpinBosonPoint
from .params import log_renormalized_tunneling, map_to_kondo


class EngineError(RuntimeError):
    """Internal solver failure (eigensolver breakdown, dimension mismatch)."""


class Sector(NamedTuple):
    q: int
    two_sz: int


class Z2(NamedTuple):
    """A Z2 symmetry G of every iteration's Hamiltonian.

    G maps the sector (q, two_sz) to (scale[0] q, scale[1] two_sz) and the
    channel loc of the newest site to sign[loc] times channel perm[loc]; it
    moves the bare impurity only through the sector map.
    """

    scale: tuple[int, int]
    perm: tuple[int, ...]
    sign: tuple[float, ...]

    def sector(self, s: Sector) -> Sector:
        return Sector(self.scale[0] * s.q, self.scale[1] * s.two_sz)


SPIN_FLIP = Z2((1, -1), FLIP, FLIP_SIGN)


def symmetries_of(k: KondoParams) -> tuple[Z2, ...]:
    """The generators that commute with H: the flip F at h = 0, else none."""
    return (SPIN_FLIP,) if k.field == 0.0 else ()


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
        return cls(**PAPER_FIDELITY)


# the production bundle behind NRGConfig.paper_fidelity and --paper-fidelity
PAPER_FIDELITY = {"lam": 1.5, "n_keep": 1200}

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
    # per generator of the table, the +-1 of each state: G|j, s> = sym[j] |j, G(s)>
    sym: tuple[np.ndarray, ...] = ()
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
    symmetries: tuple[Z2, ...] = ()  # the generators the blocks respect

    def representatives(self) -> set[Sector]:
        """The sectors that are the largest of their orbit."""
        return set(_orbits(self.blocks, self.symmetries))


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


def _orbits(sectors, gens: tuple[Z2, ...]) -> dict[Sector, dict[Sector, tuple]]:
    """The orbits of sectors, keyed by their largest sector, the representative.

    Each orbit maps its sectors to (i, parent): generator i takes the parent
    sector to it ((None, None) for the representative).
    """
    orbits: dict[Sector, dict[Sector, tuple]] = {}
    seen: set[Sector] = set()
    for t in sorted(sectors, reverse=True):
        if t in seen:
            continue
        orbit = {t: (None, None)}
        for i, g in enumerate(gens):
            for u in list(orbit):
                orbit.setdefault(g.sector(u), (i, u))
        orbits[t] = orbit
        seen.update(orbit)
    return orbits


@lru_cache
def _character_table(k: int) -> np.ndarray:
    """chi(h) for the characters (rows) and the products h (columns) of k
    commuting generators: bit j of an index marks generator j, and a
    character that is -1 on generator j has bit j set."""
    n = 1 << k
    signs = [[(-1.0) ** bin(c & h).count("1") for h in range(n)] for c in range(n)]
    table = np.array(signs)
    table.flags.writeable = False  # shared by every caller
    return table


def _diagonalize_by_characters(ham: np.ndarray, sector: Sector, acts):
    """Diagonalize a sector fixed by commuting generators, one character at a time.

    acts holds each generator on the rows as (dest, sign), an involution:
    G e_r = sign[r] e_dest[r].  Every product h of them is such a signed
    permutation.  For a character chi, the block's basis is the normalized
    projection P e_a = sum_h chi(h) h e_a / |group| of each leader row a (the
    lowest of its orbit under the products), where it is nonzero.  As P
    commutes with ham, the matrix element <P e_a|ham|P e_b> is <e_a|ham P|e_b>,
    gathered from the leader rows of ham.  Returns the energies, the vectors,
    and per generator the character of each state, all in energy order.
    """
    d = len(ham)
    # product h of the generators whose bits are set in its index
    dests, signs = np.arange(d)[None], np.ones((1, d))
    for dest, sign in acts:
        dests, signs = (
            np.vstack([dests, dest[dests]]), np.vstack([signs, sign[dests] * signs])
        )
    leaders = np.flatnonzero(dests.min(axis=0) == np.arange(d))
    dests, signs = dests[:, leaders], signs[:, leaders]
    table = _character_table(len(acts))
    # |P e_a|^2 |group|: chi(h) sign summed over the h that fix a
    weights = table @ (signs * (dests == leaders))
    chars, lead = np.nonzero(weights > 0)  # a column per (character, leader)
    norm = 1.0 / np.sqrt(len(table) * weights[chars, lead])
    coef = table[chars].T * signs[:, lead] * norm  # P e_a / |P e_a|, per h
    rows = dests[:, lead]
    first = ham[leaders[lead]]
    m = first[:, rows[0]] * coef[0]
    for h_coef, h_rows in zip(coef[1:], rows[1:]):
        m += first[:, h_rows] * h_coef
    m *= (len(table) * norm)[:, None]  # only its blocks within a character count
    energies, vectors = np.empty(d), np.zeros((d, d))
    bounds = np.searchsorted(chars, np.arange(len(table) + 1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo < hi:
            energies[lo:hi], x = _diagonalize(m[lo:hi, lo:hi], sector)
            for h_coef, h_rows in zip(coef[:, lo:hi], rows[:, lo:hi]):
                vectors[h_rows, lo:hi] += h_coef[:, None] * x
    order = np.argsort(energies, kind="stable")
    generators = [1 << j for j in range(len(acts))]
    return energies[order], vectors[:, order], table[chars[order]][:, generators].T


def _pieces(layout: Layout, n_old_sites: int, a, b, row_sectors):
    """Nonzero blocks of A (x) B on a product basis over an n_old_sites block.

    b is the channel matrix, or a function b(q) of the old column sector's q
    that gives it.  Yields the (sector, rows) of the row and of the column
    block, the signed channel matrix element, and the value a holds for the
    A block, for the row sectors in row_sectors.
    """
    site_of = b if callable(b) else lambda q: b
    nonzero: dict[int, list] = {}
    for (s_to, s_from), block in a.items():
        site = nonzero.get(s_from.q)
        if site is None:
            m = site_of(s_from.q)
            site = nonzero[s_from.q] = [
                (i, j, float(m[i, j]), (N_EL[i] - N_EL[j]) % 2)
                for i, j in zip(*np.nonzero(m))
            ]
        for l_to, l_from, elem, odd in site:
            row, col = layout.get((s_to, l_to)), layout.get((s_from, l_from))
            if row is None or col is None or row[0] not in row_sectors:
                continue
            if odd:
                elem *= _block_parity_sign(s_to.q, n_old_sites)
            yield row, col, elem, block


def rotate(
    state: IterationState,
    ops: tuple[BlockOp, ...] | None,
    b,
    to_sectors: set[Sector] | None = None,
) -> list[BlockOp]:
    """A (x) B in the kept eigenbasis of state, for each A in ops.

    The A act on the block of the previous iteration and are rotated in one
    pass over the eigenvector slices; ops None stands for that block's
    identity alone.  B acts on the channels of the newest site (a matrix, or
    a function of the old sector's q, as in `_pieces`).  to_sectors, when
    given, limits the results to the blocks whose row sector it contains.
    """
    if ops is None:
        a = {(s, s): None for s in sorted({s for s, _ in state.layout})}
    else:
        keys = dict.fromkeys(k for op in ops for k in op)  # in a fixed order
        a = {k: [op.get(k) for op in ops] for k in keys}
    out: list[BlockOp] = [{} for _ in ops or (None,)]
    blocks = state.blocks
    targets = blocks if to_sectors is None else to_sectors
    pieces = _pieces(state.layout, state.n, a, b, targets)
    for (t_to, r_to), (t_from, r_from), elem, a_blks in pieces:
        if t_from not in blocks:
            continue
        u_to, u_from = blocks[t_to].vectors[r_to], blocks[t_from].vectors[r_from]
        if a_blks is None:
            products = [u_to.T @ u_from]
        else:
            products = [None if m is None else u_to.T @ m @ u_from for m in a_blks]
        key = (t_to, t_from)
        for o, m in zip(out, products):
            if m is None:
                continue
            m *= elem
            if key in o:
                o[key] += m
            else:
                o[key] = m
    return out


def fill_images(state: IterationState, ops: list[BlockOp], conj) -> None:
    """Add to ops, in place, the blocks whose row sector is not a representative.

    ops hold at least the blocks with representative row sectors; conj[i][k]
    = (c, k2, transposed) says that generator i of the table takes ops[k] to
    c ops[k2], or to c ops[k2]^T.  G X G^-1 has the block
    sym(t1) X[t1, t2] sym(t2) at (G t1, G t2).  The generators act in table
    order on the blocks known before each.
    """
    for i, g in enumerate(state.symmetries):
        image = {t: g.sector(t) for t in state.blocks}
        known = [list(op.items()) for op in ops]
        for (c, k2, transposed), items in zip(conj[i], known):
            target = ops[k2]
            for (t1, t2), m in items:
                key = (image[t1], image[t2])
                key = key[::-1] if transposed else key
                if key in target:
                    continue
                img = m * state.blocks[t1].sym[i][:, None]
                img *= c * state.blocks[t2].sym[i]
                target[key] = img.T if transposed else img


@lru_cache
def _fdag_conjugation(g: Z2) -> tuple[tuple[float, int, bool], ...]:
    """G f^dag_sigma G^-1 on a site, per spin sigma, as (c, spin, transposed):
    c times f^dag_spin or its transpose."""
    site = np.zeros((4, 4))
    site[list(g.perm), list(LOCAL_STATES)] = g.sign
    return tuple(
        next(
            (c, k, tr)
            for k, f in enumerate(FDAG)
            for tr in (False, True)
            for c in (1.0, -1.0)
            if np.array_equal(site @ op @ site.T, c * (f.T if tr else f))
        )
        for op in FDAG
    )


class _Action:
    """The generators of a step's table on its product basis.

    A row is (old sector s, channel loc, kept index j); generator i sends it
    to (G_i(s), perm[loc], j) with the sign sym_i(s)[j] times the channel
    sign.  The rows of one (s, loc) pair form an entry of their product sector.
    """

    def __init__(self, gens, old, layout: Layout, entries):
        self.gens, self.old, self.layout, self.entries = gens, old, layout, entries
        self.moved = [{s: g.sector(s) for s in old} for g in gens]

    def rows(self, i: int, t: Sector):
        """Per entry of t: its rows, their images in G_i(t), and the sign."""
        g, moved = self.gens[i], self.moved[i]
        return [
            (rows, self.layout[moved[s], g.perm[loc]][1], g.sign[loc] * self.old[s].sym[i])
            for s, loc, rows in self.entries[t]
        ]

    def permutation(self, i: int, t: Sector) -> tuple[np.ndarray, np.ndarray]:
        """Generator i as (dest, sign) on the rows of t: G e_r = sign[r] e_dest[r]."""
        d = self.entries[t][-1][2].stop
        dest, signs = np.empty(d, dtype=np.intp), np.empty(d)
        for rows, image, sign in self.rows(i, t):
            dest[rows], signs[rows] = np.arange(image.start, image.stop), sign
        return dest, signs

    def sign(self, word: tuple[int, ...], t: Sector) -> float:
        """The sign that the generators of word, in order, give t's first row."""
        (s, loc, _), sign = self.entries[t][0], 1.0
        for i in word:
            sign *= self.old[s].sym[i][0] * self.gens[i].sign[loc]
            s, loc = self.moved[i][s], self.gens[i].perm[loc]
        return sign


def _diagonalize_orbit(ham: np.ndarray, r: Sector, orbit, action: _Action):
    """Energies, vectors and sym of every sector of r's orbit, from ham on r."""
    gens = action.gens
    fixed = [i for i, g in enumerate(gens) if g.sector(r) == r]
    chi = {}  # fixed generator -> the character of each state
    if fixed:
        # a fixed generator maps the rows of r onto themselves, an involution
        perms = [action.permutation(i, r) for i in fixed]
        w, v, chars = _diagonalize_by_characters(ham, r, perms)
        chi = dict(zip(fixed, chars))
    else:
        w, v = _diagonalize(ham, r)
    vectors, words = {r: v}, {r: ()}
    for u, (i, parent) in orbit.items():
        if parent is not None:  # the image G_i V of the parent's vectors
            vectors[u], words[u] = np.empty_like(v), words[parent] + (i,)
            for rows, image, sign in action.rows(i, parent):
                np.multiply(vectors[parent][rows], sign[:, None], out=vectors[u][image])

    ones, out = np.ones(len(w)), {}
    for u, word in words.items():
        sym = []
        for i, g in enumerate(gens):
            image_word = words[g.sector(u)]
            if word + (i,) == image_word:  # the image was built as G_i V_u
                sym.append(ones)
            elif not word and not image_word:  # G_i fixes r
                sym.append(chi[i])
            else:
                # with W_u the generators of word, G_i W_u = lam W_image h on
                # the rows of r, h the product of the fixed generators in rest
                rest = tuple(sorted(set(word) ^ {i} ^ set(image_word)))
                lam_ = action.sign(word + (i,), r) * action.sign(rest + image_word, r)
                sym.append(lam_ * math.prod((chi[k] for k in rest), start=ones))
        out[u] = (w, vectors[u], tuple(sym))
    return out


def _extend(
    state: IterationState, terms, lam: float | None = None, mapper=map
) -> IterationState:
    """Add one site: diagonalize scale * diag(E_old) + sum c (A (x) B + h.c.).

    terms holds (c, A, B) triples; lam is None only for the impurity step.
    The orbits are diagonalized through mapper, largest block first.
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
    # one representative per orbit is assembled and diagonalized
    orbits = _orbits(entries, state.symmetries)
    hams = {
        r: np.diag(scale * np.concatenate([old[s].energies for s, _, _ in entries[r]]))
        for r in orbits
    }
    for c, a, b in terms:
        # the old block holds n_new sites
        for (t, r), (_, k), elem, a_blk in _pieces(layout, n_new, a, b, hams):
            m = (c * elem) * a_blk
            hams[t][r, k] += m
            hams[t][k, r] += m.T

    action = _Action(state.symmetries, old, layout, entries)
    eig = {}  # sector -> (energies, vectors, sym)
    reps = sorted(orbits, key=lambda r: -len(hams[r]))  # the largest first
    args = [hams[r] for r in reps], reps, [orbits[r] for r in reps], repeat(action)
    for out in mapper(_diagonalize_orbit, *args):
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
        symmetries=state.symmetries,
    )


def init_impurity_site(k: KondoParams) -> IterationState:
    """Iteration 0: the bare impurity extended by site 0.

    The bare impurity carries the Zeeman term; the step adds the transverse
    spin flip (J_perp/2)(S^- s^+ + h.c.) and the longitudinal Ising term
    J_par S_z s_z.  The chain kinetic energy starts at the next iteration.
    """
    gens = symmetries_of(k)
    # every generator maps a bare state to the bare state of its sector image
    blocks = {
        s: SectorBlock(
            np.array([0.5 * k.field * s.two_sz]), np.eye(1), (np.ones(1),) * len(gens)
        )
        for s in (_BARE_DN, _BARE_UP)
    }
    bare = IterationState(n=-1, blocks=blocks, e0_accumulated=0.0, symmetries=gens)
    return _extend(
        bare, [(0.5 * k.jperp, S_MINUS, SITE_S_PLUS), (0.5 * k.jpar, S_Z, SITE_S_Z)]
    )


def _fdag_blocks(state: IterationState) -> list[BlockOp]:
    """f^dag_up and f^dag_dn of the newest site in the kept eigenbasis, as
    their highest-weight blocks from I to I + 1/2.

    Both are rotated into the representative row sectors only; `fill_images`
    gives the other blocks.
    """
    reps = state.representatives()
    fdag = [rotate(state, None, partial(_site_fdag, f), reps)[0] for f in FDAG]
    conj = [_fdag_conjugation(g) for g in state.symmetries]
    fill_images(state, fdag, conj)
    return fdag


def add_site(state: IterationState, chain: WilsonChain, mapper=map) -> IterationState:
    """Extend the chain by one site and rediagonalize every sector.

    Builds the rescaled Hamiltonian sqrt(Lambda) * H_N + xi_N * (hopping) on
    the kept-multiplets x channels product basis.  Per spin sigma the old
    f_sigma enters twice: lowering I, as the transpose of the previous newest
    site's f^dag_sigma blocks (`_fdag_blocks`) with `_site_fdag`, and raising
    I, through the f^dag_sigma blocks themselves with `_site_raising`.
    mapper runs the orbits' diagonalizations (see `_extend`).
    """
    if state.n + 1 > chain.length:
        raise EngineError(
            f"chain provides {chain.length} hoppings, cannot add site {state.n + 1}"
        )
    xi = chain.coupling(state.n)
    terms = []
    for blocks, f in zip(_fdag_blocks(state), FDAG):
        lowering = {(s, t): m.T for (t, s), m in blocks.items()}
        terms.append((xi, lowering, partial(_site_fdag, f)))
        terms.append((xi, blocks, partial(_site_raising, f)))
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
    e = np.concatenate([np.repeat(b.energies, b.mult) for b in state.blocks.values()])
    e = np.sort(e)[n_keep - 1 :]
    gap = np.diff(e) >= DEGENERACY_TOL * np.maximum(1.0, np.abs(e[:-1]))
    if not gap.any():
        return state
    e_cut = e[gap.argmax()]

    blocks: dict[Sector, SectorBlock] = {}
    for s, b in state.blocks.items():
        c = int(np.searchsorted(b.energies, e_cut, side="right"))
        if c:
            # copies, so that the untruncated arrays are freed
            sym = tuple(x[:c] for x in b.sym)
            energies, vectors = b.energies[:c].copy(), b.vectors[:, :c].copy()
            blocks[s] = SectorBlock(energies, vectors, sym, b.mult)
    return replace(state, blocks=blocks)


@dataclass
class ConvergenceReport:
    """The read-out of a run and its verdict.

    sx, sz: -<O_x + O_x^dag> and -2<S_z> of the ground multiplet (`run` flips
    the raw sign), averaged over the last two iterations when even_odd_averaged,
    the plateau of a flow alternating with the parity of n.  They are results
    only when converged: scale_met (n_m > n_star, the depth `_n_star`) and
    plateau_met (`_plateau_status`).
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
    return max(values) - min(values)


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


@contextlib.contextmanager
def _orbit_mapper():
    """The mapper that `run` diagonalizes each iteration's orbits with.

    A thread pool, one thread per usable CPU, while OpenBLAS is held on one
    thread (a multithreaded BLAS under the pool oversubscribes the cores);
    the count it had is restored on exit.  The builtin map keeps the run
    serial where OpenBLAS is not found, as its threads cannot be pinned, and
    in a multiprocessing worker, whose sibling processes (a `run_sweep` pool)
    fill the cores already.  The count is process-wide: runs in concurrent
    threads of one process each restore the count they read.
    """
    # a multiprocessing worker has imported multiprocessing; elsewhere the
    # check does not import it
    mp = sys.modules.get("multiprocessing")
    blas = _openblas()
    if blas is None or (mp is not None and mp.parent_process() is not None):
        yield map
        return
    get, set_ = blas
    saved = get()
    set_(1)
    try:
        affinity = getattr(os, "sched_getaffinity", None)
        workers = len(affinity(0)) if affinity else os.cpu_count()
        with ThreadPoolExecutor(workers) as pool:
            yield pool.map
    finally:
        set_(saved)


def run(p: SpinBosonPoint, cfg: NRGConfig) -> tuple[IterationState, ConvergenceReport]:
    """Solve the point p: iterate its Kondo couplings (`map_to_kondo`) past
    p's depth `_n_star` until the observables plateau.

    Reaching n_max short of both criteria is not an error; the report carries
    converged=False and the drift over the last window.
    """
    from .observables import ground_expectation_raw, init_operator_blocks, propagate

    chain = build_chain(cfg.lam, cfg.n_max)
    n_star = _n_star(p, cfg.lam)

    state = init_impurity_site(map_to_kondo(p))
    ops = init_operator_blocks(state)
    sx0, sz0 = ground_expectation_raw(state, ops)
    history: list[tuple[int, float, float]] = [(0, sx0, sz0)]

    scale_met = plateau_met = even_odd = False
    with _orbit_mapper() as mapper:
        while state.n < cfg.n_max:
            state = add_site(state, chain, mapper)
            state = truncate(state, cfg.n_keep)
            ops = propagate(ops, state)
            sx_raw, sz_raw = ground_expectation_raw(state, ops)
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
        sz=-sz_raw,
        history=tuple(history),
    )
    return state, report
