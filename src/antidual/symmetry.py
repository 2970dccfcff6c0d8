"""Combinatorial isomorphisms of the tetrahedral decompositions.

An isomorphism is a bijection of pieces together with a vertex-label
bijection per piece, commuting with every face pairing; label maps are
indices into ``PERMS`` throughout.  ``Decomposition`` holds each complex as
its quotient by the rotation r (piece j -> j + 2, identity labels): the
partner, label map and voltage of each of 8 quotient slots, slot t = 8l + s
of the complex being quotient slot s = t & 7 at level l = t >> 3.  So r is
an automorphism of every complex.  The search serves connected sources
only (``SymmetryError`` otherwise), where every isomorphism is a power of r
after one seeded at piece 0 or 1 of the target: 48 seeds, not 48n.  A seed
is tried only if it keeps the wedge counts of the edge classes at piece
0's six edges, an isomorphism invariant (notes/decisions.md §3).

A map that carries r to r or to r^-1 is a relabelling of the 8-slot table.
``_relabellings`` makes the normalised ones once per rule; the lift, the
connectivity check and the key of ``classify`` read them
(notes/decisions.md §4-§5).  A seed the lift does not accept is walked
breadth-first (``_propagate``), which alone rejects seeds and alone finds
the maps that carry r to neither r nor r^-1.  No other restriction prunes
the seeds: the classical ones (axis preservation, the paper's eight
candidate seeds) come out of the search, and ``tests/paper_checks.py``
checks its output against them and against an independent isomorphism
check.

Two quotients with the same n are isometric iff their decompositions are
isomorphic, and the isometry group is the automorphism group.  Piece 0
with its labels is a base of length 1 for it (Seress, *Permutation Group
Algorithms*, ch. 4), so the group is kept as the maps found at pieces 0 and
1; its closure check, its generators and the relator words of ``groups``
read seeds alone, and the elements are built only when read.  ``classify``
runs no search: its key, the least normalised relabelling, sees only the
maps that carry r to r^+-1, so the pairwise search stays in the tests as
its oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .decomposition import _INVERSE, EDGE_IMAGE, PERM_INDEX, PERM_PRODUCT, PERMS, Decomposition

_FLIP = PERM_INDEX[(3, 2, 1, 0)]
_HALF_TURN = PERM_INDEX[(1, 0, 3, 2)]
# _PULLBACK[v](counts) reads per-edge counts at the images of the six edges
# under PERMS[v]
_PULLBACK = tuple(itemgetter(*image) for image in EDGE_IMAGE)


class SymmetryError(ValueError):
    pass


class ClosureFailure(SymmetryError):
    """The enumerated automorphisms generate a set other than themselves."""


@dataclass(frozen=True)
class CombIso:
    """A combinatorial isomorphism between two decompositions.

    ``pieces[j]`` is the image piece of j and ``lmaps[j]`` the index in
    PERMS of its label map, so ``vertex_maps[j][x]`` is the image label of
    x in piece j.  Source and target are (n, k) tags.
    """

    pieces: tuple[int, ...]
    lmaps: tuple[int, ...]
    source: tuple[int, int]
    target: tuple[int, int]

    @property
    def vertex_maps(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(PERMS[v] for v in self.lmaps)

    def inverse(self) -> "CombIso":
        m = len(self.pieces)
        pieces, lmaps = [0] * m, [0] * m
        for j, (p, v) in enumerate(zip(self.pieces, self.lmaps)):
            pieces[p], lmaps[p] = j, _INVERSE[v]
        return CombIso(tuple(pieces), tuple(lmaps), self.target, self.source)


def _propagate(a: Decomposition, b: Decomposition,
               seed_piece: int, seed_lmap: int) -> CombIso | None:
    """Extend a piece-0 seed over the pairing graph; None if inconsistent.

    Label maps are indices into PERMS.  Across slot s of a, glued by S, whose
    image slot t of b is glued by T, the map V of piece j forces T o V o S^-1
    on the neighbour; S^-1 is the label map across the partner slot of s.
    Piece 2l + q holds the slots 8l + 4q + face, which are quotient slot
    s = 4q + face at level l, so across s it goes on to piece 2l + step[s]
    (mod 2n), step[s] = 2*volt[s] + (nbr[s] >> 2).  Every slot of every
    reached piece is compared with the map forced across it, and a seed
    that does not reach all pieces is rejected, so a returned map commutes
    with every pairing.
    """
    a_step = [2 * v + (s2 >> 2) for s2, v in zip(a.slot_nbr, a.slot_volt)]
    a_back = [a.slot_lmap[s2] for s2 in a.slot_nbr]
    b_step = [2 * v + (t2 >> 2) for t2, v in zip(b.slot_nbr, b.slot_volt)]
    b_lmap, m = b.slot_lmap, a.num_pieces
    pieces = [-1] * m
    lmaps = [0] * m
    used = [False] * m
    pieces[0], lmaps[0] = seed_piece, seed_lmap
    used[seed_piece] = True
    queue = [0]
    for j in queue:  # appended to while it is walked: breadth first
        v, p = lmaps[j], pieces[j]
        vm, base, b_base = PERMS[v], 4 * (j & 1), 4 * (p & 1)
        for face in range(4):
            s, t = base + face, b_base + vm[face]
            j2, tp = ((j & -2) + a_step[s]) % m, ((p & -2) + b_step[t]) % m
            new = PERM_PRODUCT[24 * PERM_PRODUCT[24 * b_lmap[t] + v] + a_back[s]]
            if pieces[j2] < 0:
                if used[tp]:
                    return None
                pieces[j2], lmaps[j2] = tp, new
                used[tp] = True
                queue.append(j2)
            elif pieces[j2] != tp or lmaps[j2] != new:
                return None
    if len(queue) < m:
        return None
    return CombIso(tuple(pieces), tuple(lmaps), (a.n, a.k), (b.n, b.k))


class _Relabelling(NamedTuple):
    """Per new slot its (partner, label map) and its (old slot, d); s0; the
    new label map of each old quotient piece."""

    pairs: tuple[tuple[int, int], ...]
    sources: tuple[tuple[int, int], ...]
    s0: int
    labels: tuple[int, int]

    def voltages(self, volt: tuple[int, ...], n: int, e: int = 1) -> tuple[int, ...]:
        v0 = volt[self.s0]
        return tuple([e * (volt[s] - d * v0) % n for s, d in self.sources])


@functools.cache
def _relabellings(nbr: tuple[int, ...], lmap: tuple[int, ...]) -> tuple[_Relabelling | None, ...]:
    """The normalised relabellings of the rule (nbr, lmap) at 24*q0 + L0:
    piece q0 becomes piece 0 by L0, and the other piece's label map and
    level glue the first slot s0 of piece q0 glued to it by the identity at
    voltage 0 (None if there is none).  New slot t takes the voltage
    e*(volt[s] - d*volt[s0]) of old slot s (notes/decisions.md §4-§5)."""
    out = []
    for q0, l0 in itertools.product((0, 1), range(24)):
        s0 = next((s for s in (4 * q0 + f for f in PERMS[_INVERSE[l0]]) if (nbr[s] ^ s) & 4),
                  None)
        if s0 is None:
            out.append(None)
            continue
        labels = (l0, PERM_PRODUCT[24 * l0 + _INVERSE[lmap[s0]]])[::1 - 2 * q0]
        pairs, sources = [None] * 8, [None] * 8
        for s, s2 in enumerate(nbr):
            q, q2 = s >> 2, s2 >> 2
            t = 4 * (q ^ q0) + PERMS[labels[q]][s & 3]
            pairs[t] = (4 * (q2 ^ q0) + PERMS[labels[q2]][s2 & 3],
                        PERM_PRODUCT[24 * PERM_PRODUCT[24 * labels[q2] + lmap[s]]
                                     + _INVERSE[labels[q]]])
            sources[t] = (s, (q2 ^ q0) - (q ^ q0))
        out.append(_Relabelling(tuple(pairs), tuple(sources), s0, labels))
    return tuple(out)


def _connected(dec: Decomposition) -> bool:
    """Whether some slot of piece 0 reaches piece 1 and the voltages of the
    quotient's closed walks, relabelled at q0 = 0 and L0 = id, generate Z_n
    (Gross-Tucker, Topological Graph Theory, ch. 2)."""
    entry = _relabellings(dec.slot_nbr, dec.slot_lmap)[0]
    return entry is not None and math.gcd(dec.n, *entry.voltages(dec.slot_volt, dec.n)) == 1


def _lift(a: Decomposition, b: Decomposition, piece: int, lmap: int) -> CombIso | None:
    """The map a -> b seeded at (piece, lmap) that carries r to r^e, e = +-1;
    None if there is none.

    It sends piece 2i + q to F(q) + 2ei (mod 2n) by the label map L(q) of
    its parity q.  Its inverse relabels b's table into a's, so it exists iff
    b's relabelling at (piece, lmap^-1) has the pairs of a's at (0, id) and
    its voltages times e (notes/decisions.md §4).
    """
    mine = _relabellings(a.slot_nbr, a.slot_lmap)[0]
    yours = _relabellings(b.slot_nbr, b.slot_lmap)[24 * piece + _INVERSE[lmap]]
    if yours is None or yours.pairs != mine.pairs:
        return None
    n, m = a.n, a.num_pieces
    want = mine.voltages(a.slot_volt, n)
    e = next((e for e in (1, -1) if yours.voltages(b.slot_volt, n, e) == want), None)
    if e is None:
        return None
    image = (piece, (2 * (b.slot_volt[yours.s0] - e * a.slot_volt[mine.s0]) + 1 - piece) % m)
    labels = (lmap, PERM_PRODUCT[24 * _INVERSE[yours.labels[1 - piece]] + mine.labels[1]])
    pieces = tuple([(image[j & 1] + e * (j & -2)) % m for j in range(m)])
    return CombIso(pieces, labels * (m // 2), (a.n, a.k), (b.n, b.k))


def _seed_search(a: Decomposition, b: Decomposition) -> list[CombIso]:
    """The maps a -> b seeded at pieces 0 and 1 of b; [] for different n.

    Refuses with ``SymmetryError`` unless a is connected.  A seed is tried
    only if it keeps the wedge counts of the edge classes at piece 0's
    edges, which every isomorphism does.  It is tried as a lift, and walked
    if the lift fails.
    """
    if a.n != b.n:
        return []
    if not _connected(a):
        raise SymmetryError(f"({a.n}, {a.k}) is not connected")
    out = []
    have, want = b.wedge_counts, a.wedge_counts[:6]
    for seed_piece in (0, 1):
        counts = have[6 * seed_piece:6 * seed_piece + 6]
        for v, pullback in enumerate(_PULLBACK):
            if pullback(counts) != want:
                continue
            iso = _lift(a, b, seed_piece, v)
            if iso is None:
                iso = _propagate(a, b, seed_piece, v)
            if iso is not None:
                out.append(iso)
    return out


def _after_rotations(base: list[CombIso] | tuple[CombIso, ...]) -> list[CombIso]:
    """r^j o g for j = 0..n-1 and g in ``base``, j outermost."""
    m = len(base[0].pieces) if base else 0
    return [CombIso(tuple((p + 2 * j) % m for p in iso.pieces), iso.lmaps,
                    iso.source, iso.target) for j in range(m // 2) for iso in base]


def enumerate_isomorphisms(
    a: Decomposition, b: Decomposition, find_all: bool = True
) -> list[CombIso]:
    """All combinatorial isomorphisms a -> b, by image of piece 0, then label map.

    Different n never admit isomorphisms (the piece counts differ), so the
    search is skipped.  Otherwise a must be connected, or ``SymmetryError``
    is raised (r is an automorphism of every complex by construction); the
    seeds at pieces 0 and 1 are tried and the powers of r after the maps
    found give the rest.  With ``find_all=False`` the list holds at most one
    element, the first map in seed order, and no power of r is formed.
    """
    out = _seed_search(a, b)
    return _after_rotations(out) if find_all else out[:1]


# -- distinguished elements ---------------------------------------------------


def rotation_iso(dec: Decomposition) -> CombIso:
    """The 2*pi/n rotation about the axis: piece j -> j + 2."""
    m = dec.num_pieces
    pieces = tuple((j + 2) % m for j in range(m))
    return CombIso(pieces, (0,) * m, (dec.n, dec.k), (dec.n, dec.k))


def flip_iso(dec: Decomposition) -> CombIso:
    """The pi-rotation through the midpoint of the equator edge of piece 0.

    Swaps top and bottom (labels 0<->3, 1<->2) and reverses the wedge order.
    """
    m = dec.num_pieces
    pieces = tuple((-j) % m for j in range(m))
    return CombIso(pieces, (_FLIP,) * m, (dec.n, dec.k), (dec.n, dec.k))


def reflection_iso(dec: Decomposition) -> CombIso:
    """Reflection in the cutting plane between pieces 0 and 1.

    Carries the step-k decomposition onto the step-(n-k-1) one; it is an
    automorphism exactly when k = n-k-1.
    """
    m = dec.num_pieces
    pieces = tuple((1 - j) % m for j in range(m))
    return CombIso(pieces, (0,) * m, (dec.n, dec.k), (dec.n, (dec.n - dec.k - 1) % dec.n))


@dataclass(frozen=True)
class AutGroupData:
    """The automorphism group, encoded by the maps found at its seed pieces.

    ``base`` holds the automorphisms seeded at pieces 0 and 1; every element
    is some r^j o g with g in ``base``, r the rotation.  An automorphism is
    fixed by its seed, the image of piece 0 with its label map, so ``order``
    is the number of distinct seeds.  ``generators`` maps
    r, t, u and s to their automorphisms, or to None where absent.
    """

    base: tuple[CombIso, ...]
    order: int
    generators: dict

    @functools.cached_property
    def elements(self) -> tuple[CombIso, ...]:
        """Every element, sorted by (pieces, lmaps); built on first read."""
        return tuple(sorted(_after_rotations(self.base),
                            key=lambda e: (e.pieces, e.lmaps)))  # PERMS is lexicographic


def generated_subgroup(candidates):
    """Greedy generators from ``candidates`` and the seeds of what they generate.

    Candidates must be automorphisms, so that each is determined by its seed
    (the image of piece 0 and its label map; the identity's is (0, 0)).  A
    candidate not yet reached becomes a generator (each at least doubles the
    set, so at most log2|G| of them); BFS by left products adds the rest.
    The seed of g o x is g applied to x's seed, so a product costs O(1).
    """
    reached = {(0, 0)}
    gens: list[CombIso] = []
    for c in candidates:
        if (c.pieces[0], c.lmaps[0]) in reached:
            continue
        gens.append(c)
        frontier, multipliers = list(reached), [c]  # closed under gens[:-1]
        while frontier:
            new = []
            for g in multipliers:
                pieces, lmaps = g.pieces, g.lmaps
                for p, v in frontier:
                    y = pieces[p], PERM_PRODUCT[24 * lmaps[p] + v]
                    if y not in reached:
                        reached.add(y)
                        new.append(y)
            frontier, multipliers = new, gens
    return gens, reached


def automorphism_group(dec: Decomposition) -> AutGroupData:
    """The automorphism group from the seed search, checked to be closed.

    The group is kept as the maps found at its seed pieces; no other element
    is formed (``AutGroupData.elements`` builds them when read).  The seeds
    of the group are those of the base maps moved on by 2j pieces,
    j = 0..n-1.  Every call checks, through ``generated_subgroup`` at
    O(log|G|*|G|) cost, that r and the base maps generate exactly that seed
    set, and raises ``ClosureFailure`` otherwise.

    Identifies the distinguished generators by seed when present: ``r`` (the
    rotation), ``t`` (the top-bottom flip), ``u`` (the mirror through a
    cutting plane), ``s`` (the half-turn fixing piece 0 with labels
    (0 1)(2 3)).  The side cuts join all pieces and do not depend on k, so
    they fix each seed's map: the one seeded at piece 0 with labels
    (0 3)(1 2) is the flip, an automorphism of every complex, and the one
    seeded at piece 1 with identity labels is the mirror, an automorphism
    iff 2k + 1 = 0 mod n.  ``s`` is present iff 3 | n and
    n | 2(2k+1), which forces k % 3 == 1; this was observed on every cell
    with n <= 30, and it rules ``s`` out on most k % 3 == 1 cells, such as
    (9,1), (12,1) and (15,1).
    """
    base = _seed_search(dec, dec)
    r, m = rotation_iso(dec), dec.num_pieces
    by_seed = {(e.pieces[0], e.lmaps[0]): e for e in base}
    seeds = {(q, v) for p, v in by_seed for q in range(p, m, 2)}
    _, reached = generated_subgroup([r, *base])
    if reached != seeds:
        raise ClosureFailure(f"{len(reached)} generated, {len(seeds)} enumerated")
    gens = {"r": r, "t": by_seed.get((0, _FLIP)), "u": by_seed.get((1, 0)),
            "s": by_seed.get((0, _HALF_TURN))}
    return AutGroupData(base=tuple(base), order=len(seeds), generators=gens)


# -- classification -------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationResult:
    n: int
    classes: tuple[tuple[int, ...], ...]


@functools.cache
def _least_relabellings(nbr: tuple[int, ...], lmap: tuple[int, ...]) -> tuple:
    """The rule's least pairs and the relabellings that reach them."""
    entries = [x for x in _relabellings(nbr, lmap) if x is not None]
    least = min(x.pairs for x in entries)
    return least, tuple(x for x in entries if x.pairs == least)


def _canonical_table(dec: Decomposition) -> tuple:
    """The least (pairs, voltages) of the 96 normalised relabellings of the
    8-slot table, at (q0, L0) and e = +-1 (notes/decisions.md §5)."""
    least, entries = _least_relabellings(dec.slot_nbr, dec.slot_lmap)
    return least, min(x.voltages(dec.slot_volt, dec.n, e) for x in entries for e in (1, -1))


def classify(n: int) -> ClassificationResult:
    """Partition of the steps 0..n-1 into isometry classes by canonical
    table, in order of least member.  It sees only the isomorphisms that
    carry r to r^+-1 (notes/decisions.md §5)."""
    classes: dict[tuple, list[int]] = {}
    for k in range(n):
        classes.setdefault(_canonical_table(Decomposition(n, k)), []).append(k)
    return ClassificationResult(n=n, classes=tuple(tuple(c) for c in classes.values()))


def group_to_dict(aut: AutGroupData) -> dict:
    """Permutation realization of the group for JSON export."""
    return {
        "order": aut.order,
        "generators_found": sorted(
            name for name, iso in aut.generators.items() if iso is not None),
        "elements": [
            {"pieces": list(e.pieces),
             "vertex_maps": [list(v) for v in e.vertex_maps]}
            for e in aut.elements
        ],
    }
