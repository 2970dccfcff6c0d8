"""The labelled tetrahedral decomposition of the step-k quotient.

The antiprism dual with 2n quad faces is cut along the n planes through its
axis into 2n tetrahedral wedges, numbered so that the wedge containing the
i-th upper-to-lower equator edge is 2i and the next one (containing the
lower-to-upper edge) is 2i+1.  Within a piece the vertex labels are

    0 = top apex, 1 = upper middle, 2 = lower middle, 3 = bottom apex,

and faces are addressed by their opposite vertex.  The step-k rule matches
the upper quad through pieces (2i, 2i+1) with the lower quad through pieces
(2(i+k)+1, 2(i+k)+2); together with the side cuts this yields 4n internal
triangle gluings, each a permutation of the four labels carrying one face
onto the other.

The rotation r (piece p -> p + 2) respects every gluing, so the complex is
the n-fold cyclic cover of a quotient with 2 pieces and 8 slots.
``_STEP_RULE`` states the rule once, as the quotient's four gluings, each
with a voltage a*k + b in Z_n: how many steps of r it moves.
``Decomposition`` holds the complex as that quotient at k, one partner,
label map and voltage per slot, and the isomorphism search indexes the
lift.  It reads the edge classes, the census and the boundary off the
quotient by lifting its walks, which are made once per rule
(notes/decisions.md §3), at k on first read; the search's prefilter reads
only the class sizes of that lift.  Only the ``--full`` listing and the
tests' oracles read the complex's 4n gluings, lifted from the rule on
request.

Internal edges fall into three families, each closed under the pairings:

* the axis edges {0,3} (one arc with 2n wedges);
* the polyhedron edges {0,1}, {1,2}, {2,3}, i.e. the original edges of the
  uncut polyhedron (one class of 6n wedges when n is not divisible by 3,
  otherwise three classes of 2n wedges);
* the quad diagonals {0,2} and {1,3} created by the cutting (n classes of
  4 wedges each; they contribute to the boundary genus).

In the quotient each family is one cycle round its edge link, of length 2,
6 and 4 with voltage 1, -3 and 0; a cycle of voltage v lifts to gcd(n, v)
classes.  The ends of the classes are the vertices of the boundary surface.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple


class DecompositionError(ValueError):
    pass


class InvalidStep(DecompositionError):
    """n or k outside the valid range."""


class DescentFailure(DecompositionError):
    """A quad pairing failed to carry cut diagonals to cut diagonals."""


class NonManifold(DecompositionError):
    """An external edge of the boundary complex is not shared by 2 faces."""


@dataclass(frozen=True)
class FacePairing:
    """A view of one gluing of two internal triangle slots.

    ``vertex_map`` sends the three labels of face (piece_a, face_a) to the
    labels of face (piece_b, face_b).  ``Decomposition.pairings`` builds
    these on request from the step rule's gluing list; the complex itself
    holds only its 8 quotient slots.
    """

    piece_a: int
    face_a: int
    piece_b: int
    face_b: int
    vertex_map: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EdgeClass:
    """An orbit of (piece, edge) wedge slots under the pairing action."""

    wedges: tuple[tuple[int, tuple[int, int]], ...]
    kind: str

    @property
    def wedge_count(self) -> int:
        return len(self.wedges)

    @property
    def distinct_piece_count(self) -> int:
        return len({p for p, _ in self.wedges})


class ClassSummary(NamedTuple):
    """What the reports and the search read of an edge class; ``roles`` are
    the wedge counts per edge role, roles in the order of their first wedges."""

    kind: str
    wedge_count: int
    distinct_pieces: int
    roles: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class BoundarySurface:
    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int
    genus: int
    is_orientable: bool
    is_connected: bool


_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_EDGE_INDEX = {e: i for i, e in enumerate(_EDGES)}
# the role and the family of each edge of _EDGES: slants and equator are
# polyhedron edges
_ROLES = ("slant_upper", "diag_upper", "axis", "equator", "diag_lower", "slant_lower")
_KIND_OF_EDGE = ("poly", "diagonal", "axis", "poly", "diagonal", "poly")
# the families in class order, each with the indices of its edges
_EDGES_BY_KIND = tuple((kind, tuple(e for e in range(6) if _KIND_OF_EDGE[e] == kind))
                       for kind in ("axis", "poly", "diagonal"))


# the 24 label permutations (perm[x] is the image of x) in lexicographic
# order, the index of each, and at 24*a + b the index of a o b (b first)
PERMS = tuple(itertools.permutations(range(4)))
PERM_INDEX = {perm: i for i, perm in enumerate(PERMS)}
PERM_PRODUCT = tuple(PERM_INDEX[tuple(a[x] for x in b)] for a in PERMS for b in PERMS)
_INVERSE = tuple(PERM_PRODUCT[24 * i:24 * i + 24].index(0) for i in range(24))
# EDGE_IMAGE[i][e] is the index in _EDGES of the image of edge e under PERMS[i],
# and _EDGE_FLIP[i][e] is 1 when PERMS[i] reverses the sorted order of its ends
EDGE_IMAGE = tuple(tuple(_EDGE_INDEX[tuple(sorted((p[a], p[b])))] for a, b in _EDGES)
                   for p in PERMS)
_EDGE_FLIP = tuple(tuple(int(p[a] > p[b]) for a, b in _EDGES) for p in PERMS)
# a walk round an edge link leaves its first wedge through the face of the
# edge's lower other label; leaving along edge e through face f glued by
# PERMS[i], it goes on, at 24*i + 6*f + e, along the image edge through its
# other face, with _EDGE_FLIP[i][e] (None where f does not hold e)
_FIRST_FACE = tuple(min({0, 1, 2, 3} - set(e)) for e in _EDGES)
_LINK_STEP = tuple((EDGE_IMAGE[i][e], 6 - p[f] - sum(_EDGES[EDGE_IMAGE[i][e]]),
                    _EDGE_FLIP[i][e]) if f not in _EDGES[e] else None
                   for i, p in enumerate(PERMS) for f in range(4) for e in range(6))
# the label map across a slot of face f glued by PERMS[i], at 4*i + f
_LABEL_MAPS = tuple(MappingProxyType({x: p[x] for x in range(4) if x != f})
                    for p in PERMS for f in range(4))


def _twist(p: tuple[int, ...], v: int) -> int:
    # each truncation triangle is oriented by the sorted cyclic order of its
    # corner tags and a glued side must be run in opposite directions, so
    # the orientations agree across every side glued by p unless p keeps
    # that order
    image = [p[x] for x in range(4) if x != v]
    ring = sorted(image)
    return -1 if image in (ring, ring[1:] + ring[:1], ring[2:] + ring[:2]) else 1


# across a slot glued by PERMS[i], at 4*i + v: the label of the truncation
# triangle the one at v is glued to, and the twist of that gluing
_TRIANGLE_GLUE = tuple((p[v], _twist(p, v)) for p in PERMS for v in range(4))
# the faces whose slots hold the three sides of the truncation triangle at v
_OTHER_FACES = tuple(tuple(w for w in range(4) if w != v) for v in range(4))

# the quad gluing: face opp 3 onto face opp 0 by 0->1, 1->2, 2->3; the side
# gluings are the identity on the shared face
_QUAD = PERM_INDEX[(1, 2, 3, 0)]

# The step rule, stated once as the four gluings of the complex's quotient by
# r (piece p -> p + 2).  The quotient's pieces 0 and 1 stand for the even and
# the odd pieces, and its slot 4*q + face lifts at each level l mod n to the
# slot 8*l + 4*q + face of piece 2l + q.  A row (slot, partner, PERMS index,
# a, b) glues the lift at level l of its slot to the lift at level
# l + a*k + b of its partner: the voltage a*k + b counts the steps of r the
# gluing moves.
_STEP_RULE = (
    (1, 5, 0, 0, 0),      # the lower side cut (2l, 1) - (2l+1, 1)
    (6, 2, 0, 0, 1),      # the upper side cut (2l+1, 2) - (2l+2, 2)
    (3, 0, _QUAD, 1, 1),  # the upper quad of piece 2l onto piece 2(l+k+1)
    (7, 4, _QUAD, 1, 0),  # and that of piece 2l+1 onto piece 2(l+k)+1
)


def _pair_slots(gluings, slot_count: int) -> tuple[list[int], list[int]]:
    """The slot tables of the gluings (slot, partner slot, PERMS index):
    the slot each slot is glued to and the PERMS index of its label map, each
    gluing entered from both of its slots."""
    nbr, lmap = [-1] * slot_count, [0] * slot_count
    for sa, sb, i in gluings:
        if PERMS[i][sa & 3] != sb & 3:
            raise DecompositionError(
                f"gluing {divmod(sa, 4)} -> {divmod(sb, 4)} by {PERMS[i]} "
                f"does not carry face onto face")
        for s, s2, m in ((sa, sb, i), (sb, sa, _INVERSE[i])):
            if nbr[s] >= 0:
                raise NonManifold(f"slot {divmod(s, 4)} is paired twice")
            nbr[s], lmap[s] = s2, m
    if -1 in nbr:
        raise NonManifold(f"slot {divmod(nbr.index(-1), 4)} is unpaired")
    # the cut diagonal of an upper quad is the {0,2} edge of its two opp-3
    # faces; the step rule must send it onto the {1,3} diagonal of the
    # receiving lower quad, otherwise the quad identification does not
    # descend to the cut triangles
    for s in range(3, slot_count, 4):
        image = _EDGES[EDGE_IMAGE[lmap[s]][_EDGE_INDEX[(0, 2)]]]
        if image != (1, 3):
            raise DescentFailure(
                f"slot {divmod(s, 4)} carries the upper diagonal to {list(image)}")
    return nbr, lmap


class Decomposition:
    """The face-paired complex of 2n labelled tetrahedra for given (n, k),
    held as its quotient by r.

    Its only tables have one entry per quotient slot s < 8: ``slot_nbr[s]``
    is the partner quotient slot, ``slot_lmap[s]`` the PERMS index of the
    label map and ``slot_volt[s]`` the voltage a*k + b mod n.  Slot 8l + s
    of the complex is glued to slot 8((l + slot_volt[s]) mod n) +
    slot_nbr[s] by that label map.

    The edge classes are the lift of the rule's walk at k, made on first
    read without lifting the gluings.  A walk cycle of length L and voltage
    v lifts to g = gcd(n, v) classes of L*n/g wedges (Gross-Tucker,
    Topological Graph Theory, ch. 2), each closing with its ends swapped
    when the cycle's parity is odd and n/g is.  The search reads only
    ``wedge_counts``; the census also places the classes (``_stretches``),
    in (family, first wedge) order, each wedge being 6*piece + index of its
    edge in _EDGES.  ``boundary_vertex_count`` counts the classes' ends: two
    per class, one where it closes with its ends swapped.
    """

    def __init__(self, n: int, k: int):
        if n < 4:
            raise InvalidStep(f"n must be >= 4, got {n}")
        if not 0 <= k <= n - 1:
            raise InvalidStep(f"k must lie in 0..{n - 1}, got {k}")
        self.n = n
        self.k = k
        self.num_pieces = 2 * n
        # the rule's walk, cached, refuses a broken rule
        self._walk = _walk_rule(_STEP_RULE)
        self.slot_nbr, self.slot_lmap = self._walk.nbr, self._walk.lmap
        self.slot_volt = tuple((a * k + b) % n for a, b in self._walk.volt)

    # -- the lift of the walk at k ---------------------------------------

    @cached_property
    def _lifts(self) -> list[tuple[int, int]]:
        """Per walk cycle, in ``_QuotientWalk.cycles`` order, the number g
        of classes it lifts to and the rounds n/g each makes of it."""
        n, k = self.n, self.k
        out = []
        for cycle in self._walk.cycles:
            a, b = cycle.voltage
            g = math.gcd(n, a * k + b)
            out.append((g, n // g))
        return out

    @cached_property
    def wedge_counts(self) -> tuple[int, ...]:
        """Per quotient wedge 6*q + index of its edge in _EDGES, the wedge
        count of its edge class."""
        sizes = [len(cycle.wedges) * rounds
                 for cycle, (_, rounds) in zip(self._walk.cycles, self._lifts)]
        return tuple([sizes[c] for c in self._walk.cycle_of])

    @cached_property
    def _census(self) -> tuple[list, list, tuple[ClassSummary, ...], int]:
        """Per cycle its g, levels mod g and stretches; per family the index
        of its first class and the stretches of all its cycles; the
        summaries; the boundary vertex count."""
        k = self.k
        placed, by_family, summaries, vertices = [], [], [], 0
        for cycles in self._walk.families:
            runs = []
            for cycle in cycles:
                g, rounds = self._lifts[len(placed)]
                vertices += g * (2 - (rounds * cycle.parity & 1))
                d = [(x * k + y) % g for x, y in cycle.levels]
                stretches = _stretches(cycle, d, g, rounds)
                placed.append((g, d, stretches))
                runs += stretches
            by_family.append((len(summaries), runs))
            # the family's classes in the order of their first wedges, which
            # are distinct, so the sort never compares two summaries
            summaries += [summary for _, summary in sorted(itertools.chain.from_iterable(
                zip(range(12 * lo + m, 12 * hi + m, 12), itertools.repeat(summary))
                for lo, hi, m, summary in runs))]
        return placed, by_family, tuple(summaries), vertices

    @property
    def class_summaries(self) -> tuple[ClassSummary, ...]:
        return self._census[2]

    @property
    def boundary_vertex_count(self) -> int:
        return self._census[3]

    def class_of(self, piece: int, edge: tuple[int, int]) -> int:
        """Index of the edge class containing the given wedge slot."""
        if not 0 <= piece < self.num_pieces:
            raise KeyError((piece, edge))
        level, q = divmod(piece, 2)
        family, c, i = self._walk.place[6 * q + _EDGE_INDEX[tuple(sorted(edge))]]
        placed, by_family, _, _ = self._census
        g, d, stretches = placed[c]
        r = (level - d[i]) % g
        for _, hi, m, _ in stretches:
            if r < hi:
                break
        first = 12 * r + m
        # count the family's classes whose first wedges come before this one's
        index, runs = by_family[family]
        for lo, hi, m, _ in runs:
            if 12 * lo + m < first:
                index += min(hi - lo, (first - 12 * lo - m + 11) // 12)
        return index

    @cached_property
    def edge_classes(self) -> tuple[EdgeClass, ...]:
        """The classes with their wedge lists, in ``class_summaries`` order;
        built on first read from ``class_of`` on every wedge."""
        members = [[] for _ in self.class_summaries]
        for piece in range(self.num_pieces):
            for edge in _EDGES:
                members[self.class_of(piece, edge)].append((piece, edge))
        return tuple(EdgeClass(wedges=tuple(w), kind=s.kind)
                     for w, s in zip(members, self.class_summaries))

    # -- the lifted gluing list, for export and the tests -----------------

    def _gluings(self) -> list[tuple[int, int, int]]:
        """The 4n gluings (slot, partner slot, PERMS index), slot =
        4*piece + face: ``_STEP_RULE`` lifted to each level l in turn."""
        n, k = self.n, self.k
        return [(8 * l + s, 8 * ((l + a * k + b) % n) + t, i)
                for l in range(n) for s, t, i, a, b in _STEP_RULE]

    @property
    def pairings(self) -> tuple[FacePairing, ...]:
        """The gluings as ``FacePairing`` views, in the step rule's order."""
        return tuple(FacePairing(sa >> 2, sa & 3, sb >> 2, sb & 3,
                                 tuple(_LABEL_MAPS[4 * i + (sa & 3)].items()))
                     for sa, sb, i in self._gluings())


def build_decomposition(n: int, k: int) -> Decomposition:
    return Decomposition(n, k)


# -- the quotient by r -------------------------------------------------------


class _EdgeCycle(NamedTuple):
    """One cycle of the quotient's edge-link walk: its wedges 6*q + edge in
    walk order, the level (a, b), for a*k + b, at which the walk reaches each,
    the voltage and parity with which it closes, and its wedges per edge."""

    kind: str
    wedges: tuple[int, ...]
    levels: tuple[tuple[int, int], ...]
    voltage: tuple[int, int]
    parity: int
    counts: tuple[int, ...]


class _QuotientWalk:
    """The walks of a quotient table, which hold for every (n, k).

    ``families`` holds the cycles of the 12 quotient wedges round their edge
    links, by family; ``boundary`` the fundamental cycles of each component
    of the 8 quotient truncation triangles, each as (a, b, sign): voltage
    a*k + b and the product of the twists along it.  The slot tables
    ``nbr``, ``lmap`` and ``volt`` give each of the 8 slots its partner,
    label map and voltage (a, b).
    """

    def __init__(self, nbr, lmap, volt):
        self.nbr, self.lmap, self.volt = tuple(nbr), tuple(lmap), tuple(volt)
        # the boundary edge gluing is a fixed-point-free involution exactly
        # when each slot is glued to another that is glued back by the
        # inverse map and the opposite voltage
        for s, s2 in enumerate(nbr):
            if (s2 == s or nbr[s2] != s or lmap[s2] != _INVERSE[lmap[s]]
                    or volt[s2] != (-volt[s][0], -volt[s][1])):
                raise NonManifold(f"boundary edges on slot {divmod(s, 4)} glued inconsistently")
        self.families = _edge_cycles(nbr, lmap, volt)
        # the cycles of all families in turn, and each wedge's family, cycle
        # (an index into them) and place in its cycle
        cycles = [(f, cycle) for f, family in enumerate(self.families) for cycle in family]
        self.cycles = tuple(cycle for _, cycle in cycles)
        self.place = {w: (f, c, i) for c, (f, cycle) in enumerate(cycles)
                      for i, w in enumerate(cycle.wedges)}
        self.cycle_of = tuple(self.place[w][1] for w in range(12))
        self.boundary = _boundary_cycles(nbr, lmap, volt)


def _edge_cycles(nbr, lmap, volt) -> list[list[_EdgeCycle]]:
    # one walk round the edge link (_LINK_STEP) of each quotient wedge not
    # yet walked, by family, adding up the voltages of the slots it crosses
    families, walked = [], set()
    for kind, edges in _EDGES_BY_KIND:
        cycles = []
        for start in [6 * q + e for q in (0, 1) for e in edges]:
            if start in walked:
                continue
            wedges, levels, counts = [], [], [0] * 6
            a = b = parity = 0
            q, e = divmod(start, 6)
            s, w = 4 * q + _FIRST_FACE[e], start
            while True:
                wedges.append(w)
                levels.append((a, b))
                counts[e] += 1
                e, f, bit = _LINK_STEP[24 * lmap[s] + 6 * (s & 3) + e]
                a, b = a + volt[s][0], b + volt[s][1]
                q = nbr[s] >> 2
                s, w = 4 * q + f, 6 * q + e
                parity ^= bit
                if w == start:
                    break
            kinds = {_KIND_OF_EDGE[x % 6] for x in wedges}
            if len(kinds) > 1:
                raise DecompositionError(
                    f"edge class mixes families {kinds}: "
                    f"{[(x // 6, _EDGES[x % 6]) for x in sorted(wedges)[:4]]}..."
                )
            walked.update(wedges)
            cycles.append(_EdgeCycle(kind, tuple(wedges), tuple(levels), (a, b), parity,
                                     tuple(counts)))
        families.append(cycles)
    return families


def _boundary_cycles(nbr, lmap, volt) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    # a spanning tree of each component of the triangles t = 4*q + v, joined
    # across their glued sides (the side facing face w lies on slot
    # 4*q + w), gives each triangle the voltage and sign of its tree path;
    # every side that disagrees with them closes a fundamental cycle
    place: list[tuple[int, int, int] | None] = [None] * 8
    components = []
    for root in range(8):
        if place[root] is not None:
            continue
        place[root] = (0, 0, 1)
        stack, cycles = [root], set()
        while stack:
            t = stack.pop()
            v = t & 3
            a, b, sign = place[t]
            for w in _OTHER_FACES[v]:
                s = t - v + w
                v2, twist = _TRIANGLE_GLUE[4 * lmap[s] + v]
                t2 = (nbr[s] & ~3) + v2
                here = (a + volt[s][0], b + volt[s][1], sign * twist)
                there = place[t2]
                if there is None:
                    place[t2] = here
                    stack.append(t2)
                elif here != there:
                    cycles.add((here[0] - there[0], here[1] - there[1], here[2] * there[2]))
        components.append(tuple(sorted(cycles)))
    return tuple(components)


def _quotient_tables(rule) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The quotient's slot tables from the rows of a rule: partner slot,
    label map and voltage (a, b) of each of its 8 slots."""
    nbr, lmap = _pair_slots((row[:3] for row in rule), 8)
    volt = [(0, 0)] * 8
    for sa, sb, _, a, b in rule:
        volt[sa], volt[sb] = (a, b), (-a, -b)
    return nbr, lmap, volt


@functools.lru_cache(maxsize=None)
def _walk_rule(rule) -> _QuotientWalk:
    return _QuotientWalk(*_quotient_tables(rule))


def _stretches(cycle: _EdgeCycle, d: list[int], g: int, rounds: int):
    """(lo, hi, m, summary) for the classes r in lo..hi-1 of the lift of
    ``cycle`` whose wedge i lies at the levels d[i] + r (mod g).

    Class r first holds each wedge (x, w) of the cycle, x = d[i], at level
    x + r, or x + r - g once r >= g - x.  In (x, w) order the wedges wrap
    from the last, so within a stretch where none wraps anew they come, in
    the order of their first wedges 12*level + w = 6*piece + edge, as one
    rotation of that order: each class there has its first wedge at
    12*r + m and the same roles in the same order, by piece and then edge.
    """
    placed = sorted(zip(d, cycle.wedges))
    size = len(placed)
    pieces = rounds * len({(x, w // 6) for x, w in placed})
    out, lo, wrapped = [], 0, 0
    while True:
        # the last ``wrapped`` of placed have wrapped; placed[0] has x = 0,
        # as the cycle's first wedge has, and never wraps
        x = placed[size - 1 - wrapped][0]
        hi = g - x if x else g
        rotated = placed[size - wrapped:] + placed[:size - wrapped]
        roles = dict.fromkeys([w % 6 for _, w in rotated])
        summary = ClassSummary(cycle.kind, rounds * size, pieces,
                               tuple([(_ROLES[e], rounds * cycle.counts[e]) for e in roles]))
        first_x, first_w = rotated[0]
        out.append((lo, hi, 12 * (first_x - g if wrapped else first_x) + first_w, summary))
        if hi == g:
            return out
        lo = hi
        while placed[size - 1 - wrapped][0] == x:
            wrapped += 1


# a (piece, edge) wedge of each arc e0..e3: the axis edge of piece 0, then
# the slant edges of pieces 0, 2, 4
_ARC_WEDGES = ((0, (0, 3)), (0, (0, 1)), (2, (0, 1)), (4, (0, 1)))


def arcs(dec: Decomposition) -> dict[str, int]:
    """Arc labels to edge-class indices.

    For n divisible by 3 the polyhedron edges split into the three arcs
    e1, e2, e3 containing the slant edges of pieces 0, 2, 4; otherwise they
    merge into a single arc.  e0 is always the axis arc.
    """
    labels = ("e0", "e1", "e2", "e3") if dec.n % 3 == 0 else ("e0", "single")
    return {label: dec.class_of(*wedge) for label, wedge in zip(labels, _ARC_WEDGES)}


# -- boundary surface -------------------------------------------------------


def boundary_surface(dec: Decomposition) -> BoundarySurface:
    """Euler characteristic, genus, orientability of the boundary surface.

    The boundary is assembled from the 8n truncation triangles; each
    internal pairing glues the triangle sides lying on the identified faces,
    and its vertices are the ends of the edge classes.  The triangles and
    their glued sides are the n-fold cover of the quotient's 8, so a
    component of those whose fundamental cycles have voltages v_j lifts to
    g = gcd(n, v_j, ...) components.  They are orientable exactly when the
    cycles' twist signs are a character of the subgroup the v_j generate:
    all +1, or (-1)^(v_j/g) when n/g is even.
    """
    n, k = dec.n, dec.k
    tris = 4 * dec.num_pieces
    edge_count = 3 * tris // 2
    euler = dec.boundary_vertex_count - edge_count + tris
    components, is_orientable = 0, True
    for cycles in dec._walk.boundary:
        voltages = [(a * k + b) % n for a, b, _ in cycles]
        g = math.gcd(n, *voltages)
        components += g
        signs = [sign for _, _, sign in cycles]
        is_orientable &= all(sign == 1 for sign in signs) or (
            n // g % 2 == 0
            and all(sign == (-1) ** (v // g) for v, sign in zip(voltages, signs)))
    is_connected = components == 1
    genus = (2 - euler) // 2 if is_orientable and is_connected else -1
    return BoundarySurface(
        vertex_count=dec.boundary_vertex_count,
        edge_count=edge_count,
        face_count=tris,
        euler_characteristic=euler,
        genus=genus,
        is_orientable=is_orientable,
        is_connected=is_connected,
    )


# -- serialization -----------------------------------------------------------


def decomposition_to_dict(dec: Decomposition) -> dict:
    """Documented JSON form: pieces, pairings with vertex maps, edge classes
    and arcs."""
    return {
        "n": dec.n,
        "k": dec.k,
        "pieces": dec.num_pieces,
        "pairings": [
            {
                "a": [fp.piece_a, fp.face_a],
                "b": [fp.piece_b, fp.face_b],
                "map": [list(pair) for pair in fp.vertex_map],
            }
            for fp in dec.pairings
        ],
        "edge_classes": [
            {
                "kind": cls.kind,
                "wedge_count": cls.wedge_count,
                "distinct_pieces": cls.distinct_piece_count,
                "wedges": [[p, list(e)] for p, e in cls.wedges],
            }
            for cls in dec.edge_classes
        ],
        "arcs": arcs(dec),
    }
