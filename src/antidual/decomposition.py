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
onto the other, and the complex keeps them as two tables indexed by slot.

Internal edges fall into three families, each closed under the pairings:

* the axis edges {0,3} (one arc with 2n wedges);
* the polyhedron edges {0,1}, {1,2}, {2,3}, i.e. the original edges of the
  uncut polyhedron (one class of 6n wedges when n is not divisible by 3,
  otherwise three classes of 2n wedges);
* the quad diagonals {0,2} and {1,3} created by the cutting (n classes of
  4 wedges each; they contribute to the boundary genus).

Each class is found by one walk round its edge link, which also counts the
ends of the class; those ends are the vertices of the boundary surface.
"""

from __future__ import annotations

import itertools
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
    holds only its slot tables.
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
# the families in class order, each with the indices of its edges, and at
# each edge the mark -1 - (index of its family) that a wedge bears until the
# walk round its edge link reaches it
_KIND_ORDER = ("axis", "poly", "diagonal")
_EDGES_BY_KIND = tuple((kind, tuple(e for e in range(6) if _KIND_OF_EDGE[e] == kind))
                       for kind in _KIND_ORDER)
_UNWALKED = tuple(-1 - _KIND_ORDER.index(kind) for kind in _KIND_OF_EDGE)


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


class Decomposition:
    """The face-paired complex of 2n labelled tetrahedra for given (n, k)."""

    def __init__(self, n: int, k: int):
        if n < 4:
            raise InvalidStep(f"n must be >= 4, got {n}")
        if not 0 <= k <= n - 1:
            raise InvalidStep(f"k must lie in 0..{n - 1}, got {k}")
        self.n = n
        self.k = k
        self.num_pieces = 2 * n
        # the complex's only tables: slot_nbr[s] is the slot glued to slot
        # s = 4*piece + face and slot_lmap[s] the PERMS index of its label map
        self.slot_nbr = [-1] * (4 * self.num_pieces)
        self.slot_lmap = [0] * (4 * self.num_pieces)
        for sa, sb, i in self._gluings():
            if PERMS[i][sa & 3] != sb & 3:
                raise DecompositionError(
                    f"gluing {divmod(sa, 4)} -> {divmod(sb, 4)} by {PERMS[i]} "
                    f"does not carry face onto face")
            for s, s2, lmap in ((sa, sb, i), (sb, sa, _INVERSE[i])):
                if self.slot_nbr[s] >= 0:
                    raise NonManifold(f"slot {divmod(s, 4)} is paired twice")
                self.slot_nbr[s], self.slot_lmap[s] = s2, lmap
        if -1 in self.slot_nbr:
            raise NonManifold(f"slot {divmod(self.slot_nbr.index(-1), 4)} is unpaired")
        self._check_descent()
        self.class_summaries = self._compute_edge_classes()

    # -- construction -----------------------------------------------------

    def _gluings(self) -> list[tuple[int, int, int]]:
        """The step rule's 4n gluings (slot, partner slot, PERMS index),
        slot = 4*piece + face: for each even piece p the lower side gluing
        (p, 1)-(p+1, 1) and the upper one (p+1, 2)-(p+2, 2), then the quad
        gluings out of pieces p and p+1."""
        m, k = self.num_pieces, self.k
        return [g for p in range(0, m, 2) for g in (
            (4 * p + 1, 4 * p + 5, 0),
            (4 * p + 6, 4 * ((p + 2) % m) + 2, 0),
            (4 * p + 3, 4 * ((p + 2 * k + 2) % m), _QUAD),
            (4 * p + 7, 4 * ((p + 2 * k + 1) % m), _QUAD))]

    @property
    def pairings(self) -> tuple[FacePairing, ...]:
        """The gluings as ``FacePairing`` views, in the step rule's order."""
        return tuple(FacePairing(sa >> 2, sa & 3, sb >> 2, sb & 3,
                                 tuple(_LABEL_MAPS[4 * i + (sa & 3)].items()))
                     for sa, sb, i in self._gluings())

    def _check_descent(self):
        # the cut diagonal of an upper quad is the {0,2} edge of its two
        # opp-3 faces; the step rule must send it onto the {1,3} diagonal of
        # the receiving lower quad, otherwise the quad identification does
        # not descend to the cut triangles
        for s in range(3, len(self.slot_lmap), 4):
            image = _EDGES[EDGE_IMAGE[self.slot_lmap[s]][_EDGE_INDEX[(0, 2)]]]
            if image != (1, 3):
                raise DescentFailure(
                    f"slot {divmod(s, 4)} carries the upper diagonal to {list(image)}")

    # -- edge classes ------------------------------------------------------

    def _compute_edge_classes(self) -> tuple[ClassSummary, ...]:
        # one walk round each edge link over wedges x = 6*piece + index of
        # the edge in _EDGES: leave through the face of the edge not entered
        # by and cross that slot's gluing, until the walk is back at its
        # start.  Walks start in (kind, piece, edge) order, so each starts at
        # its class's first wedge and the classes come out in (kind, first
        # wedge) order.  A class whose walk closes with its ends swapped (odd
        # parity) has both ends on one boundary vertex, any other has two
        nbr, lmap, step = self.slot_nbr, self.slot_lmap, _LINK_STEP
        m = self.num_pieces
        # _wedge_class[x] is the index of the class of wedge x, or its
        # _UNWALKED mark, by which list.index finds each family's next start
        wedge_class = self._wedge_class = list(_UNWALKED) * m
        piece_mark = [-1] * m
        summaries = []
        # two classes with the same first role, piece count and role counts
        # have equal summaries if they have at most two roles, since the
        # first role comes first; a third role's place needs _summarize
        shared: dict[tuple[int, ...], ClassSummary] = {}
        vertices = 0
        for family, (kind, edges) in enumerate(_EDGES_BY_KIND):
            left, start = len(edges) * m, 0
            while left:
                start = wedge_class.index(-1 - family, start)
                idx = len(summaries)
                count = [0] * 6
                pieces = parity = 0
                p, e = divmod(start, 6)
                s, x = 4 * p + _FIRST_FACE[e], start
                while True:
                    wedge_class[x] = idx
                    count[e] += 1
                    if piece_mark[p] != idx:
                        piece_mark[p] = idx
                        pieces += 1
                    e, f, bit = step[24 * lmap[s] + 6 * (s & 3) + e]
                    p = nbr[s] >> 2
                    s, x = 4 * p + f, 6 * p + e
                    parity ^= bit
                    if x == start:
                        break
                vertices += 2 - parity
                key = (start % 6, pieces, *count)
                summary = shared.get(key)
                if summary is None:
                    summary = self._summarize(idx, kind, edges, count, pieces)
                    if len(summary.roles) < 3:
                        shared[key] = summary
                summaries.append(summary)
                left -= summary.wedge_count
        self._boundary_vertex_count = vertices
        return tuple(summaries)

    def _summarize(self, idx, kind, edges, count, pieces) -> ClassSummary:
        # roles in the order of their first wedges: by the piece of each
        # role's first wedge, and the stable sort keeps edge order within it
        wedge_class = self._wedge_class
        roles = [e for e in edges if count[e]]
        roles.sort(key=lambda e: wedge_class[e::6].index(idx))
        wedge_count = sum(count)
        if wedge_count != sum(count[e] for e in roles):
            members = [x for x, c in enumerate(wedge_class) if c == idx]
            kinds = {_KIND_OF_EDGE[x % 6] for x in members}
            raise DecompositionError(
                f"edge class mixes families {kinds}: "
                f"{[(x // 6, _EDGES[x % 6]) for x in members[:4]]}..."
            )
        return ClassSummary(kind, wedge_count, pieces,
                            tuple((_ROLES[e], count[e]) for e in roles))

    @cached_property
    def edge_classes(self) -> tuple[EdgeClass, ...]:
        """The classes with their wedge lists, in ``class_summaries`` order;
        built on first read from the class of each wedge."""
        members = [[] for _ in self.class_summaries]
        for x, c in enumerate(self._wedge_class):
            members[c].append((x // 6, _EDGES[x % 6]))
        return tuple(EdgeClass(wedges=tuple(w), kind=s.kind)
                     for w, s in zip(members, self.class_summaries))

    def class_of(self, piece: int, edge: tuple[int, int]) -> int:
        """Index of the edge class containing the given wedge slot."""
        if not 0 <= piece < self.num_pieces:
            raise KeyError((piece, edge))
        return self._wedge_class[6 * piece + _EDGE_INDEX[tuple(sorted(edge))]]


def build_decomposition(n: int, k: int) -> Decomposition:
    return Decomposition(n, k)


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
    """Euler characteristic, genus, orientability of the quotient boundary.

    The boundary is assembled from the 8n truncation triangles; each
    internal pairing glues the triangle edges lying on the identified faces.
    Its vertices are the ends of the internal edge classes, so their count
    comes from the edge-link walks of ``dec``: two per class, one where the
    walk closes a class up with its ends swapped.
    """
    nbr, lmap = dec.slot_nbr, dec.slot_lmap
    # the boundary edge gluing is a fixed-point-free involution exactly when
    # each slot is glued to another that is glued back by the inverse map
    for s, s2 in enumerate(nbr):
        if s2 == s or nbr[s2] != s or lmap[s2] != _INVERSE[lmap[s]]:
            raise NonManifold(f"boundary edges on slot {divmod(s, 4)} glued inconsistently")

    tris = 4 * dec.num_pieces
    edge_count = 3 * tris // 2
    euler = dec._boundary_vertex_count - edge_count + tris

    # orientability by 2-colouring the triangles t = 4*piece + v across
    # their glued sides; the side facing face w lies on slot 4*piece + w
    orientation = [0] * tris
    is_orientable = True
    components = 0
    for start in range(tris):
        if orientation[start]:
            continue
        components += 1
        orientation[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            v = t & 3
            piece_slot = t - v
            sign = orientation[t]
            for w in _OTHER_FACES[v]:
                s = piece_slot + w
                v2, twist = _TRIANGLE_GLUE[4 * lmap[s] + v]
                t2 = (nbr[s] & ~3) + v2
                needed = sign * twist
                seen = orientation[t2]
                if not seen:
                    orientation[t2] = needed
                    stack.append(t2)
                elif seen != needed:
                    is_orientable = False

    is_connected = components == 1
    genus = (2 - euler) // 2 if is_orientable and is_connected else -1
    return BoundarySurface(
        vertex_count=dec._boundary_vertex_count,
        edge_count=edge_count,
        face_count=tris,
        euler_characteristic=euler,
        genus=genus,
        is_orientable=is_orientable,
        is_connected=is_connected,
    )


# -- serialization -----------------------------------------------------------


def decomposition_to_dict(dec: Decomposition) -> dict:
    """Documented JSON form: pieces, pairings with vertex maps, edge classes."""
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
