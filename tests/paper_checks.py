"""Checks the tests run on the package's output, kept out of the package.

The independent isomorphism check reads a slot table built from the gluing
list (``Decomposition.pairings``) alone, never the slot tables the search
walks.  The paper's proof device, the eight candidate seeds phi0..phi7 of
maps fixing or swapping pieces 0 and 1, is extended here over the step-k'
complexes with the search's own walk; the classical analysis says every
isometry is one of them composed with the dihedral subgroup, which the
search finds rather than assumes.
"""

from collections import Counter

from antidual.decomposition import (
    _ARC_WEDGES, _EDGES, _ROLES, PERM_INDEX, PERM_PRODUCT, Decomposition, arcs,
)
from antidual.symmetry import CombIso, _propagate


def slot_table(dec):
    """(piece, face) -> (partner piece, partner face, label map), from the
    gluing list alone."""
    table = {}
    for fp in dec.pairings:
        fwd = dict(fp.vertex_map)
        table[fp.piece_a, fp.face_a] = (fp.piece_b, fp.face_b, fwd)
        table[fp.piece_b, fp.face_b] = (fp.piece_a, fp.face_a, {y: x for x, y in fwd.items()})
    return table


def is_isomorphism(iso, a, b):
    """Whether ``iso`` is a bijection of pieces commuting with every pairing."""
    if a.num_pieces != b.num_pieces or sorted(iso.pieces) != list(range(a.num_pieces)):
        return False
    target = slot_table(b)
    pieces, vmaps = iso.pieces, iso.vertex_maps
    for fp in a.pairings:
        vm_a, vm_b = vmaps[fp.piece_a], vmaps[fp.piece_b]
        tp, tface, tmap = target[pieces[fp.piece_a], vm_a[fp.face_a]]
        if (tp, tface) != (pieces[fp.piece_b], vm_b[fp.face_b]):
            return False
        if any(tmap[vm_a[x]] != vm_b[y] for x, y in fp.vertex_map):
            return False
    return True


def compose(x, y):
    """x after y (y applied first), as full maps."""
    return CombIso(tuple(x.pieces[p] for p in y.pieces),
                   tuple(PERM_PRODUCT[24 * x.lmaps[p] + v] for p, v in zip(y.pieces, y.lmaps)),
                   y.source, x.target)


def is_identity(x):
    return x.pieces == tuple(range(len(x.pieces))) and not any(x.lmaps)


def image_wedge(iso, piece, edge):
    """The (piece, edge) wedge that ``iso`` carries the given one onto."""
    vm = iso.vertex_maps[piece]
    return iso.pieces[piece], (vm[edge[0]], vm[edge[1]])


def arc_permutation(aut, dec):
    """Position i holds j where the automorphism carries arc e_i onto e_j;
    n divisible by 3."""
    arc_of = {c: i for i, c in enumerate(arcs(dec).values())}
    return tuple(arc_of[dec.class_of(*image_wedge(aut, *w))] for w in _ARC_WEDGES)


def of_kind(dec, kind):
    """The edge classes of one family: "axis", "poly" or "diagonal"."""
    return [c for c in dec.edge_classes if c.kind == kind]


def role_counts(cls):
    """Wedges per edge role of an edge class, roles in order of first wedge."""
    return Counter(_ROLES[_EDGES.index(edge)] for _, edge in cls.wedges)


# (image of piece 0, its vertex map) for phi0..phi7
CANDIDATE_SEEDS = (
    (0, (0, 1, 2, 3)),
    (1, (0, 1, 2, 3)),
    (0, (1, 0, 3, 2)),
    (1, (1, 0, 3, 2)),
    (0, (0, 3, 2, 1)),
    (1, (0, 3, 2, 1)),
    (0, (1, 2, 3, 0)),
    (1, (1, 2, 3, 0)),
)


def extend_seed(dec, piece, vmap):
    """The seed extended onto the first step k' of n that takes it, as
    (map, k'); (None, None) when none does."""
    for k2 in range(dec.n):
        iso = _propagate(dec, Decomposition(dec.n, k2), piece, PERM_INDEX[vmap])
        if iso is not None:
            return iso, k2
    return None, None
