"""Checks the tests run on the package's output, kept out of the package.

``pairwise_classes`` classifies the steps by pairwise isomorphism search,
the oracle of ``classify``'s canonical tables: it sees every isomorphism
the search finds, not only those that carry r to r^+-1.  The independent
isomorphism check reads a slot table built from the gluing list
(``Decomposition.pairings``) alone, never the 8 quotient slots the
search indexes; ``lifted_slots`` pairs that list into the complex's 8n-slot
tables for the oracles that walk them.  The paper's proof device, the eight
candidate seeds phi0..phi7 of maps fixing or swapping pieces 0 and 1, is
extended here over the step-k' complexes with the search's own walk; the classical analysis says every
isometry is one of them composed with the dihedral subgroup, which the
search finds rather than assumes.  The reference coset enumerator is the
crudest Todd-Coxeter: it defines cosets along the whole of each relator and
only then identifies the end with the start.  The reference presentations
build the printed classification's words factor by factor, with no parser.
"""

from collections import Counter

from antidual.decomposition import (
    _ARC_WEDGES, _EDGES, _ROLES, PERM_INDEX, PERM_PRODUCT, PERMS, Decomposition, _pair_slots,
    arcs,
)
from antidual.groups import (
    DEFAULT_COSET_CAP, EnumerationResult, GroupError, PresentedGroup, _word_letters,
)
from antidual.symmetry import CombIso, _propagate, enumerate_isomorphisms


def pairwise_classes(n):
    """The isometry classes of the steps 0..n-1 by pairwise search, the
    oracle of ``classify``: each step not yet placed opens a class and takes
    every later unplaced step whose complex it maps onto."""
    decs = [Decomposition(n, k) for k in range(n)]
    placed, classes = set(), []
    for k in range(n):
        if k in placed:
            continue
        cls = [k] + [k2 for k2 in range(k + 1, n) if k2 not in placed
                     and enumerate_isomorphisms(decs[k], decs[k2], find_all=False)]
        placed.update(cls)
        classes.append(tuple(cls))
    return tuple(classes)


def slot_table(dec):
    """(piece, face) -> (partner piece, partner face, label map), from the
    gluing list alone."""
    table = {}
    for fp in dec.pairings:
        fwd = dict(fp.vertex_map)
        table[fp.piece_a, fp.face_a] = (fp.piece_b, fp.face_b, fwd)
        table[fp.piece_b, fp.face_b] = (fp.piece_a, fp.face_a, {y: x for x, y in fwd.items()})
    return table


def lifted_slots(dec):
    """The complex's 8n-slot tables from its gluing list alone: the slot
    glued to slot 4*piece + face and the PERMS index of its label map."""
    return _pair_slots(dec._gluings(), 4 * dec.num_pieces)


def slot_view(nbr, lmap):
    """8n-slot tables read as (piece, face) -> (partner piece, partner face,
    label map), the form of ``slot_table``."""
    view = {}
    for s, (s2, i) in enumerate(zip(nbr, lmap)):
        perm = PERMS[i]
        view[divmod(s, 4)] = (s2 >> 2, s2 & 3, {x: perm[x] for x in range(4) if x != s & 3})
    return view


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


def rotation(dec, steps):
    """The rotation r^steps: piece j -> j + 2*steps, labels fixed."""
    m = dec.num_pieces
    return CombIso(tuple((j + 2 * steps) % m for j in range(m)), (0,) * m,
                   (dec.n, dec.k), (dec.n, dec.k))


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


class _CosetGraph:
    """Schreier coset graph with a union-find over vertex labels."""

    def __init__(self, n_letters):
        self.n_letters = n_letters
        self.labels = []
        self.rows = []
        self.add_vertex()

    def add_vertex(self):
        c = len(self.labels)
        self.labels.append(c)
        self.rows.append([-1] * self.n_letters)
        return c

    def find(self, c):
        labels = self.labels
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def unify(self, c1, c2):
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            self.labels[b] = a
            row_a, row_b = self.rows[a], self.rows[b]
            for d in range(self.n_letters):
                nb = row_b[d]
                if nb == -1:
                    continue
                if row_a[d] == -1:
                    row_a[d] = nb
                else:
                    stack.append((row_a[d], nb))

    def follow_step(self, c, letter):
        c = self.find(c)
        row = self.rows[c]
        if row[letter] == -1:
            d = self.add_vertex()
            row[letter] = d
            self.rows[d][letter ^ 1] = c
        return self.find(row[letter])


def define_along_relators_enumerate(group, cap=DEFAULT_COSET_CAP):
    """Coset enumeration over the trivial subgroup that follows each relator
    from each live coset, defining every missing coset on the way, and then
    identifies the end with the start; g g^-1 and g^-1 g are relators too.
    The cap rule is the package's: more than ``cap`` cosets ever allocated
    is "cap_exceeded"."""
    n_letters = 2 * len(group.generators)
    relators = [_word_letters(w) for w in group.relators]
    for g in range(len(group.generators)):
        relators += [(2 * g, 2 * g + 1), (2 * g + 1, 2 * g)]
    graph = _CosetGraph(n_letters)
    to_visit = 0
    while to_visit < len(graph.labels):
        if len(graph.labels) > cap:
            return EnumerationResult("cap_exceeded", None, len(graph.labels), group)
        c = graph.find(to_visit)
        if c == to_visit:
            for rel in relators:
                end = c
                for letter in rel:
                    end = graph.follow_step(end, letter)
                graph.unify(end, c)
        to_visit += 1
    live = sum(1 for i, label in enumerate(graph.labels) if i == label)
    return EnumerationResult("completed", live, len(graph.labels), group)


def _w(*factors):
    return tuple((g, e) for g, e in factors if e != 0)


def _inverse(word):
    return tuple((g, -e) for g, e in reversed(word))


def reference_presentation(n, k):
    """The printed classification's presentation of the (n, k) quotient,
    built word by word: exponents in m = n/3 and l = (k-1)/3 are
    substituted literally and adjacent powers are not merged."""
    if n < 4 or not 0 <= k <= n - 1:
        raise GroupError(f"invalid family parameters ({n},{k})")
    div3 = n % 3 == 0
    if not div3 and n % 2 == 1 and k == (n - 1) // 2:
        t, u = 0, 1
        return PresentedGroup(
            ("t", "u"),
            (_w((t, 2)), _w((u, 2)), _w((u, 1), (t, 1)) * (2 * n)),
            provenance="case1_selfdual",
        )
    if not div3 or k % 3 != 1:
        r, t = 0, 1
        tag = "case1_generic" if not div3 else "subcase21"
        return PresentedGroup(
            ("r", "t"),
            (_w((r, n)), _w((t, 2)), _w((t, 1), (r, 1)) * 2),
            provenance=tag,
        )
    m, l = n // 3, (k - 1) // 3
    if m % 2 == 1 and l == (m - 1) // 2:
        s, t, u = 0, 1, 2
        sus = _w((s, 1), (u, 1), (s, 1), (u, 1), (s, 1))
        tut = _w((t, 1), (u, 1), (t, 1), (u, 1), (t, 1))
        return PresentedGroup(
            ("s", "t", "u"),
            (
                _w((s, 2)), _w((t, 2)), _w((u, 2)),
                _w((s, 1), (t, 1)) * 2,
                _w((u, 1), (t, 1)) * 6,
                sus + _inverse(tut),
            ),
            provenance="subcase22_selfdual",
        )
    r, s, t = 0, 1, 2
    str_word = _w((s, 1), (t, 1), (r, 1))
    return PresentedGroup(
        ("r", "s", "t"),
        (
            _w((r, 3 * m)), _w((s, 2)), _w((t, 2)),
            _w((t, 1), (r, 1)) * 2,
            _w((s, 1), (t, 1)) * 2,
            _w((s, 1), (r, 3), (s, -1), (r, -3)),
            str_word * 3 + _w((r, -3 * (m - 2 * l - 2))),
        ),
        provenance="subcase22_generic",
    )
