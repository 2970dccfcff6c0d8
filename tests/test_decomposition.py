import ast
import json
import math
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from antidual.decomposition import (
    BoundarySurface,
    Decomposition,
    DecompositionError,
    DescentFailure,
    EdgeClass,
    InvalidStep,
    NonManifold,
    PERM_INDEX,
    PERMS,
    arcs,
    boundary_surface,
    build_decomposition,
    decomposition_to_dict,
)
import antidual.cli as cli
import antidual.decomposition as decomposition
from antidual.minkowski import MinkVec, mink_inner
from antidual.realization import angle_sum_check, dihedral_angles, realize
from antidual.symmetry import automorphism_group
from paper_checks import lifted_slots, of_kind, role_counts, slot_table, slot_view

GOLDEN = Path(__file__).parent / "golden"


def test_counting_for_4_0():
    dec = build_decomposition(4, 0)
    assert dec.num_pieces == 8
    assert len(dec.pairings) == 16  # 8 pieces x 4 internal faces / 2


def test_invalid_inputs():
    with pytest.raises(InvalidStep):
        build_decomposition(3, 1)
    with pytest.raises(InvalidStep):
        build_decomposition(5, 5)
    with pytest.raises(InvalidStep):
        build_decomposition(5, -1)


def test_pairing_involution():
    for n in range(4, 21):
        for k in range(n):
            dec = build_decomposition(n, k)
            table = slot_table(dec)
            for (piece, face), (p2, f2, fwd) in table.items():
                p3, f3, back = table[p2, f2]
                assert (p3, f3) == (piece, face)
                for x, y in fwd.items():
                    assert back[y] == x
            # the views of the gluing list agree with the slot tables it
            # pairs into on both slots of each gluing
            assert slot_view(*lifted_slots(dec)) == table, (n, k)


def test_every_internal_slot_paired_once():
    dec = build_decomposition(7, 3)
    table = slot_table(dec)
    assert 2 * len(dec.pairings) == len(table)
    assert set(table) == {(p, f) for p in range(dec.num_pieces) for f in range(4)}


def test_class_of_refuses_a_wedge_outside_the_complex():
    # piece -1 must not wrap round to the last piece
    dec = build_decomposition(7, 3)
    for piece, edge in [(-1, (0, 1)), (dec.num_pieces, (0, 1)), (0, (1, 1)), (0, (0, 4))]:
        with pytest.raises(KeyError):
            dec.class_of(piece, edge)


@pytest.mark.parametrize("n,k", [(5, 2), (7, 0), (8, 3), (10, 7)])
def test_not_div3_census(n, k):
    dec = build_decomposition(n, k)
    axis = dec.edge_classes[0]
    assert axis.wedge_count == 2 * n
    assert axis.distinct_piece_count == 2 * n
    polys = of_kind(dec, "poly")
    assert len(polys) == 1
    assert polys[0].wedge_count == 6 * n
    assert len(of_kind(dec, "diagonal")) == n
    assert all(c.wedge_count == 4 for c in of_kind(dec, "diagonal"))


@pytest.mark.parametrize("n,k,subcase22", [
    (6, 0, False), (6, 1, True), (9, 1, True), (9, 2, False), (12, 4, True),
    (12, 5, False),
])
def test_div3_census(n, k, subcase22):
    dec = build_decomposition(n, k)
    polys = of_kind(dec, "poly")
    assert len(polys) == 3
    for cls in polys:
        assert cls.wedge_count == 2 * n
        roles = role_counts(cls)
        # each arc holds n/3 slant-up, n/3 equator pairs, n/3 slant-down edges
        assert roles["slant_upper"] == 2 * n // 3
        assert roles["slant_lower"] == 2 * n // 3
        assert roles["equator"] == 2 * n // 3
        expected_pieces = 2 * n if subcase22 else 4 * n // 3
        assert cls.distinct_piece_count == expected_pieces


def test_wedge_slots_conserved():
    for (n, k) in [(4, 1), (6, 3), (9, 4)]:
        dec = build_decomposition(n, k)
        total = sum(c.wedge_count for c in dec.edge_classes)
        assert total == 12 * n  # 6 edges per piece, no loss or double count


def test_arcs_labels():
    labels = arcs(build_decomposition(6, 1))
    assert set(labels) == {"e0", "e1", "e2", "e3"}
    assert len(set(labels.values())) == 4
    labels = arcs(build_decomposition(5, 2))
    assert set(labels) == {"e0", "single"}


def test_arc_classes_contain_slant_edges_of_pieces_0_2_4():
    dec = build_decomposition(9, 4)
    labels = arcs(dec)
    for i, name in enumerate(("e1", "e2", "e3")):
        assert dec.class_of(2 * i, (0, 1)) == labels[name]


@pytest.mark.parametrize("n", range(4, 31))
def test_boundary_genus_formula(n):
    surf = boundary_surface(build_decomposition(n, min(1, n - 1)))
    assert surf.is_orientable
    assert surf.is_connected
    assert surf.face_count == 8 * n
    assert surf.edge_count == 12 * n
    expected = n - 3 if n % 3 == 0 else n - 1
    assert surf.genus == expected
    assert surf.euler_characteristic == 2 - 2 * expected


def test_boundary_vertices_count_twice_the_edge_classes():
    for (n, k) in [(5, 1), (6, 2), (9, 4)]:
        surf = boundary_surface(build_decomposition(n, k))
        assert surf.vertex_count == 2 * len(_oracle_edge_classes(build_decomposition(n, k)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=4, max_value=16), st.data())
def test_census_properties_random_cells(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    dec = build_decomposition(n, k)
    polys = of_kind(dec, "poly")
    if n % 3 == 0:
        assert sorted(c.wedge_count for c in polys) == [2 * n] * 3
    else:
        assert [c.wedge_count for c in polys] == [6 * n]
    assert dec.edge_classes[0].wedge_count == 2 * n
    surf = boundary_surface(dec)
    assert surf.genus == (n - 3 if n % 3 == 0 else n - 1)


@pytest.mark.parametrize("n,k", [(5, 0), (6, 1), (9, 2), (12, 7)])
def test_angle_sums_all_classes(n, k):
    dec = build_decomposition(n, k)
    real = realize(n)
    report = angle_sum_check(dec, real)
    assert report.classes_checked == len(dec.edge_classes)
    assert report.all_within
    assert report.max_residual < 1e-9


def test_angle_sum_residuals_are_bit_identical_to_the_role_count_sums():
    # float addition is not associative, so the residuals must add the
    # roles in the order of their first wedges, which for many polyhedron
    # classes is not edge order, left to right from 0.0 on every Python
    # (sum() of floats is compensated since 3.12); the correctly rounded
    # sum differs on some classes, so the data can tell the orders apart
    out_of_edge_order = 0
    rounded_differently = 0
    for n in range(4, 41):
        real = realize(n)
        angles = dihedral_angles(real)
        role_angle = {
            "axis": math.pi / n,
            "slant_upper": angles.slant,
            "slant_lower": angles.slant,
            "equator": angles.equator,
            "diag_upper": math.acos(-mink_inner(real.normal_far, real.normal_upper)),
            "diag_lower": math.acos(-mink_inner(real.normal_lower, real.normal_near)),
        }
        for k in range(n):
            dec = build_decomposition(n, k)
            terms = [[role_angle[r] * c for r, c in role_counts(cls).items()]
                     for cls in dec.edge_classes]
            expected = tuple(reduce(add, t, 0.0) - 2 * math.pi for t in terms)
            assert angle_sum_check(dec, real).residuals == expected, (n, k)
            out_of_edge_order += sum(
                list(role_counts(cls)) != sorted(role_counts(cls), key=_ROLE_EDGE_ORDER.index)
                for cls in of_kind(dec, "poly"))
            rounded_differently += sum(
                math.fsum(t) - 2 * math.pi != e for t, e in zip(terms, expected))
    assert out_of_edge_order > 0
    assert rounded_differently > 0


def test_axis_class_sums_exactly():
    for n in (4, 9, 17):
        total = build_decomposition(n, 1).edge_classes[0].wedge_count * (math.pi / n)
        assert abs(total - 2 * math.pi) < 1e-12


@pytest.mark.parametrize("n,k", [(4, 0), (6, 1)])
def test_golden_json(n, k):
    produced = decomposition_to_dict(build_decomposition(n, k))
    expected = json.loads((GOLDEN / f"decomposition_{n}_{k}.json").read_text())
    assert produced == expected


def test_quad_rule_descends_to_diagonals():
    # diagonal-to-diagonal descent is enforced at construction; every quad
    # pairing maps the {0,2} diagonal onto the {1,3} one
    dec = build_decomposition(11, 6)
    for fp in dec.pairings:
        if fp.face_a == 3:
            fwd = dict(fp.vertex_map)
            assert {fwd[0], fwd[2]} == {1, 3}


def test_diagonal_classes_meet_four_pieces_along_the_step():
    n, k = 7, 2
    dec = build_decomposition(n, k)
    for i in range(n):
        cls = dec.edge_classes[dec.class_of(2 * i, (0, 2))]
        assert cls.wedge_count == 4
        pieces = {p for p, _ in cls.wedges}
        expected = {2 * i, 2 * i + 1,
                    (2 * i + 2 * k + 1) % (2 * n), (2 * i + 2 * k + 2) % (2 * n)}
        assert pieces == expected


# -- a tuple-keyed oracle for the integer-indexed kernels -------------------
#
# These are the dict-and-tuple forms the package used before its kernels
# moved to flat slot indices; the package must agree with them exactly.

_ROLE_EDGE_ORDER = ["slant_upper", "diag_upper", "axis", "equator", "diag_lower",
                    "slant_lower"]
_ORACLE_KIND = {(0, 3): "axis", (0, 1): "poly", (2, 3): "poly", (1, 2): "poly",
                (0, 2): "diagonal", (1, 3): "diagonal"}


def _oracle_union_find(nodes, links):
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    classes = {}
    for x in nodes:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def _oracle_edge_classes(dec):
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    slots = [(p, e) for p in range(dec.num_pieces) for e in edges]
    links = []
    for fp in dec.pairings:
        fwd = dict(fp.vertex_map)
        labels = sorted(fwd)
        for a in range(3):
            for b in range(a + 1, 3):
                u, v = labels[a], labels[b]
                img = tuple(sorted((fwd[u], fwd[v])))
                links.append(((fp.piece_a, (u, v)), (fp.piece_b, img)))
    classes = []
    for members in _oracle_union_find(slots, links):
        members.sort()
        kinds = {_ORACLE_KIND[e] for _, e in members}
        assert len(kinds) == 1
        classes.append(EdgeClass(wedges=tuple(members), kind=kinds.pop()))
    order = {"axis": 0, "poly": 1, "diagonal": 2}
    classes.sort(key=lambda c: (order[c.kind], c.wedges[0]))
    return tuple(classes)


def _oracle_boundary_surface(dec, tables=None):
    """The boundary by a 2-colouring of the 8n-slot ``tables``, by default
    those the complex's gluing list pairs into."""
    slots = slot_view(*(tables or lifted_slots(dec)))
    tris = [(p, v) for p in range(dec.num_pieces) for v in range(4)]
    corners = [(p, v, u) for p, v in tris for u in range(4) if u != v]
    corner_links = []
    edge_glue = {}
    for p, v in tris:
        for w in range(4):
            if w == v:
                continue
            p2, w2, fwd = slots[p, w]
            v2 = fwd[v]
            edge_glue[(p, v, w)] = (p2, v2, w2)
            u1, u2 = [x for x in range(4) if x not in (v, w)]
            corner_links.append(((p, v, u1), (p2, v2, fwd[u1])))
            corner_links.append(((p, v, u2), (p2, v2, fwd[u2])))
    for slot, img in edge_glue.items():
        assert edge_glue[img] == slot and img != slot
    face_count = len(tris)
    edge_count = len(edge_glue) // 2
    vertex_count = len(_oracle_union_find(corners, corner_links))
    euler = vertex_count - edge_count + face_count

    def direction(v, u1, u2):
        ring = [x for x in range(4) if x != v]
        i1, i2 = ring.index(u1), ring.index(u2)
        return 1 if (i2 - i1) % 3 == 1 else -1

    orientation = {}
    is_orientable = True
    components = 0
    for start in tris:
        if start in orientation:
            continue
        components += 1
        orientation[start] = 1
        stack = [start]
        while stack:
            p, v = stack.pop()
            for w in range(4):
                if w == v:
                    continue
                p2, w2, fwd = slots[p, w]
                v2 = fwd[v]
                u1, u2 = [x for x in range(4) if x not in (v, w)]
                needed = (-orientation[(p, v)] * direction(v, u1, u2)
                          * direction(v2, fwd[u1], fwd[u2]))
                if (p2, v2) not in orientation:
                    orientation[(p2, v2)] = needed
                    stack.append((p2, v2))
                elif orientation[(p2, v2)] != needed:
                    is_orientable = False
    is_connected = components == 1
    genus = (2 - euler) // 2 if is_orientable and is_connected else -1
    return BoundarySurface(vertex_count, edge_count, face_count, euler, genus,
                           is_orientable, is_connected)


def _oracle_class_sizes(dec, classes=None):
    """Per wedge 6*piece + edge index, the wedge count of its oracle class;
    ``classes`` are the oracle's classes of ``dec`` if already built."""
    sizes = [0] * (6 * dec.num_pieces)
    for cls in classes or _oracle_edge_classes(dec):
        for p, e in cls.wedges:
            sizes[6 * p + decomposition._EDGE_INDEX[e]] = cls.wedge_count
    return tuple(sizes)


def _assert_the_quotient_matches(dec, classes=True, boundary=True):
    """The classes lifted off the quotient against the complex's gluing
    list: the class sizes at pieces 0 and 1 that the isomorphism search
    reads against the placed classes, with ``classes`` both against the
    union-find oracle's and its classes too, and with ``boundary`` its
    boundary against the oracle's 2-colouring."""
    # the report's pairing count is the length of the gluing list
    assert len(dec._gluings()) == 2 * dec.num_pieces
    sizes = dec.wedge_counts
    assert sizes == tuple(dec.class_summaries[dec.class_of(p, e)].wedge_count
                          for p in (0, 1) for e in decomposition._EDGES)
    if boundary:
        assert boundary_surface(dec) == _oracle_boundary_surface(dec)
    if not classes:
        return
    oracle = _oracle_edge_classes(dec)
    # the oracle's sizes are r-invariant, so pieces 0 and 1 stand for the rest
    oracle_sizes = _oracle_class_sizes(dec, oracle)
    assert oracle_sizes[12:] + oracle_sizes[:12] == oracle_sizes
    assert sizes == oracle_sizes[:12]
    # the summaries the reports read, role counts in the oracle's order
    assert [(s.kind, s.wedge_count, s.distinct_pieces, list(s.roles))
            for s in dec.class_summaries] == [
        (c.kind, c.wedge_count, c.distinct_piece_count, list(role_counts(c).items()))
        for c in oracle]
    class_of = {w: i for i, c in enumerate(oracle) for w in c.wedges}
    labels = ("e0", "e1", "e2", "e3") if dec.n % 3 == 0 else ("e0", "single")
    assert arcs(dec) == {label: class_of[w]
                         for label, w in zip(labels, decomposition._ARC_WEDGES)}
    assert dec.edge_classes == oracle
    assert all(dec.class_of(p, e[::-1]) == i for (p, e), i in class_of.items())


@pytest.mark.parametrize("n", range(4, 21))
def test_kernels_match_the_tuple_keyed_oracle(n):
    # and the class sizes by which the search prefilters its seeds; the
    # census test below colours the boundary
    for k in range(n):
        _assert_the_quotient_matches(build_decomposition(n, k), boundary=False)


@pytest.mark.parametrize("n", range(4, 41))
def test_boundary_surface_matches_the_oracle_on_the_census(n):
    # every cell the census decomposes; the oracle's classes to n = 24
    for k in range(n):
        _assert_the_quotient_matches(build_decomposition(n, k), classes=n <= 24)


@pytest.mark.parametrize("n", range(41, 61))
def test_the_quotient_matches_the_walk_past_the_census(n):
    # the oracle's classes on a spread of k, and not its 2-colouring, as
    # their costs grow as n^2 per n: on every cell they would take about
    # twice as long again as the census above
    for k in range(n):
        _assert_the_quotient_matches(build_decomposition(n, k), boundary=False,
                                     classes=k in (0, 1, n // 3, n // 2))


@pytest.mark.parametrize("n,k", [(999, 1), (1000, 0), (1000, 333), (2999, 7), (3000, 0),
                                 (3000, 1499)])
def test_the_quotient_matches_the_walk_at_large_n(n, k):
    on, dec = (n, k) == (999, 1), build_decomposition(n, k)
    _assert_the_quotient_matches(dec, classes=on, boundary=on)
    # the lemma of notes/decisions.md section 3
    g = math.gcd(n, 3)
    surf = boundary_surface(dec)
    assert (surf.vertex_count, surf.genus) == (2 * (n + 1 + g), n - g)
    assert surf.is_orientable and surf.is_connected


def test_the_quotient_walk_is_made_once_per_table(monkeypatch):
    made = []
    walk = decomposition._QuotientWalk

    def counted(*tables):
        made.append(tables)
        return walk(*tables)

    decomposition._walk_rule.cache_clear()
    monkeypatch.setattr(decomposition, "_QuotientWalk", counted)
    for n in range(4, 13):
        for k in range(n):
            build_decomposition(n, k)
    assert len(made) == 1
    # its three cycles, the same for every (n, k): lengths 2, 6 and 4,
    # voltages 1, -3 and 0 (as a*k + b), all closing with even parity
    walked = decomposition._walk_rule(decomposition._STEP_RULE)
    assert [[(len(c.wedges), c.voltage, c.parity) for c in cycles]
            for cycles in walked.families] == [[(2, (0, 1), 0)], [(6, (0, -3), 0)],
                                               [(4, (0, 0), 0)]]
    # one component of boundary triangles, every cycle of sign +1, one of
    # voltage 1
    (cycles,) = walked.boundary
    assert {sign for _, _, sign in cycles} == {1} and (0, 1, 1) in cycles


# -- the guards, fed broken gluings -----------------------------------------


class _Regluing(Decomposition):
    """The (n, k) complex with the label map of the first gluing out of face
    ``face_a`` in its gluing list replaced by the permutation ``perm``; the
    oracles read that list, the search the step rule's 8 slots."""

    def __init__(self, n, k, face_a, perm):
        self._regluing = (face_a, PERM_INDEX[perm])
        super().__init__(n, k)

    def _gluings(self):
        face_a, lmap = self._regluing
        gluings = super()._gluings()
        i = next(i for i, (sa, _, _) in enumerate(gluings) if sa % 4 == face_a)
        gluings[i] = gluings[i][:2] + (lmap,)
        return gluings


def _default_quotient_tables():
    return decomposition._quotient_tables(decomposition._STEP_RULE)


def test_non_involutive_edge_gluing_is_non_manifold():
    dec = build_decomposition(7, 2)
    # slot (0, 3) now points at the lower quad of the next upper quad, whose
    # own pairing still points elsewhere
    slot_nbr, slot_lmap = lifted_slots(dec)
    p2, w2 = divmod(slot_nbr[3], 4)
    slot_nbr[3] = 4 * ((p2 + 2) % dec.num_pieces) + w2
    with pytest.raises(AssertionError):
        _oracle_boundary_surface(dec, (slot_nbr, slot_lmap))
    # the same edit on the quotient's slot tables: one level further on
    nbr, lmap, volt = _default_quotient_tables()
    volt[3] = (volt[3][0], volt[3][1] + 1)
    with pytest.raises(NonManifold, match="glued inconsistently"):
        decomposition._QuotientWalk(nbr, lmap, volt)


def test_a_label_map_not_inverted_across_its_slot_is_non_manifold():
    dec = build_decomposition(7, 2)
    # slot (0, 3) still goes to face 0 of its partner, which still points
    # back, but two of its label images are swapped, so the partner's map
    # is no longer the inverse
    nbr, lmap, volt = _default_quotient_tables()
    slot_nbr, slot_lmap = lifted_slots(dec)
    assert lmap[3] == slot_lmap[3]
    perm = list(PERMS[slot_lmap[3]])
    perm[0], perm[1] = perm[1], perm[0]
    assert perm[3] == 0
    slot_lmap[3] = lmap[3] = PERM_INDEX[tuple(perm)]
    with pytest.raises(AssertionError):
        _oracle_boundary_surface(dec, (slot_nbr, slot_lmap))
    # the same edit on the quotient's slot tables
    with pytest.raises(NonManifold, match="glued inconsistently"):
        decomposition._QuotientWalk(nbr, lmap, volt)


def _repair(edit):
    """Pair the (5, 1) complex's gluing list, edited by ``edit``, into slot
    tables."""
    return decomposition._pair_slots(edit(Decomposition(5, 1)._gluings()), 40)


def test_an_unpaired_slot_is_non_manifold():
    with pytest.raises(NonManifold, match=r"slot \(0, 1\) is unpaired"):
        _repair(lambda gluings: gluings[1:])


def test_a_slot_paired_twice_is_non_manifold():
    # the first gluing, (0, 1) <-> (1, 1), also in the place of the second
    def duplicate(gluings):
        gluings[1] = gluings[0]
        return gluings

    with pytest.raises(NonManifold, match=r"slot \(0, 1\) is paired twice"):
        _repair(duplicate)


@pytest.mark.parametrize("n,k", [(5, 1), (6, 1), (9, 4)])
def test_a_transposed_label_map_makes_the_boundary_non_orientable(n, k):
    # the quad map 0->1, 1->2, 2->3 composed with the transposition (0 2)
    # still sends polyhedron edges to polyhedron edges and the cut diagonal
    # to the cut diagonal, so the complex builds, but that one gluing now
    # reverses orientation
    dec = _Regluing(n, k, 3, (3, 2, 1, 0))
    surf = _oracle_boundary_surface(dec)
    assert surf.is_orientable is False
    assert surf.genus == -1
    # and some edge class now closes up with its ends swapped, so it has
    # one boundary vertex, not two
    assert surf.vertex_count < 2 * len(_oracle_edge_classes(dec))


def test_a_link_from_an_axis_slot_to_a_diagonal_slot_is_refused():
    # the side map, the identity on {0, 2, 3}, composed with (2 3) sends the
    # axis edge {0, 3} of piece 0 onto the diagonal {0, 2} of piece 1; the
    # family guard is the quotient walk's, so it reads that map in the rule
    tables = decomposition._quotient_tables(_reglued(0, (0, 1, 3, 2)))
    with pytest.raises(DecompositionError, match="edge class mixes families") as exc:
        decomposition._QuotientWalk(*tables)
    assert "'axis'" in str(exc.value) and "'diagonal'" in str(exc.value)


def test_a_quad_gluing_off_the_cut_diagonal_fails_descent():
    # 0->1, 1->3, 2->2 still carries face 3 onto face 0, but sends the cut
    # diagonal {0, 2} of the upper quad onto the edge {1, 2}
    with pytest.raises(DescentFailure,
                       match=r"slot \(0, 3\) carries the upper diagonal to \[1, 2\]"):
        lifted_slots(_Regluing(5, 1, 3, (1, 3, 2, 0)))


def test_a_gluing_that_misses_its_partner_face_is_refused():
    # the side slot (0, 1) glued to (1, 1) by a map carrying face 1 onto face 2
    with pytest.raises(DecompositionError,
                       match=r"\(0, 1\) -> \(1, 1\) .* does not carry face onto face"):
        lifted_slots(_Regluing(5, 1, 1, (0, 2, 1, 3)))


# -- negative controls on the quotient route ---------------------------------
#
# Each feeds a broken table through _STEP_RULE, which the walk of
# Decomposition and its _gluings both read, so the quotient route is checked
# against the oracle on the complex that lifts the same table.

_RULE = decomposition._STEP_RULE


def _reglued(row, perm):
    """The step rule with the label map of one row replaced by ``perm``."""
    sa, sb, _, a, b = _RULE[row]
    return _RULE[:row] + ((sa, sb, PERM_INDEX[perm], a, b),) + _RULE[row + 1:]


# the step rule with every voltage doubled
_DOUBLED = tuple((sa, sb, i, 2 * a, 2 * b) for sa, sb, i, a, b in _RULE)


def _decompose_exit_code(capsys, n, k):
    code = cli.run_cli(["decompose", "--n", str(n), "--k", str(k)])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("rule,error,match", [
    # slot (0, 0) stated a second time, by a map that is not the inverse of
    # the one slot (0, 3) is glued by
    (_RULE + ((0, 3, PERM_INDEX[(3, 1, 0, 2)], -1, -1),), NonManifold, "is paired twice"),
    # the quad map 0->1, 1->3, 2->2 sends the cut diagonal onto {1, 2}
    (_reglued(2, (1, 3, 2, 0)), DescentFailure,
     r"slot \(0, 3\) carries the upper diagonal to \[1, 2\]"),
    # the side map composed with (2 3) links the axis to a diagonal
    (_reglued(0, (0, 1, 3, 2)), DecompositionError, "edge class mixes families"),
])
def test_a_broken_table_is_refused_on_both_routes(monkeypatch, capsys, rule, error, match):
    monkeypatch.setattr(decomposition, "_STEP_RULE", rule)
    with pytest.raises(error, match=match):
        decomposition._walk_rule(rule)
    with pytest.raises(error, match=match):
        build_decomposition(5, 1)
    assert _decompose_exit_code(capsys, 5, 1) == 1


@pytest.mark.parametrize("n,k", [(5, 1), (6, 1), (9, 4)])
def test_a_reversed_quad_map_makes_the_lifted_boundary_non_orientable(monkeypatch, capsys,
                                                                      n, k):
    # the quad map (3, 2, 1, 0) of test_a_transposed_label_map_... on every
    # upper quad of the even pieces, not on one
    monkeypatch.setattr(decomposition, "_STEP_RULE", _reglued(2, (3, 2, 1, 0)))
    dec = build_decomposition(n, k)
    surf = boundary_surface(dec)
    assert surf.is_orientable is False
    assert surf.genus == -1
    assert surf.vertex_count < 2 * len(dec.class_summaries)
    _assert_the_quotient_matches(dec)
    assert _decompose_exit_code(capsys, n, k) == 1


@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (6, 1), (8, 3), (9, 4), (12, 5)])
def test_doubled_voltages_disconnect_the_lifted_boundary_at_even_n(monkeypatch, capsys,
                                                                   n, k):
    # every voltage even: at even n the levels split by parity
    monkeypatch.setattr(decomposition, "_STEP_RULE", _DOUBLED)
    dec = build_decomposition(n, k)
    surf = boundary_surface(dec)
    assert surf.is_connected is (n % 2 == 1)
    _assert_the_quotient_matches(dec)
    if n % 2 == 0:
        assert surf.genus == -1
        assert _decompose_exit_code(capsys, n, k) == 1


def test_building_and_reporting_a_complex_makes_no_face_pairing(monkeypatch):
    # FacePairing is a view for export and for the tests' oracles; the
    # construction, the kernels and the decompose report read slot tables
    def refuse(*args, **kwargs):
        raise AssertionError("a FacePairing view was built")

    monkeypatch.setattr("antidual.decomposition.FacePairing", refuse)
    dec = Decomposition(12, 5)
    real = realize(12)
    assert boundary_surface(dec).genus == 9
    assert angle_sum_check(dec, real).all_within
    assert automorphism_group(dec).order > 0
    payload, ok = cli._decompose_report(dec, real, full=False)
    assert ok and payload["pairings"] == 48


def test_building_and_reporting_a_complex_makes_no_edge_class(monkeypatch):
    # EdgeClass wedge lists are built on first read of Decomposition.edge_classes,
    # for export and the tests; the kernels and the decompose report read
    # the class summaries, the search the complex's class sizes
    def refuse(*args, **kwargs):
        raise AssertionError("an EdgeClass was built")

    monkeypatch.setattr("antidual.decomposition.EdgeClass", refuse)
    dec = Decomposition(12, 5)
    real = realize(12)
    assert boundary_surface(dec).genus == 9
    assert angle_sum_check(dec, real).all_within
    assert automorphism_group(dec).order > 0
    payload, ok = cli._decompose_report(dec, real, full=False)
    assert ok and len(payload["edge_classes"]) == 16
    with pytest.raises(AssertionError, match="an EdgeClass was built"):
        decomposition_to_dict(dec)


def test_nonmanifold_guard_is_not_triggered_on_valid_input():
    # the guard exists for corrupted pairing tables; valid decompositions
    # must never trip it
    for (n, k) in [(4, 3), (6, 5)]:
        boundary_surface(build_decomposition(n, k))


# -- the quad gluing, derived from the geometry -----------------------------
#
# Vertices are named T, B (the apexes), ("u", i) (the upper middle vertex at
# azimuth 2*pi*i/n) and ("d", i) (the lower one at azimuth (2i+1)*pi/n).
# Piece 2i is the wedge (T, u_i, d_i, B) and piece 2i+1 the wedge
# (T, u_{i+1}, d_i, B), in label order 0..3.  Upper kite i is the cycle
# (T, u_i, d_i, u_{i+1}), cut along T-d_i; lower kite j is the cycle
# (u_j, d_j, B, d_{j-1}), cut along u_j-B.  Nothing here reads the pairing
# table of Decomposition.


def _piece_vertices(n, p):
    i = p // 2
    upper = ("u", (i + p % 2) % n)
    return ("T", upper, ("d", i), "B")


def _upper_kite(n, i):
    return ("T", ("u", i % n), ("d", i % n), ("u", (i + 1) % n))


def _lower_kite(n, j):
    return (("u", j % n), ("d", j % n), "B", ("d", (j - 1) % n))


# the four correspondences carrying the cut diagonal of an upper kite onto
# that of a lower kite, as positions in the lower cycle; "table" is
# T -> u_j, u_i -> d_j, d_i -> B, u_{i+1} -> d_{j-1}
_KITE_CORRESPONDENCES = {
    "table": (0, 1, 2, 3),
    "mirror": (0, 3, 2, 1),
    "flip": (2, 1, 0, 3),
    "flip_mirror": (2, 3, 0, 1),
}


def _kite_map(n, i, j, name):
    lower = _lower_kite(n, j)
    return {v: lower[pos] for v, pos in
            zip(_upper_kite(n, i), _KITE_CORRESPONDENCES[name])}


def _vertex_poles(n):
    """Unit poles of every vertex, from realize(n) by rotation about x3."""
    real = realize(n)
    poles = {"T": real.apex_top, "B": real.apex_bottom}
    for i in range(n):
        a = 2 * np.pi * i / n
        turn = np.array([[1, 0, 0, 0],
                         [0, np.cos(a), -np.sin(a), 0],
                         [0, np.sin(a), np.cos(a), 0],
                         [0, 0, 0, 1]])
        poles[("u", i)] = MinkVec(*(turn @ real.mid_upper).tolist())
        poles[("d", i)] = MinkVec(*(turn @ real.mid_lower).tolist())
    return poles


def _side_pairings(n):
    """Neighbouring wedges glued by the identity on their shared face."""
    out = set()
    for p in range(2 * n):
        a, b = _piece_vertices(n, p), _piece_vertices(n, (p + 1) % (2 * n))
        shared = [v for v in a if v in b]
        face_a = next(x for x in range(4) if a[x] not in b)
        face_b = next(x for x in range(4) if b[x] not in a)
        out.add((p, face_a, (p + 1) % (2 * n), face_b,
                 tuple((a.index(v), b.index(v)) for v in shared)))
    return out


def _quad_pairings(n, k, name="table", offset=1):
    """(piece, face, piece, face, label map) of upper kite i -> lower kite
    i + k + offset under the named correspondence."""
    opp0 = {frozenset(_piece_vertices(n, q)[1:]): q for q in range(2 * n)}
    out = set()
    for i in range(n):
        corr = _kite_map(n, i, i + k + offset, name)
        for p in (2 * i, 2 * i + 1):
            image = [corr[v] for v in _piece_vertices(n, p)[:3]]
            q = opp0[frozenset(image)]
            target = _piece_vertices(n, q)
            out.add((p, 3, q, 0,
                     tuple((x, target.index(image[x])) for x in range(3))))
    return out


def _triples(dec):
    return {(fp.piece_a, fp.face_a, fp.piece_b, fp.face_b, fp.vertex_map)
            for fp in dec.pairings}


class _KiteGluing(Decomposition):
    """The complex whose gluing list, which the oracles read, is glued by a
    chosen kite correspondence and offset."""

    def __init__(self, n, k, name, offset):
        self._gluing = (name, offset)
        super().__init__(n, k)

    def _gluings(self):
        triples = _side_pairings(self.n) | _quad_pairings(
            self.n, self.k, *self._gluing)
        out = []
        for piece_a, face_a, piece_b, face_b, vertex_map in sorted(triples):
            image = dict(vertex_map)
            image[face_a] = face_b
            out.append((4 * piece_a + face_a, 4 * piece_b + face_b,
                        PERM_INDEX[tuple(image[x] for x in range(4))]))
        return out


def _census_holds(dec):
    """The census and genus claims of acceptance criteria 4 and 5."""
    n, k = dec.n, dec.k
    classes = _oracle_edge_classes(dec)
    axis, polys = classes[0], [c for c in classes if c.kind == "poly"]
    if not (axis.wedge_count == 2 * n and axis.distinct_piece_count == 2 * n):
        return False
    if n % 3 != 0:
        census = len(polys) == 1 and polys[0].wedge_count == 6 * n
    else:
        pieces = 2 * n if k % 3 == 1 else 4 * n // 3
        census = len(polys) == 3 and all(
            c.wedge_count == 2 * n and c.distinct_piece_count == pieces
            for c in polys)
    surf = _oracle_boundary_surface(dec)
    return (census and surf.is_orientable and surf.is_connected
            and surf.genus == (n - 3 if n % 3 == 0 else n - 1))


@pytest.mark.parametrize("n", [4, 5, 6, 9, 12])
def test_quad_gluing_preserves_the_kite_gram_matrix(n):
    # equal Gram matrices of the poles mean an isometry of H^3 carries the
    # upper kite onto the lower one with the stated vertex correspondence
    poles = _vertex_poles(n)

    def gram(names):
        return np.array([[mink_inner(poles[a], poles[b]) for b in names]
                         for a in names])

    worst = 0.0
    for i in range(n):
        for j in range(n):
            corr = _kite_map(n, i, j, "table")
            upper = list(corr)
            residual = gram(upper) - gram([corr[v] for v in upper])
            worst = max(worst, float(np.abs(residual).max()))
    assert worst < 1e-12


@pytest.mark.parametrize("n,k", [
    (4, 0), (5, 2), (6, 1), (7, 3), (9, 1), (9, 4), (12, 1), (12, 7),
])
def test_pairing_table_matches_the_geometric_gluing(n, k):
    dec = build_decomposition(n, k)
    quads = {t for t in _triples(dec) if t[1] == 3}
    assert quads == _quad_pairings(n, k)
    assert _triples(dec) - quads == _side_pairings(n)


@pytest.mark.parametrize("n,k", [(6, 1), (9, 1), (12, 1)])
def test_only_the_table_gluing_meets_the_census(n, k):
    # for 3 | n the census separates the correspondences; the mirror one
    # also meets it when 3 does not divide n, so those cells decide nothing
    holds = {
        (name, offset): _census_holds(_KiteGluing(n, k, name, offset))
        for name in _KITE_CORRESPONDENCES for offset in (0, 1, 2)
    }
    assert [key for key, ok in holds.items() if ok] == [("table", 1)]


@pytest.mark.parametrize("module", ["decomposition", "symmetry", "groups"])
def test_combinatorial_core_imports_no_geometry(module):
    # the complex, its symmetries and the group audit read no float geometry
    path = Path(cli.__file__).with_name(f"{module}.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert parts.isdisjoint({"minkowski", "realization", "tilt", "numpy"}), module
