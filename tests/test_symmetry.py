import dataclasses
import functools
import itertools
import json
import math
from collections import deque
from pathlib import Path
from typing import NamedTuple

import pytest

import antidual.cli as cli
import antidual.decomposition as decomposition
import antidual.symmetry as symmetry
from antidual.decomposition import (
    PERM_INDEX, PERM_PRODUCT, PERMS, Decomposition, build_decomposition,
)
from antidual.groups import (
    MissingGenerator, _evaluate_word, concrete_generator, coset_enumerate,
    isometry_presentation,
)
from antidual.symmetry import (
    ClosureFailure,
    CombIso,
    SymmetryError,
    automorphism_group,
    classify,
    enumerate_isomorphisms,
    flip_iso,
    generated_subgroup,
    group_to_dict,
    reflection_iso,
    rotation_iso,
)
from test_decomposition import _DOUBLED, _oracle_class_sizes, _reglued
from paper_checks import (
    CANDIDATE_SEEDS,
    arc_permutation,
    compose,
    extend_seed,
    image_wedge,
    is_identity,
    is_isomorphism,
    pairwise_classes,
    rotation,
    slot_table,
    slot_view,
)


def brute_force_order(dec):
    """Independent oracle: full backtracking over piece assignments."""
    m = dec.num_pieces
    perms = list(itertools.permutations(range(4)))
    count = 0
    pairings, table = dec.pairings, slot_table(dec)  # pairings builds views on each read

    def consistent(assign):
        for fp in pairings:
            a, b = fp.piece_a, fp.piece_b
            if a in assign and b in assign:
                pa, va = assign[a]
                pb, vb = assign[b]
                tp, tf, tmap = table[pa, va[fp.face_a]]
                if (tp, tf) != (pb, vb[fp.face_b]):
                    return False
                for x, y in fp.vertex_map:
                    if tmap[va[x]] != vb[y]:
                        return False
        return True

    def bt(j, assign, used):
        nonlocal count
        if j == m:
            count += 1
            return
        for p in range(m):
            if p in used:
                continue
            for v in perms:
                assign[j] = (p, v)
                used.add(p)
                if consistent(assign):
                    bt(j + 1, assign, used)
                used.discard(p)
                del assign[j]

    bt(0, {}, set())
    return count


def _oracle_propagate(a, b, slots_a, slots_b, seed_piece, seed_vmap):
    """The dict-keyed propagation the flat search replaced."""
    m = a.num_pieces
    pieces = [None] * m
    vmaps = [None] * m
    used = [False] * m
    pieces[0] = seed_piece
    vmaps[0] = tuple(seed_vmap)
    used[seed_piece] = True
    queue = deque([0])
    while queue:
        j = queue.popleft()
        vm = vmaps[j]
        pj = pieces[j]
        for face in range(4):
            j2, face2, smap = slots_a[(j, face)]
            tp, tface, tmap = slots_b[(pj, vm[face])]
            new_vm = [None] * 4
            new_vm[face2] = tface
            for x, y in smap.items():
                new_vm[y] = tmap[vm[x]]
            if pieces[j2] is None:
                if used[tp]:
                    return None
                pieces[j2] = tp
                vmaps[j2] = tuple(new_vm)
                used[tp] = True
                queue.append(j2)
            elif pieces[j2] != tp or vmaps[j2] != tuple(new_vm):
                return None
    if None in pieces:  # piece 0 does not reach every piece
        return None
    iso = CombIso(tuple(pieces), tuple(PERM_INDEX[v] for v in vmaps), (a.n, a.k), (b.n, b.k))
    return iso if is_isomorphism(iso, a, b) else None


def _oracle_enumerate(a, b):
    """Every one of the 2n x 24 seeds through the dict-keyed propagation,
    over slot dicts built from the pairing table alone."""
    if a.n != b.n:
        return []
    slots = slot_table(a), slot_table(b)
    out = []
    for seed_piece in range(a.num_pieces):
        for vmap in itertools.permutations(range(4)):
            iso = _oracle_propagate(a, b, *slots, seed_piece, vmap)
            if iso is not None:
                out.append(iso)
    return out


@pytest.mark.parametrize("n", range(4, 15))
def test_flat_search_matches_the_dict_keyed_oracle(n):
    decs = [build_decomposition(n, k) for k in range(n)]
    for a in decs:
        for b in (decs if n <= 9 else [a]):
            oracle = _oracle_enumerate(a, b)
            assert enumerate_isomorphisms(a, b) == oracle, (n, a.k, b.k)
            # the first map in seed order, at piece 0 or 1 when r is shown
            assert enumerate_isomorphisms(a, b, find_all=False) == oracle[:1], (n, a.k, b.k)


def _log_seeds(monkeypatch):
    """Log the seed (piece, label map) of every lift attempt and every walk.

    A seed the lift refuses is walked right after, and one search tries each
    seed once, so the seeds a search tries are the log's distinct entries in
    order (``_seeds``)."""
    log = []
    for name in ("_lift", "_propagate"):
        def logged(a, b, piece, lmap, original=getattr(symmetry, name)):
            log.append((piece, lmap))
            return original(a, b, piece, lmap)
        monkeypatch.setattr(symmetry, name, logged)
    return log


def _seeds(log):
    return list(dict.fromkeys(log))


# full_seeds: the seeds over all 2n pieces that keep the union-find
# oracle's wedge counts at piece 0.  r carries those at pieces 0 and 1 onto
# the rest, and only those are tried, each as a lift and, if refused, by a
# walk: at most 48 seeds, whatever n is
@pytest.mark.parametrize("n,k,full_seeds",
                         [(9, 1, 144), (16, 5, 64), (24, 7, 384), (60, 29, 960)])
def test_wedge_count_prefilter_seed_counts(monkeypatch, n, k, full_seeds):
    dec = build_decomposition(n, k)
    sizes = _oracle_class_sizes(dec)
    assert full_seeds == sum(pullback(sizes[6 * p:6 * p + 6]) == sizes[:6]
                             for p in range(dec.num_pieces) for pullback in symmetry._PULLBACK)
    log = _log_seeds(monkeypatch)
    automorphism_group(dec)
    seeds = _seeds(log)
    assert len(seeds) == full_seeds // n <= 2 * 24
    assert {piece for piece, _ in seeds} <= {0, 1}


def _corrupt(table, change):
    """Corrupt entry s of one of the target's 8-slot tables by ``change``."""
    def corrupt(target, s):
        entries = list(getattr(target, table))
        entries[s] = change(entries[s], target.n)
        setattr(target, table, tuple(entries))
    return corrupt


# a label map after (2 3) or (0 1), the partner's face on the other
# quotient piece, and the partner one level on
_CORRUPTIONS = {
    "lmap-(2 3)": _corrupt("slot_lmap", lambda i, n: PERM_PRODUCT[24 * 1 + i]),
    "lmap-(0 1)": _corrupt("slot_lmap", lambda i, n: PERM_PRODUCT[24 * 6 + i]),
    "nbr+1": _corrupt("slot_nbr", lambda s2, n: s2 ^ 4),
    "volt+1": _corrupt("slot_volt", lambda v, n: (v + 1) % n),
}


def _index_lift(dec):
    """The 8n-slot tables the search's index arithmetic reads: slot 8l + s
    glued to slot 8((l + volt[s]) mod n) + nbr[s] by label map lmap[s]."""
    n = dec.n
    return ([8 * ((t // 8 + dec.slot_volt[t % 8]) % n) + dec.slot_nbr[t % 8]
             for t in range(8 * n)],
            [dec.slot_lmap[t % 8] for t in range(8 * n)])


@pytest.mark.parametrize("n", range(4, 41))
def test_the_search_indexes_the_lift_of_the_pairings(n):
    # r holds by construction: the search finds slot t of a complex at
    # quotient slot t & 7, level t >> 3, and on every one of the 8n slots
    # that must give the partner and label map the gluing list gives
    for k in range(n):
        dec = build_decomposition(n, k)
        assert len(dec.slot_nbr) == len(dec.slot_lmap) == len(dec.slot_volt) == 8
        assert slot_view(*_index_lift(dec)) == slot_table(dec), (n, k)


@pytest.mark.parametrize("n,k", [(6, 1), (7, 3), (9, 4)])
@pytest.mark.parametrize("corrupt", list(_CORRUPTIONS.values()), ids=list(_CORRUPTIONS))
def test_search_walk_checks_every_slot(n, k, corrupt):
    # the walk is the search's only check on a map the lift does not accept,
    # and the only way it rejects a seed: one wrong entry of the target's
    # tables, at whichever of the 8 quotient slots, must reject the rotation
    # seed
    dec = build_decomposition(n, k)
    assert symmetry._propagate(dec, build_decomposition(n, k), 2, 0) == rotation_iso(dec)
    for s in range(8):
        target = build_decomposition(n, k)
        corrupt(target, s)
        assert symmetry._propagate(dec, target, 2, 0) is None, s


@pytest.mark.parametrize("n,k", [(6, 1), (7, 3), (9, 4)])
@pytest.mark.parametrize("corrupt", list(_CORRUPTIONS.values()), ids=list(_CORRUPTIONS))
def test_rotation_check_reads_every_slot(n, k, corrupt):
    # the check that r lifts as the search indexes it (the test above) fails
    # on one wrong entry, at whichever of the 8 quotient slots: every one of
    # the n slots that entry stands for leaves the gluing list
    table = slot_table(build_decomposition(n, k))
    for s in range(8):
        target = build_decomposition(n, k)
        corrupt(target, s)
        view = slot_view(*_index_lift(target))
        assert all(view[divmod(t, 4)] != table[divmod(t, 4)] for t in range(s, 8 * n, 8)), s


@functools.cache
def _cells_to_60():
    return [build_decomposition(n, k) for n in range(4, 61) for k in range(n)]


def test_walk_only_search_gives_the_same_groups(monkeypatch):
    # with every lift refused, each seed goes to the walk
    lifted = [automorphism_group(dec) for dec in _cells_to_60()]
    monkeypatch.setattr(symmetry, "_lift", lambda a, b, piece, lmap: None)
    walked = [automorphism_group(dec) for dec in _cells_to_60()]
    assert lifted == walked  # base maps, order and generators


def test_only_the_half_turn_cells_need_the_walk(monkeypatch):
    # a map the walk finds when r holds carries r to neither r nor r^-1: on
    # n <= 60 these are maps of the 19 cells with s, where 3 | n and
    # n | 2(2k + 1)
    found, propagate = [], symmetry._propagate

    def walked(a, b, piece, lmap):
        iso = propagate(a, b, piece, lmap)
        if iso is not None:
            found.append((a.n, a.k))
        return iso

    monkeypatch.setattr(symmetry, "_propagate", walked)
    with_s = {(dec.n, dec.k) for dec in _cells_to_60()
              if automorphism_group(dec).generators["s"] is not None}
    assert set(found) == with_s == {(n, k) for n in range(6, 61, 3) for k in range(n)
                                    if 2 * (2 * k + 1) % n == 0}
    assert len(with_s) == 19 and min(with_s) == (6, 1) and max(with_s) == (57, 28)


@pytest.mark.parametrize("rule", [_reglued(2, (3, 2, 1, 0)), _DOUBLED],
                         ids=["reversed-quad", "doubled-voltages"])
@pytest.mark.parametrize("n", [4, 5, 6, 9])
def test_search_on_edited_step_rules_matches_the_oracle(monkeypatch, rule, n):
    # the edited rules of test_decomposition.py that build: each complex is
    # the lift of the edited quotient, so the search tries lifts; doubled
    # voltages disconnect it at even n, where no seed reaches every piece and
    # the search refuses the source rather than report no isomorphism
    monkeypatch.setattr(decomposition, "_STEP_RULE", rule)
    decs = [build_decomposition(n, k) for k in range(n)]
    connected = rule != _DOUBLED or n % 2 == 1
    assert all(symmetry._connected(dec) for dec in decs) is connected
    for a in decs:
        for b in decs:
            oracle = _oracle_enumerate(a, b)
            if not connected:
                assert oracle == []
                for find_all in (True, False):
                    with pytest.raises(SymmetryError, match="is not connected"):
                        enumerate_isomorphisms(a, b, find_all)
                continue
            assert enumerate_isomorphisms(a, b) == oracle, (a.k, b.k)
            assert enumerate_isomorphisms(a, b, find_all=False) == oracle[:1], (a.k, b.k)


_QUAD = decomposition._QUAD


# side cuts half-way round (piece 2l onto piece 2(l + n/2) + 1) and both quads
# one level on, as a rule at k = n/2, n even: connected, and swapping each
# even piece with the odd piece cut against it is an automorphism
_HALF_TURN_SIDES = ((1, 5, 0, 1, 0), (6, 2, 0, 1, 0), (3, 0, _QUAD, 0, 1), (7, 4, _QUAD, 0, 1))


def _half_turn_sides(monkeypatch, n):
    monkeypatch.setattr(decomposition, "_STEP_RULE", _HALF_TURN_SIDES)
    return build_decomposition(n, n // 2)


def _fold(x):
    """``x`` of _HALF_TURN_SIDES folded by that swap onto its even pieces,
    with a copy on the odd ones: the complex with its 8-slot tables set by
    hand, each side slot glued to itself at voltage n/2, and its gluing
    list."""
    n, h = x.n, x.n // 2
    folded = build_decomposition(n, x.k)
    folded.slot_nbr = (3, 1, 2, 0, 7, 5, 6, 4)
    folded.slot_volt = tuple(h if s & 3 in (1, 2) else v for s, v in enumerate(x.slot_volt))
    sides = [(8 * l + f, 8 * (l + h) + f, 0) for l in range(h) for f in (1, 2, 5, 6)]
    return folded, sides + [row for row in x._gluings() if row[0] & 3 == 3]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_the_lift_refuses_a_fold_onto_the_even_pieces(monkeypatch, n):
    # piece j -> 2(j // 2) with identity labels commutes with every pairing
    # but covers the target's even pieces twice: its 8 slots agree, so only
    # the parity of F(0) and F(1) refuses it
    a = _half_turn_sides(monkeypatch, n)
    folded, gluings = _fold(a)
    target = slot_view(*decomposition._pair_slots(gluings, 8 * n))
    assert slot_view(*_index_lift(folded)) == target
    for (p, f), (p2, f2, fwd) in slot_table(a).items():
        assert target[2 * (p // 2), f] == (2 * (p2 // 2), f2, fwd)
    # F(0) = 0, and F(1) = n, forced across slot (0, 1), is even too
    assert symmetry._connected(a) and folded.slot_nbr[1] == 1 and folded.slot_volt[1] == n // 2
    assert symmetry._lift(a, folded, 0, 0) is None
    assert symmetry._propagate(a, folded, 0, 0) is None


@pytest.mark.parametrize("n", [4, 6, 8])
def test_the_prefilter_sizes_match_the_oracle_off_the_step_rule(monkeypatch, n):
    # an edited rule: the wedge counts the search evaluates off the walk of
    # _HALF_TURN_SIDES are the union-find oracle's at pieces 0 and 1
    dec = build_decomposition(n, 1)
    x = _half_turn_sides(monkeypatch, n)
    assert x.wedge_counts == _oracle_class_sizes(x)[:12]
    # between x and a step-rule complex, whose counts differ, each side's
    # own counts reject every seed before it is tried
    log = _log_seeds(monkeypatch)
    assert enumerate_isomorphisms(x, dec) == enumerate_isomorphisms(dec, x) == []
    assert log == []


def test_table_composition_matches_the_label_formula():
    elements = automorphism_group(build_decomposition(6, 1)).elements
    for x in elements:
        for y in elements:
            vmaps = tuple(tuple(x.vertex_maps[y.pieces[j]][y.vertex_maps[j][v]]
                                for v in range(4)) for j in range(len(y.pieces)))
            assert compose(x, y).vertex_maps == vmaps


# orders from the seed search; the backtracking oracle below confirms the
# cells it runs on, among them (9,1) and (12,1), where these differ from the
# printed 24m family (notes/decisions.md)
KNOWN_ORDERS = {
    (4, 0): 8, (4, 1): 8, (5, 2): 20, (5, 0): 10, (6, 0): 12, (6, 1): 48,
    (7, 2): 14, (7, 3): 28, (8, 3): 16, (9, 1): 18, (9, 4): 144, (12, 1): 24,
}


@pytest.mark.parametrize("n,k", sorted(KNOWN_ORDERS))
def test_automorphism_orders(n, k):
    aut = automorphism_group(build_decomposition(n, k))
    assert aut.order == KNOWN_ORDERS[(n, k)]
    assert (2 * n * 24) % aut.order == 0  # the search-space bound


@pytest.mark.parametrize("n,k", [(4, 0), (5, 2), (6, 1), (9, 1), (12, 1)])
def test_search_agrees_with_backtracking_oracle(n, k):
    dec = build_decomposition(n, k)
    assert automorphism_group(dec).order == brute_force_order(dec)


def test_group_closure_inverses_identity():
    for n, k in [(6, 1), (9, 4)]:
        dec = build_decomposition(n, k)
        aut = automorphism_group(dec)  # closure verified inside
        keys = {(e.pieces, e.vertex_maps) for e in aut.elements}
        identity = rotation(dec, 0)
        assert (identity.pieces, identity.vertex_maps) in keys
        for e in aut.elements:
            inv = e.inverse()
            assert (inv.pieces, inv.vertex_maps) in keys
            assert is_identity(compose(e, inv))
            assert is_identity(compose(inv, e))
            assert inv.inverse() == e


def _drop_identity(maps):
    return [e for e in maps if not is_identity(e)]


def _drop_middle_non_identity(maps):
    i = len(maps) // 2
    assert not is_identity(maps[i])
    return maps[:i] + maps[i + 1:]


@pytest.mark.parametrize("n,k", [(9, 4), (6, 1)])
@pytest.mark.parametrize("drop", [
    _drop_identity,
    _drop_middle_non_identity,
    lambda maps: maps[:-1],
    lambda maps: [],
], ids=["identity", "non-identity", "last", "all"])
def test_closure_check_catches_a_broken_set(monkeypatch, n, k, drop):
    # the search loses some of its base maps: the seed set that r and the
    # rest give is then not the group they generate
    search = symmetry._seed_search

    def broken(a, b):
        return drop(search(a, b))

    monkeypatch.setattr(symmetry, "_seed_search", broken)
    dec = build_decomposition(n, k)
    with pytest.raises(ClosureFailure, match="generated"):
        automorphism_group(dec)


def _full_key_generators(dec, elements):
    """The generators as found by their full maps among all the elements."""
    by_key = {(e.pieces, e.lmaps): e for e in elements}
    gens = {name: by_key.get((c.pieces, c.lmaps)) for name, c in
            (("r", rotation_iso(dec)), ("t", flip_iso(dec)), ("u", reflection_iso(dec)))}
    half_turn = PERM_INDEX[(1, 0, 3, 2)]
    gens["s"] = next((e for e in elements if (e.pieces[0], e.lmaps[0]) == (0, half_turn)), None)
    return gens


# the cells with n <= 12 include (9, 4), which has u and s; (27, 13) has both
# too, and (31, 15) has u
@pytest.mark.parametrize("n,k", [(n, k) for n in range(4, 13) for k in range(n)]
                         + [(24, 7), (27, 13), (31, 15), (60, 29)])
def test_seed_encoding_gives_the_full_group(n, k):
    dec = build_decomposition(n, k)
    aut = automorphism_group(dec)
    full = tuple(sorted(enumerate_isomorphisms(dec, dec), key=lambda e: (e.pieces, e.lmaps)))
    assert aut.elements == full
    assert len(aut.elements) == aut.order
    seeds = {(e.pieces[0], e.lmaps[0]) for e in aut.base}
    assert {p for p, _ in seeds} <= {0, 1}
    seeds = {((p + 2 * j) % dec.num_pieces, v) for p, v in seeds for j in range(n)}
    assert {(e.pieces[0], e.lmaps[0]) for e in aut.elements} == seeds
    assert aut.generators == _full_key_generators(dec, full)


def test_the_search_never_places_the_classes(monkeypatch):
    # the search, classify and a survey cell read the class sizes of the
    # lift (wedge_counts), never the census that _stretches places
    def refuse(*args):
        raise AssertionError("the census was built")

    cells = [(6, 1), (9, 4), (12, 5), (18, 4)]
    orders = [automorphism_group(build_decomposition(n, k)).order for n, k in cells]
    enum, geometry = coset_enumerate(isometry_presentation(9, 4)), cli._survey_geometry(9)
    row = cli._survey_cell(enum, 9, 4, geometry)
    monkeypatch.setattr(decomposition, "_stretches", refuse)
    with pytest.raises(AssertionError, match="the census was built"):
        build_decomposition(9, 4).class_summaries
    for (n, k), order in zip(cells, orders):
        dec = build_decomposition(n, k)
        assert dec.wedge_counts == _oracle_class_sizes(dec)[:12]
        assert automorphism_group(dec).order == order
    assert classify(12).classes == ((0, 11), (1, 10), (2, 9), (3, 8), (4, 7), (5, 6))
    assert cli._survey_cell(enum, 9, 4, geometry) == row


@pytest.mark.parametrize("n,k,order", [(6, 1, 48), (9, 4, 144), (16, 5, 32),
                                       (27, 13, 432)])
def test_greedy_generators_reach_the_group(n, k, order):
    dec = build_decomposition(n, k)
    aut = automorphism_group(dec)
    seeds = {(e.pieces[0], e.lmaps[0]) for e in aut.elements}
    gens, reached = generated_subgroup(aut.elements)
    assert aut.order == len(seeds) == order
    assert 1 <= len(gens) <= math.log2(order)
    assert reached == seeds
    # the greedy generators alone generate the same group
    assert len(generated_subgroup(gens)[1]) == order


@pytest.mark.parametrize("n,k", [(6, 1), (9, 4)])
def test_seed_products_match_full_composition(n, k):
    # one generator: the seeds reached are those of its powers under compose
    dec = build_decomposition(n, k)
    for g in automorphism_group(dec).elements:
        powers, power = {(0, 0)}, g
        while not is_identity(power):
            powers.add((power.pieces[0], power.lmaps[0]))
            power = compose(g, power)
        assert generated_subgroup([g])[1] == powers


def _composed_word(word, images, identity):
    # the oracle: the full CombIso product of the factors, the right one first
    result = identity
    for g, e in word:
        factor = images[g] if e > 0 else images[g].inverse()
        for _ in range(abs(e)):
            result = compose(result, factor)
    return result


def test_relator_seeds_match_full_composition():
    checked = failing = 0
    for n in range(4, 13):
        for k in range(n):
            dec = build_decomposition(n, k)
            aut = automorphism_group(dec)
            pres = isometry_presentation(n, k)
            try:
                images = [concrete_generator(name, dec, aut) for name in pres.generators]
            except MissingGenerator:
                continue
            inverses = [g.inverse() for g in images]
            for word in pres.relators:
                full = _composed_word(word, images, rotation(dec, 0))
                seed = _evaluate_word(word, images, inverses)
                assert seed == (full.pieces[0], full.lmaps[0]), (n, k, word)
                assert (seed == (0, 0)) == is_identity(full), (n, k, word)
                checked += 1
                failing += not is_identity(full)
    # the printed table's wrong relators are among those compared
    assert checked == 209 and failing > 0


@pytest.mark.parametrize("n", [4, 5, 6, 7, 9, 12])
def test_dihedral_subgroup_always_present(n):
    for k in range(n):
        dec = build_decomposition(n, k)
        r = rotation_iso(dec)
        t = flip_iso(dec)
        assert is_isomorphism(r, dec, dec)
        assert is_isomorphism(t, dec, dec)
        # r has order n, t inverts it
        power = r
        for _ in range(n - 1):
            power = compose(power, r)
        assert is_identity(power)
        assert is_identity(compose(t, t))
        trt = compose(compose(t, r), t)
        assert is_identity(compose(trt, r))  # trt = r^-1


@pytest.mark.parametrize("n", [4, 5, 6, 7, 9])
def test_mirror_maps_step_k_to_complement(n):
    for k in range(n):
        dec = build_decomposition(n, k)
        u = reflection_iso(dec)
        target = build_decomposition(n, (n - k - 1) % n)
        assert is_isomorphism(u, dec, target)
        aut = automorphism_group(dec)
        expected_u_member = (k == (n - k - 1) % n)
        assert (aut.generators["u"] is not None) == expected_u_member


def test_different_n_never_isomorphic():
    a = build_decomposition(4, 0)
    b = build_decomposition(5, 0)
    assert enumerate_isomorphisms(a, b) == []
    for n, k in [(5, 2), (6, 1), (9, 4)]:
        x, y = build_decomposition(n, k), build_decomposition(n + 1, k)
        assert enumerate_isomorphisms(x, y) == enumerate_isomorphisms(y, x, find_all=False) == []


@pytest.mark.parametrize("n,k,k2,expect", [
    (7, 2, 4, True), (7, 2, 3, False), (7, 2, 2, True),
    (9, 1, 7, True), (9, 1, 4, False), (8, 2, 5, True), (8, 2, 4, False),
])
def test_isomorphism_existence(monkeypatch, n, k, k2, expect):
    a = build_decomposition(n, k)
    b = build_decomposition(n, k2)
    log = _log_seeds(monkeypatch)
    found = enumerate_isomorphisms(a, b, find_all=False)
    tried = _seeds(log)
    assert bool(found) == expect
    assert len(found) <= 1  # no power of r is formed after the first hit
    log.clear()
    first = enumerate_isomorphisms(a, b)[:1]
    assert found == first
    # the existence query runs the full seed search and keeps its first map
    assert tried == _seeds(log)
    if found:
        assert is_isomorphism(found[0], a, b)


class _ReversedQuad(Decomposition):
    """The quad out of piece 0 glued by (3 2 1 0), which also carries face 3
    onto face 0: the same slots glued, one by another label map."""

    def _gluings(self):
        g = super()._gluings()
        g[2] = g[2][:2] + (PERM_INDEX[(3, 2, 1, 0)],)
        return g


def test_isomorphism_check_rejects_broken_maps():
    dec, a = Decomposition(9, 4), Decomposition(7, 2)
    r, u = rotation_iso(dec), reflection_iso(a)
    assert is_isomorphism(r, dec, dec) and is_isomorphism(u, a, Decomposition(7, 4))
    relabelled = dataclasses.replace(r, lmaps=(1,) + r.lmaps[1:])
    merged = dataclasses.replace(r, pieces=(r.pieces[0],) + r.pieces[:1] + r.pieces[2:])
    assert not is_isomorphism(relabelled, dec, dec)
    assert not is_isomorphism(merged, dec, dec)
    assert not is_isomorphism(u, a, Decomposition(7, 3))
    # a piece outside the target is refused before any lookup; the last
    # map carries every face right, so only the label check refuses it
    outside = dataclasses.replace(r, pieces=(dec.num_pieces,) + r.pieces[1:])
    assert not is_isomorphism(outside, dec, dec)
    larger = Decomposition(10, 4)  # piece 0 goes to 18, past the target's pieces
    assert not is_isomorphism(rotation(larger, -1), larger, dec)
    assert not is_isomorphism(rotation(dec, 0), dec, _ReversedQuad(9, 4))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_classification_pairs_k_with_complement(n):
    result = classify(n)
    as_sets = {frozenset(c) for c in result.classes}
    expected = {frozenset({k, (n - k - 1) % n}) for k in range(n)}
    assert as_sets == expected


@pytest.mark.parametrize("n", range(4, 41))
def test_classify_equals_the_pairwise_search(n):
    # the canonical tables see only the maps that carry r to r^+-1; the
    # pairwise search sees every map it finds
    assert classify(n).classes == pairwise_classes(n)


def test_classify_runs_no_isomorphism_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("classify searched")

    monkeypatch.setattr(symmetry, "_seed_search", refuse)
    monkeypatch.setattr(symmetry, "_propagate", refuse)
    golden = json.loads((Path(__file__).parent / "golden" / "classify_30.json").read_text())
    assert [list(c) for c in classify(30).classes] == golden["classes"]


class _SlotTable(NamedTuple):
    """What ``_canonical_table`` reads of a complex."""

    n: int
    slot_nbr: tuple[int, ...]
    slot_lmap: tuple[int, ...]
    slot_volt: tuple[int, ...]


def _relabelled(dec, q0, l0, l1, e, shift):
    """The 8 quotient slots of ``dec`` relabelled through its lifted gluing
    list: piece 2i + q goes to piece 2((e*i + c) mod n) + (q xor q0) by the
    label map PERMS[l], with l = l0 and c = 0 for q = q0, l = l1 and
    c = shift for the other piece."""
    n = dec.n
    label = {q0: PERMS[l0], 1 - q0: PERMS[l1]}
    level = {q0: 0, 1 - q0: shift}

    def image(slot):
        (i, q), face = divmod(slot >> 2, 2), slot & 3
        return 8 * ((e * i + level[q]) % n) + 4 * (q ^ q0) + label[q][face], label[q]

    nbr, lmap = {}, {}
    for sa, sb, glue in dec._gluings():
        (ta, la), (tb, lb) = image(sa), image(sb)
        forward = tuple(lb[PERMS[glue][la.index(x)]] for x in range(4))
        nbr[ta], lmap[ta] = tb, PERM_INDEX[forward]
        nbr[tb], lmap[tb] = ta, PERM_INDEX[tuple(forward.index(x) for x in range(4))]
    return _SlotTable(n, tuple(nbr[t] & 7 for t in range(8)),
                      tuple(lmap[t] for t in range(8)), tuple(nbr[t] >> 3 for t in range(8)))


# the step rule with each upper quad glued across to the other quotient
# piece: at these cells no map carries r to r^-1, where the flip t does on
# every step-rule complex, so only they need the key's e = -1 relabellings
_CROSSED_QUADS = ((1, 5, 0, 0, 0), (6, 2, 0, 0, 1), (3, 4, _QUAD, 1, 1), (7, 0, _QUAD, 1, 0))


@pytest.mark.parametrize("rule,n,k", [
    *[("step", n, k) for n in (4, 5, 6, 9, 10) for k in range(n)], ("step", 18, 4),
    ("crossed", 7, 2), ("crossed", 10, 3), ("crossed", 11, 3)])
def test_canonical_table_is_a_class_invariant_that_voltages_move(monkeypatch, rule, n, k):
    # the step rule's classes {k, n-k-1} come from the mirror alone, so the
    # classes do not see a key that misses a relabelling: relabel the lifted
    # gluing list in each of the 96 ways, the other piece by some label map
    # and a nonzero level shift, and read its quotient slots back
    if rule == "crossed":
        monkeypatch.setattr(decomposition, "_STEP_RULE", _CROSSED_QUADS)
    dec = build_decomposition(n, k)
    key = symmetry._canonical_table(dec)
    for q0, l0, e in itertools.product((0, 1), range(24), (1, -1)):
        table = _relabelled(dec, q0, l0, (7 * l0 + 5) % 24, e, 1 + l0 % (n - 1))
        assert symmetry._canonical_table(table) == key, (q0, l0, e)
    # one gluing moved by one level, at either end, is another table
    for s in range(8):
        s2, volt = dec.slot_nbr[s], list(dec.slot_volt)
        volt[s], volt[s2] = (volt[s] + 1) % n, (volt[s2] - 1) % n
        moved = _SlotTable(n, dec.slot_nbr, dec.slot_lmap, tuple(volt))
        assert symmetry._canonical_table(moved) != key, s


def test_classification_examples():
    assert classify(7).classes == ((0, 6), (1, 5), (2, 4), (3,))
    assert classify(4).classes == ((0, 3), (1, 2))
    assert classify(6).classes == ((0, 5), (1, 4), (2, 3))


def test_candidate_maps_case1():
    dec = build_decomposition(5, 1)
    # away from the special cells only the identity seed (an automorphism)
    # and the mirror (onto step 3) extend
    assert [extend_seed(dec, *seed)[1] for seed in CANDIDATE_SEEDS] == [1, 3] + [None] * 6


def test_candidate_maps_selfdual_subcase22():
    dec = build_decomposition(9, 4)
    assert [extend_seed(dec, *seed)[1] for seed in CANDIDATE_SEEDS] == [4] * 8


def _phi_identities(dec):
    # each identity as equality of extended maps, the right factor applied
    # first; None when either side does not extend
    phi = [extend_seed(dec, *seed)[0] for seed in CANDIDATE_SEEDS]

    def after(i, inner):  # phi_i, extended from the target of inner, after inner
        if inner is None:
            return None
        outer = extend_seed(Decomposition(*inner.target), *CANDIDATE_SEEDS[i])[0]
        return None if outer is None else compose(outer, inner)

    def equal(x, y):
        return None if x is None or y is None else x == y

    return {
        "phi3 = phi1 . phi2": equal(phi[3], after(1, phi[2])),
        "phi4 = phi1 . phi5": equal(phi[4], after(1, phi[5])),
        "phi5 = phi2 . r^-k-1": equal(phi[5], after(2, rotation(dec, -(dec.k + 1)))),
        "phi6 = phi2 . phi4": equal(phi[6], after(2, phi[4])),
        "phi7 = phi5 . t": equal(phi[7], after(5, flip_iso(dec))),
    }


def test_candidate_identity_relations():
    out = _phi_identities(build_decomposition(9, 4))
    assert all(v is True for v in out.values()), out
    out = _phi_identities(build_decomposition(6, 1))
    assert all(v in (True, None) for v in out.values())
    assert out["phi5 = phi2 . r^-k-1"] is True


def test_every_automorphism_has_candidate_seed_shape():
    # the classical coset reduction: every automorphism is an element of
    # the dihedral subgroup composed with one of the eight candidates;
    # verified as an output of the full search
    flip_v = (3, 2, 1, 0)
    allowed = set()
    for _, v in CANDIDATE_SEEDS:
        allowed.add(tuple(v))
        allowed.add(tuple(flip_v[v[x]] for x in range(4)))
    for (n, k) in [(4, 0), (5, 2), (6, 1), (9, 4)]:
        aut = automorphism_group(build_decomposition(n, k))
        for e in aut.elements:
            assert e.vertex_maps[0] in allowed


def test_enumerated_isomorphisms_preserve_class_invariants():
    # necessary condition used as a soundness check on the search
    for (n, k) in [(5, 2), (6, 1), (9, 4)]:
        dec = build_decomposition(n, k)
        aut = automorphism_group(dec)
        profile = {}
        for idx, cls in enumerate(dec.edge_classes):
            profile[idx] = (cls.wedge_count, cls.distinct_piece_count)
        for e in aut.elements:
            for idx, cls in enumerate(dec.edge_classes):
                piece, edge = cls.wedges[0]
                target = dec.class_of(*image_wedge(e, piece, edge))
                assert profile[target] == profile[idx]


def test_arc_permutation_values():
    dec = build_decomposition(9, 4)
    aut = automorphism_group(dec)
    r, t, s = aut.generators["r"], aut.generators["t"], aut.generators["s"]
    assert arc_permutation(r, dec) == (0, 2, 3, 1)   # the 3-cycle (1 2 3)
    assert arc_permutation(t, dec) == (0, 3, 2, 1)   # the transposition (1 3)
    assert arc_permutation(s, dec) == (2, 1, 0, 3)   # the transposition (0 2)
    assert arc_permutation(rotation(dec, 0), dec) == (0, 1, 2, 3)


@pytest.mark.parametrize("n,k", [(6, 1), (9, 4)])
def test_arc_permutation_is_homomorphism(n, k):
    dec = build_decomposition(n, k)
    aut = automorphism_group(dec)
    elements = aut.elements[:20]
    for x in elements:
        for y in elements:
            px = arc_permutation(x, dec)
            py = arc_permutation(y, dec)
            pxy = arc_permutation(compose(x, y), dec)
            composed = tuple(px[py[i]] for i in range(4))
            assert pxy == composed


def _edge_parity(aut):
    # the parity of the piece receiving the axis edge of piece 0
    return aut.pieces[0] % 2


def test_edge_parity_values():
    dec = build_decomposition(5, 2)
    aut = automorphism_group(dec)
    assert _edge_parity(rotation(dec, 0)) == 0
    assert _edge_parity(aut.generators["r"]) == 0
    assert _edge_parity(aut.generators["t"]) == 0
    assert _edge_parity(aut.generators["u"]) == 1


def test_edge_parity_homomorphism_on_case1_group():
    dec = build_decomposition(5, 2)
    aut = automorphism_group(dec)
    for x in aut.elements:
        for y in aut.elements:
            assert _edge_parity(compose(x, y)) == (_edge_parity(x) + _edge_parity(y)) % 2


def test_r_equals_utut_for_selfdual_case1():
    dec = build_decomposition(5, 2)
    u = reflection_iso(dec)
    t = flip_iso(dec)
    utut = functools.reduce(compose, (u, t, u, t))
    r = rotation_iso(dec)
    assert (utut.pieces, utut.vertex_maps) == (r.pieces, r.vertex_maps)


def test_extend_seed_unique_target():
    dec = build_decomposition(7, 2)
    iso, k2 = extend_seed(dec, 1, (0, 1, 2, 3))
    assert k2 == 4  # the mirror image step
    assert iso.target == (7, 4)


def test_group_export_shape():
    aut = automorphism_group(build_decomposition(4, 0))
    out = group_to_dict(aut)
    assert out["order"] == 8
    assert out["generators_found"] == ["r", "t"]
    assert len(out["elements"]) == 8
    assert all(len(e["pieces"]) == 8 and len(e["vertex_maps"]) == 8
               for e in out["elements"])
