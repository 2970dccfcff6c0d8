import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import antidual.cli as cli
from antidual.cli import run_cli
from antidual.decomposition import build_decomposition
from antidual.groups import (
    PRINTED_ORDER_OVER_N,
    MissingGenerator,
    PresentationSyntaxError,
    PresentedGroup,
    _compact,
    concrete_generator,
    coset_enumerate,
    format_presentation,
    isometry_presentation,
    parse_presentation,
    verify_isomorphism,
)
from antidual.symmetry import AutGroupData, automorphism_group
from paper_checks import define_along_relators_enumerate, reference_presentation


def test_parse_and_format_round_trip():
    text = "gens: r,t ; rels: r^5, t^2, (t*r)^2"
    g = parse_presentation(text)
    assert g.generators == ("r", "t")
    assert g.relators == (((0, 5),), ((1, 2),), ((1, 1), (0, 1), (1, 1), (0, 1)))
    again = parse_presentation(format_presentation(g))
    assert again.generators == g.generators
    assert again.relators == g.relators


def test_parse_equations_and_negative_exponents():
    g = parse_presentation("gens: s,r ; rels: s*r^3 = r^3*s, (s*r^-1)^2")
    assert g.relators[0] == ((0, 1), (1, 3), (0, -1), (1, -3))
    assert g.relators[1] == ((0, 1), (1, -1), (0, 1), (1, -1))


def test_power_of_one_generator_is_one_factor():
    assert parse_presentation("gens: r ; rels: r^1000000").relators == (((0, 1000000),),)
    assert parse_presentation("gens: r ; rels: (r^2)^-3").relators == (((0, -6),),)
    with pytest.raises(PresentationSyntaxError, match="empty word"):
        parse_presentation("gens: r ; rels: r^0")


def test_parse_errors():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("rels: r^2")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: r ; rels: q^2")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: r ; rels: (r^2")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: r ; rels: r^0")
    # duplicate name (the first r would be free), not an identifier, and a
    # second gens: section
    for text in ("gens: r,r ; rels: r^2", "gens: r s ; rels: r^2",
                 "gens: r ; gens: s ; rels: s^2"):
        with pytest.raises(PresentationSyntaxError):
            parse_presentation(text)


@pytest.mark.parametrize("text,order", [
    ("gens: r,t ; rels: r^5, t^2, (t*r)^2", 10),
    ("gens: t,u ; rels: t^2, u^2, (u*t)^10", 20),
    ("gens: a,b ; rels: a^3, b^2, (a*b)^2", 6),
    ("gens: a,b ; rels: a^4, b^3, (a*b)^2", 24),   # S4
    ("gens: a,b ; rels: a^2, b^3, (a*b)^5", 60),   # A5
    ("gens: x ; rels: x^12", 12),
    ("gens: a,b ; rels: a^2, b^2, (a*b)^6", 12),
])
def test_coset_enumeration_known_orders(text, order):
    res = coset_enumerate(parse_presentation(text))
    assert res.completed
    assert res.order == order


def test_coset_enumeration_cap():
    free_abelian = parse_presentation("gens: a,b ; rels: a*b*a^-1*b^-1")
    res = coset_enumerate(free_abelian, cap=300)
    assert res.status == "cap_exceeded"
    assert res.order is None
    assert res.group is free_abelian


def test_cap_binds_at_the_group_order():
    # the dihedral group of order 10 fills its table with exactly 10 cosets
    dihedral = parse_presentation("gens: r,t ; rels: r^5, t^2, (t*r)^2")
    res = coset_enumerate(dihedral, cap=10)
    assert res.completed and res.order == 10 and res.cosets_used == 10
    res = coset_enumerate(dihedral, cap=9)
    assert res.status == "cap_exceeded" and res.order is None
    # a generator no relator mentions is enumerated too: Z * Z/2 is infinite
    res = coset_enumerate(parse_presentation("gens: r,v ; rels: v^2"), cap=300)
    assert res.status == "cap_exceeded"


def _first_cells(n_max):
    """The first (n, k) of each distinct isometry presentation up to n_max."""
    first = {}
    for n in range(4, n_max + 1):
        for k in range(n):
            first.setdefault(isometry_presentation(n, k), (n, k))
    return list(first.values())


@pytest.mark.parametrize("n,k", _first_cells(30))
def test_enumeration_matches_the_define_along_relators_oracle(n, k):
    pres = isometry_presentation(n, k)
    res = coset_enumerate(pres)
    oracle = define_along_relators_enumerate(pres)
    assert res.completed and oracle.completed
    assert res.order == oracle.order
    assert res.cosets_used <= oracle.cosets_used


def test_generic_subcase22_enumeration_does_not_grow_with_n():
    # the define-along-the-relator oracle needs 100,310 cosets at (300, 1)
    # and passes the default cap before it completes at (999, 1)
    res = coset_enumerate(isometry_presentation(999, 1))
    assert res.completed and res.order == 24
    assert res.cosets_used < 20_000


def test_enumeration_deterministic():
    g = parse_presentation("gens: a,b ; rels: a^4, b^3, (a*b)^2")
    r1 = coset_enumerate(g)
    r2 = coset_enumerate(g)
    assert (r1.order, r1.cosets_used) == (r2.order, r2.cosets_used)
    assert r1.group is g


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=24))
def test_dihedral_presentations_enumerate_to_2n(n):
    g = parse_presentation(f"gens: r,t ; rels: r^{n}, t^2, (t*r)^2")
    assert coset_enumerate(g).order == 2 * n


def test_isometry_presentation_cases():
    g = isometry_presentation(8, 3)
    assert g.provenance == "case1_generic"
    assert format_presentation(g) == "gens: r,t ; rels: r^8, t^2, t*r*t*r"
    g = isometry_presentation(5, 2)
    assert g.provenance == "case1_selfdual"
    assert g.generators == ("t", "u")
    assert g.relators[2] == ((1, 1), (0, 1)) * 10  # (ut)^(2n)
    g = isometry_presentation(6, 2)
    assert g.provenance == "subcase21"
    g = isometry_presentation(6, 1)
    assert g.provenance == "subcase22_generic"
    # m=2, l=0 gives exponent 3(m-2l-2) = 0, so the closing relator is (str)^3
    assert g.relators[-1] == ((1, 1), (2, 1), (0, 1)) * 3
    # m=3, l=0 gives (str)^3 = r^3; the parser merges the closing r*r^-3
    g = isometry_presentation(9, 1)
    assert g.relators[-1] == ((1, 1), (2, 1), (0, 1)) * 2 + ((1, 1), (2, 1), (0, -2))
    g = isometry_presentation(9, 4)
    assert g.provenance == "subcase22_selfdual"
    assert g.generators == ("s", "t", "u")


_CELLS_TO_60 = [(n, k) for n in range(4, 61) for k in range(n)]


def test_printed_table_matches_the_reference_presentations():
    # the parsed table against the word-by-word builder, on every cell with
    # n <= 60; the parser merges adjacent powers, the builder does not
    for n, k in _CELLS_TO_60:
        g, ref = isometry_presentation(n, k), reference_presentation(n, k)
        assert g.generators == ref.generators, (n, k)
        assert g.provenance == ref.provenance, (n, k)
        assert g.relators == tuple(tuple(_compact(list(w))) for w in ref.relators), (n, k)


def test_printed_presentations_round_trip_through_text():
    for g in {isometry_presentation(n, k) for n, k in _CELLS_TO_60}:
        assert parse_presentation(format_presentation(g)).relators == g.relators


def test_printed_order_table_follows_the_printed_case_split():
    # the classification's printed orders, case by case (a test-side copy)
    def printed(n, k):
        if n % 3 == 0 and k % 3 == 1:
            m, l = n // 3, (k - 1) // 3
            return 48 * m if m % 2 == 1 and l == (m - 1) // 2 else 24 * m
        if n % 3 != 0 and n % 2 == 1 and k == (n - 1) // 2:
            return 4 * n
        return 2 * n

    tags = set()
    for n in range(4, 31):
        for k in range(n):
            tag = isometry_presentation(n, k).provenance
            tags.add(tag)
            assert n * PRINTED_ORDER_OVER_N[tag] == printed(n, k), (n, k)
    assert tags == set(PRINTED_ORDER_OVER_N)


@pytest.mark.parametrize("n,k,order", [
    (4, 0, 8), (8, 3, 16), (5, 2, 20), (7, 3, 28), (6, 2, 12),
])
def test_dihedral_family_presentation_orders(n, k, order):
    res = coset_enumerate(isometry_presentation(n, k))
    assert res.completed and res.order == order


def test_subcase22_presentation_orders_on_record():
    # the printed generic presentation has order 48 for even m and 24 for
    # odd m >= 3, never 24m beyond m = 2; the self-dual one is always 48;
    # see notes/decisions.md
    assert coset_enumerate(isometry_presentation(6, 1)).order == 48
    assert coset_enumerate(isometry_presentation(9, 1)).order == 24
    assert coset_enumerate(isometry_presentation(12, 1)).order == 48
    assert coset_enumerate(isometry_presentation(9, 4)).order == 48
    assert coset_enumerate(isometry_presentation(15, 7)).order == 48


@pytest.mark.parametrize("n,k", [(4, 0), (5, 2), (8, 3), (6, 0), (6, 2), (6, 1)])
def test_verify_isomorphism_green_cells(n, k):
    dec = build_decomposition(n, k)
    aut = automorphism_group(dec)
    pres = isometry_presentation(n, k)
    cert = verify_isomorphism(coset_enumerate(pres), aut, dec)
    assert cert.relators_hold
    assert cert.surjective
    assert cert.order_matches is True
    assert cert.verdict


def test_verify_isomorphism_negative_control():
    # a deliberately wrong relator must fail the relator check
    dec = build_decomposition(5, 2)
    aut = automorphism_group(dec)
    wrong = parse_presentation("gens: t,u ; rels: t^2, u^2, (u*t)^8")
    cert = verify_isomorphism(coset_enumerate(wrong), aut, dec)
    assert not cert.relators_hold
    assert not cert.verdict


def _isom_group_exit_code(monkeypatch, capsys, aut, enum):
    """The exit code of ``isom-group`` on (6,1), given its group and enumeration."""
    monkeypatch.setattr(cli, "automorphism_group", lambda dec: aut)
    monkeypatch.setattr(cli, "coset_enumerate", lambda pres, cap: enum)
    code = run_cli(["isom-group", "--n", "6", "--k", "1"])
    capsys.readouterr()
    return code


def test_surjective_fails_on_a_group_larger_than_the_images_generate(monkeypatch, capsys):
    # the group and the enumeration both claim twice the true order, so only
    # the images generating the whole group can fail
    dec = build_decomposition(6, 1)
    aut = automorphism_group(dec)
    enum = coset_enumerate(isometry_presentation(6, 1))
    doubled = dataclasses.replace(aut, order=2 * aut.order)
    enum = dataclasses.replace(enum, order=2 * enum.order)
    cert = verify_isomorphism(enum, doubled, dec)
    assert cert.relators_hold and cert.order_matches is True
    assert not cert.surjective
    assert not cert.verdict
    assert _isom_group_exit_code(monkeypatch, capsys, doubled, enum) == 1


def test_order_matches_fails_on_a_wrong_enumerated_order(monkeypatch, capsys):
    dec = build_decomposition(6, 1)
    aut = automorphism_group(dec)
    enum = coset_enumerate(isometry_presentation(6, 1))
    wrong = dataclasses.replace(enum, order=enum.order + 1)
    cert = verify_isomorphism(wrong, aut, dec)
    assert cert.relators_hold and cert.surjective
    assert cert.order_matches is False
    assert not cert.verdict
    assert _isom_group_exit_code(monkeypatch, capsys, aut, wrong) == 1


def test_verify_isomorphism_missing_generator():
    dec = build_decomposition(9, 1)
    aut = automorphism_group(dec)
    pres = isometry_presentation(9, 1)
    with pytest.raises(MissingGenerator) as exc:
        verify_isomorphism(coset_enumerate(pres), aut, dec)
    assert str(exc.value) == "half-turn s is not an automorphism here"
    # the group is infinite; verify_isomorphism raises before it reads the
    # order, so a small cap spares enumerating up to the default one
    pres = parse_presentation("gens: r,v ; rels: v^2")
    with pytest.raises(MissingGenerator) as exc:
        verify_isomorphism(coset_enumerate(pres, cap=100), aut, dec)
    assert str(exc.value) == "no concrete automorphism known for 'v'"
    dec = build_decomposition(6, 2)
    aut = automorphism_group(dec)
    pres = isometry_presentation(5, 2)  # wants u
    with pytest.raises(MissingGenerator) as exc:
        verify_isomorphism(coset_enumerate(pres), aut, dec)
    assert str(exc.value) == "mirror u maps step 2 to step 3, not an automorphism"
    unidentified = AutGroupData(base=(), order=0,
                                generators=dict.fromkeys("rtus"))
    with pytest.raises(MissingGenerator) as exc:
        concrete_generator("r", dec, unidentified)
    assert str(exc.value) == "generator 'r' not in the enumerated group"


def test_selfdual_subcase22_certificate_records_failures():
    # the printed (ut)^6 relator fails on the geometric generators (u t has
    # order 2n) and the presentation order 48 cannot match |Aut| = 144
    dec = build_decomposition(9, 4)
    aut = automorphism_group(dec)
    pres = isometry_presentation(9, 4)
    cert = verify_isomorphism(coset_enumerate(pres), aut, dec)
    assert not cert.relators_hold
    assert cert.surjective          # s, t, u do generate the group
    assert cert.order_matches is False
    assert not cert.verdict


@pytest.mark.parametrize("n,k", [(18, 4), (18, 13), (30, 7), (30, 22)])
def test_generic_subcase22_relators_corrected_beyond_m2(n, k):
    # where s exists and n > 6, s inverts r^3 and (str)^3 = r^(2k+4), so the
    # printed s*r^3 = r^3*s and (str)^3 = r^(3(m-2l-2)) both fail; with the
    # two corrected the presentation certifies |Aut| = 8n; see
    # notes/decisions.md
    dec = build_decomposition(n, k)
    aut = automorphism_group(dec)
    pres = isometry_presentation(n, k)
    printed = verify_isomorphism(coset_enumerate(pres), aut, dec)
    assert printed.relator_results == (True,) * 5 + (False, False)
    corrected = parse_presentation(
        f"gens: r,s,t ; rels: r^{n}, s^2, t^2, (t*r)^2, (s*t)^2, "
        f"s*r^3*s*r^3, (s*t*r)^3 = r^{2 * k + 4}")
    cert = verify_isomorphism(coset_enumerate(corrected), aut, dec)
    assert aut.order == 8 * n
    assert cert.verdict and cert.order_matches is True


@pytest.mark.parametrize("n,k", [(9, 4), (15, 7), (21, 10), (27, 13)])
def test_selfdual_subcase22_relator_corrected_to_ut_order_2n(n, k):
    # the printed (ut)^6 fails at every self-dual subcase-2.2 cell; with
    # (ut)^(2n) the presentation certifies |Aut| = 16n = 48m
    dec = build_decomposition(n, k)
    aut = automorphism_group(dec)
    pres = isometry_presentation(n, k)
    printed = verify_isomorphism(coset_enumerate(pres), aut, dec)
    assert printed.relator_results == (True,) * 4 + (False, True)
    corrected = parse_presentation(
        f"gens: s,t,u ; rels: s^2, t^2, u^2, (s*t)^2, (u*t)^{2 * n}, "
        "s*u*s*u*s = t*u*t*u*t")
    cert = verify_isomorphism(coset_enumerate(corrected), aut, dec)
    assert aut.order == 16 * n
    assert cert.verdict and cert.order_matches is True


def test_presented_group_validation():
    with pytest.raises(Exception):
        PresentedGroup(("a",), (((0, 1), (1, 1)),))  # unknown generator index
    with pytest.raises(Exception):
        PresentedGroup(("a",), (((0, 0),),))  # zero exponent
    with pytest.raises(Exception):
        PresentedGroup(("a",), ((),))  # empty relator
    with pytest.raises(PresentationSyntaxError, match="duplicate generator"):
        PresentedGroup(("r", "t", "r"), (((0, 2),),))
