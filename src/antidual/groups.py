"""Finitely presented groups, coset enumeration, and isometry-group audits.

Presentations are kept exactly as the classification states them, as text
with exponent expressions in (m, l) substituted; the parser merges adjacent
powers.  Orders are computed by Todd-Coxeter enumeration over the trivial
subgroup, HLT style: each coset in turn scans every relator from both ends,
deduces an entry where one letter is missing and defines a coset only where
more are.  Every entry is written with its inverse entry, so no g g^-1
relators are needed.  The enumeration reads nothing from the automorphism
group, so its order is an independent check of it; a hard coset cap stops
it, since a presentation under test could in principle be infinite.  An
enumeration carries its presentation.  Each command enumerates each distinct
presentation once and hands the result to ``verify_isomorphism``, which
evaluates each relator on the seed of the automorphism it names (the image
of piece 0 and its label map), one O(1) step per letter, since an
automorphism is determined by its seed.

The text format for presentations is ``gens: r,t ; rels: r^5, t^2, (t*r)^2``
(whitespace-insensitive; ``^`` exponents possibly negative, ``*``
concatenation, parentheses, and ``lhs = rhs`` equations allowed).  Sections
are split on ``;``, and each ``rels:`` section is read by one recursive
descent once every section is, so ``gens:`` may come last.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .symmetry import AutGroupData, CombIso, generated_subgroup
from .decomposition import PERM_PRODUCT, Decomposition

DEFAULT_COSET_CAP = 10**6

# a word is a tuple of (generator index, nonzero exponent) factors
Word = tuple[tuple[int, int], ...]


class GroupError(ValueError):
    pass


class PresentationSyntaxError(GroupError):
    pass


class MissingGenerator(GroupError):
    """A presentation generator has no concrete automorphism to map to."""


@dataclass(frozen=True)
class PresentedGroup:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    provenance: str = ""

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise PresentationSyntaxError(f"duplicate generator name in {self.generators}")
        for rel in self.relators:
            if not rel:
                raise GroupError("empty relator")
            for g, e in rel:
                if not 0 <= g < len(self.generators):
                    raise GroupError(f"relator uses unknown generator {g}")
                if e == 0:
                    raise GroupError("zero exponent in stored relator")


@dataclass(frozen=True)
class EnumerationResult:
    status: str                 # "completed" | "cap_exceeded"
    order: int | None
    cosets_used: int
    group: PresentedGroup       # the presentation enumerated

    @property
    def completed(self) -> bool:
        return self.status == "completed"


# -- parsing / formatting ----------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# a token, or (second group) a character no token starts with
_TOKEN = re.compile(rf"({_NAME.pattern}|\^|\*|\(|\)|=|-?\d+|,)|(\S)")


def _invert(word: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(g, -e) for g, e in reversed(word)]


def _compact(word: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # merge adjacent powers of the same generator; exponents add
    out: list[tuple[int, int]] = []
    for g, e in word:
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            if merged == 0:
                out.pop()
            else:
                out[-1] = (g, merged)
        elif e != 0:
            out.append((g, e))
    return out


def _parse_relators(text: str, gen_index: dict[str, int]) -> list[Word]:
    """The relators of one ``rels:`` section, by recursive descent::

        relators := [relator (',' relator)* [',']]
        relator  := word ['=' word]          (lhs = rhs is lhs * rhs^-1)
        word     := term ('*' term)*
        term     := (generator | '(' word ')') ['^' integer]
    """
    toks = []
    for m in _TOKEN.finditer(text):
        if m.group(2):
            raise PresentationSyntaxError(f"bad token at: {text[m.start():m.start() + 12]!r}")
        toks.append(m.group(1))
    pos = 0

    def take() -> str | None:
        nonlocal pos
        pos += 1
        return toks[pos - 1] if pos <= len(toks) else None

    def peek() -> str | None:
        return toks[pos] if pos < len(toks) else None

    def word() -> list[tuple[int, int]]:
        factors = term()
        while peek() == "*":
            take()
            factors += term()
        return factors

    def term() -> list[tuple[int, int]]:
        tok = take()
        if tok == "(":
            inner = word()
            if take() != ")":
                raise PresentationSyntaxError("unbalanced parentheses")
        elif tok != "=" and tok in gen_index:  # '=' only ever splits a relator
            inner = [(gen_index[tok], 1)]
        else:
            raise PresentationSyntaxError(f"expected generator or '(', got {tok!r}")
        if peek() != "^":
            return inner
        take()
        exp_tok = take()
        try:
            exp = int(exp_tok)
        except (TypeError, ValueError):
            raise PresentationSyntaxError(f"bad exponent {exp_tok!r}") from None
        if len(inner) == 1:  # a power of one generator stays one factor
            (g, a), = inner
            return [(g, a * exp)]
        return (inner if exp > 0 else _invert(inner)) * abs(exp)

    relators = []
    while pos < len(toks):
        factors = word()
        if peek() == "=":
            take()
            factors += _invert(word())
        relator = _compact(factors)
        if not relator:
            raise PresentationSyntaxError("relator reduces to the empty word")
        relators.append(tuple(relator))
        if take() not in (",", None):
            raise PresentationSyntaxError(f"trailing tokens {toks[pos - 1:]}")
    return relators


def parse_presentation(text: str, provenance: str = "parsed") -> PresentedGroup:
    gens: list[str] | None = None
    sections: list[str] = []
    for part in text.split(";"):
        part = part.strip()
        if part.startswith("gens:"):
            if gens is not None:
                raise PresentationSyntaxError("second gens: section")
            gens = [g.strip() for g in part[len("gens:"):].split(",") if g.strip()]
        elif part.startswith("rels:"):
            sections.append(part[len("rels:"):])
        elif part:
            raise PresentationSyntaxError(f"unknown section {part[:20]!r}")
    if not gens:
        raise PresentationSyntaxError("no generators declared")
    for g in gens:
        if not _NAME.fullmatch(g):
            raise PresentationSyntaxError(f"generator name {g!r} is not an identifier")
    # relators are read once every section is, so gens may follow rels
    gen_index = {g: i for i, g in enumerate(gens)}
    relators = [w for section in sections for w in _parse_relators(section, gen_index)]
    return PresentedGroup(tuple(gens), tuple(relators), provenance)


def format_word(word: Word, gens: tuple[str, ...]) -> str:
    parts = []
    for g, e in word:
        parts.append(gens[g] if e == 1 else f"{gens[g]}^{e}")
    return "*".join(parts)


def format_presentation(g: PresentedGroup) -> str:
    rels = ", ".join(format_word(w, g.generators) for w in g.relators)
    return f"gens: {','.join(g.generators)} ; rels: {rels}"


# -- the classification's presentations --------------------------------------


# The classification as printed, per ``isometry_presentation`` provenance tag:
# the group order over n and the presentation, whose exponents are the format
# fields n, two_n = 2n and e = 3(m - 2l - 2).  The subcase-2.2 rows are wrong
# on most cells (notes/decisions.md).
PRINTED_TABLE = {
    "case1_generic": (2, "gens: r,t ; rels: r^{n}, t^2, (t*r)^2"),
    "subcase21": (2, "gens: r,t ; rels: r^{n}, t^2, (t*r)^2"),
    "case1_selfdual": (4, "gens: t,u ; rels: t^2, u^2, (u*t)^{two_n}"),
    "subcase22_generic": (8, "gens: r,s,t ; rels: r^{n}, s^2, t^2, (t*r)^2, (s*t)^2, "
                             "s*r^3 = r^3*s, (s*t*r)^3 = r^{e}"),
    "subcase22_selfdual": (16, "gens: s,t,u ; rels: s^2, t^2, u^2, (s*t)^2, (u*t)^6, "
                               "(s*u)^2*s = (t*u)^2*t"),
}

PRINTED_ORDER_OVER_N = {tag: order for tag, (order, _) in PRINTED_TABLE.items()}


@functools.cache
def _parse_row(text: str, tag: str) -> PresentedGroup:
    return parse_presentation(text, provenance=tag)


def isometry_presentation(n: int, k: int) -> PresentedGroup:
    """The presentation the classification assigns to the (n, k) quotient:
    its ``PRINTED_TABLE`` row with n = 3m, k = 3l + 1 substituted, parsed
    once per distinct text."""
    if n < 4 or not 0 <= k <= n - 1:
        raise GroupError(f"invalid family parameters ({n},{k})")
    m, l = n // 3, (k - 1) // 3
    if n % 3:
        tag = "case1_selfdual" if n % 2 == 1 and k == (n - 1) // 2 else "case1_generic"
    elif k % 3 != 1:
        tag = "subcase21"
    elif m % 2 == 1 and l == (m - 1) // 2:
        tag = "subcase22_selfdual"
    else:
        tag = "subcase22_generic"
    text = PRINTED_TABLE[tag][1].format(n=n, two_n=2 * n, e=3 * (m - 2 * l - 2))
    return _parse_row(text, tag)


# -- Todd-Coxeter -------------------------------------------------------------

_UNSET = -1


class _CosetTable:
    """Coset table over the letters 2g (generator g) and 2g+1 (its inverse).

    Each entry is written together with its inverse entry, so every letter
    acts as a partial injection and c.x = d holds exactly when d.x^-1 = c.
    ``parent`` is a union-find over cosets: c is live when parent[c] == c,
    and once a coincidence is processed the live rows point only at live
    cosets.
    """

    def __init__(self, n_letters: int):
        self.n_letters = n_letters
        self.rows: list[list[int]] = [[_UNSET] * n_letters]
        self.parent = [0]

    def define(self, c: int, x: int):
        d = len(self.rows)
        self.rows.append([_UNSET] * self.n_letters)
        self.parent.append(d)
        self.rows[c][x] = d
        self.rows[d][x ^ 1] = c

    def rep(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def coincidence(self, a: int, b: int):
        """Identify cosets a and b and every pair that this forces; the
        larger of each pair dies and its row is moved onto the smaller."""
        rows, parent, rep = self.rows, self.parent, self.rep
        dead: list[int] = []

        def merge(c: int, d: int):
            c, d = rep(c), rep(d)
            if c != d:
                c, d = min(c, d), max(c, d)
                parent[d] = c
                dead.append(d)

        merge(a, b)
        for gone in dead:  # merge appends while the loop runs
            for x, d in enumerate(rows[gone]):
                if d == _UNSET:
                    continue
                rows[d][x ^ 1] = _UNSET
                c, d = rep(gone), rep(d)
                if rows[c][x] != _UNSET:
                    merge(d, rows[c][x])
                elif rows[d][x ^ 1] != _UNSET:
                    merge(c, rows[d][x ^ 1])
                else:
                    rows[c][x] = d
                    rows[d][x ^ 1] = c

    def scan_and_fill(self, alpha: int, word: tuple[int, ...]):
        """Make alpha . word = alpha hold.  Scan forward from alpha while
        entries are defined, then backward from alpha along the inverse
        word: scans that meet at different cosets are a coincidence, a gap
        of one letter is a deduction, and a longer gap gets one new coset at
        the front before the scan goes on."""
        rows = self.rows
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and (nxt := rows[f][word[i]]) != _UNSET:
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and (nxt := rows[b][word[j] ^ 1]) != _UNSET:
                b = nxt
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                rows[f][word[i]] = b
                rows[b][word[i] ^ 1] = f
                return
            self.define(f, word[i])


def _word_letters(word: Word) -> tuple[int, ...]:
    # letter 2g is the generator, 2g+1 its inverse
    out: list[int] = []
    for g, e in word:
        letter = 2 * g if e > 0 else 2 * g + 1
        out.extend([letter] * abs(e))
    return tuple(out)


def coset_enumerate(group: PresentedGroup, cap: int = DEFAULT_COSET_CAP) -> EnumerationResult:
    """Order of the group by coset enumeration over the trivial subgroup.

    HLT scan-and-fill (Neubueser, LMS Lecture Notes 71, 1982; Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, 5.1): each live
    coset in turn has every relator scanned and filled from it, then every
    entry of its row still undefined is defined, so that a generator no
    relator mentions is enumerated too.  Each definition and deduction also
    writes the inverse entry, so g g^-1 = 1 needs no relator of its own.
    Deterministic for a fixed presentation and cap.  The cap bounds the
    total number of cosets ever allocated (live plus collapsed); exceeding
    it yields status "cap_exceeded" rather than an error.
    """
    if cap < 1:
        raise GroupError(f"cap must be >= 1, got {cap}")
    n_letters = 2 * len(group.generators)
    rel_letters = [_word_letters(w) for w in group.relators]
    table = _CosetTable(n_letters)
    rows, parent = table.rows, table.parent
    alpha = 0
    while alpha < len(rows):
        if len(rows) > cap:
            return EnumerationResult("cap_exceeded", None, len(rows), group)
        for rel in rel_letters:
            if parent[alpha] != alpha:
                break
            table.scan_and_fill(alpha, rel)
        if parent[alpha] == alpha:
            for x in range(n_letters):
                if rows[alpha][x] == _UNSET:
                    table.define(alpha, x)
        alpha += 1
    live = sum(1 for c, p in enumerate(parent) if c == p)
    return EnumerationResult("completed", live, len(rows), group)


# -- matching presentations against automorphism groups -----------------------


@dataclass(frozen=True)
class IsomorphismCertificate:
    relator_results: tuple[bool, ...]
    relators_hold: bool
    generated_order: int
    surjective: bool
    order_matches: bool | None
    verdict: bool


def concrete_generator(name: str, dec: Decomposition, aut: AutGroupData) -> CombIso:
    """The automorphism a presentation generator names, from its geometry.

    r is the rotation, t the top-bottom flip, u the cutting-plane mirror,
    s the half-turn through the slant-edge midpoints of piece 0; each is
    read from ``aut.generators``, which ``automorphism_group`` identifies.
    """
    if name not in aut.generators:
        raise MissingGenerator(f"no concrete automorphism known for {name!r}")
    mirror_k = (dec.n - dec.k - 1) % dec.n
    if name == "u" and mirror_k != dec.k:
        raise MissingGenerator(
            f"mirror u maps step {dec.k} to step {mirror_k}, not an automorphism")
    image = aut.generators[name]
    if image is None:
        if name == "s":
            raise MissingGenerator("half-turn s is not an automorphism here")
        raise MissingGenerator(f"generator {name!r} not in the enumerated group")
    return image


def _evaluate_word(word: Word, images: list[CombIso], inverses: list[CombIso]) -> tuple[int, int]:
    """The seed (image of piece 0, PERMS index of its label map) of the
    automorphism a word names: each factor acts on the seed, right to left,
    in O(1), as in ``generated_subgroup``.  The word is the identity exactly
    when its seed is (0, 0)."""
    p, v = 0, 0
    for g, e in reversed(word):
        factor = images[g] if e > 0 else inverses[g]
        for _ in range(abs(e)):
            p, v = factor.pieces[p], PERM_PRODUCT[24 * factor.lmaps[p] + v]
    return p, v


def verify_isomorphism(
    enumerated: EnumerationResult,
    aut: AutGroupData,
    dec: Decomposition,
) -> IsomorphismCertificate:
    """Check an enumerated presentation against the automorphism group.

    Maps each generator of ``enumerated.group`` to its geometric
    automorphism, checks every relator evaluates to the identity, that the
    images generate the whole group, and that the enumerated order equals
    the group order unless the enumeration hit its cap.
    """
    group = enumerated.group
    images = [concrete_generator(name, dec, aut) for name in group.generators]
    inverses = [g.inverse() for g in images]
    relator_results = tuple(
        _evaluate_word(w, images, inverses) == (0, 0) for w in group.relators
    )
    relators_hold = all(relator_results)
    generated = len(generated_subgroup(images)[1])
    surjective = generated == aut.order
    order_matches = enumerated.order == aut.order if enumerated.completed else None
    verdict = relators_hold and surjective and order_matches is not False
    return IsomorphismCertificate(
        relator_results=relator_results,
        relators_hold=relators_hold,
        generated_order=generated,
        surjective=surjective,
        order_matches=order_matches,
        verdict=verdict,
    )
