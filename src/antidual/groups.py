"""Finitely presented groups, coset enumeration, and isometry-group audits.

Presentations are kept exactly as the classification states them, with
exponent expressions in (m, l) substituted but not otherwise reduced; the
enumerator is the only place words get normalised.  Orders are computed by
Todd-Coxeter enumeration over the trivial subgroup with a hard coset cap,
since a presentation under test could in principle be infinite; each command
enumerates each distinct presentation once and hands the result to
``verify_isomorphism``.

The text format for presentations is ``gens: r,t ; rels: r^5, t^2, (t*r)^2``
(whitespace-insensitive; ``^`` exponents possibly negative, ``*``
concatenation, parentheses, and ``lhs = rhs`` equations allowed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .symmetry import AutGroupData, CombIso, generated_subgroup
from .decomposition import Decomposition

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

    @property
    def completed(self) -> bool:
        return self.status == "completed"


# -- parsing / formatting ----------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\^|\*|\(|\)|=|-?\d+|,)")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise PresentationSyntaxError(f"bad token at: {text[pos:pos+12]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


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


class _WordParser:
    def __init__(self, tokens: list[str], gen_index: dict[str, int]):
        self.toks = tokens
        self.pos = 0
        self.gens = gen_index

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_word(self) -> list[tuple[int, int]]:
        factors = self.parse_term()
        while self.peek() == "*":
            self.take()
            factors += self.parse_term()
        return factors

    def parse_term(self) -> list[tuple[int, int]]:
        tok = self.take()
        if tok == "(":
            inner = self.parse_word()
            if self.take() != ")":
                raise PresentationSyntaxError("unbalanced parentheses")
        elif tok is not None and tok in self.gens:
            inner = [(self.gens[tok], 1)]
        else:
            raise PresentationSyntaxError(f"expected generator or '(', got {tok!r}")
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            try:
                exp = int(exp_tok)
            except (TypeError, ValueError):
                raise PresentationSyntaxError(f"bad exponent {exp_tok!r}") from None
            if exp == 0:
                return []
            if exp < 0:
                inner = _invert(inner)
                exp = -exp
            return inner * exp
        return inner


def _parse_relator(text_tokens: list[str], gen_index: dict[str, int]) -> Word:
    # split on '=' into at most two sides; lhs = rhs becomes lhs * rhs^-1
    if "=" in text_tokens:
        eq = text_tokens.index("=")
        lhs, rhs = text_tokens[:eq], text_tokens[eq + 1:]
        if "=" in rhs:
            raise PresentationSyntaxError("chained '=' in relator")
        pl = _WordParser(lhs, gen_index)
        left = pl.parse_word()
        if pl.peek() is not None:
            raise PresentationSyntaxError(f"trailing tokens {pl.toks[pl.pos:]}")
        pr = _WordParser(rhs, gen_index)
        right = pr.parse_word()
        if pr.peek() is not None:
            raise PresentationSyntaxError(f"trailing tokens {pr.toks[pr.pos:]}")
        word = left + _invert(right)
    else:
        p = _WordParser(text_tokens, gen_index)
        word = p.parse_word()
        if p.peek() is not None:
            raise PresentationSyntaxError(f"trailing tokens {p.toks[p.pos:]}")
    word = _compact(word)
    if not word:
        raise PresentationSyntaxError("relator reduces to the empty word")
    return tuple(word)


def parse_presentation(text: str, provenance: str = "parsed") -> PresentedGroup:
    parts = text.split(";")
    gens: list[str] = []
    rel_chunks: list[str] = []
    for part in parts:
        stripped = part.strip()
        if stripped.startswith("gens:"):
            gens = [g.strip() for g in stripped[len("gens:"):].split(",") if g.strip()]
        elif stripped.startswith("rels:"):
            rel_chunks.append(stripped[len("rels:"):])
        elif stripped:
            raise PresentationSyntaxError(f"unknown section {stripped[:20]!r}")
    if not gens:
        raise PresentationSyntaxError("no generators declared")
    gen_index = {g: i for i, g in enumerate(gens)}
    relators = []
    for chunk in rel_chunks:
        # split top-level commas (no commas occur inside parentheses here)
        depth = 0
        cur = ""
        items = []
        for ch in chunk:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                items.append(cur)
                cur = ""
            else:
                cur += ch
        if cur.strip():
            items.append(cur)
        for item in items:
            relators.append(_parse_relator(_tokenize(item), gen_index))
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


# The printed group order over n, per ``isometry_presentation`` provenance tag;
# the subcase-2.2 entries are wrong on most cells (notes/decisions.md).
PRINTED_ORDER_OVER_N = {
    "case1_generic": 2,
    "subcase21": 2,
    "case1_selfdual": 4,
    "subcase22_generic": 8,
    "subcase22_selfdual": 16,
}


def _w(*factors: tuple[int, int]) -> Word:
    return tuple((g, e) for g, e in factors if e != 0)


def isometry_presentation(n: int, k: int) -> PresentedGroup:
    """The presentation the classification assigns to the (n, k) quotient.

    Exponent expressions in m = n/3 and l = (k-1)/3 are substituted
    literally; nothing else is simplified.
    """
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
                sus + tuple(_invert(list(tut))),
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


# -- Todd-Coxeter -------------------------------------------------------------

_UNSET = -1


class _CosetGraph:
    """Schreier coset graph with a union-find over vertex labels."""

    def __init__(self, n_letters: int):
        self.n_letters = n_letters
        self.labels: list[int] = []
        self.rows: list[list[int]] = []
        self.add_vertex()

    def add_vertex(self) -> int:
        c = len(self.labels)
        self.labels.append(c)
        self.rows.append([_UNSET] * self.n_letters)
        return c

    def find(self, c: int) -> int:
        labels = self.labels
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def unify(self, c1: int, c2: int):
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
                if nb == _UNSET:
                    continue
                if row_a[d] == _UNSET:
                    row_a[d] = nb
                else:
                    stack.append((row_a[d], nb))

    def follow_step(self, c: int, letter: int) -> int:
        c = self.find(c)
        row = self.rows[c]
        if row[letter] == _UNSET:
            d = self.add_vertex()
            row[letter] = d
            # register the inverse edge so g and g^-1 stay consistent
            self.rows[d][letter ^ 1] = c
        return self.find(row[letter])

    def follow_word(self, c: int, letters: tuple[int, ...]) -> int:
        for letter in letters:
            c = self.follow_step(c, letter)
        return c

    def live_count(self) -> int:
        return sum(1 for i, lbl in enumerate(self.labels) if i == lbl)


def _word_letters(word: Word) -> tuple[int, ...]:
    # letter 2g is the generator, 2g+1 its inverse
    out: list[int] = []
    for g, e in word:
        letter = 2 * g if e > 0 else 2 * g + 1
        out.extend([letter] * abs(e))
    return tuple(out)


def coset_enumerate(group: PresentedGroup, cap: int = DEFAULT_COSET_CAP) -> EnumerationResult:
    """Order of the group by coset enumeration over the trivial subgroup.

    Deterministic for a fixed presentation and cap.  The cap bounds the
    total number of cosets ever allocated (live plus collapsed); exceeding
    it yields status "cap_exceeded" rather than an error.
    """
    if cap < 1:
        raise GroupError(f"cap must be >= 1, got {cap}")
    n_letters = 2 * len(group.generators)
    rel_letters = [_word_letters(w) for w in group.relators]
    # inverse relations g g^-1 = g^-1 g = 1
    for g in range(len(group.generators)):
        rel_letters.append((2 * g, 2 * g + 1))
        rel_letters.append((2 * g + 1, 2 * g))
    graph = _CosetGraph(n_letters)
    to_visit = 0
    while to_visit < len(graph.labels):
        if len(graph.labels) > cap:
            return EnumerationResult("cap_exceeded", None, len(graph.labels))
        c = graph.find(to_visit)
        if c == to_visit:
            for rel in rel_letters:
                graph.unify(graph.follow_word(c, rel), c)
        to_visit += 1
    return EnumerationResult("completed", graph.live_count(), len(graph.labels))


# -- matching presentations against automorphism groups -----------------------


@dataclass(frozen=True)
class IsomorphismCertificate:
    generator_images: tuple[str, ...]
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


def _evaluate_word(word: Word, images: dict[int, CombIso], identity: CombIso) -> CombIso:
    result = identity
    for g, e in word:
        factor = images[g] if e > 0 else images[g].inverse()
        for _ in range(abs(e)):
            result = result.compose(factor)
    return result


def verify_isomorphism(
    group: PresentedGroup,
    aut: AutGroupData,
    dec: Decomposition,
    enumerated: EnumerationResult,
) -> IsomorphismCertificate:
    """Check the presentation against the enumerated automorphism group.

    Maps each presentation generator to its geometric automorphism, checks
    every relator evaluates to the identity, that the images generate the
    whole group, and that the order in ``enumerated``, the caller's
    ``coset_enumerate(group)``, equals the group order unless it hit its cap.
    """
    identity = CombIso.identity(dec)
    images = {
        i: concrete_generator(name, dec, aut)
        for i, name in enumerate(group.generators)
    }
    relator_results = tuple(
        _evaluate_word(w, images, identity).is_identity() for w in group.relators
    )
    relators_hold = all(relator_results)
    generated = len(generated_subgroup(images.values(), identity)[1])
    surjective = generated == aut.order
    order_matches = enumerated.order == aut.order if enumerated.completed else None
    verdict = relators_hold and surjective and order_matches is not False
    return IsomorphismCertificate(
        generator_images=tuple(group.generators),
        relator_results=relator_results,
        relators_hold=relators_hold,
        generated_order=generated,
        surjective=surjective,
        order_matches=order_matches,
        verdict=verdict,
    )
