"""Pure braid words and their images in the k-subset involution groups.

The pure braid group on n strands is generated by b_ij (1 <= i < j <= n) with
the usual commutation and triple-cycle relations.  Two strands doing a full
twist sweep out, for k = 3, one trisecant per triple {i, j, x} and, for k = 4,
one concyclicity event per quadruple; this module implements the resulting
letterwise substitutions

    b_ij -> c_{i,i+1}^-1 ... c_{i,j-1}^-1 c_{i,j}^2 c_{i,j-1} ... c_{i,i+1}

for both target groups (only this conjugation direction satisfies the braid
relations; the test suite certifies that through the parity quotient, which
separates the alternatives).  For k = 3 the block c_{i,j} multiplies the
generators {i, j, x} with x running j+1..n then 1..j-1; for k = 4 the block
factors into the three passing cases ordered by the tangent directions of
the circles involved.  g4_c is the one copy of that order: the parabola
builder expects it, and geometry.g4_word_geometric re-derives it from exact
slopes for the tests.  The image of a word is the concatenation of its
letters' images, so each generator's image is built once per (generator, n,
k) and cached.

For three strands there is also the sharper two-way translation between pure
braids modulo the full twist and even words in three involutive letters
a1, a2, a3: a word records which of the three intervals cut by the two fixed
points the third point crosses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidContext, InvalidPair, NotAGroupElement, ParseError
from .gnk import GnkWord, _check_context
from .words import reduce_involutive


class PBLetter(NamedTuple):
    i: int
    j: int
    sign: int

    def inverse(self) -> "PBLetter":
        return PBLetter(self.i, self.j, -self.sign)


def pb_letter(i: int, j: int, sign: int = 1, *, n: int | None = None) -> PBLetter:
    if not (1 <= i < j):
        raise InvalidPair(f"need 1 <= i < j, got ({i}, {j})")
    if n is not None and j > n:
        raise InvalidPair(f"strand {j} out of range 1..{n}")
    if sign not in (1, -1):
        raise InvalidPair(f"bad sign {sign}")
    return PBLetter(i, j, sign)


@dataclass(frozen=True)
class PBWord:
    n: int
    letters: tuple[PBLetter, ...]

    def __post_init__(self):
        _check_strands(self.n)
        object.__setattr__(self, "letters", tuple(PBLetter(*l) for l in self.letters))
        for l in self.letters:
            pb_letter(l.i, l.j, l.sign, n=self.n)

    @classmethod
    def _unchecked(cls, n: int, letters: tuple[PBLetter, ...]) -> "PBWord":
        """The word PBWord(n, letters) without __post_init__'s checks, for
        words built from the letters of checked words, or from PBLetter
        tuples the package writes or checks itself with 1 <= i < j <= n and
        sign +-1.  Words are checked once, where they enter: the public
        constructor and parse_pb_word."""
        w = object.__new__(cls)
        object.__setattr__(w, "n", n)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[PBLetter]:
        return iter(self.letters)

    def inverse(self) -> "PBWord":
        return PBWord._unchecked(self.n, tuple(l.inverse() for l in reversed(self.letters)))

    def __mul__(self, other: "PBWord") -> "PBWord":
        if self.n != other.n:
            raise InvalidContext("cannot concatenate braid words with different n")
        return PBWord._unchecked(self.n, self.letters + other.letters)

    def __str__(self) -> str:
        return format_pb_word(self)


def _check_strands(n: int) -> None:
    if n < 2:
        raise InvalidContext(f"need at least 2 strands, got n={n}")


class PBRelation(NamedTuple):
    """One printed defining relation, as a pair of equal words."""

    left: PBWord
    right: PBWord
    tag: str


def _w(n: int, *pairs) -> PBWord:
    """The word of the (i, j, sign) triples, which pb_relators writes with
    1 <= i < j <= n and sign 1."""
    return PBWord._unchecked(n, tuple(PBLetter(i, j, s) for i, j, s in pairs))


def pb_relators(n: int) -> list[PBRelation]:
    """The printed defining relations of the pure braid group on n strands.

    Commutations hold for index patterns i<j<k<l (disjoint) and i<k<l<j
    (nested); each triple i<j<k carries the two cyclic equalities
    b_ij b_ik b_jk = b_ik b_jk b_ij = b_jk b_ij b_ik.  The remaining printed
    relation has identical sides, which we emit verbatim under the tag
    ``printed_vacuous`` so callers can skip it.
    """
    if n < 2:
        raise InvalidContext(f"need n >= 2, got {n}")
    out: list[PBRelation] = []
    for p, q, r, s in combinations(range(1, n + 1), 4):
        # i<j<k<l with (i,j)=(p,q), (k,l)=(r,s)
        out.append(PBRelation(_w(n, (p, q, 1), (r, s, 1)), _w(n, (r, s, 1), (p, q, 1)),
                              "commuting_disjoint"))
        # i<k<l<j with (i,j)=(p,s), (k,l)=(q,r)
        out.append(PBRelation(_w(n, (p, s, 1), (q, r, 1)), _w(n, (q, r, 1), (p, s, 1)),
                              "commuting_nested"))
    for i, j, k in combinations(range(1, n + 1), 3):
        a = _w(n, (i, j, 1), (i, k, 1), (j, k, 1))
        b = _w(n, (i, k, 1), (j, k, 1), (i, j, 1))
        c = _w(n, (j, k, 1), (i, j, 1), (i, k, 1))
        out.append(PBRelation(a, b, "triple_cycle"))
        out.append(PBRelation(b, c, "triple_cycle"))
    for i, j, k, l in combinations(range(1, n + 1), 4):
        w = _w(n, (j, l, 1), (k, l, 1), (i, k, 1), (j, k, 1))
        out.append(PBRelation(w, w, "printed_vacuous"))
    return out


# ---------------------------------------------------------------------------
# Passing blocks c_{i,j} for k = 3 and k = 4.

def g3_c(i: int, j: int, n: int) -> GnkWord:
    """The block swept out when strand i passes strand j on the circle:
    one trisecant {i, j, x} per third strand x, with x running j+1..n and
    then 1..j-1 (x = i is skipped: a letter needs three distinct indices)."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise InvalidPair(f"need distinct strands in 1..{n}, got ({i}, {j})")
    _check_context(n, 3)
    ks = [x for x in list(range(j + 1, n + 1)) + list(range(1, j)) if x != i]
    return GnkWord._unchecked(n, 3, tuple(tuple(sorted((i, j, x))) for x in ks))


def g4_c_components(i: int, j: int, n: int) -> tuple[GnkWord, GnkWord, GnkWord]:
    """The three sub-blocks of the passing word for k = 4, as (I, II, III).

    A letter {i, j, l, m} records strands l < m concyclic with i and j while
    i passes j; the pairs split by position relative to j and are ordered by
    the tangent-direction sweep (geometry.g4_word_geometric sorts the exact
    slopes and agrees for n = 4..7):

      case I   (l < m < j):  ascending by (m, l);
      case II  (l < j < m):  l descending from j-1, m ascending within each l;
      case III (j < l < m):  l descending from n-1, m descending within each l.

    Pairs touching i or falling outside 1..n are dropped.
    """
    if not (1 <= i < j <= n):
        raise InvalidPair(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    if n < 4:
        raise InvalidContext(f"k = 4 words need n >= 4, got {n}")

    def letter(l: int, m: int) -> tuple[int, ...]:
        return tuple(sorted((i, j, l, m)))

    case1 = [letter(l, m)
             for m in range(1, j) for l in range(1, m)
             if i not in (l, m)]
    case2 = [letter(l, m)
             for l in range(j - 1, 0, -1) for m in range(j + 1, n + 1)
             if i not in (l, m)]
    case3 = [letter(l, m)
             for l in range(n - 1, j, -1) for m in range(n, l, -1)
             if i not in (l, m)]
    return (GnkWord._unchecked(n, 4, tuple(case1)),
            GnkWord._unchecked(n, 4, tuple(case2)),
            GnkWord._unchecked(n, 4, tuple(case3)))


def g4_c(i: int, j: int, n: int) -> GnkWord:
    """Full passing block for k = 4: case II, then I, then III (the order the
    moving strand meets the three families of circles)."""
    c1, c2, c3 = g4_c_components(i, j, n)
    return c2 * c1 * c3


# ---------------------------------------------------------------------------
# The substitution: one conjugation pattern, the block chosen by k.

@cache
def _generator_image(i: int, j: int, n: int, k: int) -> tuple[tuple, tuple]:
    """Images of b_ij and of its inverse in the (n, k) group, as letter
    tuples: A c_ij c_ij A^-1 with the inverse blocks A = c_{i,i+1}^-1 ...
    c_{i,j-1}^-1 on the approach, and that word reversed.  Built once per
    (i, j, n, k) from g3_c or g4_c.  trace._motion_word_g4 passes A forward."""
    block = g3_c if k == 3 else g4_c
    approach = tuple(x for t in range(i + 1, j) for x in block(i, t, n).letters[::-1])
    cij = block(i, j, n).letters
    word = approach + cij + cij + approach[::-1]
    return word, word[::-1]


def _map(w: PBWord, k: int, reduced: bool) -> GnkWord:
    """Concatenate the images of the letters of w; each generator's image
    is built once per (generator, n, k) by _generator_image."""
    letters: list = []
    for i, j, sign in w:
        letters.extend(_generator_image(i, j, w.n, k)[sign < 0])
    out = tuple(letters)
    if reduced:
        out = reduce_involutive(out)
    return GnkWord._unchecked(w.n, k, out)


def map_pb_to_g3(w: PBWord, *, reduced: bool = True) -> GnkWord:
    """Letterwise substitution into the k = 3 group; inverses map to reversed
    words since every generator is an involution."""
    _check_context(w.n, 3)
    return _map(w, 3, reduced)


def map_pb_to_g4(w: PBWord, *, reduced: bool = True) -> GnkWord:
    """Letterwise substitution into the k = 4 group, with the same
    conjugation pattern as the k = 3 map (inverse blocks on the approach);
    the relation checks in the test suite pin this direction down."""
    if w.n < 4:
        raise InvalidContext(f"k = 4 map needs n >= 4, got {w.n}")
    return _map(w, 4, reduced)


# ---------------------------------------------------------------------------
# Three strands: translation to and from even words in three involutions.
#
# Keep strands 1 and 2 fixed; the moving strand 3 crosses the three intervals
# cut out of the line through points 1 and 2 (a1, a2 unbounded, a3 between).
# One orientation convention is fixed once and for all by the generator
# images below; it kills the full twist b12 b13 b23.

EvenLetter = int  # 1, 2, 3
EvenWord = tuple[EvenLetter, ...]

_PB3_IMAGES = {
    (1, 3, 1): (3, 1),
    (2, 3, 1): (2, 3),
    (1, 2, 1): (3, 2, 1, 3),  # inverse of image(b13) * image(b23)
}

_PAIR_TO_PB3 = {
    (3, 1): ((1, 3, 1),),
    (1, 3): ((1, 3, -1),),
    (2, 3): ((2, 3, 1),),
    (3, 2): ((2, 3, -1),),
    (1, 2): ((1, 3, -1), (2, 3, -1)),
    (2, 1): ((2, 3, 1), (1, 3, 1)),
}


def pb3_to_even(w: PBWord) -> EvenWord:
    """Image of a 3-strand pure braid as a reduced even word in a1, a2, a3."""
    if w.n != 3:
        raise InvalidContext(f"this translation needs n = 3, got {w.n}")
    letters: list[int] = []
    for l in w:
        image = _PB3_IMAGES[(l.i, l.j, 1)]
        letters.extend(image if l.sign > 0 else image[::-1])
    return reduce_involutive(letters)


def even_to_pb3(letters: Iterable[EvenLetter]) -> PBWord:
    """Inverse translation: pair up consecutive letters of the reduced word
    and map each pair through the fixed table.  Defined only on words of even
    reduced length (the image subgroup)."""
    word = reduce_involutive(tuple(letters))
    if any(x not in (1, 2, 3) for x in word):
        raise ParseError(f"letters must be in {{1, 2, 3}}, got {word}")
    if len(word) % 2:
        raise NotAGroupElement("odd reduced length: not in the even subgroup")
    out: list[PBLetter] = []
    for t in range(0, len(word), 2):
        out.extend(PBLetter(*l) for l in _PAIR_TO_PB3[word[t], word[t + 1]])
    return PBWord._unchecked(3, tuple(out))


# ---------------------------------------------------------------------------
# Text grammars: `b12` generator, `B12` inverse; even letters `a1 a2 a3`.

_PB_COMPACT = re.compile(r"^([bB])(\d)(\d)$")
_PB_BRACED = re.compile(r"^([bB])\{(\d+),(\d+)\}$")


def parse_pb_word(text: str, n: int) -> PBWord:
    letters = []
    for token in text.split():
        match = _PB_BRACED.match(token) or (_PB_COMPACT.match(token) if n <= 9 else None)
        if not match:
            raise ParseError(f"bad braid token {token!r} for n={n}")
        sign = 1 if match.group(1) == "b" else -1
        i, j = int(match.group(2)), int(match.group(3))
        try:
            letters.append(pb_letter(i, j, sign, n=n))
        except InvalidPair as exc:
            raise ParseError(str(exc)) from None
    _check_strands(n)
    return PBWord._unchecked(n, tuple(letters))


def format_pb_word(w: PBWord) -> str:
    def fmt(l: PBLetter) -> str:
        body = f"{l.i}{l.j}" if w.n <= 9 else f"{{{l.i},{l.j}}}"
        return ("b" if l.sign > 0 else "B") + body

    return " ".join(fmt(l) for l in w)


def parse_even_word(text: str) -> EvenWord:
    letters = []
    for token in text.split():
        if token not in ("a1", "a2", "a3"):
            raise ParseError(f"bad even-word token {token!r}")
        letters.append(int(token[1]))
    return tuple(letters)


def format_even_word(word: Iterable[EvenLetter]) -> str:
    return " ".join(f"a{x}" for x in word)
