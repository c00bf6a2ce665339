"""Presentations of the involution groups indexed by k-element subsets.

For a strand count n and subset size k, the group has one involutive generator
a_m per k-element subset m of {1..n}.  Generators far-commute when their
subsets share at most k-2 indices, and every (k+1)-element subset M with
elements i_1 < ... < i_{k+1} contributes the relator
(a_{M\\{i_1}} ... a_{M\\{i_{k+1}}})^2.

A generator is its own inverse, so words never store formal inverses and the
inverse of a word is its reversal.  Letters are sorted integer tuples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, Iterator

from .errors import InvalidContext, InvalidPair, ParseError
from .words import reduce_involutive

GeneratorIndex = tuple[int, ...]


def _check_context(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise InvalidContext(f"need 1 <= k <= n, got n={n}, k={k}")


@cache
def _check_letter(m: GeneratorIndex, n: int, k: int) -> None:
    """Raise InvalidContext unless m is a letter of the (n, k) group.  The
    outcome is memoised per (m, n, k), so words the package builds from
    letters it has already checked cost one lookup per letter; a rejection
    raises, which the cache does not store, so it is re-checked every time."""
    if len(m) != k or any(m[t] >= m[t + 1] for t in range(k - 1)):
        raise InvalidContext(f"letter {m} is not a strictly increasing {k}-tuple")
    if m[0] < 1 or m[-1] > n:
        raise InvalidContext(f"letter {m} out of range 1..{n}")


@dataclass(frozen=True)
class GnkWord:
    """A word in the (n, k) group: a sequence of k-subset letters."""

    n: int
    k: int
    letters: tuple[GeneratorIndex, ...]

    def __post_init__(self):
        _check_context(self.n, self.k)
        object.__setattr__(self, "letters", tuple(tuple(m) for m in self.letters))
        for m in self.letters:
            _check_letter(m, self.n, self.k)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[GeneratorIndex]:
        return iter(self.letters)

    def reduced(self) -> "GnkWord":
        return GnkWord(self.n, self.k, reduce_involutive(self.letters))

    def inverse(self) -> "GnkWord":
        return GnkWord(self.n, self.k, self.letters[::-1])

    def __mul__(self, other: "GnkWord") -> "GnkWord":
        if (self.n, self.k) != (other.n, other.k):
            raise InvalidContext("cannot concatenate words from different contexts")
        return GnkWord(self.n, self.k, self.letters + other.letters)

    def __str__(self) -> str:
        return format_gnk_word(self)


def generators(n: int, k: int) -> list[GeneratorIndex]:
    """All C(n, k) generator subsets in lexicographic order."""
    _check_context(n, k)
    return [tuple(m) for m in combinations(range(1, n + 1), k)]


def far_commutes(m: GeneratorIndex, m2: GeneratorIndex) -> bool:
    """Generators commute by relation iff the subsets share at most k-2
    indices.  Equal letters are governed by the square relation instead."""
    if len(m) != len(m2):
        raise InvalidContext(f"letters {m} and {m2} have different sizes")
    return len(set(m) & set(m2)) <= len(m) - 2


def relators(n: int, k: int) -> list[GnkWord]:
    """Square, far-commutation and (k+1)-subset relators, as words.

    Order of factors in the (k+1)-subset relator: elements i_1 < ... < i_{k+1}
    of M, with l-th factor a_{M \\ {i_l}}; we square that fixed first factor.
    """
    _check_context(n, k)
    out: list[GnkWord] = []
    gens = generators(n, k)
    for m in gens:
        out.append(GnkWord(n, k, (m, m)))
    for m, m2 in combinations(gens, 2):
        if far_commutes(m, m2):
            out.append(GnkWord(n, k, (m, m2, m, m2)))
    for big in combinations(range(1, n + 1), k + 1):
        factors = tuple(tuple(x for x in big if x != i) for i in big)
        out.append(GnkWord(n, k, factors * 2))
    return out


def c_full(i: int, j: int, n: int, k: int) -> GnkWord:
    """Product of all k-subset generators containing {i, j}, in lexicographic
    order of subsets.  Its square is the image of a full twist of strands i
    and j; the parity data extracted later does not depend on the order, and
    the lexicographic choice makes outputs reproducible."""
    _check_context(n, k)
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise InvalidPair(f"need distinct strands in 1..{n}, got ({i}, {j})")
    others = [x for x in range(1, n + 1) if x not in (i, j)]
    letters = sorted(tuple(sorted((i, j) + extra)) for extra in combinations(others, k - 2))
    return GnkWord(n, k, tuple(letters))


# ---------------------------------------------------------------------------
# Letter token syntax: `a{1,2,3}`, or compact `a123` when n <= 9.

_COMPACT = re.compile(r"^a(\d+)$")
_BRACED = re.compile(r"^a\{(\d+(?:,\d+)*)\}$")


def parse_gnk_letter(token: str, n: int, k: int) -> GeneratorIndex:
    match = _BRACED.match(token)
    if match:
        m = tuple(int(x) for x in match.group(1).split(","))
    else:
        match = _COMPACT.match(token)
        if not match or n > 9:
            raise ParseError(f"bad generator token {token!r} for n={n}")
        m = tuple(int(ch) for ch in match.group(1))
    try:
        _check_letter(m, n, k)
    except InvalidContext as exc:
        raise ParseError(str(exc)) from None
    return m


def parse_gnk_word(text: str, n: int, k: int) -> GnkWord:
    """Parse a word of the (n, k) group: a bad (n, k) raises InvalidContext,
    a malformed or out-of-range letter ParseError."""
    _check_context(n, k)
    return GnkWord(n, k, tuple(parse_gnk_letter(tok, n, k) for tok in text.split()))


def format_gnk_letter(m: Iterable[int], n: int) -> str:
    if n <= 9:
        return "a" + "".join(map(str, m))
    return "a{" + ",".join(map(str, m)) + "}"


def format_gnk_word(word: GnkWord) -> str:
    return " ".join(format_gnk_letter(m, word.n) for m in word.letters)
