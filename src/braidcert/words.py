"""Words in free products of involutions, and the sign-switch toy model.

A word over an involutive alphabet is a plain tuple of hashable letters; every
letter squares to the identity, so the inverse of a word is its reversal and
free reduction cancels adjacent equal letters.  Letters are compared by value
only, which lets one reduction engine serve every alphabet in this package:
three-letter words, k-subset generator words, and parity words whose letters
are bit vectors.

The toy model lives in the free product of three copies of Z with generators
a, b, c.  Its words are sequences of syllables (generator, exponent); the
allowed "switch" move flips the sign of one exponent occurrence, and the
questions are whether switches can trivialise a word and how many are needed.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Sequence

from .errors import InvalidContext, ParseError

Letter = Hashable
Word = tuple

TOY_GENERATORS = ("a", "b", "c")

# Python's default limit on the decimal digits of an int it converts to or
# from text; the command line refuses numbers beyond it, in input and output.
DIGITS_MAX = 4300


def reduce_involutive(letters: Iterable[Letter]) -> Word:
    """Freely reduce a word of involutive letters.

    Single left-to-right pass with a stack; linear time.  The result is the
    unique reduced form, so the cancellation order cannot matter.
    """
    stack: list[Letter] = []
    for x in letters:
        if stack and stack[-1] == x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def cyclic_reduce(letters: Iterable[Letter]) -> Word:
    """Reduce a word as a cyclic word: reduce freely, then strip matching
    first/last letters until none remain (words of length <= 1 stay put)."""
    word = list(reduce_involutive(letters))
    # The interior of a reduced word stays reduced after stripping both ends,
    # but the new ends may now match, hence the loop.
    while len(word) > 1 and word[0] == word[-1]:
        word = word[1:-1]
    return tuple(word)


def complexity(letters: Iterable[Letter]) -> int:
    """Length of the reduced representative."""
    return len(reduce_involutive(letters))


def is_reduced(letters: Sequence[Letter]) -> bool:
    return all(letters[t] != letters[t + 1] for t in range(len(letters) - 1))


# ---------------------------------------------------------------------------
# Toy model: free product of three copies of Z.

ToySyllable = tuple[str, int]
ToyWord = tuple[ToySyllable, ...]


def _check_toy(syllables: Iterable[ToySyllable]) -> list[ToySyllable]:
    out = []
    for gen, exp in syllables:
        if gen not in TOY_GENERATORS:
            raise ParseError(f"unknown toy generator {gen!r}; expected one of {TOY_GENERATORS}")
        out.append((gen, int(exp)))
    return out


def toy_normal_form(syllables: Iterable[ToySyllable]) -> ToyWord:
    """Merge adjacent equal-generator syllables and drop zero exponents,
    cascading until stable.  Empty output iff the element is trivial."""
    stack: list[list] = []
    for gen, exp in _check_toy(syllables):
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


def toy_switch_feasible(syllables: Iterable[ToySyllable]) -> bool:
    """Whether sign switches can trivialise the word.

    Switches preserve the image in the free product of three copies of Z/2
    (exponents mod 2), so the word is switch-trivialisable only if that image
    reduces to the empty word; the converse holds by flipping exponents
    pairwise.
    """
    mod2 = [gen for gen, exp in _check_toy(syllables) if exp % 2]
    return not reduce_involutive(mod2)


def toy_switch_lower_bound(syllables: Iterable[ToySyllable]) -> int:
    """Half the total absolute exponent sum, rounded up.

    One switch moves a single generator's exponent sum by +-2, and a trivial
    word has all three sums equal to zero, so this is a valid lower bound on
    the number of switches.
    """
    totals: Counter = Counter()
    for gen, exp in _check_toy(syllables):
        totals[gen] += exp
    return (sum(abs(v) for v in totals.values()) + 1) // 2


# ---------------------------------------------------------------------------
# Text grammars.

def parse_inv_word(text: str) -> Word:
    """Whitespace-separated letter tokens, each kept as an opaque string."""
    return tuple(text.split())


def format_inv_word(word: Iterable[Letter]) -> str:
    return " ".join(str(x) for x in word)


def parse_toy_word(text: str) -> ToyWord:
    """Tokens ``g^e`` with g in {a, b, c} and e a nonzero signed integer;
    a bare ``g`` means ``g^1``.  An exponent of more than DIGITS_MAX digits
    is refused as too large (InvalidContext) before int() fails on it with a
    parse error that would quote the whole token."""
    syllables = []
    for token in text.split():
        gen, sep, exp_text = token.partition("^")
        if gen not in TOY_GENERATORS:
            raise ParseError(f"bad toy token {token!r}")
        if not sep:
            exp = 1
        else:
            if sum(c.isdecimal() for c in exp_text) > DIGITS_MAX:
                raise InvalidContext(f"a toy exponent has more than {DIGITS_MAX} digits")
            try:
                exp = int(exp_text)
            except ValueError:
                raise ParseError(f"bad toy exponent in {token!r}") from None
        if exp == 0:
            raise ParseError(f"zero exponent in {token!r}")
        syllables.append((gen, exp))
    return tuple(syllables)


def format_toy_word(word: Iterable[ToySyllable]) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in word)
