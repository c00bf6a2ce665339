"""Parity images: from even words in the k-subset groups to free products of Z/2.

Fix a base k-subset m.  Every generator that shares k-1 indices with m maps
to a nonzero vector in Z = (Z/2)^((k-1)(n-k)): writing p for its index outside
m and i for the position (1-based, ascending) of the missing element of m, the
letter contributes e_i in the p-component (or e_1+...+e_{k-1} when i = k).
All other generators map to zero.  This letterwise map psi kills every
relator, hence every even word.

The finer invariant acts on Z x H, where H is the free product of |Z| copies
of Z/2 with involutive generators f_x indexed by x in Z:

    a_m' . (x, y) = (x, f_x y)          if m' = m,
    a_m' . (x, y) = (x + psi(a_m'), y)  otherwise.

Words act with the rightmost letter first.  Tracking the H-component of the
action on (0, 1) gives a homomorphism phi from the even subgroup to H; the
reduced length of phi(image of a braid) bounds from below the number of
trisecant (k = 3) or circled-quadrisecant (k = 4) events any realisation of
that braid must contain.

Z vectors are stored as int bitmasks: bit (rank of p) * (k-1) + (i-1), with
the indices p outside m taken in ascending order.  H words are tuples of such
masks, always kept reduced.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import InvalidContext, NotEvenWord
from .gnk import GeneratorIndex, GnkWord
from .pbraid import PBWord, map_pb_to_g3, map_pb_to_g4

ZVec = int
HWord = tuple[ZVec, ...]
ActionState = tuple[ZVec, HWord]


@dataclass(frozen=True)
class BaseChoice:
    """A fixed k-subset m of {1..n} together with its context."""

    n: int
    k: int
    m: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(self.m))
        if len(self.m) != self.k or sorted(set(self.m)) != list(self.m):
            raise InvalidContext(f"base {self.m} is not a sorted {self.k}-subset")
        if self.m[0] < 1 or self.m[-1] > self.n:
            raise InvalidContext(f"base {self.m} out of range 1..{self.n}")

    @cached_property
    def outside(self) -> tuple[int, ...]:
        return tuple(p for p in range(1, self.n + 1) if p not in self.m)

    @property
    def dim(self) -> int:
        return (self.k - 1) * (self.n - self.k)

    def bit(self, p: int, i: int) -> int:
        """Bit index of e_i in the p-component (i is 1-based, i <= k-1)."""
        return self.outside.index(p) * (self.k - 1) + (i - 1)

    @cached_property
    def psi(self) -> dict[GeneratorIndex, ZVec]:
        """psi of every k-subset that shares k-1 indices with m, keyed by the
        sorted letter; every other k-subset has psi = 0 and is left out."""
        table: dict[GeneratorIndex, ZVec] = {}
        for p in self.outside:
            for pos, missing in enumerate(self.m, start=1):
                letter = tuple(sorted(set(self.m) - {missing} | {p}))
                positions = (pos,) if pos < self.k else range(1, self.k)
                table[letter] = sum(1 << self.bit(p, i) for i in positions)
        return table


def all_bases(n: int, k: int) -> list[BaseChoice]:
    if not 1 <= k <= n:
        raise InvalidContext(f"need 1 <= k <= n, got n={n}, k={k}")
    return [BaseChoice(n, k, m) for m in combinations(range(1, n + 1), k)]


def psi_letter(letter: GeneratorIndex, base: BaseChoice) -> ZVec:
    """Parity vector of a single generator (zero unless it shares k-1 indices
    with the base)."""
    return base.psi.get(tuple(letter), 0)


def psi_word(w: GnkWord, base: BaseChoice) -> ZVec:
    """Letterwise xor; vanishes on relators and on every even word."""
    x = 0
    for letter in w:
        x ^= psi_letter(letter, base)
    return x


def is_even(w: GnkWord) -> bool:
    """Whether every generator occurs an even number of times."""
    return all(count % 2 == 0 for count in Counter(w.letters).values())


def act_letter(letter: GeneratorIndex, state: ActionState, base: BaseChoice) -> ActionState:
    """One letter of the action on Z x H; the prepended f_x cancels
    immediately against an equal leading letter, keeping y reduced."""
    x, y = state
    if tuple(letter) == base.m:
        if y and y[0] == x:
            return x, y[1:]
        return x, (x,) + y
    return x ^ psi_letter(letter, base), y


def phi_at(w: GnkWord, base: BaseChoice, x0: ZVec = 0) -> ActionState:
    """Act by the whole word on (x0, empty), rightmost letter first, so that
    (g1 g2).v = g1.(g2.v) holds literally."""
    state: ActionState = (x0, ())
    for letter in reversed(w.letters):
        state = act_letter(letter, state, base)
    return state


def phi(w: GnkWord, base: BaseChoice) -> HWord:
    """Image of an even word in H (reduced).  Multiplicative on the even
    subgroup; undefined elsewhere."""
    if not is_even(w):
        raise NotEvenWord(f"word has odd generator multiplicities: {w}")
    return phi_at(w, base, 0)[1]


def h_complexity(y: HWord) -> int:
    """phi outputs are already reduced, so complexity is plain length."""
    return len(y)


# ---------------------------------------------------------------------------
# Event-count lower bounds for braids.

def trisecant_lower_bound(w: PBWord) -> int:
    """Max over base 3-subsets of the reduced parity image length of the
    braid's k = 3 word: no realisation of the braid can have fewer horizontal
    trisecants."""
    if w.n < 3:
        return 0
    image = map_pb_to_g3(w)
    return max((h_complexity(phi(image, base)) for base in all_bases(w.n, 3)), default=0)


def quadrisecant_lower_bound(w: PBWord) -> int:
    """Same bound for k = 4 (circled quadrisecants).  Nontrivial only for
    n > 4: at n = 4 the parity group Z is trivial and the images collapse."""
    if w.n < 4:
        return 0
    image = map_pb_to_g4(w)
    return max((h_complexity(phi(image, base)) for base in all_bases(w.n, 4)), default=0)


# ---------------------------------------------------------------------------
# Printing: letters f_x with x written as a bit string in canonical order
# (p ascending over indices outside m, then e_1 .. e_{k-1} within each p).

def format_zvec(x: ZVec, base: BaseChoice) -> str:
    return "".join("1" if x >> b & 1 else "0" for b in range(base.dim))


def format_hword(y: HWord, base: BaseChoice) -> str:
    return " ".join(f"f[{format_zvec(x, base)}]" for x in y)


def parse_hword(text: str, base: BaseChoice) -> HWord:
    from .errors import ParseError

    letters = []
    for token in text.split():
        if not (token.startswith("f[") and token.endswith("]")):
            raise ParseError(f"bad parity-word token {token!r}")
        bits = token[2:-1]
        if len(bits) != base.dim or any(c not in "01" for c in bits):
            raise ParseError(f"bad bit string in {token!r} (expected {base.dim} bits)")
        letters.append(sum(1 << b for b, c in enumerate(bits) if c == "1"))
    return tuple(letters)
