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

phi, phi_at and act_letter are the definition, one base at a time.  The
certificates need the image on every base, and phi_all_bases computes them
all in one pass over the word.  A letter a_l moves the state of the base
l itself (it emits f_x there) and of the k(n-k) bases sharing k-1 indices
with l (it adds psi(a_l) to x there), and fixes the state of every other
base: there psi(a_l) = 0, since psi is zero on the k-subsets that share
fewer than k-1 indices with the base.  So the pass visits 1 + k(n-k)
bases per letter, 17 of 70 at n = 8, k = 4, read off a table built once per
(n, k) (_incidence).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import InvalidContext, NotEvenWord
from .gnk import GeneratorIndex, GnkWord, generators
from .pbraid import PBWord, map_pb_to_g3, map_pb_to_g4

ZVec = int
HWord = tuple[ZVec, ...]
ActionState = tuple[ZVec, HWord]


def block_values(k: int) -> tuple[ZVec, ...]:
    """The values psi puts into a block, in (Z/2)^(k-1): e_i for the letter
    missing the i-th index of m, and e_1+...+e_{k-1} for the one missing the
    k-th.  They depend on k alone."""
    return tuple(1 << i for i in range(k - 1)) + ((1 << (k - 1)) - 1,)


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
        sorted letter: m - {m_i} + {p} takes the i-th of block_values(k),
        shifted into block p.  Every other k-subset has psi = 0 and is left
        out."""
        table: dict[GeneratorIndex, ZVec] = {}
        for p in self.outside:
            for missing, v in zip(self.m, block_values(self.k)):
                table[tuple(sorted(set(self.m) - {missing} | {p}))] = v << self.bit(p, 1)
        return table


def all_bases(n: int, k: int) -> list[BaseChoice]:
    return [BaseChoice(n, k, m) for m in generators(n, k)]


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


def _require_even(w: GnkWord) -> None:
    if not is_even(w):
        raise NotEvenWord(f"word has odd generator multiplicities: {w}")


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
    _require_even(w)
    return phi_at(w, base, 0)[1]


@cache
def _incidence(n: int, k: int
               ) -> dict[GeneratorIndex, tuple[int, tuple[tuple[int, ZVec], ...]]]:
    """For each letter of the (n, k) group: the index of its own base in
    all_bases(n, k), and the (index, psi value) of every base it shares k-1
    indices with.  Only ints and letter tuples are kept, not the BaseChoice
    objects read while building it, so the table stays small."""
    bases = generators(n, k)
    touched: dict[GeneratorIndex, list[tuple[int, ZVec]]] = {m: [] for m in bases}
    for b, m in enumerate(bases):
        for letter, v in BaseChoice(n, k, m).psi.items():
            touched[letter].append((b, v))
    return {m: (b, tuple(touched[m])) for b, m in enumerate(bases)}


def phi_all_bases(w: GnkWord) -> tuple[HWord, ...]:
    """phi(w, base) for every base, in all_bases(w.n, w.k) order, from one
    pass over the word, rightmost letter first.

    Each base keeps its state (x, y) of phi_at, with y stored reversed so
    that prepending f_x is an append; an append that meets an equal last
    letter cancels instead, exactly as act_letter keeps y reduced.  A letter
    a_l updates only the bases in its row of _incidence: its own base l,
    where it acts on y, and the bases m with |l & m| = k-1, where it adds
    psi(a_l) to x.  Every other base m has |l & m| < k-1, so a_l is none of
    the letters m - {m_i} + {p} on which psi is nonzero: psi(a_l) = 0 on m,
    and since a_l is not m either, act_letter leaves m's state as it is.
    Skipping those bases changes no state, so each image equals phi's."""
    _require_even(w)
    table = _incidence(w.n, w.k)
    xs = [0] * len(table)
    ys: list[list[ZVec]] = [[] for _ in table]
    for letter in reversed(w.letters):
        own, touched = table[letter]
        x, y = xs[own], ys[own]
        if y and y[-1] == x:
            y.pop()
        else:
            y.append(x)
        for b, v in touched:
            xs[b] ^= v
    return tuple(tuple(reversed(y)) for y in ys)


# ---------------------------------------------------------------------------
# Event-count lower bounds for braids.

def _event_lower_bound(image: GnkWord) -> int:
    return max(map(len, phi_all_bases(image)), default=0)


def trisecant_lower_bound(w: PBWord) -> int:
    """Max over base 3-subsets of the reduced parity image length of the
    braid's k = 3 word: no realisation of the braid can have fewer horizontal
    trisecants."""
    if w.n < 3:
        return 0
    return _event_lower_bound(map_pb_to_g3(w))


def quadrisecant_lower_bound(w: PBWord) -> int:
    """Same bound for k = 4 (circled quadrisecants).  Nontrivial only for
    n > 4: at n = 4 the parity group Z is trivial and the images collapse."""
    if w.n < 4:
        return 0
    return _event_lower_bound(map_pb_to_g4(w))


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
