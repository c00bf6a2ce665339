"""Crossing-switch moves on parity words and unknotting lower bounds.

One switch replaces a single letter f_x of a parity image word by
f_{x+z_ij}, where

    z_ij = xor of psi over the k-subsets containing {i, j} that share k-1
           indices with the base m

depends only on i, j and m.  The minimal number f of switches that kill the
image word bounds from below the number of crossing changes that unknot the
braid.  A crossing change multiplies the braid by a PB_n-conjugate of some
b_ab^{+-1} (change of coordinates for arcs; Farb & Margalit, A Primer on
Mapping Class Groups, 2012), so it inserts a conjugate g T^{+-1} g^-1 into
the image, T the image of b_ab on m.  T is empty unless a and b are both in
m, and otherwise f_u f_{u^z} or, at k = 4 only, f_v f_u f_{u^z} f_v, with
z = z_ab != 0, so f(T) = 1 (the tests check this shape on every generator
and base for n <= 9).  f is the same on a word and on its free reduction,
and g c g^-1 dies with f(c) switches, so one crossing change moves f by at
most 1, and the trivial braid has f = 0.

This module computes f exactly by an interval DP over the non-crossing
matchings of the image's letters (min_switches_witness): O(L^3) steps for
an image of length L, each pair priced by a closed-form switch distance
(_distance).  Next to it sits the cheaper projection bound through the
group algebra Z/2[Z].

The switch vectors have a fixed shape.  Z splits into one block (Z/2)^(k-1)
per index p outside m, and psi puts the k letters m - {i} + {p} into block p
as e_1 .. e_(k-1) and their sum, which add up to 0.  Hence

    z_ip = psi(m - {i} + {p})   for i in m, p outside m  (block-local),
    z_pq = 0                    for p, q outside m,
    z_ij = psi_i + psi_j        in every block, for i, j in m  (diagonal),

psi_i the block value of the letter missing i (parity.block_values).  The
block-local vectors alone span Z, so every letter can be switched to every
other, and the only obstruction to killing a word is odd length.  The block
values depend on k alone, and so do the span D of their pairwise xors and
the two distance tables of the exact minimum: they are built once per k
(_block_tables), not once per base.

The projection bound counts letters per coset of the span Z0 of the
diagonal vectors, and never enumerates Z.  Z0 is a copy of the span of the
psi_i ^ psi_j in (Z/2)^(k-1), so it has at most 2^(k-1) elements whatever n
(SwitchSystem) and is held whole; the canonical key of the coset x + Z0 is
its least element, min(x ^ s for s in Z0).  Counting the letters of a word
by coset costs at most 2^(k-1) xors per letter, whatever the 2^dim size of Z.

Both certificates come from one pass (_contexts) over the (k, base) contexts
of their parity images: unknotting_report feeds it the k = 3 and k = 4
images of a pure braid, concatenated from the per-base images of its
letters (parity.phi_pb_all_bases), and gnk_report the images of the single
word it is given, from one sparse pass over it (parity.phi_all_bases).

Per-base work is done once per process.  The bases of each (n, k) are
built once (parity.all_bases), and switch_system builds one system per
base, so its pair table, its Z0 and its switch distances, each derived on
first use, serve every later context on that base.  The interval DP of the
exact minimum runs on flat arrays, with each pair of letters priced once
(_pairing_cost).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .certificates import Certificate, ContextReport
from .errors import InvalidBudget, InvalidPair
from .gnk import GnkWord, format_gnk_word
from .parity import (
    BaseChoice,
    HWord,
    ZVec,
    all_bases,
    block_values,
    format_hword,
    format_zvec,
    phi,
    phi_all_bases,
    phi_pb_all_bases,
    # unused here, but kept as attributes of this module: per-layer tracing
    # (perfbench/spans.py) wraps switches.psi_letter and the two bounds
    psi_letter,  # noqa: F401
    quadrisecant_lower_bound,  # noqa: F401
    trisecant_lower_bound,  # noqa: F401
)
from .pbraid import PBWord, format_pb_word, map_pb_to_g3, map_pb_to_g4
from .words import reduce_involutive


def z_pair(i: int, j: int, base: BaseChoice) -> ZVec:
    """Switch vector of the strand pair {i, j} for the given base: the xor of
    psi over the k-subsets containing {i, j} (only those sharing k-1 indices
    with m contribute)."""
    if i == j or not (1 <= i <= base.n and 1 <= j <= base.n):
        raise InvalidPair(f"need distinct strands in 1..{base.n}, got ({i}, {j})")
    out = 0
    for letter, x in base.psi.items():
        if i in letter and j in letter:
            out ^= x
    return out


@dataclass(frozen=True)
class SwitchSystem:
    """The switch vectors of one base, each derived from the base on first
    use: the table of all pairs, read by the exact minimum and apply_switch,
    and the span Z0 of the pairs inside m, which drives the projection bound.

    Z0 is small whatever n.  By the shape of the switch vectors (module
    docstring), z_ij for i, j in m is u = psi_i ^ psi_j repeated in every
    block, and repeating a vector of (Z/2)^(k-1) in every block is linear and
    one-to-one.  So Z0 is a copy of D = span{psi_i ^ psi_j}, a subspace of
    (Z/2)^(k-1), and has at most 2^(k-1) elements: 4 for k = 3, and 4 for
    k = 4, where the pairwise xors have even weight; just {0} when n = k."""

    base: BaseChoice

    @cached_property
    def pair_table(self) -> tuple[tuple[tuple[int, int], ZVec], ...]:
        return tuple(((i, j), z_pair(i, j, self.base))
                     for i, j in combinations(range(1, self.base.n + 1), 2))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """The lowest bit of each block, p ascending over the indices outside m."""
        return tuple(self.base.bit(p, 1) for p in self.base.outside)

    @cached_property
    def z0(self) -> tuple[ZVec, ...]:
        """Every element of Z0, sorted: each u of D repeated in every block."""
        _, c_d = _block_tables(self.base.k)
        return tuple(sorted({sum(u << off for off in self.offsets) for u in c_d}))

    @cached_property
    def distances(self) -> dict[ZVec, int]:
        """The switch distance d(x) of every x priced so far (_distance)."""
        return {}

    @cached_property
    def _lookup(self) -> dict[tuple[int, int], ZVec]:
        return dict(self.pair_table)

    def z(self, i: int, j: int) -> ZVec:
        i, j = min(i, j), max(i, j)
        return self._lookup[(i, j)]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(p for p, _ in self.pair_table)

    def z0_key(self, x: ZVec) -> ZVec:
        """Canonical representative of the coset x + Z0: its least element."""
        return min(x ^ s for s in self.z0)


@cache
def switch_system(base: BaseChoice) -> SwitchSystem:
    """The system of a base, built once per base: its pair table, Z0 and
    switch distances, each derived on first use, last as long as the
    process."""
    return SwitchSystem(base)


def apply_switch(w: HWord, pos: int, i: int, j: int, sys: SwitchSystem) -> HWord:
    """Switch the letter at 0-based position pos by z_ij, then re-reduce."""
    if not 0 <= pos < len(w):
        raise IndexError(f"position {pos} outside word of length {len(w)}")
    flipped = w[:pos] + (w[pos] ^ sys.z(i, j),) + w[pos + 1:]
    return reduce_involutive(flipped)


def switch_feasibility_necessary(w: HWord, sys: SwitchSystem) -> bool:
    """Switch-trivialisability: letters cancel in pairs and a switch keeps
    the length, so an odd word never dies; an even one always does, since
    the z_ij span all of Z and any two letters can be switched equal.  The
    word need not be reduced, as reduction keeps the length's parity."""
    return len(w) % 2 == 0


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise InvalidBudget(f"budget must be nonnegative, got {budget}")


def _word_lengths(gens: Iterable[ZVec]) -> dict[ZVec, int]:
    """Breadth-first Cayley distance from 0 of every element of the span of
    ``gens``."""
    gens, dist = tuple(gens), {0: 0}
    while True:
        # a y next to an unreached vector lies in the last layer reached
        layer = {y ^ g: dist[y] + 1 for y in dist for g in gens if y ^ g not in dist}
        if not layer:
            return dist
        dist.update(layer)


@cache
def _block_tables(k: int) -> tuple[dict[ZVec, int], dict[ZVec, int]]:
    """(c_B, c_D): the Cayley distances in (Z/2)^(k-1) generated by the k
    block values psi_i, and by their pairwise xors psi_i ^ psi_j, each over
    the elements it reaches; the keys of c_D are D.  Built once per k."""
    block = block_values(k)
    return _word_lengths(block), _word_lengths(a ^ b for a, b in combinations(block, 2))


def _distance(sys: SwitchSystem) -> Callable[[ZVec], int]:
    """Cayley distance d(x) in Z, generated by the nonzero z_ij: the fewest
    switches whose vectors sum to x.  In closed form,

        d(x) = min over u of c_D(u) + sum over p of c_B(x_p ^ u),

    x_p the block of x at p outside m, c_B the Cayley distance in (Z/2)^(k-1)
    generated by the k block values psi_i, and c_D the one generated by their
    pairwise xors psi_i ^ psi_j, over the u it reaches.

    Proof.  By the shape of the z_ij (module docstring), the nonzero switch
    vectors are the block-local psi_i in one block p and the diagonal
    psi_i ^ psi_j in every block.  Split any set of switches summing to x into
    its diagonal ones, summing to u in every block, and its block-local ones
    at each p, summing to x_p ^ u.  There are at least c_D(u) of the first
    kind and c_B(x_p ^ u) at each p, so d(x) is at least the minimum.  A
    shortest diagonal path to u plus a shortest path to x_p ^ u in each block
    attains it.  The tables have at most 2^(k-1) entries and are built once
    per k (_block_tables); answers are kept per x in sys.distances, so they
    last as long as the system."""
    c_b, c_d = _block_tables(sys.base.k)
    offsets = sys.offsets
    mask = (1 << (sys.base.k - 1)) - 1
    memo = sys.distances

    def d(x: ZVec) -> int:
        if x not in memo:
            blocks = [x >> off & mask for off in offsets]
            memo[x] = min(cu + sum(c_b[v ^ u] for v in blocks) for u, cu in c_d.items())
        return memo[x]

    return d


def _pairing_cost(w: HWord, d: Callable[[ZVec], int]
                  ) -> tuple[int, dict[tuple[int, int], int]]:
    """Interval DP over the non-crossing perfect matchings of an even-length
    word: f(i, j) = min over k of d(w[i] ^ w[k]) + f(i+1, k) + f(k+1, j), the
    least total distance of a matching of w[i:j].  Returns f(0, len(w)) and
    the least optimal partner k of i per interval.

    It runs on flat arrays, lists of lists indexed by position: each pair of
    letters is priced once, in dist[i][k], and the candidates k of an
    interval are scanned in increasing order, a later one kept only when it
    is strictly cheaper."""
    size = len(w)
    dist = [[0] * size for _ in range(size)]
    for i, x in enumerate(w):
        row = dist[i]
        for k in range(i + 1, size, 2):
            row[k] = d(x ^ w[k])
    f = [[0] * (size + 1) for _ in range(size + 1)]
    partner: dict[tuple[int, int], int] = {}
    for length in range(2, size + 1, 2):
        for i in range(size - length + 1):
            j = i + length
            di, inner = dist[i], f[i + 1]
            best, arg = di[i + 1] + f[i + 2][j], i + 1
            for k in range(i + 3, j, 2):
                cost = di[k] + inner[k] + f[k + 1][j]
                if cost < best:
                    best, arg = cost, k
            f[i][j] = best
            partner[i, j] = arg
    return f[0][size], partner


def min_switches(w: HWord, sys: SwitchSystem, budget: int = 6) -> int | None:
    """Exact minimal number of switches to reach the empty word, or None when
    more than ``budget`` would be needed (see min_switches_witness)."""
    count, _ = min_switches_witness(w, sys, budget)
    return count


def min_switches_witness(
    w: HWord, sys: SwitchSystem, budget: int = 6
) -> tuple[int | None, tuple[tuple[int, int, int], ...] | None]:
    """Exact minimal number of switches that reduce w to the empty word, with
    one optimal move sequence, each move a (position, i, j) triple for
    apply_switch; (None, None) when more than ``budget`` switches are needed.

    The minimum is the interval DP value f of the reduced word (_pairing_cost):
    the least sum of d(x_a ^ x_b) over non-crossing perfect matchings of its
    letters, d the switch distance in Z (_distance).  An odd word has no
    perfect matching and is refused at once.  On an even word f is finite,
    since the z_ij span Z; the budget only decides whether the count is
    reported.

    Soundness (f <= true minimum).  Follow the original letters through any
    switch sequence that ends in the empty word.  Each cancellation removes
    two letters adjacent at that moment, so the cancelled pairs form a
    non-crossing perfect matching.  When a pair (a, b) cancels, the switches
    applied to a and to b sum to x_a ^ x_b, so there are at least d(x_a ^ x_b)
    of them, and the sequence is at least as long as the matching's cost.

    Realisation (f switches suffice).  An optimal matching of a nonempty
    reduced word has an innermost pair (p, p+1), and it costs c >= 1 since
    the word is reduced.  Switch position p by the first z_ij of a shortest
    path from x_p to x_{p+1}: the pair then costs c - 1, and the matching
    f - 1.  Reduction then cancels neighbours u, v with x_u = x_v, one pair
    at a time.  If u and v are partners, drop their pair.  Otherwise pair
    their partners a and b instead: d(x_a ^ x_b) <= d(x_a ^ x_u) + d(x_v ^ x_b),
    and the matching stays non-crossing.  So the reduced word reached has DP
    value at most f - 1.  A reduced word of value 0 is empty, since an
    innermost pair of a matching of cost 0 is two equal neighbours; by
    induction on f, f switches suffice.

    The two together make f exact.  The witness is built by exactly that
    step, with the DP recomputed after each switch, and the replay checks
    that the word reaches () in exactly f moves on every answer."""
    _check_budget(budget)
    word = reduce_involutive(w)
    if not word:
        return 0, ()
    if budget == 0 or len(word) % 2:
        return None, None
    d = _distance(sys)
    count, partner = _pairing_cost(word, d)
    if count > budget:
        return None, None
    moves: list[tuple[int, int, int]] = []
    for left in range(count - 1, -1, -1):
        p, end = 0, len(word)
        while partner[p, end] != p + 1:
            p, end = p + 1, partner[p, end]
        x = word[p] ^ word[p + 1]
        i, j = next(pair for pair, z in sys.pair_table if z and d(x ^ z) < d(x))
        moves.append((p, i, j))
        word = apply_switch(word, p, i, j, sys)
        f, partner = _pairing_cost(word, d)
        assert f == left, f"switch replay left cost {f}, expected {left}"
    assert word == (), f"switch replay ended at {word}"
    return count, tuple(moves)


# ---------------------------------------------------------------------------
# Projection bound through Z/2[Z].

PiVector = frozenset  # support of an element of Z/2[Z]


def pi_project(w: HWord) -> PiVector:
    """Natural projection H -> Z/2[Z]: the set of indices with odd letter
    multiplicity.  Invariant under free insertion of f_x f_x pairs."""
    return frozenset(x for x, c in Counter(w).items() if c % 2)


def c_max(xi: PiVector, sys: SwitchSystem) -> int:
    """Max over z in Z of the number of nonzero coefficients of xi in the
    coset z + Z0 (Z0 spanned by the switch vectors of pairs inside m): the
    size of the largest group of supp(xi) under the Z0 coset key, 0 when xi
    is empty.  Cosets that miss xi count 0, so only the O(|xi|) letters are
    keyed, at |Z0| <= 2^(k-1) xors each."""
    return max(Counter(sys.z0_key(x) for x in xi).values(), default=0)


def rough_unknotting_bound(w: GnkWord, base: BaseChoice) -> int:
    """Ceiling of half the largest coset support count of the projected parity
    image; a directly computable lower bound for the unknotting number."""
    sys = switch_system(base)
    xi = pi_project(phi(w, base))
    return (c_max(xi, sys) + 1) // 2


# ---------------------------------------------------------------------------
# Full report over all contexts.

def _context_report(base: BaseChoice, y: HWord, budget: int) -> ContextReport:
    sys = switch_system(base)
    xi = pi_project(y)
    rough = (c_max(xi, sys) + 1) // 2
    exact, _ = min_switches_witness(y, sys, budget)
    return ContextReport(
        k=base.k,
        base_m=base.m,
        phi_image=format_hword(y, base),
        pi_support=tuple(sorted(format_zvec(x, base) for x in xi)),
        rough_bound=rough,
        min_switches=exact,
        feasible_necessary=switch_feasibility_necessary(y, sys),
    )


def _contexts(n: int, images: Sequence[tuple[int, tuple[HWord, ...]]], budget: int
              ) -> tuple[tuple[ContextReport, ...], dict[int, int]]:
    """One pass over every (k, base) context, given per k the parity images
    of every base in all_bases(n, k) order: the context reports, and the
    length of the longest parity image per k.  The reports check the budget
    once, before any parity image is computed."""
    contexts: list[ContextReport] = []
    longest: dict[int, int] = {}
    for k, ys in images:
        for base, y in zip(all_bases(n, k), ys):
            longest[k] = max(longest.get(k, 0), len(y))
            contexts.append(_context_report(base, y, budget))
    return tuple(contexts), longest


def unknotting_report(w: PBWord, budget: int = 6) -> Certificate:
    """Certificate over k in {3, 4} and every base subset: rough projection
    bound plus (within budget) the exact minimal switch count, and the best
    resulting lower bound for the unknotting number.  The trisecant and
    quadrisecant bounds are the longest parity images of the same pass, as
    in trisecant_lower_bound and quadrisecant_lower_bound.  The parity images
    come from the braid's letters (parity.phi_pb_all_bases); the images
    field prints the mapped words."""
    images = [mapper(w) for k, mapper in ((3, map_pb_to_g3), (4, map_pb_to_g4)) if w.n >= k]
    _check_budget(budget)
    contexts, longest = _contexts(
        w.n, [(image.k, phi_pb_all_bases(w, image.k)) for image in images], budget)
    return Certificate(
        input_word=format_pb_word(w),
        input_kind="pb",
        n=w.n,
        budget=budget,
        contexts=contexts,
        images=tuple((image.k, format_gnk_word(image)) for image in images),
        trisecant_bound=longest.get(3, 0),
        quadrisecant_bound=longest.get(4, 0),
    )


def gnk_report(w: GnkWord, budget: int = 6) -> Certificate:
    """Certificate for an even word given directly in one (n, k) group."""
    reduced = w.reduced()
    _check_budget(budget)
    contexts, _ = _contexts(w.n, [(w.k, phi_all_bases(reduced))], budget)
    return Certificate(
        input_word=format_gnk_word(w),
        input_kind="gnk",
        n=w.n,
        budget=budget,
        contexts=contexts,
        images=((w.k, format_gnk_word(reduced)),),
    )
