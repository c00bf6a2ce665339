"""Crossing-switch moves on parity words and unknotting lower bounds.

A crossing change between strands i and j inserts a full twist, whose parity
image replaces a cancelling pair f_x f_x by f_x f_{x+z_ij}; equivalently, one
switch replaces a single letter f_x of the image word by f_{x+z_ij}.  Here

    z_ij = xor of psi over the k-subsets containing {i, j} that share k-1
           indices with the base m

depends only on i, j and m.  The minimal number of switches needed to kill
the image word is therefore a lower bound for the unknotting number of the
braid; this module computes it exactly by breadth-first search (switches never
increase the reduced length, so the state space is finite) together with the
cheaper projection bound through the group algebra Z/2[Z].

Both the projection bound and the feasibility test count letters per coset
of a subspace of Z, and never enumerate Z or the subspace.  A subspace is held
as a reduced-echelon GF(2) basis (distinct leading bits, each leading bit set
in exactly one basis vector); the canonical key of the coset x + span is the
reduction of x against that basis, which clears every leading bit and equals
min(x ^ s for s in span).  A key costs O(dim) xors, so counting the letters
of a word by coset costs O(len * dim), whatever the 2^dim size of Z.

Both certificates come from one pass (_contexts) over the (k, base) contexts
of their reduced images: unknotting_report feeds it the k = 3 and k = 4
images of a pure braid, gnk_report the single word it is given.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .certificates import Certificate, ContextReport
from .errors import InvalidBudget, InvalidPair
from .gnk import GnkWord, format_gnk_word
from .parity import (
    BaseChoice,
    HWord,
    ZVec,
    all_bases,
    format_hword,
    format_zvec,
    phi,
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


def gf2_reduce(x: ZVec, basis: Sequence[ZVec]) -> ZVec:
    """Canonical representative of the coset x + span(basis), for a basis
    from gf2_basis: each step clears one leading bit, and the result, having
    no leading bit set, is min(x ^ s for s in span)."""
    for b in basis:
        x = min(x, x ^ b)
    return x


def gf2_basis(vectors: Iterable[ZVec]) -> tuple[ZVec, ...]:
    """Reduced-echelon basis of the GF(2) span of ``vectors``, sorted by
    decreasing leading bit.  Each leading bit is set in exactly one basis
    vector, so the basis depends only on the span."""
    basis: list[ZVec] = []
    for v in vectors:
        v = gf2_reduce(v, basis)
        if v:
            top = 1 << (v.bit_length() - 1)
            basis = sorted([b ^ v if b & top else b for b in basis] + [v], reverse=True)
    return tuple(basis)


def _span(basis: Sequence[ZVec]) -> tuple[ZVec, ...]:
    span = [0]
    for b in basis:
        span += [x ^ b for x in span]
    return tuple(sorted(span))


@dataclass(frozen=True)
class SwitchSystem:
    """All switch vectors for one base, plus reduced bases of the two
    subspaces that drive the feasibility test (all pairs) and the projection
    bound (pairs inside m).

    The constructor takes any generating sets and normalises them.  Coset
    keys reduce against the bases in O(dim); the spans themselves are built
    only on request and are not used by any bound."""

    base: BaseChoice
    pair_table: tuple[tuple[tuple[int, int], ZVec], ...]
    z0_basis: tuple[ZVec, ...]    # span of z_ij with {i, j} inside m
    full_basis: tuple[ZVec, ...]  # span of all z_ij

    def __post_init__(self):
        object.__setattr__(self, "z0_basis", gf2_basis(self.z0_basis))
        object.__setattr__(self, "full_basis", gf2_basis(self.full_basis))

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
        """Canonical representative of the coset x + Z0."""
        return gf2_reduce(x, self.z0_basis)

    def full_key(self, x: ZVec) -> ZVec:
        """Canonical representative of x modulo the span of all z_ij."""
        return gf2_reduce(x, self.full_basis)

    @cached_property
    def z0_span(self) -> tuple[ZVec, ...]:
        return _span(self.z0_basis)

    @cached_property
    def full_span(self) -> tuple[ZVec, ...]:
        return _span(self.full_basis)


def switch_system(base: BaseChoice) -> SwitchSystem:
    table = tuple(((i, j), z_pair(i, j, base))
                  for i, j in combinations(range(1, base.n + 1), 2))
    inside = [z for (i, j), z in table if i in base.m and j in base.m]
    return SwitchSystem(base, table, inside, [z for _, z in table])


def apply_switch(w: HWord, pos: int, i: int, j: int, sys: SwitchSystem) -> HWord:
    """Switch the letter at 0-based position pos by z_ij, then re-reduce."""
    if not 0 <= pos < len(w):
        raise IndexError(f"position {pos} outside word of length {len(w)}")
    flipped = w[:pos] + (w[pos] ^ sys.z(i, j),) + w[pos + 1:]
    return reduce_involutive(flipped)


def switch_feasibility_necessary(w: HWord, sys: SwitchSystem) -> bool:
    """Cheap necessary condition for switch-trivialisability: evenly many
    letters in every coset of the span of all z_ij.  Switches move letters
    within their coset and letters cancel in pairs, so no coset parity
    changes; the word need not be reduced, and its length, the sum of the
    counts, comes out even too."""
    return all(c % 2 == 0 for c in Counter(sys.full_key(x) for x in w).values())


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise InvalidBudget(f"budget must be nonnegative, got {budget}")


def min_switches(w: HWord, sys: SwitchSystem, budget: int = 6) -> int | None:
    """Exact minimal number of switches to reach the empty word, or None when
    more than ``budget`` would be needed.  Breadth-first search over reduced
    words; moves are one switch at any position with any strand pair."""
    count, _ = min_switches_witness(w, sys, budget)
    return count


def min_switches_witness(
    w: HWord, sys: SwitchSystem, budget: int = 6
) -> tuple[int | None, tuple[tuple[int, int, int], ...] | None]:
    """Like min_switches but also returns one optimal move sequence, each move
    a (position, i, j) triple.  Expansion order is sorted, so the witness is
    deterministic."""
    _check_budget(budget)
    start = reduce_involutive(w)
    if not start:
        return 0, ()
    if not switch_feasibility_necessary(start, sys):
        return None, None
    moves = sorted(set(sys.pairs))
    seen: dict[HWord, tuple[HWord, tuple[int, int, int]] | None] = {start: None}
    frontier = [start]
    for depth in range(1, budget + 1):
        nxt: list[HWord] = []
        for state in frontier:
            for pos in range(len(state)):
                for (i, j) in moves:
                    child = apply_switch(state, pos, i, j, sys)
                    if child in seen:
                        continue
                    seen[child] = (state, (pos, i, j))
                    if not child:
                        path: list[tuple[int, int, int]] = []
                        cur: HWord = child
                        while seen[cur] is not None:
                            cur, move = seen[cur]  # type: ignore[misc]
                            path.append(move)
                        return depth, tuple(reversed(path))
                    nxt.append(child)
        frontier = nxt
        if not frontier:
            break
    return None, None


# ---------------------------------------------------------------------------
# Projection bound through Z/2[Z].

PiVector = frozenset  # support of an element of Z/2[Z]


def pi_project(w: HWord) -> PiVector:
    """Natural projection H -> Z/2[Z]: the set of indices with odd letter
    multiplicity.  Invariant under free insertion of f_x f_x pairs."""
    return frozenset(x for x, c in Counter(w).items() if c % 2)


def c_z_count(xi: PiVector, z: ZVec, sys: SwitchSystem) -> int:
    """Number of nonzero coefficients of xi in the coset z + Z0 (Z0 spanned by
    the switch vectors of pairs inside m).  Depends only on the coset of z."""
    return sum(1 for z0 in sys.z0_span if (z ^ z0) in xi)


def c_max(xi: PiVector, sys: SwitchSystem) -> int:
    """Max of c_z_count over Z: the size of the largest group of supp(xi)
    under the Z0 coset key, 0 when xi is empty.  Cosets that miss xi count 0,
    so only the O(|xi|) letters are keyed, at O(dim) each."""
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


def _contexts(images: Sequence[GnkWord], budget: int
              ) -> tuple[tuple[ContextReport, ...], dict[int, int]]:
    """One pass over every (k, base) context of the reduced images, one image
    per k: the context reports, and the length of the longest parity image
    per k.  The budget is checked once, before any context."""
    _check_budget(budget)
    contexts: list[ContextReport] = []
    longest: dict[int, int] = {}
    for image in images:
        for base in all_bases(image.n, image.k):
            y = phi(image, base)
            longest[image.k] = max(longest.get(image.k, 0), len(y))
            contexts.append(_context_report(base, y, budget))
    return tuple(contexts), longest


def unknotting_report(w: PBWord, budget: int = 6) -> Certificate:
    """Certificate over k in {3, 4} and every base subset: rough projection
    bound plus (within budget) the exact minimal switch count, and the best
    resulting lower bound for the unknotting number.  The trisecant and
    quadrisecant bounds are the longest parity images of the same pass, as
    in trisecant_lower_bound and quadrisecant_lower_bound."""
    images = [mapper(w) for k, mapper in ((3, map_pb_to_g3), (4, map_pb_to_g4)) if w.n >= k]
    contexts, longest = _contexts(images, budget)
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
    contexts, _ = _contexts([reduced], budget)
    return Certificate(
        input_word=format_gnk_word(w),
        input_kind="gnk",
        n=w.n,
        budget=budget,
        contexts=contexts,
        images=((w.k, format_gnk_word(reduced)),),
    )
