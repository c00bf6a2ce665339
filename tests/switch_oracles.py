"""Reference implementations the switch tests compare against.

``bfs_min_switches_witness`` is the breadth-first search over reduced words
that ``switches.min_switches_witness`` replaced: exponential in the budget,
but it tries every switch at every position, so it needs no argument about
matchings.  ``realise_matching`` replays the realisation step of the
``min_switches_witness`` docstring, one switch on an innermost pair of an
optimal matching and the DP rerun after each, and ``check_matching``
checks a matching witness against its word.  ``dict_pairing_cost`` is the
interval DP of ``switches._pairing_cost`` as it was first written, on a
dict keyed by intervals with one ``min`` over ``(cost, k)`` per cell, so
the least optimal partner wins ties.  The span helpers enumerate a subspace element by element
from its generators: ``z0_span`` and ``full_span`` read the switch vectors
of the pair table, not the library's own Z0, so they check it
independently.  ``psi_table`` and ``table_z_pair`` are psi and the switch
vectors as first written: the table of every nonzero psi value of a base,
built by subset arithmetic, and the xor over that table of the entries
whose letters contain both strands."""

from itertools import combinations

from braidcert.errors import InvalidPair
from braidcert.parity import block_values
from braidcert.switches import (
    _distance,
    _pairing_cost,
    apply_switch,
    switch_feasibility_necessary,
)
from braidcert.words import reduce_involutive


def psi_table(base):
    """psi of every k-subset that shares k-1 indices with m, keyed by the
    sorted letter: m - {m_i} + {p} takes the i-th of block_values(k),
    shifted into block p.  Every other k-subset has psi = 0 and is left
    out."""
    table = {}
    for p in base.outside:
        for missing, v in zip(base.m, block_values(base.k)):
            table[tuple(sorted(set(base.m) - {missing} | {p}))] = v << base.bit(p, 1)
    return table


def table_z_pair(i, j, base):
    """The xor of psi over the k-subsets containing {i, j}, scanned from
    ``psi_table``."""
    if i == j or not (1 <= i <= base.n and 1 <= j <= base.n):
        raise InvalidPair(f"need distinct strands in 1..{base.n}, got ({i}, {j})")
    out = 0
    for letter, x in psi_table(base).items():
        if i in letter and j in letter:
            out ^= x
    return out


def bfs_min_switches_witness(w, sys, budget):
    """Minimal switch count and one move sequence by breadth-first search
    over reduced words, or (None, None) beyond ``budget``."""
    start = reduce_involutive(w)
    if not start:
        return 0, ()
    if not switch_feasibility_necessary(start, sys):
        return None, None
    moves = sorted(pair for pair, _ in sys.pair_table)
    seen = {start: None}
    frontier = [start]
    for depth in range(1, budget + 1):
        nxt = []
        for state in frontier:
            for pos in range(len(state)):
                for (i, j) in moves:
                    child = apply_switch(state, pos, i, j, sys)
                    if child in seen:
                        continue
                    seen[child] = (state, (pos, i, j))
                    if not child:
                        path = []
                        cur = child
                        while seen[cur] is not None:
                            cur, move = seen[cur]
                            path.append(move)
                        return depth, tuple(reversed(path))
                    nxt.append(child)
        frontier = nxt
        if not frontier:
            break
    return None, None


def realise_matching(w, sys):
    """The switches that kill the even word ``w``, one (position, i, j) move
    per unit of its DP value f: each switches the left letter of an
    innermost pair of the DP's optimal matching by the first pair-table
    vector that brings it closer to its partner, and the DP is rerun after
    each switch.  Asserts that the value drops by one per move and that the
    word reaches ()."""
    word = reduce_involutive(w)
    d = _distance(sys)
    count, partner = _pairing_cost(word, d)
    moves = []
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
    return tuple(moves)


def check_matching(w, sys, count, matching):
    """Assert that ``matching`` is a sorted non-crossing perfect matching of
    the positions of the reduced ``w`` whose pair distances sum to
    ``count``."""
    word = reduce_involutive(w)
    assert matching == tuple(sorted(matching))
    assert all(a < b for a, b in matching)
    assert sorted(p for pair in matching for p in pair) == list(range(len(word)))
    assert not any(c < b < e for (a, b), (c, e) in combinations(matching, 2))
    d = _distance(sys)
    assert sum(d(word[a] ^ word[b]) for a, b in matching) == count


def span_by_enumeration(vectors):
    """Every element of the GF(2) span of ``vectors``, sorted."""
    span = {0}
    for v in vectors:
        span |= {x ^ v for x in span}
    return sorted(span)


def z0_span(sys):
    """The span of the switch vectors of the pairs inside the base, read from
    the pair table rather than the system's own Z0."""
    m = sys.base.m
    return tuple(span_by_enumeration(z for (i, j), z in sys.pair_table
                                     if i in m and j in m))


def full_span(sys):
    """The span of all switch vectors."""
    return tuple(span_by_enumeration(z for _, z in sys.pair_table))


def c_z_count(xi, z, sys):
    """Number of nonzero coefficients of xi in the coset z + Z0 (Z0 spanned
    by the switch vectors of pairs inside m), by enumerating Z0."""
    return sum(1 for z0 in z0_span(sys) if (z ^ z0) in xi)


def dict_pairing_cost(w, d):
    """f(0, len(w)) of the interval DP f(i, j) = min over k of
    d(w[i] ^ w[k]) + f(i+1, k) + f(k+1, j), and the least optimal partner k
    of i per interval."""
    f = {(i, i): 0 for i in range(len(w) + 1)}
    partner = {}
    for length in range(2, len(w) + 1, 2):
        for i in range(len(w) - length + 1):
            j = i + length
            f[i, j], partner[i, j] = min((d(w[i] ^ w[k]) + f[i + 1, k] + f[k + 1, j], k)
                                         for k in range(i + 1, j, 2))
    return f[0, len(w)], partner
