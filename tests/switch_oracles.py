"""Reference implementations the switch tests compare against.

``bfs_min_switches_witness`` is the breadth-first search over reduced words
that ``switches.min_switches_witness`` replaced: exponential in the budget,
but it tries every switch at every position, so it needs no argument about
matchings.  The span helpers enumerate a subspace element by element from
its generators: ``z0_span`` and ``full_span`` read the switch vectors of
the pair table, not the library's own Z0, so they check it independently."""

from braidcert.switches import apply_switch, switch_feasibility_necessary
from braidcert.words import reduce_involutive


def bfs_min_switches_witness(w, sys, budget):
    """Minimal switch count and one move sequence by breadth-first search
    over reduced words, or (None, None) beyond ``budget``."""
    start = reduce_involutive(w)
    if not start:
        return 0, ()
    if not switch_feasibility_necessary(start, sys):
        return None, None
    moves = sorted(set(sys.pairs))
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
