"""Reference implementations the tracer tests compare against.

``full_scan_trace_events`` is the loop of ``trace.trace_events`` before it
skipped the pairs and tuples with no moving point and priced one-mover slab
runs from static line and circle forms: it builds and checks the polynomial
of every pair and every k-tuple in every slab through ``_event_poly``, so it
needs neither the continuity lemma nor the cofactor identity.  It takes any
number of moving points per slab, where ``trace_events`` takes at most one
and refuses more with ``DegenerateInput``; with several movers a
determinant can have degree above 2, so ``_generic_part`` checks it through
``roots.squarefree_part`` and ``roots.count_roots`` and the roots come from
``roots.isolate_roots``.

``_segments`` and ``_slabs`` are the tracer's earlier positions, in
``Fraction`` and over one common denominator per slab; ``_crosses`` is the
parabola builder's earlier corridor test against the ``Fraction`` centre and
squared radius of ``geometry.circle_through``.  ``_min_gap_sq`` and
``_local_gap`` are the builders' earlier gaps, a minimum over every pair of
circle points and over every other landmark, which need neither the chord
lemma nor the sorted order."""

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import lcm

from braidcert.errors import InvalidContext, NonGenericTrajectory
from braidcert.roots import (
    count_roots,
    isolate_roots,
    poly,
    poly_add,
    poly_mul,
    poly_sub,
    pseudo_divmod,
    root_compare,
    sign_at,
    squarefree_part,
)
from braidcert.trace import SecantEvent, _circle_point


def _det(rows):
    """Determinant of a square matrix of polynomials, by cofactor expansion
    along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    out = ()
    for c, entry in enumerate(rows[0]):
        term = poly_mul(entry, _det([row[:c] + row[c + 1:] for row in rows[1:]]))
        out = poly_sub(out, term) if c % 2 else poly_add(out, term)
    return out


def _event_poly(ps):
    """Event determinant of k = 3 or 4 moving points, in coordinates relative
    to the last one: rows (dx, dy) for collinearity, (dx, dy, dx^2+dy^2) for
    concyclicity.  Equals det [x y 1] and det [x y x^2+y^2 1], sign included."""
    *rest, (xl, yl) = ps
    rows = []
    for x, y in rest:
        dx, dy = poly_sub(x, xl), poly_sub(y, yl)
        row = [dx, dy]
        if len(ps) == 4:
            row.append(poly_add(poly_mul(dx, dx), poly_mul(dy, dy)))
        rows.append(row)
    return _det(rows)


def _generic_part(p, who, t0, t1, whole, boundary, repeated):
    """Squarefree part of a slab polynomial, after rejecting the three
    degeneracies with their messages: p vanishes on the whole slab, at a slab
    end, or has a repeated root inside it."""
    slab = (t0, t1)
    if not p:
        raise NonGenericTrajectory(whole, who, slab)
    if sign_at(p, t0) == 0 or sign_at(p, t1) == 0:
        raise NonGenericTrajectory(boundary, who, slab)
    sf = squarefree_part(p)
    if len(sf) != len(p):
        # the quotient p / sf is a constant times gcd(p, p'), whose
        # roots are the repeated roots of p
        g = pseudo_divmod(p, sf)[0]
        if count_roots(squarefree_part(g), t0, t1) > 0:
            raise NonGenericTrajectory(repeated, who, slab)
    return sf


def _segments(path):
    """Each segment of a path as (end time, d, (x, y)): the position on it
    is (x / d, y / d), two integer polynomials of degree <= 1 in global
    time over one positive denominator."""
    out = []
    for (a, p0), (b, p1) in zip(path, path[1:]):
        vx = (p1[0] - p0[0]) / (b - a)
        vy = (p1[1] - p0[1]) / (b - a)
        coeffs = (p0[0] - vx * a, vx, p0[1] - vy * a, vy)
        d = lcm(*(c.denominator for c in coeffs))
        x0, x1, y0, y1 = (c.numerator * (d // c.denominator) for c in coeffs)
        out.append((b, d, (poly((x0, x1)), poly((y0, y1)))))
    return out


def _slabs(traj):
    """Every time slab (t0, t1) between consecutive breakpoints of any point,
    with the integer position polynomials of all points on it: the rational
    positions times the common denominator of the slab, one factor for all
    points.  The slabs contain every breakpoint, so each lies inside a
    single segment of each path."""
    grid = sorted({t for path in traj.paths for t, _ in path})
    segments = [_segments(path) for path in traj.paths]
    at = [0] * traj.n
    for t0, t1 in zip(grid, grid[1:]):
        current = []
        for u, segs in enumerate(segments):
            if segs[at[u]][0] <= t0:
                at[u] += 1
            current.append(segs[at[u]])
        den = lcm(*(d for _, d, _ in current))
        yield t0, t1, [tuple(tuple(c * (den // d) for c in q) for q in xy)
                       for _, d, xy in current]


def _crosses(p0, p1, circle):
    """Whether the segment crosses the circle: its ends lie on opposite
    sides, or both outside with the vertex of q(s) = |p0 + s (p1 - p0) -
    centre|^2 - r^2 = A s^2 + B s + C inside (0, 1) and below zero.  A
    tangency or an end exactly on the circle is left to the trace, which
    rejects it as a tangential or slab-boundary concyclicity."""
    (a, b), r2 = circle
    wx, wy = p0[0] - a, p0[1] - b
    vx, vy = p1[0] - p0[0], p1[1] - p0[1]
    A = vx * vx + vy * vy
    B = 2 * (vx * wx + vy * wy)
    C = wx * wx + wy * wy - r2
    q0, q1 = C, A + B + C
    return (q0 > 0) != (q1 > 0) or (q0 > 0 and 0 < -B < 2 * A and B * B > 4 * A * C)


def _min_gap_sq(params):
    """Least squared distance between the circle points at the parameters,
    over every pair."""
    pts = [_circle_point(s) for s in params]
    return min((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p, q in combinations(pts, 2))


def _local_gap(landmarks, t):
    """Distance from t to the nearest other landmark, over all of them."""
    return min(abs(t - s) for s in landmarks if s != t)


def full_scan_trace_events(traj, k):
    """All generic degeneracy events of the trajectory, sorted by exact time,
    from every pair and k-tuple of every slab."""
    if k not in (3, 4):
        raise InvalidContext(f"events are defined for k in {{3, 4}}, got {k}")
    if traj.n < k:
        raise InvalidContext(f"need at least {k} points, got {traj.n}")
    kind = "trisecant" if k == 3 else "concyclic"
    events: list[SecantEvent] = []
    for t0, t1, coeffs in _slabs(traj):
        for pair in combinations(range(1, traj.n + 1), 2):
            # every real root of dx^2 + dy^2 is a double root: a collision
            (x1, y1), (x2, y2) = (coeffs[p - 1] for p in pair)
            dx, dy = poly_sub(x1, x2), poly_sub(y1, y2)
            _generic_part(poly_add(poly_mul(dx, dx), poly_mul(dy, dy)), pair, t0, t1,
                          "two points coincide throughout a slab",
                          "two points coincide at a slab boundary",
                          "two points collide")
        for tup in combinations(range(1, traj.n + 1), k):
            sf = _generic_part(_event_poly([coeffs[p - 1] for p in tup]), tup, t0, t1,
                               f"{kind} holds on a whole slab",
                               f"{kind} at a slab boundary",
                               f"tangential {kind}")
            for root in isolate_roots(sf, t0, t1):
                events.append(SecantEvent(kind, tup, root))
    events.sort(key=cmp_to_key(lambda a, b: root_compare(a.root, b.root)))
    for a, b in zip(events, events[1:]):
        if root_compare(a.root, b.root) == 0:
            raise NonGenericTrajectory(
                "simultaneous events", a.participants + b.participants,
                (a.root.lo, a.root.hi))
    return events
