"""Reference implementation the tracer tests compare against.

``full_scan_trace_events`` is the loop of ``trace.trace_events`` before it
skipped the pairs and tuples with no moving point and priced one-mover slabs
by integer cofactors: it builds and checks the polynomial of every pair and
every k-tuple in every slab through ``trace._event_poly``, so it needs
neither the continuity lemma nor the cofactor identity."""

from functools import cmp_to_key
from itertools import combinations

from braidcert.errors import InvalidContext, NonGenericTrajectory
from braidcert.roots import isolate_roots, poly_add, poly_mul, poly_sub, root_compare
from braidcert.trace import SecantEvent, _event_poly, _generic_part, _slabs


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
