"""Piecewise-linear trajectories, exact event tracers, and generator motions.

A trajectory assigns each of n points a closed polygonal path over the common
time interval [0, 1], all breakpoints rational.  The tracers scan every time
slab (between consecutive breakpoints of any point): the first slab checks
every pair and every 3- or 4-point tuple, a later one only those that hold
a point moving in it, since the others stay what they were, and nonzero, at
the end of the slab before.  One determinant gives both events: det [x y 1]
for collinearity and det [x y x^2+y^2 1] for concyclicity (zero also for
four collinear points, i.e. a circle through infinity, which counts as an
event).  Each point's position on a segment is a pair of integer linear
polynomials in t over its own denominator d > 0.  A run of slabs that move
one point, the first slab included, takes each row times d or d^2, (x, y, d)
or (x d, y d, x^2+y^2, d^2), and dots the mover's row with the cofactors of
the static rows, computed once per run: the line through two points or the
circle through three.  On the first slab a tuple of static points is the
constant determinant of their rows, checked nonzero.  A slab with several
moving points (or a first slab with none) multiplies every position by the
slab's common denominator and expands the determinant in coordinates
relative to the last point of the tuple.  Every such scaling multiplies a
polynomial by a positive constant, which moves no root and flips no sign.
One genericity check serves it and the squared distance of every point
pair: a polynomial that vanishes on the whole slab, at a slab end, or at a
repeated root inside the slab (a tangency, or for a pair a collision)
raises NonGenericTrajectory naming the tuple and slab.  The roots of the
squarefree part are isolated exactly (in closed form up to degree 2, else
by Sturm chains).  Every root lies strictly inside its slab, so events are
sorted, by exact algebraic-number comparison, slab by slab, and
simultaneous events are rejected the same way.

The simulators build the four-stage motion of the generator braid b_ij the
homomorphisms are read from: i moves in stages 1 and 3, j in stages 2 and 4,
each in its own quarter of [0, 1].  Both motions go through one four-stage
assembler and differ only in their stage polylines.  On a circle (trisecants)
the mover slides along the inside hugging the circle, so it crosses a chord
exactly when passing one of its endpoints; its points come from integer
tangent-half-angle forms, and its inward offset from the closest pair of
adjacent points.  On the parabola (concyclicities)
the mover hops over each passed point and otherwise runs at a fixed
rational height eta above the parabola, its corridors split until no segment
crosses a static circle.  Both simulators build once, and one shared step is
the only check of the finished motion: its exact trace must give (via
event_word) the expected word letter for letter, the unreduced
map_pb_to_g3 image of b_ij on the circle and the word of the passing blocks
pbraid.g4_c on the parabola; no slopes are sorted.  A crossing of a static
circle makes the mover concyclic with its three points, so the trace fixes
the number, order and identity of every crossing, and it rejects a tangency
with such a circle, or a breakpoint on one, as a degeneracy.  The step returns
(trajectory, events), so a motion is never traced twice.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, pairwise
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DegenerateInput, InvalidContext, InvalidPair, NonGenericTrajectory
from .geometry import ParabolaConfig, growth_sequence_case1
from .gnk import GnkWord
from .pbraid import PBWord, g4_c, map_pb_to_g3, pb_letter
from .roots import (
    Poly,
    RealRoot,
    count_roots,
    isolate_roots,
    poly,
    poly_add,
    poly_mul,
    poly_sub,
    primitive,
    pseudo_divmod,
    root_compare,
    sign_at,
    squarefree_part,
)

Point = tuple[Fraction, Fraction]
Breakpoint = tuple[Fraction, Point]


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


@dataclass(frozen=True)
class Trajectory:
    """Closed piecewise-linear motion of n labelled points over [0, 1]."""

    paths: tuple[tuple[Breakpoint, ...], ...]

    def __post_init__(self):
        norm = []
        for path in self.paths:
            fixed = tuple((_fraction(t), (_fraction(x), _fraction(y))) for t, (x, y) in path)
            if len(fixed) < 2 or fixed[0][0] != 0 or fixed[-1][0] != 1:
                raise DegenerateInput("each path must span times 0..1")
            if any(a[0] >= b[0] for a, b in zip(fixed, fixed[1:])):
                raise DegenerateInput("breakpoint times must strictly increase")
            if fixed[0][1] != fixed[-1][1]:
                raise DegenerateInput("paths must be closed (start = end position)")
            norm.append(fixed)
        object.__setattr__(self, "paths", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class SecantEvent:
    """One generic event: the named tuple of points is collinear (trisecant)
    or concyclic at the root time."""

    kind: str
    participants: tuple[int, ...]
    root: RealRoot


def _segments(path: Sequence[Breakpoint]) -> list[tuple[Fraction, int, int, int, int, int]]:
    """Each segment of a path as (end time, d, x0, x1, y0, y1): the position
    on it is ((x0 + x1 t) / d, (y0 + y1 t) / d), with the least d > 0.  Over
    the denominator m of both points, p(t) = (p0 (b - t) + p1 (t - a)) /
    (b - a) is integer once b - a is cleared, then reduced by the gcd."""
    out = []
    for (a, (ax, ay)), (b, (bx, by)) in zip(path, path[1:]):
        m = lcm(ax.denominator, ay.denominator, bx.denominator, by.denominator)
        u0, v0, u1, v1 = (c.numerator * (m // c.denominator) for c in (ax, ay, bx, by))
        ab = a.denominator * b.denominator
        na, nb = a.numerator * b.denominator, b.numerator * a.denominator
        coeffs = (m * (nb - na), u0 * nb - u1 * na, (u1 - u0) * ab,
                  v0 * nb - v1 * na, (v1 - v0) * ab)
        g = gcd(*coeffs)
        out.append((b, *(c // g for c in coeffs)))
    return out


def _slabs(traj: Trajectory) -> Iterator[tuple[Fraction, Fraction, list[tuple[int, ...]]]]:
    """Every time slab (t0, t1) between consecutive breakpoints of any point,
    with the segment (d, x0, x1, y0, y1) of every point on it.  The slabs
    contain every breakpoint, so each lies inside a single segment of each
    path; a point moves on to its next segment at the slab that starts
    where its current one ends, compared by index in the sorted grid."""
    grid = sorted({t for path in traj.paths for t, _ in path})
    index = {t: g for g, t in enumerate(grid)}
    segments = [[(index[seg[0]], seg[1:]) for seg in _segments(path)] for path in traj.paths]
    at = [0] * traj.n
    for g in range(len(grid) - 1):
        current = []
        for u, segs in enumerate(segments):
            if segs[at[u]][0] <= g:
                at[u] += 1
            current.append(segs[at[u]][1])
        yield grid[g], grid[g + 1], current
def _det(rows: list[list[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials, by cofactor expansion
    along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    out: Poly = ()
    for c, entry in enumerate(rows[0]):
        term = poly_mul(entry, _det([row[:c] + row[c + 1:] for row in rows[1:]]))
        out = poly_sub(out, term) if c % 2 else poly_add(out, term)
    return out


def _event_poly(ps: list[tuple[Poly, Poly]]) -> Poly:
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


def _lifted(k: int, seg: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Row of a point on the segment (d, x0, x1, y0, y1) in the k-point
    determinant, as its coefficients of t^0, t^1 (and t^2): (x, y, d) at
    k = 3, (x d, y d, x^2 + y^2, d^2) at k = 4, d or d^2 times the textbook
    row.  A static point has only the first."""
    d, x0, x1, y0, y1 = seg
    if k == 3:
        return [(x0, y0, d), (x1, y1, 0)]
    return [(x0 * d, y0 * d, x0 * x0 + y0 * y0, d * d),
            (x1 * d, y1 * d, 2 * (x0 * x1 + y0 * y1), 0), (0, 0, x1 * x1 + y1 * y1, 0)]


def _static_form(rows: Sequence[tuple[int, ...]], r: int) -> tuple[int, ...]:
    """Cofactors of row r of the k x k determinant whose other rows are the
    k - 1 static rows in order, so the determinant is their dot product with
    row r: at k = 3 the cross product of the two rows, at k = 4 the 3 x 3
    minors, each the first row dotted with the k = 3 form of the others."""
    if len(rows) == 2:
        (a0, a1, a2), (b0, b1, b2) = rows
        form = [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    else:
        form = [(-1) ** i * sum(map(mul, rows[0][:i] + rows[0][i + 1:],
                                    _static_form([v[:i] + v[i + 1:] for v in rows[1:]], 0)))
                for i in range(4)]
    return tuple(-v for v in form) if r % 2 else tuple(form)


def _closed_form_roots(p: Sequence[int], who: tuple[int, ...], t0: Fraction, t1: Fraction,
                       whole: str, boundary: str, repeated: str) -> list[RealRoot]:
    """isolate_roots(_generic_part(p, ...)) for p = (c0, c1[, c2]) of degree
    <= 2, from its end signs and discriminant: a double root inside the slab
    is a repeated one; a line has its root inside when the end signs differ;
    with signs read as if c2 > 0, a quadratic has then one root inside (the
    smaller if p(t0) > 0), none if both ends are negative, and both if both
    are positive with the vertex inside."""
    c0, c1, c2 = (*p, 0, 0)[:3]
    if not (c0 or c1 or c2):
        raise NonGenericTrajectory(whole, who, (t0, t1))
    u, v = t0.numerator, t0.denominator
    s0 = c0 * v * v + c1 * u * v + c2 * u * u
    u, v = t1.numerator, t1.denominator
    s1 = c0 * v * v + c1 * u * v + c2 * u * u
    if not (s0 and s1):
        raise NonGenericTrajectory(boundary, who, (t0, t1))
    if not c2:
        return [] if (s0 > 0) == (s1 > 0) else [RealRoot.from_rational(Fraction(-c0, c1))]
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return []
    vertex = Fraction(-c1, 2 * c2)
    if not disc:
        if t0 < vertex < t1:
            raise NonGenericTrajectory(repeated, who, (t0, t1))
        return []
    pos0, pos1 = (s0 > 0) == (c2 > 0), (s1 > 0) == (c2 > 0)
    m = primitive((c0, c1, c2))
    if pos0 != pos1:
        return [RealRoot(m, t0, min(t1, vertex), False) if pos0
                else RealRoot(m, max(t0, vertex), t1, False)]
    if pos0 and t0 < vertex < t1:
        return [RealRoot(m, t0, vertex, False), RealRoot(m, vertex, t1, False)]
    return []


def _generic_part(p: Poly, who: tuple[int, ...], t0: Fraction, t1: Fraction,
                  whole: str, boundary: str, repeated: str) -> Poly:
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


def trace_events(traj: Trajectory, k: int) -> list[SecantEvent]:
    """All generic degeneracy events of the trajectory, sorted by exact time.

    The first slab checks every pair and k-tuple.  A later slab checks only
    those that hold a point moving in it (a position polynomial of degree
    >= 1), in the same combinations order, so the first degeneracy raised is
    the one a scan of every tuple raises.  Lemma (continuity): positions are
    continuous in time, so a pair or tuple with no moving point in a slab
    keeps, as a constant, the value its polynomial had at the end of the
    slab before, up to the positive factor of the denominators, which
    changes no sign.  There it was found nonzero: by
    the slab-end check if it was checked in that slab, else, being constant
    there too, by the same argument one slab earlier, down to the first
    slab.  So it has no event and no degeneracy in this slab.  A run of
    slabs with one moving point m, the first slab included, keeps every
    other point, hence its lifted row, fixed, so the static form of each
    (k-1)-tuple is computed once per run.  On the first slab a tuple without
    m is a constant determinant of its lifted rows, checked nonzero in its
    place in the combinations order.  Per-point denominators scale each
    row, and so each determinant and squared distance, by a positive
    constant against the common-denominator polynomial: the same primitive
    part, roots, degeneracies and order of checks.

    Events are sorted, and checked for simultaneity, per slab.  Lemma: every
    root lies strictly inside its slab, since both end signs were checked
    nonzero, and the slabs are disjoint and in time order.  So the
    concatenation of the per-slab sorts is the sort of all events (each
    stable, with equal roots in the same slab), and two events of different
    slabs are never simultaneous.  The first simultaneity found is raised
    after the last slab, as a sort of all events would find it only
    then."""
    if k not in (3, 4):
        raise InvalidContext(f"events are defined for k in {{3, 4}}, got {k}")
    if traj.n < k:
        raise InvalidContext(f"need at least {k} points, got {traj.n}")
    kind = "trisecant" if k == 3 else "concyclic"
    pair_msgs = ("two points coincide throughout a slab",
                 "two points coincide at a slab boundary", "two points collide")
    tuple_msgs = (f"{kind} holds on a whole slab", f"{kind} at a slab boundary",
                  f"tangential {kind}")
    by_time = cmp_to_key(lambda a, b: root_compare(a.root, b.root))
    events: list[SecantEvent] = []
    clash = None
    points = range(1, traj.n + 1)
    run, forms = None, {}
    for s, (t0, t1, segs) in enumerate(_slabs(traj)):
        movers = {p for p in points if segs[p - 1][2] or segs[p - 1][4]}
        for u, v in combinations(points, 2):
            if not s or u in movers or v in movers:
                # every real root of dx^2 + dy^2 is a double root: a collision
                (du, ux0, ux1, uy0, uy1), (dv, vx0, vx1, vy0, vy1) = segs[u - 1], segs[v - 1]
                x0, x1 = dv * ux0 - du * vx0, dv * ux1 - du * vx1
                y0, y1 = dv * uy0 - du * vy0, dv * uy1 - du * vy1
                _closed_form_roots((x0 * x0 + y0 * y0, 2 * (x0 * x1 + y0 * y1),
                                    x1 * x1 + y1 * y1), (u, v), t0, t1, *pair_msgs)
        found: list[SecantEvent] = []
        if len(movers) == 1:
            m, = movers
            if run != m:
                # a run starts; it always does on the first slab, so the
                # static rows are there for its tuples without m
                run, forms = m, {}
                statics = [_lifted(k, seg)[0] for seg in segs]
                for rest in combinations([p for p in points if p != m], k - 1):
                    r = sum(p < m for p in rest)
                    forms[rest[:r] + (m,) + rest[r:]] = _static_form(
                        [statics[p - 1] for p in rest], r)
            rows = _lifted(k, segs[m - 1])
            for tup, form in (forms.items() if s else
                              ((tup, forms.get(tup)) for tup in combinations(points, k))):
                if form is None:
                    *rest, last = (statics[p - 1] for p in tup)
                    if not sum(map(mul, _static_form(rest, 0), last)):
                        raise NonGenericTrajectory(tuple_msgs[0], tup, (t0, t1))
                    continue
                for root in _closed_form_roots([sum(map(mul, form, row)) for row in rows],
                                               tup, t0, t1, *tuple_msgs):
                    found.append(SecantEvent(kind, tup, root))
        else:
            run, den = None, lcm(*(seg[0] for seg in segs))
            coeffs = [(poly((x0 * f, x1 * f)), poly((y0 * f, y1 * f)))
                      for d, x0, x1, y0, y1 in segs for f in (den // d,)]
            for tup in combinations(points, k):
                if s and movers.isdisjoint(tup):
                    continue
                sf = _generic_part(_event_poly([coeffs[p - 1] for p in tup]), tup, t0, t1,
                                   *tuple_msgs)
                for root in isolate_roots(sf, t0, t1):
                    found.append(SecantEvent(kind, tup, root))
        found.sort(key=by_time)
        clash = clash or next((NonGenericTrajectory(
            "simultaneous events", a.participants + b.participants, (a.root.lo, a.root.hi))
            for a, b in pairwise(found) if root_compare(a.root, b.root) == 0), None)
        events += found
    if clash:
        raise clash
    return events


def event_word(n: int, k: int, events: Iterable[SecantEvent]) -> GnkWord:
    """The (n, k) group word of a traced event list: one letter per event,
    naming its participants, in time order."""
    return GnkWord(n, k, tuple(ev.participants for ev in events))


# ---------------------------------------------------------------------------
# Exact segment-versus-circle crossings (keeping parabola corridors clear).

def _crosses(p0: Point, p1: Point, circles: Sequence[tuple[int, ...]]) -> bool:
    """Whether the segment crosses one of the circles (_static_circles).  On
    p0 + s (p1 - p0) a circle's form is q(s) = A s^2 + B s + C, a positive
    multiple of |p - centre|^2 - r^2; the segment crosses the circle when its
    ends lie on opposite sides, or both outside with the vertex of q inside
    (0, 1) and below zero.  A tangency or an end exactly on the circle is
    left to the trace, which rejects it as a tangential or slab-boundary
    concyclicity."""
    (x0, y0), (x1, y1) = p0, p1
    d = lcm(x0.denominator, y0.denominator, x1.denominator, y1.denominator)
    x0, y0, x1, y1 = (c.numerator * (d // c.denominator) for c in (x0, y0, x1, y1))
    rows = _lifted(4, (d, x0, x1 - x0, y0, y1 - y0))
    for form in circles:
        C, B, A = (sum(map(mul, form, row)) for row in rows)
        q1 = A + B + C
        if (C > 0) != (q1 > 0) or (C > 0 and 0 < -B < 2 * A and B * B > 4 * A * C):
            return True
    return False


def _four_stage(i: int, j: int, homes: Sequence[Point],
                stages: Sequence[list[Point]]) -> Trajectory:
    """Assemble the motion of b_ij from its four stage polylines: i runs
    stages[0] and stages[2], j runs stages[1] and stages[3], each stage
    spread evenly over its quarter of [0, 1], and every other point stays
    home.  Each stage must start where its mover's previous stage ended (or
    at home) and the last one must end at home."""

    def timed(stage: int) -> list[Breakpoint]:
        points = stages[stage]
        m = 4 * (len(points) - 1)
        return [(Fraction(stage, 4) + Fraction(s, m), p) for s, p in enumerate(points)]

    paths: list[tuple[Breakpoint, ...]] = []
    for u, home in enumerate(homes, start=1):
        if u == i:
            bps = timed(0) + timed(2) + [(Fraction(1), home)]
        elif u == j:
            bps = [(Fraction(0), home)] + timed(1) + timed(3)
        else:
            bps = [(Fraction(0), home), (Fraction(1), home)]
        paths.append(tuple(bps))
    return Trajectory(tuple(paths))


def _validated_motion(kind: str, i: int, j: int, k: int, build: Callable[[], Trajectory],
                      expected: tuple[tuple[int, ...], ...]) -> tuple[Trajectory, list[SecantEvent]]:
    """Build the motion of b_ij once and trace it once: a failed build, a
    trace degeneracy or a traced word other than ``expected`` raises
    NonGenericTrajectory naming the motion."""
    try:
        traj = build()
        events = trace_events(traj, k)
        if event_word(traj.n, k, events).letters != expected:
            raise NonGenericTrajectory("traced word disagrees with the crossing orders")
    except NonGenericTrajectory as exc:
        raise NonGenericTrajectory(
            f"could not build a generic {kind} motion for b_{i}{j}: {exc}") from None
    return traj, events


# ---------------------------------------------------------------------------
# Circle motions (k = 3).

def _circle_point(s: Fraction) -> Point:
    p, q = s.numerator, s.denominator
    return (Fraction(q * q - p * p, q * q + p * p), Fraction(2 * p * q, q * q + p * p))


def _polyline(points: list[Point]) -> list[Point]:
    out = [points[0]]
    for p in points[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _circle_sweep(s_from: Fraction, s_to: Fraction, passed: list[Fraction],
                  eps: Fraction) -> list[Point]:
    """Waypoints for a sweep along the inside of the unit circle from the
    circle point at parameter s_from to the one at s_to, passing the static
    points at the given parameters: one via point per gap midpoint, pulled
    inward by eps, so each segment handles exactly one passed point."""
    landmarks = [s_from] + sorted(passed, reverse=s_to < s_from) + [s_to]
    vias = [(a + b) / 2 for a, b in zip(landmarks, landmarks[1:])]
    down = 1 - eps
    pts = [_circle_point(s_from)]
    pts += [(down * x, down * y) for x, y in (_circle_point(v) for v in vias)]
    pts.append(_circle_point(s_to))
    return _polyline(pts)


def _min_gap_sq(params: Iterable[Fraction]) -> Fraction:
    """Least squared distance between the circle points at the parameters.
    Lemma: each parameter s is positive, so its angle 2 atan(s) lies in
    (0, pi), as do the differences of two such angles, and the chord
    2 sin(|difference| / 2) grows with the difference there.  As atan
    increases, the nearest pair is adjacent in parameter order."""
    pts = [_circle_point(s) for s in sorted(params)]
    return min((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p, q in pairwise(pts))


# Largest n of the circle motions: the trace of b_1n checks C(n, 3) tuples in
# its first slab and C(n-1, 2) in each of its O(n) later slabs.  It took
# 0.15-0.20 s at n = 32 and 1.3 s at n = 64 (in process, shared 2-vCPU x86
# machine, CPython 3.11), so the limit keeps every circle motion well under
# a second.
_CIRCLE_MAX_N = 32


def simulate_bij_circle(i: int, j: int, n: int) -> tuple[Trajectory, list[SecantEvent]]:
    """Closed motion realising the generator b_ij on a circle configuration,
    returned with its trisecant events (the trace that validated it).

    Points sit at rational circle points (tangent-half-angle parameters
    1, 2, ..., n, all on the upper arc, counterclockwise).  Stage 1: point i
    slides inside the circle past i+1 .. j-1 and lands on the circle just
    before j; stage 2: j slides over the parked i; stage 3: i returns home
    over j (parked) and j-1 .. i+1; stage 4: j returns home.  It builds once
    and its trace must equal the unreduced map_pb_to_g3 image of b_ij letter
    for letter.  No retry is needed: the static points lie on the circle and
    the mover strictly inside between on-circle endpoints, so only an exact
    coincidence (a via point on a chord line) could make the trace fail.
    n is limited to 3.._CIRCLE_MAX_N, which bounds the trace's run time.
    """
    if n < 3:
        raise InvalidContext(f"circle motions need n >= 3, got {n}")
    if n > _CIRCLE_MAX_N:
        raise InvalidContext(f"circle motions need n <= {_CIRCLE_MAX_N}, got {n}")
    if not (1 <= i < j <= n):
        raise InvalidPair(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    home = {u: Fraction(u) for u in range(1, n + 1)}
    rho = (home[j - 1] + home[j]) / 2  # parking spot for i, just before j
    lam = (home[j - 1] + rho) / 2      # landing spot for j, just before that
    eps = _min_gap_sq(list(home.values()) + [rho, lam]) / 64
    stages = [
        _circle_sweep(home[i], rho, [home[u] for u in range(i + 1, j)], eps),
        _circle_sweep(home[j], lam, [rho], eps),
        _circle_sweep(rho, home[i], [lam] + [home[u] for u in range(i + 1, j)], eps),
        _circle_sweep(lam, home[j], [], eps),
    ]
    homes = [_circle_point(home[u]) for u in range(1, n + 1)]
    return _validated_motion(
        "circle", i, j, 3, lambda: _four_stage(i, j, homes, stages),
        map_pb_to_g3(PBWord(n, (pb_letter(i, j),)), reduced=False).letters)


# ---------------------------------------------------------------------------
# Parabola motions (k = 4).

# Largest n of the parabola motions.  At n = 8 the coordinates still print
# (t_8 has 255 digits), but 12 of the 28 generators fail the letter-exact
# word check, each by reordering far-commuting letters; the other 16 build
# in 4.8-6.3 s in total (shared 2-vCPU x86 machine, CPython 3.11).
_PARABOLA_MAX_N = 7


def _parabola_pt(t: Fraction, h: Fraction = Fraction(0)) -> Point:
    return (t, t * t + h)


def _static_circles(static_ts: Iterable[Fraction]) -> list[tuple[int, ...]]:
    """Circumcircles of all static triples as static forms f.  f . _lifted(p)
    vanishes at the three points, so it is f's x^2 + y^2 entry times
    |p - centre|^2 - r^2, up to d^2 > 0.  That entry is the orientation
    det [x y 1] of the triple, times d^2 each, and is positive: sorted by
    abscissa, three points of the parabola turn counterclockwise."""
    rows = [_lifted(4, (v * v, u * v, 0, u * u, 0))[0]
            for u, v in ((t.numerator, t.denominator) for t in sorted(static_ts))]
    return [_static_form(triple, 0) for triple in combinations(rows, 3)]


def _safe_polyline(p0: Point, p1: Point, circles, eta: Fraction,
                   depth: int = 0) -> list[Point]:
    """Polyline from p0 to p1 crossing no static circle: a segment that
    crosses one is split at the point eta above the parabola at its middle
    abscissa, and both halves are checked again."""
    if not _crosses(p0, p1, circles):
        return [p0, p1]
    if depth > 48:
        raise NonGenericTrajectory("corridor subdivision did not converge")
    mid = _parabola_pt((p0[0] + p1[0]) / 2, eta)
    left = _safe_polyline(p0, mid, circles, eta, depth + 1)
    right = _safe_polyline(mid, p1, circles, eta, depth + 1)
    return left[:-1] + right


def _local_gap(landmarks: Sequence[Fraction], t: Fraction) -> Fraction:
    """Distance from t, one of the sorted distinct landmarks, to the nearest
    other one: one of its neighbours in that order."""
    at = bisect_left(landmarks, t)
    return min(b - a for a, b in pairwise(landmarks[max(at - 1, 0):at + 2]))


def _mover_stage_path(start_t: Fraction, end_t: Fraction, rounded: list[Fraction],
                      static_ts: list[Fraction]) -> list[Point]:
    """Waypoints of one stage from abscissa start_t to end_t, past the static
    points at static_ts: lift off the parabola to the height eta, then for
    each rounded abscissa (in travel order) a corridor at that height and a
    hop up to the apex above it and down, then a last corridor and the drop
    back to the parabola.  Only the corridors are split off the static
    circles; the hops, and any tangency or contact a corridor keeps, are
    judged by the trace of the finished motion."""
    circles = _static_circles(static_ts)
    landmarks = sorted(set(static_ts) | {start_t, end_t, *rounded})
    eta = min(_local_gap(landmarks, start_t), _local_gap(landmarks, end_t)) / 64
    side = 1 if end_t > start_t else -1
    path = [_parabola_pt(start_t), _parabola_pt(start_t, eta)]
    for t_u in rounded:
        gap = _local_gap(landmarks, t_u)
        base_l = _parabola_pt(t_u - side * gap / 16, eta)
        base_r = _parabola_pt(t_u + side * gap / 16, eta)
        path += _safe_polyline(path[-1], base_l, circles, eta)[1:]
        path += [_parabola_pt(t_u, gap / 8 * (2 * abs(t_u) + 1)), base_r]
    path += _safe_polyline(path[-1], _parabola_pt(end_t, eta), circles, eta)[1:]
    path.append(_parabola_pt(end_t))
    return _polyline(path)


def _motion_word_g4(i: int, j: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Expected event word of the four-stage from-above motion in the blocks
    of pbraid.g4_c, A c_ij c_ij A^-1 with A = c_{i,i+1} ... c_{i,j-1} passed
    forward: stage 1 passes i+1 .. j, stage 2 passes again (j over the parked
    i), stage 3 comes back.  The map (pbraid._generator_image) inverts A."""
    approach = tuple(x for u in range(i + 1, j) for x in g4_c(i, u, n).letters)
    cij = g4_c(i, j, n).letters
    return approach + cij + cij + approach[::-1]


def simulate_bij_parabola(i: int, j: int, n: int) -> tuple[Trajectory, list[SecantEvent]]:
    """Closed four-stage motion for b_ij on a fast-growing parabola
    configuration, returned with its concyclicity events (the trace that
    validated it).

    The abscissas are the growth sequence t_1 = 1, t_u = 100 t_{u-1}^2 as
    it is.  The build splits its corridors where they cross a static circle;
    the one check of the finished motion is its concyclicity trace, which
    must reproduce _motion_word_g4 letter for letter.  It builds once: a
    corridor that cannot be cleared, a trace degeneracy or a different
    traced word raises NonGenericTrajectory.  At n = 4..7, 42 of the 52
    generators build; the other 10 trace the expected letters with some
    far-commuting ones reordered, which the letter-exact check rejects.  A
    retry with smaller offsets cannot help: halving eta, the hop widths and
    heights and the parking gap changed the outcome and the traced word of
    no generator at n = 4..7.

    For j > i+1 the motion realises the conjugate P b_ij P^-1 with
    P = b_{i,i+1} ... b_{i,j-1}: its reduced word is map_pb_to_g4 of that
    conjugate, which can differ from the image of b_ij (b13 at n = 5).

    n is limited to 4..7: at n = 8 the coordinates still print, but 12 of
    the 28 generators fail the letter-exact check in the same way.
    """
    if n < 4:
        raise InvalidContext(f"parabola motions need n >= 4, got {n}")
    if n > _PARABOLA_MAX_N:
        raise InvalidContext(f"parabola motions need n <= {_PARABOLA_MAX_N}, got {n}")
    if not (1 <= i < j <= n):
        raise InvalidPair(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    cfg = growth_sequence_case1(n)
    return _validated_motion(
        "parabola", i, j, 4, lambda: _build_parabola_trajectory(i, j, n, cfg),
        _motion_word_g4(i, j, n))


def _build_parabola_trajectory(i: int, j: int, n: int, cfg: ParabolaConfig) -> Trajectory:
    t = {u: cfg.t(u) for u in range(1, n + 1)}
    gap_right = (t[j + 1] - t[j]) if j < n else (t[j] - t[j - 1])
    delta = gap_right / 4
    t_star = t[j] + delta          # stage-1 parking spot for i
    t_park2 = t[j] + 3 * delta / 2  # stage-2 landing spot for j

    homes_not = lambda *skip: [t[u] for u in range(1, n + 1) if u not in skip]
    stages = [
        _mover_stage_path(t[i], t_star, [t[u] for u in range(i + 1, j + 1)],
                          homes_not(i)),
        _mover_stage_path(t[j], t_park2, [t_star], homes_not(i, j) + [t_star]),
        _mover_stage_path(t_star, t[i], [t[u] for u in range(j - 1, i, -1)],
                          homes_not(i, j) + [t_park2]),
        _mover_stage_path(t_park2, t[j], [], homes_not(j)),
    ]
    return _four_stage(i, j, [_parabola_pt(t[u]) for u in range(1, n + 1)], stages)


# ---------------------------------------------------------------------------
# JSON serialisation: rationals as "p/q" strings.

def trajectory_to_json(traj: Trajectory) -> str:
    data = {
        "n": traj.n,
        "paths": [
            [[str(t), [str(x), str(y)]] for t, (x, y) in path]
            for path in traj.paths
        ],
    }
    return json.dumps(data, sort_keys=True)


def trajectory_from_json(text: str) -> Trajectory:
    data = json.loads(text)
    paths = tuple(
        tuple((Fraction(t), (Fraction(x), Fraction(y))) for t, (x, y) in path)
        for path in data["paths"]
    )
    return Trajectory(paths)


def event_log(events: Iterable[SecantEvent]) -> list[dict]:
    return [
        {
            "time_lo": str(ev.root.lo),
            "time_hi": str(ev.root.hi),
            "kind": ev.kind,
            "participants": list(ev.participants),
        }
        for ev in events
    ]
