"""Exact-rational geometry of points on the parabola y = x^2.

Everything here is Fraction arithmetic: concyclicity of four parabola points
(determinant test and its product factorisation), circumcircles, tangent
slopes of circles through three parabola points, the growth conditions that
freeze the order in which a point moving near the parabola meets those
circles, and the resulting closed-form crossing orders.

The key facts, all checked exactly in the test suite:

  * four distinct parabola points (x_i, x_i^2) are concyclic iff
    x_0 + x_1 + x_2 + x_3 = 0, because the compatibility determinant of the
    circle system factors as prod of differences times the sum;
  * hence a circle through three points of the positive branch meets it
    nowhere else (the fourth intersection abscissa is minus the sum);
  * the tangent slope at the largest point of a triple is within (-(t_l+t_m+1),
    -(t_l+t_m)) once the abscissas grow fast enough (t_i >= 100 t_{i-1}^2),
    which pins the crossing order of the case-1 circles; a stronger growth
    condition involving minimal angles and maximal circumradii pins cases 2
    and 3 as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    DegenerateInput,
    InvalidContext,
    InvalidPair,
    NoCircle,
    UnorderedConfiguration,
    VerticalTangent,
)
from .gnk import GnkWord

Point = tuple[Fraction, Fraction]


def _show(values) -> str:
    """A tuple of rationals as it reads in messages: (1, 1/2, 3)."""
    return "(" + ", ".join(str(v) for v in values) + ")"


# ---------------------------------------------------------------------------
# Concyclicity on the parabola.

def delta_det(x0, x1, x2, x3) -> Fraction:
    """Compatibility determinant of the linear system for a circle through
    the four parabola points: rows (x0-xi, x0^2-xi^2, xi^2-x0^2+xi^4-x0^4)."""
    x0, x1, x2, x3 = Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3)
    rows = [(x0 - xi, x0 * x0 - xi * xi, xi * xi - x0 * x0 + xi**4 - x0**4)
            for xi in (x1, x2, x3)]
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = rows
    return (a1 * (b2 * c3 - b3 * c2)
            - b1 * (a2 * c3 - a3 * c2)
            + c1 * (a2 * b3 - a3 * b2))


def delta_factored(x0, x1, x2, x3) -> Fraction:
    """Product form of the same determinant: all pairwise differences times
    the sum of the four abscissas."""
    x0, x1, x2, x3 = Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3)
    diffs = ((x0 - x1) * (x0 - x2) * (x0 - x3)
             * (x1 - x2) * (x1 - x3) * (x2 - x3))
    return diffs * (x0 + x1 + x2 + x3)


def concyclic_on_parabola(x0, x1, x2, x3) -> bool:
    """Four distinct parabola points lie on one circle iff their abscissas
    sum to zero."""
    xs = (Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3))
    if len(set(xs)) != 4:
        raise DegenerateInput(f"abscissas must be pairwise distinct, got {_show(xs)}")
    return sum(xs) == 0


def fourth_intersection(ti, tj, tk) -> Fraction:
    """Abscissa of the fourth point where the circle through three parabola
    points meets the parabola again: minus their sum.  Negative whenever the
    inputs are positive, so circles through the positive branch pick up no
    extra intersections there."""
    ts = (Fraction(ti), Fraction(tj), Fraction(tk))
    if len(set(ts)) != 3:
        raise DegenerateInput(f"abscissas must be distinct, got {_show(ts)}")
    return -sum(ts)


def circle_through(p1: Point, p2: Point, p3: Point) -> tuple[Point, Fraction]:
    """Exact circumcircle as (center, radius squared)."""
    (x1, y1), (x2, y2), (x3, y3) = ((Fraction(x), Fraction(y)) for x, y in (p1, p2, p3))
    d = 2 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))
    if d == 0:
        raise NoCircle(f"collinear points {_show((x1, y1))}, {_show((x2, y2))}, {_show((x3, y3))}")
    s1, s2, s3 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3
    a = (s1 * (y2 - y3) + s2 * (y3 - y1) + s3 * (y1 - y2)) / d
    b = (s1 * (x3 - x2) + s2 * (x1 - x3) + s3 * (x2 - x1)) / d
    r2 = (x1 - a) ** 2 + (y1 - b) ** 2
    return (a, b), r2


def slope_kappa(tk, tl, tm) -> Fraction:
    """Tangent slope, at the parabola point with abscissa tk, of the circle
    through the parabola points tk, tl, tm.  Symmetric in (tl, tm)."""
    tk, tl, tm = Fraction(tk), Fraction(tl), Fraction(tm)
    if len({tk, tl, tm}) != 3:
        raise DegenerateInput(f"abscissas must be distinct, got {_show((tk, tl, tm))}")
    s, p = tl + tm, tl * tm
    num = tk * tk * s + tk * (s * s + 2) + p * s
    den = tk * tk - tk * s - (tl * tl + p + tm * tm + 1)
    if den == 0:
        raise VerticalTangent(f"vertical tangent for abscissas {_show((tk, tl, tm))}")
    return -num / den


# ---------------------------------------------------------------------------
# Growth conditions.

@dataclass(frozen=True)
class ParabolaConfig:
    """Ascending positive abscissas t_1 < ... < t_n; point i is (t_i, t_i^2)."""

    ts: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "ts", tuple(Fraction(t) for t in self.ts))
        if any(t <= 0 for t in self.ts):
            raise DegenerateInput("abscissas must be positive")
        if any(a >= b for a, b in zip(self.ts, self.ts[1:])):
            raise DegenerateInput("abscissas must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.ts)

    def t(self, i: int) -> Fraction:
        return self.ts[i - 1]


# Largest n whose growth sequence prints in decimal (at most 4300 digits in
# Python): t_13 has 8191 digits, t_8 after the case-2/3 upgrade about 5700.
_CASE1_MAX_N = 12
_CASE23_MAX_N = 7


def growth_sequence_case1(n: int) -> ParabolaConfig:
    """t_1 = 1, t_i = 100 t_{i-1}^2: the canonical sequence satisfying the
    case-1 growth condition."""
    if n < 1:
        raise InvalidContext(f"need n >= 1, got {n}")
    ts = [Fraction(1)]
    for _ in range(n - 1):
        ts.append(100 * ts[-1] ** 2)
    return ParabolaConfig(tuple(ts))


def check_growth_case1(cfg: ParabolaConfig) -> bool:
    """t_1 >= 1 and t_i >= 100 t_{i-1}^2 for every i > 1."""
    ts = cfg.ts
    return ts[0] >= 1 and all(b >= 100 * a * a for a, b in zip(ts, ts[1:]))


def min_angle_sin2(points: list[Point]) -> Fraction:
    """sin^2 of the smallest angle determined by any ordered triple (vertex in
    the middle) of the given points, exactly: the least cross^2 / (|a|^2
    |b|^2) over all triples.  The smallest angle has the smallest sin^2: it
    is at most pi/3, and an obtuse angle theta leaves its triangle an angle
    below pi - theta, whose sin^2 is smaller."""
    sin2 = []
    for v in points:
        for u, w in combinations([p for p in points if p != v], 2):
            ax, ay = u[0] - v[0], u[1] - v[1]
            bx, by = w[0] - v[0], w[1] - v[1]
            cross = ax * by - ay * bx
            sin2.append(Fraction(cross * cross, (ax * ax + ay * ay) * (bx * bx + by * by)))
    if not sin2:
        raise DegenerateInput("need at least three points for an angle")
    return min(sin2)


def max_radius_sq(points: list[Point]) -> Fraction:
    """Largest squared circumradius over all triples."""
    best = Fraction(0)
    for p1, p2, p3 in combinations(points, 3):
        _, r2 = circle_through(p1, p2, p3)
        best = max(best, r2)
    return best


def _case23_holds(t_i: Fraction, t_prev: Fraction, sin2: Fraction, r2max: Fraction) -> bool:
    """The case-2/3 growth condition at one index, in squared form:
    t_i sin(alpha) >= 3 t_prev^2 and t_i - t_prev^2 >= 2 R."""
    if t_i * t_i * sin2 < 9 * t_prev**4:
        return False
    slack = t_i - t_prev * t_prev
    return slack >= 0 and slack * slack >= 4 * r2max


def _case23_walk(ts: list[Fraction], double: bool) -> bool:
    """The one loop over the indices i > 3 of the case-2/3 condition, left
    to right: at a failing index it returns False, or with double set it
    doubles t_i in place until the condition holds there."""
    for i in range(4, len(ts) + 1):
        prefix = [(t, t * t) for t in ts[: i - 1]]
        sin2, r2max = min_angle_sin2(prefix), max_radius_sq(prefix)
        while not _case23_holds(ts[i - 1], ts[i - 2], sin2, r2max):
            if not double:
                return False
            ts[i - 1] *= 2
    return True


def check_growth_case23(cfg: ParabolaConfig) -> bool:
    """The stronger growth condition that freezes crossing orders in cases 2
    and 3: t_1 >= 1, monotone, and for i > 3

        t_i >= max(3 t_{i-1}^2 / sin(alpha_{i-1}),  t_{i-1}^2 + 2 R_{i-1})

    with alpha the minimal angle and R the maximal circumradius among the
    first i-1 points.  Compared in squared form to stay rational, and
    walked by the same loop as upgrade_to_case23, which stops at the first
    failing index instead of doubling there."""
    if cfg.n < 3:
        raise InvalidContext(f"need n >= 3, got {cfg.n}")
    return cfg.ts[0] >= 1 and _case23_walk(list(cfg.ts), double=False)


def upgrade_to_case23(cfg: ParabolaConfig) -> ParabolaConfig:
    """Double offending abscissas (left to right) until the case-2/3 growth
    condition holds.  Doubling preserves the case-1 condition."""
    ts = list(cfg.ts)
    _case23_walk(ts, double=True)
    return ParabolaConfig(tuple(ts))


# ---------------------------------------------------------------------------
# Crossing orders.

_CASE_CHECKS = {1: check_growth_case1, 2: check_growth_case23, 3: check_growth_case23}


def _case_pairs(n: int, j: int, case: int, exclude: frozenset[int]) -> list[tuple[int, int]]:
    skip = set(exclude) | {j}
    out = []
    for l, m in combinations(range(1, n + 1), 2):
        if l in skip or m in skip:
            continue
        if case == 1 and m < j:
            out.append((l, m))
        elif case == 2 and l < j < m:
            out.append((l, m))
        elif case == 3 and j < l:
            out.append((l, m))
    return out


def crossing_order(cfg: ParabolaConfig, j: int, case: int,
                   exclude: frozenset[int] | set[int] = frozenset()) -> list[tuple[int, int]]:
    """Order in which a point passing above parabola point j meets the circles
    through j and the pairs (l, m) of the given case (1: both below j,
    2: straddling, 3: both above).

    Circles are met in the clockwise sweep of tangent directions at point j:
    within one case that is exactly descending tangent slope, compared as
    exact rationals.  The growth condition for the case must hold, otherwise
    the configuration is rejected as unordered.
    """
    if case not in (1, 2, 3):
        raise InvalidPair(f"case must be 1, 2 or 3, got {case}")
    if not 1 <= j <= cfg.n:
        raise InvalidPair(f"point index {j} out of range 1..{cfg.n}")
    if not _CASE_CHECKS[case](cfg):
        raise UnorderedConfiguration(
            f"abscissas do not satisfy the case-{case} growth condition")
    pairs = _case_pairs(cfg.n, j, case, frozenset(exclude))
    tj = cfg.t(j)
    return sorted(pairs, key=lambda lm: slope_kappa(tj, cfg.t(lm[0]), cfg.t(lm[1])), reverse=True)


def g4_word_geometric(i: int, j: int, cfg: ParabolaConfig) -> GnkWord:
    """Word read off one from-above passing of strand j by strand i, for
    k = 4: the case-2, case-1 and case-3 circles (tangents in the third,
    second and first quadrant) in their exact tangent-sweep orders;
    crossing_order rejects a configuration that fails a growth condition.
    The tests check it against pbraid.g4_c, the order the builder expects."""
    n = cfg.n
    if not (1 <= i < j <= n):
        raise InvalidPair(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    letters = [tuple(sorted((i, j, l, m)))
               for case in (2, 1, 3)
               for l, m in crossing_order(cfg, j, case, exclude={i})]
    return GnkWord(n, 4, tuple(letters))

