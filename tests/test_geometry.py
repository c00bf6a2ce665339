import random
from fractions import Fraction
from itertools import combinations

import pytest

from braidcert.errors import (
    DegenerateInput,
    InvalidContext,
    NoCircle,
    UnorderedConfiguration,
    VerticalTangent,
)
from braidcert.geometry import (
    ParabolaConfig,
    check_growth_case1,
    check_growth_case23,
    circle_through,
    concyclic_on_parabola,
    crossing_order,
    delta_det,
    delta_factored,
    fourth_intersection,
    g4_word_geometric,
    growth_sequence_case1,
    max_radius_sq,
    min_angle_sin2,
    slope_kappa,
    upgrade_to_case23,
)
from braidcert.pbraid import g4_c


def test_delta_examples():
    assert concyclic_on_parabola(-6, 1, 2, 3)
    assert delta_det(-6, 1, 2, 3) == 0
    assert concyclic_on_parabola(0, 1, 2, -3)
    # direct evaluation both ways: prod of differences times the sum (= 10)
    diffs = 1
    for a, b in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        diffs *= a - b
    assert delta_det(1, 2, 3, 4) == diffs * 10 == 120
    assert delta_det(1, 2, 3, 4) == delta_factored(1, 2, 3, 4)


def test_delta_factorization_random():
    rng = random.Random(99)
    for _ in range(300):
        xs = [Fraction(rng.randint(-100, 100), rng.randint(1, 40)) for _ in range(4)]
        assert delta_det(*xs) == delta_factored(*xs)


def test_concyclic_requires_distinct():
    with pytest.raises(DegenerateInput):
        concyclic_on_parabola(1, 1, 2, 3)


def test_fourth_intersection():
    assert fourth_intersection(1, 2, 3) == -6
    with pytest.raises(DegenerateInput):
        fourth_intersection(1, 1, 2)
    rng = random.Random(5)
    for _ in range(50):
        ts = sorted(rng.sample(range(1, 1000), 3))
        s = fourth_intersection(*ts)
        assert s < 0
        center, r2 = circle_through(*((t, Fraction(t) ** 2) for t in ts))
        assert (s - center[0]) ** 2 + (s * s - center[1]) ** 2 == r2


def test_circle_through():
    center, r2 = circle_through((0, 0), (2, 0), (0, 2))
    assert center == (1, 1) and r2 == 2
    center, r2 = circle_through((1, 1), (2, 4), (3, 9))
    assert all(isinstance(c, Fraction) for c in center)
    for p in ((1, 1), (2, 4), (3, 9)):
        assert (p[0] - center[0]) ** 2 + (p[1] - center[1]) ** 2 == r2
    with pytest.raises(NoCircle):
        circle_through((0, 0), (1, 1), (2, 2))


def test_slope_kappa_symmetry_and_oracle():
    assert slope_kappa(7, 2, 3) == slope_kappa(7, 3, 2)
    # independent oracle: the tangent at P_k is orthogonal to the radius
    for tk, tl, tm in [(7, 2, 3), (10, 1, 4), (100, 2, 50)]:
        (a, b), _ = circle_through(
            (tk, tk * tk), (tl, tl * tl), (tm, tm * tm))
        assert slope_kappa(tk, tl, tm) == -(Fraction(tk) - a) / (Fraction(tk) ** 2 - b)
    with pytest.raises(DegenerateInput):
        slope_kappa(1, 1, 2)


def test_slope_kappa_vertical_tangent():
    # tk=2, tl=0, tm=1 zeroes the denominator: 4 - 2 - (0 + 0 + 1 + 1) = 0
    with pytest.raises(VerticalTangent):
        slope_kappa(2, 0, 1)


def test_slope_bounds_on_growth_sequence():
    cfg = growth_sequence_case1(5)
    for l in range(1, 6):
        for m in range(l + 1, 6):
            for k in range(m + 1, 6):
                kappa = slope_kappa(cfg.t(k), cfg.t(l), cfg.t(m))
                assert -(cfg.t(l) + cfg.t(m) + 1) < kappa < -(cfg.t(l) + cfg.t(m))


def test_growth_sequence_case1():
    cfg = growth_sequence_case1(4)
    assert cfg.ts == (1, 100, 10**6, 10**14)
    assert check_growth_case1(cfg)
    assert not check_growth_case1(ParabolaConfig((1, 2, 3, 4)))


def test_config_validation():
    with pytest.raises(DegenerateInput):
        ParabolaConfig((1, 1, 2))
    with pytest.raises(DegenerateInput):
        ParabolaConfig((-1, 1, 2))


def test_check_growth_case23():
    assert not check_growth_case23(ParabolaConfig((1, 2, 3, 4)))
    cfg = upgrade_to_case23(growth_sequence_case1(4))
    assert check_growth_case23(cfg)
    assert check_growth_case1(cfg)  # doubling preserves case 1
    # n = 3: the condition starts at i > 3, hence vacuous
    assert check_growth_case23(growth_sequence_case1(3))
    with pytest.raises(InvalidContext):
        check_growth_case23(growth_sequence_case1(2))


def _case23_by_definition(ts):
    """The case-2/3 growth condition index by index, as the docstring of
    check_growth_case23 states it, squared to stay rational."""
    if ts[0] < 1:
        return False
    for i in range(4, len(ts) + 1):
        prefix = [(t, t * t) for t in ts[: i - 1]]
        t, prev = ts[i - 1], ts[i - 2]
        # t sin(alpha) >= 3 prev^2, both sides positive
        if t * t * min_angle_sin2(prefix) < 9 * prev**4:
            return False
        # t - prev^2 >= 2 R
        if t - prev * prev < 0 or (t - prev * prev) ** 2 < 4 * max_radius_sq(prefix):
            return False
    return True


def test_check_growth_case23_matches_definition():
    rng = random.Random(7)
    answers = []
    for _ in range(120):
        n = rng.randint(3, 6)
        ts = [Fraction(rng.randint(1, 12), rng.choice((1, 1, 2, 4)))]
        shape = rng.choice(("slow", "fast", "upgraded"))
        for _ in range(n - 1):
            if shape == "slow":
                ts.append(ts[-1] + Fraction(rng.randint(1, 9), rng.randint(1, 3)))
            else:
                ts.append(ts[-1] ** 2 * rng.randint(2, 400))
        cfg = ParabolaConfig(tuple(ts))
        if shape == "upgraded":
            cfg = upgrade_to_case23(cfg)
            ts = list(cfg.ts)
            u = rng.randrange(1, n)
            if u >= 3 and rng.random() < 0.5:
                ts[u] = ts[u - 1] ** 2 + 1  # fails first at index u + 1
            else:
                ts[u] *= Fraction(rng.randint(5, 15), 10)  # either side of it
            if all(a < b for a, b in zip(ts, ts[1:])):
                cfg = ParabolaConfig(tuple(ts))
        expected = _case23_by_definition(cfg.ts)
        assert check_growth_case23(cfg) == expected, cfg.ts
        answers.append(expected)
    assert True in answers and False in answers


def test_angle_and_radius_helpers():
    # isoceles right triangle: smallest angle 45 degrees, sin^2 = 1/2
    assert min_angle_sin2([(0, 0), (1, 0), (0, 1)]) == Fraction(1, 2)
    # radius of circle through the same triple: r^2 = 1/2
    assert max_radius_sq([(0, 0), (1, 0), (0, 1)]) == Fraction(1, 2)


def _smallest_angle_sin2(points):
    """sin^2 at the smallest angle, found without sin^2: the angle whose
    signed squared cosine dot |dot| / (|a|^2 |b|^2) is largest."""
    best = None
    for v in points:
        for u in points:
            for w in points:
                if len({u, v, w}) < 3 or u > w:
                    continue
                ax, ay = u[0] - v[0], u[1] - v[1]
                bx, by = w[0] - v[0], w[1] - v[1]
                dot, cross = ax * bx + ay * by, ax * by - ay * bx
                norm = (ax * ax + ay * ay) * (bx * bx + by * by)
                key = Fraction(dot * abs(dot), norm)
                if best is None or key > best[0]:
                    best = (key, Fraction(cross * cross, norm))
    return best[1]


def test_min_angle_sin2_is_sin2_of_the_smallest_angle():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(3, 6)
        if rng.random() < 0.5:
            ts = set()
            while len(ts) < m:
                ts.add(Fraction(rng.randint(-40, 40), rng.randint(1, 5)))
            points = [(t, t * t) for t in ts]
        else:
            points = []
            while len(points) < m:
                p = (Fraction(rng.randint(-20, 20), rng.randint(1, 3)),
                     Fraction(rng.randint(-20, 20), rng.randint(1, 3)))
                if p in points or any(
                        (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])
                        for q, r in combinations(points, 2)):
                    continue  # keep the points distinct, no three collinear
                points.append(p)
        assert min_angle_sin2(points) == _smallest_angle_sin2(points), points
    # integer points give an exact Fraction too, never a float
    rows = [([(0, 0), (1, 0), (0, 1)], Fraction(1, 2))]
    for points, expected in rows:
        sin2 = min_angle_sin2(points)
        assert sin2 == expected == _smallest_angle_sin2(points)
        assert type(sin2) is Fraction


def test_crossing_order_case1():
    cfg = growth_sequence_case1(5)
    assert crossing_order(cfg, 4, 1) == [(1, 2), (1, 3), (2, 3)]
    for j in range(3, 6):
        expected = [(l, m) for m in range(2, j) for l in range(1, m)]
        assert crossing_order(cfg, j, 1) == expected


def test_crossing_order_cases23():
    cfg = upgrade_to_case23(growth_sequence_case1(5))
    assert crossing_order(cfg, 3, 2) == [(2, 4), (2, 5), (1, 4), (1, 5)]
    cfg4 = upgrade_to_case23(growth_sequence_case1(4))
    assert crossing_order(cfg4, 1, 3) == [(3, 4), (2, 4), (2, 3)]
    for j in range(2, 5):
        expected = [(l, m) for l in range(j - 1, 0, -1) for m in range(j + 1, 6)]
        assert crossing_order(cfg, j, 2) == expected
    for j in range(1, 4):
        expected = [(l, m) for l in range(4, j, -1) for m in range(5, l, -1)]
        assert crossing_order(cfg, j, 3) == expected


def test_crossing_order_rejects_slow_growth():
    slow = ParabolaConfig((1, 2, 3, 4))
    with pytest.raises(UnorderedConfiguration):
        crossing_order(slow, 4, 1)
    with pytest.raises(UnorderedConfiguration):
        crossing_order(growth_sequence_case1(4), 2, 2)  # case 2/3 needs the upgrade
    for cfg in (slow, growth_sequence_case1(4)):
        with pytest.raises(UnorderedConfiguration):
            g4_word_geometric(1, 2, cfg)


def test_crossing_order_exclusion():
    cfg = growth_sequence_case1(5)
    full = crossing_order(cfg, 4, 1)
    without = crossing_order(cfg, 4, 1, exclude={2})
    assert without == [(l, m) for l, m in full if 2 not in (l, m)]


def test_g4_word_geometric_matches_algebraic_block():
    # the parabola builder expects g4_c's order; exact slopes must agree with
    # it for every n the builder accepts
    for n in (4, 5, 6, 7):
        cfg = upgrade_to_case23(growth_sequence_case1(n))
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                assert g4_word_geometric(i, j, cfg).letters == g4_c(i, j, n).letters

