"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact arithmetic, so every comparison is plain equality; no
tolerances appear anywhere.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they print.
"""

import functools
import random
from fractions import Fraction

from braidcert.gnk import parse_gnk_word, relators
from braidcert.geometry import (
    circle_through,
    concyclic_on_parabola,
    crossing_order,
    delta_det,
    delta_factored,
    fourth_intersection,
    growth_sequence_case1,
    slope_kappa,
    upgrade_to_case23,
)
from braidcert.parity import (
    BaseChoice,
    all_bases,
    format_hword,
    is_even,
    phi,
    phi_at,
    psi_word,
    trisecant_lower_bound,
)
from braidcert.pbraid import (
    PBWord,
    even_to_pb3,
    map_pb_to_g3,
    map_pb_to_g4,
    parse_pb_word,
    pb3_to_even,
    pb_letter,
    pb_relators,
)
from braidcert.switches import (
    apply_switch,
    c_max,
    min_switches,
    min_switches_witness,
    pi_project,
    rough_unknotting_bound,
    switch_system,
    z_pair,
)
from braidcert.trace import event_word, simulate_bij_circle, simulate_bij_parabola
from braidcert.words import (
    complexity,
    parse_toy_word,
    reduce_involutive,
    toy_switch_feasible,
    toy_switch_lower_bound,
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return wrapper

    return decorate


@criterion(1, "worked four-strand example end to end, exact")
def test_criterion_1_worked_example():
    base = BaseChoice(4, 3, (1, 2, 3))
    beta = parse_gnk_word("a123 a234 a123 a134 a123 a134 a123 a234", 4, 3)
    e1, e2 = 1 << base.bit(4, 1), 1 << base.bit(4, 2)

    assert z_pair(1, 2, base) == e1 ^ e2
    assert z_pair(1, 3, base) == e2
    assert z_pair(2, 3, base) == e1

    y = phi(beta, base)
    assert y == (0, e1, e1 ^ e2, e1)
    assert format_hword(y, base) == "f[00] f[10] f[11] f[10]"

    assert pi_project(y) == {0, e1 ^ e2}
    assert rough_unknotting_bound(beta, base) == 1

    sys = switch_system(base)
    # the witness matching pairs neighbours one switch apart: f0 with f_e1,
    # and f_(e1+e2) with f_e1
    assert min_switches_witness(y, sys, budget=6) == (2, ((0, 1), (2, 3)))
    assert [min_switches((y[a], y[b]), sys) for a, b in ((0, 1), (2, 3))] == [1, 1]
    # the explicit two-switch trivialisation: z13 on the third letter, then
    # z23 on the second
    step1 = apply_switch(y, 2, 1, 3, sys)
    assert step1 == (0, e1)
    assert apply_switch(step1, 1, 2, 3, sys) == ()


@criterion(2, "toy model: feasibility, bound 5, complexity 8, insertions")
def test_criterion_2_toy_model():
    w_prime = parse_toy_word("a^4 b^2 c^4 b^-4")
    assert toy_switch_feasible(w_prime)
    assert toy_switch_lower_bound(w_prime) == 5

    w = parse_toy_word("a b c b a b c a")
    assert not toy_switch_feasible(w)

    letters = tuple("abcbabca")
    assert complexity(letters) == 8
    rng = random.Random(2024)
    for _ in range(500):
        cut = rng.randrange(len(letters) + 1)
        x = rng.choice("abc")
        padded = letters[:cut] + (x, x) + letters[cut:]
        assert reduce_involutive(padded) == letters


@criterion(3, "relator soundness: group relators and braid relators, exhaustive")
def test_criterion_3_relator_soundness():
    for n, k in ((3, 3), (4, 3), (5, 3), (5, 4)):
        bases = all_bases(n, k)
        dim = bases[0].dim
        for r in relators(n, k):
            for base in bases:
                for x in range(1 << dim):
                    assert phi_at(r, base, x) == (x, ())
    for n, k, mapper in ((3, 3, map_pb_to_g3), (4, 3, map_pb_to_g3),
                         (5, 3, map_pb_to_g3), (5, 4, map_pb_to_g4)):
        bases = all_bases(n, k)
        for rel in pb_relators(n):
            if rel.tag == "printed_vacuous":
                continue
            image = mapper(rel.left * rel.right.inverse())
            assert is_even(image)
            for base in bases:
                assert psi_word(image, base) == 0
                assert phi(image, base) == ()


@criterion(4, "concyclicity determinant: factorisation, iff, fourth point")
def test_criterion_4_concyclicity_determinant():
    rng = random.Random(42)
    for _ in range(1000):
        xs = [Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**4))
              for _ in range(4)]
        assert delta_det(*xs) == delta_factored(*xs)
    for _ in range(300):
        xs = sorted(rng.sample(range(1, 10**9), 3))
        fourth = -(xs[0] + xs[1] + xs[2])
        assert concyclic_on_parabola(fourth, *xs)
        assert delta_det(fourth, *xs) == 0
        assert not concyclic_on_parabola(fourth - 1, *xs)
        assert delta_det(fourth - 1, *xs) != 0
    for _ in range(300):
        ts = sorted(Fraction(rng.randint(1, 10**6), rng.randint(1, 100))
                    for _ in range(3))
        if len(set(ts)) < 3:
            continue
        s = fourth_intersection(*ts)
        assert s < 0
        center, r2 = circle_through(*((t, t * t) for t in ts))
        assert (s - center[0]) ** 2 + (s * s - center[1]) ** 2 == r2


@criterion(5, "slope bounds and crossing orders match the closed forms")
def test_criterion_5_slopes_and_orders():
    cfg = growth_sequence_case1(5)
    for l in range(1, 6):
        for m in range(l + 1, 6):
            for k in range(m + 1, 6):
                kappa = slope_kappa(cfg.t(k), cfg.t(l), cfg.t(m))
                assert -(cfg.t(l) + cfg.t(m) + 1) < kappa < -(cfg.t(l) + cfg.t(m))
    for j in range(3, 6):
        expected = [(l, m) for m in range(2, j) for l in range(1, m)]
        assert crossing_order(cfg, j, 1) == expected
    cfg23 = upgrade_to_case23(cfg)
    for j in range(2, 5):
        expected = [(l, m) for l in range(j - 1, 0, -1) for m in range(j + 1, 6)]
        assert crossing_order(cfg23, j, 2) == expected
    for j in range(1, 4):
        expected = [(l, m) for l in range(4, j, -1) for m in range(5, l, -1)]
        assert crossing_order(cfg23, j, 3) == expected


@criterion(6, "tracers reproduce the algebraic images for all generators, n=4")
def test_criterion_6_tracer_cross_validation():
    bases3 = all_bases(4, 3)
    for i in range(1, 4):
        for j in range(i + 1, 5):
            traced = event_word(4, 3, simulate_bij_circle(i, j, 4)[1])
            image = map_pb_to_g3(PBWord(4, (pb_letter(i, j),)), reduced=False)
            assert is_even(traced)
            for base in bases3:
                assert psi_word(traced, base) == psi_word(image, base)
                assert phi(traced, base) == phi(image, base)
    traced = event_word(4, 4, simulate_bij_parabola(1, 2, 4)[1])
    image = map_pb_to_g4(parse_pb_word("b12", 4), reduced=False)
    assert is_even(traced)
    for base in all_bases(4, 4):
        assert psi_word(traced, base) == psi_word(image, base)
        assert phi(traced, base) == phi(image, base)


@criterion(7, "three-strand translation: relators, round trip, free images")
def test_criterion_7_three_strand_maps():
    for rel in pb_relators(3):
        if rel.tag == "printed_vacuous":
            continue
        assert pb3_to_even(rel.left * rel.right.inverse()) == ()

    # exhaustive round trip over all reduced even words of length <= 10
    def reduced_words(length):
        if length == 0:
            yield ()
            return
        for prefix in reduced_words(length - 1):
            for x in (1, 2, 3):
                if not prefix or prefix[-1] != x:
                    yield prefix + (x,)

    total = 0
    for length in range(0, 11, 2):
        for w in reduced_words(length):
            assert pb3_to_even(even_to_pb3(w)) == w
            total += 1
    assert total == 1 + 6 + 24 + 96 + 384 + 1536

    # no nontrivial reduced relation of length <= 12 between the images
    # u = a3 a1 and v = a2 a3: depth-first search with an undo stack
    images = {1: (3, 1), 2: (1, 3), 3: (2, 3), 4: (3, 2)}  # u, u^-1, v, v^-1
    inverse = {1: 2, 2: 1, 3: 4, 4: 3}
    stack: list[int] = []

    def push(letter):
        undo = []
        for x in images[letter]:
            if stack and stack[-1] == x:
                undo.append(("pop", stack.pop()))
            else:
                stack.append(x)
                undo.append(("push", x))
        return undo

    def unwind(undo):
        for op, x in reversed(undo):
            if op == "pop":
                stack.append(x)
            else:
                stack.pop()

    def dfs(last, depth):
        if depth == 12:
            return
        for g in (1, 2, 3, 4):
            if last and g == inverse[last]:
                continue
            undo = push(g)
            assert stack, "nontrivial relation between the generator images"
            dfs(g, depth + 1)
            unwind(undo)

    dfs(0, 0)


@criterion(8, "bound monotonicity on a seeded corpus")
def test_criterion_8_bound_monotonicity():
    rng = random.Random(20240811)
    base = BaseChoice(4, 3, (1, 2, 3))
    sys = switch_system(base)

    # trisecant bound never exceeds the unreduced event count
    for _ in range(100):
        letters = []
        for _ in range(rng.randrange(4)):
            i, j = sorted(rng.sample(range(1, 5), 2))
            letters.append(pb_letter(i, j, rng.choice((1, -1))))
        w = PBWord(4, tuple(letters))
        assert trisecant_lower_bound(w) <= len(map_pb_to_g3(w, reduced=False))

    # min_switches >= rough bound on a 100-word corpus, n=4, k=3
    computed = 0
    for _ in range(100):
        letters = []
        for _ in range(rng.randrange(1, 3)):
            i, j = sorted(rng.sample(range(1, 5), 2))
            letters.append(pb_letter(i, j, rng.choice((1, -1))))
        w = PBWord(4, tuple(letters))
        image = map_pb_to_g3(w)
        for b in all_bases(4, 3):
            y = phi(image, b)
            s = switch_system(b)
            exact = min_switches(y, s, budget=6)
            rough = (c_max(pi_project(y), s) + 1) // 2
            if exact is not None:
                computed += 1
                assert exact >= rough
    assert computed >= 300  # the budget must cover the vast majority

    # switches never increase the reduced length
    for _ in range(300):
        letters = []
        for _ in range(rng.randrange(1, 5)):
            letters += [rng.randrange(4)] * 2
        rng.shuffle(letters)
        y = reduce_involutive(tuple(letters))
        if not y:
            continue
        pos = rng.randrange(len(y))
        (i, j), _ = rng.choice(sys.pair_table)
        assert len(apply_switch(y, pos, i, j, sys)) <= len(y)
