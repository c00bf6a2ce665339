import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from braidcert.certificates import input_hash, persist
from braidcert.gnk import GnkWord, c_full, parse_gnk_word, relators
from braidcert.parity import BaseChoice, all_bases, phi, phi_all_bases
from braidcert.pbraid import PBWord, map_pb_to_g3, map_pb_to_g4, parse_pb_word, pb_letter
from braidcert.switches import (
    _distance,
    _pairing_cost,
    apply_switch,
    c_max,
    gnk_report,
    min_switches,
    min_switches_witness,
    pi_project,
    rough_unknotting_bound,
    switch_feasibility_necessary,
    switch_system,
    unknotting_report,
    z_pair,
)
from braidcert.words import reduce_involutive
from switch_oracles import (
    bfs_min_switches_witness,
    c_z_count,
    dict_pairing_cost,
    full_span,
    span_by_enumeration,
    z0_span,
)

BASE = BaseChoice(4, 3, (1, 2, 3))
E1, E2 = 0b01, 0b10
BETA = parse_gnk_word("a123 a234 a123 a134 a123 a134 a123 a234", 4, 3)
SYS = switch_system(BASE)


def random_even_hword(rng, dim, pairs):
    letters = []
    for _ in range(pairs):
        letters += [rng.randrange(1 << dim)] * 2
    rng.shuffle(letters)
    return reduce_involutive(tuple(letters))


def test_z_pair_examples():
    assert z_pair(1, 2, BASE) == E1 | E2
    assert z_pair(1, 3, BASE) == E2
    assert z_pair(2, 3, BASE) == E1
    assert z_pair(1, 4, BASE) == E1  # xor of psi(a124) and psi(a134)


def test_switch_system_spans():
    assert z0_span(SYS) == (0, E1, E2, E1 | E2)  # pairs inside m span everything
    assert full_span(SYS) == (0, E1, E2, E1 | E2)
    assert SYS.pairs == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_apply_switch_worked_example():
    y = phi(BETA, BASE)
    y1 = apply_switch(y, 2, 1, 3, SYS)
    assert y1 == (0, E1)
    y2 = apply_switch(y1, 1, 2, 3, SYS)
    assert y2 == ()


def test_apply_switch_adjacent_collapse():
    # switching one of two adjacent letters so they become equal kills both
    w = (E1, E2)
    z = E1 ^ E2
    pair = next(p for p in SYS.pairs if SYS.z(*p) == z)
    assert apply_switch(w, 0, *pair, SYS) == ()


def test_apply_switch_errors():
    with pytest.raises(IndexError):
        apply_switch((E1,), 1, 1, 2, SYS)


def test_feasibility_examples():
    assert switch_feasibility_necessary((), SYS)
    assert switch_feasibility_necessary(phi(BETA, BASE), SYS)
    assert not switch_feasibility_necessary((0,), SYS)


def test_switch_vectors_are_block_local_or_diagonal():
    # the lemma behind the closed-form distance, the parity-only feasibility
    # test and the whole Z0: z_ip is the psi of m - {i} + {p}, z_pq vanishes,
    # z_ij repeats psi_i ^ psi_j in every block; every unit vector is a
    # switch vector (the block-local psi_i for i < k are the e_i), so the
    # z_ij span all of Z, and Z0 has at most 4 elements
    for k in (3, 4):
        for n in range(k, 11):
            for base in all_bases(n, k):
                sys = switch_system(base)
                vectors = {z for _, z in sys.pair_table}
                assert all(1 << b in vectors for b in range(base.dim))
                assert len(sys.z0) <= 4
                psi = {(i, p): base.psi[tuple(sorted(set(base.m) - {i} | {p}))]
                       for i in base.m for p in base.outside}
                for (i, j), z in sys.pair_table:
                    if i in base.m and j in base.m:
                        diagonal = 0
                        for p in base.outside:
                            diagonal ^= psi[i, p] ^ psi[j, p]
                        assert z == diagonal
                    elif i in base.m or j in base.m:
                        assert z == psi[(i, j) if i in base.m else (j, i)]
                    else:
                        assert z == 0


def test_min_switches_examples():
    assert min_switches((), SYS) == 0
    count, witness = min_switches_witness(phi(BETA, BASE), SYS, budget=6)
    assert (count, witness) == (2, ((0, 1, 4), (0, 1, 3)))
    # replaying the witness trivialises the word
    w = phi(BETA, BASE)
    for pos, i, j in witness:
        w = apply_switch(w, pos, i, j, SYS)
    assert w == ()


def test_min_switches_budget_exceeded():
    assert min_switches((0,), SYS, budget=10) is None  # odd word, never trivial
    y = phi(BETA, BASE)
    assert min_switches(y, SYS, budget=1) is None
    assert min_switches(y, SYS, budget=2) == 2


def test_switches_never_increase_length():
    rng = random.Random(12)
    for _ in range(200):
        w = random_even_hword(rng, BASE.dim, rng.randrange(1, 5))
        if not w:
            continue
        pos = rng.randrange(len(w))
        i, j = rng.choice(SYS.pairs)
        assert len(apply_switch(w, pos, i, j, SYS)) <= len(w)


def test_pi_project_examples():
    assert pi_project(phi(BETA, BASE)) == {0, E1 | E2}
    assert pi_project((E1, E1)) == frozenset()
    assert pi_project(()) == frozenset()


def test_pi_invariant_under_pair_insertion():
    rng = random.Random(13)
    for _ in range(100):
        w = random_even_hword(rng, 2, rng.randrange(4))
        x = rng.randrange(4)
        cut = rng.randrange(len(w) + 1)
        assert pi_project(w[:cut] + (x, x) + w[cut:]) == pi_project(w)


def test_c_counts_worked_example():
    xi = pi_project(phi(BETA, BASE))
    for z in range(4):
        assert c_z_count(xi, z, SYS) == 2
    assert c_max(xi, SYS) == 2
    assert c_max(frozenset(), SYS) == 0


def test_c_z_depends_only_on_coset():
    rng = random.Random(14)
    base5 = BaseChoice(5, 3, (1, 2, 3))
    sys5 = switch_system(base5)
    for _ in range(50):
        xi = frozenset(rng.sample(range(1 << base5.dim), rng.randrange(5)))
        for z in range(1 << base5.dim):
            for z0 in z0_span(sys5):
                assert c_z_count(xi, z, sys5) == c_z_count(xi, z ^ z0, sys5)


def test_rough_bound_examples():
    assert rough_unknotting_bound(BETA, BASE) == 1
    assert rough_unknotting_bound(GnkWord(4, 3, ()), BASE) == 0
    tetra = relators(4, 3)[-1]
    assert rough_unknotting_bound(tetra, BASE) == 0


def test_full_twist_insertion_inserts_switch_pair():
    # inserting c_ij^2 at a cut of an even word inserts the adjacent pair
    # f_{x+z_ij} f_x at that position of the parity image, for the x reached
    # while processing the suffix
    from braidcert.parity import phi_at

    rng = random.Random(15)
    from braidcert.gnk import generators

    gens = generators(4, 3)
    for _ in range(60):
        letters = []
        for _ in range(rng.randrange(3)):
            letters += [rng.choice(gens)] * 2
        rng.shuffle(letters)
        w = tuple(letters)
        i, j = sorted(rng.sample(range(1, 5), 2))
        twist = c_full(i, j, 4, 3).letters * 2
        cut = rng.randrange(len(w) + 1)
        prefix, suffix = w[:cut], w[cut:]
        y = phi(GnkWord(4, 3, w), BASE)
        y2 = phi(GnkWord(4, 3, prefix + twist + suffix), BASE)
        x_v, y_v = phi_at(GnkWord(4, 3, suffix), BASE, 0)
        _, produced_prefix = phi_at(GnkWord(4, 3, prefix), BASE, x_v)
        assert reduce_involutive(produced_prefix + y_v) == y
        if set((i, j)) <= set(BASE.m):
            z = z_pair(i, j, BASE)
            candidates = {
                reduce_involutive(produced_prefix + (x ^ z, x) + y_v)
                for x in range(4)
            }
            assert y2 in candidates
        else:
            # the inserted block contains no base letter, so the image is unchanged
            assert y2 == y


@pytest.mark.parametrize("k", (3, 4))
def test_generator_images_cost_one_switch(k):
    # the crossing-change argument of the switches module docstring: on a
    # base m the image of b_ab is empty unless a, b are in m, and otherwise
    # f_u f_{u^z}, or f_v f_u f_{u^z} f_v at k = 4 only, with z = z_ab != 0;
    # one switch kills each nonempty image
    mapper = map_pb_to_g3 if k == 3 else map_pb_to_g4
    for n in range(k + 1, 10):
        bases = all_bases(n, k)
        for a, b in combinations(range(1, n + 1), 2):
            images = phi_all_bases(mapper(PBWord(n, (pb_letter(a, b),))))
            for base, y in zip(bases, images):
                if not {a, b} <= set(base.m):
                    assert y == ()
                    continue
                z = z_pair(a, b, base)
                assert z != 0
                assert len(y) == 2 or (k == 4 and len(y) == 4 and y[0] == y[3])
                u, uz = y[1:3] if len(y) == 4 else y
                assert uz == u ^ z
                assert min_switches(y, switch_system(base), budget=1) == 1


def test_min_switches_at_least_rough_bound():
    rng = random.Random(16)
    for _ in range(60):
        w = random_even_hword(rng, BASE.dim, rng.randrange(4))
        exact = min_switches(w, SYS, budget=8)
        xi = pi_project(w)
        rough = (c_max(xi, SYS) + 1) // 2
        if exact is not None:
            assert exact >= rough


# ---------------------------------------------------------------------------
# The exact switch minimum: the interval DP against the breadth-first oracle.

def braid_image_contexts():
    """(image, system) for every (k, base) context, k = 3 and 4, of the
    images of seeded random pure braids of length 2-8 at n = 4 and 5."""
    rng = random.Random(0)
    out = []
    for n in (4, 5):
        for _ in range(5):
            letters = []
            for _ in range(rng.randrange(2, 9)):
                i, j = sorted(rng.sample(range(1, n + 1), 2))
                letters.append(pb_letter(i, j, rng.choice((1, -1)), n=n))
            w = PBWord(n, tuple(letters))
            for image in (map_pb_to_g3(w), map_pb_to_g4(w)):
                out += [(phi(image, base), switch_system(base))
                        for base in all_bases(n, image.k)]
    return out


CORPUS = braid_image_contexts()


def test_min_switches_matches_bfs_oracle():
    for y, sys in CORPUS:
        m, _ = bfs_min_switches_witness(y, sys, 4)
        for budget in range(5):
            expect = m if m is not None and m <= budget else None
            assert min_switches(y, sys, budget) == expect, (y, sys.base.m, budget)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=8), st.integers(0, 4))
def test_min_switches_matches_bfs_on_short_words(letters, budget):
    w = tuple(letters)
    assert min_switches(w, SYS, budget) == bfs_min_switches_witness(w, SYS, budget)[0]


def test_witness_replays_in_exactly_count_moves():
    for y, sys in CORPUS:
        count, witness = min_switches_witness(y, sys, 64)
        assert min_switches_witness(y, sys, 64) == (count, witness)
        if count is None:
            assert witness is None
            continue
        assert len(witness) == count
        for pos, i, j in witness:
            y = apply_switch(y, pos, i, j, sys)
        assert y == ()


def test_budget_caps_the_minimum():
    for y, sys in CORPUS:
        m = min_switches(y, sys, 64)
        for budget in range(7):
            assert min_switches(y, sys, budget) == (m if m is not None and m <= budget else None)


def test_hard_word_minimum():
    # minimum 5 on an image of length 10: the breadth-first search explored
    # millions of words at budget 4 without settling this context
    w = parse_pb_word("B34 b15 b24 b12 b35 b25 b25 b35 B34 b35", 5)
    base = BaseChoice(5, 3, (3, 4, 5))
    y, sys = phi(map_pb_to_g3(w), base), switch_system(base)
    assert len(y) == 10
    assert min_switches(y, sys, 4) is None
    assert min_switches_witness(y, sys, 5) == (
        5, ((0, 3, 4), (0, 3, 5), (0, 3, 5), (0, 3, 4), (0, 3, 5)))


def test_feasibility_runs_once_per_context(monkeypatch):
    import braidcert.switches as switches

    def no_distances(*args):
        raise AssertionError("budget 0 needs no switch distances")

    pairs_priced = []

    def counting_z_pair(i, j, base):
        pairs_priced.append((i, j, base))
        return z_pair(i, j, base)

    calls = count_contract_calls(monkeypatch)
    monkeypatch.setattr(switches, "_distance", no_distances)
    monkeypatch.setattr(switches, "z_pair", counting_z_pair)
    cert = unknotting_report(parse_pb_word("B67 B36", 7), budget=0)
    assert len(cert.contexts) == 70
    assert calls["switch_feasibility_necessary"] == 70
    assert calls["apply_switch"] == 0
    # budget 0 reads only Z0, so no pair table is built, and Z0 comes from
    # the block values of k without pricing a single pair
    assert pairs_priced == []
    keyed = [c for c in cert.contexts if c.pi_support]
    assert 0 < len(keyed) < 70


# ---------------------------------------------------------------------------
# Oracles for the coset keys and the switch distances: the definitions by
# span enumeration.

def key_by_enumeration(x, span):
    return min(x ^ s for s in span)


def c_max_by_enumeration(xi, sys, z0):
    best = 0
    seen = set()
    for z in range(1 << sys.base.dim):
        key = key_by_enumeration(z, z0)
        if key not in seen:
            seen.add(key)
            best = max(best, sum(1 for s in z0 if (key ^ s) in xi))
    return best


def feasible_by_enumeration(w, full):
    word = reduce_involutive(w)
    counts = {}
    for x in word:
        key = key_by_enumeration(x, full)
        counts[key] = counts.get(key, 0) + 1
    return len(word) % 2 == 0 and all(c % 2 == 0 for c in counts.values())


def z_pair_by_definition(i, j, base):
    from itertools import combinations

    from braidcert.parity import psi_letter

    others = [x for x in range(1, base.n + 1) if x not in (i, j)]
    out = 0
    for extra in combinations(others, base.k - 2):
        out ^= psi_letter(tuple(sorted((i, j) + extra)), base)
    return out


def seeded_bases(n, k, count, seed):
    return random.Random(seed).sample(all_bases(n, k), count)


ORACLE_SYSTEMS = [switch_system(base) for base in
                  [base for n in range(4, 8) for k in (3, 4) for base in all_bases(n, k)]
                  + [base for n in range(4, 7) for base in all_bases(n, 2)]
                  + seeded_bases(8, 3, 3, 20) + seeded_bases(8, 4, 3, 21)
                  + seeded_bases(9, 3, 3, 22)]


def cayley_distances(sys):
    """Distance from 0 of every element of the span of all z_ij, by
    breadth-first search over the whole span."""
    gens = {z for _, z in sys.pair_table if z}
    dist = {0: 0}
    layer = [0]
    while layer:
        nxt = []
        for x in layer:
            for g in gens:
                if x ^ g not in dist:
                    dist[x ^ g] = dist[x] + 1
                    nxt.append(x ^ g)
        layer = nxt
    return dist


@pytest.mark.parametrize("sys", ORACLE_SYSTEMS, ids=lambda s: f"n{s.base.n}m{''.join(map(str, s.base.m))}")
def test_distance_matches_cayley_bfs(sys):
    dist = cayley_distances(sys)
    assert len(dist) == 1 << sys.base.dim
    d = _distance(sys)
    for x in range(1 << sys.base.dim):
        assert d(x) == dist[x], x


@pytest.mark.parametrize("sys", ORACLE_SYSTEMS, ids=lambda s: f"n{s.base.n}m{''.join(map(str, s.base.m))}")
def test_echelon_keys_match_span_enumeration(sys):
    rng = random.Random(repr((sys.base.n, sys.base.m)))
    dim = sys.base.dim
    assert all(z == z_pair_by_definition(i, j, sys.base) for (i, j), z in sys.pair_table)
    z0 = span_by_enumeration(z for (i, j), z in sys.pair_table
                             if i in sys.base.m and j in sys.base.m)
    full = span_by_enumeration(z for _, z in sys.pair_table)
    assert sys.z0 == tuple(z0)
    probes = range(1 << dim) if dim <= 6 else [rng.randrange(1 << dim) for _ in range(64)]
    for x in probes:
        assert sys.z0_key(x) == key_by_enumeration(x, z0)
    for _ in range(20):
        xi = frozenset(rng.randrange(1 << dim) for _ in range(rng.randrange(12)))
        assert c_max(xi, sys) == c_max_by_enumeration(xi, sys, z0)
    for _ in range(20):
        w = tuple(rng.randrange(1 << dim) for _ in range(rng.randrange(8)))
        assert switch_feasibility_necessary(w, sys) == feasible_by_enumeration(w, full)
        assert switch_feasibility_necessary(w + w[::-1], sys)


DP_SYSTEMS = [sys for sys in ORACLE_SYSTEMS if sys.base.k in (3, 4) and sys.base.n <= 7]


@st.composite
def dp_cases(draw):
    """A switch system and an even word of length <= 24 over at most four
    letters of its Z, so that equal costs, and hence ties, are common."""
    sys = draw(st.sampled_from(DP_SYSTEMS))
    pool = draw(st.lists(st.integers(0, (1 << sys.base.dim) - 1), min_size=1, max_size=4))
    size = 2 * draw(st.integers(0, 12))
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))), sys


@settings(max_examples=300, deadline=None)
@given(dp_cases())
def test_flat_pairing_cost_matches_dict_reference(case):
    w, sys = case
    d = _distance(sys)
    assert _pairing_cost(w, d) == dict_pairing_cost(w, d)


def test_flat_pairing_cost_breaks_ties_by_least_partner():
    d = _distance(SYS)
    # on (x x x x) partners 1 and 3 of position 0 both cost 0, and on
    # (x y x y) both cost 2 d(x ^ y)
    for w in ((E1,) * 4, (E1, E2, E1, E2)):
        assert _pairing_cost(w, d) == dict_pairing_cost(w, d)
        assert _pairing_cost(w, d)[1][0, 4] == 1
    assert _pairing_cost((E1,) * 4, d) == (0, {(0, 2): 1, (1, 3): 2, (2, 4): 3, (0, 4): 1})


def test_c_max_wide_base():
    # n = 12, k = 4: dim = 24, so a pass over all of Z would take hours
    sys = switch_system(BaseChoice(12, 4, (2, 5, 7, 11)))
    assert sys.base.dim == 24 and len(z0_span(sys)) == 4
    rng = random.Random(18)
    xi = {rng.randrange(1 << 24) for _ in range(300)}
    xi |= {x ^ z0 for x in list(xi)[:5] for z0 in z0_span(sys)}
    groups = {}
    for x in xi:
        key = key_by_enumeration(x, z0_span(sys))
        groups[key] = groups.get(key, 0) + 1
    assert c_max(frozenset(xi), sys) == max(groups.values()) == 4


# ---------------------------------------------------------------------------
# Reports and certificates.

def test_gnk_report_worked_example():
    cert = gnk_report(BETA, budget=6)
    best = cert.best
    assert best.bound == 2
    assert best.k == 3 and best.base_m == (1, 2, 3)
    ctx = next(c for c in cert.contexts if c.base_m == (1, 2, 3))
    assert ctx.phi_image == "f[00] f[10] f[11] f[10]"
    assert ctx.rough_bound == 1
    assert ctx.min_switches == 2


def test_unknotting_report_empty_braid():
    cert = unknotting_report(parse_pb_word("", 4), budget=4)
    assert all(c.rough_bound == 0 and c.min_switches == 0 for c in cert.contexts)
    assert cert.best.bound == 0
    assert cert.trisecant_bound == 0
    assert cert.quadrisecant_bound == 0


def test_unknotting_report_b12_squared():
    cert = unknotting_report(parse_pb_word("b12 b12", 4), budget=8)
    ctx = next(c for c in cert.contexts if c.k == 3 and c.base_m == (1, 2, 3))
    # frozen from the expansion oracle: two full twists, image f0 f_z f0 f_z
    assert ctx.phi_image == "f[00] f[11] f[00] f[11]"
    assert ctx.rough_bound == 0  # projection vanishes: every letter is even
    assert ctx.min_switches == 2
    assert cert.best.bound == 2
    assert cert.trisecant_bound == 4


def test_unknotting_report_event_bounds_match_standalone():
    from braidcert.parity import quadrisecant_lower_bound, trisecant_lower_bound
    from braidcert.pbraid import PBWord, pb_letter

    rng = random.Random(19)
    for n in (3, 4, 5, 6):
        for _ in range(4):
            letters = []
            for _ in range(rng.randrange(4)):
                i, j = sorted(rng.sample(range(1, n + 1), 2))
                letters.append(pb_letter(i, j, rng.choice((1, -1)), n=n))
            w = PBWord(n, tuple(letters))
            cert = unknotting_report(w, budget=0)
            assert cert.trisecant_bound == trisecant_lower_bound(w)
            assert cert.quadrisecant_bound == quadrisecant_lower_bound(w)


# The per-layer benchmark wraps attributes of ``switches`` such as these; the
# reports must look each one up in the module at call time, or a wrapper sees
# no call.
CONTRACT_ATTRS = ("switch_system", "c_max", "switch_feasibility_necessary",
                  "min_switches_witness", "apply_switch", "phi_all_bases",
                  "phi_pb_all_bases", "map_pb_to_g3", "map_pb_to_g4")


def count_contract_calls(monkeypatch):
    import braidcert.switches as switches

    calls = dict.fromkeys(CONTRACT_ATTRS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in CONTRACT_ATTRS:
        monkeypatch.setattr(switches, name, counting(name, getattr(switches, name)))
    return calls


def test_reports_call_through_module_attributes(monkeypatch):
    calls = count_contract_calls(monkeypatch)
    unknotting_report(parse_pb_word("b13 B23", 5), budget=2)
    assert [name for name, c in calls.items() if c == 0] == ["phi_all_bases"]
    calls = count_contract_calls(monkeypatch)
    gnk_report(BETA, budget=6)
    assert [name for name, c in calls.items() if c == 0] == [
        "phi_pb_all_bases", "map_pb_to_g3", "map_pb_to_g4"]


def test_certificate_serialization_round_trip(tmp_path):
    cert = gnk_report(BETA, budget=6)
    blob = cert.to_json()
    data = json.loads(blob)
    assert data["best_bound"] == 2
    assert data["tool_version"] == "0.1.0"
    assert "timing_ms" not in data  # deterministic bytes by default
    path, text = persist(cert, tmp_path)
    assert text == blob
    assert path.read_text() == blob + "\n"
    again, _ = persist(gnk_report(BETA, budget=6), tmp_path)
    assert again == path and again.read_text() == blob + "\n"


def test_input_hash_stable():
    assert input_hash("gnk", "a123 a123", 4, 6) == input_hash("gnk", "a123 a123", 4, 6)
    assert input_hash("gnk", "a123 a123", 4, 6) != input_hash("gnk", "a123 a123", 5, 6)
