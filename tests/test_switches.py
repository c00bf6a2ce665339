import json
import random

import pytest

from braidcert.certificates import input_hash, persist
from braidcert.gnk import GnkWord, c_full, parse_gnk_word, relators
from braidcert.parity import BaseChoice, all_bases, phi
from braidcert.pbraid import parse_pb_word
from braidcert.switches import (
    SwitchSystem,
    apply_switch,
    c_max,
    c_z_count,
    gf2_basis,
    gf2_reduce,
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
    assert SYS.z0_span == (0, E1, E2, E1 | E2)  # pairs inside m span everything
    assert SYS.full_span == (0, E1, E2, E1 | E2)
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


def test_feasibility_coset_obstruction():
    # base {1,2,3} in n = 5: strand 5 interacts through its own block of Z,
    # so a letter pair split across distinct cosets is infeasible
    base5 = BaseChoice(5, 3, (1, 2, 3))
    sys5 = switch_system(base5)
    if len(sys5.full_span) < (1 << base5.dim):
        outside = next(x for x in range(1 << base5.dim) if x not in sys5.full_span)
        assert not switch_feasibility_necessary((0, outside), sys5)


def test_min_switches_examples():
    assert min_switches((), SYS) == 0
    count, witness = min_switches_witness(phi(BETA, BASE), SYS, budget=6)
    assert count == 2
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


def test_c_count_singleton_subgroup():
    trivial = SwitchSystem(BASE, SYS.pair_table, (0,), SYS.full_span)
    assert c_max(frozenset({E1}), trivial) == 1
    assert c_z_count(frozenset({E1}), E1, trivial) == 1
    assert c_z_count(frozenset({E1}), E2, trivial) == 0


def test_c_z_depends_only_on_coset():
    rng = random.Random(14)
    base5 = BaseChoice(5, 3, (1, 2, 3))
    sys5 = switch_system(base5)
    for _ in range(50):
        xi = frozenset(rng.sample(range(1 << base5.dim), rng.randrange(5)))
        for z in range(1 << base5.dim):
            for z0 in sys5.z0_span:
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
# Oracles for the echelon coset keys: the definitions by span enumeration.

def span_by_enumeration(vectors):
    span = {0}
    for v in vectors:
        span |= {x ^ v for x in span}
    return sorted(span)


def key_by_enumeration(x, span):
    return min(x ^ s for s in span)


def c_max_by_enumeration(xi, sys, z0_span):
    best = 0
    seen = set()
    for z in range(1 << sys.base.dim):
        key = key_by_enumeration(z, z0_span)
        if key not in seen:
            seen.add(key)
            best = max(best, sum(1 for z0 in z0_span if (key ^ z0) in xi))
    return best


def feasible_by_enumeration(w, full_span):
    word = reduce_involutive(w)
    counts = {}
    for x in word:
        key = key_by_enumeration(x, full_span)
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


ORACLE_SYSTEMS = [switch_system(base)
                  for n in range(4, 7) for k in (3, 4) for base in all_bases(n, k)]


@pytest.mark.parametrize("sys", ORACLE_SYSTEMS, ids=lambda s: f"n{s.base.n}m{''.join(map(str, s.base.m))}")
def test_echelon_keys_match_span_enumeration(sys):
    rng = random.Random(repr((sys.base.n, sys.base.m)))
    dim = sys.base.dim
    assert all(z == z_pair_by_definition(i, j, sys.base) for (i, j), z in sys.pair_table)
    z0_span = span_by_enumeration(z for (i, j), z in sys.pair_table
                                  if i in sys.base.m and j in sys.base.m)
    full_span = span_by_enumeration(z for _, z in sys.pair_table)
    assert list(sys.z0_span) == z0_span and list(sys.full_span) == full_span
    assert len(sys.z0_basis) == len(z0_span).bit_length() - 1
    assert len(sys.full_basis) == len(full_span).bit_length() - 1
    probes = range(1 << dim) if dim <= 6 else [rng.randrange(1 << dim) for _ in range(64)]
    for x in probes:
        assert sys.z0_key(x) == key_by_enumeration(x, z0_span)
        assert sys.full_key(x) == key_by_enumeration(x, full_span)
    for _ in range(20):
        xi = frozenset(rng.randrange(1 << dim) for _ in range(rng.randrange(12)))
        assert c_max(xi, sys) == c_max_by_enumeration(xi, sys, z0_span)
    for _ in range(20):
        w = tuple(rng.randrange(1 << dim) for _ in range(rng.randrange(8)))
        assert switch_feasibility_necessary(w, sys) == feasible_by_enumeration(w, full_span)
        assert switch_feasibility_necessary(w + w[::-1], sys)


def test_gf2_basis_is_canonical():
    rng = random.Random(17)
    for _ in range(200):
        dim = rng.randrange(1, 9)
        gens = [rng.randrange(1 << dim) for _ in range(rng.randrange(6))]
        basis = gf2_basis(gens)
        assert span_by_enumeration(basis) == span_by_enumeration(gens)
        assert list(basis) == sorted(basis, reverse=True)
        for b in basis:  # each leading bit is set in exactly one basis vector
            top = 1 << (b.bit_length() - 1)
            assert [c for c in basis if c & top] == [b]
        rng.shuffle(gens)
        assert gf2_basis(gens + [0, gens[0] if gens else 0]) == basis
        x = rng.randrange(1 << dim)
        assert gf2_reduce(x, basis) == key_by_enumeration(x, span_by_enumeration(gens))


def test_c_max_wide_base():
    # n = 12, k = 4: dim = 24, so a pass over all of Z would take hours
    sys = switch_system(BaseChoice(12, 4, (2, 5, 7, 11)))
    assert sys.base.dim == 24 and len(sys.z0_span) == 4
    rng = random.Random(18)
    xi = {rng.randrange(1 << 24) for _ in range(300)}
    xi |= {x ^ z0 for x in list(xi)[:5] for z0 in sys.z0_span}
    groups = {}
    for x in xi:
        key = key_by_enumeration(x, sys.z0_span)
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


def test_certificate_serialization_round_trip(tmp_path):
    cert = gnk_report(BETA, budget=6)
    blob = cert.to_json()
    data = json.loads(blob)
    assert data["best_bound"] == 2
    assert data["tool_version"] == "0.1.0"
    assert "timing_ms" not in data  # deterministic bytes by default
    path = persist(cert, tmp_path)
    assert path.read_text() == blob + "\n"
    again = persist(gnk_report(BETA, budget=6), tmp_path)
    assert again == path and again.read_text() == blob + "\n"


def test_input_hash_stable():
    assert input_hash("gnk", "a123 a123", 4, 6) == input_hash("gnk", "a123 a123", 4, 6)
    assert input_hash("gnk", "a123 a123", 4, 6) != input_hash("gnk", "a123 a123", 5, 6)
