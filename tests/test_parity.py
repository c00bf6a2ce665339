import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from braidcert.errors import NotEvenWord
from braidcert.gnk import GnkWord, generators, parse_gnk_word, relators
from braidcert.parity import (
    BaseChoice,
    act_letter,
    all_bases,
    format_hword,
    format_zvec,
    is_even,
    parse_hword,
    _incidence,
    phi,
    phi_all_bases,
    phi_at,
    psi_letter,
    psi_word,
    quadrisecant_lower_bound,
    trisecant_lower_bound,
)
from braidcert.pbraid import map_pb_to_g3, map_pb_to_g4, parse_pb_word
from braidcert.words import reduce_involutive

from test_pbraid import signed_pb_words

BASE = BaseChoice(4, 3, (1, 2, 3))
E1, E2 = 0b01, 0b10
BETA = parse_gnk_word("a123 a234 a123 a134 a123 a134 a123 a234", 4, 3)


def random_even_word(rng, n, k, pairs):
    from braidcert.gnk import generators

    gens = generators(n, k)
    letters = []
    for _ in range(pairs):
        letters += [rng.choice(gens)] * 2
    rng.shuffle(letters)
    return GnkWord(n, k, tuple(letters))


def test_psi_letter_examples():
    assert psi_letter((2, 3, 4), BASE) == E1
    assert psi_letter((1, 3, 4), BASE) == E2
    assert psi_letter((1, 2, 3), BASE) == 0
    # position k in the base maps to the full sum e_1 + ... + e_{k-1}
    assert psi_letter((1, 2, 4), BASE) == E1 | E2


def test_psi_table_matches_definition():
    # the letterwise definition, evaluated on every k-subset
    from itertools import combinations

    def psi_by_definition(letter, base):
        if len(set(letter) & set(base.m)) != base.k - 1:
            return 0
        (p,) = set(letter) - set(base.m)
        (missing,) = set(base.m) - set(letter)
        pos = base.m.index(missing) + 1
        positions = [pos] if pos <= base.k - 1 else range(1, base.k)
        return sum(1 << base.bit(p, i) for i in positions)

    for n in range(3, 8):
        for k in (3, 4):
            if k > n:
                continue
            for base in all_bases(n, k):
                for letter in combinations(range(1, n + 1), k):
                    assert psi_letter(letter, base) == psi_by_definition(letter, base)


def test_psi_letter_generic_base():
    base = BaseChoice(5, 3, (2, 3, 5))
    assert base.outside == (1, 4)
    # (1,2,3): outside index p=1, missing base element 5 at position 3 = k,
    # so the full sum e1+e2 lands in the p=1 block (bits 0 and 1)
    assert psi_letter((1, 2, 3), base) == 0b0011
    # (2,3,4): p=4, missing 5 at position k: full sum in the p=4 block
    assert psi_letter((2, 3, 4), base) == 0b1100
    # (2,4,5): p=4, missing 3 at position 2: e2 in the p=4 block (bit 3)
    assert psi_letter((2, 4, 5), base) == 0b1000
    assert psi_letter((1, 4, 5), base) == 0  # shares only one index


def test_psi_word_examples():
    tetra = GnkWord(4, 3, (((2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3)) * 2))
    assert psi_word(tetra, BASE) == 0
    assert psi_word(GnkWord(4, 3, ((1, 2, 4),)), BASE) == E1 | E2
    assert psi_word(GnkWord(4, 3, ()), BASE) == 0


def test_psi_vanishes_on_even_words():
    rng = random.Random(2)
    for _ in range(50):
        w = random_even_word(rng, 4, 3, rng.randrange(5))
        assert psi_word(w, BASE) == 0


def test_psi_additive():
    rng = random.Random(3)
    from braidcert.gnk import generators

    gens = generators(4, 3)
    for _ in range(100):
        u = tuple(rng.choice(gens) for _ in range(rng.randrange(5)))
        v = tuple(rng.choice(gens) for _ in range(rng.randrange(5)))
        wu, wv = GnkWord(4, 3, u), GnkWord(4, 3, v)
        assert psi_word(GnkWord(4, 3, u + v), BASE) == psi_word(wu, BASE) ^ psi_word(wv, BASE)


def test_act_letter_examples():
    assert act_letter((1, 2, 3), (E1, ()), BASE) == (E1, (E1,))
    assert act_letter((2, 3, 4), (0, ()), BASE) == (E1, ())
    assert act_letter((1, 2, 3), (E1 | E2, (E1 | E2,)), BASE) == (E1 | E2, ())


def test_phi_at_examples():
    sq = GnkWord(4, 3, ((1, 2, 3), (1, 2, 3)))
    assert phi_at(sq, BASE, 0) == (0, ())
    single = GnkWord(4, 3, ((1, 2, 3),))
    assert phi_at(single, BASE, 0) == (0, (0,))
    assert phi_at(BETA, BASE, 0) == (0, (0, E1, E1 | E2, E1))


def test_phi_worked_example():
    assert format_hword(phi(BETA, BASE), BASE) == "f[00] f[10] f[11] f[10]"


def test_phi_rejects_odd_words():
    with pytest.raises(NotEvenWord):
        phi(GnkWord(4, 3, ((1, 2, 3),)), BASE)


def test_is_even_examples():
    assert is_even(BETA)
    assert not is_even(GnkWord(4, 3, ((1, 2, 3),)))
    assert is_even(GnkWord(4, 3, ()))


@pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (4, 4), (5, 4)])
def test_relators_act_trivially(n, k):
    bases = all_bases(n, k)
    dim = bases[0].dim
    for r in relators(n, k):
        for base in bases:
            for x in range(1 << dim):
                assert phi_at(r, base, x) == (x, ())


def test_phi_multiplicative_on_even_words():
    rng = random.Random(4)
    for _ in range(60):
        u = random_even_word(rng, 4, 3, rng.randrange(4))
        v = random_even_word(rng, 4, 3, rng.randrange(4))
        lhs = phi(GnkWord(4, 3, u.letters + v.letters), BASE)
        rhs_u, rhs_v = phi(u, BASE), phi(v, BASE)
        from braidcert.words import reduce_involutive

        assert lhs == reduce_involutive(rhs_u + rhs_v)


def test_phi_square_property():
    rng = random.Random(5)
    for _ in range(40):
        w = random_even_word(rng, 4, 3, rng.randrange(1, 4))
        from braidcert.words import reduce_involutive

        y = phi(w, BASE)
        assert phi(GnkWord(4, 3, w.letters * 2), BASE) == reduce_involutive(y + y)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(n, k) for n in (4, 5, 6) for k in (3, 4)]), st.data())
def test_conjugation_covariance(nk, data):
    # translation by x0 commutes with the action on Z x H; the relators suite
    # of the CLI checks each relator from x0 = 0 alone on the strength of this
    from braidcert.gnk import generators

    n, k = nk
    w = GnkWord(n, k, tuple(data.draw(st.lists(st.sampled_from(generators(n, k)),
                                               max_size=12))))
    x0 = data.draw(st.integers(0, (1 << (k - 1) * (n - k)) - 1))
    for base in bases_of(n, k):
        x, y = phi_at(w, base, 0)
        assert phi_at(w, base, x0) == (x ^ x0, tuple(v ^ x0 for v in y))


def test_trisecant_lower_bound_examples():
    assert trisecant_lower_bound(parse_pb_word("", 4)) == 0
    assert trisecant_lower_bound(parse_pb_word("b12", 3)) == 0
    # frozen from the expansion oracle
    assert trisecant_lower_bound(parse_pb_word("b13 B23", 4)) == 4


def test_trisecant_bound_at_most_unreduced_length():
    rng = random.Random(11)
    from braidcert.pbraid import PBWord, pb_letter

    for _ in range(30):
        n = rng.choice((3, 4))
        letters = []
        for _ in range(rng.randrange(4)):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            letters.append(pb_letter(i, j, rng.choice((1, -1))))
        w = PBWord(n, tuple(letters))
        unreduced = len(map_pb_to_g3(w, reduced=False))
        assert trisecant_lower_bound(w) <= unreduced


def test_quadrisecant_lower_bound_examples():
    assert quadrisecant_lower_bound(parse_pb_word("", 5)) == 0
    # frozen from the expansion oracle
    assert quadrisecant_lower_bound(parse_pb_word("b12", 5)) == 2
    # n = 4 collapses: the parity group is trivial
    assert quadrisecant_lower_bound(parse_pb_word("b13", 4)) == 0


def test_hword_formatting_round_trip():
    y = phi(BETA, BASE)
    assert parse_hword(format_hword(y, BASE), BASE) == y
    assert format_zvec(E1, BASE) == "10"
    assert format_zvec(E1 | E2, BASE) == "11"


def test_trivial_parity_group_at_n_equals_k():
    base = BaseChoice(4, 4, (1, 2, 3, 4))
    assert base.dim == 0
    w = GnkWord(4, 4, ((1, 2, 3, 4), (1, 2, 3, 4)))
    assert phi(w, base) == ()
    single = GnkWord(4, 4, ((1, 2, 3, 4),))
    assert phi_at(single, base, 0) == (0, (0,))


# ---------------------------------------------------------------------------
# Properties on the images of random pure braids.

IMAGE_CONTEXTS = [(n, k) for n in (4, 5) for k in (3, 4)]


@cache
def bases_of(n, k):
    return all_bases(n, k)


def braid_images(n, k):
    mapper = map_pb_to_g3 if k == 3 else map_pb_to_g4
    return signed_pb_words(n, 3).map(mapper)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(IMAGE_CONTEXTS).flatmap(
    lambda nk: st.tuples(braid_images(*nk), braid_images(*nk))))
def test_phi_is_multiplicative_on_braid_images(images):
    u, v = images
    for base in bases_of(u.n, u.k):
        assert phi(u * v, base) == reduce_involutive(phi(u, base) + phi(v, base))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(IMAGE_CONTEXTS).flatmap(lambda nk: braid_images(*nk)),
       st.data())
def test_phi_ignores_inserted_relators(w, data):
    r = data.draw(st.sampled_from(relators(w.n, w.k)))
    pos = data.draw(st.integers(0, len(w.letters)))
    padded = GnkWord(w.n, w.k, w.letters[:pos] + r.letters + w.letters[pos:])
    for base in bases_of(w.n, w.k):
        assert phi(padded, base) == phi(w, base)


# ---------------------------------------------------------------------------
# Every base in one pass, against phi one base at a time.

ALL_BASES_CONTEXTS = [(n, k) for n in range(4, 9) for k in (3, 4)] + [(3, 3), (4, 4)]


def commutator_words(n, k):
    """Hypothesis strategy: u v u^-1 v^-1 for random words u, v of G_n^k,
    even whatever u and v are."""
    letters = st.lists(st.sampled_from(generators(n, k)), max_size=6)
    return st.tuples(letters, letters).map(
        lambda uv: GnkWord(n, k, tuple(uv[0] + uv[1] + uv[0][::-1] + uv[1][::-1])))


def even_words(nk):
    n, k = nk
    if n > k:
        return st.one_of(braid_images(n, k), commutator_words(n, k))
    return commutator_words(n, k)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_BASES_CONTEXTS).flatmap(even_words))
def test_phi_all_bases_matches_phi(w):
    assert phi_all_bases(w) == tuple(phi(w, base) for base in bases_of(w.n, w.k))


def test_phi_all_bases_rejects_odd_words_like_phi():
    odd = GnkWord(5, 3, ((1, 2, 3), (2, 3, 4), (1, 2, 3)))
    with pytest.raises(NotEvenWord) as per_base:
        phi(odd, BaseChoice(5, 3, (1, 2, 3)))
    with pytest.raises(NotEvenWord) as every_base:
        phi_all_bases(odd)
    assert str(every_base.value) == str(per_base.value)


@pytest.mark.parametrize("n,k", [(3, 3), (4, 3), (5, 3), (6, 4), (8, 4), (9, 2)])
def test_incidence_rows(n, k):
    # every letter moves its own base and the k(n-k) bases sharing k-1 of its
    # indices, and the table holds ints and letter tuples, no BaseChoice
    bases = generators(n, k)
    table = _incidence(n, k)
    assert list(table) == bases
    for letter, (own, touched) in table.items():
        assert bases[own] == letter
        assert len({own, *(b for b, _ in touched)}) == 1 + k * (n - k)
        assert [bases[b] for b, _ in touched] == [
            m for m in bases if len(set(m) & set(letter)) == k - 1]
        assert all(psi_letter(letter, BaseChoice(n, k, bases[b])) == v for b, v in touched)
        assert all(type(b) is int and type(v) is int for b, v in touched)
