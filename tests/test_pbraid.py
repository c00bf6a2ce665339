import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from braidcert.errors import InvalidContext, NotAGroupElement, ParseError
from braidcert.gnk import GnkWord, c_full
from braidcert.parity import all_bases, is_even, phi, psi_word
from braidcert.pbraid import (
    PBLetter,
    PBWord,
    _generator_image,
    even_to_pb3,
    format_pb_word,
    g3_c,
    g4_c,
    g4_c_components,
    map_pb_to_g3,
    map_pb_to_g4,
    parse_even_word,
    parse_pb_word,
    pb3_to_even,
    pb_letter,
    pb_relators,
)
from braidcert.words import reduce_involutive


def random_pb_word(rng, n, length):
    letters = []
    for _ in range(length):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        letters.append(pb_letter(i, j, rng.choice((1, -1))))
    return PBWord(n, tuple(letters))


def signed_pb_words(n, max_size):
    """Hypothesis strategy: pure braid words on n strands with at most
    max_size letters, each generator with either sign."""
    letter = st.tuples(st.sampled_from(list(combinations(range(1, n + 1), 2))),
                       st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_size).map(
        lambda ls: PBWord(n, tuple(pb_letter(i, j, s) for (i, j), s in ls)))


def same_word(w: PBWord) -> bool:
    """w equals the word the public constructor, which checks its fields,
    builds from them, down to the letter types."""
    return (w == PBWord(w.n, w.letters) and type(w.letters) is tuple
            and all(type(l) is PBLetter for l in w.letters))


# ---------------------------------------------------------------------------
# Relations.

@pytest.mark.parametrize("n", range(2, 10))
def test_relators_built_unchecked_equal_checked_words(n):
    for rel in pb_relators(n):
        product = rel.left * rel.right.inverse()
        assert all(map(same_word, (rel.left, rel.right, rel.right.inverse(), product)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inverse_and_products_equal_checked_words(data):
    n = data.draw(st.integers(2, 9))
    w = data.draw(signed_pb_words(n, 6))
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            w = w.inverse()
        else:
            other = data.draw(signed_pb_words(n, 4))
            w = w * other if data.draw(st.booleans()) else other * w
        assert same_word(w)


def checked(w: GnkWord) -> bool:
    """w equals the word the public constructor, which checks the context
    and every letter, builds from its fields."""
    return w == GnkWord(w.n, w.k, w.letters)


@pytest.mark.parametrize("n", range(3, 10))
def test_blocks_and_generator_images_are_checked_words(n):
    # the package builds these without checks; the checked constructor must
    # accept every one of them as it is
    words = []
    for i, j in combinations(range(1, n + 1), 2):
        words += [g3_c(i, j, n), g3_c(j, i, n), c_full(i, j, n, 3)]
        if n >= 4:
            words += [*g4_c_components(i, j, n), g4_c(i, j, n), c_full(i, j, n, 4)]
        for w in (PBWord(n, (pb_letter(i, j),)), PBWord(n, (pb_letter(i, j, -1),))):
            for mapper in (map_pb_to_g3, map_pb_to_g4)[:n - 2]:
                words += [mapper(w), mapper(w, reduced=False)]
    assert all(map(checked, words))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_images_and_their_products_are_checked_words(data):
    n = data.draw(st.integers(3, 9))
    mapper = data.draw(st.sampled_from((map_pb_to_g3, map_pb_to_g4)[:n - 2]))
    reduced = data.draw(st.booleans())
    w = mapper(data.draw(signed_pb_words(n, 6)), reduced=reduced)
    assert checked(w)
    for _ in range(data.draw(st.integers(1, 4))):
        step = data.draw(st.sampled_from(("inverse", "reduced", "left", "right")))
        if step in ("inverse", "reduced"):
            w = getattr(w, step)()
        else:
            other = mapper(data.draw(signed_pb_words(n, 4)), reduced=reduced)
            w = w * other if step == "right" else other * w
        assert checked(w)


def test_pb_relators_n2_empty():
    assert pb_relators(2) == []


def test_pb_relators_n3():
    rs = [r for r in pb_relators(3) if r.tag != "printed_vacuous"]
    assert len(rs) == 2
    assert all(r.tag == "triple_cycle" for r in rs)
    assert format_pb_word(rs[0].left) == "b12 b13 b23"
    assert format_pb_word(rs[0].right) == "b13 b23 b12"


def test_pb_relators_n4_includes_disjoint_commutation():
    printed = {(format_pb_word(r.left), format_pb_word(r.right)) for r in pb_relators(4)}
    assert ("b12 b34", "b34 b12") in printed
    assert ("b14 b23", "b23 b14") in printed


def test_pb_relators_vacuous_flagged():
    vac = [r for r in pb_relators(4) if r.tag == "printed_vacuous"]
    assert len(vac) == 1
    assert vac[0].left == vac[0].right


# ---------------------------------------------------------------------------
# k = 3 images.

def test_g3_c_examples():
    assert g3_c(1, 2, 4).letters == ((1, 2, 3), (1, 2, 4))
    assert g3_c(1, 3, 4).letters == ((1, 3, 4), (1, 2, 3))
    assert g3_c(1, 2, 3).letters == ((1, 2, 3),)


def test_g3_c_needs_three_strands():
    with pytest.raises(InvalidContext, match=r"^need 1 <= k <= n, got n=2, k=3$"):
        g3_c(1, 2, 2)


def test_map_pb_to_g3_examples():
    assert map_pb_to_g3(parse_pb_word("b12", 3)).letters == ()
    assert map_pb_to_g3(PBWord(3, ())).letters == ()
    # oracle: expand c12^-1 c13^2 c12 with c12 = a123 a124, c13 = a134 a123
    c12 = [(1, 2, 3), (1, 2, 4)]
    c13 = [(1, 3, 4), (1, 2, 3)]
    expected = reduce_involutive(tuple(c12[::-1] + c13 + c13 + c12))
    assert map_pb_to_g3(parse_pb_word("b13", 4)).letters == expected
    assert len(expected) == 6


def test_map_pb_to_g3_inverse_is_reversal():
    w = map_pb_to_g3(parse_pb_word("b13", 4), reduced=False)
    winv = map_pb_to_g3(parse_pb_word("B13", 4), reduced=False)
    assert winv.letters == w.letters[::-1]


def test_g3_homomorphism_property():
    rng = random.Random(7)
    for n in (3, 4, 5):
        for _ in range(25):
            u = random_pb_word(rng, n, rng.randrange(4))
            v = random_pb_word(rng, n, rng.randrange(4))
            lhs = map_pb_to_g3(u * v).letters
            rhs = reduce_involutive(map_pb_to_g3(u).letters + map_pb_to_g3(v).letters)
            assert lhs == rhs


def test_g3_images_are_even():
    rng = random.Random(8)
    for n in (3, 4, 5):
        for _ in range(25):
            w = random_pb_word(rng, n, rng.randrange(5))
            assert is_even(map_pb_to_g3(w))


# ---------------------------------------------------------------------------
# k = 4 images.

def test_g4_components_examples():
    c1, c2, c3 = g4_c_components(1, 2, 4)
    assert c1.letters == ()  # no two extras below j = 2
    c1b, c2b, c3b = g4_c_components(1, 3, 4)
    assert c2b.letters == ((1, 2, 3, 4),)  # l = 2, m = 4 only
    _, _, c3c = g4_c_components(1, 2, 5)
    assert c3c.letters == ((1, 2, 4, 5), (1, 2, 3, 5), (1, 2, 3, 4))


def test_g4_c_composite_order():
    w = g4_c(1, 3, 5)
    # case 2 (l=2, m=4..5), then case 1 (none: only extra 2 below 3), then
    # case 3 (pairs from {4,5})
    assert w.letters == (
        (1, 2, 3, 4), (1, 2, 3, 5), (1, 3, 4, 5),
    )


def test_map_pb_to_g4_examples():
    # adjacent strands: empty conjugator, image reduce(c^2)
    w = map_pb_to_g4(parse_pb_word("b12", 4))
    assert w.letters == ()  # c12 = a1234 for n = 4, so c12^2 cancels
    c12 = g4_c(1, 2, 5).letters
    expected = reduce_involutive(c12 + c12)
    assert map_pb_to_g4(parse_pb_word("b12", 5)).letters == expected
    # oracle for a conjugated generator: reduce(c12^-1 c13^2 c12); at n = 4
    # every passing block is the single letter a1234, so this also equals
    # the other conjugation direction
    c12_4 = g4_c(1, 2, 4).letters
    c13_4 = g4_c(1, 3, 4).letters
    expected = reduce_involutive(c12_4[::-1] + c13_4 + c13_4 + c12_4)
    assert map_pb_to_g4(parse_pb_word("b13", 4)).letters == expected
    assert map_pb_to_g4(PBWord(4, ())).letters == ()


def test_map_pb_to_g4_conjugation_direction():
    # only the inverse-blocks-first direction satisfies the braid relations
    c12 = g4_c(1, 2, 5).letters
    c13 = g4_c(1, 3, 5).letters
    expected = reduce_involutive(c12[::-1] + c13 + c13 + c12)
    assert map_pb_to_g4(parse_pb_word("b13", 5)).letters == expected


def test_map_pb_to_g4_needs_four_strands():
    with pytest.raises(InvalidContext):
        map_pb_to_g4(parse_pb_word("b12", 3))


def test_g4_homomorphism_property_and_evenness():
    rng = random.Random(9)
    for n in (4, 5):
        for _ in range(20):
            u = random_pb_word(rng, n, rng.randrange(3))
            v = random_pb_word(rng, n, rng.randrange(3))
            lhs = map_pb_to_g4(u * v).letters
            rhs = reduce_involutive(map_pb_to_g4(u).letters + map_pb_to_g4(v).letters)
            assert lhs == rhs
            assert is_even(map_pb_to_g4(u))


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 7).flatmap(lambda n: st.tuples(signed_pb_words(n, 4),
                                                     signed_pb_words(n, 4))))
def test_unreduced_maps_are_letterwise(words):
    u, v = words
    for mapper in (map_pb_to_g3, map_pb_to_g4):
        image_u = mapper(u, reduced=False).letters
        image_v = mapper(v, reduced=False).letters
        assert mapper(u * v, reduced=False).letters == image_u + image_v
        assert mapper(u.inverse(), reduced=False).letters == image_u[::-1]


# ---------------------------------------------------------------------------
# The per-generator image cache, against the formula built from the blocks.

def formula_image(i, j, n, k):
    """A c_ij c_ij A^-1 with A = c_{i,i+1}^-1 ... c_{i,j-1}^-1, multiplied
    out as GnkWords."""
    block = g3_c if k == 3 else g4_c
    approach = GnkWord(n, k, ())
    for t in range(i + 1, j):
        approach = approach * block(i, t, n).inverse()
    cij = block(i, j, n)
    return (approach * cij * cij * approach.inverse()).letters


@pytest.mark.parametrize("k", [3, 4])
def test_generator_images_match_formula(k):
    mapper = map_pb_to_g3 if k == 3 else map_pb_to_g4
    for n in range(k, 10):
        for i, j in combinations(range(1, n + 1), 2):
            expected = formula_image(i, j, n, k)
            assert _generator_image(i, j, n, k) == (expected, expected[::-1])
            for sign in (1, -1):
                image = mapper(PBWord(n, (pb_letter(i, j, sign),)), reduced=False)
                assert image.letters == (expected if sign > 0 else expected[::-1])


def test_generator_image_cache_keys_on_n_and_k():
    _generator_image.cache_clear()
    b12 = pb_letter(1, 2)
    seen = {}
    for n in (4, 5):
        for k, mapper in ((3, map_pb_to_g3), (4, map_pb_to_g4)):
            image = mapper(PBWord(n, (b12,)), reduced=False)
            assert image.letters == formula_image(1, 2, n, k)
            seen[n, k] = image.letters
    assert len(set(seen.values())) == 4


def test_maps_unchanged_by_cache_clear():
    rng = random.Random(23)
    words = [random_pb_word(rng, n, length)
             for n in (4, 5, 6, 7) for length in (0, 1, 3, 8)]
    before = [(map_pb_to_g3(w), map_pb_to_g4(w), map_pb_to_g4(w, reduced=False))
              for w in words]
    _generator_image.cache_clear()
    after = [(map_pb_to_g3(w), map_pb_to_g4(w), map_pb_to_g4(w, reduced=False))
             for w in words]
    assert after == before


# ---------------------------------------------------------------------------
# Relator soundness at the parity-quotient level.

@pytest.mark.parametrize("n,k", [(3, 3), (4, 3), (5, 3), (4, 4), (5, 4)])
def test_braid_relators_map_to_identity_invariants(n, k):
    mapper = map_pb_to_g3 if k == 3 else map_pb_to_g4
    bases = all_bases(n, k)
    for rel in pb_relators(n):
        if rel.tag == "printed_vacuous":
            continue
        image = mapper(rel.left * rel.right.inverse())
        assert is_even(image)
        for base in bases:
            assert psi_word(image, base) == 0
            assert phi(image, base) == ()


# ---------------------------------------------------------------------------
# Three strands: the two-way translation.

def test_pb3_to_even_generator_images():
    assert pb3_to_even(parse_pb_word("b13", 3)) == (3, 1)
    assert pb3_to_even(parse_pb_word("b23", 3)) == (2, 3)
    assert pb3_to_even(parse_pb_word("b12", 3)) == (3, 2, 1, 3)


def test_pb3_to_even_kills_full_twist():
    assert pb3_to_even(parse_pb_word("b12 b13 b23", 3)) == ()


def test_pb3_to_even_kills_relators():
    for rel in pb_relators(3):
        if rel.tag == "printed_vacuous":
            continue
        assert pb3_to_even(rel.left) == pb3_to_even(rel.right)
        assert pb3_to_even(rel.left * rel.right.inverse()) == ()


def test_even_to_pb3_examples():
    assert format_pb_word(even_to_pb3((3, 1))) == "b13"
    assert even_to_pb3((1, 2, 2, 1)).letters == ()
    with pytest.raises(NotAGroupElement):
        even_to_pb3((1, 2, 3))


def test_even_round_trip_sampled():
    rng = random.Random(10)
    for _ in range(200):
        target = rng.randrange(0, 11, 2)
        word = []
        while len(word) < target:
            x = rng.choice((1, 2, 3))
            if not word or word[-1] != x:
                word.append(x)
        w = tuple(word)
        assert pb3_to_even(even_to_pb3(w)) == reduce_involutive(w)


def test_pb3_translation_needs_three_strands():
    with pytest.raises(InvalidContext):
        pb3_to_even(parse_pb_word("b12", 4))


# ---------------------------------------------------------------------------
# Parsing.

def test_pb_parsing():
    w = parse_pb_word("b12 B13", 3)
    assert [(l.i, l.j, l.sign) for l in w] == [(1, 2, 1), (1, 3, -1)]
    assert format_pb_word(w) == "b12 B13"
    assert parse_pb_word("b{1,11}", 12).letters[0].j == 11
    with pytest.raises(ParseError):
        parse_pb_word("b21", 3)
    with pytest.raises(ParseError):
        parse_pb_word("b14", 3)
    with pytest.raises(ParseError):
        parse_pb_word("x12", 3)
    assert parse_even_word("a1 a3") == (1, 3)
    with pytest.raises(ParseError):
        parse_even_word("a4")


@pytest.mark.parametrize("n", [4, 9, 10, 12])
def test_pb_format_parse_round_trip(n):
    rng = random.Random(n)
    words = [random_pb_word(rng, n, length) for length in (0, 1, 5, 12)]
    if n >= 10:
        # letters with j <= 9 and j >= 10 in one word, both signs
        words.append(PBWord(n, (pb_letter(1, 2), pb_letter(3, 10, -1),
                                pb_letter(8, 9, -1), pb_letter(9, n))))
    for w in words:
        assert parse_pb_word(format_pb_word(w), n) == w
    # the token form depends on n alone, never on the strand indices
    one = format_pb_word(PBWord(n, (pb_letter(1, 2),)))
    assert one == ("b12" if n <= 9 else "b{1,2}")
