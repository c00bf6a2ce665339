import time
from itertools import combinations

import pytest

from braidcert.errors import InvalidContext, InvalidPair, ParseError
from braidcert.gnk import (
    GnkWord,
    c_full,
    far_commutes,
    format_gnk_word,
    generators,
    parse_gnk_letter,
    parse_gnk_word,
    relators,
)
from braidcert.words import reduce_involutive


def test_generators_examples():
    assert generators(3, 3) == [(1, 2, 3)]
    assert generators(4, 3) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert len(generators(5, 4)) == 5


def test_generators_errors():
    with pytest.raises(InvalidContext):
        generators(3, 4)
    with pytest.raises(InvalidContext):
        generators(3, 0)


def test_far_commutes_examples():
    assert far_commutes((1, 2, 3), (1, 4, 5))
    assert not far_commutes((1, 2, 3), (1, 2, 4))
    assert not far_commutes((1, 2, 3), (1, 2, 3))


def test_relators_3_3():
    rs = relators(3, 3)
    assert [r.letters for r in rs] == [((1, 2, 3), (1, 2, 3))]


def test_relators_4_3():
    # independent census: 4 squares, no far-commuting pair of 3-subsets of a
    # 4-set (any two share 2 indices), one length-8 relator from the 4-subset
    rs = relators(4, 3)
    assert len(rs) == 5
    lengths = sorted(len(r) for r in rs)
    assert lengths == [2, 2, 2, 2, 8]
    tetra = [r for r in rs if len(r) == 8][0]
    assert tetra.letters == (
        (2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3),
        (2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3),
    )


def test_relator_census_5_3():
    rs = relators(5, 3)
    squares = [r for r in rs if len(r) == 2]
    commuting = [r for r in rs if len(r) == 4]
    tetra = [r for r in rs if len(r) == 8]
    assert len(squares) == 10
    # brute-force count of far-commuting unordered pairs
    expected = sum(
        1 for a, b in combinations(generators(5, 3), 2) if len(set(a) & set(b)) <= 1
    )
    assert len(commuting) == expected == 15
    assert len(tetra) == 5  # one per 4-subset


@pytest.mark.parametrize("n,k", [(3, 3), (4, 3), (5, 3), (6, 3), (4, 4), (5, 4), (6, 4)])
def test_relators_are_even_words(n, k):
    from collections import Counter

    for r in relators(n, k):
        counts = Counter(r.letters)
        assert all(c % 2 == 0 for c in counts.values())


def test_c_full_examples():
    assert c_full(1, 2, 4, 3).letters == ((1, 2, 3), (1, 2, 4))
    assert c_full(1, 2, 3, 3).letters == ((1, 2, 3),)
    assert c_full(1, 2, 4, 4).letters == ((1, 2, 3, 4),)


def test_c_full_orderless_pair_and_errors():
    assert c_full(2, 1, 4, 3).letters == c_full(1, 2, 4, 3).letters
    with pytest.raises(InvalidPair):
        c_full(1, 1, 4, 3)
    with pytest.raises(InvalidPair):
        c_full(1, 5, 4, 3)


def test_c_full_reversal_is_inverse():
    for (i, j) in [(1, 2), (1, 4), (2, 5)]:
        w = c_full(i, j, 5, 3)
        assert reduce_involutive(w.letters + w.inverse().letters) == ()


def test_word_validation():
    with pytest.raises(InvalidContext):
        GnkWord(4, 3, ((1, 2),))
    with pytest.raises(InvalidContext):
        GnkWord(4, 3, ((1, 2, 5),))
    with pytest.raises(InvalidContext):
        GnkWord(4, 3, ((2, 1, 3),))


@pytest.mark.parametrize("letter", [(1, 2), (1, 2, 3, 4), (2, 1, 3), (1, 1, 2),
                                    (0, 1, 2), (1, 2, 5)])
def test_rejection_repeats_on_every_attempt(letter):
    """A rejected letter is rejected again, with the message of the first
    attempt, through the constructor and the parser."""
    messages = []
    for _ in range(2):
        with pytest.raises(InvalidContext) as exc:
            GnkWord(4, 3, (letter,))
        messages.append(str(exc.value))
    token = "a{" + ",".join(map(str, letter)) + "}"
    for _ in range(2):
        with pytest.raises(ParseError) as exc:
            parse_gnk_letter(token, 4, 3)
        messages.append(str(exc.value))
    assert len(set(messages)) == 1


def test_accepted_letter_is_rechecked_per_context():
    assert GnkWord(9, 3, ((1, 2, 9),)).letters == ((1, 2, 9),)
    assert parse_gnk_letter("a129", 9, 3) == (1, 2, 9)
    with pytest.raises(InvalidContext, match="out of range 1..5"):
        GnkWord(5, 3, ((1, 2, 9),))
    with pytest.raises(ParseError, match="out of range 1..5"):
        parse_gnk_letter("a129", 5, 3)
    with pytest.raises(InvalidContext):
        GnkWord(9, 4, ((1, 2, 9),))


def test_wide_context_builds_without_enumerating_generators():
    letter = tuple(range(1, 31))
    start = time.perf_counter()
    w = GnkWord(60, 30, (letter, letter))
    assert time.perf_counter() - start < 1
    assert w.reduced().letters == ()


@pytest.mark.parametrize("n, k", [(n, k) for k in (3, 4) for n in range(k, 10)])
def test_relators_built_unchecked_equal_checked_words(n, k):
    for r in relators(n, k):
        assert r == GnkWord(r.n, r.k, r.letters)
        assert type(r.letters) is tuple and all(type(m) is tuple for m in r.letters)


def test_word_algebra():
    w = parse_gnk_word("a123 a124", 4, 3)
    assert (w * w.inverse()).reduced().letters == ()
    assert w.inverse().letters == ((1, 2, 4), (1, 2, 3))


def test_parse_and_format():
    w = parse_gnk_word("a123 a{1,2,4}", 4, 3)
    assert w.letters == ((1, 2, 3), (1, 2, 4))
    assert format_gnk_word(w) == "a123 a124"
    big = GnkWord(12, 3, ((1, 2, 11),))
    assert format_gnk_word(big) == "a{1,2,11}"
    assert parse_gnk_word("a{1,2,11}", 12, 3) == big
    with pytest.raises(ParseError):
        parse_gnk_word("a123", 12, 3)  # compact form only for n <= 9
    with pytest.raises(ParseError):
        parse_gnk_word("b123", 4, 3)
