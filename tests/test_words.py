import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncposet import (
    DEG_LEFT_LEX,
    LimitError,
    ParseError,
    PosetHandle,
    abelianize,
    canonical_key,
    check_coconnection,
    contains_poset,
    degree,
    format_monomial,
    format_multirank,
    format_word,
    hasse,
    is_factor,
    is_strongly_stable,
    minimalize,
    monomials_up_to_rank,
    multirank,
    nc_leq,
    normalize_monomial,
    parse_monomial,
    parse_word,
    raise_letter,
    rank,
    rank_coefficients,
    sort_word,
    sorted_form,
    validate_order,
    words_of_degree,
    words_up_to_degree,
    words_up_to_rank,
)
from ncposet.words import check_word

words = st.lists(st.integers(min_value=1, max_value=6), max_size=6).map(tuple)

EXHAUSTIVE = words_up_to_degree(6, 6)


def test_parse_word_examples():
    assert parse_word("x2*x1*x1*x2*x2") == (2, 1, 1, 2, 2)
    assert parse_word("1") == ()
    with pytest.raises(ParseError, match="token 1"):
        parse_word("x0*x1")


def test_parse_word_rejects_garbage():
    with pytest.raises(ParseError):
        parse_word("")
    with pytest.raises(ParseError, match="token 2"):
        parse_word("x1*y2")
    with pytest.raises(ParseError, match="token 1"):
        parse_word("x1 *x2")
    with pytest.raises(ParseError):
        parse_word("x1*")
    with pytest.raises(ParseError):
        parse_word("1*x1")


def test_format_word():
    assert format_word(()) == "1"
    assert format_word((2, 1)) == "x2*x1"


def test_abelianize_examples():
    assert abelianize((2, 1, 1, 2, 2)) == {1: 2, 2: 3}
    assert abelianize(()) == {}
    assert abelianize((3,)) == {3: 1}


def test_sort_word_examples():
    assert sort_word({1: 2, 2: 3}) == (1, 1, 2, 2, 2)
    assert sort_word({}) == ()
    assert sort_word({3: 1}) == (3,)


def test_monomial_grammar():
    assert parse_monomial("x1^2*x2^3") == {1: 2, 2: 3}
    assert parse_monomial("1") == {}
    assert parse_monomial("x3") == {3: 1}
    assert parse_monomial("x1*x1^2") == {1: 3}
    assert format_monomial({2: 3, 1: 2}) == "x1^2*x2^3"
    assert format_monomial({}) == "1"
    with pytest.raises(ParseError, match="token 1"):
        parse_monomial("x1^0")
    with pytest.raises(ParseError, match="token 2"):
        parse_monomial("x1*x0^2")


def test_normalize_monomial_drops_zeros_and_validates():
    assert normalize_monomial({1: 0, 2: 1}) == {2: 1}
    with pytest.raises(ValueError):
        normalize_monomial({0: 1})
    with pytest.raises(ValueError):
        normalize_monomial({1: -1})
    with pytest.raises(ValueError):
        normalize_monomial({4: 1}, n=3)
    with pytest.raises(ValueError, match="letter indices"):
        normalize_monomial({True: 2})
    with pytest.raises(ValueError, match="exponents"):
        normalize_monomial({1: True})


def test_raise_letter():
    assert raise_letter((1,), 1) == (2,)
    assert raise_letter((1, 2, 1), 2) == (1, 3, 1)
    with pytest.raises(ValueError, match="out of range"):
        raise_letter((1, 2), 3, n=2)
    with pytest.raises(ValueError, match="bound"):
        raise_letter((1, 2), 2, n=2)


@pytest.mark.parametrize("n", [1.5, True, 0, "2"])
def test_raise_letter_checks_its_alphabet_bound(n):
    # 1.5 once raised x1 to x2, and True was reported as a bound x1 was already at
    refused = f"^alphabet bound must be (an int )?>= 1, got {re.escape(repr(n))}$"
    with pytest.raises(ValueError, match=refused):
        raise_letter((1,), 1, n)


def test_raise_letter_refuses_a_letter_past_the_bound():
    # x5 over x1..x3 exceeds the bound, at any position; it was once "already at" it
    for word, j in (((5,), 1), ((1, 5), 1), ((1, 5), 2)):
        with pytest.raises(ValueError, match="^letter x5 exceeds the alphabet bound n=3$"):
            raise_letter(word, j, 3)
    assert raise_letter((3, 2), 2, 3) == (3, 3)


@pytest.mark.parametrize("j", [True, 1.0, "1"])
def test_raise_letter_takes_a_plain_int_position(j):
    # True once raised the first letter, and 1.0 failed inside a slice
    with pytest.raises(ValueError, match=f"^position {re.escape(repr(j))} out of range"):
        raise_letter((1, 2), j)


def test_degree_and_rank():
    assert degree(()) == 0
    assert degree((2, 1, 1, 2, 2)) == 5
    assert degree((3,)) == 1
    assert rank((3,)) == 3
    assert rank(()) == 0
    assert rank((2, 1, 1, 2, 2)) == 8


def test_multirank_examples():
    assert multirank((2, 1, 1, 2, 2)) == (5, 3)
    assert multirank(()) == ()
    assert multirank((3,)) == (1, 1, 1)
    assert format_multirank((5, 3)) == "[5,3]"
    assert format_multirank(()) == "[]"


def test_is_factor():
    assert is_factor((2,), (1, 2, 1))
    assert not is_factor((1, 1), (1, 2, 1))
    assert is_factor((), (1, 2, 1))
    assert is_factor((1, 2), (1, 2))
    assert not is_factor((1, 2), (2, 1))


def test_multirank_shape_exhaustive():
    # weakly decreasing, first component the degree, component sum the rank
    for w in EXHAUSTIVE:
        phi = multirank(w)
        assert all(a >= b for a, b in zip(phi, phi[1:]))
        if w:
            assert phi[0] == degree(w)
        assert sum(phi) == rank(w)
        if phi:
            assert phi[-1] >= 1


def test_text_roundtrip_exhaustive():
    for w in EXHAUSTIVE:
        assert parse_word(format_word(w)) == w


def test_sorting_is_a_permutation_exhaustive():
    for w in EXHAUSTIVE:
        s = sort_word(abelianize(w))
        assert s == tuple(sorted(w))
        assert abelianize(s) == abelianize(w)
        assert s == sorted_form(w)


@given(words)
def test_abelianize_sort_roundtrip(w):
    assert abelianize(sort_word(abelianize(w))) == abelianize(w)


@given(words)
def test_monomial_text_roundtrip(w):
    t = abelianize(w)
    assert parse_monomial(format_monomial(t)) == t


@given(words, words, words)
def test_factor_of_padded_word(u, a, b):
    assert is_factor(u, a + u + b)


def test_words_up_to_rank_canonical_and_complete():
    out = words_up_to_rank(4, 2)
    assert len(out) == 12
    assert out == sorted(out, key=lambda w: (rank(w), format_word(w)))
    assert out[0] == ()
    assert set(out) == {w for w in words_up_to_degree(2, 4) if rank(w) <= 4}


def _words_up_to_rank_oracle(max_rank, n):
    """Every word of rank <= max_rank by depth-first search, then sorted by canonical_key."""
    top = max_rank if n is None else min(n, max_rank)
    out, stack = [], [((), max_rank)]
    while stack:
        word, budget = stack.pop()
        out.append(word)
        stack.extend((word + (k,), budget - k) for k in range(1, min(top, budget) + 1))
    return sorted(out, key=canonical_key)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 11, None))
def test_words_up_to_rank_matches_sorted_oracle(n):
    # n = 11 puts two-digit letters next to one-digit ones: x10 sorts before x2
    for r in range(15):
        assert words_up_to_rank(r, n) == _words_up_to_rank_oracle(r, n), r


def test_words_up_to_rank_cap_edges():
    # the identity counts: rank 0 holds one word
    with pytest.raises(LimitError, match="up to rank 0 exceeded the cap of 0"):
        words_up_to_rank(0, limit=0)
    assert words_up_to_rank(0, limit=1) == [()]
    assert len(words_up_to_rank(6, 2, limit=33)) == 33
    with pytest.raises(LimitError, match="up to rank 6 exceeded the cap of 32"):
        words_up_to_rank(6, 2, limit=32)
    assert len(words_up_to_rank(5, limit=32)) == 32
    with pytest.raises(LimitError, match="up to rank 5 exceeded the cap of 31"):
        words_up_to_rank(5, limit=31)


@pytest.mark.parametrize("limit", (-1, True, 2.0, "5"))
def test_a_limit_that_is_not_an_int_at_least_0_is_refused(limit):
    with pytest.raises(ValueError, match=f"^limit must be an int >= 0, got {limit!r}$"):
        words_up_to_rank(3, 2, limit=limit)
    with pytest.raises(ValueError, match="^limit must be an int >= 0"):
        words_up_to_degree(2, 3, limit=limit)
    # a negative bound enumerates nothing, but the limit is still checked
    with pytest.raises(ValueError, match="^limit must be an int >= 0"):
        words_up_to_rank(-1, limit=limit)
    with pytest.raises(ValueError, match="^limit must be an int >= 0"):
        monomials_up_to_rank(-1, limit=limit)


def test_words_up_to_negative_rank_are_none():
    for n in (None, 2):
        assert words_up_to_rank(-1, n) == []
        assert words_up_to_rank(-3, n, limit=0) == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: words_up_to_degree(0, 3), "alphabet bound must be >= 1, got 0"),
        (lambda: words_up_to_degree(True, 2), "alphabet bound must be an int >= 1, got True"),
        (lambda: words_up_to_degree(2.0, 2), "alphabet bound must be an int >= 1, got 2.0"),
        (lambda: words_up_to_degree(None, 2), "degree enumeration needs a bounded alphabet"),
        (lambda: words_up_to_degree(2, True), "max_degree must be an int >= 0, got True"),
        (lambda: words_up_to_degree(2, 2.5), "max_degree must be an int >= 0, got 2.5"),
        (lambda: words_up_to_rank(True, 2), "max_rank must be an int >= 0, got True"),
        (lambda: words_up_to_rank(2.5), "max_rank must be an int >= 0, got 2.5"),
        (lambda: monomials_up_to_rank(True, 2), "max_rank must be an int >= 0, got True"),
        (lambda: monomials_up_to_rank(2.5), "max_rank must be an int >= 0, got 2.5"),
        (lambda: words_of_degree(True, 2), "alphabet bound must be an int >= 1, got True"),
        (lambda: words_of_degree(0, 0), "alphabet bound must be >= 1, got 0"),
        (lambda: words_of_degree(None, 1), "degree enumeration needs a bounded alphabet"),
        (lambda: words_of_degree(2, 2.5), "degree must be an int >= 0, got 2.5"),
        (lambda: words_of_degree(2, True), "degree must be an int >= 0, got True"),
    ],
    ids=[
        "degree n=0",
        "degree n=True",
        "degree n=2.0",
        "degree n=None",
        "degree bound True",
        "degree bound 2.5",
        "rank bound True",
        "rank bound 2.5",
        "monomial rank bound True",
        "monomial rank bound 2.5",
        "exact degree n=True",
        "exact degree n=0",
        "exact degree n=None",
        "exact degree 2.5",
        "exact degree True",
    ],
)
def test_enumerations_refuse_a_bound_that_is_not_an_int(call, message):
    # once words_up_to_degree(0, 3) was [()], True was read as 1, and None or 2.5 died
    # with a bare TypeError; words_of_degree(True, 2) gave [(1, 1)] and (0, 0) gave [()]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_words_up_to_negative_degree_are_none_with_the_limit_checked():
    assert words_up_to_degree(2, -1) == words_up_to_degree(3, -4, limit=0) == []
    assert list(words_of_degree(2, -1)) == list(words_of_degree(1, -3)) == []
    with pytest.raises(ValueError, match="^limit must be an int >= 0, got -5$"):
        words_up_to_degree(2, -1, limit=-5)


@pytest.mark.parametrize("n", [0, -2])
def test_words_up_to_rank_rejects_an_alphabet_bound_below_1(n):
    # the message of check_word; once the identity alone came back
    with pytest.raises(ValueError) as expected:
        check_word((), n)
    for max_rank in (0, 3):
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            words_up_to_rank(max_rank, n)


@pytest.mark.parametrize("n", [True, 2.5, "3"])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: PosetHandle("nc", n),
        lambda n: check_word((1,), n),
        lambda n: words_up_to_rank(3, n),
        lambda n: monomials_up_to_rank(3, n),
        lambda n: nc_leq((1,), (1, 1), n),
        lambda n: check_coconnection(n, 3),
    ],
    ids=[
        "PosetHandle",
        "check_word",
        "words_up_to_rank",
        "monomials_up_to_rank",
        "nc_leq",
        "check_coconnection",
    ],
)
def test_an_alphabet_bound_that_is_not_an_int_is_rejected(call, n):
    # once True was taken as 1 and 2.5 compared as a number
    with pytest.raises(ValueError) as raised:
        call(n)
    assert str(raised.value) == f"alphabet bound must be an int >= 1, got {n!r}"


@pytest.mark.parametrize("bound", [True, 2.5, "3"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda b: hasse(PosetHandle("nc", 2), b), "max_rank"),
        (lambda b: is_strongly_stable(minimalize([(1,)], 2), b), "rank_bound"),
        (lambda b: validate_order(DEG_LEFT_LEX, 2, b), "max_degree"),
        (lambda b: validate_order(DEG_LEFT_LEX, 2, 2, cofactor_degree=b), "cofactor_degree"),
        (lambda b: contains_poset(DEG_LEFT_LEX, PosetHandle("q", 2), b), "max_degree"),
        (lambda b: check_coconnection(2, b), "max_rank"),
        (lambda b: rank_coefficients(b, 2), "terms"),
    ],
    ids=[
        "hasse",
        "is_strongly_stable",
        "validate_order",
        "cofactor_degree",
        "contains_poset",
        "check_coconnection",
        "rank_coefficients",
    ],
)
def test_a_rank_or_degree_bound_that_is_not_an_int_is_rejected(call, name, bound):
    # once hasse printed "max_rank": true and is_strongly_stable kept rank_bound=2.5
    with pytest.raises(ValueError) as raised:
        call(bound)
    assert str(raised.value) == f"{name} must be an int >= 0, got {bound!r}"


def test_words_up_to_rank_letter_budget_edges():
    # over x1 alone, ranks 0..79 are 80 words holding 79*80/2 = 3160 = 20*158 letters
    assert sum(map(len, words_up_to_rank(79, 1, limit=158))) == 3160
    with pytest.raises(LimitError, match="up to rank 79 exceeded the cap of 3140 letters"):
        words_up_to_rank(79, 1, limit=157)
    with pytest.raises(LimitError, match="up to rank 80 exceeded the cap of 3160 letters"):
        words_up_to_rank(80, 1, limit=158)


def test_words_up_to_rank_refuses_before_building():
    # letters and ranks far beyond the caps are refused by counting alone
    with pytest.raises(LimitError, match="cap of 20000000 letters"):
        words_up_to_rank(10**9, 1)
    with pytest.raises(LimitError, match="cap of 1000000$"):
        words_up_to_rank(10**9)
