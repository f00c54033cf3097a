"""Each kind of input is checked in one place.

Words go through `check_word`, monomials through `normalize_monomial` and
product text through one token reader; every public function refuses the
other kind with `TypeError`, and the shared code reports what the separate
checks and parsers it replaced reported, in the same order.
"""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncposet import (
    ParseError,
    PosetHandle,
    abelianize,
    canonical_key,
    comm_leq,
    comm_leq_oracle,
    compare,
    covers_down,
    covers_up,
    degree,
    format_monomial,
    format_word,
    is_factor,
    leq,
    monomial_canonical_key,
    monomial_product,
    monomial_rank,
    multirank,
    nc_leq,
    nc_leq_oracle,
    normalize_monomial,
    p_leq,
    parse_monomial,
    parse_word,
    principal_down_set,
    q_leq,
    raise_letter,
    rank,
    sort_word,
    sorted_form,
    to_partition,
    walk,
)

MONOMIAL = {2: 1}
WORD = (1, 2)

WORD_CALLS = {
    "nc_leq": lambda x: nc_leq(x, (2,)),
    "nc_leq second": lambda x: nc_leq((2,), x),
    "q_leq": lambda x: q_leq(x, (2,)),
    "q_leq second": lambda x: q_leq((2,), x),
    "p_leq": lambda x: p_leq(x, (2,)),
    "p_leq second": lambda x: p_leq((2,), x),
    "nc_leq_oracle": lambda x: nc_leq_oracle(x, (2,)),
    "covers_up": covers_up,
    "covers_down": covers_down,
    "principal_down_set": principal_down_set,
    "multirank": multirank,
    "walk": walk,
    "sorted_form": sorted_form,
    "abelianize": abelianize,
    "raise_letter": lambda x: raise_letter(x, 1),
    "leq": lambda x: leq(PosetHandle("nc"), x, (2,)),
    "compare": lambda x: compare(PosetHandle("q", 3), (2,), x),
    # once rank({2: 1}) was 2, degree({3: 1}) 1 and format_word({3: 1}) "x3"
    "rank": rank,
    "degree": degree,
    "format_word": format_word,
    "canonical_key": canonical_key,
    "is_factor": lambda x: is_factor((2,), x),
    "is_factor first": lambda x: is_factor(x, (2,)),
}

MONOMIAL_CALLS = {
    "comm_leq": lambda x: comm_leq(x, {1: 1}),
    "comm_leq second": lambda x: comm_leq({1: 1}, x),
    "comm_leq_oracle": lambda x: comm_leq_oracle(x, {1: 1}),
    "to_partition": to_partition,
    "format_monomial": format_monomial,
    "monomial_rank": monomial_rank,
    "monomial_product": lambda x: monomial_product({1: 1}, x),
    "sort_word": sort_word,
    "monomial_canonical_key": monomial_canonical_key,
    "normalize_monomial": lambda x: normalize_monomial(x, 3),
    "leq": lambda x: leq(PosetHandle("comm"), x, {1: 1}),
    "compare": lambda x: compare(PosetHandle("comm", 3), {1: 1}, x),
}


@pytest.mark.parametrize("call", WORD_CALLS.values(), ids=WORD_CALLS)
def test_word_functions_refuse_a_mapping(call):
    # once {2: 1} was read as the word of its keys, x2
    with pytest.raises(TypeError, match="^a word is a sequence of letter indices, got dict$"):
        call(MONOMIAL)


@pytest.mark.parametrize("letter", [True, 0, -1, 1.0, "2"], ids=repr)
@pytest.mark.parametrize("call", WORD_CALLS.values(), ids=WORD_CALLS)
def test_word_functions_refuse_a_non_letter(call, letter):
    # once rank((True, 0)) was 1 and format_word((0, True)) "x0*xTrue"
    message = f"letter indices must be integers >= 1, got {letter!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call((1, letter))


@pytest.mark.parametrize("call", MONOMIAL_CALLS.values(), ids=MONOMIAL_CALLS)
def test_monomial_functions_refuse_a_sequence(call):
    # once comm_leq died with a bare AttributeError on a tuple
    message = "^a monomial maps letter indices to exponents, got tuple$"
    with pytest.raises(TypeError, match=message):
        call(WORD)


def _normalize_monomial_reference(t, n=None):
    """`normalize_monomial` as it was before it shared `check_word`'s letter rule, with
    `check_word`'s check of the alphabet bound put first."""
    if n is not None and n < 1:
        raise ValueError(f"alphabet bound must be >= 1, got {n}")
    out = {}
    for i, e in t.items():
        if type(i) is not int or i < 1:
            raise ValueError(f"letter indices must be integers >= 1, got {i!r}")
        if type(e) is not int or e < 0:
            raise ValueError(f"exponents must be integers >= 0, got {e!r}")
        if n is not None and i > n:
            raise ValueError(f"letter x{i} exceeds the alphabet bound n={n}")
        if e:
            out[i] = e
    return out


def _outcome(call, *args):
    """The result of a call as its items in order, or the type and text of its error."""
    try:
        result = call(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return list(result.items()) if isinstance(result, dict) else result


entries = st.one_of(st.integers(-1, 4), st.booleans(), st.just(1.0), st.just("2"))


@given(st.dictionaries(entries, entries, max_size=4), st.sampled_from([None, 0, 1, 2, 3]))
def test_normalize_monomial_reports_the_first_error_it_reported_before(t, n):
    assert _outcome(normalize_monomial, t, n) == _outcome(_normalize_monomial_reference, t, n)


def test_monomials_check_their_alphabet_bound_as_words_do():
    # once comm_leq({}, {}, 0) returned True, comm_leq({1: 1}, {1: 1}, 0) reported
    # "letter x1 exceeds the alphabet bound n=0", and normalize_monomial({1: 1}, "a")
    # raised a bare TypeError from a comparison
    for call in (lambda: nc_leq((), (), 0), lambda: comm_leq({}, {}, 0),
                 lambda: comm_leq({1: 1}, {1: 1}, 0), lambda: normalize_monomial({-1: 1}, 0)):
        with pytest.raises(ValueError, match="^alphabet bound must be >= 1, got 0$"):
            call()
    with pytest.raises(ValueError, match="^alphabet bound must be an int >= 1, got 'a'$"):
        normalize_monomial({1: 1}, "a")
    # the kind of input is still checked before the bound, as in check_word
    with pytest.raises(TypeError, match="^a monomial maps letter indices to exponents"):
        comm_leq((), {}, 0)
    with pytest.raises(TypeError, match="^a word is a sequence of letter indices"):
        nc_leq({}, (), 0)


_WORD_TERM = re.compile(r"x([1-9][0-9]*)\Z")
_MON_FACTOR = re.compile(r"x([1-9][0-9]*)(?:\^([1-9][0-9]*))?\Z")


def _parse_word_reference(text):
    """`parse_word` as it was before it shared a token reader with `parse_monomial`."""
    if text == "1":
        return ()
    if not text:
        raise ParseError("empty input")
    letters = []
    for pos, token in enumerate(text.split("*"), start=1):
        match = _WORD_TERM.fullmatch(token)
        if match is None:
            raise ParseError(f"token {pos}: expected xK with K >= 1, got {token!r}")
        letters.append(int(match.group(1)))
    return tuple(letters)


def _parse_monomial_reference(text):
    """`parse_monomial` as it was before it shared a token reader with `parse_word`."""
    if text == "1":
        return {}
    if not text:
        raise ParseError("empty input")
    out = {}
    for pos, token in enumerate(text.split("*"), start=1):
        match = _MON_FACTOR.fullmatch(token)
        if match is None:
            raise ParseError(
                f"token {pos}: expected xK or xK^E with K, E >= 1, got {token!r}"
            )
        index = int(match.group(1))
        exponent = int(match.group(2)) if match.group(2) else 1
        out[index] = out.get(index, 0) + exponent
    return out


TOKENS = [
    "x1", "x2", "x10", "x0", "x01", "x", "1", "x1^2", "x2^10", "x1^0", "x3^", "^2", "", " x1",
    "x1\n", "x\u0661",
]
product_text = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=5).map("*".join),
    st.text(alphabet="x10^* ", max_size=12),
)


@given(product_text)
def test_the_shared_token_reader_parses_as_the_two_parsers_did(text):
    assert _outcome(parse_word, text) == _outcome(_parse_word_reference, text)
    assert _outcome(parse_monomial, text) == _outcome(_parse_monomial_reference, text)
