import re

import pytest

from ncposet import (
    LimitError,
    enumerate_by_rank,
    rank,
    rank_coefficients,
    words_up_to_rank,
)


def test_unbounded_examples():
    assert rank_coefficients(4).coefficients == (1, 1, 2, 4, 8)
    assert rank_coefficients(0).coefficients == (1,)
    assert rank_coefficients(0, 3).coefficients == (1,)


def test_bounded_examples():
    assert rank_coefficients(5, 2).coefficients == (1, 1, 2, 3, 5, 8)
    assert rank_coefficients(3, 1).coefficients == (1, 1, 1, 1)


def test_enumeration_examples():
    assert enumerate_by_rank(4, 2) == [1, 1, 2, 3, 5]
    assert enumerate_by_rank(3) == [1, 1, 2, 4]
    assert enumerate_by_rank(3, 1) == [1, 1, 1, 1]


def _tally_by_rank(terms, n):
    """The per-word tally `enumerate_by_rank` once ran, as the reference for its level counts."""
    counts = [0] * (terms + 1)
    for w in words_up_to_rank(terms, n):
        counts[rank(w)] += 1
    return counts


@pytest.mark.parametrize("n", (1, 2, 3, None))
def test_level_counts_match_the_per_word_tally(n):
    for terms in range(15):
        assert enumerate_by_rank(terms, n) == _tally_by_rank(terms, n)


def test_level_counts_refuse_as_the_enumeration_does():
    for terms, n, limit in ((12, None, 100), (45, 1, 50), (20, 2, 5000)):
        with pytest.raises(LimitError) as refused:
            words_up_to_rank(terms, n, limit)
        with pytest.raises(LimitError, match=f"^{re.escape(str(refused.value))}$"):
            enumerate_by_rank(terms, n, limit)


def test_closed_form_unbounded():
    coeffs = rank_coefficients(12).coefficients
    assert coeffs[0] == 1
    for k in range(1, 13):
        assert coeffs[k] == 2 ** (k - 1)


def test_recurrence_matches_enumeration():
    for n in (1, 2, 3, 4, None):
        assert list(rank_coefficients(12, n).coefficients) == enumerate_by_rank(12, n)


def test_leading_coefficients():
    for n in (1, 2, 5, None):
        table = rank_coefficients(6, n)
        assert table.coefficients[0] == 1
        assert table.coefficients[1] == 1


def test_format_lines():
    assert rank_coefficients(2, 2).format_lines() == [
        "rank 0: 1",
        "rank 1: 1",
        "rank 2: 2",
    ]


def test_argument_validation():
    with pytest.raises(ValueError):
        rank_coefficients(-1)
    with pytest.raises(ValueError):
        enumerate_by_rank(-1)
    for n in (0, -2):
        with pytest.raises(ValueError, match="alphabet bound"):
            rank_coefficients(4, n)
        with pytest.raises(ValueError, match="alphabet bound"):
            enumerate_by_rank(4, n)


def test_enumeration_cap():
    with pytest.raises(LimitError):
        enumerate_by_rank(12, None, limit=100)
