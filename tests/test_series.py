import re

import pytest

from ncposet import (
    LimitError,
    PosetHandle,
    enumerate_by_rank,
    errors,
    hasse,
    rank,
    rank_coefficients,
    series,
    words,
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


def _spy_levels(monkeypatch):
    """Log each generation of the words by `enumerate_by_rank`; return the log."""
    calls = []
    real = series._word_levels

    def spying(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series, "_word_levels", spying)
    return calls


@pytest.mark.parametrize("n", (1, 2, 3, None))
def test_a_kept_tally_answers_a_shorter_call(monkeypatch, n):
    assert enumerate_by_rank(12, n) == _tally_by_rank(12, n)
    built = _spy_levels(monkeypatch)
    for terms in range(13):
        counts = enumerate_by_rank(terms, n)
        assert counts == _tally_by_rank(terms, n)
        counts.append(0)  # each call returns a list of its own
    assert built == []
    assert enumerate_by_rank(13, n) == _tally_by_rank(13, n)
    assert len(built) == 1
    assert enumerate_by_rank(13, n) == _tally_by_rank(13, n)
    assert len(built) == 1


def test_a_kept_tally_still_refuses_past_the_caps(monkeypatch):
    full = _tally_by_rank(12, None)
    assert enumerate_by_rank(12) == full
    built = _spy_levels(monkeypatch)
    for terms, limit in ((12, 100), (6, 10), (12, 4095)):
        with pytest.raises(LimitError) as refused:
            words_up_to_rank(terms, None, limit)
        with pytest.raises(LimitError, match=f"^{re.escape(str(refused.value))}$"):
            enumerate_by_rank(terms, None, limit)
    with pytest.raises(ValueError, match="^limit must be an int >= 0, got -1$"):
        enumerate_by_rank(6, None, -1)
    # the default cap is read at call time, so lowering it refuses a kept range too
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", 50)
    refused = "^enumeration of words up to rank 6 exceeded the cap of 50$"
    with pytest.raises(LimitError, match=refused):
        enumerate_by_rank(6)
    assert enumerate_by_rank(12, None, 4096) == full
    assert built == []


def test_the_tally_is_a_weighed_tuple_and_rebuilt_once_evicted(monkeypatch):
    enumerate_by_rank(8, 2)
    assert words._STORE == {("rank counts", 2): (9, tuple(_tally_by_rank(8, 2)))}
    enumerate_by_rank(12, 2)  # the longer tally takes the shorter one's place
    assert words._STORE == {("rank counts", 2): (13, tuple(_tally_by_rank(12, 2)))}
    assert words._HELD == 13
    monkeypatch.setattr(errors, "TABLE_LIMIT", 20)
    enumerate_by_rank(10, 3)  # 13 + 11 pass 20: the tally over two letters goes
    assert list(words._STORE) == [("rank counts", 3)]
    assert words._HELD == 11
    built = _spy_levels(monkeypatch)
    assert enumerate_by_rank(6, 2) == _tally_by_rank(6, 2)
    assert len(built) == 1
    assert list(words._STORE) == [("rank counts", 3), ("rank counts", 2)]
    assert words._HELD == 18
    monkeypatch.setattr(errors, "TABLE_LIMIT", 5)
    assert enumerate_by_rank(6, 1) == [1] * 7  # too heavy alone to keep
    assert ("rank counts", 1) not in words._STORE


def test_threads_share_the_kept_tallies(monkeypatch, empty_store, in_six_threads):
    tallies = [(terms, n) for n in (1, 2, None) for terms in (4, 9)]
    graphs = [("nc", 5), ("comm", 6), ("q", 4)]
    expected = [_tally_by_rank(terms, n) for terms, n in tallies]
    expected += [hasse(PosetHandle(family, 2), r) for family, r in graphs]
    calls = [lambda terms=terms, n=n: enumerate_by_rank(terms, n) for terms, n in tallies]
    calls += [lambda family=family, r=r: hasse(PosetHandle(family, 2), r) for family, r in graphs]
    empty_store()
    # the tallies and the levels of rank <= 6 over two letters pass 40: most calls evict
    monkeypatch.setattr(errors, "TABLE_LIMIT", 40)
    differing = []

    def work(k):
        for i in range(400):
            j = (5 * i + k) % len(calls)
            if calls[j]() != expected[j]:
                differing.append(j)

    assert in_six_threads(work) == []
    assert differing == []
    assert words._HELD == sum(weight for weight, _ in words._STORE.values()) <= 40
