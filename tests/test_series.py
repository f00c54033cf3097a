import itertools
import re
import sys

import pytest

from ncposet import (
    LimitError,
    PosetHandle,
    cli,
    enumerate_by_rank,
    errors,
    hasse,
    rank,
    rank_coefficients,
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


def _brute_force_by_rank(terms, n):
    """Words of each rank 0..terms, counted apart from the level recursion that builds them:
    a word of rank k is its letters' cut points in 1..k-1, one of the 2^(k-1) patterns of
    `itertools.product`, and lies over x1..xn when no letter passes n."""
    counts = [1]
    for k in range(1, terms + 1):
        counts.append(0)
        for cuts in itertools.product((False, True), repeat=k - 1):
            letters = [1]
            for cut in cuts:
                if cut:
                    letters.append(1)
                else:
                    letters[-1] += 1
            counts[k] += n is None or max(letters) <= n
    return counts


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, None))
def test_level_counts_match_the_per_word_tally(n):
    brute = _brute_force_by_rank(14, n)
    for terms in range(15):
        counts = enumerate_by_rank(terms, n)
        assert counts == [len(level) for level in words._word_levels(terms, n, None)[0]]
        assert counts == _tally_by_rank(terms, n) == brute[: terms + 1]


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
    """Log each generation of the words, through every module that binds `words._word_levels`;
    return the log."""
    calls = []
    real = words._word_levels

    def spying(*args):
        calls.append(args)
        return real(*args)

    binding = [module for name, module in sys.modules.items()
               if name.startswith("ncposet") and getattr(module, "_word_levels", None) is real]
    assert words in binding
    for module in binding:
        monkeypatch.setattr(module, "_word_levels", spying)
    return calls


@pytest.mark.parametrize("n", (1, 2, 3, None))
def test_a_kept_tally_answers_a_shorter_call(monkeypatch, n):
    expected = [_tally_by_rank(terms, n) for terms in range(14)]
    built = _spy_levels(monkeypatch)
    for terms in (13, *range(14)):
        counts = enumerate_by_rank(terms, n)
        assert counts == expected[terms]
        counts.append(0)  # each call returns a list of its own
    assert built == []


def test_the_count_builds_no_word_and_keeps_nothing(monkeypatch, capsys):
    built = _spy_levels(monkeypatch)
    for n in (1, 2, 3, 4, None):
        for terms in (0, 1, 9, 16):
            enumerate_by_rank(terms, n)
            n_args = [] if n is None else ["-n", str(n)]
            assert cli.run(["series", *n_args, "--terms", str(terms), "--verify"]) == 0
            assert capsys.readouterr().out.endswith(" / verified\n")
            assert cli.run(["series", *n_args, "--terms", str(terms)]) == 0
    with pytest.raises(LimitError):
        enumerate_by_rank(12, None, 100)
    assert built == []
    assert words._STORE == {}
    assert words._HELD == 0
    words_up_to_rank(3, 2)  # the spy sees a generation of the words
    assert built == [(3, 2, None)]


def test_a_kept_tally_still_refuses_past_the_caps(monkeypatch):
    full = _tally_by_rank(12, None)
    refusals = []
    for terms, limit in ((12, 100), (6, 10), (12, 4095)):
        with pytest.raises(LimitError) as refused:
            words_up_to_rank(terms, None, limit)
        refusals.append((terms, limit, str(refused.value)))
    assert enumerate_by_rank(12) == full
    built = _spy_levels(monkeypatch)
    for terms, limit, message in refusals:
        with pytest.raises(LimitError, match=f"^{re.escape(message)}$"):
            enumerate_by_rank(terms, None, limit)
    with pytest.raises(ValueError, match="^limit must be an int >= 0, got -1$"):
        enumerate_by_rank(6, None, -1)
    # the default cap is read at call time, so lowering it refuses a range counted before
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", 50)
    refused = "^enumeration of words up to rank 6 exceeded the cap of 50$"
    with pytest.raises(LimitError, match=refused):
        enumerate_by_rank(6)
    assert enumerate_by_rank(12, None, 4096) == full
    assert built == []


def test_threads_share_the_kept_tallies(monkeypatch, empty_store, in_six_threads):
    tallies = [(terms, n) for n in (1, 2, None) for terms in (4, 9)]
    graphs = [("nc", 5), ("comm", 6), ("q", 4)]
    expected = [_tally_by_rank(terms, n) for terms, n in tallies]
    expected += [hasse(PosetHandle(family, 2), r) for family, r in graphs]
    calls = [lambda terms=terms, n=n: enumerate_by_rank(terms, n) for terms, n in tallies]
    calls += [lambda family=family, r=r: hasse(PosetHandle(family, 2), r) for family, r in graphs]
    empty_store()
    # the word levels (20 elements to rank 5) and the partition levels (16 to rank 6) over
    # two letters pass 30: most calls evict; the counts keep nothing
    monkeypatch.setattr(errors, "TABLE_LIMIT", 30)
    differing = []

    def work(k):
        for i in range(400):
            j = (5 * i + k) % len(calls)
            if calls[j]() != expected[j]:
                differing.append(j)

    assert in_six_threads(work) == []
    assert differing == []
    assert words._HELD == sum(weight for weight, _ in words._STORE.values()) <= 30
    assert {kind for kind, _ in words._STORE} <= {"words", "partitions"}
