import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncposet import ncorder
from ncposet import (
    LimitError,
    abelianize,
    covers_down,
    covers_up,
    errors,
    multirank,
    nc_leq,
    nc_leq_oracle,
    principal_down_set,
    rank,
    walk,
    words_of_degree,
    words_up_to_degree,
    words_up_to_rank,
)
from ncposet.ncorder import _covers_up, _distinct_windows, _reachable

words = st.lists(st.integers(min_value=1, max_value=4), max_size=5).map(tuple)


def test_nc_leq_examples():
    assert nc_leq((1, 1), (1, 2))
    assert not nc_leq((1, 2), (2, 1))
    assert not nc_leq((2, 1), (1, 2))
    assert not nc_leq((1, 1), (2,))
    assert nc_leq((2, 1), (2, 1))
    assert nc_leq((2,), (3, 1))


def test_nc_leq_oracle_examples():
    assert nc_leq_oracle((1, 1), (1, 2))
    assert not nc_leq_oracle((1, 2), (2, 1))
    assert not nc_leq_oracle((2, 1), (1, 2))
    assert not nc_leq_oracle((1, 1), (2,))
    assert nc_leq_oracle((2,), (3, 1))
    assert nc_leq_oracle((), (2, 3))


def test_identity_below_everything():
    for w in words_up_to_degree(3, 3):
        assert nc_leq((), w)
        assert nc_leq_oracle((), w)


def test_covers_up_examples():
    assert covers_up((1,)) == {(1, 1), (2,)}
    assert covers_up((2,)) == {(1, 2), (2, 1), (3,)}
    assert covers_up((2,), n=2) == {(1, 2), (2, 1)}
    # the two x1-paddings of a power of x1 coincide
    assert covers_up((1, 1)) == {(1, 1, 1), (2, 1), (1, 2)}
    assert covers_up(()) == {(1,)}


def test_covers_down_examples():
    assert covers_down((2, 1, 1)) == {(1, 1, 1), (2, 1)}
    assert covers_down((1, 1, 1)) == {(1, 1)}
    assert covers_down(()) == set()
    assert covers_down((2,)) == {(1,)}


def test_public_covers_charge_their_output_letters():
    # x1^999 has 1000 covers of 1000 letters; the unvalidated kernel behind
    # hasse charges nothing
    with pytest.raises(LimitError, match="^1001000 output letters exceed the cap"):
        covers_up((1,) * 999)
    assert len(_covers_up((1,) * 999, None)) == 1000
    with pytest.raises(LimitError, match="^1002001 output letters exceed the cap"):
        covers_down((2,) * 1001)
    with pytest.raises(LimitError, match="^1000001 multirank components exceed"):
        multirank((10**6 + 1,))
    with pytest.raises(LimitError, match="^1000002 walk point components exceed"):
        walk((500001,))


def _is_power_of_x1(w):
    return all(i == 1 for i in w)


def test_cover_count_formulas():
    for n, dmax in ((2, 5), (3, 4)):
        for w in words_up_to_degree(n, dmax):
            counts = abelianize(w)
            ups_unbounded = covers_up(w)
            ups_bounded = covers_up(w, n)
            downs = covers_down(w)
            raisable_bounded = sum(e for i, e in counts.items() if i < n)
            if _is_power_of_x1(w):
                assert len(ups_unbounded) == len(w) + 1
                assert len(ups_bounded) == 1 + raisable_bounded
                assert len(downs) == (1 if w else 0)
            else:
                assert len(ups_unbounded) == 2 + len(w)
                assert len(ups_bounded) == 2 + raisable_bounded
                b = (1 if w[0] == 1 else 0) + (1 if w[-1] == 1 else 0)
                assert len(downs) == b + sum(
                    e for i, e in counts.items() if i >= 2
                )


def test_covers_are_covers():
    # each cover differs by rank exactly one and is comparable
    for w in words_up_to_degree(3, 3):
        for c in covers_up(w, 3):
            assert rank(c) == rank(w) + 1
            assert nc_leq(w, c, 3)
        for c in covers_down(w):
            assert rank(c) == rank(w) - 1
            assert nc_leq(c, w)


def test_up_down_adjoint():
    universe = words_up_to_degree(3, 3)
    for w in universe:
        for c in universe:
            assert (c in covers_up(w, 3)) == (w in covers_down(c))


def test_partial_order_axioms_exhaustive():
    universe = words_up_to_degree(2, 4)
    for a in universe:
        assert nc_leq(a, a)
        for b in universe:
            if nc_leq(a, b) and nc_leq(b, a):
                assert a == b
    related = [
        (a, b) for a in universe for b in universe if a != b and nc_leq(a, b)
    ]
    below = {}
    for a, b in related:
        below.setdefault(b, set()).add(a)
    for b, c in related:
        for a in below.get(b, ()):
            assert nc_leq(a, c), (a, b, c)


def test_degree_fiber_is_componentwise():
    for n in (2, 3):
        for d in range(5):
            fiber = list(words_of_degree(n, d))
            for a in fiber:
                for b in fiber:
                    expected = all(x <= y for x, y in zip(a, b))
                    assert nc_leq(a, b, n) == expected


def test_bounded_is_restriction_of_unbounded():
    for n in (2, 3):
        universe = words_up_to_degree(n, 3)
        for a in universe:
            for b in universe:
                assert nc_leq(a, b, n) == nc_leq(a, b)
                assert nc_leq_oracle(a, b, n) == nc_leq_oracle(a, b)


def test_principal_down_sets_finite_and_correct():
    for m in [(2, 2), (3, 1), (1, 2, 1)]:
        down = principal_down_set(m)
        n = max(m)
        candidates = words_up_to_degree(n, len(m))
        expected = {u for u in candidates if nc_leq(u, m)}
        assert down == expected
        assert m in down and () in down


def test_principal_down_set_charges_each_word_it_expands(monkeypatch):
    expected = principal_down_set((3,) * 4)
    assert len(expected) == 121
    # the cap is read at call time; (3,)*8 has far more than 1000 words below it
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", 1000)
    with pytest.raises(LimitError, match="^1001 down-set words exceed the cap of 1000$"):
        principal_down_set((3,) * 8)
    assert principal_down_set((3,) * 4) == expected


def _down_set_by_search(m):
    """The down-set as `principal_down_set` once found it: every word reached from ``m`` by
    stripping a marginal x1 or lowering a letter."""
    return _reachable(tuple(m), covers_down)


def _assert_down_set(m):
    down = principal_down_set(m)
    assert down == _down_set_by_search(m), m
    assert all(nc_leq(u, m) for u in down), m


@pytest.mark.parametrize("n", (1, 2, 3, 4, None))
def test_principal_down_set_matches_the_search_on_every_word_of_rank_9(n):
    for m in words_up_to_rank(9, n):
        _assert_down_set(m)


@settings(deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), max_size=8))
def test_principal_down_set_matches_the_search(m):
    _assert_down_set(m)


def test_principal_down_set_reads_the_windows_without_a_search(monkeypatch):
    called = []
    monkeypatch.setattr(ncorder, "_reachable", lambda *args: called.append("_reachable"))
    monkeypatch.setattr(ncorder, "covers_down", lambda *args: called.append("covers_down"))
    assert len(principal_down_set((2, 3, 1, 4, 2, 3, 1, 2))) == 1071
    assert called == []


# overlapping windows: x2*x3 and x3*x2 occur twice each, and x2*x3*x2 dominates x2*x2*x2;
# the 26 words below x2*x1*x2*x1*x2 pass its 25 output letters by one
@pytest.mark.parametrize("m", [(), (1,), (3,) * 4, (2, 3, 2, 3, 2), (2, 1, 2, 1, 2), (4, 1, 4)])
def test_principal_down_set_refuses_exactly_past_the_cap(monkeypatch, m):
    expected = principal_down_set(m)
    size = len(expected)
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", size)
    assert principal_down_set(m) == expected
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", size - 1)
    message = f"^{size} down-set words exceed the cap of {size - 1}$"
    with pytest.raises(LimitError, match=message):
        principal_down_set(m)


def test_principal_down_set_charges_the_letters_of_its_word_first(monkeypatch):
    # as the first covers_down of the search did: len(m)^2 output letters, before any window
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", 100)
    assert principal_down_set((1,) * 10) == {(1,) * k for k in range(11)}
    with pytest.raises(LimitError, match="^121 output letters exceed the cap of 100$"):
        principal_down_set((1,) * 11)
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", 14)
    with pytest.raises(LimitError, match="^16 output letters exceed the cap of 14$"):
        principal_down_set((1, 2, 1, 2))


@pytest.mark.parametrize("m", [(1,) * 2000, tuple(random.Random(35).choices((1, 2), k=3000))])
def test_principal_down_set_refuses_a_long_word_before_building_a_window(monkeypatch, m):
    built = []
    monkeypatch.setattr(ncorder, "product", lambda *ranges: built.append(ranges) or [()])
    message = f"^{len(m) ** 2} output letters exceed the cap of 1000000$"
    with pytest.raises(LimitError, match=message):
        principal_down_set(m)
    assert built == []


@settings(deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=12).map(tuple))
def test_each_distinct_window_is_sliced_once_the_shorter_first(w):
    windows = [*_distinct_windows(w)]
    assert sorted(windows) == sorted({w[i:j] for j in range(len(w) + 1) for i in range(j + 1)})
    assert [len(v) for v in windows] == sorted(len(v) for v in windows)


def test_a_long_one_letter_word_has_one_window_per_length():
    # each of its 500,500 windows was sliced and hashed: x1^1000 took seconds, x1^3000 a minute
    assert [*_distinct_windows((1,) * 1000)] == [(1,) * k for k in range(1001)]
    assert principal_down_set((1,) * 1000) == {(1,) * k for k in range(1001)}


def test_principal_down_set_charges_the_letters_it_keeps(monkeypatch):
    # the 121 words below x3^4 hold 426 letters: 4 a word of a cap of 121 admit them, 3 do not
    expected = principal_down_set((3,) * 4)
    assert sum(map(len, expected)) == 426
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", 121)
    monkeypatch.setattr(errors, "LETTERS_PER_WORD", 4)
    assert principal_down_set((3,) * 4) == expected
    monkeypatch.setattr(errors, "LETTERS_PER_WORD", 3)
    message = "^enumeration of down-set words exceeded the cap of 363 letters$"
    with pytest.raises(LimitError, match=message):
        principal_down_set((3,) * 4)


def test_principal_down_set_refuses_a_down_set_of_too_many_letters():
    # 102,911 words below x1^400*x2^8, under the word cap, hold 21,353,986 letters (186 MB)
    message = "^enumeration of down-set words exceeded the cap of 20000000 letters$"
    with pytest.raises(LimitError, match=message):
        principal_down_set((1,) * 400 + (2,) * 8)


@given(words, words)
def test_window_matches_oracle(a, b):
    assert nc_leq(a, b) == nc_leq_oracle(a, b)


@given(words)
def test_padding_moves_up(w):
    assert nc_leq(w, (1,) + w)
    assert nc_leq(w, w + (1,))


def test_walk_examples():
    assert walk((2, 1, 1, 2, 2)) == [
        (0, 0),
        (1, 1),
        (2, 1),
        (3, 1),
        (4, 2),
        (5, 3),
    ]
    assert walk(()) == [()]
    assert walk((1, 1, 2)) == [(0, 0), (1, 0), (2, 0), (3, 1)]


def test_walk_ends_at_multirank():
    for w in words_up_to_degree(3, 4):
        points = walk(w)
        assert len(points) == len(w) + 1
        phi = multirank(w)
        assert points[-1] == phi + (0,) * (len(points[-1]) - len(phi))


def test_walk_with_explicit_dimension():
    assert walk((1,), dim=3) == [(0, 0, 0), (1, 0, 0)]


@pytest.mark.parametrize(
    "dim, message",
    [
        (-3, "dim must be >= 0, got -3"),
        ("a", "dim must be an int >= 0, got 'a'"),
        (True, "dim must be an int >= 0, got True"),
    ],
    ids=["negative", "str", "bool"],
)
def test_walk_takes_a_dimension_that_is_an_int_at_least_0(dim, message):
    # once -3 gave [(), ()] and "a" a bare TypeError from a comparison
    with pytest.raises(ValueError, match=f"^{message}$"):
        walk((2,), dim)
