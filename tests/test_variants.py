import random
from collections import deque

import pytest

from ncposet import (
    EQ,
    GT,
    INCOMPARABLE,
    LT,
    LimitError,
    PosetHandle,
    compare,
    covers_up,
    leq,
    multirank,
    nc_leq,
    p_leq,
    q_leq,
    words_of_degree,
    words_up_to_degree,
    words_up_to_rank,
)
from ncposet.ncorder import dominated
from ncposet.variants import swap_successors
from ncposet.words import _multirank, check_word


def _q_leq_search(m, m2, n):
    """The "q" order by its definition: breadth-first search upward from m.

    Four moves: prepend x1, append x1, raise one letter (the nc covers),
    sort one adjacent descent.  The first three add one unit to the
    multirank and the swap preserves it, so pruning by multirank domination
    leaves a finite state space (swap orbits at a fixed multirank are
    finite).
    """
    if m == m2:
        return True
    target = _multirank(m2)
    if not dominated(_multirank(m), target):
        return False
    seen = {m}
    queue = deque([m])
    while queue:
        w = queue.popleft()
        for w2 in covers_up(w, n) | swap_successors(w):
            if w2 in seen or not dominated(_multirank(w2), target):
                continue
            if w2 == m2:
                return True
            seen.add(w2)
            queue.append(w2)
    return False


def test_q_leq_examples():
    assert q_leq((2, 1), (1, 2))
    assert not q_leq((1, 2), (2, 1))
    assert q_leq((1, 2), (1, 2))
    assert q_leq((2, 1, 1), (1, 2, 1))
    assert q_leq((1, 2, 1), (1, 1, 2))


@pytest.mark.parametrize("n, top_rank", [(1, 20), (2, 7), (3, 7), (4, 7), (None, 7)])
def test_q_leq_matches_the_search(n, top_rank):
    words = words_up_to_rank(top_rank, n)
    for a in words:
        for b in words:
            expected = _q_leq_search(a, b, n)
            assert q_leq(a, b, n) == expected, (a, b, n)
            assert q_leq(a, b) == expected, (a, b)


def test_q_leq_matches_the_search_on_random_pairs():
    rng = random.Random(7)
    for _ in range(400):
        b = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 7)))
        a = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, len(b))))
        assert q_leq(a, b) == _q_leq_search(a, b, None), (a, b)


def test_q_leq_decides_a_large_box_at_once():
    # the search expands every word in the multirank box below x1 .. x8,
    # although its window x6 x7 x8 already dominates x6^3
    assert q_leq((6, 6, 6), tuple(range(1, 9)))
    assert not q_leq((6, 6, 6), tuple(range(1, 8)))


def test_q_chain_through_the_fiber():
    # the three-word fiber of x1^2*x2 is the chain x2x1x1 < x1x2x1 < x1x1x2
    chain = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
    for i, a in enumerate(chain):
        for j, b in enumerate(chain):
            assert q_leq(a, b) == (i <= j)


def test_q_swap_moves_up_only():
    for w in words_up_to_degree(3, 4):
        for k in range(len(w) - 1):
            if w[k] > w[k + 1]:
                swapped = w[:k] + (w[k + 1], w[k]) + w[k + 2 :]
                assert q_leq(w, swapped)
                assert not q_leq(swapped, w)


def test_q_contains_nc():
    for n in (2, 3):
        universe = words_up_to_degree(n, 4)
        for a in universe:
            for b in universe:
                if nc_leq(a, b, n):
                    assert q_leq(a, b, n)


def test_q_partial_order_axioms():
    universe = words_up_to_degree(2, 4)
    for a in universe:
        assert q_leq(a, a)
        for b in universe:
            if a != b and q_leq(a, b) and q_leq(b, a):
                raise AssertionError(f"antisymmetry broken at {a}, {b}")
    related = [(a, b) for a in universe for b in universe if q_leq(a, b)]
    above = {}
    for a, b in related:
        above.setdefault(a, set()).add(b)
    for a, b in related:
        for c in above.get(b, ()):
            assert q_leq(a, c)


def test_sorted_fiber_incomparability_regression():
    # the permutation fiber of x1*x2*x3 is not a chain: only descent swaps
    # stay inside the fiber, and neither word below reaches the other
    a, b = (2, 1, 3), (1, 3, 2)
    assert multirank(a) == multirank(b)
    assert not q_leq(a, b)
    assert not q_leq(b, a)
    assert compare(PosetHandle("q"), a, b) == INCOMPARABLE


def test_p_leq_examples():
    assert p_leq((3,), (1, 1))
    assert not p_leq((1, 2), (2, 1))
    assert not p_leq((2, 1), (1, 2))
    assert p_leq((1, 2), (2, 2))


def test_p_contains_nc_with_strict_witness():
    for n in (2, 3):
        universe = words_up_to_degree(n, 4)
        for a in universe:
            for b in universe:
                if nc_leq(a, b, n):
                    assert p_leq(a, b)
    # strict: lower degree beats higher degree in p but not in nc
    assert p_leq((3,), (1, 1))
    assert not nc_leq((3,), (1, 1))
    assert not nc_leq((1, 1), (3,))


def test_p_fixed_degree_is_componentwise():
    for n in (2, 3):
        for d in range(5):
            fiber = list(words_of_degree(n, d))
            for a in fiber:
                for b in fiber:
                    assert p_leq(a, b) == all(x <= y for x, y in zip(a, b))


def test_compare_dispatch():
    assert compare(PosetHandle("nc", 2), (1, 1), (2,)) == INCOMPARABLE
    assert compare(PosetHandle("p"), (3,), (1, 1)) == LT
    assert compare(PosetHandle("p"), (1, 1), (3,)) == GT
    assert compare(PosetHandle("q"), (1, 2), (1, 2)) == EQ
    assert compare(PosetHandle("comm"), {1: 1}, {2: 1}) == LT
    assert compare(PosetHandle("comm"), {1: 2}, {2: 1}) == INCOMPARABLE
    assert compare(PosetHandle("comm"), {1: 1, 2: 0}, {1: 1}) == EQ


def test_compare_type_mismatch():
    with pytest.raises(TypeError):
        compare(PosetHandle("comm"), (1, 2), (2, 1))
    with pytest.raises(TypeError):
        compare(PosetHandle("nc"), {1: 1}, {2: 1})


def test_handle_validation():
    with pytest.raises(ValueError):
        PosetHandle("young")
    with pytest.raises(ValueError):
        PosetHandle("nc", 0)


def test_bound_validation_through_leq():
    with pytest.raises(ValueError):
        leq(PosetHandle("q", 2), (3,), (3,))
    with pytest.raises(ValueError):
        leq(PosetHandle("p", 2), (3,), (3, 1))


def test_bool_letters_are_rejected():
    with pytest.raises(ValueError, match="letter indices"):
        compare(PosetHandle("nc"), (True,), (1,))
    with pytest.raises(ValueError, match="letter indices"):
        nc_leq((True,), (2,))
    with pytest.raises(ValueError, match="letter indices"):
        q_leq((1, False), (1, 1))
    with pytest.raises(ValueError, match="exponents"):
        compare(PosetHandle("comm"), {1: True}, {1: 1})


@pytest.mark.parametrize("n", [0, -1])
def test_alphabet_bound_below_one_is_rejected(n):
    # the identity has no letter to exceed the bound, so n itself is checked
    for call in (
        lambda: check_word((), n),
        lambda: covers_up((), n),
        lambda: nc_leq((), (), n),
        lambda: q_leq((), (), n),
    ):
        with pytest.raises(ValueError, match=f"alphabet bound must be >= 1, got {n}"):
            call()


def test_quadratic_comparisons_are_budgeted():
    # (6000 - 3000 + 1) * 3000 window letters, and 3000 * 6000 first-fit steps
    with pytest.raises(LimitError, match="letter comparisons exceed"):
        nc_leq((1,) * 2999 + (2,), (1,) * 6000)
    with pytest.raises(LimitError, match="letter comparisons exceed"):
        q_leq((2,) * 3000, (1,) * 3000 + (2,) * 3000)
    # at the cap of 10^6 both still answer, and a longer m needs no comparison
    assert not nc_leq((2,) * 1000, (1,) * 1999)
    assert not q_leq((2,) * 1000, (1,) * 1000)
    assert not q_leq((1,) * 6000, (1,) * 3000)


def test_q_memo_is_pure():
    assert q_leq((2, 1), (1, 2))
    assert q_leq((2, 1), (1, 2))
    assert not q_leq((1, 2), (2, 1))
