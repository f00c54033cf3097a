import random

import pytest

from ncposet import (
    IdealGens,
    ideal_member,
    is_strongly_stable,
    minimalize,
    strongly_stable_closure,
    words_up_to_rank,
)


def test_minimalize_examples():
    assert minimalize([(1,), (1, 2)], 3).gens == ((1,),)
    assert minimalize([], 3).gens == ()
    assert minimalize([(1, 2), (2, 1)], 2).gens == ((1, 2), (2, 1))
    assert minimalize([(1,), (1,)], 2).gens == ((1,),)


def test_minimalize_canonical_order():
    ideal = minimalize([(2, 2), (1, 2), (2, 1)], 2)
    assert ideal.gens == ((1, 2), (2, 1), (2, 2))


def test_antichain_invariant_enforced():
    with pytest.raises(ValueError, match="antichain"):
        IdealGens(2, ((1,), (1, 2)))
    with pytest.raises(ValueError):
        IdealGens(2, ((3,),))
    with pytest.raises(ValueError):
        IdealGens(0, ())


def test_whole_algebra_collapses_to_identity_generator():
    ideal = minimalize([(), (1, 2), (2,)], 2)
    assert ideal.gens == ((),)
    assert ideal_member((), ideal)


def test_ideal_member_examples():
    ideal = minimalize([(2,)], 2)
    assert ideal_member((1, 2, 1), ideal)
    assert not ideal_member((1, 1), ideal)
    empty = minimalize([], 2)
    assert not ideal_member((1, 1), empty)


def test_closure_examples():
    assert strongly_stable_closure(minimalize([(1,)], 3)).gens == (
        (1,),
        (2,),
        (3,),
    )
    assert strongly_stable_closure(minimalize([(1, 1)], 2)).gens == (
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    )
    assert strongly_stable_closure(minimalize([], 3)).gens == ()


def test_closure_fixpoint_by_membership():
    # every word over three letters contains one of x1, x2, x3
    closed = strongly_stable_closure(minimalize([(1,)], 3))
    for w in words_up_to_rank(6, 3):
        assert ideal_member(w, closed) == bool(w)


def test_stability_examples():
    stable = minimalize([(2,)], 2)
    check = is_strongly_stable(stable, 8)
    assert check and check.window_closed and check.generators_closed

    unstable = minimalize([(1,)], 2)
    check = is_strongly_stable(unstable, 6)
    assert not check
    assert check.window_witness == ((1,), (2,))
    assert check.generator_witness == ((1,), (2,))

    empty = minimalize([], 2)
    assert is_strongly_stable(empty, 6)


def _sample_ideals(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        out.append(minimalize(gens, n))
    return out


def test_closure_laws_on_a_seeded_sample():
    for ideal in _sample_ideals(25, seed=1013):
        closed = strongly_stable_closure(ideal)
        # idempotence and extensivity
        assert strongly_stable_closure(closed) == closed
        window = words_up_to_rank(8, ideal.n)
        for w in window:
            if ideal_member(w, ideal):
                assert ideal_member(w, closed)
        # the closure is an antichain and a filter
        assert minimalize(closed.gens, closed.n) == closed
        check = is_strongly_stable(closed, 8)
        assert check.window_closed and check.generators_closed


def test_closure_monotone_on_a_seeded_sample():
    rng = random.Random(77)
    for ideal in _sample_ideals(15, seed=2029):
        extra = tuple(rng.randint(1, ideal.n) for _ in range(rng.randint(1, 3)))
        bigger = minimalize(set(ideal.gens) | {extra}, ideal.n)
        small_closed = strongly_stable_closure(ideal)
        big_closed = strongly_stable_closure(bigger)
        for w in words_up_to_rank(8, ideal.n):
            if ideal_member(w, small_closed):
                assert ideal_member(w, big_closed)


def test_generator_check_is_equivalent_to_window_check_on_sample():
    for ideal in _sample_ideals(25, seed=31415):
        check = is_strongly_stable(ideal, 8)
        assert check.window_closed == check.generators_closed


def test_negative_rank_bound_is_rejected():
    with pytest.raises(ValueError, match="rank_bound"):
        is_strongly_stable(minimalize([(1,)], 2), -1)
