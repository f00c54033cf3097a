import random
import re
from collections import Counter
from itertools import combinations

import pytest

from ncposet import (
    IdealGens,
    LimitError,
    ideal_member,
    is_strongly_stable,
    minimalize,
    strongly_stable_closure,
    words_up_to_rank,
)
from ncposet import ideals
from ncposet.errors import DEFAULT_LIMIT
from ncposet.ideals import StabilityCheck
from ncposet.ncorder import covers_up, raisings
from ncposet.words import canonical_key, format_word, is_factor, rank, words_of_degree


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


def test_a_repeated_generator_is_refused():
    # a generator given twice is divisible by its copy; accepted, it made an ideal unequal
    # to the same ideal with the generator given once
    for n, gens, word in ((2, [(1,), (1,)], "x1"), (2, [(2, 2), (1,), (2, 2)], "x2*x2"),
                          (1, [(), ()], "1")):
        message = f"generators are not an antichain: {word} is divisible"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IdealGens(n, gens)
    assert minimalize([(1,), (1,)], 2) == IdealGens(2, [(1,)])


def test_ideal_gens_keeps_the_words_it_checked():
    # a list of generators was once kept as given: unhashable, and unequal
    # to the same generators as a tuple; a list generator failed as unhashable
    ideal = IdealGens(2, [[1], (2, 2)])
    assert ideal.gens == ((1,), (2, 2))
    assert ideal == IdealGens(2, ((1,), (2, 2)))
    assert hash(ideal) == hash(IdealGens(2, ((1,), (2, 2))))


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


@pytest.mark.parametrize("n", [None, "3", True, False, 2.5, 0, -1])
def test_alphabet_bound_must_be_a_positive_int(n):
    with pytest.raises(ValueError, match="alphabet bound must be an int >= 1"):
        IdealGens(n, ())
    with pytest.raises(ValueError, match="alphabet bound must be an int >= 1"):
        minimalize([], n)


def _window_scan(ideal, rank_bound):
    """The rank-window scan `is_strongly_stable` once ran, as the reference for both witnesses.

    The window witness is the first member in canonical order with a cover
    of rank <= rank_bound outside the ideal, paired with the least such
    cover; the generator witness is the first generator in canonical order
    with a raising outside the ideal, raisings in position order.
    """
    window_witness = None
    for m in words_up_to_rank(rank_bound, ideal.n):
        if not ideal_member(m, ideal):
            continue
        escaping = [
            c for c in covers_up(m, ideal.n)
            if rank(c) <= rank_bound and not ideal_member(c, ideal)
        ]
        if escaping:
            window_witness = (m, min(escaping, key=canonical_key))
            break
    generator_witness = next(
        (
            (g, w)
            for g in sorted(ideal.gens, key=canonical_key)
            for _, w in raisings(g, ideal.n)
            if not ideal_member(w, ideal)
        ),
        None,
    )
    return StabilityCheck(
        rank_bound=rank_bound,
        window_closed=window_witness is None,
        window_witness=window_witness,
        generators_closed=generator_witness is None,
        generator_witness=generator_witness,
    )


def _small_ideals():
    """Every ideal of 1-3 generators of rank <= 5 (<= 6 for n = 1; 1-2 generators for n = 3)."""
    for n, top, most in ((1, 6, 3), (2, 5, 3), (3, 5, 2)):
        words = words_up_to_rank(top, n)
        seen = set()
        for size in range(1, most + 1):
            for gens in combinations(words, size):
                ideal = minimalize(gens, n)
                if ideal not in seen:
                    seen.add(ideal)
                    yield ideal


def test_stability_matches_the_window_scan():
    # both witnesses and both verdicts, on every rank bound up to 8
    verdicts = Counter()
    for ideal in _small_ideals():
        for rank_bound in range(9):
            check = is_strongly_stable(ideal, rank_bound)
            assert check == _window_scan(ideal, rank_bound), (ideal, rank_bound)
            verdicts[check.window_closed, check.generators_closed] += 1
    assert set(verdicts) == {(True, True), (True, False), (False, False)}


def test_ideal_member_runs_once_per_generator_raising(monkeypatch):
    calls = []
    real = ideals.ideal_member
    monkeypatch.setattr(ideals, "ideal_member", lambda w, ideal: calls.append(w) or real(w, ideal))
    for gens, n in (([(1, 2), (2, 1, 1)], 3), ([(2,)], 2), ([(1,), (2, 2)], 3), ([], 2)):
        ideal = minimalize(gens, n)
        calls.clear()
        is_strongly_stable(ideal, 10**6)
        assert sorted(calls) == sorted(w for g in ideal.gens for _, w in raisings(g, n))


def test_rank_bounds_past_the_enumeration_cap_are_answered():
    assert is_strongly_stable(minimalize([(2,)], 2), 10**6)
    # every generator lies below rank 8, so the witnesses are those of the window up to 8
    ideal = minimalize([(1, 2), (2, 1, 1)], 3)
    check, scan = is_strongly_stable(ideal, 10**12), _window_scan(ideal, 8)
    assert (check.window_witness, check.generator_witness) == (
        scan.window_witness,
        scan.generator_witness,
    )
    assert not check


def test_window_witness_is_the_first_escaping_cover_in_canonical_order():
    # several covers escape here, and the set of covers lists another one first
    assert is_strongly_stable(minimalize([(1, 1, 1)], 2), 6).window_witness == (
        (1, 1, 1),
        (1, 1, 2),
    )
    assert is_strongly_stable(minimalize([(2, 1)], 3), 6).window_witness == ((2, 1), (2, 2))
    ideals_seen = _sample_ideals(40, seed=4242) + [minimalize([(1, 2), (2, 1, 1)], 3)]
    verdicts = set()
    for ideal in ideals_seen:
        for rank_bound in (3, 6, 8):
            check = is_strongly_stable(ideal, rank_bound)
            assert check == _window_scan(ideal, rank_bound)
            verdicts.add(check.window_closed)
    assert verdicts == {True, False}


def test_stable_scan_keys_no_cover(monkeypatch):
    ideal = minimalize([(2,)], 2)
    calls = []
    monkeypatch.setattr(ideals, "_canonical_key", lambda w: calls.append(w) or canonical_key(w))
    assert is_strongly_stable(ideal, 8)
    assert calls == [(2,)]  # the generator sort alone


def _counting_has_factor(spent):
    """`ideals._has_factor`, appending the letters of each window it looks up to ``spent``."""

    def has_factor(w, gens, lengths):
        for p in lengths:
            for k in range(len(w) - p + 1):
                spent.append(max(1, p))
                if w[k : k + p] in gens:
                    return True
        return False

    return has_factor


def test_closure_charge_bounds_its_factor_tests(monkeypatch):
    total = 0
    for ideal in _sample_ideals(25, seed=1013) + [minimalize([(1, 1, 1)], 4)]:
        spent, charged = [], []
        monkeypatch.setattr(ideals, "_has_factor", _counting_has_factor(spent))
        monkeypatch.setattr(ideals, "_charge", lambda amount, what: charged.append(amount))
        strongly_stable_closure(ideal)
        monkeypatch.undo()
        assert sum(spent) <= charged[-1]
        assert charged == sorted(charged)
        total += sum(spent)
    assert total > 0


def _pairwise_minimal(words):
    """The words that have no other one as a factor, tested pair by pair."""
    return {g for g in words if not any(h != g and is_factor(h, g) for h in words)}


def _closure_by_rounds(ideal, budget):
    """The round-based closure `strongly_stable_closure` once ran, as the reference.

    Each round adds the raisings of the current generators that no
    generator divides, then re-minimalizes the enlarged set pair by pair,
    until a round adds nothing.  It charges its factor tests as it did,
    and returns None once they pass ``budget`` letters.
    """

    def factor_work(factors, words):
        us, ms = Counter(factors), Counter(words)
        return sum(i * j * max(1, (q - p + 1) * p) for p, i in us.items() for q, j in ms.items())

    current = _pairwise_minimal(set(ideal.gens))
    work = 0
    while True:
        raisable = (len(g) for g in current for c in g if c < ideal.n)
        work += factor_work(map(len, current), raisable)
        if work > budget:
            return None
        additions = {
            w
            for g in current
            for _, w in raisings(g, ideal.n)
            if not any(is_factor(h, w) for h in current)
        }
        if not additions:
            return IdealGens(ideal.n, tuple(sorted(current, key=canonical_key)))
        merged = current | additions
        work += 2 * factor_work(map(len, merged), map(len, merged))
        if work > budget:
            return None
        current = _pairwise_minimal(merged)


def _ideals_over_four_letters():
    """Every ideal of 1-2 generators of rank <= 4 over x1..x4."""
    words = words_up_to_rank(4, 4)
    return {minimalize(gens, 4) for size in (1, 2) for gens in combinations(words, size)}


@pytest.mark.parametrize(
    "ideals_drawn, answered",
    [(_small_ideals, 660), (_ideals_over_four_letters, 76)],
)
def test_closure_matches_the_rounds(ideals_drawn, answered):
    # the reference runs a tenth of the cap, so the suite stays short; the
    # closures it refuses are the large ones, x1^4 over four letters and up
    compared = 0
    for ideal in ideals_drawn():
        expected = _closure_by_rounds(ideal, DEFAULT_LIMIT // 10)
        if expected is not None:
            assert strongly_stable_closure(ideal) == expected, ideal
            compared += 1
    assert compared == answered


def test_closure_of_a_power_of_x1_is_every_word_of_its_degree():
    # the largest closures the reference refuses
    for n, d in ((3, 5), (4, 4), (3, 6), (2, 12)):
        closed = strongly_stable_closure(minimalize([(1,) * d], n))
        assert closed.gens == tuple(sorted(words_of_degree(n, d), key=canonical_key))


def test_minimalize_and_the_antichain_check_match_the_pairwise_test():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 3)
        words = {
            tuple(rng.randint(1, n) for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(1, 6))
        }
        minimal = _pairwise_minimal(words)
        assert minimalize(words, n).gens == tuple(sorted(minimal, key=canonical_key))
        divisible = sorted(words - minimal, key=canonical_key)
        if divisible:
            # the check names the first divisible generator in the given order
            message = f"generators are not an antichain: {format_word(divisible[0])} is divisible"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                IdealGens(n, tuple(sorted(words, key=canonical_key)))


def test_closure_refuses_past_the_cap():
    # 3^10 generators of degree 10 at the fixpoint
    with pytest.raises(LimitError, match="letter comparisons exceed the cap of 1000000"):
        strongly_stable_closure(minimalize([(1,) * 10], 3))
    # the generator check of is_strongly_stable is charged the same way
    with pytest.raises(LimitError, match="letter comparisons"):
        is_strongly_stable(minimalize([(1,) * 5000, (2,)], 2), 0)


def test_antichain_tests_are_charged_before_any_lookup(monkeypatch):
    def refuse(*_):
        raise AssertionError("_has_factor called")

    monkeypatch.setattr(ideals, "_has_factor", refuse)
    message = "^71371350 letter comparisons exceed the cap of 1000000$"
    # x1*x2^a*x1 for a = 1..200: an antichain of 200 lengths
    antichain = [(1,) + (2,) * a + (1,) for a in range(1, 201)]
    with pytest.raises(LimitError, match=message):
        minimalize(antichain, 2)
    with pytest.raises(LimitError, match=message):
        IdealGens(2, tuple(sorted(antichain, key=canonical_key)))
    # x1, ..., x1^69 would minimalize to x1, but their lookups charge 1026375
    # letters; x1, ..., x1^68 is the largest such input admitted
    with pytest.raises(LimitError, match="^1026375 letter comparisons"):
        minimalize([(1,) * a for a in range(1, 70)], 2)
    monkeypatch.undo()
    assert minimalize([(1,) * a for a in range(1, 69)], 2).gens == ((1,),)


def test_one_generator_length_charges_no_antichain_test(monkeypatch):
    charged = []
    monkeypatch.setattr(ideals, "_charge", lambda amount, what: charged.append(amount))
    ideal = minimalize(words_of_degree(3, 6), 3)
    assert len(ideal.gens) == 729
    assert charged == [0]  # one antichain pass, and no second check in IdealGens


def test_minimalize_tests_each_generator_once(monkeypatch):
    tested = []
    monkeypatch.setattr(ideals, "_has_factor", lambda w, *_: tested.append(w) or False)
    antichain = [(1,) + (2,) * a + (1,) for a in range(1, 30)]
    assert minimalize(antichain, 2).gens == tuple(sorted(antichain, key=canonical_key))
    assert sorted(tested) == sorted(antichain)


def test_antichain_charge_bounds_its_lookups(monkeypatch):
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 3)
        words = [
            tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6)))
            for _ in range(rng.randint(1, 8))
        ]
        spent, charged = [], []
        monkeypatch.setattr(ideals, "_has_factor", _counting_has_factor(spent))
        monkeypatch.setattr(ideals, "_charge", lambda amount, what: charged.append(amount))
        # one charge, made before the first lookup, for every lookup
        divisible = ideals._divisible(words)
        assert (len(charged), spent) == (1, [])
        assert set(divisible) == set(words) - _pairwise_minimal(set(words))
        monkeypatch.undo()
        assert sum(spent) <= charged[0]
