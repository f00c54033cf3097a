import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncposet import (
    DEFAULT_LIMIT,
    LimitError,
    abelianize,
    check_coconnection,
    comm_leq,
    comm_leq_oracle,
    errors,
    from_partition,
    monomial_canonical_key,
    monomial_product,
    monomial_rank,
    monomials_up_to_rank,
    multirank,
    nc_leq,
    q_leq,
    sort_word,
    sorted_form,
    to_partition,
    words_up_to_degree,
    words_up_to_rank,
)
from ncposet.commutative import CoconnectionReport, LawCheck, _box_covers
from ncposet.ncorder import _reachable, dominated
from ncposet.words import check_word

monomials = st.dictionaries(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    max_size=4,
)


def comm_successors(t, n=None):
    """Multiply a normalized ``t`` by x1, or trade an x_i for x_{i+1} (i < n).

    The dict form of the two moves, the reference for `_box_covers`.
    """
    up = dict(t)
    up[1] = up.get(1, 0) + 1
    out = [up]
    for i in t:
        if n is None or i < n:
            succ = dict(t)
            succ[i] -= 1
            if succ[i] == 0:
                del succ[i]
            succ[i + 1] = succ.get(i + 1, 0) + 1
            out.append(succ)
    return out


def freeze_monomial(t):
    """Hashable form of a normalized monomial: its sorted (letter, exponent) pairs."""
    return tuple(sorted(t.items()))


def comm_leq_dict_search(t, t2):
    """Search over frozen monomials by `comm_successors`, pruned by partition domination."""
    target = to_partition(t2)

    def up(f):
        return [
            freeze_monomial(s)
            for s in comm_successors(dict(f))
            if dominated(to_partition(s), target)
        ]

    return freeze_monomial(t2) in _reachable(freeze_monomial(t), up)


def stack_and_sort_monomials(max_rank, n=None, limit=None):
    """Every exponent dict by a stack of letter choices, then one global sort."""
    if max_rank < 0:
        return []
    cap = DEFAULT_LIMIT if limit is None else limit
    top = max_rank if n is None else min(n, max_rank)
    out = []
    stack = [({}, 1, max_rank)]
    while stack:
        exponents, start, budget = stack.pop()
        out.append(exponents)
        if len(out) > cap:
            raise LimitError(
                f"enumeration of monomials up to rank {max_rank} exceeded the cap of {cap}"
            )
        for letter in range(start, top + 1):
            if letter > budget:
                break
            for e in range(1, budget // letter + 1):
                stack.append(
                    ({**exponents, letter: e}, letter + 1, budget - letter * e)
                )
    out.sort(key=monomial_canonical_key)
    return out


def _all_monomials(max_letter, max_total_degree):
    ranges = [range(max_total_degree + 1)] * max_letter
    out = []

    def build(prefix, remaining, letter):
        if letter > max_letter:
            out.append({i + 1: e for i, e in enumerate(prefix) if e})
            return
        for e in range(remaining + 1):
            build(prefix + [e], remaining - e, letter + 1)

    build([], max_total_degree, 1)
    return out


def test_to_partition_examples():
    assert to_partition({1: 2, 2: 3}) == (5, 3)
    assert to_partition({}) == ()
    assert to_partition({3: 1}) == (1, 1, 1)


def test_from_partition_examples():
    assert from_partition((5, 3)) == {1: 2, 2: 3}
    assert from_partition(()) == {}
    assert from_partition((1, 1, 1)) == {3: 1}
    with pytest.raises(ValueError):
        from_partition((1, 2))
    with pytest.raises(ValueError):
        from_partition((2, 0))
    # a part that is not a plain int is refused before the order and positivity checks:
    # (1, 2.0) is out of order as well
    for parts in [(2.5,), (3, True), (1, 2.0)]:
        with pytest.raises(ValueError, match="parts must be plain ints"):
            from_partition(parts)
    # a mapping is a monomial, not a partition: its keys are not read as parts
    with pytest.raises(TypeError, match="a partition is a sequence of parts, got dict"):
        from_partition({2: 1})


def test_partition_roundtrip():
    for t in _all_monomials(3, 5):
        p = to_partition(t)
        assert all(a >= b for a, b in zip(p, p[1:]))
        assert from_partition(p) == t
        assert sum(p) == monomial_rank(t)


def test_partition_matches_word_multirank():
    for w in words_up_to_degree(3, 4):
        assert to_partition(abelianize(w)) == multirank(w)


def test_comm_leq_examples():
    assert comm_leq({1: 1}, {2: 1})
    assert not comm_leq({1: 2}, {2: 1})
    assert not comm_leq({2: 1}, {1: 2})
    assert comm_leq({1: 2, 2: 1}, {1: 2, 2: 1})


def test_comm_oracle_examples():
    assert comm_leq_oracle({1: 1}, {2: 1})
    assert not comm_leq_oracle({1: 2}, {2: 1})
    assert comm_leq_oracle({}, {3: 2})


def test_box_covers_respect_the_alphabet_bound():
    # x1*x2: multiply by x1, trade x1 for x2, trade x2 for x3
    p = to_partition({1: 1, 2: 1})
    assert _box_covers(p) == [(3, 1), (2, 2), (2, 1, 1)]
    assert [from_partition(u) for u in _box_covers(p)] == [{1: 2, 2: 1}, {2: 2}, {1: 1, 3: 1}]
    assert _box_covers(p, 2) == [(3, 1), (2, 2)]
    assert _box_covers((2,), 1) == [(3,)]
    assert _box_covers(()) == _box_covers((), 1) == [(1,)]


@pytest.mark.parametrize("n", [1, 2, 3, None])
def test_box_covers_are_the_dict_moves(n):
    for t in stack_and_sort_monomials(10):
        expected = {to_partition(s) for s in comm_successors(t, n)}
        assert set(_box_covers(to_partition(t), n)) == expected, (t, n)


def test_comm_leq_matches_oracle_exhaustive():
    universe = _all_monomials(3, 5)
    for t in universe:
        for t2 in universe:
            expected = comm_leq(t, t2)
            assert comm_leq_oracle(t, t2) == expected, (t, t2)
            assert comm_leq_dict_search(t, t2) == expected, (t, t2)


@given(monomials, monomials)
def test_to_partition_is_a_monoid_morphism(t, t2):
    product = monomial_product(t, t2)
    p, p2 = to_partition(t), to_partition(t2)
    width = max(len(p), len(p2))
    padded = tuple(
        (p[i] if i < len(p) else 0) + (p2[i] if i < len(p2) else 0)
        for i in range(width)
    )
    assert to_partition(product) == padded


def test_bounded_monomials_have_at_most_n_parts():
    # over x1..xn the image consists of the partitions with <= n parts
    for n in (1, 2, 3):
        universe = monomials_up_to_rank(6, n)
        seen = set()
        for t in universe:
            p = to_partition(t)
            assert len(p) <= n
            seen.add(p)
        expected = {
            p
            for p in (to_partition(t) for t in _all_monomials(3, 6))
            if len(p) <= n and sum(p) <= 6
        }
        assert seen == expected


def test_monomials_up_to_rank_counts():
    # partitions of size <= 6 with at most 2 parts: 1+1+2+2+3+3+4
    assert len(monomials_up_to_rank(6, 2)) == 16
    assert len(monomials_up_to_rank(0, 3)) == 1
    assert monomials_up_to_rank(-1) == monomials_up_to_rank(-3, 2) == []


@pytest.mark.parametrize("n", [0, -2])
def test_monomials_up_to_rank_rejects_an_alphabet_bound_below_1(n):
    # the message of check_word; once the identity alone came back
    with pytest.raises(ValueError) as expected:
        check_word((), n)
    for max_rank in (0, 3):
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            monomials_up_to_rank(max_rank, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 11, None])
def test_monomials_up_to_rank_matches_stack_and_sort(n):
    # n = 11 puts x10 and x11 between x1 and x2 in canonical order
    for max_rank in range(15):
        assert monomials_up_to_rank(max_rank, n) == stack_and_sort_monomials(max_rank, n)


@pytest.mark.parametrize("max_rank, n, size", [(6, 2, 16), (9, None, 97), (12, 1, 13)])
def test_monomial_cap_edges(max_rank, n, size):
    assert len(monomials_up_to_rank(max_rank, n, size)) == size
    message = f"^enumeration of monomials up to rank {max_rank} exceeded the cap of {size - 1}$"
    for enumerate_ in (monomials_up_to_rank, stack_and_sort_monomials):
        with pytest.raises(LimitError, match=message):
            enumerate_(max_rank, n, size - 1)
    with pytest.raises(LimitError, match="up to rank 0 exceeded the cap of 0$"):
        monomials_up_to_rank(0, n, 0)


def test_monomial_cap_is_charged_before_anything_is_built():
    # about 4e12 partitions up to rank 200; building the first million took 1.2 s
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match="cap of 1000000$"):
            monomials_up_to_rank(200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_coconnection_report_clean():
    report = check_coconnection(2, 6)
    assert report.ok
    assert report.violations == 0
    laws = {law.law: law for law in report.laws}
    assert set(laws) == {
        "abelianize-monotone",
        "sort-monotone",
        "word-roundtrip-ascends",
        "monomial-roundtrip-identity",
    }
    assert laws["word-roundtrip-ascends"].checked == 33
    lines = report.format_lines()
    assert lines[-1] == "result: 0 violated laws"


def test_coconnection_single_laws():
    assert sort_word(abelianize((2, 1))) == (1, 2)
    assert q_leq((2, 1), (1, 2))
    assert abelianize(sort_word({1: 2, 2: 3})) == {1: 2, 2: 3}


def test_sorted_form_is_never_strictly_below():
    # the word and its sorted form share a multirank and are incomparable
    # in the base order unless equal
    for w in words_up_to_degree(3, 4):
        s = sorted_form(w)
        assert multirank(s) == multirank(w)
        if s != w:
            assert not nc_leq(s, w)
            assert not nc_leq(w, s)


def test_coconnection_json_shape():
    import json

    report = check_coconnection(2, 4)
    payload = json.loads(report.to_json())
    assert payload["n"] == 2 and payload["max_rank"] == 4
    for law in payload["laws"]:
        assert set(law) == {"law", "status", "checked", "witness"}
        assert law["status"] == "ok"
        assert law["witness"] is None


def _dumped(report):
    """The report as ``json.dumps(..., indent=2)`` writes its fields."""
    import json

    laws = [{"law": law.law, "status": "ok" if law.ok else "violated", "checked": law.checked,
             "witness": law.witness} for law in report.laws]
    return json.dumps({"n": report.n, "max_rank": report.max_rank, "laws": laws}, indent=2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: check_coconnection(2, 4),
        lambda: check_coconnection(None, 3),
        lambda: CoconnectionReport(3, 2, ()),
        # witnesses, as a violated law has them, with characters json escapes
        lambda: CoconnectionReport(None, 5, (
            LawCheck("sort-monotone", 12, 'x2*x1 <= x1*x2 but "x1*x2" > x2*x1'),
            LawCheck("word-roundtrip-ascends", 0),
            LawCheck("a\tlaw \u00e9", 3, "back\\slash \u2192 \U0001d510"),
        )),
    ],
)
def test_coconnection_json_is_json_dumps(make):
    report = make()
    assert report.to_json() == _dumped(report)


def test_comm_leq_bound_validation():
    with pytest.raises(ValueError):
        comm_leq({3: 1}, {1: 1}, n=2)


def test_words_monomials_rank_alignment():
    words = words_up_to_rank(5, 2)
    mons = monomials_up_to_rank(5, 2)
    assert {to_partition(abelianize(w)) for w in words} == {
        to_partition(t) for t in mons
    }


def test_coconnection_counts_at_rank_8():
    # the all-pairs counts, recorded from the q_leq search that the tables replace
    expected = {
        2: [2270, 200, 88, 25],
        3: [5729, 425, 177, 41],
        4: [7358, 609, 224, 53],
        None: [8109, 795, 256, 67],
    }
    for n, counts in expected.items():
        report = check_coconnection(n, 8)
        assert report.ok
        assert [law.checked for law in report.laws] == counts, n


def test_coconnection_counts_past_x9():
    # canonical order lists a rank's words in the text order of their letters, so x10 and
    # up sort between x1 and x2 there; the counts are the all-pairs ones of the cover lookup
    # that the level edges replace
    for n, max_rank, counts in (
        (None, 13, [2906356, 14688, 8192, 373]),
        (11, 12, [889022, 8571, 4095, 271]),
    ):
        report = check_coconnection(n, max_rank)
        assert report.ok
        assert [law.checked for law in report.laws] == counts, n


def test_coconnection_rejects_bad_ranges():
    for n, r in ((0, 3), (-2, 3), (2, -1)):
        with pytest.raises(ValueError):
            check_coconnection(n, r)


def test_coconnection_table_cap(monkeypatch):
    # 33 words and 23 monomials at (2, 6); the cap is read from errors at call time
    monkeypatch.setattr(errors, "TABLE_LIMIT", 33)
    assert check_coconnection(2, 6).ok
    monkeypatch.setattr(errors, "TABLE_LIMIT", 32)
    with pytest.raises(LimitError):
        check_coconnection(2, 6)


def test_coconnection_runs_no_search(monkeypatch):
    from ncposet import posets, variants

    def refuse(*_):
        raise AssertionError("q_leq called")

    monkeypatch.setattr(variants, "q_leq", refuse)
    monkeypatch.setattr(variants, "_q_leq", refuse)
    monkeypatch.setitem(posets._KERNELS, "q", refuse)
    assert check_coconnection(3, 6).ok


def test_coconnection_sorts_each_monomial_once(monkeypatch):
    # once every word was sorted too, after its abelianization
    from ncposet import commutative

    calls = []
    sort_word = commutative._sort_word
    monkeypatch.setattr(commutative, "_sort_word", lambda t: calls.append(t) or sort_word(t))
    for n in (1, 2, 3, None):
        for r in range(7):
            calls.clear()
            assert check_coconnection(n, r).ok
            assert calls == monomials_up_to_rank(r, n), (n, r)
