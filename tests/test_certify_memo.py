"""The one store of certifier reports and rank levels: repeats answered from it, caps and
checks never skipped.

`validate_order`, `contains_poset` and `check_coconnection` check their
arguments on every call and then keep their reports (`words._remembered`),
keyed on the arguments and the caps, in the store that also keeps the rank
levels (`words._levels`).  A report weighs `words._REPORT_WEIGHT` level
elements, and the store drops the least recently used entries of either
kind once all weigh more than `errors.TABLE_LIMIT`.  The conftest empties
the store before each test.  Every thread of the process shares it.
"""

import pytest

from ncposet import (
    DEG_LEFT_LEX,
    DEG_RIGHT_LEX,
    LimitError,
    PosetHandle,
    check_coconnection,
    commutative,
    contains_poset,
    errors,
    hasse,
    termorders,
    validate_order,
    weight_deg,
    words,
)


def _spy(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that logs its calls; return the log."""
    calls = []
    real = getattr(module, name)

    def spying(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spying)
    return calls


def test_a_repeated_call_runs_no_body_again(monkeypatch):
    loops = _spy(monkeypatch, termorders, "_adjacent_multiplicative")
    tables = _spy(monkeypatch, commutative, "_down_sets")
    moves = _spy(monkeypatch, termorders, "_moves")
    report = validate_order(DEG_LEFT_LEX, 3, 3)
    coconnection = check_coconnection(3, 6)
    # deglex puts x2*x1 above x1*x2, a q-sort below it: the failure reads the moves
    # of each of the 31 words once
    answer = contains_poset(DEG_LEFT_LEX, PosetHandle("q", 2), 4)
    assert (len(loops), len(tables), len(moves)) == (1, 2, 31)
    for _ in range(3):
        assert validate_order(DEG_LEFT_LEX, 3, 3, 2) == report
        assert check_coconnection(3, 6) == coconnection
        assert contains_poset(DEG_LEFT_LEX, PosetHandle("q", 2), 4) == answer
    assert (len(loops), len(tables), len(moves)) == (1, 2, 31)
    # other arguments are other reports
    assert validate_order(DEG_RIGHT_LEX, 3, 3) != report
    assert check_coconnection(3, 5) != coconnection
    assert (len(loops), len(tables)) == (2, 4)


def test_a_lower_cap_is_never_answered_from_the_memo(monkeypatch):
    assert validate_order(DEG_LEFT_LEX, 2, 1).axioms_ok
    assert contains_poset(DEG_LEFT_LEX, PosetHandle("nc", 2), 6) == (True, None)
    assert check_coconnection(2, 6).ok
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", 100)
    # 3 words and 7 cofactors plan (2 + 1) * 49 key comparisons
    with pytest.raises(LimitError) as info:
        validate_order(DEG_LEFT_LEX, 2, 1)
    assert str(info.value) == (
        "147 key comparisons to validate deglex up to degree 1 exceed the cap of 100"
    )
    # 127 words up to degree 6 over two letters
    with pytest.raises(LimitError) as info:
        contains_poset(DEG_LEFT_LEX, PosetHandle("nc", 2), 6)
    assert str(info.value) == (
        "enumeration of words up to degree 6 over 2 letters exceeded the cap of 100"
    )
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", 1_000_000)
    # 33 words of rank <= 6 over two letters
    monkeypatch.setattr(errors, "TABLE_LIMIT", 32)
    with pytest.raises(LimitError) as info:
        check_coconnection(2, 6)
    assert str(info.value) == "enumeration of words up to rank 6 exceeded the cap of 32"
    # a refused call keeps nothing, so it is refused again
    with pytest.raises(LimitError):
        check_coconnection(2, 6)
    monkeypatch.setattr(errors, "TABLE_LIMIT", 33)
    assert check_coconnection(2, 6).ok


def test_a_changed_witness_does_not_reach_the_next_report():
    report = validate_order(DEG_LEFT_LEX, 2, 2)
    witnesses = {"sorted": ((2, 1), (1, 2))}
    assert report.witnesses == witnesses
    report.witnesses["sorted"] = None
    report.witnesses.clear()
    again = validate_order(DEG_LEFT_LEX, 2, 2)
    assert again.witnesses == witnesses and again.witnesses is not report.witnesses
    assert again.witnesses is not validate_order(DEG_LEFT_LEX, 2, 2).witnesses


def _reports():
    """The store's report entries, least recently used first: those keyed on a body."""
    return [key for key in words._STORE if callable(key[0])]


def test_the_memo_keeps_its_bound(monkeypatch):
    bound = errors.TABLE_LIMIT // words._REPORT_WEIGHT

    def certify(weight):
        return validate_order(weight_deg(weight), 1, 0)

    for weight in range(1, bound + 41):
        certify(weight)
    assert len(_reports()) == bound
    loops = _spy(monkeypatch, termorders, "_adjacent_multiplicative")
    # the least recently used reports went first; a read keeps a report
    certify(bound + 40)
    certify(41)
    assert loops == []
    certify(40)
    assert len(loops) == 1 and len(_reports()) == bound
    certify(41)
    certify(42)
    assert len(loops) == 2


def _kept():
    """The store's keys in order, the least recently used first: a level's as it is, and a
    report's by the arguments of its call."""
    return [key if type(key[0]) is str else key[1] for key in words._STORE]


def test_reports_and_levels_evict_each_other(monkeypatch):
    # 16 words of rank <= 4 over the unbounded alphabet, 12 partitions, and reports of
    # `_REPORT_WEIGHT`: room for the words and three reports; the order of evictions below
    # holds for any weight from 12 to 18
    weight = words._REPORT_WEIGHT
    assert 12 <= weight < 19
    monkeypatch.setattr(errors, "TABLE_LIMIT", 16 + 3 * weight)
    deglex = [(DEG_LEFT_LEX, 1, d, 2) for d in range(4)]
    hasse(PosetHandle("nc"), 4)
    validate_order(DEG_LEFT_LEX, 1, 0)
    validate_order(DEG_LEFT_LEX, 1, 1)
    hasse(PosetHandle("comm"), 4)
    assert _kept() == [("words", None), deglex[0], deglex[1], ("partitions", None)]
    assert words._HELD == 16 + weight + weight + 12
    # a read keeps an entry of either kind: the least recently used goes instead
    validate_order(DEG_LEFT_LEX, 1, 0)
    hasse(PosetHandle("nc"), 3)
    validate_order(DEG_LEFT_LEX, 1, 2)
    assert _kept() == [("partitions", None), deglex[0], ("words", None), deglex[2]]
    # a report evicts a level; 19 partitions of rank <= 5 evict a report, then a level
    validate_order(DEG_LEFT_LEX, 1, 3)
    assert _kept() == [deglex[0], ("words", None), deglex[2], deglex[3]]
    assert words._HELD == 16 + 3 * weight
    hasse(PosetHandle("comm"), 5)
    assert _kept() == [deglex[2], deglex[3], ("partitions", None)]
    assert words._HELD == weight + weight + 19
    # a kept report answers, and an evicted one is made again
    loops = _spy(monkeypatch, termorders, "_adjacent_multiplicative")
    validate_order(DEG_LEFT_LEX, 1, 3)
    assert loops == []
    validate_order(DEG_LEFT_LEX, 1, 0)
    assert len(loops) == 1
    # fewer ranks read the longer prefix, which stays
    hasse(PosetHandle("comm"), 4)
    assert words._STORE[("partitions", None)][0] == 19


def test_an_entry_heavier_than_the_limit_leaves_the_store_as_it_was(monkeypatch, empty_store):
    expected = validate_order(DEG_LEFT_LEX, 2, 2)
    empty_store()
    # 8 words of rank <= 3, 16 of rank <= 4, and a report of `_REPORT_WEIGHT`, one past the
    # limit, for any weight from 9 to 16
    assert 9 <= words._REPORT_WEIGHT <= 16
    monkeypatch.setattr(errors, "TABLE_LIMIT", words._REPORT_WEIGHT - 1)
    hasse(PosetHandle("nc"), 3)
    validate_order(DEG_LEFT_LEX, 1, 0)
    before = list(words._STORE.items())
    assert len(before) == 1 and words._HELD == 8
    loops = _spy(monkeypatch, termorders, "_adjacent_multiplicative")
    for _ in range(2):
        assert validate_order(DEG_LEFT_LEX, 2, 2) == expected
        assert len(hasse(PosetHandle("nc"), 4).vertices) == 16
    assert len(loops) == 2
    assert list(words._STORE.items()) == before and words._HELD == 8


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: validate_order(DEG_LEFT_LEX, True, 1),
         "alphabet bound must be an int >= 1, got True"),
        (lambda: validate_order(DEG_LEFT_LEX, 1, True), "max_degree must be an int >= 0, got True"),
        (lambda: validate_order(DEG_LEFT_LEX, 1.0, 1),
         "alphabet bound must be an int >= 1, got 1.0"),
        (lambda: validate_order(DEG_LEFT_LEX, 1, 1, 2.0),
         "cofactor_degree must be an int >= 0, got 2.0"),
        (lambda: validate_order(DEG_LEFT_LEX, 0, 1), "alphabet bound must be >= 1, got 0"),
        (lambda: validate_order(DEG_LEFT_LEX, 1, -1), "max_degree must be >= 0, got -1"),
        (lambda: contains_poset(DEG_LEFT_LEX, PosetHandle("nc", 1), True),
         "max_degree must be an int >= 0, got True"),
        (lambda: contains_poset(DEG_LEFT_LEX, PosetHandle("nc", 1), 1.0),
         "max_degree must be an int >= 0, got 1.0"),
        (lambda: contains_poset(DEG_LEFT_LEX, PosetHandle("nc", 1), -1),
         "max_degree must be >= 0, got -1"),
        (lambda: contains_poset(DEG_LEFT_LEX, PosetHandle("comm", 1), 1),
         "containment checks cover word posets, not 'comm'"),
        (lambda: contains_poset(DEG_LEFT_LEX, PosetHandle("nc"), 1),
         "containment checks need a bounded alphabet"),
        (lambda: validate_order(DEG_LEFT_LEX, None, 1), "order validation needs a bounded alphabet"),
        (lambda: validate_order("deglex", 1, 1), "a term order is a TermOrderSpec, got 'deglex'"),
        (lambda: contains_poset("degrevlex", PosetHandle("nc", 1), 1),
         "a term order is a TermOrderSpec, got 'degrevlex'"),
        (lambda: check_coconnection(True, 1), "alphabet bound must be an int >= 1, got True"),
        (lambda: check_coconnection(1, 1.0), "max_rank must be an int >= 0, got 1.0"),
        (lambda: check_coconnection(1, -1), "max_rank must be >= 0, got -1"),
        (lambda: check_coconnection(0, 1), "alphabet bound must be >= 1, got 0"),
    ],
)
def test_a_warm_memo_refuses_bad_arguments_alike(call, message):
    def refused():
        with pytest.raises(ValueError) as info:
            call()
        return str(info.value)

    assert refused() == message
    # the reports of the equal valid arguments: True and 1.0 hash as 1 does
    validate_order(DEG_LEFT_LEX, 1, 1)
    validate_order(DEG_LEFT_LEX, 1, 1, 2)
    for family in ("nc", "q", "p"):
        contains_poset(DEG_LEFT_LEX, PosetHandle(family, 1), 1)
    check_coconnection(1, 1)
    check_coconnection(None, 1)
    assert refused() == message
    assert refused() == message


def test_equal_specs_share_a_report(monkeypatch):
    loops = _spy(monkeypatch, termorders, "_adjacent_multiplicative")
    report = validate_order(weight_deg(1, 2, 3), 3, 2)
    assert validate_order(termorders.TermOrderSpec("weight_deg", [1, 2, 3]), 3, 2) == report
    assert len(loops) == 1


def test_threads_share_the_memo(monkeypatch, empty_store, in_six_threads):
    calls = [(DEG_LEFT_LEX, n, d) for n in (1, 2) for d in (1, 2)]
    calls += [(DEG_RIGHT_LEX, 2, 2), (DEG_RIGHT_LEX, 1, 3)]
    calls += [(weight_deg(1, w), 2, 1) for w in (2, 3, 4, 5)]
    expected = [validate_order(*call) for call in calls]
    empty_store()
    # ten argument tuples against four kept reports: most calls evict one
    monkeypatch.setattr(errors, "TABLE_LIMIT", 4 * words._REPORT_WEIGHT)
    differing = []

    def work(k):
        for i in range(1500):
            j = (7 * i + k) % len(calls)
            if validate_order(*calls[j]) != expected[j]:
                differing.append(calls[j])

    assert in_six_threads(work) == []
    assert differing == []
    assert len(_reports()) <= 4


def _weighed():
    """The store's running total, checked against its entries' weights."""
    assert words._HELD == sum(weight for weight, _ in words._STORE.values())
    return words._HELD


def test_threads_share_the_level_store(monkeypatch, empty_store, in_six_threads):
    ranges = [(family, r) for family in ("nc", "comm") for r in range(7)]
    expected = {key: hasse(PosetHandle(key[0], 2), key[1]) for key in ranges}
    empty_store()
    # both families' levels together pass the store's bound, so stores drop each other
    monkeypatch.setattr(errors, "TABLE_LIMIT", 200)
    differing = []

    def work(k):
        for i in range(300):
            key = ranges[(5 * i + k) % len(ranges)]
            if hasse(PosetHandle(key[0], 2), key[1]) != expected[key]:
                differing.append(key)

    assert in_six_threads(work) == []
    assert differing == []
    assert _weighed() <= 200


def test_threads_share_one_store_of_levels_and_reports(monkeypatch, empty_store,
                                                       in_six_threads):
    graphs = [(family, r) for family in ("nc", "comm") for r in (4, 5, 6)]
    orders = [(DEG_LEFT_LEX, 2, d) for d in (1, 2)] + [(weight_deg(1, w), 2, 1) for w in (2, 3)]
    expected = [hasse(PosetHandle(family, 2), r) for family, r in graphs]
    expected += [validate_order(*call) for call in orders]
    calls = [lambda family=family, r=r: hasse(PosetHandle(family, 2), r) for family, r in graphs]
    calls += [lambda call=call: validate_order(*call) for call in orders]
    empty_store()
    # 33 words and 16 partitions of rank <= 6 and four reports of 15 pass 100: either kind
    # evicts the other
    monkeypatch.setattr(errors, "TABLE_LIMIT", 100)
    differing = []

    def work(k):
        for i in range(600):
            j = (7 * i + k) % len(calls)
            if calls[j]() != expected[j]:
                differing.append(j)

    assert in_six_threads(work) == []
    assert differing == []
    assert _weighed() <= 100
