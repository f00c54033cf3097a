"""The certifiers' report memo: repeats answered from it, caps and checks never skipped.

`validate_order`, `contains_poset` and `check_coconnection` check their
arguments on every call and then keep their reports for the life of the
process (`words._remembered`), keyed on the arguments and the caps.  The
conftest empties the memo before each test.  The memo and the level store
(`words._levels`) are shared by every thread of the process.
"""

import sys
import threading

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
    searches = _spy(monkeypatch, termorders, "_reachable")
    report = validate_order(DEG_LEFT_LEX, 3, 3)
    coconnection = check_coconnection(3, 6)
    # deglex puts x2*x1 above x1*x2, a q-sort below it: the failure runs one search
    answer = contains_poset(DEG_LEFT_LEX, PosetHandle("q", 2), 4)
    assert (len(loops), len(tables), len(searches)) == (1, 2, 1)
    for _ in range(3):
        assert validate_order(DEG_LEFT_LEX, 3, 3, 2) == report
        assert check_coconnection(3, 6) == coconnection
        assert contains_poset(DEG_LEFT_LEX, PosetHandle("q", 2), 4) == answer
    assert (len(loops), len(tables), len(searches)) == (1, 2, 1)
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


def test_the_memo_keeps_its_bound(monkeypatch):
    bound = words._KEPT_REPORTS

    def certify(weight):
        return validate_order(weight_deg(weight), 1, 0)

    for weight in range(1, bound + 41):
        certify(weight)
    assert len(words._REPORTS) == bound
    loops = _spy(monkeypatch, termorders, "_adjacent_multiplicative")
    # the least recently used reports went first; a read keeps a report
    certify(bound + 40)
    certify(41)
    assert loops == []
    certify(40)
    assert len(loops) == 1 and len(words._REPORTS) == bound
    certify(41)
    certify(42)
    assert len(loops) == 2


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


def _in_six_threads(work):
    """Run ``work(k)`` in threads k = 0..5 with a short switch interval; return what
    they raised, after checking that every thread ended."""
    raised = []

    def run(k):
        try:
            work(k)
        except Exception as exc:  # the test fails on it below
            raised.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return raised


def test_threads_share_the_memo(monkeypatch):
    calls = [(DEG_LEFT_LEX, n, d) for n in (1, 2) for d in (1, 2)]
    calls += [(DEG_RIGHT_LEX, 2, 2), (DEG_RIGHT_LEX, 1, 3)]
    calls += [(weight_deg(1, w), 2, 1) for w in (2, 3, 4, 5)]
    expected = [validate_order(*call) for call in calls]
    words._REPORTS.clear()
    # ten argument tuples against four kept reports: most calls evict one
    monkeypatch.setattr(words, "_KEPT_REPORTS", 4)
    differing = []

    def work(k):
        for i in range(1500):
            j = (7 * i + k) % len(calls)
            if validate_order(*calls[j]) != expected[j]:
                differing.append(calls[j])

    assert _in_six_threads(work) == []
    assert differing == []
    assert len(words._REPORTS) <= 4


def test_threads_share_the_level_store(monkeypatch):
    ranges = [(family, r) for family in ("nc", "comm") for r in range(7)]
    expected = {key: hasse(PosetHandle(key[0], 2), key[1]) for key in ranges}
    words._KEPT.clear()
    # both families' levels together pass the store's bound, so stores drop each other
    monkeypatch.setattr(errors, "TABLE_LIMIT", 200)
    differing = []

    def work(k):
        for i in range(300):
            key = ranges[(5 * i + k) % len(ranges)]
            if hasse(PosetHandle(key[0], 2), key[1]) != expected[key]:
                differing.append(key)

    assert _in_six_threads(work) == []
    assert differing == []
    assert sum(held for held, _ in words._KEPT.values()) <= 200
