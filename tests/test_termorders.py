from itertools import combinations
from operator import add

import pytest

from ncposet import (
    DEG_LEFT_LEX,
    DEG_RIGHT_LEX,
    EQ,
    GT,
    LT,
    LimitError,
    ParseError,
    PosetHandle,
    contains_poset,
    order_compare,
    parse_order_spec,
    validate_order,
    weight_deg,
    words_up_to_degree,
)
from ncposet import errors, termorders
from ncposet.termorders import sort_key


def test_order_compare_examples():
    assert order_compare(DEG_LEFT_LEX, (1, 2), (2, 1)) == LT
    assert order_compare(DEG_RIGHT_LEX, (2, 1, 3), (1, 3, 2)) == GT
    for spec in (DEG_LEFT_LEX, DEG_RIGHT_LEX, weight_deg(1, 2, 3)):
        assert order_compare(spec, (2, 1), (2, 1)) == EQ


def test_degree_comes_first():
    for spec in (DEG_LEFT_LEX, DEG_RIGHT_LEX):
        assert order_compare(spec, (3,), (1, 1)) == LT
        assert order_compare(spec, (), (1,)) == LT


def test_weight_breaks_degree_compatibility():
    # weight 1+1 = 2 below weight 3, although the degree is higher
    assert order_compare(weight_deg(1, 2, 3), (1, 1), (3,)) == LT


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        weight_deg(2, 2, 3)
    with pytest.raises(ValueError):
        weight_deg(0, 1)
    with pytest.raises(ValueError):
        weight_deg()
    with pytest.raises(ValueError):
        order_compare(weight_deg(1, 2), (3,), (1,))
    # a spec name is not a spec: once a bare AttributeError from the key
    with pytest.raises(ValueError, match="a term order is a TermOrderSpec, got 'deglex'"):
        order_compare("deglex", (1,), (2,))


@pytest.mark.parametrize("weights", [(True, 2), (1.5, 2), ("1", "2"), (1, 2.0)])
def test_weights_must_be_plain_positive_ints(weights):
    # once True and 1.5 were accepted as weights and "1" raised a bare TypeError
    with pytest.raises(ValueError) as raised:
        weight_deg(*weights)
    assert str(raised.value) == (
        f"weights must be strictly increasing positive integers, got {weights}"
    )


@pytest.mark.parametrize("weights", [{1: 2, 3: 4}, {1, 3}, frozenset({2}), 5, 0, {}], ids=repr)
def test_weights_must_be_a_sequence(weights):
    # once a mapping was read as its keys, (1, 3), a set in hash order, and an int
    # raised a bare TypeError ("'int' object is not iterable")
    with pytest.raises(ValueError) as raised:
        termorders.TermOrderSpec("weight_deg", weights)
    assert str(raised.value) == (
        f"weights must be strictly increasing positive integers, got {weights}"
    )


def test_weights_may_be_any_sequence():
    for weights in ((1, 3), [1, 3], range(1, 5, 2)):
        assert termorders.TermOrderSpec("weight_deg", weights) == weight_deg(1, 3)
    for weights in (None, (), [], range(0)):
        with pytest.raises(ValueError, match="^weight_deg needs at least one weight$"):
            termorders.TermOrderSpec("weight_deg", weights)


def test_weight_spec_keeps_a_tuple():
    # a list of weights was once kept as given: the frozen spec did not hash, and
    # s.weights[0] = 9 changed a checked spec to [9, 2, 3]
    weights = [1, 2, 3]
    spec = termorders.TermOrderSpec("weight_deg", weights)
    weights[0] = 9
    assert spec == weight_deg(1, 2, 3) and spec.weights == (1, 2, 3)
    assert hash(spec) == hash(weight_deg(1, 2, 3))
    with pytest.raises(TypeError):
        spec.weights[0] = 9
    with pytest.raises(AttributeError):
        spec.weights = [9, 2, 3]
    assert validate_order(spec, 3, 2) == validate_order(weight_deg(1, 2, 3), 3, 2)
    with pytest.raises(ValueError, match=r"got \(2, 1\)$"):
        termorders.TermOrderSpec("weight_deg", [2, 1])


def test_parse_order_spec():
    assert parse_order_spec("deglex") is DEG_LEFT_LEX
    assert parse_order_spec("degrevlex") is DEG_RIGHT_LEX
    assert parse_order_spec("weight:1,2,3") == weight_deg(1, 2, 3)
    with pytest.raises(ParseError):
        parse_order_spec("lex")
    with pytest.raises(ParseError):
        parse_order_spec("weight:3,2,1")
    with pytest.raises(ParseError):
        parse_order_spec("weight:a,b")


def test_validate_deg_left_lex():
    report = validate_order(DEG_LEFT_LEX, 3, 3)
    assert report.is_total and report.one_minimal
    assert report.is_multiplicative and report.is_standard
    assert not report.is_sorted
    assert report.is_degree_compatible
    assert "sorted" in report.witnesses


def test_validate_deg_right_lex():
    report = validate_order(DEG_RIGHT_LEX, 3, 3)
    assert report.is_multiplicative and report.is_standard
    assert report.is_sorted and report.is_degree_compatible


def test_validate_weight_order():
    report = validate_order(weight_deg(1, 2, 3), 3, 3)
    assert report.is_total and report.one_minimal
    assert report.is_multiplicative and report.is_standard
    assert not report.is_sorted
    assert not report.is_degree_compatible


def test_report_lines():
    report = validate_order(DEG_LEFT_LEX, 3, 3)
    assert report.format_lines() == [
        "total-order: yes",
        "identity-minimal: yes",
        "multiplicative: yes",
        "standard: yes",
        "sorted: no",
        "degree-compatible: yes",
    ]


def test_equal_reports_hash_equal():
    # the witnesses dict takes part in equality but not in the hash
    report = validate_order(DEG_LEFT_LEX, 2, 2)
    assert report.witnesses == {"sorted": ((2, 1), (1, 2))}
    again = validate_order(DEG_LEFT_LEX, 2, 2)
    assert report == again and hash(report) == hash(again)
    assert len({report, again, validate_order(DEG_RIGHT_LEX, 2, 2)}) == 2


def test_containment_examples():
    ok, witness = contains_poset(DEG_LEFT_LEX, PosetHandle("nc", 2), 4)
    assert ok and witness is None
    ok, witness = contains_poset(DEG_RIGHT_LEX, PosetHandle("q", 2), 4)
    assert ok and witness is None
    ok, witness = contains_poset(DEG_LEFT_LEX, PosetHandle("q", 3), 3)
    assert not ok
    assert witness == ((2, 1), (1, 2))


def test_containment_argument_validation():
    with pytest.raises(ValueError):
        contains_poset(DEG_LEFT_LEX, PosetHandle("comm", 2), 3)
    with pytest.raises(ValueError):
        contains_poset(DEG_LEFT_LEX, PosetHandle("nc"), 3)


def test_every_builtin_contains_nc():
    for spec in (DEG_LEFT_LEX, DEG_RIGHT_LEX, weight_deg(1, 2, 3)):
        for n in (1, 2, 3):
            ok, _ = contains_poset(spec, PosetHandle("nc", n), 3)
            assert ok, (spec, n)


def test_well_order_sanity():
    # each degree-bounded slice has a unique minimum, and the global
    # minimum is the identity
    for spec in (DEG_LEFT_LEX, DEG_RIGHT_LEX, weight_deg(1, 2, 3)):
        words = words_up_to_degree(3, 3)
        assert min(words, key=lambda w: sort_key(spec, w)) == ()
        for d in range(4):
            slice_d = [w for w in words if len(w) == d]
            keys = sorted(sort_key(spec, w) for w in slice_d)
            assert len(set(keys)) == len(keys)  # total on the slice
        assert min(
            (w for w in words if w), key=lambda w: sort_key(spec, w)
        ) == (1,)


def test_certifiers_reject_bad_ranges():
    with pytest.raises(ValueError):
        validate_order(DEG_LEFT_LEX, 0, 2)
    with pytest.raises(ValueError):
        validate_order(DEG_LEFT_LEX, 2, -1)
    with pytest.raises(ValueError):
        validate_order(DEG_LEFT_LEX, 2, 2, cofactor_degree=-1)
    with pytest.raises(ValueError):
        contains_poset(DEG_LEFT_LEX, PosetHandle("q", 2), -1)


def test_words_up_to_degree_charges_the_cap_first():
    assert len(words_up_to_degree(2, 3, limit=15)) == 15
    with pytest.raises(LimitError):
        words_up_to_degree(2, 3, limit=14)
    with pytest.raises(LimitError):
        words_up_to_degree(10, 9)  # about 1.1e9 words: refused before building


def test_words_up_to_degree_charges_letters():
    # over x1 alone degree d holds d letters: 0 + 1 + ... + 40 = 820 = 20 * 41
    assert len(words_up_to_degree(1, 40, limit=41)) == 41
    with pytest.raises(LimitError, match="cap of 840 letters"):
        words_up_to_degree(1, 41, limit=42)
    # 100001 words are under the element cap, their 5e9 letters are not
    with pytest.raises(LimitError, match="cap of 20000000 letters"):
        words_up_to_degree(1, 100_000)


def test_validate_order_plans_before_building_any_word(monkeypatch):
    built = []
    real = termorders.words_up_to_degree

    def spy(n, max_degree, limit=None):
        built.append(max_degree)
        return real(n, max_degree, limit)

    monkeypatch.setattr(termorders, "words_up_to_degree", spy)
    # 524,287 words under the element cap, 25,690,063 planned key comparisons
    message = "25690063 key comparisons to validate deglex up to degree 18"
    with pytest.raises(LimitError, match=f"^{message} exceed the cap of 1000000$"):
        validate_order(DEG_LEFT_LEX, 2, 18)
    assert built == [2]  # the cofactors alone
    # the plan is charged against the cap that errors holds: 255 words and 7
    # cofactors plan (254 + 1) * 49 key comparisons
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", 10_000)
    message = "12495 key comparisons to validate deglex up to degree 7"
    with pytest.raises(LimitError, match=f"^{message} exceed the cap of 10000$"):
        validate_order(DEG_LEFT_LEX, 2, 7)
    assert built == [2, 2]
    assert validate_order(DEG_LEFT_LEX, 2, 6).axioms_ok  # 6223 planned


def test_validate_order_holds_the_cofactors_to_the_square_root_of_the_cap(monkeypatch):
    from ncposet import words

    built = []
    real = words.words_of_degree
    monkeypatch.setattr(words, "words_of_degree", lambda n, d: built.append(d) or real(n, d))
    # 501 cofactors over x1 alone hold 125,250 letters: over 20 per word of isqrt(10^6)
    message = "enumeration of words up to degree 500 over 1 letters"
    with pytest.raises(LimitError, match=f"^{message} exceeded the cap of 20000 letters$"):
        validate_order(DEG_LEFT_LEX, 1, 3, cofactor_degree=500)
    assert built == []
    # 1 + 32 + 32^2 = 1057 cofactors, over isqrt(10^6) = 1000
    message = "enumeration of words up to degree 2 over 32 letters exceeded the cap of 1000"
    with pytest.raises(LimitError, match=f"^{message}$"):
        validate_order(DEG_LEFT_LEX, 32, 0)
    assert built == []
    # 1 + 31 + 31^2 = 993 cofactors are admitted, and plan 31 * 30 / 2 * 993^2
    # key comparisons for sortedness
    with pytest.raises(LimitError, match="^458512785 key comparisons"):
        validate_order(DEG_LEFT_LEX, 31, 0)
    assert built == [0, 1, 2]


def test_containment_runs_no_search(monkeypatch):
    from ncposet import ncorder, posets

    def refuse(*_):
        raise AssertionError("_reachable called")

    kernels = []
    real = posets._KERNELS["q"]
    monkeypatch.setattr(ncorder, "_reachable", refuse)
    monkeypatch.setitem(posets._KERNELS, "q", lambda a, b: kernels.append(a) or real(a, b))
    assert not hasattr(termorders, "_reachable")
    assert contains_poset(DEG_RIGHT_LEX, PosetHandle("q", 3), 4) == (True, None)
    assert kernels == []
    # the failure names its inner word by the family's criterion, not by a search
    assert contains_poset(DEG_LEFT_LEX, PosetHandle("q", 3), 4)[0] is False
    assert kernels and set(kernels) == {(2, 1)}


def test_containment_searches_once_and_only_on_failure(monkeypatch):
    from ncposet import posets

    calls = []

    def spy(real):
        return lambda a, b: calls.append(a) or real(a, b)

    for family, real in list(posets._KERNELS.items()):
        monkeypatch.setitem(posets._KERNELS, family, spy(real))
    assert contains_poset(DEG_RIGHT_LEX, PosetHandle("q", 3), 4) == (True, None)
    assert contains_poset(DEG_LEFT_LEX, PosetHandle("p", 2), 4) == (True, None)
    assert calls == []
    assert contains_poset(DEG_LEFT_LEX, PosetHandle("q", 2), 7) == (False, ((2, 1), (1, 2)))
    assert calls and set(calls) == {(2, 1)}
    del calls[:]
    # x2 sits below x1*x1 in p, but weight 3 puts it above weight 2
    assert contains_poset(weight_deg(1, 3), PosetHandle("p", 2), 3) == (False, ((2,), (1, 1)))
    assert calls and set(calls) == {(2,)}


@pytest.mark.parametrize(
    "spec, family, n, max_degree, answer",
    [
        (DEG_RIGHT_LEX, "q", 3, 4, (True, None)),
        (DEG_LEFT_LEX, "q", 2, 5, (False, ((2, 1), (1, 2)))),
        (weight_deg(1, 3), "p", 2, 3, (False, ((2,), (1, 1)))),
    ],
)
def test_containment_reads_the_moves_once_per_word(
    monkeypatch, spec, family, n, max_degree, answer
):
    read = []
    real = termorders._moves
    monkeypatch.setattr(termorders, "_moves", lambda handle, w: read.append(w) or real(handle, w))
    assert contains_poset(spec, PosetHandle(family, n), max_degree) == answer
    assert sorted(read) == sorted(words_up_to_degree(n, max_degree))


def test_letter_without_weight_is_reported_once_per_range():
    spec = weight_deg(1, 2)
    message = "letter x3 has no weight; the spec covers letters up to x2"
    for d in (0, 2):
        with pytest.raises(ValueError, match=message):
            validate_order(spec, 4, d)
    # at degree 0 containment keys only the identity
    assert contains_poset(spec, PosetHandle("q", 4), 0) == (True, None)
    with pytest.raises(ValueError, match=message):
        contains_poset(spec, PosetHandle("q", 4), 1)
    with pytest.raises(ValueError, match="letter x5 has no weight"):
        sort_key(spec, (1, 5, 3))


def test_multiplicativity_scan_charges_the_budget(monkeypatch, inject_key):
    # a key that ties each degree sends validate_order to the all-pairs scan
    inject_key(len, add)
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", 10_000)
    # 127 words: 127 planned key comparisons, then 5334 pairs of different
    # degree, under the cap
    assert not validate_order(DEG_LEFT_LEX, 2, 6, cofactor_degree=0).is_total
    # 255 words: 255 planned and 21590 pairs; the running total passes the
    # cap at the 9746th pair
    message = "10001 key comparisons of the multiplicativity scan exceed the cap of 10000"
    with pytest.raises(LimitError, match=f"^{message}$"):
        validate_order(DEG_LEFT_LEX, 2, 7, cofactor_degree=0)


@pytest.mark.parametrize("n, max_degree", [(2, 4), (3, 3)])
def test_containment_classifies_like_the_axioms_and_flags(n, max_degree):
    # the paper's three claims on one range: the total extensions of nc are
    # the term orders, p classifies the degree-compatible ones and q the
    # sorted ones.  Every weight vector from 1..8 over n letters is checked;
    # a mismatch is a finding, not a reason to narrow the menu.
    specs = [DEG_LEFT_LEX, DEG_RIGHT_LEX, *(weight_deg(*w) for w in combinations(range(1, 9), n))]
    contained = {"nc": [], "p": [], "q": []}
    for spec in specs:
        report = validate_order(spec, n, max_degree)
        claims = {"nc": report.axioms_ok, "p": report.is_degree_compatible, "q": report.is_sorted}
        for family, claim in claims.items():
            ok, _ = contains_poset(spec, PosetHandle(family, n), max_degree)
            assert ok == claim, (spec.describe(), family)
            if ok:
                contained[family].append(spec)
    assert contained["nc"] == specs
    # both verdicts occur for p: w2 > 2*w1 puts x2 above x1*x1
    assert 0 < len(contained["p"]) < len(specs)
    # the weight orders break ties by deglex, so the positive q side has one spec
    assert contained["q"] == [DEG_RIGHT_LEX]
