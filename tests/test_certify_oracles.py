"""The move-level certifiers against the all-pairs scans they replace.

`validate_order`, `contains_poset` and `check_coconnection` decide their
verdicts on generating moves and adjacent pairs.  The scans below are the
direct definitions: every pair of the range, in canonical order.  They call
the library through module attributes, so a monkeypatched key or map
reaches both sides.  Reports, verdicts, witnesses and counts must agree.
`contains_poset` is also held to a search over the covers from each word
(`test_hasse._covers`, which spells out the "q" rule), which reaches larger
ranges than the scan.
"""

from functools import partial

import pytest

from ncposet import commutative, termorders
from ncposet import words as word_module
from ncposet.commutative import CoconnectionReport, LawCheck, check_coconnection
from ncposet.ncorder import _reachable
from ncposet.posets import EQ, GT, LT, PosetHandle, leq
from ncposet.termorders import (
    OrderValidationReport,
    contains_poset,
    parse_order_spec,
    validate_order,
)
from ncposet.variants import q_leq
from ncposet.words import canonical_key, format_monomial, format_word, words_up_to_degree
from test_hasse import _covers

SPECS = ("deglex", "degrevlex", "weight:1,2,3", "weight:1,3,4", "weight:2,3,5")


def validate_order_scan(spec, n, max_degree, cofactor_degree=2):
    compare = termorders.order_compare
    words = words_up_to_degree(n, max_degree)
    witnesses = {}
    is_total = one_minimal = is_degree_compatible = True
    for a in words:
        if compare(spec, a, a) != EQ:
            is_total = False
            witnesses.setdefault("total", (a, a))
        for b in words:
            fwd = compare(spec, a, b)
            back = compare(spec, b, a)
            if a == b:
                continue
            if fwd == EQ or {fwd, back} != {LT, GT}:
                is_total = False
                witnesses.setdefault("total", (a, b))
            if len(a) < len(b) and fwd != LT:
                is_degree_compatible = False
                witnesses.setdefault("degree-compatible", (a, b))
        if a and compare(spec, (), a) != LT:
            one_minimal = False
            witnesses.setdefault("identity-minimal", a)
    bad = [((i,), (i + 1,)) for i in range(1, n) if compare(spec, (i,), (i + 1,)) != LT]
    if bad:
        witnesses["standard"] = bad[0]
    cofactors = words_up_to_degree(n, cofactor_degree)
    factor = next(
        (
            (s, t, a, b)
            for s in words
            for t in words
            if s != t and compare(spec, s, t) == LT
            for a in cofactors
            for b in cofactors
            if compare(spec, a + s + b, a + t + b) != LT
        ),
        None,
    )
    if factor:
        witnesses["multiplicative"] = factor
    is_sorted = True
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for t in cofactors:
                for s in cofactors:
                    low, high = t + (j, i) + s, t + (i, j) + s
                    if compare(spec, high, low) != GT:
                        is_sorted = False
                        witnesses.setdefault("sorted", (low, high))
    return OrderValidationReport(
        spec, n, max_degree, is_total, one_minimal, factor is None,
        not bad, is_sorted, is_degree_compatible, witnesses,
    )


def contains_poset_scan(spec, handle, max_degree):
    words = sorted(words_up_to_degree(handle.n, max_degree), key=canonical_key)
    for a in words:
        for b in words:
            if a != b and leq(handle, a, b):
                if termorders.order_compare(spec, a, b) != LT:
                    return False, (a, b)
    return True, None


def contains_poset_search(spec, handle, max_degree):
    # from each word in canonical order, search its up-set in the range for
    # a word the order does not put above it
    def up(w):
        return [u for u in _covers(handle, w) if len(u) <= max_degree]

    for a in sorted(words_up_to_degree(handle.n, max_degree), key=canonical_key):
        key = termorders.sort_key(spec, a)
        late = [b for b in _reachable(a, up) if b != a and not key < termorders.sort_key(spec, b)]
        if late:
            return False, (a, min(late, key=canonical_key))
    return True, None


def check_coconnection_scan(n, max_rank):
    abelianize, sort_word = word_module.abelianize, word_module.sort_word
    comm_leq = commutative.comm_leq
    words = word_module.words_up_to_rank(max_rank, n)
    monomials = commutative.monomials_up_to_rank(max_rank, n)
    sigma = [
        (m, m2) for m in words for m2 in words if m != m2 and q_leq(m, m2, n)
    ]
    sigma_witness = next(
        (f"{format_word(m)} <= {format_word(m2)}" for m, m2 in sigma
         if not comm_leq(abelianize(m), abelianize(m2))),
        None,
    )
    plus = [
        (t, t2) for t in monomials for t2 in monomials if t != t2 and comm_leq(t, t2)
    ]
    plus_witness = next(
        (f"{format_monomial(t)} <= {format_monomial(t2)}" for t, t2 in plus
         if not q_leq(sort_word(t), sort_word(t2), n)),
        None,
    )
    ascend = next(
        (format_word(m) for m in words if not q_leq(m, sort_word(abelianize(m)), n)),
        None,
    )
    roundtrip = next(
        (format_monomial(t) for t in monomials if abelianize(sort_word(t)) != t), None
    )
    laws = (
        LawCheck("abelianize-monotone", len(sigma), sigma_witness),
        LawCheck("sort-monotone", len(plus), plus_witness),
        LawCheck("word-roundtrip-ascends", len(words), ascend),
        LawCheck("monomial-roundtrip-identity", len(monomials), roundtrip),
    )
    return CoconnectionReport(n, max_rank, laws)


@pytest.mark.parametrize("text", (*SPECS, "weight:1,2,3,4"))
def test_validate_order_matches_scan(text):
    spec = parse_order_spec(text)
    # degree 4 over two letters is the benchmark's heaviest range; cofactor degree 3
    # over three letters is left out at degree 3 alone, where the scan takes 5-11 s
    for n in (1, 2, 3):
        for d in range(5 if n <= 2 else 4):
            for c in range(4 if (n, d) != (3, 3) else 3):
                fast = validate_order(spec, n, d, c)
                assert fast == validate_order_scan(spec, n, d, c), (n, d, c)


@pytest.mark.parametrize("family", ("nc", "q", "p"))
def test_contains_poset_matches_scan(family):
    for text in SPECS:
        spec = parse_order_spec(text)
        for n in (1, 2, 3):
            handle = PosetHandle(family, n)
            for d in range(4):
                fast = contains_poset(spec, handle, d)
                assert fast == contains_poset_scan(spec, handle, d), (text, n, d)


@pytest.mark.parametrize("family", ("nc", "q", "p"))
def test_contains_poset_matches_search(family):
    # two weight orders over four letters, since SPECS weighs only x1..x3
    for text in (*SPECS, "weight:1,2,3,4", "weight:2,3,5,7"):
        spec = parse_order_spec(text)
        for n, top in ((1, 9), (2, 7), (3, 4), (4, 3)):
            if spec.kind == "weight_deg" and n > len(spec.weights):
                continue
            handle = PosetHandle(family, n)
            for d in range(top + 1):
                fast = contains_poset(spec, handle, d)
                assert fast == contains_poset_search(spec, handle, d), (text, n, d)


@pytest.mark.parametrize("n", (1, 2, 3, None))
def test_coconnection_matches_scan(n):
    for r in range(7):
        assert check_coconnection(n, r) == check_coconnection_scan(n, r), r


def _spelled_out_key(spec, w):
    # each order's key written out letter by letter, sharing no code with the library
    if spec.kind == "weight_deg":
        return (sum(spec.weights[i - 1] for i in w), len(w), w)
    return (len(w), w if spec.kind == "deg_left_lex" else w[::-1])


@pytest.mark.parametrize("text", SPECS)
def test_key_function_matches_sort_key(text):
    # the certifiers' unchecked keys against the public, checked one
    spec = parse_order_spec(text)
    for n in (1, 2, 3):
        key, _ = termorders._key_function(spec, n)
        for w in words_up_to_degree(n, 4):
            assert key(w) == termorders.sort_key(spec, w) == _spelled_out_key(spec, w), (n, w)


@pytest.mark.parametrize("text", (*SPECS, "weight:1,2,3,4"))
def test_join_keys_each_product_as_sort_key_does(text):
    # the certifiers key each product a*w*b by joining its factors' keys
    spec = parse_order_spec(text)
    for n in (1, 2, 3):
        key, join = termorders._key_function(spec, n)
        small = words_up_to_degree(n, 3)
        for u in small:
            for v in small:
                joined = join(key(u), key(v))
                assert joined == key(u + v) == termorders.sort_key(spec, u + v), (n, u, v)
                assert joined == _spelled_out_key(spec, u + v), (n, u, v)


def test_key_function_reports_a_missing_weight_as_sort_key_does():
    spec = parse_order_spec("weight:1,2")
    with pytest.raises(ValueError) as fast:
        termorders._key_function(spec, 3)
    with pytest.raises(ValueError) as checked:
        termorders.sort_key(spec, (1, 3))
    assert str(fast.value) == str(checked.value)
    assert str(fast.value) == "letter x3 has no weight; the spec covers letters up to x2"


@pytest.mark.parametrize("n", (1, 2, 3, None))
def test_unchecked_maps_match_the_public_ones(n):
    for w in word_module.words_up_to_rank(8, n):
        assert commutative._abelianize(w) == word_module.abelianize(w), w
        assert word_module._canonical_key(w) == word_module.canonical_key(w), w
        # sorted_form sorts the letters directly, without either map
        assert commutative._sort_word(commutative._abelianize(w)) == word_module.sorted_form(w)
    for t in commutative.monomials_up_to_rank(8, n):
        assert commutative._sort_word(t) == word_module.sort_word(t), t


def _odd_ones_key(spec, m):
    # total and degree-first, but a left x1 flips the parity: not multiplicative
    w = tuple(m)
    return (len(w), w.count(1) % 2, w)


def _degree_only_key(spec, m):
    # ties every pair of equal degree: not total
    return (len(tuple(m)),)


def _tail_first_key(spec, m):
    # total, but not degree-first and not multiplicative
    w = tuple(m)
    return (w[1:], len(w), w)


# each key's join, as `termorders._key_function` pairs them: the parities add mod 2,
# the degrees add, and the tail-first key is taken again of the concatenated words
_JOINS = {
    _odd_ones_key: lambda p, q: (p[0] + q[0], (p[1] + q[1]) % 2, p[2] + q[2]),
    _degree_only_key: lambda p, q: (p[0] + q[0],),
    _tail_first_key: lambda p, q: _tail_first_key(None, p[2] + q[2]),
}


@pytest.mark.parametrize(
    "key, multiplicative",
    ((_odd_ones_key, False), (_degree_only_key, True), (_tail_first_key, False)),
)
def test_fallback_reports_match_scan(monkeypatch, inject_key, key, multiplicative):
    # the scans read the public sort_key, the certifiers the per-spec key function
    monkeypatch.setattr(termorders, "sort_key", key)
    spec = parse_order_spec("deglex")
    inject_key(partial(key, spec), _JOINS[key])
    for n in (1, 2, 3):
        for d in range(4):
            report = validate_order(spec, n, d)
            assert report == validate_order_scan(spec, n, d), (n, d)
        for family in ("nc", "q", "p"):
            handle = PosetHandle(family, n)
            fast = contains_poset(spec, handle, 3)
            assert fast == contains_poset_scan(spec, handle, 3)
            assert fast == contains_poset_search(spec, handle, 3)
    assert validate_order(spec, 2, 2).is_multiplicative == multiplicative


def test_coconnection_fallbacks_match_scan(monkeypatch):
    abelianize, sort_word = word_module.abelianize, word_module.sort_word
    # forget degree-2 words, and send monomials of rank 3 to the identity; the
    # certifier reads the unchecked maps, the scan the public ones
    for module, prefix in ((commutative, "_"), (word_module, "")):
        monkeypatch.setattr(
            module, prefix + "abelianize", lambda m: {} if len(m) == 2 else abelianize(m)
        )
        monkeypatch.setattr(
            module,
            prefix + "sort_word",
            lambda t: () if sum(i * e for i, e in t.items()) == 3 else sort_word(t),
        )
    for n in (1, 2, 3, None):
        for r in range(6):
            report = check_coconnection(n, r)
            assert report == check_coconnection_scan(n, r), (n, r)
    assert check_coconnection(2, 4).violations == 4
