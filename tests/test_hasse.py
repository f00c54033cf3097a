import io
import json
import random
import sys
from contextlib import redirect_stdout
from json.encoder import encode_basestring_ascii
from types import ModuleType

import pytest

import ncposet
from ncposet import (
    FAMILIES,
    LimitError,
    PosetHandle,
    check_coconnection,
    comm_leq,
    covers_up,
    format_monomial,
    format_word,
    hasse,
    monomial_rank,
    monomials_up_to_rank,
    multirank,
    normalize_monomial,
    p_leq,
    rank,
    rank_coefficients,
    to_partition,
    words_up_to_degree,
    words_up_to_rank,
)
from ncposet import cli, commutative, errors, posets, termorders, words
from ncposet.commutative import _box_covers, _monomial_of
from ncposet.errors import TABLE_LIMIT
from ncposet.ncorder import _covers_up, _reachable, raisings
from ncposet.posets import HasseGraph, _json_list
from ncposet.variants import swap_successors
from ncposet.words import _multirank, check_word


def _reference_to_json(graph):
    """The f-string `HasseGraph.to_json`, one piece of text per vertex and per edge."""
    vertices = [
        f'{{\n      "word": {encode_basestring_ascii(label)},\n      "rank": {r},\n'
        f'      "multirank": {_json_list([str(c) for c in mr], 6)}\n    }}'
        for label, (_, r, mr) in zip(graph.labels, graph.vertices)
    ]
    edges = [f"[\n      {a},\n      {b}\n    ]" for a, b in graph.edges]
    return (
        f'{{\n  "poset": {encode_basestring_ascii(graph.family)},\n'
        f'  "n": {json.dumps(graph.n)},\n'
        f'  "max_rank": {json.dumps(graph.max_rank)},\n'
        f'  "vertices": {_json_list(vertices, 2)},\n'
        f'  "edges": {_json_list(edges, 2)}\n}}'
    )


def _reference_to_dot(graph):
    """The f-string `HasseGraph.to_dot`, one line per edge."""
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=none];"]
    by_rank: dict[int, list[int]] = {}
    for idx, (_, r, _) in enumerate(graph.vertices):
        by_rank.setdefault(r, []).append(idx)
    for r in sorted(by_rank):
        nodes = " ".join(
            f'v{idx} [label="{graph.labels[idx]}"];' for idx in by_rank[r]
        )
        lines.append(f"  {{ rank=same; {nodes} }}")
    for lo, hi in graph.edges:
        lines.append(f"  v{lo} -> v{hi};")
    lines.append("}")
    return "\n".join(lines)


def _transitive_reduction(count, raw_edges):
    """Unique transitive reduction of a DAG given by generating edges."""
    succ: list[set[int]] = [set() for _ in range(count)]
    indegree = [0] * count
    for a, b in raw_edges:
        if b not in succ[a]:
            succ[a].add(b)
            indegree[b] += 1
    order = []
    ready = [v for v in range(count) if indegree[v] == 0]
    while ready:
        v = ready.pop()
        order.append(v)
        for w in succ[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    if len(order) != count:
        raise ValueError("successor graph contains a cycle; not a partial order")
    # bit w of reach[v] is set iff w lies strictly above v.  A successor b of
    # a is a cover iff no successor of a reaches it (none reaches itself);
    # the others are in `beyond` already, so only the covers' bits are added.
    reach = [0] * count
    out = []
    for a in reversed(order):
        beyond = 0
        for c in succ[a]:
            beyond |= reach[c]
        covers = [b for b in succ[a] if not beyond >> b & 1]
        out.extend((a, b) for b in covers)
        reach[a] = beyond | sum(1 << b for b in covers)
    return tuple(sorted(out))


def _q_move_edges(words, n):
    """Index pairs of the raw "q" moves inside ``words``: nc covers and descent sorts."""
    index = {w: i for i, w in enumerate(words)}
    return [
        (i, j)
        for i, w in enumerate(words)
        for u in covers_up(w, n) | swap_successors(w)
        if (j := index.get(u)) is not None
    ]


def _set_reduction(count, raw_edges):
    """Reference transitive reduction: Kahn's order and one reachable set per vertex."""
    succ = [set() for _ in range(count)]
    indegree = [0] * count
    for a, b in raw_edges:
        if b not in succ[a]:
            succ[a].add(b)
            indegree[b] += 1
    order = []
    ready = [v for v in range(count) if indegree[v] == 0]
    while ready:
        v = ready.pop()
        order.append(v)
        for w in succ[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    assert len(order) == count
    reach = [set() for _ in range(count)]
    for v in reversed(order):
        for w in succ[v]:
            reach[v] |= {w} | reach[w]
    return tuple(
        sorted(
            (a, b)
            for a in range(count)
            for b in succ[a]
            if not any(b in reach[c] for c in succ[a] if c != b)
        )
    )


def _edge_labels(graph):
    return {(graph.labels[a], graph.labels[b]) for a, b in graph.edges}


def test_nc2_rank4_structure():
    graph = hasse(PosetHandle("nc", 2), 4)
    assert len(graph.vertices) == 12
    assert graph.level_sizes() == [1, 1, 2, 3, 5]
    assert len(graph.edges) == 18
    assert graph.labels == (
        "1",
        "x1",
        "x1*x1",
        "x2",
        "x1*x1*x1",
        "x1*x2",
        "x2*x1",
        "x1*x1*x1*x1",
        "x1*x1*x2",
        "x1*x2*x1",
        "x2*x1*x1",
        "x2*x2",
    )
    edges = _edge_labels(graph)
    assert ("1", "x1") in edges
    assert ("x1", "x1*x1") in edges and ("x1", "x2") in edges
    # the antichain of the two rank-2 elements: no edge between them
    assert ("x1*x1", "x2") not in edges and ("x2", "x1*x1") not in edges
    # x2 is covered by exactly x1*x2 and x2*x1 when n = 2
    assert {b for a, b in edges if a == "x2"} == {"x1*x2", "x2*x1"}


def test_nc_unbounded_rank3_structure():
    graph = hasse(PosetHandle("nc"), 3)
    assert graph.level_sizes() == [1, 1, 2, 4]
    top = {
        graph.labels[i]
        for i, (_, r, _) in enumerate(graph.vertices)
        if r == 3
    }
    assert top == {"x1*x1*x1", "x1*x2", "x2*x1", "x3"}
    assert len(graph.edges) == 9
    edges = _edge_labels(graph)
    assert {b for a, b in edges if a == "x2"} == {"x1*x2", "x2*x1", "x3"}
    assert {b for a, b in edges if a == "x1*x1"} == {"x1*x1*x1", "x1*x2", "x2*x1"}


def test_nc_edges_step_multirank_by_a_unit_vector():
    for handle, bound in ((PosetHandle("nc", 2), 4), (PosetHandle("nc"), 3)):
        graph = hasse(handle, bound)
        for a, b in graph.edges:
            low = graph.vertices[a][2]
            high = graph.vertices[b][2]
            width = max(len(low), len(high))
            diff = [
                (high[i] if i < len(high) else 0) - (low[i] if i < len(low) else 0)
                for i in range(width)
            ]
            assert sorted(diff) == [0] * (width - 1) + [1]


def test_q2_hasse_matches_the_rules():
    graph = hasse(PosetHandle("q", 2), 4)
    edges = _edge_labels(graph)
    # raising x1^2 lands on x2*x1, and only then sorts up to x1*x2
    assert {b for a, b in edges if a == "x1*x1"} == {"x1*x1*x1", "x2*x1"}
    assert {b for a, b in edges if a == "x2"} == {"x2*x1"}
    assert ("x2*x1", "x1*x2") in edges
    # the rank-4 fiber of x1^2*x2 is the chain x2x1x1 -> x1x2x1 -> x1x1x2
    assert ("x2*x1*x1", "x1*x2*x1") in edges
    assert ("x1*x2*x1", "x1*x1*x2") in edges
    assert ("x2*x1*x1", "x1*x1*x2") not in edges
    assert ("x1*x2", "x1*x1*x2") not in edges  # implied through x1*x2*x1


def test_comm2_hasse_structure():
    graph = hasse(PosetHandle("comm", 2), 4)
    assert graph.level_sizes() == [1, 1, 2, 2, 3]
    assert _edge_labels(graph) == {
        ("1", "x1"),
        ("x1", "x1^2"),
        ("x1", "x2"),
        ("x1^2", "x1^3"),
        ("x1^2", "x1*x2"),
        ("x2", "x1*x2"),
        ("x1^3", "x1^4"),
        ("x1^3", "x1^2*x2"),
        ("x1*x2", "x1^2*x2"),
        ("x1*x2", "x2^2"),
    }


def test_p2_hasse_is_an_ordinal_sum():
    graph = hasse(PosetHandle("p", 2), 3)
    assert _edge_labels(graph) == {
        ("1", "x1"),
        ("x1", "x2"),
        ("x2", "x1*x1"),
        ("x1*x1", "x1*x2"),
        ("x1*x1", "x2*x1"),
        ("x1*x2", "x1*x1*x1"),
        ("x2*x1", "x1*x1*x1"),
    }


@pytest.mark.parametrize("n", [1, 2, 3, None])
@pytest.mark.parametrize(
    "family, top_rank, family_leq",
    [("p", 7, lambda a, b, n: p_leq(a, b)), ("comm", 10, comm_leq)],
)
def test_closed_form_covers_match_reduction_of_all_pairs(n, family, top_rank, family_leq):
    # reference: transitive reduction of the full comparability digraph
    for max_rank in range(top_rank + 1):
        graph = hasse(PosetHandle(family, n), max_rank)
        elements = [element for element, _, _ in graph.vertices]
        comparable = [
            (i, j)
            for i, a in enumerate(elements)
            for j, b in enumerate(elements)
            if i != j and family_leq(a, b, n)
        ]
        assert graph.edges == _transitive_reduction(len(elements), comparable)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unwindowed_p_covers_generate_p_in_every_degree_window(n):
    # the moves that contains_poset walks add x1^(d+1) above xn^d only
    handle = PosetHandle("p", n)
    for max_degree in range(5):
        words = words_up_to_degree(n, max_degree)
        for w in words:
            reached = _reachable(
                w, lambda v: [u for u in termorders._moves(handle, v) if len(u) <= max_degree]
            )
            assert reached == {u for u in words if p_leq(w, u)}, (w, n, max_degree)


@pytest.mark.parametrize("n", [1, 2, 3, None])
def test_reduction_matches_set_reachability_on_q_moves(n):
    for max_rank in range(10):
        words = words_up_to_rank(max_rank, n)
        raw = _q_move_edges(words, n)
        assert _transitive_reduction(len(words), raw) == _set_reduction(len(words), raw)


@pytest.mark.parametrize("n, top_rank", [(1, 25), (2, 10), (3, 10), (4, 10), (None, 10)])
def test_q_covers_match_reduction_of_the_moves(n, top_rank):
    for max_rank in range(top_rank + 1):
        graph = hasse(PosetHandle("q", n), max_rank)
        words = [w for w, _, _ in graph.vertices]
        assert graph.edges == _transitive_reduction(len(words), _q_move_edges(words, n))


def test_q_covers_match_reduction_above_the_old_table_cap():
    # 32768 words, beyond the 23000 that the reduction once allowed
    graph = hasse(PosetHandle("q"), 15)
    words = [w for w, _, _ in graph.vertices]
    assert len(words) == 32768
    assert len(graph.edges) == 145181
    assert graph.edges == _transitive_reduction(len(words), _q_move_edges(words, None))


def test_reduction_rejects_a_cycle():
    with pytest.raises(ValueError, match="cycle"):
        _transitive_reduction(3, [(0, 1), (1, 2), (2, 1)])


def test_level_sizes_match_the_series():
    for n, bound in ((2, 6), (3, 5), (None, 5)):
        graph = hasse(PosetHandle("nc", n), bound)
        table = rank_coefficients(bound, n)
        assert graph.level_sizes() == list(table.coefficients)


def test_json_document_shape():
    graph = hasse(PosetHandle("nc", 2), 3)
    payload = json.loads(graph.to_json())
    assert payload["poset"] == "nc"
    assert payload["n"] == 2
    assert payload["max_rank"] == 3
    assert [v["word"] for v in payload["vertices"]] == list(graph.labels)
    assert payload["vertices"][0] == {"word": "1", "rank": 0, "multirank": []}
    assert all(
        isinstance(e, list) and len(e) == 2 for e in payload["edges"]
    )
    for lo, hi in payload["edges"]:
        assert payload["vertices"][lo]["rank"] + 1 == payload["vertices"][hi]["rank"]


def test_dot_document_shape():
    graph = hasse(PosetHandle("nc", 2), 2)
    dot = graph.to_dot()
    assert dot.startswith("digraph hasse {")
    assert dot.count("rank=same") == 3  # one subgraph per rank level
    assert dot.count("->") == len(graph.edges)
    assert 'v0 [label="1"];' in dot


def test_deterministic_output():
    a = hasse(PosetHandle("q", 2), 4)
    b = hasse(PosetHandle("q", 2), 4)
    assert a.to_json() == b.to_json()
    assert a.to_dot() == b.to_dot()


def test_vertex_cap():
    with pytest.raises(LimitError):
        hasse(PosetHandle("nc", 2), 10, limit=20)


def test_q_honours_the_callers_limit():
    # 32 words of rank <= 5 over the unbounded alphabet
    assert len(hasse(PosetHandle("q"), 5, limit=32).vertices) == 32
    with pytest.raises(LimitError, match="exceeded the cap of 31$"):
        hasse(PosetHandle("q"), 5, limit=31)


def _count_calls(monkeypatch, fn):
    """Replace ``fn`` in every ncposet module that binds it; return the call log."""
    calls = []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    modules = [ncposet, *(m for m in vars(ncposet).values() if isinstance(m, ModuleType))]
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_hasse_validates_no_vertex(monkeypatch):
    checks = _count_calls(monkeypatch, check_word)
    labels = _count_calls(monkeypatch, format_word)
    multiranks = _count_calls(monkeypatch, _multirank)
    graph = hasse(PosetHandle("nc"), 10)
    assert len(graph.vertices) == 1024
    assert checks == labels == multiranks == []
    # the public forms still validate
    assert covers_up((1,)) == {(1, 1), (2,)}
    assert checks == [((1,), None)]


def test_hasse_comm_normalizes_no_monomial(monkeypatch):
    calls = _count_calls(monkeypatch, normalize_monomial)
    graph = hasse(PosetHandle("comm"), 12)
    assert len(graph.vertices) == 272
    assert calls == []
    # the public forms still validate
    assert format_monomial({2: 1, 1: 0}) == "x2"
    assert calls == [({2: 1, 1: 0},)]


def _kept_levels():
    """The store's level entries, key -> (size, levels): those under a kind of level."""
    return {key: entry for key, entry in words._STORE.items() if type(key[0]) is str}


def _snapshot():
    """The kept levels' keys, sizes and levels, copied so that a later change to them shows."""
    return {key: (size, list(levels)) for key, (size, levels) in _kept_levels().items()}


def _held():
    """The elements the kept levels hold, each key's levels counted by their first column."""
    return sum(len(level[0]) for _, levels in _kept_levels().values() for level in levels)


def test_hasse_comm_formats_each_vertex_once(monkeypatch):
    calls = _count_calls(monkeypatch, _monomial_of)
    graph = hasse(PosetHandle("comm"), 16)
    assert len(calls) == len(graph.vertices) == 915
    # the store keeps the labels: drawing the graph again formats none
    calls.clear()
    assert hasse(PosetHandle("comm"), 16) == graph
    hasse(PosetHandle("comm"), 9)
    assert calls == []


def _window_upper_covers(handle, key, max_rank):
    """Covers of rank <= max_rank of an element in the range, as index keys: words, or
    partitions for "comm".  Every "nc", "q" and "comm" cover adds one to the rank, but a
    "q" descent sort; "p" covers are taken inside the range (`_window_p_covers`)."""
    if handle.family == "p":
        return _window_p_covers(key, handle.n, max_rank)
    if sum(key) >= max_rank:
        return swap_successors(key) if handle.family == "q" else ()
    return _covers(handle, key)


def _window_p_covers(w, n, max_rank):
    """Upper covers of ``w`` in "p" inside the window W of rank <= max_rank.

    W is not a down-set (x3 < x1*x1), so covers are taken inside W.  If
    v in W has degree d and lies above w, it dominates w letterwise, so
    some raising u of w has u <= v, letters <= n and rank rank(w) + 1 <=
    rank(v): u is in W.  Hence the covers of equal degree are the raisings
    in W.  x1^(d+1) is the only other candidate, and a cover exactly when
    it lies in W and no raising does.
    """
    if sum(w) < max_rank:
        ups = [u for _, u in raisings(w, n)]
        if ups:
            return ups
    return [(1,) * (len(w) + 1)] if len(w) < max_rank else []


def _q_covers(w, n):
    """Upper covers of a word in "q", spelled out with no library code: the descent sorts,
    w*x1, and each raising of a letter c whose left neighbour is neither c nor c + 1.
    `words._word_covers` draws them by position and proves the rule."""
    sorts = {w[:k] + (w[k + 1], w[k]) + w[k + 2 :] for k in range(len(w) - 1) if w[k] > w[k + 1]}
    raised = {
        w[:j] + (c + 1,) + w[j + 1 :]
        for j, c in enumerate(w)
        if (n is None or c < n) and not (j and w[j - 1] in (c, c + 1))
    }
    return sorts | raised | {w + (1,)}


def _covers(handle, key):
    """Upper covers of an index key with no rank window; in "p" the raisings, or x1^(d+1)
    for w = xn^d: the covers inside every degree window."""
    if handle.family == "p":
        return [u for _, u in raisings(key, handle.n)] or [(1,) * (len(key) + 1)]
    return {"nc": _covers_up, "q": _q_covers, "comm": _box_covers}[handle.family](key, handle.n)


def _lookup_edges(handle, max_rank):
    """The reference edges: an index over the range and `_window_upper_covers` of each element.

    Each source's targets ascending.  `hasse` draws them from the positions
    in the level recursion instead, and hashes no element.
    """
    if handle.family == "comm":
        keys = [to_partition(t) for t in monomials_up_to_rank(max_rank, handle.n)]
    else:
        keys = words_up_to_rank(max_rank, handle.n)
    index = {key: i for i, key in enumerate(keys)}
    return tuple(
        (i, j)
        for i, key in enumerate(keys)
        for j in sorted(map(index.__getitem__, _window_upper_covers(handle, key, max_rank)))
    )


@pytest.mark.parametrize("n", [None, 1, 2, 3, 4, 10, 11])
@pytest.mark.parametrize("family, top_rank", [("nc", 12), ("q", 12), ("p", 10), ("comm", 18)])
def test_level_edges_match_the_cover_lookup(family, top_rank, n):
    # n = 10 and 11 put x10 (and x11) between x1 and x2 in each rank's block order, so
    # the raise x9 -> x10 lands before block 9, and a "q" sort of the first two letters
    # passes the words that start with x10 and x11; up to rank 12 "p" meets that raise
    # at several ranks too
    if family == "nc" and n is None:
        top_rank = 14
    if family == "p" and n in (10, 11):
        top_rank = 12
    handle = PosetHandle(family, n)
    for max_rank in range(top_rank + 1):
        assert hasse(handle, max_rank).edges == _lookup_edges(handle, max_rank), max_rank


def _coconnection_tables(monkeypatch, n, max_rank):
    """The (edges, order) of each reachability table `check_coconnection(n, max_rank)` builds."""
    down_sets = commutative._down_sets
    tables = []

    def recording(edges, order):
        tables.append((edges, list(order)))
        return down_sets(edges, tables[-1][1])

    monkeypatch.setattr(commutative, "_down_sets", recording)
    assert check_coconnection(n, max_rank).ok
    return tables


def _cover_table(keys, covers):
    """Per key, the positions of its covers among ``keys``, ascending."""
    position = {key: i for i, key in enumerate(keys)}
    return [sorted(position[u] for u in covers(key) if u in position) for key in keys]


def _lists_lower_ends_first(edges, order):
    place = {i: k for k, i in enumerate(order)}
    return sorted(order) == list(range(len(edges))) and all(
        place[i] < place[j] for i, out in enumerate(edges) for j in out
    )


@pytest.mark.parametrize("n", [1, 2, 3, None])
def test_coconnection_comm_moves_are_the_box_covers(monkeypatch, n):
    for max_rank in range(9):
        _, (c_table, order) = _coconnection_tables(monkeypatch, n, max_rank)
        # the table lists the monomials by canonical position
        keys = [to_partition(t) for t in monomials_up_to_rank(max_rank, n)]
        expected = _cover_table(keys, lambda p: _box_covers(p, n))
        assert [sorted(out) for out in c_table] == expected, max_rank
        assert _lists_lower_ends_first(c_table, order), max_rank


@pytest.mark.parametrize("n, top_rank", [(1, 10), (2, 9), (3, 8), (11, 12), (None, 9)])
def test_coconnection_q_moves_are_the_q_covers(monkeypatch, n, top_rank):
    # n = 11 reaches rank 12, where x2*x10 follows its lower end x10*x2 in canonical order
    # although x1*x2 precedes x2*x1
    for max_rank in range(top_rank + 1):
        (q_table, order), _ = _coconnection_tables(monkeypatch, n, max_rank)
        keys = words_up_to_rank(max_rank, n)
        handle = PosetHandle("q", n)
        expected = _cover_table(keys, lambda w: _window_upper_covers(handle, w, max_rank))
        assert [sorted(out) for out in q_table] == expected, max_rank
        assert _lists_lower_ends_first(q_table, order), max_rank


def test_hasse_nc_builds_no_cover_word(monkeypatch):
    covers = [
        _count_calls(monkeypatch, fn)
        for fn in (_covers_up, termorders._moves, swap_successors, raisings)
    ]
    for family, max_rank, vertices in (("nc", 12, 4096), ("q", 10, 1024), ("p", 9, 512)):
        assert len(hasse(PosetHandle(family), max_rank).vertices) == vertices
    # a cover lookup per word calls _covers_up, or swap_successors and raisings for "q"
    # (the rule of the tests' _q_covers), or raisings for "p"
    assert covers == [[]] * 4


def test_coconnection_builds_no_cover_word(monkeypatch):
    covers = [_count_calls(monkeypatch, fn) for fn in (_covers_up, swap_successors, raisings)]
    for n, max_rank in ((None, 10), (3, 8)):
        assert check_coconnection(n, max_rank).ok
    # a "q" cover lookup per word made thousands of these calls
    assert covers == [[]] * 3


def test_hasse_comm_computes_each_cover_once(monkeypatch):
    boxes = _count_calls(monkeypatch, _box_covers)
    exponents = _count_calls(monkeypatch, _monomial_of)
    lookups = _count_calls(monkeypatch, termorders._moves)
    graph = hasse(PosetHandle("comm"), 16)
    # one _box_covers per partition below rank 16 (915 - 231), one _monomial_of
    # per partition; the cover lookup called each twice as often
    assert (len(boxes), len(exponents), len(graph.vertices)) == (684, 915, 915)
    assert lookups == []
    # the store keeps the covers and the exponents: drawing again computes none
    boxes.clear()
    exponents.clear()
    assert hasse(PosetHandle("comm"), 16) == graph
    hasse(PosetHandle("comm"), 11)
    assert boxes == exponents == lookups == []


def _profile_events(module, call):
    """How many profile events ``call()`` raises in frames of ``module``'s own code."""
    events = [0]

    def count(frame, event, arg):
        if frame.f_code.co_filename == module.__file__:
            events[0] += 1

    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return events[0]


def test_partition_levels_grow_linearly_in_the_ranks(empty_store):
    # over one letter each rank holds one partition; numbering each rank by summing the
    # lengths of all ranks below it made these builds quadratic in their ranks
    work = []
    for max_rank in (400, 800):
        empty_store()
        work.append(_profile_events(commutative, lambda: monomials_up_to_rank(max_rank, 1)))
    assert work[1] <= 2.2 * work[0], work


@pytest.mark.parametrize("n", [1, 2, 3, 4, 11, None])
def test_word_vertex_data_matches_the_public_statistics(n):
    # n = 11 puts x10 and x11 between x1 and x2 in canonical order
    graph = hasse(PosetHandle("nc", n), 12)
    words = [w for w, _, _ in graph.vertices]
    assert words == words_up_to_rank(12, n)
    assert list(graph.labels) == [format_word(w) for w in words]
    assert [(r, mr) for _, r, mr in graph.vertices] == [(rank(w), multirank(w)) for w in words]


@pytest.mark.parametrize("n", [1, 2, 3, None])
def test_monomial_vertex_data_matches_the_public_statistics(n):
    graph = hasse(PosetHandle("comm", n), 12)
    monomials = [t for t, _, _ in graph.vertices]
    assert monomials == monomials_up_to_rank(12, n)
    assert list(graph.labels) == [format_monomial(t) for t in monomials]
    assert [(r, p) for _, r, p in graph.vertices] == [
        (monomial_rank(t), to_partition(t)) for t in monomials
    ]


def _window_covers(handle, max_rank):
    """(element, index key, covers inside the range) for each element of the range.

    "nc", "q" and "comm" ranges are down-sets, so their covers there are
    the unwindowed covers that stay inside; "p" takes the transitive
    reduction of all comparable pairs in the range.
    """
    if handle.family == "comm":
        elements = monomials_up_to_rank(max_rank, handle.n)
        keys = [to_partition(t) for t in elements]
    else:
        elements = keys = words_up_to_rank(max_rank, handle.n)
    inside = set(keys)
    if handle.family != "p":
        return [
            (e, key, {u for u in _covers(handle, key) if u in inside})
            for e, key in zip(elements, keys)
        ]
    comparable = [
        (i, j)
        for i, a in enumerate(keys)
        for j, b in enumerate(keys)
        if i != j and p_leq(a, b)
    ]
    covers = [set() for _ in keys]
    for i, j in _transitive_reduction(len(keys), comparable):
        covers[i].add(keys[j])
    return list(zip(elements, keys, covers))


@pytest.mark.parametrize("n", [1, 2, 3, None])
@pytest.mark.parametrize("family", ["nc", "q", "p", "comm"])
def test_windowed_covers_are_the_covers_inside_the_range(family, n):
    handle = PosetHandle(family, n)
    for max_rank in range(9):
        window = _window_covers(handle, max_rank)
        inside = {key for _, key, _ in window}
        for element, key, expected in window:
            ups = {u for u in _window_upper_covers(handle, key, max_rank) if u in inside}
            assert ups == expected, (element, max_rank)


@pytest.mark.parametrize("n", [1, 2, 3, None])
@pytest.mark.parametrize("family", ["nc", "q", "p", "comm"])
def test_windowed_covers_stay_inside_the_range(family, n):
    handle = PosetHandle(family, n)
    for max_rank in range(9):
        for element, key, expected in _window_covers(handle, max_rank):
            assert set(_window_upper_covers(handle, key, max_rank)) == expected, (element, max_rank)


@pytest.mark.parametrize("n", [None, 3, True])
def test_to_json_escapes_like_json_dumps(n):
    graph = HasseGraph(
        family="q\"",
        n=n,
        max_rank=2,
        vertices=(((), 0, ()), ((1,), 1, (1,)), ((2,), 2, (1, 1))),
        labels=('say "1"', "back\\slash\nnew line", "\u00e9t\u00e9 \u2202"),
        edges=(),
    )
    assert graph.to_json() == json.dumps(graph.to_json_dict(), indent=2)
    assert '"edges": []' in graph.to_json()


def test_comm_graph_partitions_as_multirank():
    graph = hasse(PosetHandle("comm", 2), 4)
    for element, r, partition in graph.vertices:
        assert sum(partition) == r
        assert all(a >= b for a, b in zip(partition, partition[1:]))
        assert len(partition) <= 2


# the cells of the golden table in tests/test_golden.py
_GOLDEN_CELLS = [
    (family, n, max_rank)
    for family in ("nc", "q", "p", "comm")
    for n in (1, 2, 3, 4, None)
    for max_rank in (0, 1, 2, 5, 8)
]


@pytest.mark.parametrize("family, n, max_rank", _GOLDEN_CELLS)
def test_serialisers_match_the_f_string_references(family, n, max_rank):
    graph = hasse(PosetHandle(family, n), max_rank)
    assert graph.to_json() == _reference_to_json(graph)
    assert graph.to_dot() == _reference_to_dot(graph)


@pytest.mark.parametrize("n", [None, 3, True])
def test_serialisers_match_the_references_on_a_hand_built_graph(n):
    # ranks out of order, a multirank shared by two ranks, repeated
    # (rank, multirank) pairs, edges in no particular order, and labels with
    # a quote, a backslash, a newline and non-ASCII text
    graph = HasseGraph(
        family="q\"",
        n=n,
        max_rank=3,
        vertices=(
            ((), 0, ()),
            ((2,), 2, (1, 1)),
            ((1,), 1, (1,)),
            ((1, 1), 2, (1,)),
            ((3,), 2, (1, 1)),
        ),
        labels=('say "1"', "back\\slash\nnew line", "\u00e9t\u00e9 \u2202", "x1*x1", "\u00fc"),
        edges=((0, 2), (2, 4), (2, 1), (2, 3), (3, 1)),
    )
    assert graph.to_json() == _reference_to_json(graph)
    assert graph.to_json() == json.dumps(graph.to_json_dict(), indent=2)
    assert graph.to_dot() == _reference_to_dot(graph)


def _drawn(family, n, max_rank):
    """What a graph shows: its JSON, its DOT and its vertices."""
    graph = hasse(PosetHandle(family, n), max_rank)
    return graph.to_json(), graph.to_dot(), repr(graph.vertices)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 11, None])
def test_a_warm_store_draws_what_an_empty_one_draws(empty_store, n):
    # n = 11 puts x10 and x11 between x1 and x2 from rank 10 on
    ranks = list(range(12))
    cold = {}
    for family in FAMILIES:
        for r in ranks:
            empty_store()
            cold[family, r] = _drawn(family, n, r)
    shuffled = random.Random(str(n)).sample(ranks, len(ranks))
    for order in (ranks, ranks[::-1], shuffled):
        empty_store()
        for r in order:
            # the word families share their levels: draw them in turn on one store
            for family in FAMILIES:
                assert _drawn(family, n, r) == cold[family, r], (order, family, r)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_warm_store_refuses_what_a_cold_one_refuses(monkeypatch, family):
    handle = PosetHandle(family, 2)
    default = errors.DEFAULT_LIMIT

    def refusal(limit=None, default_limit=default):
        monkeypatch.setattr(errors, "DEFAULT_LIMIT", default_limit)
        with pytest.raises(LimitError) as info:
            hasse(handle, 8, limit)
        monkeypatch.setattr(errors, "DEFAULT_LIMIT", default)
        return str(info.value)

    # rank <= 8 holds 88 words over two letters, and 25 monomials
    cold = refusal(limit=20), refusal(default_limit=20)
    assert words._STORE == {}
    hasse(handle, 12)
    kept = _snapshot()
    # the caps are checked before the store is read
    levels = _count_calls(monkeypatch, words._levels)
    assert (refusal(limit=20), refusal(default_limit=20)) == cold
    assert levels == []
    assert _snapshot() == kept


def test_the_store_keeps_at_most_table_limit_elements():
    for family in FAMILIES:
        for n in (1, 2, 3, None):
            hasse(PosetHandle(family, n), 10)
    assert 0 < _held() <= TABLE_LIMIT
    # the 1024 words of rank <= 10 over the unbounded alphabet grow to 16384
    before = _held()
    hasse(PosetHandle("nc"), 14)
    assert _held() == before - 1024 + 16384
    # 11504 more would pass the limit: the least recently used levels go first, down to
    # the 16384 words drawn last
    hasse(PosetHandle("nc", 4), 14)
    assert _held() == len(words_up_to_rank(14, 4)) == 11504
    # 23249 words alone pass the limit: the graph is drawn, and the store is left as it was
    before = _snapshot()
    graph = hasse(PosetHandle("q", 3), 16)
    assert len(graph.vertices) == 23249 > TABLE_LIMIT
    assert [w for w, _, _ in graph.vertices] == words_up_to_rank(16, 3)
    assert _snapshot() == before
    # 601 words of 180300 letters count as 9015 elements, as in the caps: kept, and counted so
    hasse(PosetHandle("nc", 1), 600)
    assert {key: size for key, (size, _) in _kept_levels().items()} == {
        ("words", 4): 11504, ("words", 1): 9015
    }
    # 1001 words of 500500 letters count as 25025: drawn on the kept ranks, and not kept
    before = _snapshot()
    graph = hasse(PosetHandle("nc", 1), 1000)
    assert graph.labels[-1] == "*".join(["x1"] * 1000)
    assert _snapshot() == before


def test_the_store_reads_its_caps_at_call_time(monkeypatch):
    # 32 words of rank <= 5 over the unbounded alphabet
    monkeypatch.setattr(errors, "TABLE_LIMIT", 31)
    hasse(PosetHandle("nc"), 5)
    assert words._STORE == {}
    monkeypatch.setattr(errors, "TABLE_LIMIT", 32)
    hasse(PosetHandle("nc"), 5)
    assert {key: size for key, (size, _) in _kept_levels().items()} == {("words", None): 32}
    # 601 words of 180300 letters count as 180300 // 10 elements under 10 letters per word
    monkeypatch.setattr(errors, "TABLE_LIMIT", TABLE_LIMIT)
    monkeypatch.setattr(errors, "LETTERS_PER_WORD", 10)
    hasse(PosetHandle("nc", 1), 600)
    assert words._STORE[("words", 1)][0] == 18030


def test_mutating_a_graph_changes_no_later_graph():
    first = hasse(PosetHandle("comm", 3), 6)
    expected = repr(first.vertices), first.to_json()
    for t, _, _ in first.vertices:
        t[1] = t.get(1, 0) + 5
    second = hasse(PosetHandle("comm", 3), 6)
    assert (repr(second.vertices), second.to_json()) == expected
    assert [t for t, _, _ in second.vertices] == monomials_up_to_rank(6, 3)
    # monomials_up_to_rank reads the same store, and hands out its own dicts too
    for t in monomials_up_to_rank(6, 3):
        t.clear()
    assert hasse(PosetHandle("comm", 3), 6).to_json() == expected[1]
    # the store itself holds nothing mutable: tuples, strings and ints alone
    hasse(PosetHandle("nc", 3), 8)
    assert all(_frozen(level) for _, levels in _kept_levels().values() for level in levels)


def _frozen(value):
    """True iff ``value`` is built of tuples, strings and ints alone."""
    return type(value) in (str, int) or type(value) is tuple and all(map(_frozen, value))


def _printed(*argv):
    """``ncposet`` run on ``argv``: its exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("family", FAMILIES)
def test_the_command_line_builds_no_graph(monkeypatch, family):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a HasseGraph was built")

    monkeypatch.setattr(HasseGraph, "__init__", refuse)
    for form in ("json", "dot"):
        code, out = _printed("hasse", "--poset", family, "--max-rank", "7", "--format", form)
        assert code == 0 and out.endswith("}\n")
    with pytest.raises(AssertionError, match="a HasseGraph was built"):
        hasse(PosetHandle(family), 7)


def test_the_comm_text_makes_no_exponent_dict(monkeypatch):
    # each monomial of a call is a dict made from the items the store keeps; count those
    made = []

    def counting(*args):
        made.append(args)
        return dict(*args)

    monkeypatch.setattr(commutative, "dict", counting, raising=False)
    for n_args in ((), ("-n", "2")):
        for form in ("json", "dot"):
            assert _printed("hasse", "--poset", "comm", *n_args, "--max-rank", "8",
                            "--format", form)[0] == 0
    assert made == []
    graph = hasse(PosetHandle("comm"), 8)  # the record reads each one
    assert len(made) == len(graph.vertices) > 0


def test_each_dict_reader_gets_its_own_monomials(monkeypatch):
    expected = [dict(t) for t in monomials_up_to_rank(6, 3)]
    real, handed = commutative._partition_levels, []

    def spying(*args):
        levels, labels, monomials, covers = real(*args)
        handed.append([*monomials])
        return levels, labels, iter(handed[-1]), covers

    monkeypatch.setattr(commutative, "_partition_levels", spying)
    monkeypatch.setattr(posets, "_partition_levels", spying)
    readers = [
        lambda: monomials_up_to_rank(6, 3),
        lambda: [t for t, _, _ in hasse(PosetHandle("comm", 3), 6).vertices],
        lambda: check_coconnection(3, 6).ok and handed[-1],
        lambda: monomials_up_to_rank(6, 3),
    ]
    for read in readers:
        assert read() == expected
        for t in handed[-1]:  # what this call was handed, changed before the next call
            t[9] = t.pop(1, 0) + 7
    assert len(handed) == len(readers)
