"""Handles over the four order families, comparison, and Hasse graphs.

Families: "nc" (base word order), "q" (sorted variant), "p" (degree-first
variant), "comm" (commutative order on monomials).  A handle may carry an
alphabet bound n; without one the alphabet is countable and enumeration is
bounded by the rank cap instead.

Hasse graphs use closed-form covers for "nc", "p" and "comm".  Only "q"
takes a transitive reduction of its move graph: sorting a descent keeps the
rank, so "q" is not graded and x1*x1 -> x2*x1 -> x1*x2 bypasses the raising
x1*x1 -> x1*x2.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .commutative import (
    comm_leq,
    comm_successors,
    freeze_monomial,
    monomial_rank,
    monomials_up_to_rank,
    to_partition,
)
from .errors import DEFAULT_LIMIT, TABLE_LIMIT
from .ncorder import covers_up, nc_leq, raisings
from .variants import p_leq, q_leq, q_successors
from .words import (
    Word,
    check_word,
    format_monomial,
    format_word,
    multirank,
    normalize_monomial,
    rank,
    words_up_to_rank,
)

FAMILIES = ("nc", "q", "p", "comm")

LT = "LT"
GT = "GT"
EQ = "EQ"
INCOMPARABLE = "INCOMPARABLE"

__all__ = [
    "FAMILIES",
    "LT",
    "GT",
    "EQ",
    "INCOMPARABLE",
    "PosetHandle",
    "leq",
    "compare",
    "HasseGraph",
    "hasse",
]


@dataclass(frozen=True)
class PosetHandle:
    """One of the four order families, optionally over a bounded alphabet."""

    family: str
    n: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown poset family {self.family!r}; expected one of {FAMILIES}")
        if self.n is not None and self.n < 1:
            raise ValueError(f"alphabet bound must be >= 1, got {self.n}")


def _check_element(handle: PosetHandle, value):
    if handle.family == "comm":
        if not isinstance(value, Mapping):
            raise TypeError(
                f"the comm family compares monomials (mappings), got {type(value).__name__}"
            )
        return normalize_monomial(value, handle.n)
    if isinstance(value, Mapping):
        raise TypeError(
            f"the {handle.family} family compares words (letter tuples), got a mapping"
        )
    return check_word(value, handle.n)


def leq(handle: PosetHandle, a, b) -> bool:
    """Directed comparability in the handle's family."""
    a = _check_element(handle, a)
    b = _check_element(handle, b)
    if handle.family == "nc":
        return nc_leq(a, b, handle.n)
    if handle.family == "q":
        return q_leq(a, b, handle.n)
    if handle.family == "p":
        return p_leq(a, b)
    return comm_leq(a, b, handle.n)


def compare(handle: PosetHandle, a, b) -> str:
    """LT, GT, EQ, or INCOMPARABLE; EQ exactly on structural equality."""
    a = _check_element(handle, a)
    b = _check_element(handle, b)
    if a == b:
        return EQ
    if leq(handle, a, b):
        return LT
    if leq(handle, b, a):
        return GT
    return INCOMPARABLE


@dataclass(frozen=True)
class HasseGraph:
    """Cover graph of one family restricted to the elements of rank <= bound.

    Vertices are (element, rank, multirank) triples in canonical order
    (rank ascending, then canonical text ascending); edges are (lower,
    upper) index pairs and every edge is a cover.
    """

    family: str
    n: int | None
    max_rank: int
    vertices: tuple
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def level_sizes(self) -> list[int]:
        counts = [0] * (self.max_rank + 1)
        for _, r, _ in self.vertices:
            counts[r] += 1
        return counts

    def to_json_dict(self) -> dict:
        return {
            "poset": self.family,
            "n": self.n,
            "max_rank": self.max_rank,
            "vertices": [
                {"word": label, "rank": r, "multirank": list(mr)}
                for label, (_, r, mr) in zip(self.labels, self.vertices)
            ],
            "edges": [list(edge) for edge in self.edges],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2)``, written directly.

        json's indented encoder runs in pure Python, one generator step per
        token, so each vertex and each edge is formatted here in one piece.
        Vertex ranks, multirank components and edge ends are ints, as
        `hasse` builds them; ``n`` and ``max_rank`` are whatever the caller
        passed.  For another layout, dump `to_json_dict` with the indent
        wanted.
        """
        vertices = [
            f'{{\n      "word": {encode_basestring_ascii(label)},\n      "rank": {r},\n'
            f'      "multirank": {_json_list([str(c) for c in mr], 6)}\n    }}'
            for label, (_, r, mr) in zip(self.labels, self.vertices)
        ]
        edges = [f"[\n      {a},\n      {b}\n    ]" for a, b in self.edges]
        return (
            f'{{\n  "poset": {encode_basestring_ascii(self.family)},\n'
            f'  "n": {json.dumps(self.n)},\n'
            f'  "max_rank": {json.dumps(self.max_rank)},\n'
            f'  "vertices": {_json_list(vertices, 2)},\n'
            f'  "edges": {_json_list(edges, 2)}\n}}'
        )

    def to_dot(self) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=none];"]
        by_rank: dict[int, list[int]] = {}
        for idx, (_, r, _) in enumerate(self.vertices):
            by_rank.setdefault(r, []).append(idx)
        for r in sorted(by_rank):
            nodes = " ".join(
                f'v{idx} [label="{self.labels[idx]}"];' for idx in by_rank[r]
            )
            lines.append(f"  {{ rank=same; {nodes} }}")
        for lo, hi in self.edges:
            lines.append(f"  v{lo} -> v{hi};")
        lines.append("}")
        return "\n".join(lines)


def _json_list(items: list[str], depth: int) -> str:
    """A list opened at ``depth`` spaces, as ``json.dumps(indent=2)`` lays it out.

    Each item is already laid out for depth + 2, its first line unindented.
    """
    if not items:
        return "[]"
    inner = " " * (depth + 2)
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{' ' * depth}]"


def hasse(handle: PosetHandle, max_rank: int, limit: int | None = None) -> HasseGraph:
    """Build the Hasse graph of the handle's family up to a rank bound.

    "nc" and "comm" are graded by rank with a down-set window, so their
    one-move successors are the covers; "p" uses `_p_covers_up`; "q" reduces
    its one-move successor graph, since swaps keep the rank.  The reduction
    holds a reachability table of up to N^2 bits, so "q" enumerates at most
    `TABLE_LIMIT` words whatever the limit.
    """
    if max_rank < 0:
        raise ValueError("max_rank must be >= 0")
    if handle.family == "q":
        limit = min(DEFAULT_LIMIT if limit is None else limit, TABLE_LIMIT)
    if handle.family == "comm":
        elements = monomials_up_to_rank(max_rank, handle.n, limit)
        labels = tuple(format_monomial(t) for t in elements)
        triples = tuple((t, monomial_rank(t), to_partition(t)) for t in elements)
        keys = [freeze_monomial(t) for t in elements]
    else:
        elements = words_up_to_rank(max_rank, handle.n, limit)
        labels = tuple(format_word(w) for w in elements)
        triples = tuple((w, rank(w), multirank(w)) for w in elements)
        keys = elements
    index = {key: i for i, key in enumerate(keys)}
    edges = [
        (i, j)
        for i, element in enumerate(elements)
        for up in _upper_neighbours(handle, element, max_rank)
        if (j := index.get(up)) is not None
    ]
    if handle.family == "q":
        edges = _transitive_reduction(len(elements), edges)
    else:
        edges = tuple(sorted(edges))
    return HasseGraph(handle.family, handle.n, max_rank, triples, labels, edges)


def _upper_neighbours(handle: PosetHandle, element, max_rank: int) -> Iterable:
    """Index keys (words, or frozen monomials) one move above ``element``."""
    if handle.family == "nc":
        return covers_up(element, handle.n)
    if handle.family == "q":
        return q_successors(element, handle.n)
    if handle.family == "p":
        return _p_covers_up(element, handle.n, max_rank)
    return map(freeze_monomial, comm_successors(element, handle.n))


def _p_covers_up(w: Word, n: int | None, max_rank: int) -> list[Word]:
    """Upper covers of ``w`` in "p" restricted to the window W of rank <= max_rank.

    W is not a down-set (x3 < x1*x1), so covers are taken inside W.  If
    v in W has degree d = len(w) and lies above w, it dominates w
    letterwise, so some raising u of w has u <= v, letters <= n and rank
    rank(w) + 1 <= rank(v): u is in W.  Hence the covers of equal degree
    are the raisings in W.  x1^(d+1) lies below every word of higher
    degree, so it is the only other candidate, and a cover exactly when no
    raising is in W (the caller drops it when it falls outside W).
    """
    if rank(w) < max_rank:
        ups = [u for _, u in raisings(w, n)]
        if ups:
            return ups
    return [(1,) * (len(w) + 1)]


def _transitive_reduction(
    count: int, raw_edges: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
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
