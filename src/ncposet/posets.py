"""Handles over the four order families, comparison, and Hasse graphs.

Families: "nc" (base word order), "q" (sorted variant), "p" (degree-first
variant), "comm" (commutative order on monomials).  A handle may carry an
alphabet bound n; without one the alphabet is countable and enumeration is
bounded by the rank cap instead.

Hasse graphs read each element's covers off its position in the rank levels
(`_hasse_levels`), into the `HasseGraph` record (`hasse`) or, with no record,
straight into its text (`_hasse_text`, for the command line).  "q" is not
graded, since sorting a descent keeps the rank, and x1*x1 -> x2*x1 -> x1*x2
passes the raising x1*x1 -> x1*x2 by; `words._word_covers` keeps only the
moves that no such path passes, and proves that rule.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, count, repeat
from operator import itemgetter

from .commutative import _comm_leq, _partition_levels
from .ncorder import _nc_leq
from .variants import _p_leq, _q_leq
from .words import (_Record, _check_alphabet, _json_list, _word_covers, _word_levels, check_range,
                    check_word, normalize_monomial)

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


class PosetHandle(_Record):
    """One of the four order families, optionally over a bounded alphabet."""

    family: str
    n: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown poset family {self.family!r}; expected one of {FAMILIES}")
        _check_alphabet(self.n)


def _check_element(handle: PosetHandle, value):
    return (normalize_monomial if handle.family == "comm" else check_word)(value, handle.n)


# each family's comparison of checked elements; the bound n only validates, so none takes it
_KERNELS = {"nc": _nc_leq, "q": _q_leq, "p": _p_leq, "comm": _comm_leq}


def leq(handle: PosetHandle, a, b) -> bool:
    """Directed comparability in the handle's family: check ``a``, then ``b``, then compare."""
    return _KERNELS[handle.family](_check_element(handle, a), _check_element(handle, b))


def compare(handle: PosetHandle, a, b) -> str:
    """LT, GT, EQ, or INCOMPARABLE; EQ exactly on structural equality.

    ``a`` and then ``b`` are checked once, as `leq` checks them; the family's kernel
    then runs on the checked elements, at most once each way.
    """
    a, b = _check_element(handle, a), _check_element(handle, b)
    if a == b:
        return EQ
    kernel = _KERNELS[handle.family]
    if kernel(a, b):
        return LT
    return GT if kernel(b, a) else INCOMPARABLE


class HasseGraph(_Record):
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
        """``json.dumps(self.to_json_dict(), indent=2)``, written by `_json_text`.  For another
        layout, dump `to_json_dict` with the indent wanted."""
        ranks, multiranks = map(itemgetter(1), self.vertices), map(itemgetter(2), self.vertices)
        return _json_text(self.family, self.n, self.max_rank, self.labels, ranks, multiranks,
                          self.edges, len(self.vertices))

    def to_dot(self) -> str:
        ranks = map(itemgetter(1), self.vertices)
        return _dot_text(self.labels, ranks, self.edges, len(self.vertices))


def _json_text(family, n, max_rank, labels, ranks, multiranks, edges, size: int) -> str:
    """``json.dumps(HasseGraph.to_json_dict(), indent=2)`` without json's pure-Python indented
    encoder, from the labels, ranks and multiranks of the ``size`` vertices and the (lower,
    upper) ``edges``, each read once, so any may be lazy.  A vertex is its escaped label plus
    the tail of its (rank, multirank), made once per distinct pair; an edge is the head of its
    lower end plus the end of its upper end.  Ranks, multirank components and edge ends are
    ints, and multiranks tuples, as `hasse` builds them; ``n`` and ``max_rank`` are as passed."""
    import json  # here, not at the top: a process that prints no JSON never imports it
    from json.encoder import encode_basestring_ascii

    tails, vertices = {}, []
    for label, r, mr in zip(labels, ranks, multiranks):
        tail = tails.get((r, mr))
        if tail is None:
            tail = tails[r, mr] = (f',\n      "rank": {r},\n      "multirank": '
                                   f'{_json_list([str(c) for c in mr], 6)}\n    }}')
        vertices.append('{\n      "word": ' + encode_basestring_ascii(label) + tail)
    heads = [f"[\n      {i},\n      " for i in range(size)]
    ends = [f"{i}\n    ]" for i in range(size)]
    return (f'{{\n  "poset": {encode_basestring_ascii(family)},\n  "n": {json.dumps(n)},\n'
            f'  "max_rank": {json.dumps(max_rank)},\n  "vertices": {_json_list(vertices, 2)},\n'
            f'  "edges": {_json_list([heads[a] + ends[b] for a, b in edges], 2)}\n}}')


def _dot_text(labels, ranks, edges, size: int) -> str:
    """The graph in DOT, from `_json_text`'s arguments less those it does not print."""
    by_rank = defaultdict(list)
    for i, label, r in zip(count(), labels, ranks):
        by_rank[r].append(f'v{i} [label="{label}"];')
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=none];"]
    lines += [f"  {{ rank=same; {' '.join(by_rank[r])} }}" for r in sorted(by_rank)]
    heads = [f"  v{i} -> " for i in range(size)]
    ends = [f"v{i};" for i in range(size)]
    lines += [heads[a] + ends[b] for a, b in edges]
    lines.append("}")
    return "\n".join(lines)


def _runs(rows):
    """Each row's index, once per item in it: a level's rank, or a cover row's lower end."""
    return chain.from_iterable(map(repeat, count(), map(len, rows)))


def _hasse_levels(handle: PosetHandle, max_rank: int, limit: int | None) -> tuple:
    """`hasse`'s checks, then its labels, ranks, multiranks, elements, edges and vertex count."""
    check_range(handle.n, max_rank, "max_rank")
    if handle.family == "comm":
        levels, labels, elements, covers = _partition_levels(max_rank, handle.n, limit)
        multiranks = levels
    else:
        levels, labels, multiranks = _word_levels(max_rank, handle.n, limit, True)
        elements = chain.from_iterable(levels)
        covers = _word_covers(handle.family, levels, handle.n)
    return (chain.from_iterable(labels), _runs(levels), chain.from_iterable(multiranks), elements,
            zip(_runs(covers), chain.from_iterable(covers)), sum(map(len, levels)))


def hasse(handle: PosetHandle, max_rank: int, limit: int | None = None) -> HasseGraph:
    """Build the Hasse graph of the handle's family up to a rank bound, from `_hasse_levels`.

    The vertices are words (`_word_levels`) or monomials, whose partitions (`_partition_levels`)
    are their multiranks, in canonical order.  No "nc", "q" or "comm" move lowers the rank, so
    their range is a down-set and its covers are the order's; "p" takes its covers inside the
    range.  Once the caps pass, level data comes from the one bounded store (`words._keep`).
    """
    labels, ranks, multiranks, elements, edges, size = _hasse_levels(handle, max_rank, limit)
    ids = list(range(size))  # edge ends share one int object per vertex, not one per edge
    return HasseGraph(handle.family, handle.n, max_rank, tuple(zip(elements, ranks, multiranks)),
                      tuple(labels), tuple([(ids[i], ids[j]) for i, j in edges]))


def _hasse_text(handle: PosetHandle, max_rank: int, limit: int | None, form: str) -> str:
    """`hasse`'s "json" or "dot" text, written as `_hasse_levels` is read: CPython reuses the
    edges' `zip` pair as the writer unpacks it, so no triple, edge tuple or dict is kept."""
    labels, ranks, multiranks, _, edges, size = _hasse_levels(handle, max_rank, limit)
    if form == "dot":
        return _dot_text(labels, ranks, edges, size)
    return _json_text(handle.family, handle.n, max_rank, labels, ranks, multiranks, edges, size)
