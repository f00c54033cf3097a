"""Handles over the four order families, comparison, and Hasse graphs.

Families: "nc" (base word order), "q" (sorted variant), "p" (degree-first
variant), "comm" (commutative order on monomials).  A handle may carry an
alphabet bound n; without one the alphabet is countable and enumeration is
bounded by the rank cap instead.

Hasse graphs read each element's covers off its position in the rank
levels (`hasse`).  "q" is not graded, since sorting a descent keeps the
rank, and x1*x1 -> x2*x1 -> x1*x2 passes the raising x1*x1 -> x1*x2 by;
`words._word_edges` keeps only the moves that no such path passes, and
proves that rule.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain

from .commutative import _partition_levels, comm_leq
from .ncorder import nc_leq
from .variants import p_leq, q_leq
from .words import (_Record, _check_alphabet, _json_list, _word_edges, _word_levels, check_range,
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
        """``json.dumps(self.to_json_dict(), indent=2)``, written directly.

        json's indented encoder runs in pure Python, one generator step per
        token.  Here each piece of text is made once per graph: a vertex is
        its escaped label plus the tail of its (rank, multirank), formatted
        once per distinct pair, and an edge is the head of its lower end
        plus the end of its upper end.  Vertex ranks, multirank components
        and edge ends are ints, and multiranks tuples, as `hasse` builds
        them; ``n`` and ``max_rank`` are whatever the caller passed.  For
        another layout, dump `to_json_dict` with the indent wanted.
        """
        import json  # here, not at the top: a process that prints no JSON never imports it
        from json.encoder import encode_basestring_ascii

        tails: dict[tuple, str] = {}
        vertices = []
        for label, (_, r, mr) in zip(self.labels, self.vertices):
            tail = tails.get((r, mr))
            if tail is None:
                tail = tails[r, mr] = (
                    f',\n      "rank": {r},\n      "multirank": '
                    f'{_json_list([str(c) for c in mr], 6)}\n    }}'
                )
            vertices.append('{\n      "word": ' + encode_basestring_ascii(label) + tail)
        ids = [str(i) for i in range(len(self.vertices))]
        heads = ["[\n      " + i + ",\n      " for i in ids]
        ends = [i + "\n    ]" for i in ids]
        edges = [heads[a] + ends[b] for a, b in self.edges]
        return (
            f'{{\n  "poset": {encode_basestring_ascii(self.family)},\n'
            f'  "n": {json.dumps(self.n)},\n'
            f'  "max_rank": {json.dumps(self.max_rank)},\n'
            f'  "vertices": {_json_list(vertices, 2)},\n'
            f'  "edges": {_json_list(edges, 2)}\n}}'
        )

    def to_dot(self) -> str:
        by_rank: defaultdict[int, list[str]] = defaultdict(list)
        for i, (label, (_, r, _)) in enumerate(zip(self.labels, self.vertices)):
            by_rank[r].append(f'v{i} [label="{label}"];')
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=none];"]
        lines += [f"  {{ rank=same; {' '.join(by_rank[r])} }}" for r in sorted(by_rank)]
        heads = [f"  v{i} -> " for i in range(len(self.vertices))]
        ends = [f"v{i};" for i in range(len(self.vertices))]
        lines += [heads[a] + ends[b] for a, b in self.edges]
        lines.append("}")
        return "\n".join(lines)


def hasse(handle: PosetHandle, max_rank: int, limit: int | None = None) -> HasseGraph:
    """Build the Hasse graph of the handle's family up to a rank bound.

    The elements come one list per rank with their labels and multiranks:
    words from `_word_levels`, and monomials as partitions from
    `_partition_levels`, a partition being its monomial's multirank.  No
    "nc", "q" or "comm" move lowers the rank, so their range is a down-set
    and its covers are the order's; "p" takes its covers inside the range.
    Word covers follow from the positions in the level recursion
    (`_word_edges`) and partition covers come with the partitions.
    Once the caps pass, level data comes from the one bounded store (`words._keep`).
    """
    check_range(handle.n, max_rank, "max_rank")
    if handle.family == "comm":
        levels, label_levels, elements, covers = _partition_levels(max_rank, handle.n, limit)
        multiranks = levels
    else:
        levels, label_levels, multiranks = _word_levels(max_rank, handle.n, limit, True)
        elements = chain.from_iterable(levels)
    ranks = (r for r, level in enumerate(levels) for _ in level)
    triples = tuple(zip(elements, ranks, chain.from_iterable(multiranks)))
    # edge ends share one int object per vertex, not one per edge
    ids = list(range(len(triples)))
    edges = (_word_edges(handle.family, levels, handle.n, ids) if handle.family != "comm"
             else [(ids[i], ids[j]) for i, targets in enumerate(covers) for j in targets])
    labels = tuple(chain.from_iterable(label_levels))
    return HasseGraph(handle.family, handle.n, max_rank, triples, labels, tuple(edges))
