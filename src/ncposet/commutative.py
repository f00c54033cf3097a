"""The commutative order on monomials and its partition picture.

Monomials are ordered by the smallest multiplicative order in which
multiplying by x1 and trading an x_i for an x_{i+1} both move upward.
Reading off suffix sums of the exponent vector identifies this order with
containment of integer partitions (Young's lattice); a monomial over n
letters lands on a partition with at most n parts.  Inside the library a
monomial is its partition, which is at once its index key and its
multirank: both moves add one box (`_box_covers`), and the monomials of
each rank come as partitions in canonical order (`_partition_levels`).

The pair (abelianize, sort_word) relates the sorted-order variant on words
to this order: `check_coconnection` verifies the four coconnection laws on
a rank-bounded range.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import chain

from . import errors
from .errors import _cap, _check_enumeration
from .ncorder import _reachable, dominated
from .words import (
    CommMonomial,
    _Record,
    _abelianize,
    _check_alphabet,
    _format_monomial,
    _json_list,
    _levels,
    _remembered,
    _sort_word,
    _suffix_sums,
    _word_edges,
    _word_levels,
    check_range,
    format_monomial,
    format_word,
    normalize_monomial,
)

Partition = tuple[int, ...]

__all__ = [
    "Partition",
    "to_partition",
    "from_partition",
    "comm_leq",
    "comm_leq_oracle",
    "monomial_product",
    "monomial_rank",
    "monomials_up_to_rank",
    "monomial_canonical_key",
    "LawCheck",
    "CoconnectionReport",
    "check_coconnection",
]


def to_partition(t: Mapping[int, int]) -> Partition:
    """Suffix sums of the exponent vector: part j counts letters >= j.

    Weakly decreasing, with as many parts as the highest letter; the part
    sum equals the monomial rank.
    """
    return _suffix_sums(normalize_monomial(t))


def from_partition(p: Sequence[int]) -> CommMonomial:
    """Inverse of `to_partition`: exponent i is part i minus part i+1."""
    parts = tuple(p)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
    if parts and parts[-1] < 1:
        raise ValueError(f"parts must be positive, got {parts}")
    return _exponents(parts)


def _exponents(p: Partition) -> CommMonomial:
    """`from_partition` of a partition, without validating it."""
    return {i: a - b for i, (a, b) in enumerate(zip(p, p[1:] + (0,)), start=1) if a > b}


def monomial_rank(t: Mapping[int, int]) -> int:
    """Sum of letter index times exponent; matches the partition size."""
    return sum(i * e for i, e in normalize_monomial(t).items())


def monomial_product(t: Mapping[int, int], t2: Mapping[int, int]) -> CommMonomial:
    out = normalize_monomial(t)
    for i, e in normalize_monomial(t2).items():
        out[i] = out.get(i, 0) + e
    return out


def monomial_canonical_key(t: Mapping[int, int]) -> tuple[int, str]:
    return (monomial_rank(t), format_monomial(t))


def comm_leq(
    t: Mapping[int, int], t2: Mapping[int, int], n: int | None = None
) -> bool:
    """Containment of the corresponding partitions, componentwise."""
    t = normalize_monomial(t, n)
    t2 = normalize_monomial(t2, n)
    return dominated(_suffix_sums(t), _suffix_sums(t2))


def comm_leq_oracle(t: Mapping[int, int], t2: Mapping[int, int]) -> bool:
    """Rule-based comparability: multiply by x1 or trade an x_i for x_{i+1}.

    A search over `_box_covers`, pruned by containment in the target
    partition; every move adds one box, so the search space is finite.
    """
    target = to_partition(t2)
    return target in _reachable(
        to_partition(t), lambda p: [u for u in _box_covers(p) if dominated(u, target)]
    )


def _box_covers(p: Partition, n: int | None = None) -> list[Partition]:
    """The partitions one box above ``p`` with at most n rows: its covers.

    A box fits in the first row, and in row i+1 when row i is longer.  On
    monomials the first row is "multiply by x1" and row i+1 is "trade x_i
    for x_{i+1}": this is the one generator of both moves.
    """
    rows = len(p) + 1 if n is None else min(len(p) + 1, n)
    padded = p + (0,)
    return [
        p[:i] + (padded[i] + 1,) + p[i + 1 :]
        for i in range(rows)
        if i == 0 or p[i - 1] > padded[i]
    ]


def monomials_up_to_rank(
    max_rank: int, n: int | None = None, limit: int | None = None
) -> list[CommMonomial]:
    """All monomials of rank <= max_rank over x1..xn, in canonical order.

    They are counted against the element cap before any is built; beyond
    it `LimitError` is raised.  None for a negative bound; `ValueError` for
    an alphabet bound below 1.
    """
    return _partition_levels(max_rank, n, limit)[2]


def _partition_levels(max_rank: int, n: int | None, limit: int | None) -> tuple:
    """Partitions of rank <= max_rank with at most n rows, their labels, monomials and covers.

    Partitions and labels come one row per rank, in the canonical text
    order of the monomials, the labels; monomials (exponent dicts) and covers
    come in one list in that order.  A partition's covers are the ascending
    indices of its `_box_covers`, none at the top rank: rank r + 1 holds those
    of rank r.  `_levels` keeps the ranks per n in the one store, for every caller.
    """
    _check_alphabet(n)
    _cap(limit)
    if max_rank < 0:
        return [], [], [], []
    top = max_rank if n is None else min(n, max_rank)
    # row[k] counts the partitions of r with at most k <= min(top, r) rows:
    # those with exactly k rows lose their first column to one of r - k with
    # at most k rows.  counts keeps the rows of the last top ranks, r - k at -k.
    counts: list[list[int]] = []
    starts = [0]  # starts[r]: the partitions of rank < r, the first index of rank r
    for r in range(max_rank + 1):
        row = [int(r == 0)]
        for k in range(1, min(top, r) + 1):
            row.append(row[-1] + counts[-k][min(k, r - k)])
        counts.append(row)
        if len(counts) > top:
            del counts[0]
        starts.append(starts[-1] + row[-1])
        # each rank left holds at least x1^r, so refuse as soon as the cap must fall
        _check_enumeration(f"monomials up to rank {max_rank}", starts[-1] + max_rank - r, limit)

    def extend(levels: list) -> tuple:
        box = [_box_covers(p, n) for p in levels[-1][0]] if levels else []
        level = list({u for ups in box for u in ups}) if levels else [()]
        dicts = list(map(_exponents, level))
        labels, partitions, dicts = zip(*sorted(zip(map(_format_monomial, dicts), level, dicts)))
        index = {p: i for i, p in enumerate(partitions, starts[len(levels)])}
        covers = tuple(tuple(sorted(map(index.__getitem__, ups))) for ups in box)
        return partitions, labels, dicts, covers

    # the store keeps each exponent dict as its items, and each call gets new dicts
    levels, labels, exponents, covers = zip(*_levels(
        max_rank, extend, ("partitions", n), starts[-1],
        lambda level: (*level[:2], tuple(tuple(t.items()) for t in level[2]), level[3]),
        lambda level: (*level[:2], [dict(items) for items in level[2]], level[3])))
    monomials = [*chain.from_iterable(exponents)]
    return levels, labels, monomials, [*chain.from_iterable(covers), *[()] * len(levels[-1])]


class LawCheck(_Record):
    """Outcome of one coconnection law: how many instances, first violation.

    For the two monotonicity laws ``checked`` counts the comparable pairs of
    distinct elements in the range, as an all-pairs scan would; the count
    is read off the reachability tables, while the law itself is checked on
    the cover edges.  For the two roundtrip laws it counts the elements.
    """

    law: str
    checked: int
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.witness is None


class CoconnectionReport(_Record):
    n: int | None
    max_rank: int
    laws: tuple[LawCheck, ...]

    @property
    def ok(self) -> bool:
        return all(law.ok for law in self.laws)

    @property
    def violations(self) -> int:
        return sum(0 if law.ok else 1 for law in self.laws)

    def format_lines(self) -> list[str]:
        lines = []
        for law in self.laws:
            status = "ok" if law.ok else f"VIOLATED ({law.witness})"
            lines.append(f"{law.law}: {status} (checked {law.checked})")
        lines.append(f"result: {self.violations} violated laws")
        return lines

    def to_json(self) -> str:
        """The report's fields as ``json.dumps(..., indent=2)`` lays them out, written
        directly as `HasseGraph.to_json` is; law counts are ints, as the certifier makes
        them, and ``n`` and ``max_rank`` whatever the caller passed."""
        import json  # here, not at the top: a process that prints no JSON never imports it
        from json.encoder import encode_basestring_ascii as text

        laws = [
            f'{{\n      "law": {text(law.law)},\n'
            f'      "status": "{"ok" if law.ok else "violated"}",\n'
            f'      "checked": {law.checked},\n'
            f'      "witness": {"null" if law.witness is None else text(law.witness)}\n    }}'
            for law in self.laws
        ]
        return (f'{{\n  "n": {json.dumps(self.n)},\n  "max_rank": {json.dumps(self.max_rank)},\n'
                f'  "laws": {_json_list(laws, 2)}\n}}')


def _down_sets(edges: list[list[int]], order: Iterable[int]) -> list[int]:
    """Per element, an int with bit i set iff element i reaches it in zero or more moves.

    ``edges[i]`` lists the positions one move above element i, and ``order``
    lists every position after all those one move below it.  No move lowers
    the rank and the positions come rank by rank, so no bit of an element's
    int lies past the last position of its rank.
    """
    down = [0] * len(edges)
    for i in order:
        down[i] |= 1 << i
        for j in edges[i]:
            down[j] |= down[i]
    return down


def check_coconnection(n: int | None, max_rank: int) -> CoconnectionReport:
    """Verify the coconnection laws between sorted-order words and monomials.

    Over all words and monomials of rank <= max_rank: abelianize and sort_word are
    order-preserving, sorting a word moves it (weakly) up, and abelianize undoes
    sort_word exactly.  Violations are reported, not raised.

    Both orders are generated by their covers, which never lower the rank, so the
    range holds every chain between its elements.  The word covers come from the
    level recursion (`_word_edges`), the monomial covers from `_partition_levels`,
    both as canonical positions, and reachability tables over them (`_down_sets`)
    give the comparable pairs.  Canonical order lists every monomial cover after
    its lower end.  A descent sort keeps the rank and makes the word
    lexicographically smaller, so the words are taken by rank, then
    lexicographically descending; within a rank canonical order is the text order
    of the letters, which puts x1*x2 before its lower end x2*x1 but x2*x10 after
    x10*x2.  The monotonicity laws are checked on the covers alone, which suffices
    by transitivity, and only a failure scans the comparable pairs in canonical
    order for the first witness.  Each word is abelianized once, giving its
    partition and, sorted, the word the ascend law checks; each monomial is sorted
    once, both unchecked (`_abelianize`, `_sort_word`).  More than `TABLE_LIMIT`
    words raise `LimitError`.

    The arguments are checked on every call; the report is then kept in the store
    with the levels (`_remembered`), and a repeated call under the same caps gets
    it back from there, until it is evicted, without building a table again.
    """
    check_range(n, max_rank, "max_rank")
    return _check_coconnection(n, max_rank)


@_remembered
def _check_coconnection(n: int | None, max_rank: int) -> CoconnectionReport:
    """`check_coconnection` on checked arguments."""
    # sort_word maps the monomials into the words one to one, so capping the
    # words caps both tables
    levels = _word_levels(max_rank, n, errors.TABLE_LIMIT)[0]
    words = [*chain.from_iterable(levels)]
    _, _, monomials, c_edges = _partition_levels(max_rank, n, None)
    q_edges: list[list[int]] = [[] for _ in words]
    for a, b in _word_edges("q", levels, n, range(len(words))):
        q_edges[a].append(b)
    q_order = sorted(range(len(words)), key=lambda i: (-sum(words[i]), words[i]), reverse=True)
    q_down = _down_sets(q_edges, q_order)
    c_down = _down_sets(c_edges, range(len(monomials)))
    position = {w: i for i, w in enumerate(words)}

    def q_reaches(i: int, j: int) -> bool:
        return bool(q_down[j] >> i & 1)

    parts, ascend_witness = [], None
    for i, m in enumerate(words):
        t = _abelianize(m)
        parts.append(_suffix_sums(t))
        if ascend_witness is None and not q_reaches(i, position[_sort_word(t)]):
            ascend_witness = format_word(m)
    sorted_words = [_sort_word(t) for t in monomials]
    sorted_at = [position[w] for w in sorted_words]

    sigma_witness = None
    if not all(dominated(parts[i], parts[j]) for i, out in enumerate(q_edges) for j in out):
        sigma_witness = next(
            f"{format_word(words[i])} <= {format_word(words[j])}"
            for i in range(len(words))
            for j in range(len(words))
            if j != i and q_reaches(i, j) and not dominated(parts[i], parts[j])
        )

    sigma_plus_witness = None
    if not all(
        q_reaches(sorted_at[a], sorted_at[b]) for a, out in enumerate(c_edges) for b in out
    ):
        sigma_plus_witness = next(
            f"{format_monomial(monomials[a])} <= {format_monomial(monomials[b])}"
            for a in range(len(monomials))
            for b in range(len(monomials))
            if b != a
            and c_down[b] >> a & 1
            and not q_reaches(sorted_at[a], sorted_at[b])
        )

    roundtrip_witness = next(
        (format_monomial(t) for t, w in zip(monomials, sorted_words) if _abelianize(w) != t),
        None,
    )

    laws = (
        LawCheck(
            "abelianize-monotone",
            sum(bits.bit_count() for bits in q_down) - len(q_down),
            sigma_witness,
        ),
        LawCheck(
            "sort-monotone",
            sum(bits.bit_count() for bits in c_down) - len(c_down),
            sigma_plus_witness,
        ),
        LawCheck("word-roundtrip-ascends", len(words), ascend_witness),
        LawCheck("monomial-roundtrip-identity", len(monomials), roundtrip_witness),
    )
    return CoconnectionReport(n=n, max_rank=max_rank, laws=laws)
