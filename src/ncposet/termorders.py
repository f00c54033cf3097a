"""Concrete term orders on words and validators for their axioms.

Three families are provided: degree-then-leftmost-letter, degree-then-
rightmost-letter, and weighted degree with a deglex tie-break.  All are
total; `validate_order` certifies the term-order axioms on a bounded range
instead of assuming them, and `contains_poset` checks that a given order
refines one of the partial-order families.  Both check generating moves
and adjacent pairs rather than all pairs; only a failed multiplicativity
check scans all pairs, for its witness.  `validate_order` keys each word
and cofactor once, O(W + C) sort keys, and joins each product's key from
its factors' keys, O(W C^2) joins.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import pairwise, product
from math import isqrt
from operator import attrgetter, lt

from .errors import ParseError, _cap, _charge
from .ncorder import _covers_up, _reachable, raisings
from .posets import EQ, GT, LT, PosetHandle
from .variants import swap_successors
from .words import (
    Word,
    _Record,
    _canonical_key,
    _count_up_to_degree,
    _remembered,
    check_range,
    check_word,
    words_up_to_degree,
)

KINDS = ("deg_left_lex", "deg_right_lex", "weight_deg")

__all__ = [
    "TermOrderSpec",
    "DEG_LEFT_LEX",
    "DEG_RIGHT_LEX",
    "weight_deg",
    "parse_order_spec",
    "order_compare",
    "OrderValidationReport",
    "validate_order",
    "contains_poset",
]


class TermOrderSpec(_Record):
    kind: str
    weights: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "weight_deg":
            # a tuple before the checks: the frozen spec hashes, and its weights stay checked
            w = tuple(self.weights or ())
            object.__setattr__(self, "weights", w)
            if not w:
                raise ValueError("weight_deg needs at least one weight")
            # plain ints with 0 < w1 < w2 < ...
            if any(type(x) is not int for x in w) or any(a >= b for a, b in zip((0, *w), w)):
                raise ValueError(
                    f"weights must be strictly increasing positive integers, got {w}"
                )
        elif self.weights is not None:
            raise ValueError(f"{self.kind} takes no weights")

    def describe(self) -> str:
        if self.kind == "weight_deg":
            return "weight:" + ",".join(str(w) for w in self.weights)
        return {"deg_left_lex": "deglex", "deg_right_lex": "degrevlex"}[self.kind]


DEG_LEFT_LEX = TermOrderSpec("deg_left_lex")
DEG_RIGHT_LEX = TermOrderSpec("deg_right_lex")


def weight_deg(*weights: int) -> TermOrderSpec:
    return TermOrderSpec("weight_deg", tuple(weights))


def parse_order_spec(text: str) -> TermOrderSpec:
    """Parse "deglex", "degrevlex", or "weight:1,2,3"."""
    if text == "deglex":
        return DEG_LEFT_LEX
    if text == "degrevlex":
        return DEG_RIGHT_LEX
    if text.startswith("weight:"):
        try:
            weights = tuple(int(part) for part in text[len("weight:") :].split(","))
        except ValueError as exc:
            raise ParseError(f"bad weight list in {text!r}") from exc
        try:
            return weight_deg(*weights)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(
        f"unknown order spec {text!r}; expected deglex, degrevlex, or weight:W1,W2,..."
    )


def _check_spec(spec) -> None:
    if not isinstance(spec, TermOrderSpec):
        raise ValueError(f"a term order is a TermOrderSpec, got {spec!r}")


def _no_weight(spec: TermOrderSpec, letter: int) -> ValueError:
    return ValueError(
        f"letter x{letter} has no weight; the spec covers letters up to x{len(spec.weights)}"
    )


def _key_function(spec: TermOrderSpec, top: int) -> tuple[Callable, Callable]:
    """`sort_key` for valid words over x1..x_top, without validating each word, and its
    join: ``join(key(u), key(v)) == key(u + v)`` for all words u and v.

    The certifiers key only words they built themselves, so the one check left is
    that every letter up to ``top`` has a weight (`sort_key`'s error for the first
    word that lacks one).  A key is a grading that adds over concatenation (degree,
    or weight then degree) and the word or its reverse, so a join is O(1) additions.
    """
    if spec.kind == "deg_left_lex":
        return (lambda w: (len(w), w)), (lambda p, q: (p[0] + q[0], p[1] + q[1]))
    if spec.kind == "deg_right_lex":
        # equal lengths align the positions, so reversing realizes the
        # rightmost-first scan; the reverse of u*v is v's reverse, then u's
        return (lambda w: (len(w), w[::-1])), (lambda p, q: (p[0] + q[0], q[1] + p[1]))
    weights = spec.weights
    if top > len(weights):
        raise _no_weight(spec, len(weights) + 1)
    weight = (0, *weights).__getitem__
    return (
        (lambda w: (sum(map(weight, w)), len(w), w)),
        (lambda p, q: (p[0] + q[0], p[1] + q[1], p[2] + q[2])),
    )


def sort_key(spec: TermOrderSpec, m: Sequence[int]):
    """A total-order key: words compare under ``spec`` as their keys do."""
    _check_spec(spec)
    w = check_word(m)
    if spec.kind == "weight_deg":
        for i in w:
            if i > len(spec.weights):
                raise _no_weight(spec, i)
    return _key_function(spec, 0)[0](w)


def order_compare(spec: TermOrderSpec, m: Sequence[int], m2: Sequence[int]) -> str:
    """LT, GT, or EQ under the given total order; EQ iff the words are equal."""
    a = sort_key(spec, m)
    b = sort_key(spec, m2)
    if a == b:
        return EQ
    return LT if a < b else GT


class OrderValidationReport(_Record, unhashed=("witnesses",)):
    spec: TermOrderSpec
    n: int
    max_degree: int
    is_total: bool
    one_minimal: bool
    is_multiplicative: bool
    is_standard: bool
    is_sorted: bool
    is_degree_compatible: bool
    # compared, not hashed: a dict has no hash
    witnesses: dict

    @property
    def axioms_ok(self) -> bool:
        """The term-order axioms proper (flags are descriptive extras)."""
        return (
            self.is_total
            and self.one_minimal
            and self.is_multiplicative
            and self.is_standard
        )

    def format_lines(self) -> list[str]:
        def yn(flag: bool) -> str:
            return "yes" if flag else "no"

        return [
            f"total-order: {yn(self.is_total)}",
            f"identity-minimal: {yn(self.one_minimal)}",
            f"multiplicative: {yn(self.is_multiplicative)}",
            f"standard: {yn(self.is_standard)}",
            f"sorted: {yn(self.is_sorted)}",
            f"degree-compatible: {yn(self.is_degree_compatible)}",
        ]


# a report's fields but its witnesses, in order: `validate_order` copies a kept report
# by position, which costs about half of a copy by keyword
_ALL_BUT_WITNESSES = attrgetter(*OrderValidationReport._fields[:-1])


def validate_order(
    spec: TermOrderSpec, n: int, max_degree: int, cofactor_degree: int = 2
) -> OrderValidationReport:
    """Certify the order axioms exhaustively on words of bounded degree.

    Multiplicativity and sortedness quantify cofactors up to
    ``cofactor_degree``; this is a bounded certification, not a proof.

    Each word's and each cofactor's sort key is computed once, O(W + C) keys
    for W words and C cofactors; the key of each product a*w*b is joined from
    its factors' keys, O(W C^2) joins of O(1) each.  The order is induced by
    the keys, so it is transitive, and multiplicativity needs checking only
    on the pairs adjacent in key order.  If keys tie or an adjacent pair fails,
    `_first_non_multiplicative` scans all pairs instead.  Every witness is
    the first one in the canonical scan: outer word, then inner word, in
    the order of `words_up_to_degree`.

    The key comparisons over cofactor pairs are charged against the cap
    before any word is built, and the fallback scan charges a running total
    that starts from them; beyond it `LimitError` is raised.  The cofactors
    are held to the square root of the cap.

    The arguments are checked on every call; the report is then kept in the
    store with the levels (`_remembered`), and a repeated call under the same caps
    gets it back, until it is evicted, with its own witnesses dict.
    """
    _check_spec(spec)
    if n is None:
        raise ValueError("order validation needs a bounded alphabet")
    check_range(n, max_degree, "max_degree")
    check_range(n, cofactor_degree, "cofactor_degree")
    report = _validate_order(spec, n, max_degree, cofactor_degree)
    return OrderValidationReport(*_ALL_BUT_WITNESSES(report), dict(report.witnesses))


@_remembered
def _validate_order(spec, n, max_degree, cofactor_degree) -> OrderValidationReport:
    """`validate_order` on checked arguments."""
    count = _count_up_to_degree(n, max_degree)
    key, join = _key_function(spec, n)
    # the checks below visit every pair of cofactors
    cofactors = words_up_to_degree(n, cofactor_degree, isqrt(_cap()))
    pairs = len(cofactors) ** 2
    planned = (count - 1) * pairs + n * (n - 1) // 2 * pairs
    _charge(planned, f"key comparisons to validate {spec.describe()} up to degree {max_degree}")
    words = words_up_to_degree(n, max_degree)
    keys = [key(w) for w in words]
    cokeys = [key(c) for c in cofactors]
    letters = [key((i,)) for i in range(1, n + 1)]

    ranked = sorted(range(len(words)), key=keys.__getitem__)
    # the sort is stable, so the least tied pair of positions is the first tie
    ties = [(i, j) for i, j in pairwise(ranked) if keys[i] == keys[j]]
    tie = (words[min(ties)[0]], words[min(ties)[1]]) if ties else None

    # words come by degree, so the last word of each degree sees every longer one
    lowest_longer: dict = {}
    low = None
    for w, k in zip(reversed(words), reversed(keys)):
        lowest_longer.setdefault(len(w), low)
        low = k if low is None else min(low, k)
    shorter_above = next(
        (
            (a, b)
            for a, ka in zip(words, keys)
            if lowest_longer[len(a)] is not None and not ka < lowest_longer[len(a)]
            for b, kb in zip(words, keys)
            if len(b) > len(a) and not ka < kb
        ),
        None,
    )

    low_word = next((a for a, k in zip(words[1:], keys[1:]) if not keys[0] < k), None)

    standard = next(
        (((i,), (i + 1,)) for i, (a, b) in enumerate(pairwise(letters), 1) if not a < b), None
    )

    factor = None
    if tie is not None or not _adjacent_multiplicative(join, [keys[i] for i in ranked], cokeys):
        factor = _first_non_multiplicative(join, words, keys, cofactors, cokeys, planned)

    unsorted = _first_unsorted(join, letters, cofactors, cokeys)

    witnesses = {
        "total": tie,
        "degree-compatible": shorter_above,
        "identity-minimal": low_word,
        "standard": standard,
        "multiplicative": factor,
        "sorted": unsorted,
    }
    return OrderValidationReport(
        spec=spec,
        n=n,
        max_degree=max_degree,
        is_total=tie is None,
        one_minimal=low_word is None,
        is_multiplicative=factor is None,
        is_standard=standard is None,
        is_sorted=unsorted is None,
        is_degree_compatible=shorter_above is None,
        witnesses={law: w for law, w in witnesses.items() if w is not None},
    )


def _adjacent_multiplicative(join, ranked, cokeys) -> bool:
    """Do the cofactors (a, b) keep each word below its successor in key order?  Given
    the keys, each head a*w is joined once, for its left cofactor a, and shared by every b."""
    return all(
        all(map(lt, keys, keys[1:]))
        for heads in ([join(a, k) for k in ranked] for a in cokeys)
        for keys in ([join(h, b) for h in heads] for b in cokeys)
    )


def _first_non_multiplicative(join, words, keys, cofactors, cokeys, work):
    """The all-pairs scan: the first s < t and cofactors (a, b) with a*s*b not below a*t*b.

    Each pair s < t adds its cofactor pairs to the running total ``work``,
    charged before they are compared.
    """
    pairs = len(cofactors) ** 2
    for s, ks in zip(words, keys):
        for t, kt in zip(words, keys):
            if ks < kt:
                work += pairs
                _charge(work, "key comparisons of the multiplicativity scan")
                for (a, ka), (b, kb) in product(zip(cofactors, cokeys), repeat=2):
                    if not join(join(ka, ks), kb) < join(join(ka, kt), kb):
                        return (s, t, a, b)
    return None


def _first_unsorted(join, letters, cofactors, cokeys):
    """The first (t*xj*xi*s, t*xi*xj*s), i < j, that the order does not put in that order;
    ``letters`` holds the keys of x1..xn and ``cokeys`` those of the cofactors."""
    for i, ki in enumerate(letters, 1):
        for j, kj in enumerate(letters[i:], i + 1):
            down, up = join(kj, ki), join(ki, kj)
            for (t, kt), (s, ks) in product(zip(cofactors, cokeys), repeat=2):
                if not join(join(kt, down), ks) < join(join(kt, up), ks):
                    return (t + (j, i) + s, t + (i, j) + s)
    return None


def contains_poset(
    spec: TermOrderSpec, handle: PosetHandle, max_degree: int
) -> tuple[bool, tuple[Word, Word] | None]:
    """Does the total order refine the partial order on the bounded range?

    The partial order is generated by its moves (`_moves`): the covers for
    "nc", these and the descent sorts for "q", and for "p" the raisings, or
    x1^(d+1) above w = xn^d, since every word of degree d reaches xn^d by
    raisings and x1^(d+1) lies below every word of higher degree.  No move
    lowers the degree, so a chain between two words of the range stays inside
    it, and the key order is transitive: checking each move inside the range
    decides the question, in any order of the words.  If a move fails, the
    witness is the first pair in canonical order (`canonical_key`, outer then
    inner word) that the order puts the other way.  A move that keeps the
    degree raises the rank, or is a sort, which keeps both and makes the word
    lexicographically smaller; so by degree and rank descending, then
    lexicographically, each move precedes its lower end.  One pass in that
    order carries the least key at or above each word, and the outer word is
    the first in canonical order with a move whose least key is not above its
    own; one search over the moves from it finds the inner word.

    The arguments are checked on every call; the answer is then kept in the
    store with the levels (`_remembered`), and a repeated call under the same
    caps gets it back, until it is evicted, without checking a move again.
    """
    _check_spec(spec)
    if handle.family not in ("nc", "q", "p"):
        raise ValueError(f"containment checks cover word posets, not {handle.family!r}")
    if handle.n is None:
        raise ValueError("containment checks need a bounded alphabet")
    check_range(handle.n, max_degree, "max_degree")
    return _contains_poset(spec, handle, max_degree)


@_remembered
def _contains_poset(spec, handle, max_degree) -> tuple[bool, tuple[Word, Word] | None]:
    """`contains_poset` on checked arguments."""
    words = words_up_to_degree(handle.n, max_degree)
    # at degree 0 only the identity is keyed
    key = _key_function(spec, handle.n if max_degree else 0)[0]
    keys = {w: key(w) for w in words}

    def up(w: Word) -> list[Word]:
        return [u for u in _moves(handle, w) if len(u) <= max_degree]

    if all(keys[w] < keys[u] for w in words for u in up(w)):
        return True, None
    least: dict = {}
    marked = []
    for w in sorted(words, key=lambda w: (-len(w), -sum(w), w)):
        above = [least[u] for u in up(w)]
        if any(not keys[w] < low for low in above):
            marked.append(w)
        least[w] = min([keys[w], *above])
    a = min(marked, key=_canonical_key)
    late = (b for b in _reachable(a, up) if b != a and not keys[a] < keys[b])
    return False, (a, min(late, key=_canonical_key))


def _moves(handle: PosetHandle, w: Word) -> Iterable[Word]:
    """The moves up from a valid word that generate the handle's order (`contains_poset`)."""
    if handle.family == "p":
        return [u for _, u in raisings(w, handle.n)] or [(1,) * (len(w) + 1)]
    moves = _covers_up(w, handle.n)
    return moves | swap_successors(w) if handle.family == "q" else moves
