"""Two-sided monomial ideals given by generator antichains, and strong stability.

An ideal over x1..xn is presented by a finite set of words, kept minimal
under factor divisibility.  An ideal is strongly stable when its monomial
set is closed under raising any single letter; `strongly_stable_closure`
computes the least such enlargement and `is_strongly_stable` certifies the
filter property on a rank-bounded window.  Stability is only meaningful
over a bounded alphabet: with unbounded letters the raising chain of any
nonzero generator never stops.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Sequence
from functools import cached_property

from .errors import _charge, _check_type
from .ncorder import raisings
from .words import Word, _Record, _canonical_key, _has_factor, check_range, check_word, format_word

__all__ = [
    "IdealGens",
    "minimalize",
    "ideal_member",
    "strongly_stable_closure",
    "StabilityCheck",
    "is_strongly_stable",
]

# The charge for keeping one found word of a closure to the output, in
# letters looked up.  Validating, minimalizing, sorting and printing it
# takes about 17 us on a 2-vCPU Xeon, and the cap of 10^6 letters stands
# for about a second there: `closure -n 47619 x1` is the largest chain the
# cap admits, and runs in about 1 s end to end.
_KEPT_WORD_WORK = 20


class IdealGens(_Record):
    """Alphabet bound plus a factor-divisibility antichain of generators."""

    n: int
    gens: tuple[Word, ...]

    def __post_init__(self) -> None:
        _check_bound(self.n)
        object.__setattr__(self, "gens", tuple(check_word(g, self.n) for g in self.gens))
        if (g := next(_divisible(self.gens), None)) is not None:
            raise ValueError(f"generators are not an antichain: {format_word(g)} is divisible")

    @cached_property
    def _lookup(self) -> tuple[set[Word], set[int]]:
        """The generators as a set, and their lengths: the arguments of `_has_factor`."""
        return set(self.gens), {len(g) for g in self.gens}


def _check_bound(n: int) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"alphabet bound must be an int >= 1, got {n!r}")


def _divisible(gens: Collection[Word], work: int = 0) -> Iterator[Word]:
    """The ``gens`` that have a shorter one as a factor, in order.  The letters looked
    up, `_window_work` over the shorter lengths, are added to ``work`` and charged first."""
    lookup = set(gens)
    lengths = {len(g) for g in lookup}
    shorter = [(g, [p for p in lengths if p < len(g)]) for g in gens]
    _charge(work + sum(_window_work(g, ps) for g, ps in shorter), "letter comparisons")
    return (g for g, ps in shorter if _has_factor(g, lookup, ps))


def minimalize(gens: Iterable[Sequence[int]], n: int) -> IdealGens:
    """Drop every generator that has another one as a factor."""
    return _minimal(n, {check_word(g, n) for g in gens})


def _minimal(n: int, words: set[Word], work: int = 0) -> IdealGens:
    """The ideal of the minimal ``words``, valid over x1..xn, from one antichain pass:
    `_divisible` charges its lookups on top of ``work``, and no `IdealGens` check follows."""
    _check_bound(n)
    kept = tuple(sorted(words - set(_divisible(words, work)), key=_canonical_key))
    ideal = object.__new__(IdealGens)
    vars(ideal).update(n=n, gens=kept)  # a frozen instance, past `IdealGens.__post_init__`
    return ideal


def ideal_member(m: Sequence[int], ideal: IdealGens) -> bool:
    """True iff some generator occurs as a contiguous subword of ``m``."""
    _check_type(ideal, IdealGens, "an ideal is an IdealGens")
    return _has_factor(check_word(m, ideal.n), *ideal._lookup)


def strongly_stable_closure(ideal: IdealGens) -> IdealGens:
    """Least strongly stable ideal containing the given one.

    A worklist from the generators: pop a word, raise each letter and keep
    every raising that is not yet a member of the ideal of the found words;
    then drop the found words that have another one as a factor.  Raising
    keeps the length, so the loop stops and the lengths looked up never
    change.  At the end every raising of a found word is a member, and a
    raising outside a generator occurrence keeps that occurrence, so the
    ideal of the found words is closed under raising.  Each found word is
    a chain of raisings above a generator, so this is the least such
    ideal, and its minimal antichain is unique.  Before a word's raisings
    are built, their lookups (`_raising_work`) and the cost of keeping the
    word (`_KEPT_WORD_WORK`) join a running total charged against the cap,
    as do the lookups of the last step, whose antichain of valid words is
    not checked again.
    """
    _check_type(ideal, IdealGens, "an ideal is an IdealGens")
    found = set(ideal.gens)
    lengths = {len(g) for g in found}
    stack = list(found)
    work = 0
    while stack:
        g = stack.pop()
        work += _raising_work(g, ideal.n, lengths) + _KEPT_WORD_WORK
        _charge(work, "letter comparisons")
        for _, w in raisings(g, ideal.n):
            if not _has_factor(w, found, lengths):
                found.add(w)
                stack.append(w)
    return _minimal(ideal.n, found, work)


def _window_work(w: Word, lengths: Iterable[int]) -> int:
    """Letters `_has_factor` looks up, at most, in a word of |w| letters: |w| - p + 1
    windows of p letters for each of the ``lengths`` p <= |w|, and at least one."""
    return sum(max(1, (len(w) - p + 1) * p) for p in lengths if p <= len(w))


def _raising_work(g: Word, n: int, lengths: Iterable[int]) -> int:
    """Letters `_has_factor` looks up, at most, over the raisings of ``g``."""
    return sum(c < n for c in g) * _window_work(g, lengths)


class StabilityCheck(_Record):
    """Window certificate plus the exact generator-level raising check.

    ``window_closed`` is the verdict: the members of rank <= rank_bound are
    upward closed under covers inside the window.  ``generators_closed``
    reports whether every raising of every generator is a member, which is
    equivalent to strong stability outright.
    """

    rank_bound: int
    window_closed: bool
    window_witness: tuple[Word, Word] | None
    generators_closed: bool
    generator_witness: tuple[Word, Word] | None

    def __bool__(self) -> bool:
        return self.window_closed


def is_strongly_stable(ideal: IdealGens, rank_bound: int) -> StabilityCheck:
    """Certify the filter property of the member set on a rank window, from the generators.

    The covers of a word are its x1-paddings and its raisings.  Padding a
    member keeps it a member, and so does raising a letter outside a
    generator occurrence.  So an escaping cover of a member m = a*g*b is
    a*g'*b for a raising g -> g' inside g, and g' escapes too (else a*g'*b
    would be a member): g, of rank <= rank(m), is a member with an escaping
    cover g' of rank <= rank(m) + 1.  At the least such rank, m = g.  Hence
    a scan of the window in canonical order first meets the first generator
    of rank < rank_bound with an escaping raising, and its least escaping
    cover is its least escaping raising.  The generator witness is the
    first generator with one, raisings in position order.  The membership
    tests of the raisings are charged first, all generators at once.
    """
    _check_type(ideal, IdealGens, "an ideal is an IdealGens")
    check_range(ideal.n, rank_bound, "rank_bound")
    lengths = ideal._lookup[1]
    _charge(sum(_raising_work(g, ideal.n, lengths) for g in ideal.gens), "letter comparisons")
    escaping = [
        (g, [w for _, w in raisings(g, ideal.n) if not ideal_member(w, ideal)])
        for g in sorted(ideal.gens, key=_canonical_key)
    ]
    generator_witness = next(((g, ws[0]) for g, ws in escaping if ws), None)
    window_witness = next(
        ((g, min(ws, key=_canonical_key)) for g, ws in escaping if ws and sum(g) < rank_bound),
        None,
    )
    return StabilityCheck(
        rank_bound=rank_bound,
        window_closed=window_witness is None,
        window_witness=window_witness,
        generators_closed=generator_witness is None,
        generator_witness=generator_witness,
    )
