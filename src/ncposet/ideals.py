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

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import _charge
from .ncorder import raisings
from .words import (
    Word,
    canonical_key,
    check_range,
    check_word,
    format_word,
    is_factor,
    rank,
)

__all__ = [
    "IdealGens",
    "minimalize",
    "ideal_member",
    "strongly_stable_closure",
    "StabilityCheck",
    "is_strongly_stable",
]


@dataclass(frozen=True)
class IdealGens:
    """Alphabet bound plus a factor-divisibility antichain of generators."""

    n: int
    gens: tuple[Word, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"alphabet bound must be an int >= 1, got {self.n!r}")
        for g in self.gens:
            check_word(g, self.n)
        for g in self.gens:
            if any(h != g and is_factor(h, g) for h in self.gens):
                raise ValueError(
                    f"generators are not an antichain: {format_word(g)} is divisible"
                )


def minimalize(gens: Iterable[Sequence[int]], n: int) -> IdealGens:
    """Drop every generator that has another one as a factor."""
    unique = {check_word(g, n) for g in gens}
    kept = [
        g
        for g in unique
        if not any(h != g and is_factor(h, g) for h in unique)
    ]
    kept.sort(key=canonical_key)
    return IdealGens(n=n, gens=tuple(kept))


def ideal_member(m: Sequence[int], ideal: IdealGens) -> bool:
    """True iff some generator occurs as a contiguous subword of ``m``."""
    w = check_word(m, ideal.n)
    return any(is_factor(g, w) for g in ideal.gens)


def strongly_stable_closure(ideal: IdealGens) -> IdealGens:
    """Least strongly stable ideal containing the given one.

    Repeatedly adds the raisings of the current generators and
    re-minimalizes.  Raising preserves degree and letters stay <= n, so the
    generators live in a finite set and the loop reaches a fixpoint.  At
    the fixpoint every raising of a generator is a member, which forces
    every raising of every member to be a member as well.

    Each round charges its factor tests before it runs them: the raisings
    against the generators, then the re-minimalizing of the enlarged set
    (`minimalize` and the antichain check of `IdealGens`, all pairs each).
    The running total of letters compared is charged against the cap.
    """
    current = minimalize(ideal.gens, ideal.n)
    work = 0
    while True:
        work += _raising_work(current.gens, ideal.n)
        _charge(work, "letter comparisons")
        additions = {
            w
            for g in current.gens
            for _, w in raisings(g, ideal.n)
            if not ideal_member(w, current)
        }
        if not additions:
            return current
        merged = set(current.gens) | additions
        work += 2 * _factor_work(map(len, merged), map(len, merged))
        _charge(work, "letter comparisons")
        current = minimalize(merged, ideal.n)


def _raising_work(gens: Sequence[Word], n: int) -> int:
    """Letters compared, at most, in testing each raising of ``gens`` for membership."""
    return _factor_work(map(len, gens), (len(g) for g in gens for c in g if c < n))


def _factor_work(factors: Iterable[int], words: Iterable[int]) -> int:
    """Letters `is_factor(u, m)` compares at most over all pairs, from the lengths.

    It compares |m| - |u| + 1 windows of |u| letters, and at least one.
    """
    us, ms = Counter(factors), Counter(words)
    return sum(i * j * max(1, (q - p + 1) * p) for p, i in us.items() for q, j in ms.items())


@dataclass(frozen=True)
class StabilityCheck:
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
    tests of the raisings are charged first, as one round of the closure.
    """
    check_range(ideal.n, rank_bound, "rank_bound")
    _charge(_raising_work(ideal.gens, ideal.n), "letter comparisons")
    escaping = [
        (g, [w for _, w in raisings(g, ideal.n) if not ideal_member(w, ideal)])
        for g in sorted(ideal.gens, key=canonical_key)
    ]
    generator_witness = next(((g, ws[0]) for g, ws in escaping if ws), None)
    window_witness = next(
        ((g, min(ws, key=canonical_key)) for g, ws in escaping if ws and rank(g) < rank_bound),
        None,
    )
    return StabilityCheck(
        rank_bound=rank_bound,
        window_closed=window_witness is None,
        window_witness=window_witness,
        generators_closed=generator_witness is None,
        generator_witness=generator_witness,
    )
