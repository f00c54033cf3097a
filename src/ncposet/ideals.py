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

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .ncorder import covers_up, raisings
from .words import (
    Word,
    canonical_key,
    check_range,
    check_word,
    format_word,
    is_factor,
    rank,
    words_up_to_rank,
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
        if self.n < 1:
            raise ValueError(f"alphabet bound must be >= 1, got {self.n}")
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
    """
    current = minimalize(ideal.gens, ideal.n)
    while True:
        additions = {
            w
            for g in current.gens
            for _, w in raisings(g, ideal.n)
            if not ideal_member(w, current)
        }
        if not additions:
            return current
        current = minimalize(set(current.gens) | additions, ideal.n)


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
    """Certify the filter property of the member set on a rank window.

    Scans members in canonical order; the witness is the first member
    together with the first of its covers that escapes the ideal.
    """
    check_range(ideal.n, rank_bound, "rank_bound")
    window_witness = None
    for m in words_up_to_rank(rank_bound, ideal.n):
        if not ideal_member(m, ideal):
            continue
        for c in sorted(covers_up(m, ideal.n), key=canonical_key):
            if rank(c) <= rank_bound and not ideal_member(c, ideal):
                window_witness = (m, c)
                break
        if window_witness:
            break

    generator_witness = None
    for g in sorted(ideal.gens, key=canonical_key):
        for _, w in raisings(g, ideal.n):
            if not ideal_member(w, ideal):
                generator_witness = (g, w)
                break
        if generator_witness:
            break

    return StabilityCheck(
        rank_bound=rank_bound,
        window_closed=window_witness is None,
        window_witness=window_witness,
        generators_closed=generator_witness is None,
        generator_witness=generator_witness,
    )
