"""Two coarser companions of the base word order.

The sorted-order variant is additionally closed under sorting an adjacent
descent, so every word sits below its sorted form.  The degree-first
variant stacks the degree slices into an ordinal sum: lower total degree
beats everything of higher degree, and equal-degree words compare
letterwise.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from functools import lru_cache

from .ncorder import dominated, raisings, rule_successors
from .words import Word, _multirank, check_word

__all__ = ["q_leq", "p_leq", "swap_successors", "q_covers"]


def swap_successors(w: Word) -> set[Word]:
    """Sort one adjacent descent: ... x_j x_i ... -> ... x_i x_j ... (i < j)."""
    out: set[Word] = set()
    for k in range(len(w) - 1):
        if w[k] > w[k + 1]:
            out.add(w[:k] + (w[k + 1], w[k]) + w[k + 2 :])
    return out


def q_covers(w: Word, n: int | None) -> set[Word]:
    """Upper covers of a valid ``w`` in the sorted-order variant.

    They are the descent sorts, w*x1, and each raising of a letter c whose
    left neighbour is neither c nor c + 1.  An nc move (pad, raise) adds one
    to the rank; a sort keeps it and removes one inversion.  So a cover is
    one move, and a sort is one, since all between is reached by sorts.  A
    sort followed by an nc move is an nc move followed by at most one sort;
    the sort vanishes only where c+1, c -> c, c+1 -> c+1, c+1 is the raise
    of a c whose left neighbour is c + 1.  So every path from w up one rank
    is sorts, one nc move, sorts, and a longer path to an nc move v makes v
    that raise or sorts v from an nc move w' != v.  w' and v have the same
    letters, so both pad or both raise a c.  Both pad: sorts never add an
    inversion and x1*w has no more inversions than w*x1, so only x1*w is
    sorted from w*x1 (its x1 moves left past each letter above it; for
    w = x1^k they are equal).  Both raise, at j' < j as sorts move large
    letters right: sorts keep equal letters in order, so if the left
    neighbour l of position j is above c + 1, the last c + 1 of v (at j)
    follows l in v but precedes it in w', and if l < c, the last c of v
    before j precedes l in v but follows it in w' (at j).  Either way v has
    an inversion that w' lacks.  Conversely, raising j - 1 and then sorting
    (l = c), or sorting and then raising j - 1 (l = c + 1), takes two moves.
    """
    out = swap_successors(w)
    out.add(w + (1,))
    out.update(
        u for j, u in raisings(w, n) if not (j and w[j - 1] in (w[j], w[j] + 1))
    )
    return out


def q_leq(m: Sequence[int], m2: Sequence[int], n: int | None = None) -> bool:
    """Comparability in the sorted-order variant.

    Reachability search using four moves: prepend x1, append x1, raise one
    letter, sort one adjacent descent.  The first three moves add one unit
    to the multirank and the swap preserves it, so pruning by multirank
    domination leaves a finite state space (swap orbits at a fixed
    multirank are finite).
    """
    return _q_leq_cached(check_word(m, n), check_word(m2, n), n)


@lru_cache(maxsize=4096)
def _q_leq_cached(m: Word, m2: Word, n: int | None) -> bool:
    if m == m2:
        return True
    target = _multirank(m2)
    start = _multirank(m)
    if not dominated(start, target):
        return False
    seen = {m}
    queue: deque[tuple[Word, tuple[int, ...]]] = deque([(m, start)])
    while queue:
        w, phi = queue.popleft()
        successors = list(rule_successors(w, phi, n))
        successors.extend((s, phi) for s in swap_successors(w))
        for w2, phi2 in successors:
            if w2 in seen or not dominated(phi2, target):
                continue
            if w2 == m2:
                return True
            seen.add(w2)
            queue.append((w2, phi2))
    return False


def p_leq(m: Sequence[int], m2: Sequence[int]) -> bool:
    """Comparability in the degree-first variant.

    True iff ``m`` has strictly smaller total degree, or the degrees agree
    and every letter of ``m`` is <= the letter of ``m2`` at the same
    position.
    """
    m = check_word(m)
    m2 = check_word(m2)
    if len(m) != len(m2):
        return len(m) < len(m2)
    return all(a <= b for a, b in zip(m, m2))
