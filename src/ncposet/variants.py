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

from .ncorder import covers_up, dominated, rule_successors
from .words import Word, check_word, multirank

__all__ = ["q_leq", "p_leq", "swap_successors", "q_successors"]


def swap_successors(w: Word) -> set[Word]:
    """Sort one adjacent descent: ... x_j x_i ... -> ... x_i x_j ... (i < j)."""
    out: set[Word] = set()
    for k in range(len(w) - 1):
        if w[k] > w[k + 1]:
            out.add(w[:k] + (w[k + 1], w[k]) + w[k + 2 :])
    return out


def q_successors(w: Word, n: int | None) -> set[Word]:
    """One move up in the sorted-order variant: a base-order cover or a descent sort."""
    return covers_up(w, n) | swap_successors(w)


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
    target = multirank(m2)
    start = multirank(m)
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
