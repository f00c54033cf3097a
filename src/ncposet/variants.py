"""Two coarser companions of the base word order.

The sorted-order variant is additionally closed under sorting an adjacent
descent, so every word sits below its sorted form.  The degree-first
variant stacks the degree slices into an ordinal sum: lower total degree
beats everything of higher degree, and equal-degree words compare
letterwise.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import _charge
from .words import Word, check_word

__all__ = ["q_leq", "p_leq"]


def swap_successors(w: Word) -> set[Word]:
    """Sort one adjacent descent: ... x_j x_i ... -> ... x_i x_j ... (i < j)."""
    out: set[Word] = set()
    for k in range(len(w) - 1):
        if w[k] > w[k + 1]:
            out.add(w[:k] + (w[k + 1], w[k]) + w[k + 2 :])
    return out


def q_leq(m: Sequence[int], m2: Sequence[int], n: int | None = None) -> bool:
    """Comparability in the sorted-order variant, by first fit.

    Take the letters c of ``m`` from left to right and remove from ``m2``
    the first remaining letter >= c; ``m <= m2`` iff no step runs out.  As
    in `nc_leq`, ``n`` only validates.  Call positions p_0 .. p_{k-1} of a
    word w a pick sequence for m when w[p_t] >= m[t] and every letter left
    of p_t not taken before is < w[p_t].  First fit gives one, since each
    free letter before its pick is < c.  (<=) Let u be the picked letters
    followed by the rest: its prefix dominates m, so m <=_nc u, and putting
    p_{k-1}, ..., p_0 back moves each right past smaller letters only, a
    chain of descent sorts up to ``m2``.  (=>) By the proof of the "q" cover
    rule (`words._word_covers`), a sort then an nc move is an nc move then at
    most one sort, so m <=_nc u for some u
    that sorts to ``m2``.  Some window u[s .. s+k-1] dominates m, and first
    fit on u picks p_t <= s + t (s + t is free, as each p_i <= s + i), so u
    has a pick sequence.  A sort b a -> a b (b > a) keeps every pick
    sequence valid, as it only puts a smaller letter before b; so ``m2``
    has one.  Exchange: given a pick sequence P, one starts with g, the
    first letter >= m[0].  If g != p_0 then g < p_0 and w[g] < w[p_0]: take
    g, carry p_0, and follow P; where the carried c is left of p_t and
    w[c] >= w[p_t], take c instead and carry p_t.  Every letter left of c
    that P left free is < w[c], so each step is valid.  The carried letter
    stays right of g, so if g = p_j it was taken in P while g was free and
    w[c] > w[g] >= m[j]: take c in slot j and follow P.  By induction on
    len(m), first fit succeeds whenever a pick sequence exists.
    """
    return _q_leq(check_word(m, n), check_word(m2, n))


def _q_leq(m: Word, m2: Word) -> bool:
    """`q_leq` of checked words."""
    rest = list(m2)
    if len(m) > len(rest):
        return False
    _charge(len(m) * len(rest), "letter comparisons")
    for c in m:
        j = next((j for j, d in enumerate(rest) if d >= c), None)
        if j is None:
            return False
        del rest[j]
    return True


def p_leq(m: Sequence[int], m2: Sequence[int]) -> bool:
    """Comparability in the degree-first variant.

    True iff ``m`` has strictly smaller total degree, or the degrees agree
    and every letter of ``m`` is <= the letter of ``m2`` at the same
    position.
    """
    return _p_leq(check_word(m), check_word(m2))


def _p_leq(m: Word, m2: Word) -> bool:
    """`p_leq` of checked words."""
    if len(m) != len(m2):
        return len(m) < len(m2)
    return all(a <= b for a, b in zip(m, m2))
