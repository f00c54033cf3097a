"""Rank generating functions and their enumeration cross-check.

The number of words of rank k over the unbounded alphabet is the k-th
coefficient of (1-t)/(1-2t); over x1..xn it is the coefficient of
(1-t)/(1-2t+t^(n+1)).  Coefficients are expanded by the corresponding
linear recurrences in exact integer arithmetic; `enumerate_by_rank`
recounts them by generating the words outright, once per alphabet: the
process keeps the tally, and a later call reads what it needs from it.
"""

from __future__ import annotations

from .errors import _charge
from .words import _count_up_to_rank, _keep, _Record, _word_levels, check_range

__all__ = ["CoefficientTable", "rank_coefficients", "enumerate_by_rank"]


class CoefficientTable(_Record):
    n: int | None
    coefficients: tuple[int, ...]

    def format_lines(self) -> list[str]:
        return [f"rank {k}: {c}" for k, c in enumerate(self.coefficients)]


def rank_coefficients(terms: int, n: int | None = None) -> CoefficientTable:
    """Coefficients 0..terms of the rank generating function.

    Both series share numerator 1-t; the denominator 1-2t (unbounded) gives
    c_k = 2 c_{k-1} for k >= 2, and 1-2t+t^(n+1) additionally subtracts
    c_{k-n-1}.
    """
    check_range(n, terms, "terms")
    # coefficient k has at most k bits, and one for n = 1; all are charged first
    _charge(terms + 1 if n == 1 else terms * (terms + 1) // 2, "coefficient bits")
    coefficients = [1]
    for k in range(1, terms + 1):
        if k == 1:
            c = 1
        else:
            c = 2 * coefficients[k - 1]
            if n is not None and k - (n + 1) >= 0:
                c -= coefficients[k - n - 1]
        coefficients.append(c)
    return CoefficientTable(n=n, coefficients=tuple(coefficients))


def enumerate_by_rank(terms: int, n: int | None = None, limit: int | None = None) -> list[int]:
    """Tally the words of each rank 0..terms by direct generation, once per alphabet: the
    tally is kept (`words._keep`, a tuple weighing its length) and answers shorter calls."""
    check_range(n, terms, "terms")
    _count_up_to_rank(terms, n, limit)  # the caps, on every call, building no word
    counts = _keep(("rank counts", n))
    if counts is None or len(counts) <= terms:
        counts = tuple(len(level) for level in _word_levels(terms, n, limit)[0])
        _keep(("rank counts", n), len(counts), counts)
    return list(counts[: terms + 1])
