"""The base word order: the intersection of all standard term orders.

A word sits below another exactly when the larger one can be produced from
it by prepending x1, appending x1, and raising single letters.  Each of
those moves adds one unit to the multirank, so the order is graded by rank
and every interval is finite.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from itertools import product

from .errors import _charge, _check_enumeration
from .words import Word, _multirank, check_range, check_word

__all__ = [
    "nc_leq",
    "nc_leq_oracle",
    "covers_up",
    "covers_down",
    "principal_down_set",
    "walk",
]


def dominated(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise a <= b for trimmed vectors (missing entries are 0)."""
    if len(a) > len(b):
        return False
    return all(x <= y for x, y in zip(a, b))


def raisings(w: Word, n: int | None) -> list[tuple[int, Word]]:
    """Each one-letter raising of ``w`` inside x1..xn, as (0-based position, word).

    The one generator of this move; `raise_letter` is the validated
    single-position form.
    """
    return [
        (j, w[:j] + (letter + 1,) + w[j + 1 :])
        for j, letter in enumerate(w)
        if n is None or letter < n
    ]


def _reachable(start: Hashable, moves: Callable[[Hashable], Iterable]) -> set:
    """Everything reached from ``start`` in zero or more ``moves``."""
    seen = {start}
    stack = [start]
    while stack:
        for u in moves(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def nc_leq(m: Sequence[int], m2: Sequence[int], n: int | None = None) -> bool:
    """Comparability test by letterwise window domination.

    ``m <= m2`` iff some contiguous window of ``m2`` of length ``len(m)``
    dominates ``m`` letter by letter: the letters outside the window are
    absorbed by the x1-padding moves, the window letters by raisings.  This
    is the fast shortcut; `nc_leq_oracle` is the rule-based ground truth and
    the two are compared exhaustively in the test suite.
    """
    return _nc_leq(check_word(m, n), check_word(m2, n))


def _nc_leq(m: Word, m2: Word) -> bool:
    """`nc_leq` of checked words."""
    lm, lm2 = len(m), len(m2)
    if lm > lm2:
        return False
    _charge((lm2 - lm + 1) * lm, "letter comparisons")
    for k in range(lm2 - lm + 1):
        if all(m2[k + t] >= m[t] for t in range(lm)):
            return True
    return False


def nc_leq_oracle(m: Sequence[int], m2: Sequence[int], n: int | None = None) -> bool:
    """Rule-based comparability: is ``m2`` reached from ``m`` by cover moves?

    Moves to words whose multirank is not dominated by ``multirank(m2)``
    are pruned.  Every move adds one unit to the multirank, so the reached
    words form a finite box below the target multirank.
    """
    m = check_word(m, n)
    m2 = check_word(m2, n)
    target = _multirank(m2)
    return m2 in _reachable(
        m, lambda w: [u for u in _covers_up(w, n) if dominated(_multirank(u), target)]
    )


def covers_up(m: Sequence[int], n: int | None = None) -> set[Word]:
    """The words covering ``m``: x1-padded copies plus the `raisings`.

    For m = x1^k the two paddings coincide, so the set has k+1 elements
    (k+1 on the unbounded alphabet and for n >= 2; 1 for n = 1); otherwise
    it has 2 + (number of raisable letters) elements.  Their letters are
    charged against `DEFAULT_LIMIT` before any is built.
    """
    w = check_word(m, n)
    _charge((len(w) + 2) * (len(w) + 1), "output letters")
    return _covers_up(w, n)


def _covers_up(w: Word, n: int | None) -> set[Word]:
    """`covers_up` of a valid word, without validating it."""
    out = {(1,) + w, w + (1,)}
    out.update(w2 for _, w2 in raisings(w, n))
    return out


def covers_down(m: Sequence[int]) -> set[Word]:
    """The words covered by ``m``: strip a marginal x1, or lower one letter.

    The same set over bounded and unbounded alphabets.  At most len(m)
    words of at most len(m) letters, charged against `DEFAULT_LIMIT`.
    """
    w = check_word(m)
    _charge(len(w) * len(w), "output letters")
    out: set[Word] = set()
    if w and w[0] == 1:
        out.add(w[1:])
    if w and w[-1] == 1:
        out.add(w[:-1])
    for j, letter in enumerate(w):
        if letter >= 2:
            out.add(w[:j] + (letter - 1,) + w[j + 1 :])
    return out


def principal_down_set(m: Sequence[int]) -> set[Word]:
    """All words below ``m``: those letterwise below a window of ``m`` (`nc_leq`'s criterion),
    the empty one too, each distinct window once; one already in the set adds no word.  Charged
    against the cap `DEFAULT_LIMIT`: len(m)^2 output letters first, then each new word as the
    count so far, and its letters against `LETTERS_PER_WORD` times the cap."""
    w = check_word(m)
    _charge(len(w) * len(w), "output letters")
    down: set[Word] = set()
    letters = 0
    for v in _distinct_windows(w):
        if v not in down:
            for u in product(*[range(1, c + 1) for c in v]):
                if u not in down:
                    _charge(len(down) + 1, "down-set words")
                    down.add(u)
                    letters += len(u)
                    _check_enumeration("down-set words", len(down), None, letters)
    return down


def _distinct_windows(w: Word) -> Iterator[Word]:
    """Each distinct window of ``w`` once, the shorter first, sliced once.  A window is named
    by its first start: the one of length k + 1 at i is the pair of the name of the one of
    length k at i and w[i + k], so each length costs one pass over at most len(w) pairs."""
    names = [0] * (len(w) + 1)  # the empty window, at every start
    yield ()
    for k in range(len(w)):
        pairs = [*zip(names, w[k:])]
        first = dict(zip(reversed(pairs), range(len(pairs) - 1, -1, -1)))
        names = [*map(first.__getitem__, pairs)]
        yield from (w[i : i + k + 1] for i in first.values())


def walk(m: Sequence[int], dim: int | None = None) -> list[tuple[int, ...]]:
    """The lattice walk of a word: letter x_i steps by (1,...,1,0,...), i ones.

    Returns the d+1 visited points, truncated to the max-letter dimension
    (or to ``dim`` if given); the endpoint is the multirank of the word.
    Their components are charged against `DEFAULT_LIMIT` before any is built.
    """
    w = check_word(m)
    if dim is None:
        dim = max(w, default=0)
    check_range(None, dim, "dim")
    _charge((len(w) + 1) * dim, "walk point components")
    point = (0,) * dim
    points = [point]
    for letter in w:
        point = tuple(c + (1 if idx < letter else 0) for idx, c in enumerate(point))
        points.append(point)
    return points
