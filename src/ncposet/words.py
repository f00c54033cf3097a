"""Words over the indexed alphabet x1, x2, ... and their basic statistics.

A word is a tuple of positive letter indices; the empty tuple is the monoid
identity.  A commutative monomial is a dict {letter index: exponent > 0}.
Canonical text forms are ``"x2*x1*x1"`` and ``"x1^2*x2^3"``, with ``"1"``
for the identity in both grammars.
"""

from __future__ import annotations

import _thread
import itertools
import re
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from operator import attrgetter

from . import errors
from .errors import ParseError, _cap, _caps, _charge, _check_enumeration

__all__ = [
    "Word",
    "CommMonomial",
    "MultiRank",
    "parse_word",
    "format_word",
    "normalize_monomial",
    "parse_monomial",
    "format_monomial",
    "abelianize",
    "sort_word",
    "sorted_form",
    "raise_letter",
    "degree",
    "rank",
    "multirank",
    "format_multirank",
    "is_factor",
    "canonical_key",
    "words_of_degree",
    "words_up_to_degree",
    "words_up_to_rank",
]

Word = tuple[int, ...]
CommMonomial = dict[int, int]
MultiRank = tuple[int, ...]

_WORD_TERM = re.compile(r"x([1-9][0-9]*)\Z")
_MON_FACTOR = re.compile(r"x([1-9][0-9]*)(?:\^([1-9][0-9]*))?\Z")

# What the process keeps, key -> (weight, value), the least recently used first: the rank
# levels of `_levels` per (kind, alphabet bound) and the certifiers' reports of
# `_remembered`.  The weights, in level elements, sum to _HELD
_STORE: dict[tuple, tuple[int, object]] = {}
_HELD = 0

# A report's weight, its size over a kept level element's, measured: after the benchmark's
# hasse_mix and certify_mix lists at seeds 1 and 35, each replayed in one process, the
# sys.getsizeof sum over the distinct objects each store entry holds (functions and classes
# aside) is 141 B per level element (22,970 elements) and 1638 B per report with its key
# (145 reports), a ratio of 11.6 (Python 3.11.7)
_REPORT_WEIGHT = 12

# One lock over the store, so that each lookup, insert and eviction is one step to other
# threads; nothing is built under it
_LOCK = _thread.allocate_lock()


def _check_alphabet(n: int | None) -> None:
    """Reject an alphabet bound that is not an int >= 1; None is the unbounded alphabet."""
    if n is None:
        return
    if type(n) is not int:
        raise ValueError(f"alphabet bound must be an int >= 1, got {n!r}")
    if n < 1:
        raise ValueError(f"alphabet bound must be >= 1, got {n}")


def check_word(m: Iterable[int], n: int | None = None) -> Word:
    """Return ``m`` as a tuple, validating letters (plain ints >= 1) and the bound n >= 1.
    A mapping is a monomial, not a word: `TypeError`, before all else."""
    if type(m) is not tuple and isinstance(m, Mapping):
        raise TypeError(f"a word is a sequence of letter indices, got {type(m).__name__}")
    _check_alphabet(n)
    return _check_letters(tuple(m), n)


def _check_letters(w: Word, n: int | None) -> Word:
    """Return ``w`` once each letter is a plain int >= 1 and, with a bound n, at most n."""
    for i in w:
        if type(i) is not int or i < 1:
            raise ValueError(f"letter indices must be integers >= 1, got {i!r}")
        if n is not None and i > n:
            raise ValueError(f"letter x{i} exceeds the alphabet bound n={n}")
    return w


def _check_bounds(n: int | None, bound: int, name: str) -> None:
    """`check_range` less its sign check: an enumeration reads a negative bound as empty."""
    _check_alphabet(n)
    if type(bound) is not int:
        raise ValueError(f"{name} must be an int >= 0, got {bound!r}")


def check_range(n: int | None, bound: int, name: str) -> None:
    """Reject an alphabet bound below 1 and a degree or rank bound that is not an int >= 0."""
    _check_bounds(n, bound, name)
    if bound < 0:
        raise ValueError(f"{name} must be >= 0, got {bound}")


def _tokens(text: str, pattern: re.Pattern, expected: str) -> list[re.Match]:
    """The ``pattern`` match of each ``*``-separated token of the str ``text``, none for
    ``"1"``; `ParseError` for empty text or at the first token that does not match."""
    if not isinstance(text, str):
        raise TypeError(f"a parser reads a str, got {type(text).__name__}")
    if text == "1":
        return []
    if not text:
        raise ParseError("empty input")
    matches = []
    for pos, token in enumerate(text.split("*"), start=1):
        match = pattern.fullmatch(token)
        if match is None:
            raise ParseError(f"token {pos}: expected {expected}, got {token!r}")
        matches.append(match)
    return matches


def parse_word(text: str) -> Word:
    """Parse ``"x2*x1*x1"`` (or ``"1"`` for the identity) into a word."""
    return tuple([int(match[1]) for match in _tokens(text, _WORD_TERM, "xK with K >= 1")])


def format_word(m: Sequence[int]) -> str:
    return _canonical_key(check_word(m))[1]


def normalize_monomial(t: Mapping[int, int], n: int | None = None) -> CommMonomial:
    """Copy ``t`` dropping zero exponents, validating the bound n as `check_word` does, then
    the first faulty entry: its index (`check_word`'s letter rule) before its exponent
    before the bound n.  Anything but a mapping raises `TypeError`, before all else."""
    if type(t) is not dict and not isinstance(t, Mapping):
        raise TypeError(f"a monomial maps letter indices to exponents, got {type(t).__name__}")
    _check_alphabet(n)
    out: CommMonomial = {}
    for i, e in t.items():
        if type(e) is not int or e < 0:
            indices = tuple(t)
            _check_letters(indices[: indices.index(i)], n)
            _check_letters((i,), None)
            raise ValueError(f"exponents must be integers >= 0, got {e!r}")
        if e:
            out[i] = e
    _check_letters(tuple(t), n)
    return out


def parse_monomial(text: str) -> CommMonomial:
    """Parse ``"x1^2*x2"`` (or ``"1"``) into an exponent dict."""
    out: CommMonomial = {}
    for match in _tokens(text, _MON_FACTOR, "xK or xK^E with K, E >= 1"):
        index = int(match[1])
        out[index] = out.get(index, 0) + int(match[2] or 1)
    return out


def format_monomial(t: Mapping[int, int]) -> str:
    items = sorted(normalize_monomial(t).items())
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in items) or "1"


def abelianize(m: Sequence[int]) -> CommMonomial:
    """Occurrence counts of each letter: the commutative image of a word (checked `_abelianize`)."""
    return _abelianize(check_word(m))


def _abelianize(w: Word) -> CommMonomial:
    """`abelianize` of a valid word, without validating it."""
    counts: CommMonomial = {}
    for i in w:
        counts[i] = counts.get(i, 0) + 1
    return counts


def sort_word(t: Mapping[int, int]) -> Word:
    """The letters of a monomial as a word in weakly increasing order (checked `_sort_word`)."""
    return _sort_word(normalize_monomial(t))


def _sort_word(t: CommMonomial) -> Word:
    """`sort_word` of a normalized monomial, without validating it."""
    letters: list[int] = []
    for i in sorted(t):
        letters.extend([i] * t[i])
    return tuple(letters)


def sorted_form(m: Sequence[int]) -> Word:
    """Sort the letters of a word: ``sort_word(abelianize(m))``, directly."""
    return tuple(sorted(check_word(m)))


def raise_letter(m: Sequence[int], j: int, n: int | None = None) -> Word:
    """Increment the letter at 1-based position ``j`` by one.

    With an alphabet bound ``n``, checked as `check_word` checks it, every letter must be at
    most ``n`` and the raised one below it.
    """
    w = check_word(m, n)
    if type(j) is not int or not 1 <= j <= len(w):
        raise ValueError(f"position {j!r} out of range for a word of length {len(w)}")
    if n is not None and w[j - 1] >= n:
        raise ValueError(
            f"letter x{w[j - 1]} at position {j} is already at the alphabet bound n={n}"
        )
    return w[: j - 1] + (w[j - 1] + 1,) + w[j:]


def degree(m: Sequence[int]) -> int:
    """Total degree: the number of letters."""
    return len(check_word(m))


def rank(m: Sequence[int]) -> int:
    """Sum of the letter indices of a word."""
    return sum(check_word(m))


def multirank(m: Sequence[int]) -> MultiRank:
    """Component j counts the letters of index >= j; trailing zeros dropped.

    Weakly decreasing; component 1 is the degree and the component sum is
    the rank.
    """
    return _multirank(check_word(m))


def _multirank(w: Word) -> MultiRank:
    """`multirank` of a valid word, without validating it."""
    return _suffix_sums(_abelianize(w))


def _suffix_sums(t: Mapping[int, int]) -> tuple[int, ...]:
    """Part j sums the letter counts t[i] of i >= j: a multirank, or a partition.

    There are as many parts as the largest letter index, which is charged
    against `DEFAULT_LIMIT` before any is built.
    """
    if not t:
        return ()
    top = max(t)
    _charge(top, "multirank components")
    parts = []
    running = 0
    for j in range(top, 0, -1):
        running += t.get(j, 0)
        parts.append(running)
    return tuple(reversed(parts))


def format_multirank(components: Sequence[int]) -> str:
    return "[" + ",".join(str(c) for c in components) + "]"


def is_factor(u: Sequence[int], m: Sequence[int]) -> bool:
    """True iff ``u`` occurs as a contiguous subword of ``m``."""
    u = check_word(u)
    return _has_factor(check_word(m), {u}, {len(u)})


def _has_factor(w: Word, gens: Collection[Word], lengths: Iterable[int]) -> bool:
    """True iff some window of ``w``, of one of the ``lengths``, lies in ``gens``."""
    return any(w[k : k + p] in gens for p in lengths for k in range(len(w) - p + 1))


def canonical_key(m: Sequence[int]) -> tuple[int, str]:
    """Sort key (rank ascending, then canonical text ascending)."""
    return _canonical_key(check_word(m))


def _canonical_key(w: Word) -> tuple[int, str]:
    """`canonical_key` of a valid word, without validating it; its text is `format_word`'s."""
    return (sum(w), "*".join(f"x{i}" for i in w) or "1")


def words_of_degree(n: int, d: int) -> Iterator[Word]:
    """All words of exact degree ``d`` over letters 1..n, lexicographic; none for ``d`` < 0."""
    if n is None:
        raise ValueError("degree enumeration needs a bounded alphabet")
    _check_bounds(n, d, "degree")
    return itertools.product(range(1, n + 1), repeat=d) if d >= 0 else iter(())


def words_up_to_degree(n: int, max_degree: int, limit: int | None = None) -> list[Word]:
    """All words of degree <= max_degree over x1..xn, by degree, then lexicographic.

    Past the element cap, or `LETTERS_PER_WORD` letters per word of it, `LimitError` is
    raised before any word is built.  The unbounded alphabet raises `ValueError`, as do the
    bounds that `_check_bounds` refuses; a negative degree bound gives no words.
    """
    if n is None:
        raise ValueError("degree enumeration needs a bounded alphabet")
    _check_bounds(n, max_degree, "max_degree")
    _count_up_to_degree(n, max_degree, limit)
    return [w for d in range(max_degree + 1) for w in words_of_degree(n, d)]


def _count_up_to_degree(n: int, max_degree: int, limit: int | None = None) -> int:
    """Count the n^0 + ... + n^max_degree words of degree <= max_degree and
    their letters against the caps of `words_up_to_degree`, building none."""
    _cap(limit)
    total = letters = 0
    size = 1
    for d in range(max_degree + 1):
        total += size
        letters += d * size
        _check_enumeration(
            f"words up to degree {max_degree} over {n} letters", total, limit, letters
        )
        size *= n
    return total


def words_up_to_rank(
    max_rank: int, n: int | None = None, limit: int | None = None
) -> list[Word]:
    """All words of rank <= max_rank in canonical order; none for a negative bound.

    Over the unbounded alphabet letters above ``max_rank`` cannot occur, so
    the enumeration is finite either way.  The words of each rank and their
    letters are counted before any word is built: more than the element cap
    of words, or more than `LETTERS_PER_WORD` times it of letters, raise
    `LimitError`.  A bad alphabet or rank bound raises `ValueError` (`_check_bounds`).

    No two words of one rank are prefixes of each other, and ``*`` sorts
    below every digit, so within a rank the canonical text order is the
    lexicographic order of the letters' decimal strings.  The words of rank
    r are therefore each first letter, in that order, followed by the words
    of rank r - letter, already in canonical order.
    """
    return [w for level in _word_levels(max_rank, n, limit)[0] for w in level]


def _count_up_to_rank(max_rank: int, n: int | None, limit: int | None) -> tuple[list[int], int]:
    """The number of words of each rank 0..max_rank and their letters in all, counted against
    the caps rank by rank, building none: `_word_levels` builds exactly these levels."""
    _cap(limit)
    top = max_rank if n is None else min(n, max_rank)
    # sizes[r] words of rank r hold lengths[r] letters among them
    sizes: list[int] = []
    lengths: list[int] = []
    total_words = total_letters = 0
    for r in range(max_rank + 1):
        below = range(max(r - top, 0), r)
        sizes.append(sum(sizes[s] for s in below) if r else 1)
        lengths.append(sum(sizes[s] + lengths[s] for s in below))
        total_words += sizes[r]
        total_letters += lengths[r]
        _check_enumeration(f"words up to rank {max_rank}", total_words, limit, total_letters)
    return sizes, total_letters


def _word_levels(max_rank: int, n: int | None, limit: int | None, data: bool = False) -> tuple:
    """Words of rank <= max_rank in `words_up_to_rank` order, one list per rank, built a first
    letter k at a time: (k,) prepended to the tail level's words and, with ``data``, ``xk*`` to its
    labels and one added to the first k components of each distinct tail multirank.  Labels and
    multiranks are kept per n by `_levels`; the words are rebuilt each call."""
    _check_bounds(n, max_rank, "max_rank")
    sizes, total_letters = _count_up_to_rank(max_rank, n, limit)
    if max_rank < 0:
        return [], [], []
    top = max_rank if n is None else min(n, max_rank)
    letters = sorted(range(1, top + 1), key=str)
    join = itertools.chain.from_iterable  # a level from its first-letter blocks
    words = [[()]]
    for r in range(1, max_rank + 1):
        words.append([*join(map((k,).__add__, words[r - k]) for k in letters if k <= r)])
    if not data:
        return words, [], []

    def extend(levels: list) -> tuple:
        r = len(levels)
        below = [(k, levels[r - k]) for k in letters if k <= r]
        labels = join(map(f"x{k}*".__add__, tail[1]) if k < r else (f"x{k}",) for k, tail in below)
        shared: dict = {}  # one tuple per distinct multirank: words with the same letters share it
        multiranks = join(map({mr: shared.setdefault(m, m) for mr in {*tail[0]} for m in [tuple(
            [c + 1 for c in mr[:k]]) + mr[k:] + (1,) * (k - len(mr))]}.__getitem__, tail[0])
            for k, tail in below)
        return (tuple(multiranks), tuple(labels)) if r else (((),), ("1",))

    # the labels grow with the letters: LETTERS_PER_WORD letters count as one element, as in
    # the caps, so x1^0..x1^6324 (2*10^7 letters, 60 MB of labels) is never kept
    kept = _levels(max_rank, extend, ("words", n),
                   max(sum(sizes), total_letters // errors.LETTERS_PER_WORD))
    return words, [labels for _, labels in kept], [multiranks for multiranks, _ in kept]


def _word_covers(family: str, levels: list, n: int | None) -> list[tuple[int, ...]]:
    """Hasse covers of a word family over `_word_levels` output, as `_partition_levels` gives
    them: per word in canonical order, a tuple of the ascending positions of its covers.

    Rank r lists, for each first letter k, k followed by the words of rank
    r - k, and x1 first.  So if w = k*t is word i of rank r and t word j of
    rank r - k, w's raisings are (k+1)*t, at j in block k + 1 of rank r + 1,
    and k*c in block k for each raising c of t, read back from t's covers
    shifted by one offset.  Letters are ordered by their text, so the raise
    (k+1)*t lands before block k only where the digits grow (x9 -> x10).
    "nc" skips x1*t at j, reads t*x1 back as w*x1 and adds x1*w at i (at j = 0
    and at i = 0 the two pads coincide): for k = 1, x1*w is the skipped x1*t
    read back, and for k > 1 it comes first, in block 1.  "q" skips the raise
    of t's first letter t0 if k is t0 or t0 + 1, and lists the sorts first:
    k*s for each sort s of t, and t0*k*t' if t = t0*t' and k > t0; at the top
    rank it has only these.  "p" skips t's cover x1^(len(t) + 1), at or before
    the first word of rank r - k + 1; a word w of length d < max_rank with no
    raising in the range (xn^d, or any of the top rank) has x1^(d+1).

    The "q" covers of w are thus its descent sorts, w*x1, and each raising of
    a letter c whose left neighbour is neither c nor c + 1.  An nc move (pad,
    raise) adds one to the rank; a sort keeps it and removes one inversion.
    So a cover is one move, and a sort is one, since all between is reached
    by sorts.  A sort followed by an nc move is an nc move followed by at
    most one sort; the sort vanishes only where c+1, c -> c, c+1 -> c+1, c+1
    is the raise of a c whose left neighbour is c + 1.  So every path from w
    up one rank is sorts, one nc move, sorts, and a longer path to an nc move
    v makes v that raise or sorts v from an nc move w' != v.  w' and v have
    the same letters, so both pad or both raise a c.  Both pad: sorts never
    add an inversion and x1*w has no more inversions than w*x1, so only x1*w
    is sorted from w*x1 (its x1 moves left past each letter above it; for
    w = x1^k they are equal).  Both raise, at j' < j as sorts move large
    letters right: sorts keep equal letters in order, so if the left
    neighbour l of position j is above c + 1, the last c + 1 of v (at j)
    follows l in v but precedes it in w', and if l < c, the last c of v
    before j precedes l in v but follows it in w' (at j).  Either way v has
    an inversion that w' lacks.  Conversely, raising j - 1 and then sorting
    (l = c), or sorting and then raising j - 1 (l = c + 1), takes two moves.
    """
    max_rank = len(levels) - 1
    letters = sorted(range(1, min(n or max_rank, max_rank) + 1), key=str)
    base = [0, *itertools.accumulate(map(len, levels))]
    # blocks[r][k]: where the words of rank r starting with xk begin, up to rank max_rank + 1
    blocks = [dict(zip(ks, itertools.accumulate((len(levels[r - k]) for k in ks), initial=0)))
              for r in range(max_rank + 2) for ks in [[k for k in letters if k <= r]]]
    nc, q = family == "nc", family == "q"
    covers = [(1,) if max_rank else ()]
    for r in range(1, max_rank + 1):
        here, above, top = blocks[r], blocks[r + 1], r == max_rank
        for k, start in here.items():
            tails, up = base[r - k + 1], base[r + 1]
            shift, same = up + above[k] - tails, base[r] + start - base[r - k]
            raised = None if top or k + 1 not in above else up + above[k + 1]
            early = raised is not None and above[k + 1] < above[k]
            for j, (t, word) in enumerate(zip(covers[base[r - k]:tails], levels[r - k])):
                skip = tails + j if nc and k > 1 and j else -1  # x1*t at j: x1*w takes its place
                if q:
                    sorts = [c + same for c in t if c < tails]
                    t = t[len(sorts):]  # t's covers in rank r - k + 1
                    if word:
                        t0 = word[0]
                        rest = j - blocks[r - k][t0]  # t = t0*t' and t' is word `rest` of its rank
                        if k > t0:
                            s = base[r] + here[t0] + blocks[r - t0][k] + rest
                            sorts.insert(0 if here[t0] < start else len(sorts), s)
                        if k - t0 in (0, 1) and t0 + 1 in blocks[r - k + 1]:
                            skip = tails + blocks[r - k + 1][t0 + 1] + rest
                elif not nc:
                    skip = base[len(word) + 1]
                out = [] if top else [c + shift for c in t if c != skip]
                if raised is not None:
                    out.insert(0 if early else len(out), raised + j)
                if nc and k > 1 and not top:  # x1*w, at i of rank r + 1, in block 1
                    out.insert(0, up + start + j)
                elif not (nc or q or out) and len(word) + 1 < max_rank:  # "p": no raising
                    out = [base[len(word) + 2]]
                covers.append(tuple(sorts + out if q else out))
    return covers


def _keep(key: tuple, weight: int = 0, value=None):
    """Offer ``value``, of ``weight`` elements, for ``key``; return what is kept there, now the
    most recently used.  The heavier entry under a key stays, the stored one on a tie, so the
    default offer reads; then the least recently used go until all weigh <= `TABLE_LIMIT`."""
    global _HELD
    with _LOCK:
        held, kept = _STORE.pop(key, (0, value))
        if held < weight <= errors.TABLE_LIMIT:  # an entry past the limit alone is not kept
            _HELD += weight - held
            held, kept = weight, value
        if held:
            _STORE[key] = held, kept
        while _HELD > errors.TABLE_LIMIT:
            _HELD -= _STORE.pop(next(iter(_STORE)))[0]
        return kept


def _levels(max_rank: int, extend: Callable, key: tuple, size: int) -> list:
    """Levels 0..max_rank, each ``extend(levels below it)``, kept (`_keep`) under ``key`` as
    ``extend`` makes them, weighing their ``size`` in elements.  Every caller shares them, so
    ``extend`` makes each level of tuples, strings and ints alone."""
    levels = [*(_keep(key) or ())[: max_rank + 1]]
    kept = len(levels)
    while len(levels) <= max_rank:
        levels.append(extend(levels))
    # levels too heavy to keep are not offered; more levels kept meanwhile stay
    if kept < len(levels) and size <= errors.TABLE_LIMIT:
        _keep(key, size, tuple(levels))
    return levels


def _remembered(body: Callable) -> Callable:
    """``body``, a repeated call answered from its reports, kept (`_keep`) as `_REPORT_WEIGHT`
    elements each under the body, arguments and caps (`_caps`): one made under other caps is
    never reused, and a call that raises keeps nothing.  The caller checks the arguments
    first; every caller gets the first report kept, in any thread, so it is immutable."""
    def remembered(*args):
        key = (body, args, _caps())
        report = _keep(key)
        return _keep(key, _REPORT_WEIGHT, body(*args)) if report is None else report
    return remembered


def _json_list(items: list[str], depth: int) -> str:
    """A list opened at ``depth`` spaces as ``json.dumps(indent=2)`` lays it out, of items
    laid out for depth + 2, each one's first line unindented."""
    if not items:
        return "[]"
    inner = " " * (depth + 2)
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{' ' * depth}]"


class _Record:
    """A frozen record, the base of the library's result types.

    The fields are the subclass's annotations, in order, and at least two: `attrgetter`
    returns one field bare.  A class attribute of a field's name is its default.  A
    record is built by position or keyword, then `__post_init__` runs.  Its repr is
    ``Name(field=value, ...)``; records are equal when they are of one class with equal
    fields, and a record hashes as the tuple of its fields less the ``unhashed`` ones.
    Setting or deleting an attribute raises `AttributeError`; `object.__setattr__` and
    `vars` write past that.  This is what ``@dataclass(frozen=True)`` made, without
    importing `dataclasses` and, through it, `inspect` at start-up.
    """

    def __init_subclass__(cls, unhashed: tuple[str, ...] = ()) -> None:
        cls._fields = cls.__match_args__ = fields = tuple(cls.__annotations__)
        values = attrgetter(*fields)
        hashed = attrgetter(*[name for name in fields if name not in unhashed])
        defaults = {name: vars(cls)[name] for name in fields if name in vars(cls)}
        names = {*fields}

        # closures over the fields: a class attribute costs a lookup on every call
        def __init__(self, *args, **kwargs) -> None:
            if kwargs or len(args) != len(fields):
                given = {**defaults, **dict(zip(fields, args)), **kwargs}
                if (len(args) > len(fields) or given.keys() != names
                        or not kwargs.keys().isdisjoint(fields[:len(args)])):
                    raise TypeError(f"{cls.__qualname__}() takes {fields}, got {args} and {kwargs}")
                args = map(given.__getitem__, fields)
            # stored as a dataclass stores them: an instance dict built with `vars`
            # would move every later read of a field off the interpreter's fastest path
            for name, value in zip(fields, args):
                object.__setattr__(self, name, value)
            self.__post_init__()

        def __eq__(self, other) -> bool:
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, lambda self: hash(hashed(self))

    def __post_init__(self) -> None:
        pass

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
