"""Shared exception types and the resource caps, read at call time: `LimitError` is raised here."""

__all__ = ["DEFAULT_LIMIT", "LimitError", "ParseError"]

DEFAULT_LIMIT = 1_000_000

# Letters an enumeration may hold per word of its cap.  Over a small
# alphabet the mean word length grows with the rank while the count stays
# small: the rank-R words over x1 alone hold R(R+1)/2 letters.
LETTERS_PER_WORD = 20

# Elements of one reachability table: N elements take under N^2 bits, since
# no bit of an element lies past the last position of its rank; the 22175
# words of rank <= 15 over x1..x4 take 42 MB.  It also bounds what the
# process keeps (`words._keep`): its rank levels, weighed by their elements,
# its certifier reports, `words._REPORT_WEIGHT` elements each, and its rank
# tallies (`series.enumerate_by_rank`), one element per rank.
TABLE_LIMIT = 23_000


class ParseError(ValueError):
    """Input text does not match the word or monomial grammar."""


class LimitError(RuntimeError):
    """An enumeration or a table would exceed its configured cap."""


def _cap(limit: int | None = None) -> int:
    """The element cap: ``limit``, or `DEFAULT_LIMIT` for None; `ValueError` unless an int >= 0."""
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ValueError(f"limit must be an int >= 0, got {limit!r}")
    return DEFAULT_LIMIT if limit is None else limit


def _caps() -> tuple[int, int, int]:
    """The caps as they stand, for keying a result: one made under other caps is another."""
    return DEFAULT_LIMIT, LETTERS_PER_WORD, TABLE_LIMIT


def _charge(amount: int, what: str) -> None:
    """Raise `LimitError` if a call plans more than `DEFAULT_LIMIT` units of work or output."""
    if amount > DEFAULT_LIMIT:
        raise LimitError(f"{amount} {what} exceed the cap of {DEFAULT_LIMIT}")


def _check_enumeration(what: str, elements: int, limit: int | None, letters: int = 0) -> None:
    """Raise `LimitError` if an enumeration of ``what`` holds more elements than
    ``_cap(limit)``, or more than `LETTERS_PER_WORD` times it of letters."""
    cap = _cap(limit)
    if elements > cap:
        raise LimitError(f"enumeration of {what} exceeded the cap of {cap}")
    if letters > LETTERS_PER_WORD * cap:
        raise LimitError(
            f"enumeration of {what} exceeded the cap of {LETTERS_PER_WORD * cap} letters"
        )
