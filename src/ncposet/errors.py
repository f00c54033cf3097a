"""Shared exception types and the default resource caps."""

DEFAULT_LIMIT = 1_000_000

# Elements of one reachability table: N elements take up to N(N+1)/2 bits,
# about 33 MB at the cap.
TABLE_LIMIT = 23_000


class ParseError(ValueError):
    """Input text does not match the word or monomial grammar."""


class LimitError(RuntimeError):
    """An enumeration or a table would exceed its configured cap."""
