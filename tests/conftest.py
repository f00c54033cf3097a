"""Shared test setup: every test starts from an empty store.

The library keeps rank levels and certifier reports in one store for the
life of the process (`words._keep`), so a test that patches or spies on
their internals would otherwise be answered from what an earlier test left
behind.
"""

import pytest

from ncposet import words


@pytest.fixture(autouse=True)
def empty_store():
    """Empty the store before each test; the test may call the returned function to
    empty it again."""
    def empty():
        words._STORE.clear()
        words._HELD = 0

    empty()
    return empty
