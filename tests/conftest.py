"""Shared test setup: every test starts from an empty certifier memo.

The certifiers keep their reports for the life of the process
(`words._remembered`), so a test that patches or spies on their internals
would otherwise be answered from a report an earlier test left behind.
"""

import pytest

from ncposet import words


@pytest.fixture(autouse=True)
def _empty_certifier_memo():
    words._REPORTS.clear()
