"""Shared test setup: every test starts from an empty store.

The library keeps rank levels, certifier reports and rank tallies in one
store for the life of the process (`words._keep`), so a test that patches or
spies on their internals would otherwise be answered from what an earlier
test left behind.  A test that hands the certifiers its own order key does
so through `inject_key`, which first checks the key's join; the thread
probes of the store run through `in_six_threads`.
"""

import sys
import threading
from itertools import product

import pytest

from ncposet import termorders, words


@pytest.fixture(autouse=True)
def empty_store():
    """Empty the store before each test; the test may call the returned function to
    empty it again."""
    def empty():
        words._STORE.clear()
        words._HELD = 0

    empty()
    return empty


@pytest.fixture
def inject_key(monkeypatch):
    """Return ``inject(key, join)``, which makes `termorders._key_function` return that
    pair for every spec.  It first asserts ``join(key(u), key(v)) == key(u + v)`` for all
    words u, v of degree <= 3 over x1..x3: the certifiers key only words and cofactors and
    join the rest, so a wrong join would test something other than the key."""
    # built here, not by the library, so the check neither charges a cap nor fills the store
    small = [w for d in range(4) for w in product(range(1, 4), repeat=d)]

    def inject(key, join):
        for u in small:
            for v in small:
                assert join(key(u), key(v)) == key(u + v), (u, v)
        monkeypatch.setattr(termorders, "_key_function", lambda spec, top: (key, join))

    return inject


@pytest.fixture
def in_six_threads():
    """Return ``run(work)``, which runs ``work(k)`` in threads k = 0..5 with a short switch
    interval and returns what they raised, after checking that every thread ended."""
    def run_all(work):
        raised = []

        def run(k):
            try:
                work(k)
            except Exception as exc:  # the test fails on it
                raised.append(exc)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return raised

    return run_all
