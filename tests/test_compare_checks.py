"""`compare` and `leq` check each element once, then run the family's kernel.

The public kernels (`nc_leq`, `q_leq`, `p_leq`, `comm_leq`) check both
arguments and then run the same kernel, so all six entry points refuse a
bad element with one exception and one message, the first argument before
the second.  The messages are pinned here as the checks have always
reported them.
"""

import re
import sys

import pytest

from ncposet import PosetHandle, cli, comm_leq, compare, leq, nc_leq, p_leq, q_leq

N = 2
LETTER = "letter indices must be integers >= 1, got "

# name -> (word, monomial, exception, message); None where the row has no such element
BAD = {
    "True": ((True,), {True: 1}, ValueError, LETTER + "True"),
    "0": ((0,), {0: 1}, ValueError, LETTER + "0"),
    "-1": ((-1,), {-1: 1}, ValueError, LETTER + "-1"),
    "1.0": ((1.0,), {1.0: 1}, ValueError, LETTER + "1.0"),
    "above n": ((3,), {3: 1}, ValueError, f"letter x3 exceeds the alphabet bound n={N}"),
    "mapping for a word": ({1: 1}, None, TypeError,
                           "a word is a sequence of letter indices, got dict"),
}
WORD_TEXT = ("x1", ValueError, LETTER + "'x'")
MONOMIAL_BAD = {
    "text": ("x1", TypeError, "a monomial maps letter indices to exponents, got str"),
    "sequence": ((1, 2), TypeError, "a monomial maps letter indices to exponents, got tuple"),
}
# a bad element whose message no row shares, for the order of the two checks
SECOND = {"word": ((1, None), LETTER + "None"), "monomial": ({None: 1}, LETTER + "None")}
GOOD = {"word": (1,), "monomial": {1: 1}}

KERNELS = {
    "nc": lambda a, b: nc_leq(a, b, N),
    "q": lambda a, b: q_leq(a, b, N),
    "p": lambda a, b: p_leq(a, b),
    "comm": lambda a, b: comm_leq(a, b, N),
}


def _rows():
    for family in ("nc", "q", "p", "comm"):
        kind = "monomial" if family == "comm" else "word"
        if kind == "word":
            bad = {name: (row[0], *row[2:]) for name, row in BAD.items()}
            bad["text"] = WORD_TEXT
        else:
            bad = {name: (row[1], *row[2:]) for name, row in BAD.items() if row[1] is not None}
            bad.update(MONOMIAL_BAD)
        calls = {
            "compare": lambda a, b, family=family: compare(PosetHandle(family, N), a, b),
            "leq": lambda a, b, family=family: leq(PosetHandle(family, N), a, b),
            "kernel": KERNELS[family],
        }
        for name, (value, exc, message) in bad.items():
            for call_name, call in calls.items():
                # p_leq takes no alphabet bound, so it has none to check
                if not (family == "p" and call_name == "kernel" and name == "above n"):
                    yield pytest.param(kind, call, value, exc, message,
                                       id=f"{family}-{call_name}-{name}")


@pytest.mark.parametrize("kind, call, value, exc, message", _rows())
def test_each_entry_point_refuses_as_the_checks_always_did(kind, call, value, exc, message):
    second, second_message = SECOND[kind]
    pinned = f"^{re.escape(message)}$"
    with pytest.raises(exc, match=pinned):
        call(value, GOOD[kind])
    with pytest.raises(exc, match=pinned):
        call(GOOD[kind], value)
    # the first argument is checked before the second
    with pytest.raises(exc, match=pinned):
        call(value, second)
    with pytest.raises(ValueError, match=f"^{second_message}$"):
        call(second, value)


def _count_checks(monkeypatch):
    """Count the calls of `check_word` and `normalize_monomial` through every module
    that binds them; return the running count."""
    count = [0]
    for name in ("check_word", "normalize_monomial"):
        real = getattr(sys.modules["ncposet.words"], name)

        def counting(*args, real=real):
            count[0] += 1
            return real(*args)

        for module in [m for key, m in sys.modules.items() if key.startswith("ncposet")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return count


# family -> (first, second, verdict), one pair per verdict, so both directions of the
# kernel run on some call
CMP_CALLS = {
    "nc": [("x1*x2", "x2*x2*x1", "LT"), ("x2*x2*x1", "x1*x2", "GT"),
           ("x1*x1", "x2", "INCOMPARABLE"), ("x2*x1", "x2*x1", "EQ")],
    "q": [("x2*x1", "x1*x2", "LT"), ("x1*x2", "x2*x1", "GT"),
          ("x3", "x1*x1*x1", "INCOMPARABLE"), ("1", "1", "EQ")],
    "p": [("x3", "x1*x1", "LT"), ("x2*x2", "x1*x2", "GT"), ("x1*x2", "x2*x1", "INCOMPARABLE"),
          ("x1", "x1", "EQ")],
    "comm": [("x1", "x2", "LT"), ("x1*x3", "x1^2", "GT"), ("x1^2", "x2", "INCOMPARABLE"),
             ("x1*x2", "x2*x1", "EQ")],
}


@pytest.mark.parametrize("family", CMP_CALLS)
def test_cmp_checks_each_element_once(monkeypatch, capsys, family):
    count = _count_checks(monkeypatch)
    for a, b, verdict in CMP_CALLS[family]:
        before = count[0]
        assert cli.run(["cmp", "--poset", family, "-n", "3", a, b]) == 0
        assert capsys.readouterr().out == verdict + "\n"
        assert count[0] - before == 2, (a, b)
