"""Output checks for benchmark requests, computed without the library.

`check_output` returns None when a request's exit code and stdout are
right, and a one-line reason otherwise.  The expected values come from
counting formulas and from the term-order and coconnection theorems, never
from ncposet itself, so a regression in the library cannot hide in them.
`digest` condenses (exit code, stdout) for the golden corpus.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from functools import lru_cache

VERDICTS = {"LT\n", "GT\n", "EQ\n", "INCOMPARABLE\n"}
TERM_ORDER_AXIOMS = ["total-order: yes", "identity-minimal: yes", "multiplicative: yes",
                     "standard: yes"]

_JSON_RANK = re.compile(r'"rank": (\d+)')
_DOT_LABEL = re.compile(r'label="([^"]*)"')
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")
_WORD_LINE = re.compile(r"x[1-9]\d*(\*x[1-9]\d*)*")


def digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def compositions(k: int, n: int | None) -> int:
    """Compositions of k with parts <= n: the words of rank k over x1..xn."""
    if k == 0:
        return 1
    top = k if n is None else min(n, k)
    return sum(compositions(k - part, n) for part in range(1, top + 1))


@lru_cache(maxsize=None)
def partitions(k: int, n: int | None) -> int:
    """Partitions of k with at most n parts: the monomials of rank k over x1..xn."""
    if k == 0:
        return 1
    top = k if n is None else min(n, k)
    # conjugation: at most n parts <-> parts <= n; count by the largest part
    return sum(_partitions_max(k - part, part) for part in range(1, top + 1))


@lru_cache(maxsize=None)
def _partitions_max(k: int, largest: int) -> int:
    if k == 0:
        return 1
    return sum(_partitions_max(k - part, part) for part in range(1, min(largest, k) + 1))


def _label_rank(label: str) -> int:
    """Rank of a word (x2*x1) or monomial (x1^2*x2) label; "1" has rank 0."""
    return sum(int(i) * int(e or 1) for i, e in _FACTOR.findall(label))


def hasse_level_sizes(stdout: str, fmt: str) -> list[int]:
    """Vertices per rank, read from `hasse` JSON or DOT output."""
    if fmt == "json":
        counts = Counter(int(r) for r in _JSON_RANK.findall(stdout))
    else:
        counts = Counter()
        for line in stdout.splitlines():
            if "rank=same" in line:
                labels = _DOT_LABEL.findall(line)
                counts[_label_rank(labels[0])] += len(labels)
    return [counts[r] for r in range(max(counts, default=-1) + 1)]


def _word(letters) -> str:
    return "*".join(f"x{i}" for i in letters) if letters else "1"


def _expected_text(kind: str, w: list[int]) -> str:
    top = max(w, default=0)
    if kind == "rank":
        multirank = [sum(1 for i in w if i >= j) for j in range(1, top + 1)]
        return f"rank: {sum(w)}\nmultirank: [{','.join(map(str, multirank))}]"
    if kind == "abelianize":
        counts = sorted(Counter(w).items())
        return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in counts) or "1"
    if kind == "sort":
        return _word(sorted(w))
    # walk: letter x_i steps by one in each of the first i coordinates
    points = [[0] * top]
    for letter in w:
        points.append([c + (idx < letter) for idx, c in enumerate(points[-1])])
    return "\n".join("(" + ",".join(map(str, p)) + ")" for p in points)


def _letters(text: str) -> tuple[int, ...]:
    return tuple(int(i) for i in re.findall(r"x(\d+)", text))


def _in_ideal(w: tuple[int, ...], gens: list[tuple[int, ...]]) -> bool:
    return any(w[k : k + len(g)] == g for g in gens for k in range(len(w) - len(g) + 1))


def _check_closure(lines: list[str], given: list[str], n: int) -> str | None:
    """The closure holds the given generators and is closed under raising a letter."""
    if not lines or not all(_WORD_LINE.fullmatch(g) for g in lines):
        return "closure generators missing or malformed"
    gens = [_letters(g) for g in lines]
    if max(max(g) for g in gens) > n:
        return "closure generator above the alphabet bound"
    if not all(_in_ideal(_letters(g), gens) for g in given):
        return "closure lost a given generator"
    for g in gens:
        for j, letter in enumerate(g):
            if letter < n and not _in_ideal(g[:j] + (letter + 1,) + g[j + 1 :], gens):
                return "closure is not strongly stable"
    return None


def check_output(expect: dict, code: int, stdout: str) -> str | None:
    """None if (code, stdout) is right for the request, else the reason."""
    try:
        return _check(expect, code, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc}"


def _check(expect: dict, code: int, stdout: str) -> str | None:
    kind = expect["kind"]
    lines = stdout.splitlines()
    if kind == "error":
        if code != expect["code"] or stdout:
            return f"expected exit {expect['code']} and no stdout, got exit {code}"
        return None
    allowed = {0, 1} if kind in ("is-stable", "check-order") else {0}
    if code not in allowed:
        return f"exit code {code}"
    if kind == "hasse":
        build = partitions if expect["family"] == "comm" else compositions
        want = [build(r, expect["n"]) for r in range(expect["max_rank"] + 1)]
        got = hasse_level_sizes(stdout, expect["format"])
        return None if got == want else f"level sizes {got}, expected {want}"
    if kind == "check-order":
        contains = expect["contains"]
        if lines[:4] != TERM_ORDER_AXIOMS:
            return "a term-order axiom failed"
        if contains is None:
            return None if code == 0 and len(lines) == 6 else "unexpected verdict lines"
        if contains == "nc" and (code, lines[-1]) != (0, "contains nc: yes"):
            return "nc is the intersection of all term orders; containment must hold"
        if not lines[-1].startswith(f"contains {contains}: "):
            return "missing containment verdict"
        return None
    if kind == "coconnection":
        if expect["json"]:
            laws = json.loads(stdout)["laws"]
            ok = len(laws) == 4 and all(law["status"] == "ok" for law in laws)
        else:
            ok = lines[-1:] == ["result: 0 violated laws"]
        return None if ok else "a coconnection law is reported violated"
    if kind == "cmp":
        return None if stdout in VERDICTS else f"not a verdict: {stdout!r}"
    if kind in ("rank", "abelianize", "sort", "walk"):
        want = _expected_text(kind, expect["word"])
        return None if stdout == want + "\n" else "wrong text"
    if kind == "closure":
        return _check_closure(lines, expect["gens"], expect["n"])
    if kind == "is-stable":
        verdict = "stable: yes" if code == 0 else "stable: no"
        return None if lines[-1:] == [verdict] else "verdict line disagrees with exit code"
    if kind == "series":
        coeffs = [compositions(k, expect["n"]) for k in range(expect["terms"] + 1)]
        want = [f"rank {k}: {c}" for k, c in enumerate(coeffs)]
        want.append(" ".join(map(str, coeffs)) + " / verified")
        return None if lines == want else "coefficients disagree with the composition count"
    return None
