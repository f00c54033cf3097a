import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from operator import add
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from ncposet import cli, errors
from ncposet.cli import build_parser, run
from ncposet.errors import DEFAULT_LIMIT, LETTERS_PER_WORD, TABLE_LIMIT
from ncposet.posets import FAMILIES


def _invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cmp_incomparable(capsys):
    code, out, _ = _invoke(capsys, "cmp", "--poset", "nc", "-n", "2", "x1*x1", "x2")
    assert (code, out) == (0, "INCOMPARABLE\n")


def test_cmp_eq(capsys):
    code, out, _ = _invoke(capsys, "cmp", "--poset", "nc", "x2", "x2")
    assert (code, out) == (0, "EQ\n")


def test_cmp_all_families(capsys):
    assert _invoke(capsys, "cmp", "--poset", "q", "x2*x1", "x1*x2")[:2] == (0, "LT\n")
    assert _invoke(capsys, "cmp", "--poset", "p", "x3", "x1*x1")[:2] == (0, "LT\n")
    assert _invoke(capsys, "cmp", "--poset", "comm", "x1", "x2")[:2] == (0, "LT\n")
    assert _invoke(capsys, "cmp", "--poset", "comm", "x1^2", "x2")[:2] == (
        0,
        "INCOMPARABLE\n",
    )


def test_covers_up(capsys):
    code, out, _ = _invoke(capsys, "covers", "--dir", "up", "x2")
    assert code == 0
    assert out == "x1*x2\nx2*x1\nx3\n"
    code, out, _ = _invoke(capsys, "covers", "--dir", "up", "-n", "2", "x2")
    assert out == "x1*x2\nx2*x1\n"


def test_covers_down(capsys):
    code, out, _ = _invoke(capsys, "covers", "--dir", "down", "x2*x1*x1")
    assert code == 0
    assert out == "x1*x1*x1\nx2*x1\n"


def test_hasse_json(capsys):
    code, out, _ = _invoke(
        capsys, "hasse", "--poset", "nc", "-n", "2", "--max-rank", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["poset"] == "nc" and payload["n"] == 2
    assert len(payload["vertices"]) == 12
    assert len(payload["edges"]) == 18


def test_hasse_dot(capsys):
    code, out, _ = _invoke(
        capsys,
        "hasse",
        "--poset",
        "comm",
        "-n",
        "2",
        "--max-rank",
        "3",
        "--format",
        "dot",
    )
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert "rank=same" in out


def test_hasse_deterministic(capsys):
    first = _invoke(capsys, "hasse", "--poset", "q", "-n", "2", "--max-rank", "4")
    second = _invoke(capsys, "hasse", "--poset", "q", "-n", "2", "--max-rank", "4")
    assert first == second


def test_hasse_limit_exit_code(capsys):
    code, out, err = _invoke(
        capsys,
        "hasse",
        "--poset",
        "nc",
        "-n",
        "2",
        "--max-rank",
        "12",
        "--limit",
        "10",
    )
    assert code == 3
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # "q" takes the caller's limit: 32768 words of rank <= 15
        (("hasse", "--poset", "q", "--max-rank", "15", "--limit", "23000"), "cap of 23000\n"),
        (("hasse", "--poset", "q", "--max-rank", "15", "--limit", "32767"), "cap of 32767\n"),
        (("hasse", "--poset", "nc", "-n", "1", "--max-rank", "10000"), "20000000 letters\n"),
        (("series", "--verify", "-n", "1", "--terms", "10000"), "20000000 letters\n"),
        (("series", "--verify", "--terms", "30", "--limit", "100"), "cap of 100\n"),
    ],
)
def test_caps_refuse_before_any_output(capsys, argv, message):
    code, out, err = _invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: enumeration of words") and err.endswith(message)


@pytest.mark.parametrize(
    "poset, a, b",
    [
        ("q", "*".join(["x2"] * 3000), "*".join(["x1"] * 3000 + ["x2"] * 3000)),
        ("nc", "*".join(["x1"] * 2999 + ["x2"]), "*".join(["x1"] * 6000)),
    ],
)
def test_cmp_budgets_quadratic_comparisons(capsys, poset, a, b):
    code, out, err = _invoke(capsys, "cmp", "--poset", poset, a, b)
    assert (code, out) == (3, "")
    assert err.endswith("letter comparisons exceed the cap of 1000000\n")


def _power(letter, length):
    return "*".join([f"x{letter}"] * length)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("rank", "x1000001"), "1000001 multirank components"),
        (("cmp", "--poset", "comm", "x1000001", "x1"), "1000001 multirank components"),
        (("walk", "x1000000*x1000000*x1000000"), "4000000 walk point components"),
        (("walk", "x500001"), "1000002 walk point components"),
        (("covers", "--dir", "up", _power(1, 4000)), "16012002 output letters"),
        (("covers", "--dir", "up", _power(1, 999)), "1001000 output letters"),
        (("covers", "--dir", "down", _power(2, 1001)), "1002001 output letters"),
    ],
)
def test_letter_index_and_output_caps_refuse_before_any_output(capsys, argv, message):
    code, out, err = _invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: {message} exceed the cap of 1000000\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # the raising chain x1 -> x2 -> ...: 21 a word, one lookup and one kept word
        (("closure", "-n", "47620", "x1"), "1000019 letter comparisons"),
        # 3^10 generators of degree 10 at the fixpoint
        (("closure", "-n", "3", _power(1, 10)), "1000030 letter comparisons"),
        # the first word's 998 raisings are admitted, the second word's are not
        (("closure", "-n", "2", _power(1, 998)), "1991050 letter comparisons"),
        (("is-stable", "-n", "2", "--rank-bound", "0", _power(1, 5000), "x2"),
         "50000000 letter comparisons"),
    ],
)
def test_ideal_factor_tests_are_charged_before_any_output(capsys, argv, message):
    code, out, err = _invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: {message} exceed the cap of 1000000\n"


def test_closures_under_the_cap_still_print(capsys):
    code, out, err = _invoke(capsys, "closure", "-n", "50", "x1")
    assert (code, err, out.split()) == (0, "", [f"x{i}" for i in range(1, 51)])
    code, out, err = _invoke(capsys, "closure", "-n", "400", "x1")
    assert (code, err, out.split()) == (0, "", [f"x{i}" for i in range(1, 401)])
    # every word of degree 6 over three letters
    code, out, err = _invoke(capsys, "closure", "-n", "3", _power(1, 6))
    assert (code, err, len(out.split())) == (0, "", 729)
    # the largest closure the benchmark's query mix asks for
    code, out, err = _invoke(capsys, "closure", "-n", "4", "x1*x1*x1")
    assert (code, err, len(out.split())) == (0, "", 64)


def test_generator_antichain_check_is_charged_before_any_lookup(capsys, monkeypatch):
    from ncposet import ideals

    def refuse(*_):
        raise AssertionError("_has_factor called")

    monkeypatch.setattr(ideals, "_has_factor", refuse)
    # x1*x2^a*x1 for a = 1..200: 200 lengths, each tested against the shorter ones
    antichain = ["x1*" + _power(2, a) + "*x1" for a in range(1, 201)]
    code, out, err = _invoke(capsys, "is-stable", "-n", "2", "--rank-bound", "0", *antichain)
    assert (code, out) == (3, "")
    assert err == "error: 71371350 letter comparisons exceed the cap of 1000000\n"


def test_largest_one_length_closures_still_print(capsys):
    # generators of one length test no window for divisibility and charge
    # nothing for it, so the largest closures the cap admits still print
    code, out, err = _invoke(capsys, "closure", "-n", "47619", "x1")
    assert (code, err, out.split()[-1]) == (0, "", "x47619")
    code, out, err = _invoke(capsys, "closure", "-n", "4", _power(1, 7))
    assert (code, err, len(out.split())) == (0, "", 4**7)


def test_lowering_the_default_cap_lowers_every_cap(capsys, monkeypatch, inject_key):
    from ncposet import (
        DEG_LEFT_LEX,
        LimitError,
        monomials_up_to_rank,
        validate_order,
        words_up_to_degree,
        words_up_to_rank,
    )

    monkeypatch.delenv("NCPOSET_LIMIT", raising=False)
    monkeypatch.setattr(errors, "DEFAULT_LIMIT", 100)
    over = "exceeded the cap of 100"
    cases = [
        # 128 words up to rank 7 over the unbounded alphabet
        (words_up_to_rank, (10,), f"enumeration of words up to rank 10 {over}"),
        (monomials_up_to_rank, (20,), f"enumeration of monomials up to rank 20 {over}"),
        (words_up_to_degree, (2, 6), f"enumeration of words up to degree 6 over 2 letters {over}"),
        # the cofactors are held to isqrt(100) = 10 words: 13 over three letters
        (
            validate_order,
            (DEG_LEFT_LEX, 3, 0),
            "enumeration of words up to degree 2 over 3 letters exceeded the cap of 10",
        ),
        # 3 words and 7 cofactors plan (2 + 1) * 49 key comparisons
        (
            validate_order,
            (DEG_LEFT_LEX, 2, 1),
            "147 key comparisons to validate deglex up to degree 1 exceed the cap of 100",
        ),
    ]
    for function, args, message in cases:
        with pytest.raises(LimitError) as info:
            function(*args)
        assert str(info.value) == message
    assert len(words_up_to_rank(6)) == 64
    assert len(words_up_to_degree(2, 5)) == 63
    # a key that ties each degree sends validate_order to the all-pairs scan:
    # 31 words plan 31 key comparisons, and the 70th pair passes the cap
    inject_key(len, add)
    with pytest.raises(LimitError) as info:
        validate_order(DEG_LEFT_LEX, 2, 4, cofactor_degree=0)
    message = "101 key comparisons of the multiplicativity scan exceed the cap of 100"
    assert str(info.value) == message
    assert not validate_order(DEG_LEFT_LEX, 2, 3, cofactor_degree=0).is_total
    # the command line without --limit: 143 words over two letters up to rank 9
    for argv in (
        ["hasse", "--poset", "nc", "-n", "2", "--max-rank", "9"],
        ["series", "-n", "2", "--terms", "9", "--verify"],
    ):
        code, out, err = _invoke(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: enumeration of words up to rank 9 exceeded the cap of 100\n"
    code, out, err = _invoke(capsys, "hasse", "--poset", "nc", "-n", "2", "--max-rank", "8")
    assert (code, err, len(json.loads(out)["vertices"])) == (0, "", 88)


def test_outputs_at_the_caps_still_print(capsys):
    code, out, err = _invoke(capsys, "rank", "x1000000")
    assert (code, err) == (0, "")
    assert out == "rank: 1000000\nmultirank: [" + ",".join(["1"] * 10**6) + "]\n"
    code, out, err = _invoke(capsys, "walk", "x500000")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["(" + ",".join([c] * 500000) + ")" for c in "01"]
    code, out, err = _invoke(capsys, "covers", "--dir", "up", _power(1, 998))
    assert (code, err, len(out.splitlines())) == (0, "", 999)
    code, out, err = _invoke(capsys, "covers", "--dir", "down", _power(2, 1000))
    assert (code, err, len(out.splitlines())) == (0, "", 1000)


_LETTERS = st.one_of(st.integers(1, 12), st.integers(1, 10**12))
_TEXTS = st.one_of(
    st.lists(_LETTERS, min_size=1, max_size=40).map(lambda w: "*".join(f"x{i}" for i in w)),
    st.builds(_power, _LETTERS, st.integers(1, 5000)),
    st.sampled_from(
        ("1", "", " ", "x0", "x-1", "x+1", "-x1", "+x1", " x1", "x1 ", "x1\t", "x 1",
         "x01", "x1*", "*x1", "x1**x2", "x1^2", "x1^0", "x2^1000000000000")
    ),
    st.text(alphabet="x0123456789*^+- \t", max_size=12),
)


@st.composite
def _adversarial_argv(draw):
    command = draw(st.sampled_from(("rank", "walk", "sort", "abelianize", "covers", "cmp")))
    if command not in ("covers", "cmp"):
        return [command, draw(_TEXTS)]
    if command == "covers":
        argv = ["covers", "--dir", draw(st.sampled_from(("up", "down")))]
    else:
        argv = ["cmp", "--poset", draw(st.sampled_from(("nc", "q", "p", "comm")))]
    if draw(st.booleans()):
        argv += ["-n", str(draw(st.one_of(st.integers(-2, 12), st.integers(1, 10**12))))]
    return argv + [draw(_TEXTS) for _ in range(2 if command == "cmp" else 1)]


@settings(deadline=1000, max_examples=150)
@given(_adversarial_argv())
def test_adversarial_argv_exits_cleanly(argv):
    # huge indices, x0, signs, whitespace and words of up to 5000 letters:
    # each run answers within the deadline, or refuses with nothing on stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3)
    assert code == 0 or out.getvalue() == ""


# A drawn run that the caps admit may build at most this many elements.  The
# caps admit up to 10^6: such runs legitimately take seconds (hasse --poset
# comm -n 1 --max-rank 999999: 1.5 GB), so they are not run here.
_BUILD_BUDGET = 2000


def _range_size(family, n, max_rank, stop):
    """Elements of rank <= max_rank (words, or monomials for "comm") and the words' letters.

    Counting stops once the elements pass ``stop``.  Over one letter both
    have closed forms.
    """
    if n == 1:
        return max_rank + 1, 0 if family == "comm" else max_rank * (max_rank + 1) // 2
    # rank r holds sizes[r] words with lengths[r] letters: a first letter k,
    # then a word of rank r - k; parts[r][k] counts the partitions of r with
    # parts of size <= k, conjugate to the monomials over x1..xk
    elements, letters, sizes, lengths, parts = 1, 0, [1], [0], [[1]]
    for r in range(1, max_rank + 1):
        if elements > stop:
            break
        top = r if n is None else min(n, r)
        if family == "comm":
            row = [0]
            for k in range(1, top + 1):
                row.append(row[-1] + parts[r - k][min(k, r - k)])
            parts.append(row)
            elements += row[-1]
        else:
            sizes.append(sum(sizes[r - k] for k in range(1, top + 1)))
            lengths.append(sum(sizes[r - k] + lengths[r - k] for k in range(1, top + 1)))
            elements, letters = elements + sizes[-1], letters + lengths[-1]
    return elements, letters


def _admits(family, n, max_rank, cap):
    """Whether the caps admit the range; None if it is also larger than the budget."""
    elements, letters = _range_size(family, n, max_rank, cap)
    if elements > cap or letters > LETTERS_PER_WORD * cap:
        return False
    return elements <= _BUILD_BUDGET and letters <= LETTERS_PER_WORD * _BUILD_BUDGET or None


_ALPHABETS = st.sampled_from((1, 2, 3, None))
_BOUNDS = st.integers(0, 10**6)
_RANKS = st.integers(0, 40) | _BOUNDS


@st.composite
def _enumerating_argv(draw):
    """(argv, expected exit code or None) for hasse, series and coconnection."""
    command = draw(st.sampled_from(("hasse", "series", "coconnection")))
    n = draw(_ALPHABETS)
    bound = draw(_RANKS)
    limit = draw(st.none() | _BOUNDS)
    n_args = [] if n is None else ["-n", str(n)]
    if command == "coconnection":
        if n is not None:
            assume(_admits("nc", n, bound, TABLE_LIMIT) is not None)
        return ["coconnection", *n_args, "--max-rank", str(bound)], None
    cap = DEFAULT_LIMIT if limit is None else limit
    limit_args = [] if limit is None else ["--limit", str(limit)]
    if command == "series":
        verify = draw(st.booleans())
        # the table charges its coefficient bits first; admitted, it has bound + 1 rows
        bits = bound + 1 if n == 1 else bound * (bound + 1) // 2
        assume(bits > DEFAULT_LIMIT or bound < _BUILD_BUDGET)
        # --verify counts the words against the caps, building none, so any range is drawn
        admitted = bits <= DEFAULT_LIMIT and (not verify or _admits("nc", n, bound, cap) is not False)
        argv = ["series", *n_args, "--terms", str(bound), *limit_args]
        return argv + ["--verify"] * verify, 0 if admitted else 3
    family = draw(st.sampled_from(("nc", "q", "p", "comm")))
    admitted = _admits(family, n, bound, cap)
    assume(admitted is not None)
    argv = ["hasse", "--poset", family, *n_args, "--max-rank", str(bound), *limit_args]
    return argv + ["--format", draw(st.sampled_from(("json", "dot")))], 0 if admitted else 3


@settings(deadline=1000, max_examples=150)
@given(_enumerating_argv())
def test_enumerating_commands_exit_cleanly(case):
    # ranks, terms and caps up to 10^6 in all four families: each run answers
    # within the deadline, or refuses with nothing on stdout
    argv, expected = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3)
    assert code == 0 or out.getvalue() == ""
    assert expected is None or code == expected


# A drawn closure may look up at most this many letters, kept words
# included.  The cap admits 10^6, about a second of work (closure -n 47619
# x1), so each closure runs with this budget as the cap: a larger one exits
# 3 at it.
_CLOSURE_BUDGET = 20_000
# An admitted check-order run may plan at most this many key comparisons
# (the benchmark's largest cell, n = 3 to degree 4, plans about 21,000).
_ORDER_BUDGET = 50_000
_SMALL_WORDS = st.lists(st.integers(1, 3), min_size=1, max_size=6).map(
    lambda w: "*".join(f"x{i}" for i in w)
)
_GENS = st.lists(_SMALL_WORDS, min_size=1, max_size=3) | st.lists(
    _SMALL_WORDS | _TEXTS, min_size=1, max_size=3
)
_ORDERS = st.one_of(
    st.sampled_from(("deglex", "degrevlex", "lex", "weight:", "weight:1,,2", "weight:x")),
    st.lists(st.integers(1, 8), min_size=1, max_size=5, unique=True).map(
        lambda w: "weight:" + ",".join(map(str, sorted(w)))
    ),
    st.lists(st.integers(-2, 12) | st.integers(1, 10**12), max_size=6).map(
        lambda w: "weight:" + ",".join(map(str, w))
    ),
)


def _order_plan(n, max_degree):
    """Words, letters and planned key comparisons of check-order; None if a cap refuses it first."""
    words = letters = 0
    size = 1
    for d in range(max_degree + 1):
        words, letters, size = words + size, letters + d * size, size * n
        if words > DEFAULT_LIMIT or letters > LETTERS_PER_WORD * DEFAULT_LIMIT:
            return None
    cofactors = 1 + n + n * n
    if cofactors > 1000:
        return None
    return words, letters, (words - 1 + n * (n - 1) // 2) * cofactors**2


@st.composite
def _ideal_and_order_argv(draw):
    """argv for closure, is-stable and check-order."""
    command = draw(st.sampled_from(("closure", "is-stable", "check-order")))
    n = draw(st.integers(1, 4) | st.integers(-2, 12) | st.integers(1, 10**12))
    bound = draw(st.integers(-2, 12) | st.integers(-2, 40) | _BOUNDS)
    if command == "closure":
        return ["closure", "-n", str(n), *draw(_GENS)]
    if command == "is-stable":
        return ["is-stable", "-n", str(n), "--rank-bound", str(bound), *draw(_GENS)]
    if n >= 1 and bound >= 0:
        plan = _order_plan(n, bound)
        if plan is not None and plan[2] <= DEFAULT_LIMIT:
            words, letters, planned = plan
            assume(words <= _BUILD_BUDGET and letters <= LETTERS_PER_WORD * _BUILD_BUDGET)
            assume(planned <= _ORDER_BUDGET)
    argv = ["check-order", "--order", draw(_ORDERS), "-n", str(n), "--max-degree", str(bound)]
    contains = draw(st.sampled_from((None, "nc", "q", "p")))
    return argv + ([] if contains is None else ["--contains", contains])


@settings(deadline=1000, max_examples=150)
@given(_ideal_and_order_argv())
def test_ideal_and_order_commands_exit_cleanly(argv):
    # generators of up to 5000 letters or with huge indices, alphabets and
    # bounds up to 10^12, malformed order specs: each run answers within the
    # deadline, or refuses with nothing on stdout
    out, err = io.StringIO(), io.StringIO()
    budget = _CLOSURE_BUDGET if argv[0] == "closure" else DEFAULT_LIMIT
    with redirect_stdout(out), redirect_stderr(err), mock.patch.object(
        errors, "DEFAULT_LIMIT", budget
    ):
        code = run(argv)
    event(f"{argv[0]} exit {code}")
    # is-stable and check-order print their report with exit 1 on a false verdict
    assert code in ((0, 2, 3) if argv[0] == "closure" else (0, 1, 2, 3))
    assert code in (0, 1) or out.getvalue() == ""


def test_hasse_q_runs_above_the_old_table_cap(capsys):
    code, out, err = _invoke(capsys, "hasse", "--poset", "q", "--max-rank", "15")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["vertices"]) == 32768


def test_limit_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("NCPOSET_LIMIT", "10")
    code, _, err = _invoke(
        capsys, "hasse", "--poset", "nc", "-n", "2", "--max-rank", "12"
    )
    assert code == 3 and "cap" in err
    monkeypatch.setenv("NCPOSET_LIMIT", "100000")
    code, out, _ = _invoke(
        capsys, "hasse", "--poset", "nc", "-n", "2", "--max-rank", "12"
    )
    assert code == 0 and json.loads(out)["max_rank"] == 12


def test_negative_limit_is_a_usage_error(capsys, monkeypatch):
    argv = ("hasse", "--poset", "nc", "--max-rank", "3")
    message = "error: limit must be an int >= 0, got -1\n"
    assert _invoke(capsys, *argv, "--limit", "-1") == (2, "", message)
    assert _invoke(capsys, "series", "--terms", "3", "--verify", "--limit", "-1") == (2, "", message)
    # without --verify nothing is enumerated, but the limit is still checked
    assert _invoke(capsys, "series", "--terms", "3", "--limit", "-1") == (2, "", message)
    monkeypatch.setenv("NCPOSET_LIMIT", "-1")
    assert _invoke(capsys, *argv) == (2, "", message)
    assert _invoke(capsys, "series", "--terms", "3") == (2, "", message)
    monkeypatch.setenv("NCPOSET_LIMIT", "abc")
    assert _invoke(capsys, "series", "--terms", "3") == (
        2, "", "error: NCPOSET_LIMIT must be an integer, got 'abc'\n"
    )
    # the flag still overrides the environment
    assert _invoke(capsys, *argv, "--limit", "0")[0] == 3


def test_rank(capsys):
    code, out, _ = _invoke(capsys, "rank", "x2*x1*x1*x2*x2")
    assert (code, out) == (0, "rank: 8\nmultirank: [5,3]\n")


def test_abelianize_and_sort(capsys):
    assert _invoke(capsys, "abelianize", "x2*x1*x1*x2*x2")[:2] == (
        0,
        "x1^2*x2^3\n",
    )
    assert _invoke(capsys, "sort", "x2*x1*x1*x2*x2")[:2] == (
        0,
        "x1*x1*x2*x2*x2\n",
    )
    assert _invoke(capsys, "abelianize", "1")[:2] == (0, "1\n")


def test_walk(capsys):
    code, out, _ = _invoke(capsys, "walk", "x1*x1*x2")
    assert (code, out) == (0, "(0,0)\n(1,0)\n(2,0)\n(3,1)\n")
    assert _invoke(capsys, "walk", "1")[:2] == (0, "()\n")


def test_closure(capsys):
    code, out, _ = _invoke(capsys, "closure", "-n", "3", "x1")
    assert (code, out) == (0, "x1\nx2\nx3\n")
    code, out, _ = _invoke(capsys, "closure", "-n", "2", "x1*x1")
    assert out == "x1*x1\nx1*x2\nx2*x1\nx2*x2\n"


def test_is_stable_verdicts(capsys):
    code, out, _ = _invoke(capsys, "is-stable", "-n", "2", "--rank-bound", "8", "x2")
    assert code == 0
    assert out.endswith("stable: yes\n")
    code, out, _ = _invoke(capsys, "is-stable", "-n", "2", "--rank-bound", "6", "x1")
    assert code == 1
    assert "generator-raisings: violated (x1 -> x2)" in out
    assert "filter-window (rank <= 6): violated (x1 -> x2)" in out
    assert out.endswith("stable: no\n")


@pytest.mark.parametrize(
    "argv, code, window",
    [
        # 318k words in the window: the scan took 28 s before stability was
        # decided from the generators
        (("-n", "2", "--rank-bound", "25", "x2"), 0, "closed"),
        # past the element cap and the letter cap of an enumeration
        (("-n", "2", "--rank-bound", "1000000", "x1"), 1, "violated (x1 -> x2)"),
        (("-n", "1", "--rank-bound", "7000", "x1"), 0, "closed"),
    ],
)
def test_is_stable_answers_any_rank_bound(capsys, argv, code, window):
    verdict = "yes" if code == 0 else "no"
    assert _invoke(capsys, "is-stable", *argv) == (
        code,
        f"generator-raisings: {window}\n"
        f"filter-window (rank <= {argv[3]}): {window}\n"
        f"stable: {verdict}\n",
        "",
    )


def test_check_order_report(capsys):
    code, out, _ = _invoke(
        capsys, "check-order", "--order", "deglex", "-n", "3", "--max-degree", "3"
    )
    assert code == 0
    assert "multiplicative: yes" in out
    assert "sorted: no" in out
    assert "degree-compatible: yes" in out


def test_check_order_containment_verdicts(capsys):
    code, out, _ = _invoke(
        capsys,
        "check-order",
        "--order",
        "degrevlex",
        "-n",
        "2",
        "--max-degree",
        "4",
        "--contains",
        "q",
    )
    assert code == 0
    assert "contains q: yes" in out
    code, out, _ = _invoke(
        capsys,
        "check-order",
        "--order",
        "deglex",
        "-n",
        "3",
        "--max-degree",
        "3",
        "--contains",
        "q",
    )
    assert code == 1
    assert "contains q: no (witness: x2*x1 < x1*x2" in out


def test_series_with_verification(capsys):
    code, out, _ = _invoke(capsys, "series", "-n", "2", "--terms", "5", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank 0: 1"
    assert lines[-1] == "1 1 2 3 5 8 / verified"


def test_series_plain(capsys):
    code, out, _ = _invoke(capsys, "series", "--terms", "4")
    assert code == 0
    assert out.splitlines()[-1] == "1 1 2 4 8"


def test_coconnection_text_and_json(capsys):
    code, out, _ = _invoke(capsys, "coconnection", "-n", "2", "--max-rank", "4")
    assert code == 0
    assert out.splitlines()[-1] == "result: 0 violated laws"
    code, out, _ = _invoke(
        capsys, "coconnection", "-n", "2", "--max-rank", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(law["status"] == "ok" for law in payload["laws"])


def test_coconnection_over_one_letter_at_the_letter_budget(capsys):
    # recorded while the table was still ordered by inversions; ordering it by
    # the words themselves must not change a byte
    expected = """\
{
  "n": 1,
  "max_rank": 958,
  "laws": [
    {
      "law": "abelianize-monotone",
      "status": "ok",
      "checked": 459361,
      "witness": null
    },
    {
      "law": "sort-monotone",
      "status": "ok",
      "checked": 459361,
      "witness": null
    },
    {
      "law": "word-roundtrip-ascends",
      "status": "ok",
      "checked": 959,
      "witness": null
    },
    {
      "law": "monomial-roundtrip-identity",
      "status": "ok",
      "checked": 959,
      "witness": null
    }
  ]
}
"""
    code, out, err = _invoke(capsys, "coconnection", "-n", "1", "--max-rank", "958", "--json")
    assert (code, out, err) == (0, expected, "")


def test_parse_error_exit_code(capsys):
    code, out, err = _invoke(capsys, "rank", "x0*x1")
    assert code == 2
    assert out == ""
    assert "token 1" in err


def test_usage_error_exit_code(capsys):
    assert _invoke(capsys, "cmp", "--poset", "nope", "x1", "x2")[0] == 2
    assert _invoke(capsys, "hasse", "--poset", "nc")[0] == 2
    assert _invoke(capsys)[0] == 2


def test_bound_violation_exit_code(capsys):
    code, _, err = _invoke(capsys, "cmp", "--poset", "nc", "-n", "2", "x3", "x1")
    assert code == 2
    assert "bound" in err
    code, out, err = _invoke(capsys, "cmp", "--poset", "q", "-n", "3", "x4", "x1")
    assert (code, out) == (2, "")
    assert "bound" in err


def test_cmp_q_decides_long_words_at_once(capsys):
    down = "*".join(f"x{i}" for i in range(40, 0, -1))
    up = "*".join(f"x{i}" for i in range(1, 41))
    assert _invoke(capsys, "cmp", "--poset", "q", down, up)[:2] == (0, "LT\n")
    # equal multiranks leave only sorts, which remove inversions, and each
    # word has one the other lacks: x2 before x1 here, x3 before x2 there
    a, b = "*".join(["x2*x1*x3"] * 10), "*".join(["x1*x3*x2"] * 10)
    assert _invoke(capsys, "cmp", "--poset", "q", a, b)[:2] == (0, "INCOMPARABLE\n")


def test_help_exits_zero(capsys):
    assert _invoke(capsys, "--help")[0] == 0


@pytest.mark.parametrize(
    "argv",
    (
        ("coconnection", "-n", "0", "--max-rank", "3"),
        ("coconnection", "-n", "-2", "--max-rank", "3"),
        ("coconnection", "-n", "2", "--max-rank", "-1"),
        ("check-order", "--order", "deglex", "-n", "0", "--max-degree", "2"),
        ("check-order", "--order", "deglex", "-n", "2", "--max-degree", "-1"),
        ("check-order", "--order", "deglex", "-n", "-1", "--max-degree", "2",
         "--contains", "q"),
    ),
)
def test_certify_rejects_bad_ranges_before_output(capsys, argv):
    code, out, err = _invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    (
        ("series", "-n", "0", "--terms", "4"),
        ("series", "-n", "0", "--terms", "4", "--verify"),
        ("series", "-n", "-2", "--terms", "4"),
        ("covers", "--dir", "up", "-n", "0", "1"),
        ("covers", "--dir", "down", "-n", "0", "1"),
        ("is-stable", "-n", "2", "--rank-bound", "-1", "x1"),
    ),
)
def test_bad_alphabet_and_rank_bounds_rejected_before_output(capsys, argv):
    code, out, err = _invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    (
        ("check-order", "--order", "deglex", "-n", "10", "--max-degree", "9"),
        ("coconnection", "-n", "3", "--max-rank", "18"),
        # about 4.9e8 key comparisons over 993^2 cofactor pairs: refused before any
        ("check-order", "--order", "deglex", "-n", "31", "--max-degree", "1"),
        # the sortedness check alone needs 465 * 993^2 comparisons
        ("check-order", "--order", "degrevlex", "-n", "31", "--max-degree", "0"),
    ),
)
def test_certify_caps_oversized_ranges(capsys, argv):
    code, out, err = _invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert "cap" in err


@pytest.mark.parametrize("max_degree", ("0", "1", "3"))
@pytest.mark.parametrize("contains", ((), ("--contains", "nc")))
def test_check_order_letter_without_weight(capsys, max_degree, contains):
    argv = ("check-order", "--order", "weight:1,2,3", "-n", "5", "--max-degree", max_degree)
    assert _invoke(capsys, *argv, *contains) == (
        2,
        "",
        "error: letter x4 has no weight; the spec covers letters up to x3\n",
    )


def test_parser_reuse_leaks_no_defaults(capsys):
    hasse = ("hasse", "--poset", "nc", "-n", "2", "--max-rank", "12")
    assert _invoke(capsys, *hasse, "--limit", "5")[0] == 3
    code, out, _ = _invoke(capsys, *hasse)
    assert code == 0 and len(json.loads(out)["vertices"]) == 609

    series = ("series", "-n", "2", "--terms", "5")
    assert _invoke(capsys, *series, "--verify")[1].endswith("1 1 2 3 5 8 / verified\n")
    assert _invoke(capsys, *series)[1].endswith("\n1 1 2 3 5 8\n")

    order = ("check-order", "--order", "degrevlex", "-n", "2", "--max-degree", "2")
    assert _invoke(capsys, *order, "--contains", "q")[1].endswith("contains q: yes\n")
    code, out, _ = _invoke(capsys, *order)
    assert code == 0 and "contains" not in out


def test_repeated_usage_error_is_identical(capsys):
    argv = ("cmp", "--poset", "nope", "x1", "x2")
    first = _invoke(capsys, *argv)
    assert first[0] == 2 and first[1] == "" and "invalid choice" in first[2]
    assert _invoke(capsys, *argv) == first


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_import_builds_no_parser():
    # a well-formed call is read from the table: no parser, no argparse; only a
    # declined call builds the shared parser
    probe = (
        "import sys; before = set(sys.modules); import ncposet.cli as c; "
        "c.run(['rank', 'x2*x1']); "
        "print(c._shared_parser.cache_info().currsize, 'argparse' in set(sys.modules) - before); "
        "c.run(['rank', 'x1', 'x2']); print(c._shared_parser.cache_info().currsize)"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert done.stdout == "rank: 3\nmultirank: [2,1]\n0 False\n1\n"
    assert done.stderr.endswith("ncposet: error: unrecognized arguments: x2\n")


def test_import_loads_no_dataclasses():
    # only the modules the import adds: a site hook may load some before it
    probe = (
        "import sys; before = set(sys.modules); import ncposet.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    added = done.stdout.split()
    assert "ncposet.cli" in added
    assert {"dataclasses", "inspect", "argparse", "json"}.isdisjoint(added), added


def test_a_reader_that_closes_the_pipe_ends_the_call_with_exit_141():
    # the graph's DOT text is far larger than a pipe buffer, so the call is still writing
    # when the reader closes the pipe; it exits as a process killed by SIGPIPE, quietly
    argv = [sys.executable, "-m", "ncposet", "hasse", "--poset", "nc", "--max-rank", "14",
            "--format", "dot"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert (first, err) == (b"digraph hasse {\n", b"")
    # read to the end, the same call exits 0
    done = subprocess.run(argv, capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.startswith(first) and done.stdout.endswith(b"}\n")


def _imported(*args):
    """Exit code, stdout, imported modules and stderr of ``python -X importtime *args``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True
    )
    rows = [line.split("|") for line in done.stderr.splitlines() if line.startswith("import time:")]
    modules = {row[-1].strip() for row in rows}
    return done.returncode, done.stdout, modules, done.stderr


def test_a_one_shot_call_imports_no_argparse():
    # against a bare interpreter, so that modules a site hook loads are not counted
    _, _, bare, _ = _imported("-c", "pass")
    code, out, modules, _ = _imported("-m", "ncposet", "rank", "x2*x1")
    assert (code, out) == (0, "rank: 3\nmultirank: [2,1]\n")
    assert "ncposet.cli" in modules
    assert {"argparse", "json", "dataclasses", "inspect"}.isdisjoint(modules - bare)
    # a declined call builds the parser and reports the usage error as argparse does
    code, out, modules, err = _imported("-m", "ncposet", "rank", "x1", "x2")
    assert (code, out) == (2, "")
    assert "argparse" in modules
    assert err.endswith("ncposet: error: unrecognized arguments: x2\n")


def _reference_parser():
    """The command line's argparse calls, written out one by one: the oracle for the table."""
    parser = argparse.ArgumentParser(
        prog="ncposet",
        description="Posets classifying term orders on free-monoid words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_word_argument(p):
        p.add_argument("word", help='word like "x2*x1" ("1" for the identity)')

    p = sub.add_parser("cmp", help="compare two elements in a poset")
    p.add_argument("--poset", required=True, choices=FAMILIES)
    p.add_argument("-n", type=int, default=None, help="alphabet bound")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=cli._cmd_cmp)

    p = sub.add_parser("covers", help="cover sets in the base word order")
    p.add_argument("--dir", required=True, choices=("up", "down"))
    p.add_argument("-n", type=int, default=None)
    add_word_argument(p)
    p.set_defaults(handler=cli._cmd_covers)

    p = sub.add_parser("hasse", help="Hasse graph up to a rank bound")
    p.add_argument("--poset", required=True, choices=FAMILIES)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--max-rank", required=True, type=int)
    p.add_argument("--format", default="json", choices=("json", "dot"))
    p.add_argument("--limit", type=int, default=None, help="vertex cap")
    p.set_defaults(handler=cli._cmd_hasse)

    p = sub.add_parser("rank", help="rank and multirank of a word")
    add_word_argument(p)
    p.set_defaults(handler=cli._cmd_rank)

    p = sub.add_parser("abelianize", help="letter occurrence counts of a word")
    add_word_argument(p)
    p.set_defaults(handler=cli._cmd_abelianize)

    p = sub.add_parser("sort", help="sorted form of a word")
    add_word_argument(p)
    p.set_defaults(handler=cli._cmd_sort)

    p = sub.add_parser("walk", help="lattice walk of a word")
    add_word_argument(p)
    p.set_defaults(handler=cli._cmd_walk)

    p = sub.add_parser("closure", help="strongly stable closure of an ideal")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("gens", nargs="+", metavar="GEN")
    p.set_defaults(handler=cli._cmd_closure)

    p = sub.add_parser("is-stable", help="certify strong stability on a rank window")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--rank-bound", type=int, required=True)
    p.add_argument("gens", nargs="+", metavar="GEN")
    p.set_defaults(handler=cli._cmd_is_stable)

    p = sub.add_parser("check-order", help="validate a term order's axioms")
    p.add_argument("--order", required=True, help="deglex | degrevlex | weight:1,2,3")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--contains", choices=("nc", "q", "p"), default=None)
    p.set_defaults(handler=cli._cmd_check_order)

    p = sub.add_parser("series", help="rank generating function coefficients")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="cross-check by enumeration")
    p.add_argument("--limit", type=int, default=None, help="enumeration cap")
    p.set_defaults(handler=cli._cmd_series)

    p = sub.add_parser("coconnection", help="coconnection law report")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cli._cmd_coconnection)

    return parser


def _parsers(parser):
    """The parser under "" and each of its sub-parsers under its command name."""
    [commands] = [action.choices for action in parser._actions if action.dest == "command"]
    return {"": parser, **commands}


def test_build_parser_matches_the_reference():
    built, reference = _parsers(build_parser()), _parsers(_reference_parser())
    assert list(built) == list(reference) == ["", *cli._COMMANDS]
    assert len(cli._COMMANDS) == 12
    for name, parser in reference.items():
        assert built[name].format_help() == parser.format_help(), name
        assert built[name].format_usage() == parser.format_usage(), name
        assert built[name].get_default("handler") is parser.get_default("handler"), name


# argv that the one-pass dispatch in `run` must parse exactly as the full
# parser does: no command, a first token that is not one, leftovers, a
# missing positional, `--`, `=` values, abbreviated and attached options,
# and invalid choices
_DISPATCH_CORPUS = (
    (),
    ("-h",),
    ("cmp", "-h"),
    ("nope",),
    ("cm",),
    ("nope", "x1"),
    ("-h", "rank"),
    ("--", "rank", "x1"),
    ("rank", "x1", "x2"),
    ("cmp", "--poset", "nc", "x1", "x2", "--bogus"),
    ("cmp", "--poset", "nc", "x1"),
    ("rank",),
    ("rank", "--", "x1"),
    ("rank", "x1", "--", "x2"),
    ("closure", "-n", "2", "--", "x1", "-h"),
    ("series", "--terms", "3", "--", "--verify"),
    ("cmp", "--poset=nc", "x1", "x2"),
    ("hasse", "--poset", "nc", "--max-rank=3"),
    ("cmp", "--pos", "q", "x1", "x2"),
    ("hasse", "--poset", "nc", "--max", "3"),
    ("series", "-n3", "--terms", "4", "--ver"),
    ("cmp", "--poset", "zz", "x1", "x2"),
    ("hasse", "--poset", "nc", "--max-rank", "3", "--format", "svg"),
    ("hasse", "--poset", "nc", "--max-rank", "three"),
    ("covers", "--dir", "up", "--dir=down", "x1"),
    ("cmp", "-n", "-1", "x1", "x2", "--poset", "comm"),
)
_DISPATCH_TOKENS = sorted({token for argv in _DISPATCH_CORPUS for token in argv})


def _without_handler(args):
    return None if args is None else {k: v for k, v in vars(args).items() if k != "handler"}


def _parse_in_full(argv, parser=None):
    """Exit code, stdout, stderr and namespace of a full parser on ``argv``:
    ``parser``, else a new one from `build_parser`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args, code = (parser or build_parser()).parse_args(argv), 0
        except SystemExit as exc:
            args, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), _without_handler(args)


def _parse_through_run(argv):
    """The same four of `run` on ``argv``, each handler replaced by one that records its args."""
    seen = []
    table = {name: (help, lambda args: seen.append(args) or 0, arguments)
             for name, (help, _, arguments) in cli._COMMANDS.items()}
    out, err = io.StringIO(), io.StringIO()
    recording = mock.patch.dict(cli._COMMANDS, table)
    # a declined call gets a new parser, built from the recording table
    with recording, mock.patch.object(cli, "_shared_parser", build_parser):
        with redirect_stdout(out), redirect_stderr(err):
            code = run(list(argv))
    assert len(seen) <= 1
    return code, out.getvalue(), err.getvalue(), _without_handler(seen[0] if seen else None)


def _parse_by_all(argv):
    """`run`, `build_parser` and the reference parser on ``argv``: one outcome each."""
    return (_parse_through_run(argv), _parse_in_full(argv),
            _parse_in_full(argv, _reference_parser()))


@pytest.mark.parametrize("argv", _DISPATCH_CORPUS)
def test_dispatch_parses_as_the_full_parser(argv):
    through_run, in_full, by_reference = _parse_by_all(argv)
    assert through_run == in_full == by_reference


@settings(deadline=1000, max_examples=200)
@given(
    st.one_of(
        st.sampled_from(_DISPATCH_CORPUS).flatmap(st.permutations),
        st.lists(st.sampled_from(_DISPATCH_TOKENS), max_size=8),
    )
)
def test_shuffled_dispatch_tokens_parse_as_the_full_parser(argv):
    through_run, in_full, by_reference = _parse_by_all(argv)
    assert through_run == in_full == by_reference


def _counting_parses(calls):
    """A patch of argparse's parse pass that records each parser it runs."""
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    return mock.patch.object(argparse.ArgumentParser, "parse_known_args", counting)


# argparse spellings of well-formed calls, drawn from each command's arguments
# in the table: exact option strings in any order and repeated, positionals
# interleaved with them (a nargs="+" one as one run), and values that convert
# with surrounding space, a sign or nothing at all
_INT_VALUES = ("0", " 3", "+3", "2 ", "12")
_TEXT_VALUES = ("", "0", " 3", "+3", "1", "x1", "x2*x1", "x1 ", "nope", "rank")


def _argument_values(keywords):
    if keywords.get("choices") is not None:
        return st.sampled_from(sorted(keywords["choices"]))
    return st.sampled_from(_INT_VALUES if keywords.get("type") is int else _TEXT_VALUES)


@st.composite
def _well_formed_argv(draw):
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    units, positionals = [], []
    for strings, keywords in cli._COMMANDS[name][2]:
        if not strings:
            count = draw(st.integers(1, 3)) if keywords.get("nargs") == "+" else 1
            positionals.append([draw(_argument_values(keywords)) for _ in range(count)])
            continue
        for _ in range(draw(st.integers(1 if keywords.get("required") else 0, 3))):
            option = [draw(st.sampled_from(strings))]
            if keywords.get("action") != "store_true":
                option.append(draw(_argument_values(keywords)))
            units.append(option)
    units = draw(st.permutations(units))
    # the positionals keep their order, each one before the option unit its slot names
    slots = draw(st.lists(st.integers(0, len(units)), min_size=len(positionals),
                          max_size=len(positionals)).map(sorted))
    for run, at in reversed(list(zip(positionals, slots))):
        units.insert(at, run)
    return [name, *(token for unit in units for token in unit)]


@settings(deadline=None, max_examples=300)
@given(_well_formed_argv())
def test_well_formed_calls_are_read_without_argparse(argv):
    calls = []
    with _counting_parses(calls):
        through_run = _parse_through_run(argv)
    assert calls == []
    assert through_run == _parse_in_full(argv) == _parse_in_full(argv, _reference_parser())


# argv that the reader must hand to argparse, each with a meaning of its own
# there: an option string or a negative number where a value is due, a lone
# "-" (a positional to argparse), a "+" run split by an option, an empty int
@pytest.mark.parametrize(
    "argv",
    (
        ("check-order", "-n", "2", "--max-degree", "1", "--order", "-h"),
        ("check-order", "-n", "2", "--max-degree", "1", "--order", "--contains"),
        ("cmp", "-n", "-1", "--poset", "nc", "x1", "x2"),
        ("cmp", "--poset", "nc", "-n"),
        ("rank", "-"),
        ("closure", "-n", "2", "x1", "-n", "3", "x2"),
        ("hasse", "--poset", "nc", "--max-rank", ""),
        ("series", "--terms", "3", "--verify", "x1"),
    ),
)
def test_declined_calls_parse_as_the_full_parser(argv):
    assert cli._read(list(argv)) is None
    through_run, in_full, by_reference = _parse_by_all(argv)
    assert through_run == in_full == by_reference


def test_a_command_is_parsed_in_one_pass(capsys):
    calls = []
    with _counting_parses(calls):
        assert _invoke(capsys, "rank", "x2*x1")[:2] == (0, "rank: 3\nmultirank: [2,1]\n")
        # a well-formed call is read with no argparse pass at all
        assert calls == []
        # leftovers go to the full parser, which reports them as it always has
        code, out, err = _invoke(capsys, "rank", "x1", "x2")
    assert (code, out) == (2, "")
    assert err.endswith("ncposet: error: unrecognized arguments: x2\n")
