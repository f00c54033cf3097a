"""Command-line surface: every library capability behind one executable.

Verdict-style subcommands signal through the exit code so shell pipelines
can branch: 0 success or true verdict, 1 false verdict, 2 usage or parse
error, 3 resource cap exceeded.  Results go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .commutative import check_coconnection
from .errors import LimitError, ParseError, _cap
from .ideals import is_strongly_stable, minimalize, strongly_stable_closure
from .ncorder import covers_down, covers_up, walk
from .posets import FAMILIES, PosetHandle, compare, hasse
from .series import enumerate_by_rank, rank_coefficients
from .termorders import contains_poset, parse_order_spec, validate_order
from .words import (
    abelianize,
    check_word,
    format_monomial,
    format_multirank,
    format_word,
    multirank,
    parse_monomial,
    parse_word,
    rank,
    sorted_form,
)


def _resolve_limit(args) -> int | None:
    """The ``--limit`` flag, else ``NCPOSET_LIMIT``, else None; `ValueError` unless an int >= 0."""
    env = os.environ.get("NCPOSET_LIMIT")
    limit = args.limit
    if limit is None and env is not None:
        try:
            limit = int(env)
        except ValueError as exc:
            raise ParseError(f"NCPOSET_LIMIT must be an integer, got {env!r}") from exc
    _cap(limit)
    return limit


def _cmd_cmp(args) -> int:
    handle = PosetHandle(args.poset, args.n)
    if args.poset == "comm":
        a, b = parse_monomial(args.a), parse_monomial(args.b)
    else:
        a, b = parse_word(args.a), parse_word(args.b)
    print(compare(handle, a, b))
    return 0


def _cmd_covers(args) -> int:
    w = parse_word(args.word)
    out = covers_up(w, args.n) if args.dir == "up" else covers_down(check_word(w, args.n))
    # every cover is one rank away from w, so text order is canonical order
    for text in sorted(map(format_word, out)):
        print(text)
    return 0


def _cmd_hasse(args) -> int:
    graph = hasse(PosetHandle(args.poset, args.n), args.max_rank, _resolve_limit(args))
    print(graph.to_json() if args.format == "json" else graph.to_dot())
    return 0


def _cmd_rank(args) -> int:
    w = parse_word(args.word)
    components = multirank(w)  # before any output, so a cap leaves stdout empty
    print(f"rank: {rank(w)}")
    print(f"multirank: {format_multirank(components)}")
    return 0


def _cmd_abelianize(args) -> int:
    print(format_monomial(abelianize(parse_word(args.word))))
    return 0


def _cmd_sort(args) -> int:
    print(format_word(sorted_form(parse_word(args.word))))
    return 0


def _cmd_walk(args) -> int:
    for point in walk(parse_word(args.word)):
        print("(" + ",".join(str(c) for c in point) + ")")
    return 0


def _cmd_closure(args) -> int:
    gens = [parse_word(g) for g in args.gens]
    closed = strongly_stable_closure(minimalize(gens, args.n))
    for g in closed.gens:
        print(format_word(g))
    return 0


def _cmd_is_stable(args) -> int:
    gens = [parse_word(g) for g in args.gens]
    result = is_strongly_stable(minimalize(gens, args.n), args.rank_bound)
    if result.generators_closed:
        print("generator-raisings: closed")
    else:
        g, w = result.generator_witness
        print(f"generator-raisings: violated ({format_word(g)} -> {format_word(w)})")
    if result.window_closed:
        print(f"filter-window (rank <= {args.rank_bound}): closed")
    else:
        m, c = result.window_witness
        print(
            f"filter-window (rank <= {args.rank_bound}): violated "
            f"({format_word(m)} -> {format_word(c)})"
        )
    print(f"stable: {'yes' if result.window_closed else 'no'}")
    return 0 if result.window_closed else 1


def _cmd_check_order(args) -> int:
    spec = parse_order_spec(args.order)
    handle = PosetHandle(args.contains, args.n) if args.contains else None
    report = validate_order(spec, args.n, args.max_degree)
    for line in report.format_lines():
        print(line)
    code = 0 if report.axioms_ok else 1
    if handle is not None:
        ok, witness = contains_poset(spec, handle, args.max_degree)
        if ok:
            print(f"contains {args.contains}: yes")
        else:
            a, b = witness
            print(
                f"contains {args.contains}: no "
                f"(witness: {format_word(a)} < {format_word(b)} in the poset, "
                f"but the order disagrees)"
            )
            code = 1
    return code


def _cmd_series(args) -> int:
    table = rank_coefficients(args.terms, args.n)
    limit = _resolve_limit(args)  # before any output, so a bad or hit cap leaves stdout empty
    counts = enumerate_by_rank(args.terms, args.n, limit) if args.verify else None
    for line in table.format_lines():
        print(line)
    summary = " ".join(str(c) for c in table.coefficients)
    if counts is not None:
        for k, (c, e) in enumerate(zip(table.coefficients, counts)):
            if c != e:
                print(summary)
                print(
                    f"verification mismatch at rank {k}: table {c}, enumeration {e}",
                    file=sys.stderr,
                )
                return 1
        print(f"{summary} / verified")
    else:
        print(summary)
    return 0


def _cmd_coconnection(args) -> int:
    report = check_coconnection(args.n, args.max_rank)
    if args.json:
        print(report.to_json())
    else:
        for line in report.format_lines():
            print(line)
    return 0


def _add_word_argument(parser, name="word"):
    parser.add_argument(name, help='word like "x2*x1" ("1" for the identity)')


def build_parser() -> argparse.ArgumentParser:
    return _parser_and_commands()[0]


def _parser_and_commands() -> tuple[argparse.ArgumentParser, dict]:
    """The full parser, and its sub-parsers by command name."""
    parser = argparse.ArgumentParser(
        prog="ncposet",
        description="Posets classifying term orders on free-monoid words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cmp", help="compare two elements in a poset")
    p.add_argument("--poset", required=True, choices=FAMILIES)
    p.add_argument("-n", type=int, default=None, help="alphabet bound")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_cmp)

    p = sub.add_parser("covers", help="cover sets in the base word order")
    p.add_argument("--dir", required=True, choices=("up", "down"))
    p.add_argument("-n", type=int, default=None)
    _add_word_argument(p)
    p.set_defaults(handler=_cmd_covers)

    p = sub.add_parser("hasse", help="Hasse graph up to a rank bound")
    p.add_argument("--poset", required=True, choices=FAMILIES)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--max-rank", required=True, type=int)
    p.add_argument("--format", default="json", choices=("json", "dot"))
    p.add_argument("--limit", type=int, default=None, help="vertex cap")
    p.set_defaults(handler=_cmd_hasse)

    p = sub.add_parser("rank", help="rank and multirank of a word")
    _add_word_argument(p)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("abelianize", help="letter occurrence counts of a word")
    _add_word_argument(p)
    p.set_defaults(handler=_cmd_abelianize)

    p = sub.add_parser("sort", help="sorted form of a word")
    _add_word_argument(p)
    p.set_defaults(handler=_cmd_sort)

    p = sub.add_parser("walk", help="lattice walk of a word")
    _add_word_argument(p)
    p.set_defaults(handler=_cmd_walk)

    p = sub.add_parser("closure", help="strongly stable closure of an ideal")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("gens", nargs="+", metavar="GEN")
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("is-stable", help="certify strong stability on a rank window")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--rank-bound", type=int, required=True)
    p.add_argument("gens", nargs="+", metavar="GEN")
    p.set_defaults(handler=_cmd_is_stable)

    p = sub.add_parser("check-order", help="validate a term order's axioms")
    p.add_argument("--order", required=True, help="deglex | degrevlex | weight:1,2,3")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--contains", choices=("nc", "q", "p"), default=None)
    p.set_defaults(handler=_cmd_check_order)

    p = sub.add_parser("series", help="rank generating function coefficients")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="cross-check by enumeration")
    p.add_argument("--limit", type=int, default=None, help="enumeration cap")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("coconnection", help="coconnection law report")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_coconnection)

    return parser, sub.choices


def _value(action, token):
    """``token`` as ``action``'s value: converted by its type, in its choices."""
    if token[:1] == "-":
        raise ValueError(token)
    value = token if action.type is None else action.type(token)
    if action.choices is not None and value not in action.choices:
        raise ValueError(token)
    return value


def _read(command, tokens):
    """The namespace ``command.parse_known_args(tokens)`` builds, or None.

    The grammar is the sub-parser's own actions and defaults.  Read are exact
    option strings that store one value or store true, each value the next
    token, and positionals in order, a ``nargs="+"`` one only as the last
    and in one run.  No value or positional starts with "-", and each passes
    through its action's type and choices.  Anything else gives None: help,
    "--", "=" and attached values, abbreviations, a failed conversion or
    choice, a missing or a leftover argument.  The full parser then parses
    the call and reports it as it always has.
    """
    args = argparse.Namespace()
    values = vars(args)
    for action in command._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            values.setdefault(action.dest, action.default)
    for dest, default in command._defaults.items():
        values.setdefault(dest, default)
    positionals = [action for action in command._actions if not action.option_strings]
    seen, run = set(), None
    tokens = iter(tokens)
    try:
        for token in tokens:
            if token[:1] == "-":
                action, run = command._option_string_actions.get(token), None
                if type(action) is argparse._StoreTrueAction:
                    value = True
                elif type(action) is argparse._StoreAction and action.nargs is None:
                    value = _value(action, next(tokens, "-"))
                else:
                    return None
            elif run is not None:
                run.append(_value(action, token))
                continue
            elif positionals:
                action = positionals.pop(0)
                value = _value(action, token)
                if action.nargs == "+" and not positionals:
                    value = run = [value]
                elif action.nargs is not None:
                    return None
            else:
                return None
            values[action.dest] = value
            seen.add(action)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    # argparse would also pass an unused string default through the action's
    # type; no default here has a type, so each default is taken as it is
    return None if any(a.required and a not in seen for a in command._actions) else args


# Building the parser costs far more than parsing one argv, so `run` builds
# it on first use and keeps it for the life of the process.  A call that
# names a command is read by `_read` from that command's sub-parser, with no
# argparse pass: a parse costs several times the read.  Every call the
# reader declines (no command, an unknown one, help, another spelling, a
# bad or leftover argument) goes to the full parser, which parses it or
# prints its usage error.  Each call starts from a fresh namespace, so
# nothing carries over between calls.
_shared_parser = functools.lru_cache(maxsize=1)(_parser_and_commands)


def run(argv) -> int:
    """Parse argv and dispatch; returns the process exit code.

    The parser is built once per process, so `run` may be called repeatedly
    in-process; a well-formed call is read without an argparse pass.
    """
    parser, commands = _shared_parser()
    command = commands.get(argv[0]) if argv else None
    args = None if command is None else _read(command, argv[1:])
    try:
        if args is None:  # declined by the reader: argparse parses it
            args = parser.parse_args(argv)
        else:
            args.command = argv[0]
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (LimitError, ValueError, TypeError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, LimitError) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
