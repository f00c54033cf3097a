"""Command-line surface: every library capability behind one executable.

Verdict-style subcommands signal through the exit code so shell pipelines
can branch: 0 success or true verdict, 1 false verdict, 2 usage or parse
error, 3 resource cap exceeded, 141 (128 + SIGPIPE) a reader that closed
the pipe early.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from .commutative import check_coconnection
from .errors import LimitError, ParseError, _cap
from .ideals import is_strongly_stable, minimalize, strongly_stable_closure
from .ncorder import covers_down, covers_up, walk
from .posets import FAMILIES, PosetHandle, _hasse_text, compare
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
    # the text of hasse(...).to_json() or .to_dot(), written without building the graph
    print(_hasse_text(PosetHandle(args.poset, args.n), args.max_rank, _resolve_limit(args),
                      args.format))
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
    print("\n".join(report.format_lines()))
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
    print("\n".join(table.format_lines()))
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
    print(report.to_json() if args.json else "\n".join(report.format_lines()))
    return 0


def _arg(*strings, **keywords) -> tuple[tuple[str, ...], dict]:
    """One argument of the table: its option strings and its `add_argument` keywords."""
    return strings, keywords


_WORD = _arg(dest="word", help='word like "x2*x1" ("1" for the identity)')
_GENS = _arg(dest="gens", nargs="+", metavar="GEN")
_N = _arg("-n", dest="n", type=int, default=None)
_N_REQUIRED = _arg("-n", dest="n", type=int, required=True)

# The command line, one entry per command in the order of the help: the command's
# help, its handler and its arguments in order, each one as `add_argument` takes it,
# its dest named (no option strings make a positional).  An option stores one value
# or is store-true; a nargs="+" positional comes last.
_COMMANDS = {
    "cmp": ("compare two elements in a poset", _cmd_cmp, (
        _arg("--poset", dest="poset", required=True, choices=FAMILIES),
        _arg("-n", dest="n", type=int, default=None, help="alphabet bound"),
        _arg(dest="a"), _arg(dest="b"),
    )),
    "covers": ("cover sets in the base word order", _cmd_covers, (
        _arg("--dir", dest="dir", required=True, choices=("up", "down")), _N, _WORD)),
    "hasse": ("Hasse graph up to a rank bound", _cmd_hasse, (
        _arg("--poset", dest="poset", required=True, choices=FAMILIES),
        _N,
        _arg("--max-rank", dest="max_rank", required=True, type=int),
        _arg("--format", dest="format", default="json", choices=("json", "dot")),
        _arg("--limit", dest="limit", type=int, default=None, help="vertex cap"),
    )),
    "rank": ("rank and multirank of a word", _cmd_rank, (_WORD,)),
    "abelianize": ("letter occurrence counts of a word", _cmd_abelianize, (_WORD,)),
    "sort": ("sorted form of a word", _cmd_sort, (_WORD,)),
    "walk": ("lattice walk of a word", _cmd_walk, (_WORD,)),
    "closure": ("strongly stable closure of an ideal", _cmd_closure, (_N_REQUIRED, _GENS)),
    "is-stable": ("certify strong stability on a rank window", _cmd_is_stable, (
        _N_REQUIRED,
        _arg("--rank-bound", dest="rank_bound", type=int, required=True),
        _GENS,
    )),
    "check-order": ("validate a term order's axioms", _cmd_check_order, (
        _arg("--order", dest="order", required=True, help="deglex | degrevlex | weight:1,2,3"),
        _N_REQUIRED,
        _arg("--max-degree", dest="max_degree", type=int, required=True),
        _arg("--contains", dest="contains", choices=("nc", "q", "p"), default=None),
    )),
    "series": ("rank generating function coefficients", _cmd_series, (
        _N,
        _arg("--terms", dest="terms", type=int, required=True),
        _arg("--verify", dest="verify", action="store_true", help="cross-check by enumeration"),
        _arg("--limit", dest="limit", type=int, default=None, help="enumeration cap"),
    )),
    "coconnection": ("coconnection law report", _cmd_coconnection, (
        _N_REQUIRED,
        _arg("--max-rank", dest="max_rank", type=int, required=True),
        _arg("--json", dest="json", action="store_true"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """A new argparse parser for the command line, built from `_COMMANDS`."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ncposet", description="Posets classifying term orders on free-monoid words.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for strings, keywords in arguments:
            p.add_argument(*strings, **keywords)
        p.set_defaults(handler=handler)
    return parser


def _lookups(arguments) -> tuple[dict, list, dict, set]:
    """One command's options by option string, its positionals in order, the defaults argparse
    sets and the dests it requires, each argument as (dest, store-true, type, choices, nargs)."""
    options, positionals, defaults, required = {}, [], {}, set()
    for strings, keywords in arguments:
        get = keywords.get
        flag = get("action") == "store_true"
        argument = keywords["dest"], flag, get("type"), get("choices"), get("nargs")
        defaults[argument[0]] = get("default", False if flag else None)
        if not strings:
            positionals.append(argument)
        if not strings or get("required"):
            required.add(argument[0])
        options.update(dict.fromkeys(strings, argument))
    return options, positionals, defaults, required


_GRAMMAR = {name: _lookups(arguments) for name, (_, _, arguments) in _COMMANDS.items()}


def _value(argument, token):
    """``token`` as ``argument``'s value: converted by its type, in its choices."""
    if token[:1] == "-":
        raise ValueError(token)
    _, _, convert, choices, _ = argument
    value = token if convert is None else convert(token)
    if choices is not None and value not in choices:
        raise ValueError(token)
    return value


def _read(argv):
    """The namespace ``build_parser().parse_args(argv)`` builds, or None.

    The grammar is the command's entry in `_COMMANDS`.  Read are its exact option
    strings, each value the next token, and positionals in order, a nargs="+" one as
    one run.  No value or positional starts with "-", and each passes through its
    argument's type and choices.  Anything else gives None: no command or an unknown
    one, help, "--", "=" and attached values, abbreviations, a failed conversion or
    choice, a missing or a leftover argument.  The full parser then parses the call.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    options, positionals, defaults, required = _GRAMMAR[argv[0]]
    # the attributes argparse sets: the command, its arguments' defaults, the handler
    values = {"command": argv[0], **defaults, "handler": _COMMANDS[argv[0]][1]}
    seen, run, pending, tokens = set(), None, iter(positionals), iter(argv[1:])
    try:
        for token in tokens:
            if token[:1] == "-":
                argument, run = options.get(token), None
                if argument is None:
                    return None
                value = True if argument[1] else _value(argument, next(tokens, "-"))
            elif run is not None:
                run.append(_value(argument, token))
                continue
            else:
                argument = next(pending)  # StopIteration: a positional too many
                value = _value(argument, token)
                if argument[4] == "+":
                    value = run = [value]
            values[argument[0]] = value
            seen.add(argument[0])
    except (ValueError, StopIteration):
        return None
    # argparse would also pass an unused string default through the argument's
    # type; no default here has a type, so each default is taken as it is
    return SimpleNamespace(**values) if required <= seen else None


# Building the argparse parser costs far more than reading one argv, and
# importing argparse costs as much again, so `run` reads every call it can
# with `_read`, from the table, and never imports argparse for it.  Only a
# call the reader declines (no command, an unknown one, help, another
# spelling, a bad or leftover argument) builds the full parser, once per
# process, which parses it or prints its usage error.  Each call starts
# from a fresh namespace, so nothing carries over between calls.
_shared_parser = functools.lru_cache(maxsize=1)(build_parser)


def run(argv) -> int:
    """Parse argv and dispatch; returns the process exit code.

    A well-formed call is read from the table without argparse; the parser is
    built once per process, on the first call that needs it, so `run` may be
    called repeatedly in-process.
    """
    args = _read(argv)
    try:
        if args is None:  # declined by the reader: argparse parses it
            args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (LimitError, ValueError, TypeError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, LimitError) else 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the pipe: exit as SIGPIPE would, 128 + 13
        # the interpreter flushes stdout again at exit, so it writes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
