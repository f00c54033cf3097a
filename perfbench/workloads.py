"""Seeded request lists for the three benchmark workloads.

Each request is a dict with the CLI ``argv`` and an ``expect`` entry that
`checks.check_output` understands.  Everything here is plain data made from
``random.Random(seed)``: the library never sees the seed, only the argv.

Draws are balanced: a cell (say spec x alphabet x degree) is dealt from
shuffled decks that hold every value equally often, so the multiset of
requests, and with it the total work and the latency percentiles, hardly
depends on the seed.  The seed decides the order of the requests, the
pairing of cells with dealt values, and the words, monomials and
generators of the short queries.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1

# Highest rank per family: every rank from max // 2 up to max is requested
# once per alphabet.  The p family reduces its full comparability digraph
# (O(N^2) p_leq calls), so it gets the smallest bound.
HASSE_MAX_RANK = {"nc": 12, "q": 10, "p": 9, "comm": 16}
ALPHABETS = (2, 3, 4, None)

ORDER_SPECS = ("deglex", "degrevlex", "weight:1,2,3", "weight:1,3,4", "weight:2,3,5")
# (n, max degree) pairs for check-order.  (3, 3) is left out: one such
# request costs 0.35-0.8 s, as much as ten or more of the others.
ORDER_RANGES = ((2, 2), (2, 3), (2, 4), (3, 2))
CONTAINS = (None, "nc", "q", "p")
# (n, max rank) cells for coconnection.  Rank 8 costs 1.4-1.6 s cold for
# n = 3 and 4, so it is drawn only for n = 2.
COCONNECTION_CELLS = tuple(
    (n, r) for n in (2, 3, 4) for r in range(4, 9) if r < 8 or n == 2
)

TINY_KINDS = (
    "cmp:nc", "cmp:q", "cmp:p", "cmp:comm",
    "covers:up", "covers:down", "rank", "abelianize", "sort", "walk",
)
ERROR_KINDS = ("malformed", "above-n", "limit")


def _deal(rng: random.Random, values, count: int) -> list:
    """``count`` draws from decks that each hold every value once."""
    out: list = []
    while len(out) < count:
        deck = list(values)
        rng.shuffle(deck)
        out.extend(deck)
    return out[:count]


def _word_text(letters) -> str:
    return "*".join(f"x{i}" for i in letters) if letters else "1"


def _random_word(rng: random.Random, top: int, max_len: int, min_len: int = 0) -> tuple:
    return tuple(rng.randint(1, top) for _ in range(rng.randint(min_len, max_len)))


def _monomial_text(rng: random.Random, top: int) -> str:
    parts = []
    for i in range(1, top + 1):
        e = rng.choice((0, 0, 1, 2))
        if e:
            parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    return "*".join(parts) or "1"


def _n_args(n) -> list[str]:
    return [] if n is None else ["-n", str(n)]


def hasse_mix(rng: random.Random) -> list[dict]:
    out = []
    for family, top in HASSE_MAX_RANK.items():
        for n in ALPHABETS:
            for r in range(top // 2, top + 1):
                # alternate by rank, and across alphabets at each rank
                fmt = "json" if (r + ALPHABETS.index(n)) % 2 == 0 else "dot"
                argv = ["hasse", "--poset", family, *_n_args(n), "--max-rank", str(r),
                        "--format", fmt]
                out.append({"argv": argv, "expect": {
                    "kind": "hasse", "family": family, "n": n, "max_rank": r,
                    "format": fmt}})
    rng.shuffle(out)
    return out


def certify_mix(rng: random.Random) -> list[dict]:
    orders = []
    cells = [(spec, nd) for spec in ORDER_SPECS for nd in ORDER_RANGES]
    # four per cell puts p90 inside the cluster of (2, 4) weight-order checks
    order_cells = _deal(rng, cells, 4 * len(cells))
    for (spec, (n, d)), contains in zip(order_cells, _deal(rng, CONTAINS, len(order_cells))):
        argv = ["check-order", "--order", spec, "-n", str(n), "--max-degree", str(d)]
        if contains:
            argv += ["--contains", contains]
        orders.append({"argv": argv, "expect": {"kind": "check-order", "contains": contains}})
    # Coconnection reports keep one order, ranks rising, so each one finds
    # the same q_leq cache state whatever the seed: a shuffled order moved
    # the latency percentiles by 10% from seed to seed.
    reports = []
    for n, r in sorted(COCONNECTION_CELLS, key=lambda cell: cell[::-1]):
        for as_json in (False, True, False, True):
            argv = ["coconnection", "-n", str(n), "--max-rank", str(r)]
            if as_json:
                argv.append("--json")
            reports.append({"argv": argv, "expect": {"kind": "coconnection", "json": as_json}})
    total = len(orders) + len(reports)
    slots = set(rng.sample(range(total), len(reports)))
    orders.reverse()
    reports.reverse()
    return [(reports if i in slots else orders).pop() for i in range(total)]


def _tiny(rng: random.Random, kind: str) -> dict:
    n = rng.choice(ALPHABETS)
    top = 4 if n is None else n
    if kind.startswith("cmp:"):
        family = kind[4:]
        if family == "comm":
            a, b = _monomial_text(rng, top), _monomial_text(rng, top)
        else:
            # q_leq is a breadth-first search; short words keep it a tiny call
            max_len = 4 if family == "q" else 6
            a = _word_text(_random_word(rng, top, max_len))
            b = _word_text(_random_word(rng, top, max_len))
        return {"argv": ["cmp", "--poset", family, *_n_args(n), a, b],
                "expect": {"kind": "cmp"}}
    if kind.startswith("covers:"):
        word = _word_text(_random_word(rng, top, 6))
        return {"argv": ["covers", "--dir", kind[7:], *_n_args(n), word],
                "expect": {"kind": "plain"}}
    letters = _random_word(rng, 6, 7)
    return {"argv": [kind, _word_text(letters)],
            "expect": {"kind": kind, "word": list(letters)}}


def _medium(rng: random.Random, kind: str, size: int | None) -> dict:
    n = rng.randint(2, 4)
    gens = [_word_text(_random_word(rng, n, 3, min_len=1)) for _ in range(rng.randint(1, 3))]
    if kind == "closure":
        return {"argv": ["closure", "-n", str(n), *gens],
                "expect": {"kind": "closure", "n": n, "gens": gens}}
    if kind == "is-stable":
        return {"argv": ["is-stable", "-n", str(n), "--rank-bound", str(size), *gens],
                "expect": {"kind": "is-stable"}}
    n = rng.choice(ALPHABETS)
    return {"argv": ["series", *_n_args(n), "--terms", str(size), "--verify"],
            "expect": {"kind": "series", "n": n, "terms": size}}


_MALFORMED = ("x0", "x1**x2", "y3", "x1*", "x01", "2", "x-1", "x1^2")


def _error(rng: random.Random, kind: str) -> dict:
    if kind == "malformed":
        bad = rng.choice(_MALFORMED)
        command = rng.choice((["rank"], ["sort"], ["walk"], ["covers", "--dir", "up"],
                              ["cmp", "--poset", "nc", "x1"]))
        return {"argv": [*command, bad], "expect": {"kind": "error", "code": 2}}
    if kind == "above-n":
        n = rng.randint(1, 3)
        word = _word_text((*_random_word(rng, n, 3), n + rng.randint(1, 3)))
        command = rng.choice((["covers", "--dir", "up"], ["cmp", "--poset", "q"],
                              ["cmp", "--poset", "nc"]))
        argv = [*command, "-n", str(n), word]
        if command[0] == "cmp":
            argv.append("x1")
        return {"argv": argv, "expect": {"kind": "error", "code": 2}}
    family = rng.choice(("nc", "q", "p", "comm"))
    rank = rng.randint(8, 12)
    return {"argv": ["hasse", "--poset", family, "--max-rank", str(rank),
                     "--limit", str(rng.randint(5, 40))],
            "expect": {"kind": "error", "code": 3}}


def query_mix(rng: random.Random) -> list[dict]:
    out = [_tiny(rng, kind) for kind in TINY_KINDS for _ in range(102)]
    out += [_medium(rng, "closure", None) for _ in range(40)]
    out += [_medium(rng, "is-stable", bound) for bound in _deal(rng, range(6, 11), 40)]
    out += [_medium(rng, "series", terms) for terms in _deal(rng, range(6, 14), 40)]
    out += [_error(rng, kind) for kind in ERROR_KINDS for _ in range(20)]
    rng.shuffle(out)
    return out


GENERATORS = {"hasse_mix": hasse_mix, "certify_mix": certify_mix, "query_mix": query_mix}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[dict]:
    """The request list of ``workload`` for ``seed``; same seed, same list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
