"""Layer tracing from outside the library, for the traced benchmark pass.

`Tracer.install` replaces each target function with a timing wrapper in
every ``ncposet.*`` module that binds it (the package namespace included),
so calls through any import path are seen.  Nothing under ``src/`` knows
about it, and an untraced pass never imports this module.

Coarse layers (Hasse builds, validators, enumerations, ``cli.run``) keep one
span per call: id, parent span, request index, name, start, end.  Hot
per-pair kernels (``order_compare``, ``p_leq``, ``q_leq``, ``comm_leq``,
``nc_leq``, ...) are called up to millions of times a pass, so they only add
to per-name totals.  Self time is a call's duration minus the time spent in
wrapped calls it made.  Everything stays in memory until the pass ends.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _size(args, result) -> dict:
    return {"elements": len(result)}


def _graph(args, result) -> dict:
    return {"vertices": len(result.vertices), "edges": len(result.edges)}


def _reduction(args, result) -> dict:
    return {"raw_edges": len(args[1]), "kept_edges": len(result)}


def _text(args, result) -> dict:
    return {"bytes": len(result)}


# metric prefix -> (module, attribute, keeps spans, counters from (args, result))
TARGETS = {
    "posets.hasse": ("ncposet.posets", "hasse", True, _graph),
    "posets.transitive_reduction": ("ncposet.posets", "_transitive_reduction", True, _reduction),
    "posets.to_json": ("ncposet.posets", "HasseGraph.to_json", True, _text),
    "posets.to_dot": ("ncposet.posets", "HasseGraph.to_dot", True, _text),
    "posets.leq": ("ncposet.posets", "leq", False, None),
    "variants.p_leq": ("ncposet.variants", "p_leq", False, None),
    "variants.q_leq": ("ncposet.variants", "q_leq", False, None),
    "variants.swap_successors": ("ncposet.variants", "swap_successors", False, None),
    "termorders.validate_order": ("ncposet.termorders", "validate_order", True, None),
    "termorders.order_compare": ("ncposet.termorders", "order_compare", False, None),
    "termorders.contains_poset": ("ncposet.termorders", "contains_poset", True, None),
    "commutative.check_coconnection": ("ncposet.commutative", "check_coconnection", True, None),
    "commutative.comm_leq": ("ncposet.commutative", "comm_leq", False, None),
    "commutative.monomials_up_to_rank": (
        "ncposet.commutative", "monomials_up_to_rank", True, _size),
    "words.words_up_to_rank": ("ncposet.words", "words_up_to_rank", True, _size),
    "words.words_up_to_degree": ("ncposet.words", "words_up_to_degree", True, _size),
    "words.parse_word": ("ncposet.words", "parse_word", False, None),
    "ncorder.covers_up": ("ncposet.ncorder", "covers_up", False, None),
    "ncorder.nc_leq": ("ncposet.ncorder", "nc_leq", False, None),
    "ideals.strongly_stable_closure": ("ncposet.ideals", "strongly_stable_closure", True, None),
    "ideals.is_strongly_stable": ("ncposet.ideals", "is_strongly_stable", True, None),
    "ideals.ideal_member": ("ncposet.ideals", "ideal_member", False, None),
    "series.enumerate_by_rank": ("ncposet.series", "enumerate_by_rank", True, None),
    "cli.run": ("ncposet.cli", "run", True, None),
}


class Tracer:
    """Per-name totals and kept spans of one traced pass.

    ``totals[name]`` holds ``calls``, ``self_s`` and the counters of
    `TARGETS`; ``spans`` rows are [id, parent id, request, name, start, end].
    The worker sets ``request`` before each request.
    """

    def __init__(self) -> None:
        self.request = -1
        self.totals: dict[str, dict] = {}
        self.spans: list[list] = []
        self._frames: list[list[float]] = []
        self._open: list[int] = []

    def install(self) -> list[str]:
        """Wrap every target that exists; return the names that do not."""
        missing = []
        for name, (module_name, attr, keep, counter) in TARGETS.items():
            owner = sys.modules.get(module_name)
            cls_name, _, fn_name = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if fn is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, fn, keep, counter)
            if cls_name:
                setattr(owner, fn_name, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "ncposet":
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
        return missing

    def _wrap(self, name, fn, keep, counter):
        stats = self.totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        frames, spans, opened = self._frames, self.spans, self._open
        tracer = self

        if not keep:
            def hot(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    frames.pop()
                    if frames:
                        frames[-1][0] += elapsed
                    stats["calls"] += 1
                    stats["self_s"] += elapsed - frame[0]
            return hot

        def kept(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            span = [len(spans), opened[-1] if opened else None, tracer.request, name, 0.0, 0.0]
            spans.append(span)
            opened.append(span[0])
            span[4] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = end = perf_counter()
                opened.pop()
                frames.pop()
                if frames:
                    frames[-1][0] += end - start
                stats["calls"] += 1
                stats["self_s"] += end - start - frame[0]
            if counter is not None:
                for key, value in counter(args, result).items():
                    stats[key] = stats.get(key, 0) + value
            return result
        return kept
