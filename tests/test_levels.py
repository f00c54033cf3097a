"""The rank levels against the element-by-element builders they replaced.

`words._word_levels` builds each rank a first-letter block at a time from its
tail level, and `commutative._partition_levels` reads each partition's label
and exponent items off its rows in one pass.  The builders below are the
earlier ones, kept here as oracles: each word, label and multirank made on its
own from the tail's, and each partition's label and items from its exponent
dict.  Both sides must agree exactly, level by level, whatever order the ranks
are asked for in on one store (each test starts from an empty one).
"""

import random

import pytest

from ncposet.commutative import _box_covers, _partition_levels
from ncposet.words import _word_levels

ALPHABETS = [1, 2, 3, 4, 10, 11, None]  # 10 and 11 put x10 and x11 between x1 and x2


def _oracle_word_levels(max_rank, n):
    """Words, labels and multiranks of each rank <= max_rank, one element at a time."""
    top = max_rank if n is None else min(n, max_rank)
    letters = sorted(range(1, top + 1), key=str)
    words, labels, multiranks = [[()]], [("1",)], [((),)]
    for r in range(1, max_rank + 1):
        below = [(k, r - k) for k in letters if k <= r]
        words.append([(k,) + w for k, s in below for w in words[s]])
        labels.append(tuple(f"x{k}*{t}" if k < r else f"x{k}" for k, s in below for t in labels[s]))
        multiranks.append(tuple(tuple([c + 1 for c in mr[:k]]) + mr[k:] + (1,) * (k - len(mr))
                                for k, s in below for mr in multiranks[s]))
    return words, labels, multiranks


def _exponents(p):
    return {i: a - b for i, (a, b) in enumerate(zip(p, p[1:] + (0,)), start=1) if a > b}


def _format_monomial(t):
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in sorted(t.items())) or "1"


def _oracle_partition_levels(max_rank, n):
    """Partitions, labels and exponent items of each rank <= max_rank, and the covers of all
    in one list, each partition's label and items made from its own exponent dict."""
    partitions, labels, items, covers = [], [], [], []
    start = 0
    for r in range(max_rank + 1):
        box = [_box_covers(p, n) for p in partitions[-1]] if r else []
        level = list({u for ups in box for u in ups}) if r else [()]
        made = sorted((_format_monomial(t), p, tuple(t.items())) for p in level
                      for t in [_exponents(p)])
        labels.append(tuple(label for label, _, _ in made))
        partitions.append(tuple(p for _, p, _ in made))
        items.append(tuple(i for _, _, i in made))
        index = {p: i for i, p in enumerate(partitions[-1], start)}
        covers += [tuple(sorted(map(index.__getitem__, ups))) for ups in box]
        start += len(partitions[-1])
    return partitions, labels, items, covers + [()] * len(partitions[-1])


def _orders(max_rank):
    """The ranks 0..max_rank ascending, descending and shuffled."""
    ranks = list(range(max_rank + 1))
    shuffled = ranks[:]
    random.Random(36).shuffle(shuffled)
    return {"ascending": ranks, "descending": ranks[::-1], "shuffled": shuffled}


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("n", ALPHABETS)
def test_word_levels_match_the_element_builder(n, order):
    words, labels, multiranks = _oracle_word_levels(13, n)
    for max_rank in _orders(13)[order]:
        got = _word_levels(max_rank, n, None, True)
        assert got[0] == words[: max_rank + 1]
        assert [*map(tuple, got[1])] == labels[: max_rank + 1]
        assert [*map(tuple, got[2])] == multiranks[: max_rank + 1]
        # one tuple per distinct multirank across each level
        for level in got[2]:
            assert len({*map(id, level)}) == len({*level})
        assert _word_levels(max_rank, n, None)[0] == words[: max_rank + 1]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("n", ALPHABETS)
def test_partition_levels_match_the_element_builder(n, order):
    partitions, labels, items, covers = _oracle_partition_levels(20, n)
    for max_rank in _orders(20)[order]:
        got_partitions, got_labels, monomials, got_covers = _partition_levels(max_rank, n, None)
        assert [*map(tuple, got_partitions)] == partitions[: max_rank + 1]
        assert [*map(tuple, got_labels)] == labels[: max_rank + 1]
        assert [tuple(t.items()) for t in monomials] == [i for level in items[: max_rank + 1]
                                                         for i in level]
        size = sum(map(len, partitions[: max_rank + 1]))
        top = len(partitions[max_rank])
        assert got_covers == covers[: size - top] + [()] * top
