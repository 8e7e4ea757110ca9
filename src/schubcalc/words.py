"""Reduced words, their runs, and compatible sequences.

A word is a tuple of positive letters; letter i swaps the values i and
i+1.  Words act left to right, so (4, 2, 1, 2, 3) builds (4, 2, 1, 5, 3)
from the identity.  A word is reduced when its length equals the Coxeter
length of the permutation it builds.

reduced_words and iter_reduced_words validate w once through canonical();
the walk behind them (_walk, _swap_values) trusts that canonical input
and checks nothing.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import islice

from ._limits import CACHE_SIZE as _CACHE_SIZE
from ._limits import charge, remaining
from .perm import Perm, _strip, canonical, descent_set, inverse, pad

Word = tuple[int, ...]
Composition = tuple[int, ...]


class _Virtual:
    """Sentinel composition whose slide polynomial is zero."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "VIRTUAL"


VIRTUAL = _Virtual()


def _swap_values(w: Perm, i: int) -> Perm:
    ww = list(pad(w, i + 1))
    a = ww.index(i)
    b = ww.index(i + 1)
    ww[a], ww[b] = ww[b], ww[a]
    return _strip(ww)


def _walk(u: Perm, buf: list[int]) -> Iterator[Word]:
    # Reduced words of u followed by reversed(buf), built last letter first.
    if not u:
        yield tuple(reversed(buf))
        return
    for i in sorted(descent_set(inverse(u))):  # i+1 stands before i in u
        buf.append(i)
        yield from _walk(_swap_values(u, i), buf)
        buf.pop()


@lru_cache(maxsize=_CACHE_SIZE)
def _reduced_words(w: Perm) -> tuple[Word, ...]:
    # The caller charges the result; a miss stops one word past the budget.
    budget = remaining()
    words = sorted(islice(_walk(w, []), None if budget is None else budget + 1))
    if budget is not None and len(words) > budget:
        charge(len(words))  # raises TermBudgetExceeded
    return tuple(words)


def reduced_words(w: Sequence[int]) -> tuple[Word, ...]:
    """All reduced words for w, sorted, cached and charged one unit each.

    >>> reduced_words((2, 1, 4, 3))
    ((1, 3), (3, 1))
    """
    out = _reduced_words(canonical(w))
    charge(len(out))
    return out


def iter_reduced_words(w: Sequence[int]) -> Iterator[Word]:
    """Stream reduced words for w, charged one unit each, holding none.

    Words come ordered by their reversals; reduced_words sorts the same set.

    >>> list(iter_reduced_words((2, 1, 4, 3)))
    [(3, 1), (1, 3)]
    """
    for word in _walk(canonical(w), []):
        charge()
        yield word


def run_decomposition(word: Sequence[int]) -> tuple[Word, ...]:
    """Split into maximal strictly increasing runs, leftmost first.

    >>> run_decomposition((4, 2, 1, 2, 3))
    ((4,), (2,), (1, 2, 3))
    """
    runs: list[list[int]] = []
    for x in word:
        if runs and runs[-1][-1] < x:
            runs[-1].append(x)
        else:
            runs.append([x])
    return tuple(tuple(r) for r in runs)


def weak_descent_composition(word: Sequence[int]) -> Composition | _Virtual:
    """Run sizes placed at the largest feasible positions.

    The leftmost run of a reduced word sits at the position given by its
    first letter; each later run sits at its own first letter, capped one
    below the run to its left.  If a run is forced below position 1 the
    word is virtual and contributes nothing.

    >>> weak_descent_composition((4, 2, 1, 2, 3))
    (3, 1, 0, 1)
    >>> weak_descent_composition((2, 4, 1, 2, 3))
    (3, 2)
    >>> weak_descent_composition((5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6))
    VIRTUAL
    """
    runs = run_decomposition(word)
    if not runs:
        return ()
    slots = []
    r = runs[0][0]
    for run in runs:
        r = min(run[0], r) if not slots else min(run[0], r - 1)
        slots.append(r)
    if slots[-1] < 1:
        return VIRTUAL
    comp = [0] * slots[0]
    for r, run in zip(slots, runs):
        comp[r - 1] = len(run)
    return tuple(comp)


def greedy_compatible(word: Sequence[int]) -> tuple[int, ...] | _Virtual:
    """The entrywise-largest compatible sequence, or VIRTUAL if none exists.

    >>> greedy_compatible((4, 2, 1, 2, 3))
    (1, 1, 1, 2, 4)
    """
    rev = tuple(reversed(word))
    n = len(rev)
    caps = [0] * n
    for j in range(n - 1, -1, -1):
        if j == n - 1:
            caps[j] = rev[j]
        else:
            caps[j] = min(rev[j], caps[j + 1] - (1 if rev[j] < rev[j + 1] else 0))
        if caps[j] < 1:
            return VIRTUAL
    return tuple(caps)


def compatible_sequences(word: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All compatible sequences for the word, sorted.

    A compatible sequence is a weakly increasing positive tuple bounded
    entrywise by the reversed word, increasing strictly wherever the
    reversed word does.

    >>> compatible_sequences((4, 2, 1, 2, 3))
    ((1, 1, 1, 2, 3), (1, 1, 1, 2, 4))
    >>> compatible_sequences((2, 4, 1, 2, 3))
    ((1, 1, 1, 2, 2),)
    """
    caps = greedy_compatible(word)
    if caps is VIRTUAL:
        return ()
    rev = tuple(reversed(word))
    n = len(rev)
    out: list[tuple[int, ...]] = []
    seq: list[int] = []

    def place(j: int) -> None:
        if j == n:
            out.append(tuple(seq))
            return
        lo = 1 if j == 0 else seq[-1] + (1 if rev[j - 1] < rev[j] else 0)
        for v in range(lo, caps[j] + 1):
            seq.append(v)
            place(j + 1)
            seq.pop()

    place(0)
    return tuple(out)


def sequence_weight(seq: Sequence[int]) -> Composition:
    """Occurrence counts of 1..max(seq).

    >>> sequence_weight((1, 1, 1, 2, 4))
    (3, 1, 0, 1)
    """
    if not seq:
        return ()
    comp = [0] * max(seq)
    for v in seq:
        comp[v - 1] += 1
    return tuple(comp)
