"""Reduced words, their runs, and compatible sequences.

A word is a tuple of positive letters; letter i swaps the values i and
i+1.  Words act left to right, so (4, 2, 1, 2, 3) builds (4, 2, 1, 5, 3)
from the identity.  A word is reduced when its length equals the Coxeter
length of the permutation it builds.  The functions that take a word
check its letters once, through perm._check_ints in run_decomposition
or _greedy, which greedy_compatible and compatible_sequences share, and
sequence_weight its sequence the same way.

reduced_words and iter_reduced_words validate w once through canonical();
the walk behind them (_walk) trusts that canonical input, reads its
letters straight from the word and checks nothing.  It keeps its own
stack, as compatible_sequences does, so the length of a word is not
bounded by Python's recursion limit.  Each reduced word and compatible
sequence is charged one unit as it is emitted; nothing here is cached.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from ._limits import Memo, charge
from .perm import Perm, _check_ints, _strip, canonical

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


def _steps(u: Perm) -> Iterator[tuple[int, Perm]]:
    # Each letter i that can end a reduced word of u, ascending, with the
    # permutation the word builds before that letter.
    where = {x: j for j, x in enumerate(u)}
    for i in range(1, len(u)):
        a, b = where[i], where[i + 1]
        if a > b:  # i+1 stands before i in u; swap them
            v = list(u)
            v[a], v[b] = i + 1, i
            yield i, _strip(v)


def _walk(w: Perm) -> Iterator[Word]:
    # Reduced words of w, built last letter first, depth first with the
    # letters of each step ascending.  stack holds one _steps iterator per
    # letter in buf, plus one for the permutation buf has reached.
    if not w:
        yield ()
        return
    buf: list[int] = []
    stack = [_steps(w)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if buf:
                buf.pop()
            continue
        i, v = step
        buf.append(i)
        if v:
            stack.append(_steps(v))
        else:
            yield tuple(reversed(buf))
            buf.pop()


# Unread; it stays bound because perfbench/tracer.py reads its cache_info().
_reduced_words = Memo(len)


def reduced_words(w: Sequence[int]) -> tuple[Word, ...]:
    """All reduced words for w, sorted, charged one unit each as walked.

    >>> reduced_words((2, 1, 4, 3))
    ((1, 3), (3, 1))
    """
    return tuple(sorted(iter_reduced_words(w)))


def iter_reduced_words(w: Sequence[int]) -> Iterator[Word]:
    """Stream reduced words for w, charged one unit each, holding none.

    Words come ordered by their reversals; reduced_words sorts the same set.

    >>> list(iter_reduced_words((2, 1, 4, 3)))
    [(3, 1), (1, 3)]
    """
    for word in _walk(canonical(w)):
        charge()
        yield word


def run_decomposition(word: Sequence[int]) -> tuple[Word, ...]:
    """Split into maximal strictly increasing runs, leftmost first.

    >>> run_decomposition((4, 2, 1, 2, 3))
    ((4,), (2,), (1, 2, 3))
    """
    runs: list[list[int]] = []
    for x in _check_ints(word, "word letters", 1):
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


def _greedy(word: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...] | _Virtual]:
    # The checked word reversed, and greedy_compatible of the word.
    rev = _check_ints(word, "word letters", 1)[::-1]
    n = len(rev)
    caps = [0] * n
    for j in range(n - 1, -1, -1):
        if j == n - 1:
            caps[j] = rev[j]
        else:
            caps[j] = min(rev[j], caps[j + 1] - (1 if rev[j] < rev[j + 1] else 0))
        if caps[j] < 1:
            return rev, VIRTUAL
    return rev, tuple(caps)


def greedy_compatible(word: Sequence[int]) -> tuple[int, ...] | _Virtual:
    """The entrywise-largest compatible sequence, or VIRTUAL if none exists.

    >>> greedy_compatible((4, 2, 1, 2, 3))
    (1, 1, 1, 2, 4)
    """
    return _greedy(word)[1]


def compatible_sequences(word: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All compatible sequences for the word, sorted, charged one unit each.

    A compatible sequence is a weakly increasing positive tuple bounded
    entrywise by the reversed word, increasing strictly wherever the
    reversed word does.

    >>> compatible_sequences((4, 2, 1, 2, 3))
    ((1, 1, 1, 2, 3), (1, 1, 1, 2, 4))
    >>> compatible_sequences((2, 4, 1, 2, 3))
    ((1, 1, 1, 2, 2),)
    """
    rev, caps = _greedy(word)
    if caps is VIRTUAL:
        return ()
    n = len(rev)
    if not n:
        charge()
        return ((),)
    out: list[tuple[int, ...]] = []
    # Depth first, smallest entry first; stack holds one iterator over
    # the candidates of each position from 0 to len(seq).
    seq: list[int] = []
    stack = [iter(range(1, caps[0] + 1))]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            if seq:
                seq.pop()
            continue
        seq.append(v)
        j = len(seq)
        if j == n:
            charge()
            out.append(tuple(seq))
            seq.pop()
        else:
            lo = v + (1 if rev[j - 1] < rev[j] else 0)
            stack.append(iter(range(lo, caps[j] + 1)))
    return tuple(out)


def sequence_weight(seq: Sequence[int]) -> Composition:
    """Occurrence counts of 1..max(seq), for a sequence of positive ints.

    >>> sequence_weight((1, 1, 1, 2, 4))
    (3, 1, 0, 1)
    """
    seq = _check_ints(seq, "sequence entries", 1)
    comp = [0] * max(seq, default=0)
    for v in seq:
        comp[v - 1] += 1
    return tuple(comp)
