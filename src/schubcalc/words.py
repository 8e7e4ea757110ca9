"""Reduced words, compatible sequences, and two Schubert oracles.

A word is a tuple of positive letters; letter i swaps the values i and
i+1.  Words act left to right, so (4, 2, 1, 2, 3) builds (4, 2, 1, 5, 3)
from the identity.  A word is reduced when its length equals the Coxeter
length of the permutation it builds.

The public functions check their input once; the kernels behind them
trust it.  iter_reduced_words runs w through canonical() and walks the
result; reduced_words sorts what it walks.  The word functions and
sequence_weight check their entries through perm._check_ints;
compatible_sequences then hands the reversed word to _compatible, which
schubert_via_compatible calls on the walk's words directly.

The walk holds w^-1 in one list and its letters as its only stack, and
_compatible keeps only the sequence it builds.  Neither recurses, so the
length of a word is not bounded by Python's recursion limit.  Each
reduced word and compatible sequence is charged one unit just before it
is emitted; nothing here is cached.  VIRTUAL, the composition whose
slide polynomial is zero, lives in poly and is imported from there.

schubert_via_slides sums the slide polynomials of the weak descent
compositions of the reduced words (Assaf and Searles, Adv. Math. 2017),
and schubert_via_compatible counts their compatible sequences (Billey,
Jockusch and Stanley, J. Algebraic Combin. 1993).  Both are oracles for
the transition construction of the schubert module; their only caller
in the library is the slides suite of verify.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from ._limits import Memo, charge
from .perm import _check_ints, _length, canonical
from .poly import VIRTUAL, Composition, Polynomial, _slide, _Virtual

Word = tuple[int, ...]

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
    # Built last letter first, depth first with the letters of each step
    # ascending.  x is w^-1 (x[v] is the position of v, x[0] unused) as
    # the letters in buf leave it: letter i can end a reduced word of what
    # remains exactly when x has a descent at i, and taking it swaps x[i]
    # and x[i+1].  buf is the walk's only stack.
    w = canonical(w)
    n = len(w)
    ell = _length(w)
    if not ell:
        charge()
        yield ()
        return
    x = [0] * (n + 1)
    for j, v in enumerate(w, 1):
        x[v] = j
    buf: list[int] = []
    i = 1
    while True:
        while i < n and x[i] < x[i + 1]:
            i += 1
        if i < n:
            x[i], x[i + 1] = x[i + 1], x[i]
            buf.append(i)
            if len(buf) < ell:
                i = 1
                continue
            charge()
            yield tuple(reversed(buf))
        elif not buf:
            return
        # Undo the last letter and resume after it.
        i = buf.pop()
        x[i], x[i + 1] = x[i + 1], x[i]
        i += 1


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
    word = _check_ints(word, "word letters", 1)
    if not word:
        return ()
    # A letter no larger than the one before it starts a run; prev starts
    # above the first letter so that it starts one too.  Slots strictly
    # decrease, so the first one below 1 makes the word virtual.
    slot = prev = word[0] + 1
    comp = [0] * word[0]
    for x in word:
        if x <= prev:
            slot = min(x, slot - 1)
            if slot < 1:
                return VIRTUAL
        comp[slot - 1] += 1
        prev = x
    return tuple(comp)


def _compatible(rev: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    # compatible_sequences of the word whose reversal is rev, a checked
    # word.  caps is the entrywise-largest compatible sequence: each
    # entry is capped by rev and by the next cap, less one where rev
    # increases; a cap below 1 leaves no sequence.  Depth first, smallest
    # entry first: seq holds the entries placed so far and v the next
    # candidate at position len(seq); a dead end pops the last entry and
    # tries it plus one.
    if not rev:
        charge()
        return ((),)
    caps = list(rev)
    for j in range(len(rev) - 2, -1, -1):
        cap = caps[j + 1] - (rev[j] < rev[j + 1])
        if cap < caps[j]:
            if cap < 1:
                return ()
            caps[j] = cap
    last = len(rev) - 1
    out: list[tuple[int, ...]] = []
    seq: list[int] = []
    v = 1
    while True:
        j = len(seq)
        if v > caps[j]:
            if not seq:
                return tuple(out)
            v = seq.pop() + 1
        elif j == last:
            charge()
            out.append((*seq, v))
            v += 1
        else:
            seq.append(v)
            v += rev[j] < rev[j + 1]


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
    return _compatible(_check_ints(word, "word letters", 1)[::-1])


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


def schubert_via_slides(w: Sequence[int]) -> Polynomial:
    """Schubert polynomial as a sum of slide polynomials over reduced words.

    >>> str(schubert_via_slides((2, 1)))
    'x1'
    >>> str(schubert_via_slides((1, 3, 2)))
    'x1 + x2'
    """
    acc: dict[tuple[int, ...], int] = {}
    for word in iter_reduced_words(w):
        # A weak descent composition is stripped and nonnegative already.
        comp = weak_descent_composition(word)
        if comp is VIRTUAL:
            continue
        for e, c in _slide(comp).terms.items():
            acc[e] = acc.get(e, 0) + c
    return Polynomial(acc)


def schubert_via_compatible(w: Sequence[int]) -> Polynomial:
    """Schubert polynomial as a sum over compatible sequences.

    Independent of the slide enumeration and of transition, which makes
    it a useful cross-check.
    """
    acc: dict[tuple[int, ...], int] = {}
    for word in iter_reduced_words(w):
        for seq in _compatible(word[::-1]):
            e = sequence_weight(seq)
            acc[e] = acc.get(e, 0) + 1
    return Polynomial(acc)
