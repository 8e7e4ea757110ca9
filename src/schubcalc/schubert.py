"""Schubert, Stanley and Schur polynomials, and Schubert-basis expansion.

schubert, stanley and schur compute by Lascoux–Schützenberger transition
(see the transition module), through two memos bounded by the monomials
they hold.  Each validates its input once and makes one call of
transition._node, which picks the memo by the last descent, so a hit is
one find().  A Stanley symmetric polynomial comes from stability:
F_v(x1..xk) = S_{1^k x v}(x1..xk, 0, ...).  The reduced-word
constructors schubert_via_slides (slide polynomials of weak descent
compositions) and schubert_via_compatible (compatible sequences) are
independent oracles and are not used by the others.

schubert_expand resolves each pivot by its packed monomial through the
_pivots memo: one read gives the exponent tuple, the permutation and
its Schubert polynomial's keys, where a miss unpacks the monomial,
builds the permutation from its code and looks the polynomial up with
_node.  A pivot is checked on its miss, before it is stored, so the
memo holds only pivots that clear their monomial.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._limits import Memo
from .perm import Perm, _check_int, _from_code, _grassmannian, canonical, check_partition, shift
from .poly import (
    NonExpandableError,
    Polynomial,
    _eliminate,
    _lift,
    _pivot_size,
    _unpack,
    slide_polynomial,
)
# _schubert and _stanley stay bound here, unused: perfbench/tracer.py
# reads their cache_info() from this module.
from .transition import _node, _schubert, _stanley  # noqa: F401
from .words import (
    VIRTUAL,
    compatible_sequences,
    iter_reduced_words,
    sequence_weight,
    weak_descent_composition,
)


class NoSolutionError(ValueError):
    """The polynomial has no Schubert expansion within the ambient bound."""


def schubert(w: Sequence[int]) -> Polynomial:
    """Schubert polynomial of w, by transition.

    >>> str(schubert((4, 2, 1, 5, 3)))
    'x1^3*x2^2 + x1^3*x2*x3 + x1^3*x2*x4'
    """
    w = canonical(w)
    return _node(w, len(w))


def schubert_via_slides(w: Sequence[int]) -> Polynomial:
    """Schubert polynomial as a sum of slide polynomials over reduced words.

    >>> str(schubert_via_slides((2, 1)))
    'x1'
    >>> str(schubert_via_slides((1, 3, 2)))
    'x1 + x2'
    """
    acc: dict[tuple[int, ...], int] = {}
    for word in iter_reduced_words(canonical(w)):
        comp = weak_descent_composition(word)
        if comp is VIRTUAL:
            continue
        for e, c in slide_polynomial(comp).terms.items():
            acc[e] = acc.get(e, 0) + c
    return Polynomial(acc)


def schubert_via_compatible(w: Sequence[int]) -> Polynomial:
    """Schubert polynomial as a sum over compatible sequences.

    Independent of the slide enumeration and of transition, which makes
    it a useful cross-check.
    """
    acc: dict[tuple[int, ...], int] = {}
    for word in iter_reduced_words(canonical(w)):
        for seq in compatible_sequences(word):
            e = sequence_weight(seq)
            acc[e] = acc.get(e, 0) + 1
    return Polynomial(acc)


def stanley(w: Sequence[int], k: int) -> Polynomial:
    """Stanley symmetric polynomial of w in the variables x1..xk.

    >>> str(stanley((2, 1), 2))
    'x1 + x2'
    """
    _check_int(k, "k")
    return _node(shift(w, k), k)


def schur(lam: Sequence[int], k: int) -> Polynomial:
    """Schur polynomial s_lam(x1..xk), via its grassmannian permutation.

    It is 0 when lam has more than k parts: no tableau fits.

    >>> str(schur((1, 1), 2))
    'x1*x2'
    >>> str(schur((1, 1), 1))
    '0'
    """
    lam = check_partition(lam)
    if _check_int(k, "k") < len(lam):
        return Polynomial()
    return _node(_grassmannian(lam, k), k)


# The pivots of schubert_expand by (packed monomial, slot width): the same
# int is another monomial at another width.  An entry is (exponent tuple,
# permutation, keys of its Schubert polynomial at that width); at the
# width of a transition memo entry the keys are that entry's own dict.
# schubert_expand is the only reader.
_pivots = Memo(_pivot_size)


def schubert_expand(
    p: Polynomial, *, degree: int | None = None, ambient: int | None = None
) -> dict[Perm, int]:
    """Expand a homogeneous polynomial in the Schubert basis.

    Repeatedly clears the largest monomial, comparing exponents from the
    last variable back; it is the code of exactly one permutation and
    the largest monomial of that permutation's Schubert polynomial in the
    same order.  With ambient=N, any permutation moving a value
    beyond position N raises NoSolutionError, whether or not the pivot
    is in the memo; degree, when given, is checked against the
    polynomial.  Pivots come from the _pivots memo, keyed by packed
    monomial and slot width; a pivot whose Schubert polynomial does not
    have it as its largest monomial raises NonExpandableError before it
    is stored.

    >>> schubert_expand(Polynomial({(1,): 1, (0, 1): 1}))
    {(1, 3, 2): 1}
    """
    if degree is not None:
        _check_int(degree, "degree")
    if ambient is not None:
        _check_int(ambient, "ambient")
    degs = p.degrees()
    if len(degs) > 1:
        raise ValueError("Schubert expansion needs a homogeneous polynomial")
    if degree is not None and degs and degs != {degree}:
        raise ValueError(f"polynomial has degree {degs.pop()}, expected {degree}")

    def pivot(m: int, bits: int) -> tuple[tuple[int, ...], Perm, dict[int, int]]:
        entry = _pivots.find((m, bits))
        if entry is None:
            e = _unpack(m, bits)
            # Keys of a Polynomial are nonnegative, so e is a valid code.
            w = _from_code(e)
        else:
            e, w, _ = entry
        if ambient is not None and len(w) > ambient:
            raise NoSolutionError(
                f"pivot {e} needs a permutation of {len(w)} values, ambient is {ambient}"
            )
        if entry is None:
            keys = _lift(_node(w, len(w)), bits)
            # Checked before the put, so a wrong entry is never stored.
            if max(keys, default=-1) != m:
                raise NonExpandableError(
                    f"pivot {e} is not the largest monomial of the Schubert polynomial of {w}"
                )
            entry = (e, w, keys)
            _pivots.put((m, bits), entry)
        return entry

    return _eliminate(p, pivot)

