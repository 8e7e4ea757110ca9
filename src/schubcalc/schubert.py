"""Schubert, Stanley and Schur polynomials, and Schubert-basis expansion.

schubert, stanley and schur compute by Lascoux–Schützenberger transition
(see the transition module): each validates its input once and calls
transition._node, the only reader of the two memos, which are bounded
by the monomials they hold.  A Stanley symmetric polynomial comes from
stability: F_v(x1..xk) = S_{1^k x v}(x1..xk, 0, ...).  The reduced-word
constructors schubert_via_slides (slide polynomials of weak descent
compositions) and schubert_via_compatible (compatible sequences) are
independent oracles and are not used by the others.
"""

from __future__ import annotations

from collections.abc import Sequence

from .perm import Perm, _from_code, canonical, grassmannian, shift
from .poly import NonExpandableError, Polynomial, _eliminate, slide_polynomial
# _schubert and _stanley stay bound here: perfbench/tracer.py reads their cache_info().
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
    return Polynomial._raw(acc)


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
    return Polynomial._raw(acc)


def stanley(w: Sequence[int], k: int) -> Polynomial:
    """Stanley symmetric polynomial of w in the variables x1..xk.

    >>> str(stanley((2, 1), 2))
    'x1 + x2'
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _node(shift(w, k), k)


def schur(lam: Sequence[int], k: int) -> Polynomial:
    """Schur polynomial s_lam(x1..xk), via its grassmannian permutation.

    >>> str(schur((1, 1), 2))
    'x1*x2'
    """
    w = grassmannian(lam, k)
    return _node(w, len(w))


def schubert_expand(
    p: Polynomial, *, degree: int | None = None, ambient: int | None = None
) -> dict[Perm, int]:
    """Expand a homogeneous polynomial in the Schubert basis.

    Repeatedly clears the smallest monomial, which is the code of exactly
    one permutation and is the smallest monomial of that permutation's
    Schubert polynomial.  With ambient=N, any permutation moving a value
    beyond position N raises NoSolutionError; degree, when given, is
    checked against the polynomial.

    >>> schubert_expand(Polynomial({(1,): 1, (0, 1): 1}))
    {(1, 3, 2): 1}
    """
    degs = p.degrees()
    if len(degs) > 1:
        raise ValueError("Schubert expansion needs a homogeneous polynomial")
    if degree is not None and degs and degs != {degree}:
        raise ValueError(f"polynomial has degree {degs.pop()}, expected {degree}")

    def pivot(m: tuple[int, ...]) -> tuple[Perm, Polynomial]:
        # Keys of a Polynomial are nonnegative, so m is a valid code.
        w = _from_code(m)
        if ambient is not None and len(w) > ambient:
            raise NoSolutionError(
                f"pivot {m} needs a permutation of {len(w)} values, ambient is {ambient}"
            )
        return w, _node(w, len(w))

    return _eliminate(p, pivot)
