"""Schubert, Stanley and Schur polynomials, and Schubert-basis expansion.

schubert, stanley and schur compute by Lascoux–Schützenberger transition
(see the transition module), through two memos bounded by the monomials
they hold.  Each validates its input once and makes one call of
transition._node, which picks the memo by the last descent, so a hit is
one find().  A Stanley symmetric polynomial comes from stability:
F_v(x1..xk) = S_{1^k x v}(x1..xk, 0, ...).  The reduced-word
constructors schubert_via_slides (slide polynomials of weak descent
compositions) and schubert_via_compatible (compatible sequences) are
independent oracles and are not used by the others.  The latter hands
each walked word, valid already, to words._compatible unchecked.  Both
import the words module when they run, so importing this module does
not load it.

schubert_expand hands its pivots to poly._eliminate, which reads them
from the _pivots memo by packed monomial: one read gives the exponent
tuple, the permutation and its Schubert polynomial's keys.  A miss
builds the permutation from the monomial's exponents, its code, and
looks the polynomial up with _node.  The Schubert polynomials of S_N
are a basis of the polynomials under the staircase x_i^(N-i)
(Macdonald, Notes on Schubert Polynomials, (4.11)), so ambient=N is
checked on the input's monomials, once, and never on a pivot.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._limits import Memo
from .perm import Perm, _check_int, _from_code, _grassmannian, canonical, check_partition, shift
from .poly import VIRTUAL, NonExpandableError, Polynomial, _eliminate, _pivot_size, _slide
# _schubert and _stanley stay bound here, unused: perfbench/tracer.py
# reads their cache_info() from this module.
from .transition import _node, _schubert, _stanley  # noqa: F401


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
    from .words import iter_reduced_words, weak_descent_composition

    acc: dict[tuple[int, ...], int] = {}
    for word in iter_reduced_words(canonical(w)):
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
    from .words import _compatible, iter_reduced_words, sequence_weight

    acc: dict[tuple[int, ...], int] = {}
    for word in iter_reduced_words(canonical(w)):
        for seq in _compatible(word[::-1]):
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


# The pivots of schubert_expand by (packed monomial, slot width), as
# poly._eliminate stores them, with the permutation as the basis label;
# at the width of a transition memo entry the keys are that entry's own
# dict.
_pivots = Memo(_pivot_size)


def _schubert_pivot(e: tuple[int, ...]) -> tuple[Perm, Polynomial]:
    # Keys of a Polynomial are nonnegative, so e is a valid code.
    w = _from_code(e)
    return w, _node(w, len(w))


def schubert_expand(
    p: Polynomial, *, degree: int | None = None, ambient: int | None = None
) -> dict[Perm, int]:
    """Expand a homogeneous polynomial in the Schubert basis.

    Repeatedly clears the largest monomial, comparing exponents from the
    last variable back; it is the code of exactly one permutation and
    the largest monomial of that permutation's Schubert polynomial in the
    same order.  degree, when given, is checked against the polynomial.
    With ambient=N, a monomial of p above the staircase (x_i to a power
    above N - i) needs a permutation of more than N values and raises
    NoSolutionError before any pivot is read.  A pivot whose Schubert
    polynomial lacks it as its largest monomial with coefficient 1
    raises NonExpandableError when it is first built, and is not stored.

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
    if ambient is not None and p:
        # The largest (values, e) names the same monomial of p whatever
        # order its terms were built in.
        n, e = max((len(_from_code(e)), e) for e in p.terms)
        if n > ambient:
            raise NoSolutionError(
                f"monomial {e} needs a permutation of {n} values, ambient is {ambient}"
            )
    return _eliminate(p, _pivots, _schubert_pivot)
