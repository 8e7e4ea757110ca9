"""Schubert, Stanley and Schur polynomials, and Schubert-basis expansion.

schubert, stanley, schur and truncated_schubert compute by
Lascoux–Schützenberger transition, whose recurrence and steps live in
the transition module.  This module holds the walk of the transition
tree, _node, and its two memos, bounded by the monomials they hold:
which memo and key a node has, when the Bergeron–Billey criterion
answers 0, and when a node is computed.  Each public function validates
its input once and makes one call of _node, which picks the memo by the
last descent, so a hit is one find().  A Stanley symmetric polynomial
comes from stability: F_v(x1..xk) = S_{1^k x v}(x1..xk, 0, ...).

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

from collections.abc import Generator, Sequence

from ._limits import Memo
from .perm import Perm, _check_int, _from_code, _grassmannian, canonical, check_partition, shift
from .poly import NonExpandableError, Polynomial, _eliminate, _monomials, _pivot_size
from .transition import _transition


class NoSolutionError(ValueError):
    """The polynomial has no Schubert expansion within the ambient bound."""


# _schubert holds S_w by w; _stanley holds S_w(x1..xk, 0, ...) by (w, k)
# for the w whose last descent is beyond k, where truncation matters, and
# that the criterion does not zero, so it holds no 0.
# _node is their one reader: schubert, stanley, schur, truncated_schubert
# and schubert_expand's pivots each validate and call it once.
_schubert = Memo(_monomials)
_stanley = Memo(_monomials)
_ONE = Polynomial._raw({0: 1}, 8, 0)
_ZERO = Polynomial._raw({}, 8, 0)


def _node(w: Perm, k: int) -> Polynomial:
    """S_w(x1..xk, 0, ...) for canonical w, through the memos.

    w is the first lookup of a depth-first walk of the transition tree,
    on an explicit stack that holds one _transition generator per node
    being computed, so its depth (the length of w for the longest
    element) is bounded by memory, not by Python's recursion limit.  A
    lookup is the identity's _ONE, or one find() in _schubert under w
    when the last descent is at most k, else in _stanley under (w, k).
    A _stanley miss first scans w for the Bergeron–Billey criterion,
    stated and sketched in the transition module's docstring, and one
    that meets it is _ZERO, like a hit: neither charged, stored nor
    expanded.  Any other miss starts the node, a transition._transition
    step, which charges one unit of budget before its children.  A node
    asks for its children one at a time and each is looked up only when
    the one before it is complete, so memo hits, misses and evictions
    come in depth-first order.  A child computed here goes to its parent
    directly, not through find(), so it is stored unread at the memo's
    cold end, first to be evicted, until a later lookup reads it; the
    shared nodes that lookups do read are kept.
    """
    stack: list[Generator[Perm, Polynomial, Polynomial]] = []
    while True:
        if w:
            r = len(w) - 1
            while w[r - 1] < w[r]:
                r -= 1
            if r <= k:
                memo, key = _schubert, w
            else:
                memo, key = _stanley, (w, k)
            p = memo.find(key)
            if p is None and r > k:
                # The criterion: seen holds the values met so far,
                # and a value with more than k of them above it zeroes w.
                seen = 0
                for x in w:
                    if (seen >> x).bit_count() > k:
                        p = _ZERO
                        break
                    seen |= 1 << x
            if p is None:
                stack.append(_transition(w, k, r, memo, key))
        else:
            p = _ONE
        # Hand p to the node that asked for it (None starts a new node),
        # finishing nodes until one asks for another child.
        while stack:
            try:
                w = stack[-1].send(p)
                break
            except StopIteration as done:
                stack.pop()
                p = done.value
        else:
            return p


def schubert(w: Sequence[int]) -> Polynomial:
    """Schubert polynomial of w, by transition.

    >>> str(schubert((4, 2, 1, 5, 3)))
    'x1^3*x2^2 + x1^3*x2*x3 + x1^3*x2*x4'
    """
    w = canonical(w)
    return _node(w, len(w))


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


def truncated_schubert(w: Sequence[int], k: int) -> Polynomial:
    """S_w(x1..xk, 0, 0, ...): the Schubert polynomial with x_{k+1}, ... set to 0.

    Computed by transition, through two memos of MEMO_BOUND monomials each.

    >>> str(truncated_schubert((1, 3, 2), 1))
    'x1'
    >>> str(truncated_schubert((4, 2, 1, 5, 3), 4))
    'x1^3*x2^2 + x1^3*x2*x3 + x1^3*x2*x4'
    """
    _check_int(k, "k")
    return _node(canonical(w), k)


# The pivots of schubert_expand by (packed monomial, slot width), as
# poly._eliminate stores them, with the permutation as the basis label;
# at the width of a transition memo entry the keys are that entry's own
# dict.
_pivots = Memo(_pivot_size)


def _schubert_pivot(e: tuple[int, ...]) -> tuple[Perm, Polynomial]:
    # Keys of a Polynomial are nonnegative, so e is a valid code.
    w = _from_code(e)
    return w, _node(w, len(w))


def schubert_expand(p: Polynomial, *, ambient: int | None = None) -> dict[Perm, int]:
    """Expand a homogeneous polynomial in the Schubert basis.

    Repeatedly clears the largest monomial, comparing exponents from the
    last variable back; it is the code of exactly one permutation and
    the largest monomial of that permutation's Schubert polynomial in the
    same order, so every permutation in the expansion has p's degree as
    its length.  With ambient=N, a monomial of p above the staircase (x_i
    to a power above N - i) needs a permutation of more than N values and
    raises NoSolutionError before any pivot is read.  A pivot whose Schubert
    polynomial lacks it as its largest monomial with coefficient 1
    raises NonExpandableError when it is first built, and is not stored.

    >>> schubert_expand(Polynomial({(1,): 1, (0, 1): 1}))
    {(1, 3, 2): 1}
    """
    if ambient is not None:
        _check_int(ambient, "ambient")
    if len(p.degrees()) > 1:
        raise ValueError("Schubert expansion needs a homogeneous polynomial")
    if ambient is not None and p:
        # x^e lies under the staircase of S_n for the least n = max(i + e_i).
        # The largest (n, e) names the same monomial of p whatever order
        # its terms were built in.
        n, e = max((max((i + x for i, x in enumerate(e, 1)), default=0), e) for e in p.terms)
        if n > ambient:
            raise NoSolutionError(
                f"monomial {e} needs a permutation of {n} values, ambient is {ambient}"
            )
    return _eliminate(p, _pivots, _schubert_pivot)
