"""Integer polynomials in x1, x2, ... plus slide and quasisymmetric bases.

Exponent vectors are tuples with trailing zeros stripped, so a monomial
means the same thing in any number of variables.  Coefficients are exact
Python ints.

Public functions validate their input once.  The private kernel _slide
builds a slide polynomial from a composition that is already stripped
and nonnegative, such as a key of a Polynomial, and checks nothing;
slide_expand builds its pivots with it.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from functools import lru_cache
from itertools import accumulate, chain
from operator import add

from ._limits import CACHE_SIZE as _CACHE_SIZE
from ._limits import charge, remaining
from .words import VIRTUAL, Composition, _Virtual

SLIDE_TERM_CAP = 10**6


class NonExpandableError(RuntimeError):
    """A positional-basis elimination failed to make progress."""


def _strip(exp: Sequence[int]) -> tuple[int, ...]:
    e = tuple(exp)
    n = len(e)
    while n > 0 and e[n - 1] == 0:
        n -= 1
    return e[:n]


class Polynomial:
    """Sparse polynomial: a map from exponent tuples to nonzero ints.

    Every exponent entry and coefficient must be an int, and every
    exponent nonnegative, including in terms whose coefficient is 0.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Sequence[int], int] | None = None):
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exp, c in terms.items():
                e = tuple(exp)
                if not isinstance(c, int) or not all(isinstance(x, int) for x in e):
                    raise ValueError(f"non-integer term {e!r}: {c!r}")
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e!r}")
                if not c:
                    continue
                e = _strip(e)
                c2 = clean.get(e, 0) + c
                if c2:
                    clean[e] = c2
                else:
                    del clean[e]
        self.terms = clean

    @classmethod
    def monomial(cls, exp: Sequence[int], coeff: int = 1) -> Polynomial:
        return cls({tuple(exp): coeff})

    @classmethod
    def _raw(cls, clean: dict[tuple[int, ...], int]) -> Polynomial:
        # Internal: keys already stripped, values already nonzero.
        p = cls.__new__(cls)
        p.terms = clean
        return p

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            c2 = out.get(e, 0) + c
            if c2:
                out[e] = c2
            else:
                del out[e]
        return Polynomial._raw(out)

    def __neg__(self) -> Polynomial:
        return Polynomial._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: int | Polynomial) -> Polynomial:
        if isinstance(other, int):
            if not other:
                return Polynomial._raw({})
            return Polynomial._raw({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        # Pad every key once to the longest length n.  The sum of two
        # stripped keys, cut to the longer of them, is stripped: its last
        # slot is nonzero.
        n = max(map(len, chain(self.terms, other.terms)), default=0)
        right = [(e + (0,) * (n - len(e)), len(e), c) for e, c in other.terms.items()]
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            l1 = len(e1)
            p1 = e1 + (0,) * (n - l1)
            for p2, l2, c2 in right:
                e = tuple(map(add, p1, p2))[: l1 if l1 > l2 else l2]
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    del out[e]
        return Polynomial._raw(out)

    __rmul__ = __mul__

    def degrees(self) -> set[int]:
        return {sum(e) for e in self.terms}

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms ordered by decreasing exponent tuple (padded lexicographic)."""
        return sorted(self.terms.items(), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_term_str(e, c) for e, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Polynomial({self.terms!r})"


def _term_str(exp: tuple[int, ...], coeff: int) -> str:
    factors = [
        f"x{i}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(exp, 1)
        if e > 0
    ]
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


def substitute_zero(p: Polynomial, k: int) -> Polynomial:
    """Set x_{k+1} = x_{k+2} = ... = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return Polynomial._raw({e: c for e, c in p.terms.items() if len(e) <= k})


def flatten(comp: Sequence[int]) -> Composition:
    """Drop zero parts.

    >>> flatten((0, 3, 1, 0, 1))
    (3, 1, 1)
    """
    return tuple(x for x in comp if x)


@lru_cache(maxsize=_CACHE_SIZE)
def _placements(
    parts: tuple[int, ...],
    npos: int,
    floor: tuple[int, ...] | None,
) -> tuple[tuple[int, ...], ...]:
    # Exponent vectors within npos positions whose nonzero entries split
    # the given parts in order; floor (when set) lower-bounds prefix sums.
    # The caller charges the result; a miss stops past the budget or the cap.
    if not parts:
        return ((),) if floor is None or not any(floor) else ()
    budget = remaining()
    cap = SLIDE_TERM_CAP if budget is None else min(budget, SLIDE_TERM_CAP)
    out: list[tuple[int, ...]] = []
    exp: list[int] = []

    def place(j: int, t: int, rem: int, psum: int) -> None:
        if t == len(parts):
            if len(out) >= cap:
                if cap == SLIDE_TERM_CAP:
                    raise ValueError(f"more than {cap} monomials")
                charge(cap + 1)  # raises TermBudgetExceeded
            out.append(_strip(exp))
            return
        if npos - j < len(parts) - t:
            return
        lo = 0 if floor is None else floor[j] - psum
        if lo <= 0:
            exp.append(0)
            place(j + 1, t, rem, psum)
            exp.pop()
        for v in range(max(lo, 1), rem + 1):
            exp.append(v)
            if v == rem:
                place(j + 1, t + 1, parts[t + 1] if t + 1 < len(parts) else 0, psum + v)
            else:
                place(j + 1, t, rem - v, psum + v)
            exp.pop()

    place(0, 0, parts[0], 0)
    return tuple(out)


def slide_polynomial(a: Sequence[int] | _Virtual) -> Polynomial:
    """Sum of x^b over b dominating a whose nonzero parts refine those of a.

    The index a is a weak composition; trailing zeros do not change the
    result, and VIRTUAL gives the zero polynomial.  The monomial x^a
    itself is the unique smallest term.

    >>> str(slide_polynomial((1, 2)))
    'x1*x2^2'
    >>> str(slide_polynomial((0, 2)))
    'x1^2 + x1*x2 + x2^2'
    """
    if a is VIRTUAL:
        return Polynomial._raw({})
    aa = _strip(a)
    if any(x < 0 for x in aa):
        raise ValueError(f"weak composition needed, got {tuple(a)!r}")
    return _slide(aa)


def _slide(a: tuple[int, ...]) -> Polynomial:
    """Kernel: slide_polynomial of a stripped, nonnegative composition."""
    exps = _placements(flatten(a), len(a), tuple(accumulate(a)))
    charge(len(exps))
    return Polynomial._raw({e: 1 for e in exps})


def fundamental_quasisym(alpha: Sequence[int], k: int) -> Polynomial:
    """Sum over x^b in k variables whose nonzero parts refine alpha.

    >>> str(fundamental_quasisym((2,), 2))
    'x1^2 + x1*x2 + x2^2'
    >>> str(fundamental_quasisym((1, 1), 2))
    'x1*x2'
    """
    al = tuple(alpha)
    if any(x < 1 for x in al):
        raise ValueError(f"composition parts must be positive: {al!r}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    exps = _placements(al, k, None)
    charge(len(exps))
    return Polynomial._raw({e: 1 for e in exps})


def _eliminate(p: Polynomial, pivot: Callable[[tuple[int, ...]], tuple[object, Polynomial]]) -> dict:
    # Clear the smallest monomial m with pivot(m) = (key, basis element),
    # whose smallest term must be x^m, so the minimum strictly increases.
    work = dict(p.terms)
    out = {}
    last = None
    while work:
        m = min(work)
        if last is not None and m <= last:
            raise NonExpandableError(f"pivot {last} did not clear the minimum")
        key, basis = pivot(m)
        c = work[m]
        out[key] = c
        for e, ce in basis.terms.items():
            c2 = work.get(e, 0) - c * ce
            if c2:
                work[e] = c2
            else:
                work.pop(e, None)
        last = m
    return out


def slide_expand(p: Polynomial) -> dict[Composition, int]:
    """Write p as an integer combination of slide polynomials.

    Repeatedly clears the smallest remaining monomial m with the slide
    polynomial of m, whose unique smallest term is x^m.

    >>> slide_expand(Polynomial({(1, 1): 1, (2,): -1}))
    {(1, 1): 1, (2,): -1}
    """
    return _eliminate(p, lambda m: (m, _slide(m)))
