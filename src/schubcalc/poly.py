"""Integer polynomials in x1, x2, ... plus slide and quasisymmetric bases.

A monomial is stored as one packed int: the exponent of x_i sits in
bits B*(i-1) .. B*i - 1 of the key, where the slot width B is a multiple
of 8 chosen per polynomial.  A monomial then means the same thing in any
number of variables, the product of two monomials is one integer
addition, and comparing two keys compares the exponent of the last
variable first.  Each polynomial keeps a bound on the degrees of its
monomials, below 2^B; a product's bound is the sum of its factors', and
a product whose bound would reach 2^B repacks its factors into wider
slots first, so a slot never carries into the next.  Coefficients are
exact Python ints.  The public view, Polynomial.terms, is a dict from
exponent tuples with trailing zeros stripped to coefficients, built on
each access.

Public functions validate their input once, a composition through
perm._check_ints, as the CLI does.  The private kernel _slide builds a
slide polynomial from a composition that is already stripped and
nonnegative, such as a key of a Polynomial, checks nothing, and is the
one user of the _placements memo, keyed by that composition.  Every
slide polynomial and slide_expand pivot goes through it, and so does
F_alpha(x1..xk): the slide polynomial of alpha with k - len(alpha) zeros
in front (Assaf and Searles, 2017).

Basis expansion (_eliminate) clears the largest packed key at each step
with a pivot that it reads from a memo keyed by that int and the slot
width, so a hit unpacks nothing.  It is the one reader and writer of
both pivot memos, schubert_expand's and slide_expand's: every pivot of
either basis is checked when it is first built, and stored only if its
basis element has the pivot as its largest monomial, with coefficient 1,
and a hit charges one unit per monomial of that element.  Slide and
quasisymmetric polynomials charge one unit per monomial too: a cold
placement as it places each, a placement read from its memo all at once.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from itertools import accumulate

from ._limits import Memo, charge
from .perm import _check_int, _check_ints, _strip_zeros

Composition = tuple[int, ...]


def _width(bound: int) -> int:
    """The narrowest slot width, a multiple of 8 bits, that holds bound."""
    return max(8, (bound.bit_length() + 7) & ~7)


def _pack(exp: Sequence[int], bits: int) -> int:
    """Kernel: the key of a nonnegative exponent vector; raises if an entry needs more bits."""
    n = bits >> 3
    return int.from_bytes(b"".join(x.to_bytes(n, "little") for x in exp), "little")


def _unpack(key: int, bits: int) -> tuple[int, ...]:
    """Kernel: the exponent tuple of a key, trailing zeros stripped."""
    n = bits >> 3
    raw = key.to_bytes(-(-key.bit_length() // bits) * n, "little")
    if n == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[i : i + n], "little") for i in range(0, len(raw), n))


def _lift(p: Polynomial, bits: int) -> dict[int, int]:
    """The keys of p repacked, if need be, with slots of the given width."""
    if p._bits == bits:
        return p._keys
    return {_pack(_unpack(e, p._bits), bits): c for e, c in p._keys.items()}


class Polynomial:
    """Sparse polynomial: a map from monomials to nonzero ints.

    Polynomial(mapping) takes exponent tuples as keys.  Every exponent
    entry and coefficient must be an int, and every exponent nonnegative,
    including in terms whose coefficient is 0.
    """

    # _keys maps packed monomials to nonzero coefficients, with slots of
    # _bits bits; no monomial has degree above _bound, which is below
    # 2**_bits, so no exponent can carry into the next slot.
    __slots__ = ("_keys", "_bits", "_bound")

    def __init__(self, terms: Mapping[Sequence[int], int] | None = None):
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exp, c in terms.items():
                e = _check_ints(exp, "exponents")
                if not isinstance(c, int):
                    raise ValueError(f"non-integer term {e!r}: {c!r}")
                if not c:
                    continue
                e = _strip_zeros(e)
                c2 = clean.get(e, 0) + c
                if c2:
                    clean[e] = c2
                else:
                    del clean[e]
        bound = max(map(sum, clean), default=0)
        bits = _width(bound)
        self._keys = {_pack(e, bits): c for e, c in clean.items()}
        self._bits = bits
        self._bound = bound

    @classmethod
    def _raw(cls, keys: dict[int, int], bits: int, bound: int) -> Polynomial:
        # Internal: keys packed with slots of bits bits, values nonzero,
        # and no degree above bound < 2**bits.
        p = cls.__new__(cls)
        p._keys = keys
        p._bits = bits
        p._bound = bound
        return p

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The terms keyed by exponent tuple, trailing zeros stripped.

        A new dict is built on each access; changing it leaves the
        polynomial alone.
        """
        bits = self._bits
        return {_unpack(e, bits): c for e, c in self._keys.items()}

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self._bits == other._bits:
            return self._keys == other._keys
        return self.terms == other.terms

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        bits = max(self._bits, other._bits)
        out = dict(_lift(self, bits))
        for e, c in _lift(other, bits).items():
            c2 = out.get(e, 0) + c
            if c2:
                out[e] = c2
            else:
                del out[e]
        return Polynomial._raw(out, bits, max(self._bound, other._bound))

    def __neg__(self) -> Polynomial:
        return Polynomial._raw({e: -c for e, c in self._keys.items()}, self._bits, self._bound)

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: int | Polynomial) -> Polynomial:
        if isinstance(other, int):
            if not other:
                return Polynomial._raw({}, 8, 0)
            return Polynomial._raw(
                {e: c * other for e, c in self._keys.items()}, self._bits, self._bound
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        # No degree of the product exceeds the sum of the bounds; widen the
        # slots first if that sum would not fit, so no sum carries.
        bound = self._bound + other._bound
        bits = max(self._bits, other._bits)
        if bound >> bits:
            bits = _width(bound)
        right = list(_lift(other, bits).items())
        out: dict[int, int] = {}
        for e1, c1 in _lift(self, bits).items():
            for e2, c2 in right:
                e = e1 + e2
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    del out[e]
        return Polynomial._raw(out, bits, bound)

    __rmul__ = __mul__

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms ordered by decreasing exponent tuple (padded lexicographic)."""
        return sorted(self.terms.items(), reverse=True)

    def __str__(self) -> str:
        if not self._keys:
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
    _check_int(k, "k")
    # A key uses only the first k slots exactly when it has at most B*k bits.
    top = p._bits * k
    return Polynomial._raw(
        {e: c for e, c in p._keys.items() if e.bit_length() <= top}, p._bits, p._bound
    )


def flatten(comp: Sequence[int]) -> Composition:
    """Drop zero parts.

    >>> flatten((0, 3, 1, 0, 1))
    (3, 1, 1)
    """
    return tuple(filter(None, comp))


def _monomials(p: Polynomial) -> int:
    """The size of a polynomial in a memo: its number of monomials."""
    return len(p._keys)


def _place(a: tuple[int, ...]) -> Polynomial:
    # The slide polynomial of a stripped, nonnegative composition a: the
    # sum of the monomials x^b within len(a) positions whose prefix sums
    # are at least those of a and whose nonzero entries split the nonzero
    # parts of a in order.  Each monomial is charged one unit as it is
    # placed; a = () places the one monomial 1.
    parts = flatten(a)
    npos = len(a)
    floor = tuple(accumulate(a))
    degree = sum(parts)
    bits = _width(degree)
    n = len(parts)
    out: list[int] = []
    # Depth first on an explicit stack, so the depth (npos) is not bounded
    # by Python's recursion limit.  A state is (position j, part t, what
    # is left of part t, prefix sum, key so far); a position's children
    # are pushed last-first so they are popped in the order 0, lo, ..., rem.
    stack = [(0, 0, parts[0] if parts else 0, 0, 0)]
    while stack:
        j, t, rem, psum, key = stack.pop()
        if t == n:
            charge()
            out.append(key)
            continue
        # No state runs out of positions: psum is at least a_1 + ... + a_j
        # and part t still has rem > 0 to place, so t is at least the
        # number of nonzero parts of a in positions 1..j, and the n - t
        # parts left fit in the npos - j positions after j.
        lo = floor[j] - psum
        shift = bits * j
        for v in range(rem, max(lo, 1) - 1, -1):
            if v == rem:
                nxt = parts[t + 1] if t + 1 < n else 0
                stack.append((j + 1, t + 1, nxt, psum + v, key + (v << shift)))
            else:
                stack.append((j + 1, t, rem - v, psum + v, key + (v << shift)))
        if lo <= 0:
            stack.append((j + 1, t, rem, psum, key))
    return Polynomial._raw(dict.fromkeys(out, 1), bits, degree)


# Slide polynomials by stripped composition.  Polynomials are immutable,
# so callers share the stored one.  _slide is the only reader and writer.
_placements = Memo(_monomials)


def _pivot_size(entry: tuple[tuple[int, ...], object, Mapping[int, int]]) -> int:
    """The size of a pivot in a memo: the monomials of its basis element."""
    return len(entry[2])


# The pivots of slide_expand by (packed monomial, slot width), as
# _eliminate stores them, with the exponent tuple as the basis label; at
# the width of a _placements entry the keys are that entry's own dict.
_slide_pivots = Memo(_pivot_size)


def slide_polynomial(a: Sequence[int]) -> Polynomial:
    """Sum of x^b over b dominating a whose nonzero parts refine those of a.

    The index a is a weak composition; trailing zeros do not change the
    result.  The monomial x^a itself is the unique smallest term in
    lexicographic order, and the largest when exponents are compared from
    the last variable back.

    >>> str(slide_polynomial((1, 2)))
    'x1*x2^2'
    >>> str(slide_polynomial((0, 2)))
    'x1^2 + x1*x2 + x2^2'
    """
    return _slide(_strip_zeros(_check_ints(a, "weak composition parts")))


def _slide(a: tuple[int, ...]) -> Polynomial:
    """Kernel: slide_polynomial of a stripped, nonnegative composition, through _placements."""
    p = _placements.find(a)
    if p is None:
        p = _place(a)
        _placements.put(a, p)
    else:
        charge(len(p._keys))
    return p


def fundamental_quasisym(alpha: Sequence[int], k: int) -> Polynomial:
    """Sum over x^b in k variables whose nonzero parts refine alpha.

    It is the slide polynomial of alpha padded with k - len(alpha) zeros
    in front, and 0 when alpha has more than k parts.

    >>> str(fundamental_quasisym((2,), 2))
    'x1^2 + x1*x2 + x2^2'
    >>> str(fundamental_quasisym((1, 1), 2))
    'x1*x2'
    """
    alpha = _check_ints(alpha, "composition parts", 1)
    if _check_int(k, "k") < len(alpha):
        return Polynomial()
    return _slide(_strip_zeros((0,) * (k - len(alpha)) + alpha))


def _eliminate(
    p: Polynomial,
    memo: Memo,
    build: Callable[[tuple[int, ...]], tuple[object, Polynomial]],
) -> dict:
    # Clear the largest key m with the memo's entry (e, label, keys) under
    # (m, bits), as the same int is another monomial at another width: e
    # is the exponent tuple of m, label the basis label and keys the basis
    # element's monomials packed with slots of bits bits (p's width).  A
    # miss builds (label, element) = build(e) and stores the entry only if
    # the element's largest key is m, with coefficient 1, so the maximum
    # strictly decreases; its degree is at most that of m, so p's slots
    # hold it.  A hit charges len(keys), the work of clearing m, as the
    # build of a miss charges its own.  The result is ordered by e.
    bits = p._bits
    work = dict(p._keys)
    get = work.get
    find = memo.find
    found = []
    last = None
    while work:
        m = max(work)
        if last is not None and m >= last:
            raise RuntimeError(f"pivot {_unpack(last, bits)} did not clear the maximum")
        entry = find((m, bits))
        if entry is None:
            e = _unpack(m, bits)
            label, element = build(e)
            keys = _lift(element, bits)
            if max(keys, default=-1) != m or keys[m] != 1:
                raise RuntimeError(
                    f"pivot {e} is not the largest monomial, with coefficient 1, of {label}"
                )
            entry = (e, label, keys)
            memo.put((m, bits), entry)
        else:
            charge(len(entry[2]))
        e, label, keys = entry
        c = work[m]
        found.append((e, label, c))
        for b, cb in keys.items():
            c2 = get(b, 0) - c * cb
            if c2:
                work[b] = c2
            else:
                # c and cb are nonzero, so b was in work.
                del work[b]
        last = m
    # The exponent tuples are distinct, so the sort never compares labels.
    return {label: c for _, label, c in sorted(found)}


def _slide_pivot(e: tuple[int, ...]) -> tuple[Composition, Polynomial]:
    # _slide charges the monomials of a miss.
    return e, _slide(e)


def slide_expand(p: Polynomial) -> dict[Composition, int]:
    """Write p as an integer combination of slide polynomials.

    Repeatedly clears the largest remaining monomial m, comparing
    exponents from the last variable back, with the slide polynomial of
    m, whose largest term in that order is x^m.

    >>> slide_expand(Polynomial({(1, 1): 1, (2,): -1}))
    {(1, 1): 1, (2,): -1}
    """
    return _eliminate(p, _slide_pivots, _slide_pivot)
