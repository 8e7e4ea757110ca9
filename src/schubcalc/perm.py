"""Permutations in one-line notation.

A permutation is a tuple of distinct positive integers whose entry at
index i-1 is the image of i.  The canonical form strips trailing fixed
points, so the identity is the empty tuple and S_n embeds in S_{n+1}.
Positions and values are 1-based throughout.

The module has two layers.  Public functions accept any one-line
notation, validate it once through canonical(), and return canonical
output; those that build a word (shift, cross, grassmannian) end with
_strip.  The private kernels (_strip, _last_descent, _swap, _covers,
_cross) trust their input, a permutation word, canonical or padded with
trailing fixed points, and check nothing; _from_code likewise trusts a
code to be nonnegative, and _grassmannian a partition to have at most k
parts.  Loops that call many kernels validate once at their entry.
"""

from __future__ import annotations

from collections.abc import Sequence

Perm = tuple[int, ...]
Transposition = tuple[int, int]


def canonical(values: Sequence[int]) -> Perm:
    """Validate one-line notation and strip trailing fixed points.

    >>> canonical([4, 2, 1, 5, 3])
    (4, 2, 1, 5, 3)
    >>> canonical([2, 1, 3, 4])
    (2, 1)
    >>> canonical([1, 2])
    ()
    """
    w = tuple(values)
    # The sum of ints is an int; a float, Fraction or Decimal entry that
    # equals an int would pass the sort but not this.  Bools sum to an
    # int too, but False sorts as 0, so only True can pass, as the 1.
    if (
        sorted(w) != list(range(1, len(w) + 1))
        or type(sum(w)) is not int
        or w and w[w.index(1)] is True
    ):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return _strip(w)


def _strip(values: Sequence[int]) -> Perm:
    """Kernel: drop trailing fixed points of a permutation word."""
    n = len(values)
    while n and values[n - 1] == n:
        n -= 1
    return tuple(values[:n])


def pad(w: Sequence[int], n: int) -> Perm:
    """Extend with fixed points so the word has length at least n."""
    w = tuple(w)
    return w + tuple(range(len(w) + 1, n + 1))


def length(w: Sequence[int]) -> int:
    """Coxeter length, i.e. the number of inversions.

    >>> length((4, 2, 1, 5, 3))
    5
    """
    w = canonical(w)
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def descent_set(w: Sequence[int]) -> set[int]:
    """Positions i with w_i > w_{i+1}.

    >>> sorted(descent_set((4, 2, 1, 5, 3)))
    [1, 2, 4]
    """
    w = canonical(w)
    return {i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]}


def last_descent(w: Sequence[int]) -> int | None:
    """Largest descent position, or None for the identity.

    >>> last_descent((4, 2, 1, 5, 3))
    4
    >>> last_descent((1, 2)) is None
    True
    """
    return _last_descent(canonical(w)) or None


def _last_descent(w: Sequence[int]) -> int:
    """Kernel: largest descent position of a permutation word, 0 if none."""
    for i in range(len(w) - 1, 0, -1):
        if w[i - 1] > w[i]:
            return i
    return 0


def code(w: Sequence[int]) -> tuple[int, ...]:
    """Lehmer code: entry i counts the j > i with w_j < w_i.

    Trailing zeros are stripped, matching the canonical form of w.

    >>> code((4, 2, 1, 5, 3))
    (3, 1, 0, 1)
    """
    w = canonical(w)
    c = [sum(1 for j in range(i + 1, len(w)) if w[j] < w[i]) for i in range(len(w))]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def from_code(c: Sequence[int]) -> Perm:
    """Inverse of code.

    >>> from_code((3, 1, 0, 1))
    (4, 2, 1, 5, 3)
    """
    c = tuple(c)
    if any(x < 0 for x in c):
        raise ValueError(f"code entries must be nonnegative: {c!r}")
    return _from_code(c)


def _from_code(c: Sequence[int]) -> Perm:
    """Kernel: from_code for a code known to be nonnegative."""
    n = len(c) + (max(c) if c else 0)
    avail = list(range(1, n + 1))
    w = [avail.pop(x) for x in c]
    return _strip(w + avail)


def inverse(w: Sequence[int]) -> Perm:
    w = canonical(w)
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def _check_int(value: int, name: str, least: int = 0, got: bool = False) -> int:
    """value, if it is an int (a bool counts) and at least least, 0 or 1.

    The one check of the counts that public functions take: k, m, nmax.
    A value that is not an int raises ValueError("<name> must be an int,
    got <value>"); one below least raises ValueError("<name> must be
    nonnegative") or "... positive", with ", got <value>" appended when
    got is set.
    """
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        message = f"{name} must be {'positive' if least else 'nonnegative'}"
        raise ValueError(f"{message}, got {value}" if got else message)
    return value


def _check_transposition(t: Sequence[int]) -> Transposition:
    a, b = t
    if type(a) is not int or type(b) is not int or not 1 <= a < b:
        raise ValueError(f"transposition needs 1 <= a < b, got {tuple(t)!r}")
    return (a, b)


def apply_transposition(w: Sequence[int], t: Sequence[int]) -> Perm:
    """Right multiplication by (a, b): swap the values in positions a and b."""
    a, b = _check_transposition(t)
    return _swap(canonical(w), a, b)


def _swap(w: Sequence[int], a: int, b: int) -> Perm:
    """Kernel: canonical w (a, b) for a permutation word w and 1 <= a < b."""
    v = list(w)
    if b > len(v):
        v.extend(range(len(v) + 1, b + 1))
    v[a - 1], v[b - 1] = v[b - 1], v[a - 1]
    return _strip(v)


def is_covering(w: Sequence[int], t: Sequence[int]) -> bool:
    """Test length(w (a,b)) == length(w) + 1 without recomputing lengths.

    Holds exactly when w_a < w_b and no position strictly between carries
    a value strictly between w_a and w_b.
    """
    a, b = _check_transposition(t)
    return _covers(pad(canonical(w), b), a, b)


def _covers(p: Sequence[int], a: int, b: int) -> bool:
    """Kernel: is_covering for a permutation word p of length at least b."""
    pa, pb = p[a - 1], p[b - 1]
    if pa > pb:
        return False
    for x in p[a : b - 1]:
        if pa < x < pb:
            return False
    return True


def shift(w: Sequence[int], m: int) -> Perm:
    """Prepend m fixed points: 1^m x w.

    >>> shift((2, 1), 2)
    (1, 2, 4, 3)
    """
    _check_int(m, "shift amount")
    w = canonical(w)
    return _strip(tuple(range(1, m + 1)) + tuple(v + m for v in w))


def cross(u: Sequence[int], v: Sequence[int], m: int) -> Perm:
    """Concatenation u x_m v: u on positions 1..m, v shifted above m.

    Requires every position beyond m to be a fixed point of u.

    >>> cross((4, 2, 1, 5, 3), (2, 4, 1, 3), 5)
    (4, 2, 1, 5, 3, 7, 9, 6, 8)
    """
    _check_int(m, "m", got=True)
    u = canonical(u)
    v = canonical(v)
    if len(u) > m:
        raise ValueError(f"u moves position {len(u)} beyond m={m}")
    return _cross(u, v, m)


def _cross(u: Perm, v: Perm, m: int) -> Perm:
    """Kernel: cross for canonical u and v with len(u) <= m."""
    return _strip(pad(u, m) + tuple(x + m for x in v))


def check_partition(lam: Sequence[int]) -> tuple[int, ...]:
    lam = tuple(lam)
    if any(not isinstance(x, int) or x < 1 for x in lam) or any(
        lam[i] < lam[i + 1] for i in range(len(lam) - 1)
    ):
        raise ValueError(f"not a partition: {lam!r}")
    return lam


def grassmannian(lam: Sequence[int], k: int) -> Perm:
    """The permutation with code lambda reversed into positions 1..k.

    Its value at i <= k is i + lam_{k-i+1} (parts beyond len(lam) read as
    zero); the remaining values fill positions k+1, ... in increasing
    order.  The result has a unique descent, at k, unless lam is empty.

    >>> grassmannian((2, 1), 2)
    (2, 4, 1, 3)
    """
    lam = check_partition(lam)
    _check_int(k, "k")
    if len(lam) > k:
        raise ValueError(f"partition {lam!r} has more parts than k={k}")
    return _grassmannian(lam, k)


def _grassmannian(lam: tuple[int, ...], k: int) -> Perm:
    """Kernel: grassmannian for a partition lam with at most k parts."""
    # Position i <= k holds i + lam_{k-i+1}, increasing in i; the values
    # left over follow in increasing order.
    front = [*range(1, k - len(lam) + 1)]
    front += [k + 1 - j + x for j, x in enumerate(lam, 1)][::-1]
    n = k + lam[0] if lam else k
    taken = set(front)
    return _strip(front + [x for x in range(1, n + 1) if x not in taken])


def to_partition(v: Sequence[int], k: int) -> tuple[int, ...]:
    """Recover lam from grassmannian(lam, k); rejects other input."""
    v = canonical(v)
    _check_int(k, "k")
    if any(v[i - 1] > v[i] for i in range(1, len(v)) if i != k):
        raise ValueError(f"{v!r} is not grassmannian with descent at {k}")
    vv = pad(v, k)
    lam = [vv[k - j] - (k - j + 1) for j in range(1, k + 1)]
    while lam and lam[-1] == 0:
        lam.pop()
    return check_partition(lam)


def parse_perm(text: str) -> Perm:
    """Read one-line notation: concatenated digits, or comma-separated."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    try:
        if "," in text:
            values = [int(part) for part in text.split(",")]
        else:
            values = [int(ch) for ch in text]
    except ValueError:
        raise ValueError(f"cannot read permutation from {text!r}") from None
    return canonical(values)


def format_perm(w: Sequence[int]) -> str:
    """Inverse of parse_perm; the identity prints as "1"."""
    w = canonical(w)
    if not w:
        return "1"
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)
