"""Transition, Monk multiplication, last-descent truncation, and products.

This module holds the steps of the last-descent recurrences and the
product they give; the schubert module walks the transition tree and
keeps its memos.  Schubert polynomials are built by
Lascoux–Schützenberger transition, the m = 1 case of last-descent
truncation: with r the last descent of w, s the largest j > r with
w_j < w_r, and v = w (r, s),

    S_w = x_r S_v + sum of S_{v (q, r)} over q < r where v (q, r) covers v.

Every term on the right is shorter than w or lexicographically larger at
the same length, so the recursion ends at the identity.  Setting x_{k+1},
x_{k+2}, ... to zero drops the x_r S_v term whenever r > k, which gives
Stanley polynomials through stability.  _transition is one step of it,
and charges one unit of budget for the node it computes.

Multiplying a Schubert polynomial by a Schur polynomial s_lam(x1..xk) is
done without ever touching monomials: cross the permutation with the
grassmannian permutation of lam, then repeatedly truncate at the last
descent until every term's last descent is at most k.  Each truncation
replaces w by length-preserving chains w-hat (a_1, k)(a_2, k+1) ... and
the chains concatenate into saturated transposition chains that witness
the structure constants.

Every truncation endpoint has a smaller last descent than its node, so
one drain, _drain, empties the tree level by level, by last descent, and
expands each node once; it serves the product and the one-level
truncate_last_descent alike.  No node carries its width, how far past
its last descent the truncation reaches: the truncation kernel _paths,
and the chain walk of lr_chains, read it when they expand the node.
Both run on explicit stacks, so their depth is bounded by memory, not
by Python's recursion limit.

A node whose truncation to k variables is zero has no leaf below it
and no monomial.  Construction and truncation both skip such a node
when it meets this criterion: S_w(x1..xk, 0, ...) = 0 when some value
of w has more than k larger values to its left.  schubert._node
answers a _stanley miss that meets it with 0.  _paths reads it at one
value of an endpoint, the one just after its last descent, and drops
the endpoint unexpanded when that value meets it.  The sketch is
Bergeron and Billey's (RC-graphs and Schubert polynomials,
Experimental Math. 1993).  The bottom pipe dream of w^-1 holds c_i
crosses in row i, left-justified, where c is the code of w^-1: c_i
counts the values of w larger than i to the left of i.  Every reduced
pipe dream of w^-1 is reached from it by ladder moves, and a ladder
move takes a cross one column right, so none has all its crosses in
columns 1..k when some c_i > k.  Transposing the pipe dreams of w^-1
gives those of w, whose rows carry the variables, so no monomial of
S_w lives in x1..xk.  The converse holds too on S1..S7, where the
tests check both directions; both skips use only this one.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Generator, Sequence

from ._limits import charge
from .perm import (
    Perm,
    Transposition,
    _check_int,
    _check_transposition,
    _covers,
    _cross,
    _grassmannian,
    _last_descent,
    _strip,
    _swap,
    canonical,
    check_partition,
    pad,
)
from .poly import Polynomial, _lift, _width


def _transition(
    w: Perm, k: int, r: int, memo, key: Perm | tuple[Perm, int]
) -> Generator[Perm, Polynomial, Polynomial]:
    """One step of schubert._node's walk: yields each child word, receives its polynomial.

    Its first statement charges one unit of budget for the node, before
    the first child is looked up, so each node the walk computes is
    charged once, here.  It stores S_w(x1..xk, 0, ...) in memo, one of
    schubert's two, under key and returns it; r is the last descent of
    w.  The x_r child comes first, then the q-children from q = r - 1
    down, so memo hits, misses and evictions follow that order.  Each
    q-child is swapped into v in place and back around its yield.  The
    sum starts as a copy of the first q-child, whose keys need no shift;
    the later q-children merge into it, and the x_r term, raised by x_r,
    merges last.
    """
    charge()
    wr = w[r - 1]
    n = s = len(w)
    while w[s - 1] > wr:
        s -= 1
    v = list(w)
    v[r - 1], v[s - 1] = v[s - 1], wr
    # w is canonical, so v ends in a fixed point only when the swap put n
    # at position n; tail is the length of v without its fixed points.
    tail = n if v[-1] != n else len(_strip(v))
    # S_w has degree length(w) <= n(n-1)/2, below 256 for n <= 23, and no
    # child is longer than w, so slots of this width hold the node and
    # its children.  bound is the exact degree.
    bits = 8 if n <= 23 else _width(n * (n - 1) // 2)
    bound = 0
    xr = None
    if r <= k:
        xr = yield tuple(v[:tail])
        bound = xr._bound + 1
    # A q-child holds v_q < v_r <= r at position r when every position
    # past r is fixed, so none of its words ends before r.
    if tail < r:
        tail = r
    out: dict[int, int] | None = None
    # v (q, r) covers v exactly when v_q < v_r and no value strictly
    # between them sits in positions q+1..r-1.
    vr = v[r - 1]
    lo = 0
    for q in range(r - 1, 0, -1):
        vq = v[q - 1]
        if lo < vq < vr:
            lo = vq
            v[q - 1], v[r - 1] = vr, vq
            child = yield tuple(v[:tail])
            v[q - 1], v[r - 1] = vq, vr
            if child._bound > bound:
                bound = child._bound
            keys = child._keys if child._bits == bits else _lift(child, bits)
            if out is None:
                # A copy: stored children, and schubert._ONE, never change.
                out = dict(keys)
                get = out.get
            else:
                # Coefficients are positive, so sums never cancel.
                for e, c in keys.items():
                    out[e] = get(e, 0) + c
    if xr is not None:
        step = 1 << bits * (r - 1)
        keys = xr._keys if xr._bits == bits else _lift(xr, bits)
        if out is None:
            out = {e + step: c for e, c in keys.items()}
        else:
            for e, c in keys.items():
                e += step
                out[e] = get(e, 0) + c
    elif out is None:
        out = {}
    if bound >> bits:
        raise RuntimeError(f"S_{w} has degree {bound}, too large for {bits}-bit slots")
    p = Polynomial._raw(out, bits, bound)
    memo.put(key, p)
    return p


class Chain:
    """A walk in Bruhat order: steps[i] moves the length by directions[i].

    Construction validates every step, so a Chain that exists is a real
    saturated chain from its base.  Chains are immutable, and equal and
    hash by (base, steps, directions).
    """

    __slots__ = ("base", "steps", "directions", "_end")
    base: Perm
    steps: tuple[Transposition, ...]
    directions: tuple[int, ...]

    def __init__(
        self,
        base: Sequence[int],
        steps: Sequence[Sequence[int]],
        directions: Sequence[int],
    ):
        base = canonical(base)
        directions = tuple(directions)
        if not {*directions} <= {-1, 1} or not {*map(type, directions)} <= {int}:
            raise ValueError("directions must be +1 or -1")
        self._init(base, tuple(map(_check_transposition, steps)), directions)

    @classmethod
    def _trusted(
        cls, base: Perm, steps: tuple[Transposition, ...], directions: tuple[int, ...]
    ) -> Chain:
        """Kernel: a Chain whose parts have the shape __init__ checks.

        base is canonical, each step a pair of ints 1 <= a < b, and each
        direction an int, +1 or -1; lr_chains vouches for the steps with
        its leaf check 0 < a <= k < b.  That each step covers, or is
        covered, in its direction is still checked.
        """
        chain = cls.__new__(cls)
        chain._init(base, steps, directions)
        return chain

    def _init(
        self, base: Perm, steps: tuple[Transposition, ...], directions: tuple[int, ...]
    ) -> None:
        if len(steps) != len(directions):
            raise ValueError("steps and directions must pair up")
        # One walk, padded as it goes.  A transposition can shift length
        # by any odd amount; (a, b) moves it by exactly one, up when
        # p_a < p_b and down when p_a > p_b, when no value between p_a
        # and p_b sits between positions a and b.
        p = list(base)
        n = len(p)
        for (a, b), d in zip(steps, directions):
            if b > n:
                p.extend(range(n + 1, b + 1))
                n = b
            pa = p[a - 1]
            pb = p[b - 1]
            lo, hi = (pa, pb) if d == 1 else (pb, pa)
            if lo > hi:
                raise ValueError(f"step {(a, b)} is not a covering in direction {d}")
            for x in p[a : b - 1]:
                if lo < x < hi:
                    raise ValueError(f"step {(a, b)} is not a covering in direction {d}")
            p[a - 1] = pb
            p[b - 1] = pa
        setfield = object.__setattr__
        setfield(self, "base", base)
        setfield(self, "steps", steps)
        setfield(self, "directions", directions)
        setfield(self, "_end", _strip(p))

    def _key(self) -> tuple:
        return (self.base, self.steps, self.directions)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Chain(base={self.base!r}, steps={self.steps!r}, directions={self.directions!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Chain, self._key())

    @property
    def endpoint(self) -> Perm:
        return self._end

    def walk(self) -> tuple[Perm, ...]:
        out = [self.base]
        for a, b in self.steps:
            out.append(_swap(out[-1], a, b))
        return tuple(out)

    def __str__(self) -> str:
        return format_chain(self.steps)


def format_chain(steps: Sequence[Sequence[int]]) -> str:
    return "".join(f"({a},{b})" for a, b in steps)


def monk_multiply(w: Sequence[int], k: int) -> dict[Perm, int]:
    """Expansion of the product with x1 + ... + xk in the Schubert basis.

    Sorted by permutation, as the product's is; empty at k = 0.

    >>> monk_multiply((), 1)
    {(2, 1): 1}
    """
    w = canonical(w)
    n = max(len(w), _check_int(k, "k"))
    p = pad(w, n + 1)
    out: dict[Perm, int] = {}
    for a in range(1, k + 1):
        for b in range(k + 1, n + 2):
            if _covers(p, a, b):
                u = _swap(w, a, b)
                if u in out:
                    raise RuntimeError(f"Monk term {u} reached by two transpositions")
                out[u] = 1
    return dict(sorted(out.items()))


def _truncation_node(w: Sequence[int]) -> tuple[Perm, int]:
    """Canonical w and its last descent k, where truncation starts; the identity has none."""
    w = canonical(w)
    k = _last_descent(w)
    if not k:
        raise ValueError("the identity has no descent to truncate")
    return w, k


def _descent_width(w: Perm, k: int) -> int:
    """The width m of canonical w at its last descent k: w_k > w_{k+m}, m maximal."""
    wk = w[k - 1]
    km = len(w)
    while w[km - 1] > wk:
        km -= 1
    return km - k


def _start_word(w: Perm, k: int, m: int) -> list[int]:
    """w-hat of canonical w as a word of length len(w), checked against its definition.

    w-hat is w (k, k+m) (k, k+m-1) ... (k, k+1), with k the last descent
    and m its _descent_width: the value at k moves just past the m values
    after it.
    """
    what = [*w[: k - 1], *w[k : k + m], w[k - 1], *w[k + m :]]
    # Undo the transpositions in place on a copy: (k, k+1) ... (k, k+m)
    # must lead back to w.
    p = what[:]
    for b in range(k + 1, k + m + 1):
        p[k - 1], p[b - 1] = p[b - 1], p[k - 1]
    if _strip(p) != w:
        raise RuntimeError(f"truncation start of {w} disagrees with its transpositions")
    return what


def truncation_start(w: Sequence[int]) -> Perm:
    """Cycle the last-descent value just past the values it exceeds.

    >>> truncation_start((5, 1, 7, 3, 8, 2, 4, 6))
    (5, 1, 7, 3, 2, 4, 6)
    """
    w, k = _truncation_node(w)
    return _strip(_start_word(w, k, _descent_width(w, k)))


def truncation_paths(w: Sequence[int]) -> tuple[tuple[Perm, tuple[int, ...]], ...]:
    """Length-preserving completions of the truncation, with their columns.

    Each result pairs an endpoint what(a_1, k)...(a_m, k+m-1) with the
    tuple (a_1, ..., a_m); every a_i is below k and every step is a
    covering.  Columns are explored largest-first.

    >>> truncation_paths((1, 4, 2, 3))
    (((3, 1, 2), (1, 1)),)
    """
    w, k = _truncation_node(w)
    return tuple((e, cols) for e, cols, _ in _paths(w, k, k - 1))


def _paths(w: Perm, k: int, low: int) -> list[tuple[Perm, tuple[int, ...], int]]:
    """Kernel: truncation_paths of canonical w, whose last descent is k.

    w's width m, its _descent_width, is read here, once per expanded
    node; no endpoint carries one.  Each endpoint e comes as
    (e, columns, ld) with ld the last descent of e, read off the same
    scan that strips it.  low < k is the number of variables the caller
    truncates to: an endpoint with ld > low is dropped, after it is
    charged, when its value just after the last descent has more than
    low larger values to its left.  Of the values from the last descent
    on, that one has the most, so the test reads only it.  It is a lower
    bound on the largest such count over all of e, so every endpoint
    whose truncation to x1..x_low is nonzero is kept (the criterion in
    the module docstring), and a few dead ones are too: 58 of the 17 297
    on S7.  With low = k - 1 every endpoint has ld <= low and none is
    dropped.
    """
    # One word, long enough for every column, swapped in place and
    # restored.  Column j works position b = k + j and holds p_b in pb
    # while it runs; a swap in column last = m - 1 makes an endpoint.
    # cols[j] is the row column j swapped, and the stack of the walk.
    # (a, b) is a covering exactly when lo < p_a < p_b, where lo is the
    # largest value below p_b in positions a+1..b-1: a new column starts
    # lo from positions k..b-1, and after a swap is undone lo is p_a and
    # the next row to try is a - 1, so a column resumes from cols alone.
    # pa holds p_a of the row a being tried or swapped.  Once lo is
    # p_b - 1 no value lies strictly between them, so no further row can
    # cover: a is set to 0 and the column ends without trying the rest.
    m = _descent_width(w, k)
    p = _start_word(w, k, m)
    n = len(p)
    out: list[tuple[Perm, tuple[int, ...], int]] = []
    emit = out.append
    cols = [0] * m
    last = m - 1
    j, b, a, lo = 0, k, k - 1, 0
    pb = p[k - 1]
    while True:
        if lo == pb - 1:
            a = 0
        while a:
            pa = p[a - 1]
            if lo < pa < pb:
                break
            a -= 1
        else:
            # Column exhausted: undo the swap of the one before it and
            # resume that column.
            if not j:
                return out
            j -= 1
            b -= 1
            a = cols[j]
            pa = p[b - 1]
            pb = p[a - 1]
            p[a - 1] = pa
            p[b - 1] = pb
            lo = pa
            a -= 1
            continue
        p[a - 1] = pb
        p[b - 1] = pa
        cols[j] = a
        if j < last:
            j += 1
            b += 1
            pb = p[b - 1]
            lo = 0
            for x in p[k - 1 : b - 1]:
                if lo < x < pb:
                    lo = x
            a = k - 1
            continue
        charge()
        # Endpoint: strip the trailing fixed points, then walk the
        # increasing run before them down to the last descent.  The
        # endpoint has w's length, so it is not the identity.
        i = n
        while p[i - 1] == i:
            i -= 1
        ld = i - 1
        while p[ld - 1] < p[ld]:
            ld -= 1
        if ld >= k:
            raise RuntimeError(
                f"truncation endpoint {tuple(p[:i])} keeps a descent at {ld} >= {k}"
            )
        # Past ld the values increase to the end, so p_q there has its
        # p_q - 1 smaller values to its left: q - p_q larger ones.  That
        # count falls as q moves right, so it is largest at q = ld + 1.
        # p_ld, and every larger value to its left, exceeds p_{ld+1}, so
        # p_ld's count is below that one too.  So the criterion reads
        # p_{ld+1}, which is p[ld]: more than low larger values to its
        # left make the endpoint's truncation to x1..x_low vanish.
        if ld <= low or ld - p[ld] < low:
            emit((tuple(p[:i]), tuple(cols), ld))
        p[a - 1] = pa
        p[b - 1] = pb
        lo = pa
        a -= 1


def _drain(seed: Perm, k: int) -> dict[Perm, int]:
    """Kernel: Schubert expansion of S_seed(x1..xk, 0, ...), sorted, for k >= 0.

    seed is canonical.  Truncation is drained by last descent, from the
    seed's down to k + 1: every endpoint's last descent is below its
    node's, so a level is complete when it is reached, and each node is
    expanded once with its coefficient summed over all its parents.  The
    leaves, the nodes with last descent at most k, are the expansion;
    coefficients are positive.  One unit of budget is charged per
    expanded node, and _paths charges one per endpoint.  _paths drops an
    endpoint whose truncation to x1..xk it sees vanish, by the module's
    criterion, so a node is expanded only when a leaf may lie below it;
    a dropped endpoint is charged but never expanded.
    """
    top = _last_descent(seed)
    if top <= k:
        return {seed: 1}
    # levels[ld] maps each node with last descent ld to its coefficient.
    levels: defaultdict[int, dict[Perm, int]] = defaultdict(dict)
    levels[top][seed] = 1
    done: dict[Perm, int] = {}
    for kk in range(top, k, -1):
        for w, c in levels.pop(kk, {}).items():
            charge()
            for p, _, ld in _paths(w, kk, k):
                level = done if ld <= k else levels[ld]
                level[p] = level.get(p, 0) + c
    return dict(sorted(done.items()))


def truncate_last_descent(w: Sequence[int]) -> dict[Perm, int]:
    """Schubert expansion of w's polynomial with its last variable killed.

    Setting x_k = 0 in the polynomial of w, where k is w's last descent,
    leaves a sum of Schubert polynomials indexed by the endpoints of
    truncation_paths, each appearing exactly once; the expansion is
    sorted, as the product's is.  It is one level of the product's drain.

    >>> truncate_last_descent((1, 3, 2))
    {(2, 1): 1}
    """
    w, top = _truncation_node(w)
    out = _drain(w, top - 1)
    for p, c in out.items():
        if c != 1:
            raise RuntimeError(f"duplicate truncation endpoint {p}")
    return out


def _product_seed(u: Sequence[int], v: Perm, k: int) -> tuple[Perm, Perm]:
    """The one validated start of the product: canonical u and the seed u x v.

    v must be canonical, as grassmannian returns it; u is validated here,
    once, and crossed with the trusted kernel.

    By the paper's first theorem S_u F_v(x1..xk) is the truncation of
    S_{u x v} to x1..xk, with v crossed above max(k, len(u)); a leaf of
    the truncation tree has last descent at most k.
    """
    u = canonical(u)
    _check_int(k, "k")
    ld = _last_descent(u)
    if ld > k:
        raise ValueError(f"last descent of u is {ld}, beyond k={k}")
    return u, _cross(u, v, max(k, len(u)))


def schubert_times_schur(
    u: Sequence[int], lam: Sequence[int], k: int
) -> dict[Perm, int]:
    """Schubert expansion of the product with s_lam(x1..xk).

    Requires the last descent of u to be at most k, so k = 0 takes only
    the identity; the expansion is then finite, positive, and supported
    on permutations with last descent at most k.  s_lam(x1..xk) =
    F_{v_lam}(x1..xk), so the product is the truncation of S_{u x v_lam},
    drained to k variables; a lam with more than k rows gives a tree
    with no leaf, and the product 0.

    >>> schubert_times_schur((), (2, 1), 2)
    {(2, 4, 1, 3): 1}
    """
    lam = check_partition(lam)
    _, seed = _product_seed(u, _grassmannian(lam, len(lam)), k)
    return _drain(seed, k)


def lr_coefficient(
    u: Sequence[int], lam: Sequence[int], k: int, w: Sequence[int]
) -> int:
    """Coefficient of one Schubert polynomial in the product expansion."""
    w = canonical(w)
    return schubert_times_schur(u, lam, k).get(w, 0)


def _push_down(ups: list[Transposition], x: int, y: int) -> bool:
    """Move the down-step t = (x, y) left across the up-steps ups, in place.

    Moving t left across an up-step s rewrites s t as t (t s t), and
    t s t is s with the points x and y exchanged; an up-step equal to t
    cancels against it.  Returns whether t survives, i.e. whether it is
    a down-step of the rewritten word.  The group element is unchanged.
    """
    for i in range(len(ups) - 1, -1, -1):
        a, b = ups[i]
        if a == x:
            if b == y:
                del ups[i]
                return False
            a = y
        elif a == y:
            a = x
        if b == x:
            b = y
        elif b == y:
            b = x
        ups[i] = (a, b) if a < b else (b, a)
    return True


def lr_chains(
    u: Sequence[int], lam: Sequence[int], k: int
) -> dict[Perm, tuple[Chain, ...]]:
    """Saturated chains from u witnessing each product coefficient.

    Every chain uses |lam| up-steps (a, b) with a <= k < b; the number of
    chains ending at w is the coefficient of w in schubert_times_schur.

    >>> {w: [str(c) for c in cs] for w, cs in lr_chains((), (2, 1), 2).items()}
    {(2, 4, 1, 3): ['(2,3)(1,3)(2,4)']}
    """
    lam = check_partition(lam)
    u, w0 = _product_seed(u, _grassmannian(lam, len(lam)), k)
    size = sum(lam)
    ones = (1,) * size
    out: dict[Perm, list[Chain]] = {}

    # The raw word of a leaf is its path's down-steps and lifted up-steps
    # in order; each node rewrites its own down-steps into the state it
    # inherits (the rewritten up-steps, and the seed lowered by the
    # surviving down-steps), so no leaf rewrites its path from the root.
    # The tree is walked depth first on an explicit stack of
    # (w, its last descent, its own ups list, base); a node's children
    # are pushed in reverse, so they are visited in _paths order.
    stack = [(w0, _last_descent(w0), [], w0)]
    while stack:
        w, kk, ups, base = stack.pop()
        if kk <= k:
            if base != u:
                raise RuntimeError(f"down-steps to {w} leave {base}, not u = {u}")
            # Chain._trusted takes the shape of each step from this check.
            crossing = len(ups) == size
            for a, b in ups:
                if not 0 < a <= k < b:
                    crossing = False
                    break
            if not crossing:
                raise RuntimeError(f"up-steps {ups} to {w} do not cross k = {k} |lam| times")
            chain = Chain._trusted(u, tuple(ups), ones)
            if chain.endpoint != w:
                raise RuntimeError(f"chain {chain} ends at {chain.endpoint}, not {w}")
            out.setdefault(w, []).append(chain)
            continue
        # ups is this node's own list: its parent built it for this node.
        for b in range(kk + _descent_width(w, kk), kk, -1):
            if _push_down(ups, kk, b):
                base = _swap(base, kk, b)
        for p, cols, ld in reversed(_paths(w, kk, k)):
            stack.append((p, ld, ups + [(a, kk + j) for j, a in enumerate(cols)], base))
    return {w: tuple(cs) for w, cs in sorted(out.items())}
