"""Transition, Monk multiplication, last-descent truncation, and products.

Schubert polynomials are built by Lascoux–Schützenberger transition, the
m = 1 case of last-descent truncation: with r the last descent of w, s
the largest j > r with w_j < w_r, and v = w (r, s),

    S_w = x_r S_v + sum of S_{v (q, r)} over q < r where v (q, r) covers v.

Every term on the right is shorter than w or lexicographically larger at
the same length, so the recursion ends at the identity.  Setting x_{k+1},
x_{k+2}, ... to zero drops the x_r S_v term whenever r > k, which gives
Stanley polynomials through stability.

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
truncate_last_descent alike.  The truncation kernel _paths and the chain
walk of lr_chains run on explicit stacks, so their depth is bounded by
memory, not by Python's recursion limit.

A node whose truncation to the drain's k variables is zero has no leaf
below it, and _paths drops such an endpoint unexpanded when it meets
this criterion: S_w(x1..xk, 0, ...) = 0 when some value of w has more
than k larger values to its left.  The sketch is Bergeron and Billey's
(RC-graphs and Schubert polynomials, Experimental Math. 1993).  The
bottom pipe dream of w^-1 holds c_i crosses in row i, left-justified,
where c is the code of w^-1: c_i counts the values of w larger than i
to the left of i.  Every reduced pipe dream of w^-1 is reached from it
by ladder moves, and a ladder move takes a cross one column right, so
none has all its crosses in columns 1..k when some c_i > k.
Transposing the pipe dreams of w^-1 gives those of w, whose rows carry
the variables, so no monomial of S_w lives in x1..xk.  The converse
holds too on S1..S7, where the tests check both directions; the drop
uses only this one.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Generator, Sequence

from ._limits import Memo, charge
from .perm import (
    Perm,
    Transposition,
    _check_int,
    _check_transposition,
    _covers,
    _cross,
    _last_descent,
    _strip,
    _swap,
    canonical,
    grassmannian,
    pad,
)
from .poly import Polynomial, _lift, _monomials, _width

# _schubert holds S_w by w; _stanley holds S_w(x1..xk, 0, ...) by (w, k)
# for the w whose last descent is beyond k, where truncation matters.
# _node is their one reader: schubert, stanley, schur, truncated_schubert
# and schubert_expand's pivots each validate and call it once.
_schubert = Memo(_monomials)
_stanley = Memo(_monomials)
_ONE = Polynomial._raw({0: 1}, 8, 0)


def _node(w: Perm, k: int) -> Polynomial:
    """S_w(x1..xk, 0, ...) for canonical w, through the memos.

    w is the first lookup of a depth-first walk of the transition tree,
    on an explicit stack that holds one _transition generator per node
    being computed, so its depth (the length of w for the longest
    element) is bounded by memory, not by Python's recursion limit.  A
    lookup is the identity's _ONE, or one find() in _schubert under w
    when the last descent is at most k, else in _stanley under (w, k); a
    miss charges one unit of budget, before its children, and starts the
    node.  A node asks for its children one at a time and each is looked
    up only when the one before it is complete, so memo hits, misses and
    evictions come in depth-first order.  A child computed here goes to
    its parent directly, not through find(), so it is stored unread at
    the memo's cold end, first to be evicted, until a later lookup reads
    it; the shared nodes that lookups do read are kept.
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
            if p is None:
                charge()
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


def _transition(
    w: Perm, k: int, r: int, memo: Memo, key: Perm | tuple[Perm, int]
) -> Generator[Perm, Polynomial, Polynomial]:
    """One transition step of _node: yields each child word, receives its polynomial.

    Stores S_w(x1..xk, 0, ...) in memo under key and returns it; r is the
    last descent of w.  The x_r child comes first, then the q-children
    from q = r - 1 down, so memo hits, misses and evictions follow that
    order.  The sum starts as a copy of the first q-child, whose keys need
    no shift; the later q-children merge into it, and the x_r term, raised
    by x_r, merges last.
    """
    wr = w[r - 1]
    s = len(w)
    while w[s - 1] > wr:
        s -= 1
    v = list(w)
    v[r - 1], v[s - 1] = v[s - 1], wr
    # S_w has degree length(w) <= n(n-1)/2 for n = len(w), and no child
    # is longer than w, so slots of this width hold the node and its
    # children.  bound is the exact degree.
    n = len(w)
    bits = _width(n * (n - 1) // 2)
    bound = 0
    xr = None
    if r <= k:
        xr = yield _strip(v)
        bound = xr._bound + 1
    out: dict[int, int] | None = None
    # v (q, r) covers v exactly when v_q < v_r and no value strictly
    # between them sits in positions q+1..r-1.
    vr = v[r - 1]
    lo = 0
    for q in range(r - 1, 0, -1):
        vq = v[q - 1]
        if lo < vq < vr:
            lo = vq
            u = v[:]
            u[q - 1], u[r - 1] = vr, vq
            child = yield _strip(u)
            if child._bound > bound:
                bound = child._bound
            if out is None:
                # A copy: stored children, and _ONE, never change.
                out = dict(_lift(child, bits))
                get = out.get
            else:
                # Coefficients are positive, so sums never cancel.
                for e, c in _lift(child, bits).items():
                    out[e] = get(e, 0) + c
    if xr is not None:
        step = 1 << bits * (r - 1)
        if out is None:
            out = {e + step: c for e, c in _lift(xr, bits).items()}
        else:
            for e, c in _lift(xr, bits).items():
                e += step
                out[e] = get(e, 0) + c
    elif out is None:
        out = {}
    if bound >> bits:
        raise RuntimeError(f"S_{w} has degree {bound}, too large for {bits}-bit slots")
    p = Polynomial._raw(out, bits, bound)
    memo.put(key, p)
    return p


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
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "_end", _strip(p))

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

    >>> monk_multiply((), 1)
    {(2, 1): 1}
    """
    w = canonical(w)
    n = max(len(w), _check_int(k, "k", 1))
    p = pad(w, n + 1)
    out: dict[Perm, int] = {}
    for a in range(1, k + 1):
        for b in range(k + 1, n + 2):
            if _covers(p, a, b):
                u = _swap(w, a, b)
                if u in out:
                    raise RuntimeError(f"Monk term {u} reached by two transpositions")
                out[u] = 1
    return out


def _descent_data(w: Perm) -> tuple[int, int]:
    """Last descent k of canonical w and the width m with w_k > w_{k+m} maximal."""
    k = _last_descent(w)
    if not k:
        raise ValueError("the identity has no descent to truncate")
    wk = w[k - 1]
    km = len(w)
    while w[km - 1] > wk:
        km -= 1
    return k, km - k


def _start_word(w: Perm, k: int, m: int) -> list[int]:
    """w-hat of canonical w as a word of length len(w), checked against its definition.

    w-hat is w (k, k+m) (k, k+m-1) ... (k, k+1): the value at k moves
    just past the m values after it.
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
    w = canonical(w)
    return _strip(_start_word(w, *_descent_data(w)))


def truncation_paths(w: Sequence[int]) -> tuple[tuple[Perm, tuple[int, ...]], ...]:
    """Length-preserving completions of the truncation, with their columns.

    Each result pairs an endpoint what(a_1, k)...(a_m, k+m-1) with the
    tuple (a_1, ..., a_m); every a_i is below k and every step is a
    covering.  Columns are explored largest-first.

    >>> truncation_paths((1, 4, 2, 3))
    (((3, 1, 2), (1, 1)),)
    """
    w = canonical(w)
    k, m = _descent_data(w)
    return tuple((e, cols) for e, cols, _, _ in _paths(w, k, m, k - 1))


def _paths(
    w: Perm, k: int, m: int, low: int
) -> list[tuple[Perm, tuple[int, ...], int, int]]:
    """Kernel: truncation_paths of canonical w, whose _descent_data is (k, m).

    Each endpoint e comes as (e, columns, ld, m') with (ld, m') the
    _descent_data of e, read off the same scan that strips it.  low < k
    is the number of variables the caller truncates to: an endpoint with
    ld > low is dropped, after it is charged, when the scan sees a value
    of e with more than low larger values to its left.  The scan looks at
    the values from the last descent on, so it finds a lower bound on
    the largest such count, and keeps every endpoint whose truncation to
    x1..x_low is nonzero (the criterion in the module docstring).  With
    low = k - 1 every endpoint has ld <= low and none is dropped.
    """
    # One word, long enough for every column, swapped in place and
    # restored.  Column j works position b = k + j; cols[j] is the row
    # it swapped, and the stack of the walk.  (a, b) is a covering
    # exactly when lo < p_a < p_b, where lo is the largest value below
    # p_b in positions a+1..b-1; after a swap is undone, lo is p_a and
    # the next row to try is a - 1, so a column resumes from cols alone.
    p = _start_word(w, k, m)
    n = len(p)
    out: list[tuple[Perm, tuple[int, ...], int, int]] = []
    cols = [0] * m
    j, b, a, lo = 0, k, k - 1, 0
    while True:
        pb = p[b - 1]
        while a and not lo < p[a - 1] < pb:
            a -= 1
        if not a:
            # Column exhausted: resume the one before it.
            if not j:
                return out
            j -= 1
            b -= 1
            a = cols[j]
            p[a - 1], p[b - 1] = p[b - 1], p[a - 1]
            lo = p[a - 1]
            a -= 1
            continue
        pa = p[a - 1]
        p[a - 1], p[b - 1] = pb, pa
        cols[j] = a
        if j < m - 1:
            j += 1
            b += 1
            pb = p[b - 1]
            lo = 0
            for c in range(k - 1, b - 1):
                if lo < p[c] < pb:
                    lo = p[c]
            a = k - 1
            continue
        charge()
        # Endpoint: strip the trailing fixed points, then walk the
        # increasing run before them down to the last descent.  The
        # endpoint has w's length, so it is not the identity.  Every
        # value from position i on is a fixed point, so the run and the
        # values after it increase to the end, and a value p_q on the run
        # has its p_q - 1 smaller values to its left: q - p_q larger ones.
        i = n
        while p[i - 1] == i:
            i -= 1
        h = i - p[i - 1]
        ld = i - 1
        while p[ld - 1] < p[ld]:
            if ld - p[ld - 1] > h:
                h = ld - p[ld - 1]
            ld -= 1
        if ld >= k:
            raise RuntimeError(
                f"truncation endpoint {tuple(p[:i])} keeps a descent at {ld} >= {k}"
            )
        top = p[ld - 1]
        t = ld
        while t < i and p[t] < top:
            t += 1
        # top has t - ld smaller values to its right, so ld - top + (t - ld)
        # larger ones to its left.  More than low such values anywhere
        # make the endpoint's truncation to x1..x_low vanish.
        if t - top > h:
            h = t - top
        if ld <= low or h <= low:
            out.append((tuple(p[:i]), tuple(cols), ld, t - ld))
        p[a - 1], p[b - 1] = pa, pb
        lo = pa
        a -= 1


def _drain(seed: Perm, top: int, m: int, k: int) -> dict[Perm, int]:
    """Kernel: Schubert expansion of S_seed(x1..xk, 0, ...), sorted, for k >= 0.

    seed is canonical with _descent_data (top, m), or the identity with
    (0, 0).  Truncation is drained by last descent, from top down to
    k + 1: every endpoint's last descent is below its node's, so a level
    is complete when it is reached, and each node is expanded once with
    its coefficient summed over all its parents.  The leaves, the nodes
    with last descent at most k, are the expansion; coefficients are
    positive.  One unit of budget is charged per expanded node, and _paths
    charges one per endpoint.  _paths drops an endpoint whose truncation
    to x1..xk it sees vanish, by the module's criterion, so a node is
    expanded only when a leaf may lie below it; a dropped endpoint is
    charged but never expanded.
    """
    if top <= k:
        return {seed: 1}
    # levels[ld] maps each node with last descent ld to [coefficient, m].
    levels: defaultdict[int, dict[Perm, list[int]]] = defaultdict(dict)
    levels[top][seed] = [1, m]
    done: dict[Perm, int] = {}
    for kk in range(top, k, -1):
        for w, (c, m) in levels.pop(kk, {}).items():
            charge()
            for p, _, ld, mp in _paths(w, kk, m, k):
                if ld <= k:
                    done[p] = done.get(p, 0) + c
                else:
                    levels[ld].setdefault(p, [0, mp])[0] += c
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
    w = canonical(w)
    top, m = _descent_data(w)
    out = _drain(w, top, m, top - 1)
    for p, c in out.items():
        if c != 1:
            raise RuntimeError(f"duplicate truncation endpoint {p}")
    return out


def _product_seed(u: Sequence[int], v: Perm, k: int) -> tuple[Perm, Perm, int, int]:
    """The one validated start of the product: canonical u, u x v, and its descent data.

    v must be canonical, as grassmannian returns it; u is validated here,
    once, and crossed with the trusted kernel.

    By the paper's first theorem S_u F_v(x1..xk) is the truncation of
    S_{u x v} to x1..xk, with v crossed above max(k, len(u)); a leaf of
    the truncation tree has last descent at most k.  The descent data is
    (0, 0) for the identity seed, which is already a leaf.
    """
    u = canonical(u)
    _check_int(k, "k", 1)
    ld = _last_descent(u)
    if ld > k:
        raise ValueError(f"last descent of u is {ld}, beyond k={k}")
    seed = _cross(u, v, max(k, len(u)))
    return (u, seed, *(_descent_data(seed) if seed else (0, 0)))


def schubert_times_schur(
    u: Sequence[int], lam: Sequence[int], k: int
) -> dict[Perm, int]:
    """Schubert expansion of the product with s_lam(x1..xk).

    Requires the last descent of u to be at most k; the expansion is
    then finite, positive, and supported on permutations with last
    descent at most k.  s_lam(x1..xk) = F_{v_lam}(x1..xk), so the product
    is the truncation of S_{u x v_lam}, drained to k variables; a lam
    with more than k rows gives a tree with no leaf, and the product 0.

    >>> schubert_times_schur((), (2, 1), 2)
    {(2, 4, 1, 3): 1}
    """
    _, seed, top, m = _product_seed(u, grassmannian(lam, len(lam)), k)
    return _drain(seed, top, m, k)


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
    u, w0, kk, m = _product_seed(u, grassmannian(lam, len(lam)), k)
    size = sum(lam)
    ones = (1,) * size
    out: dict[Perm, list[Chain]] = {}

    # The raw word of a leaf is its path's down-steps and lifted up-steps
    # in order; each node rewrites its own down-steps into the state it
    # inherits (the rewritten up-steps, and the seed lowered by the
    # surviving down-steps), so no leaf rewrites its path from the root.
    # The tree is walked depth first on an explicit stack of
    # (w, its descent data, its own ups list, base); a node's children
    # are pushed in reverse, so they are visited in _paths order.
    stack = [(w0, kk, m, [], w0)]
    while stack:
        w, kk, m, ups, base = stack.pop()
        if kk <= k:
            if base != u:
                raise RuntimeError(f"down-steps to {w} leave {base}, not u = {u}")
            # Chain._trusted takes the shape of each step from this check.
            if len(ups) != size or not all(0 < a <= k < b for a, b in ups):
                raise RuntimeError(f"up-steps {ups} to {w} do not cross k = {k} |lam| times")
            chain = Chain._trusted(u, tuple(ups), ones)
            if chain.endpoint != w:
                raise RuntimeError(f"chain {chain} ends at {chain.endpoint}, not {w}")
            out.setdefault(w, []).append(chain)
            continue
        # ups is this node's own list: its parent built it for this node.
        for b in range(kk + m, kk, -1):
            if _push_down(ups, kk, b):
                base = _swap(base, kk, b)
        for p, cols, ld, mp in reversed(_paths(w, kk, m, k)):
            stack.append((p, ld, mp, ups + [(a, kk + j) for j, a in enumerate(cols)], base))
    return {w: tuple(cs) for w, cs in sorted(out.items())}
