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
the product drains the tree level by level, by last descent, and expands
each node once.  The truncation kernel _paths and the chain walk of
lr_chains run on explicit stacks, so their depth is bounded by memory,
not by Python's recursion limit.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence

from ._limits import Memo, charge
from .perm import (
    Perm,
    Transposition,
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
# _node and _build read them, and so do schubert and schur, which look
# S_w up in _schubert themselves and call _build on a miss.
_schubert = Memo(_monomials)
_stanley = Memo(_monomials)
_ONE = Polynomial._raw({0: 1}, 8, 0)


def _node(w: Perm, k: int) -> Polynomial:
    """S_w(x1..xk, 0, ...) for canonical w, through the memos."""
    if _last_descent(w) <= k:
        memo, key = _schubert, w
    else:
        memo, key = _stanley, (w, k)
    p = memo.find(key)
    return _build(w, k, memo, key) if p is None else p


def _build(w: Perm, k: int, memo: Memo, key: Perm | tuple[Perm, int]) -> Polynomial:
    """S_w(x1..xk, 0, ...) for canonical w, which memo does not hold under key.

    memo and key are those _node would pick for w and k.  The transition
    tree is walked depth first on an explicit stack that holds one
    _transition generator per node being computed, so its depth (the
    length of w for the longest element) is bounded by memory, not by
    Python's recursion limit.  A node asks for its children one at a
    time and each is looked up only when the one before it is complete,
    so memo hits, misses and evictions come in depth-first order.  A
    child computed here goes to its parent directly, not through find(),
    so it is stored unread at the memo's cold end, first to be evicted,
    until a later lookup reads it; the shared nodes that lookups do read
    are kept.
    """
    if not w:
        return _ONE
    r = _last_descent(w)
    # One unit of budget per computed node, before its children.
    charge()
    stack: list[Generator[Perm, Polynomial, Polynomial]] = [_transition(w, k, r, memo, key)]
    p = None
    while True:
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
        if not w:
            p = _ONE
            continue
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


def _transition(
    w: Perm, k: int, r: int, memo: Memo, key: Perm | tuple[Perm, int]
) -> Generator[Perm, Polynomial, Polynomial]:
    """One transition step of _build: yields each child word, receives its polynomial.

    Stores S_w(x1..xk, 0, ...) in memo under key and returns it; r is the
    last descent of w.
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
    out: dict[int, int] = {}
    if r <= k:
        child = yield _strip(v)
        bound = child._bound + 1
        step = 1 << bits * (r - 1)
        out = {e + step: c for e, c in _lift(child, bits).items()}
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
            bound = max(bound, child._bound)
            # Coefficients are positive, so sums never cancel.
            for e, c in _lift(child, bits).items():
                out[e] = out.get(e, 0) + c
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
    if k < 0:
        raise ValueError("k must be nonnegative")
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
        self._init(canonical(base), steps, directions)

    @classmethod
    def _trusted(
        cls, base: Perm, steps: Sequence[Sequence[int]], directions: Sequence[int]
    ) -> Chain:
        """Kernel: a Chain from a canonical base; every step is still checked."""
        chain = cls.__new__(cls)
        chain._init(base, steps, directions)
        return chain

    def _init(
        self, base: Perm, steps: Sequence[Sequence[int]], directions: Sequence[int]
    ) -> None:
        steps = tuple(map(_check_transposition, steps))
        directions = tuple(directions)
        if len(steps) != len(directions):
            raise ValueError("steps and directions must pair up")
        if not {*directions} <= {-1, 1}:
            raise ValueError("directions must be +1 or -1")
        p = list(pad(base, max([b for _, b in steps], default=0)))
        for (a, b), d in zip(steps, directions):
            # A transposition can shift length by any odd amount; covering
            # from below is the exact test for a move of one.
            up = _covers(p, a, b)
            p[a - 1], p[b - 1] = p[b - 1], p[a - 1]
            if not (up if d == 1 else _covers(p, a, b)):
                raise ValueError(f"step {(a, b)} is not a covering in direction {d}")
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
    if k < 1:
        raise ValueError("k must be positive")
    n = max(len(w), k)
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
    return tuple((e, cols) for e, cols, _, _ in _paths(w, *_descent_data(w)))


def _paths(w: Perm, k: int, m: int) -> list[tuple[Perm, tuple[int, ...], int, int]]:
    """Kernel: truncation_paths of canonical w, whose _descent_data is (k, m).

    Each endpoint e comes as (e, columns, ld, m') with (ld, m') the
    _descent_data of e, read off the same scan that strips it.
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
        # endpoint has w's length, so it is not the identity.
        i = n
        while p[i - 1] == i:
            i -= 1
        ld = i - 1
        while p[ld - 1] < p[ld]:
            ld -= 1
        e = tuple(p[:i])
        if ld >= k:
            raise RuntimeError(f"truncation endpoint {e} keeps a descent at {ld} >= {k}")
        top = p[ld - 1]
        t = ld
        while t < i and p[t] < top:
            t += 1
        out.append((e, tuple(cols), ld, t - ld))
        p[a - 1], p[b - 1] = pa, pb
        lo = pa
        a -= 1


def truncate_last_descent(w: Sequence[int]) -> dict[Perm, int]:
    """Schubert expansion of w's polynomial with its last variable killed.

    Setting x_k = 0 in the polynomial of w, where k is w's last descent,
    leaves a sum of Schubert polynomials indexed by the endpoints of
    truncation_paths, each appearing exactly once.
    """
    w = canonical(w)
    out: dict[Perm, int] = {}
    for p, _, _, _ in _paths(w, *_descent_data(w)):
        if p in out:
            raise RuntimeError(f"duplicate truncation endpoint {p}")
        out[p] = 1
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
    if k < 1:
        raise ValueError("k must be positive")
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
    is the truncation of S_{u x v_lam}; a lam with more than k rows gives
    a tree with no leaf, and the product 0.

    The truncation tree is drained by last descent, from the seed's down
    to k + 1.  Every endpoint's last descent is below its node's, so a
    level is complete when it is reached, and each node is expanded once
    with the coefficient summed over all its parents.

    >>> schubert_times_schur((), (2, 1), 2)
    {(2, 4, 1, 3): 1}
    """
    _, seed, top, m = _product_seed(u, grassmannian(lam, len(lam)), k)
    # No node below the seed is the identity: truncation keeps its length.
    if top <= k:
        return {seed: 1}
    # levels[ld] maps each node with last descent ld to [coefficient, m].
    levels: list[dict[Perm, list[int]]] = [{} for _ in range(top + 1)]
    levels[top][seed] = [1, m]
    done: dict[Perm, int] = {}
    for kk in range(top, k, -1):
        for w, (c, m) in levels[kk].items():
            charge()
            for p, _, ld, mp in _paths(w, kk, m):
                if ld <= k:
                    done[p] = done.get(p, 0) + c
                else:
                    levels[ld].setdefault(p, [0, mp])[0] += c
    return dict(sorted(done.items()))


def lr_coefficient(
    u: Sequence[int], lam: Sequence[int], k: int, w: Sequence[int]
) -> int:
    """Coefficient of one Schubert polynomial in the product expansion."""
    w = canonical(w)
    return schubert_times_schur(u, lam, k).get(w, 0)


def _conj(d: Transposition, t: Transposition) -> Transposition:
    """d t d, the transposition t with d's two points exchanged."""
    x, y = d
    a, b = t
    a = y if a == x else x if a == y else a
    b = y if b == x else x if b == y else b
    return (a, b) if a < b else (b, a)


def _push_down(ups: list[Transposition], t: Transposition) -> bool:
    """Move a down-step t left across the up-steps ups, rewriting them in place.

    Moving t left across an up-step s rewrites s t as t (t s t); an
    up-step equal to t cancels against it.  Returns whether t survives,
    i.e. whether it is a down-step of the rewritten word.  The group
    element is unchanged.
    """
    for i in range(len(ups) - 1, -1, -1):
        s = ups[i]
        if s == t:
            del ups[i]
            return False
        ups[i] = _conj(t, s)
    return True


def _push_downs_left(
    items: Sequence[tuple[Transposition, bool]]
) -> tuple[list[Transposition], list[Transposition]]:
    """Rewrite a mixed word so all down-steps precede all up-steps, by _push_down."""
    downs: list[Transposition] = []
    ups: list[Transposition] = []
    for t, is_down in items:
        if not is_down:
            ups.append(t)
        elif _push_down(ups, t):
            downs.append(t)
    return downs, ups


def _reverse_ups(ups: Sequence[Transposition]) -> list[Transposition]:
    """Reverse a transposition word by sinking heads: t R = (t R t) t."""
    rest = list(ups)
    out: list[Transposition] = []
    while rest:
        head = rest.pop(0)
        rest = [_conj(head, t) for t in rest]
        out.insert(0, head)
    return out


def normalize_chain(chain: Chain) -> Chain:
    """Rewrite an alternating down/up chain into staircase form.

    The input steps alternate (k, b_1)(a_1, k)(k, b_2)(a_2, k)... from a
    base w whose last descent is k, with b_1 > b_2 > ... and b_1 maximal
    such that w_k > w_{b_1}.  The output chain from the same base does
    all m = b_1 - k down-steps (k, k+m)...(k, k+1) first, then m up-steps
    in column order (a'_1, k)(a'_2, k+1)..., and reaches the same
    endpoint.  Padding pairs (k,j)(k,j) are inserted at the skipped
    columns, then down-steps commute left past up-steps by conjugation.

    >>> c = Chain((1, 4, 2, 3), ((2, 4), (1, 2)), (-1, 1))
    >>> str(normalize_chain(c))
    '(2,4)(2,3)(1,2)(1,3)'
    """
    w = chain.base
    steps = list(chain.steps)
    if not steps:
        return chain
    if len(steps) % 2 or chain.directions != (-1, 1) * (len(steps) // 2):
        raise ValueError("chain must alternate down,up pairs")
    k, m = _descent_data(w)
    pairs = list(zip(steps[0::2], steps[1::2]))
    bs = []
    for down, up in pairs:
        if down[0] != k or down[1] <= k:
            raise ValueError(f"down-step {down} does not lower column {k}")
        if up[1] != k or not 1 <= up[0] < k:
            raise ValueError(f"up-step {up} does not raise column {k}")
        bs.append(down[1])
    if bs[0] != k + m:
        raise ValueError(f"first down-step must reach {k + m}, got {bs[0]}")
    if any(x <= y for x, y in zip(bs, bs[1:])):
        raise ValueError(f"down-steps must strictly descend, got {bs}")

    items: list[tuple[Transposition, bool]] = []
    for i, (down, up) in enumerate(pairs):
        items.append((down, True))
        items.append((up, False))
        stop = bs[i + 1] if i + 1 < len(pairs) else k
        for j in range(bs[i] - 1, stop, -1):
            items.append(((k, j), True))
            items.append(((k, j), False))
    downs, ups = _push_downs_left(items)
    if downs != [(k, k + m - i) for i in range(m)]:
        raise RuntimeError(f"down-steps {downs} of {chain!r} are not the staircase")
    ups = _reverse_ups(ups)
    if [b for _, b in ups] != list(range(k, k + m)) or any(a >= k for a, _ in ups):
        raise RuntimeError(f"up-steps {ups} of {chain!r} are not in column order below {k}")
    out = Chain(w, tuple(downs + ups), (-1,) * m + (1,) * m)
    if out.endpoint != chain.endpoint:
        raise RuntimeError(f"normal form of {chain!r} ends at {out.endpoint}")
    return out


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
            if len(ups) != sum(lam) or not all(a <= k < b for a, b in ups):
                raise RuntimeError(f"up-steps {ups} to {w} do not cross k = {k} |lam| times")
            chain = Chain._trusted(u, tuple(ups), (1,) * len(ups))
            if chain.endpoint != w:
                raise RuntimeError(f"chain {chain} ends at {chain.endpoint}, not {w}")
            out.setdefault(w, []).append(chain)
            continue
        # ups is this node's own list: its parent built it for this node.
        for b in range(kk + m, kk, -1):
            if _push_down(ups, (kk, b)):
                base = _swap(base, kk, b)
        for p, cols, ld, mp in reversed(_paths(w, kk, m)):
            stack.append((p, ld, mp, ups + [(a, kk + j) for j, a in enumerate(cols)], base))
    return {w: tuple(cs) for w, cs in sorted(out.items())}
