"""The private kernels against the public, validating layer.

The kernels trust their input; each must agree with the public function
that validates first, on canonical words and on words padded with fixed
points.  The fused truncation tree is checked against a reference built
from the public is_covering and apply_transposition only, the iterative
truncation kernel against the recursive walk it replaced, and the
Schubert expansion, whose pivots the kernels build, against divided
differences.
"""

from itertools import permutations, zip_longest

from hypothesis import given, settings
from hypothesis import strategies as st

import schubcalc.poly as poly
import schubcalc.transition as T
from schubcalc import (
    apply_transposition,
    canonical,
    code,
    cross,
    from_code,
    is_covering,
    last_descent,
    length,
    schubert,
    schubert_expand,
    slide_polynomial,
    term_budget,
    truncation_paths,
)
from schubcalc._limits import Memo, remaining
from schubcalc.perm import _covers, _cross, _from_code, _last_descent, _strip, _swap, pad
from schubcalc.poly import _monomials
from schubcalc.schubert import _node, truncated_schubert
from schubcalc.transition import _paths, _start_word, _transition
from schubcalc.verify import all_perms
from oracles import dd_schubert, strip

perms = st.integers(1, 10).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)


@st.composite
def perm_and_transposition(draw):
    w = draw(perms)
    b = draw(st.integers(2, len(w) + 2))
    a = draw(st.integers(1, b - 1))
    return w, a, b, draw(st.integers(0, 3))


@given(perm_and_transposition())
@settings(max_examples=300, deadline=None)
def test_kernels_equal_public_functions(case):
    w, a, b, extra = case
    c = canonical(w)
    padded = pad(w, len(w) + extra)
    assert _strip(w) == _strip(padded) == c
    assert _swap(c, a, b) == _swap(padded, a, b) == apply_transposition(w, (a, b))
    assert _covers(pad(c, b), a, b) == _covers(pad(padded, b), a, b) == is_covering(w, (a, b))
    assert _last_descent(c) == _last_descent(padded) == (last_descent(w) or 0)
    m = len(w) + extra
    assert _cross(c, c, m) == cross(padded, w, m)


@given(perm_and_transposition())
@settings(max_examples=300, deadline=None)
def test_kernels_match_their_definitions(case):
    w, a, b, _ = case
    v = list(pad(w, b))
    v[a - 1], v[b - 1] = v[b - 1], v[a - 1]
    assert _swap(canonical(w), a, b) == canonical(v)
    assert _covers(pad(w, b), a, b) == (length(v) == length(w) + 1)
    descents = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
    assert _last_descent(w) == max(descents, default=0)


def reference_truncation_paths(w):
    """truncation_paths from its definition, one validating call per step."""
    w = canonical(w)
    k = last_descent(w)
    m = max(i + 1 for i, v in enumerate(w) if v < w[k - 1]) - k
    what = w
    for j in range(m, 0, -1):
        what = apply_transposition(what, (k, k + j))
    out = []

    def go(p, j, acc):
        if j == m:
            out.append((p, acc))
            return
        for a in range(k - 1, 0, -1):
            if is_covering(p, (a, k + j)):
                go(apply_transposition(p, (a, k + j)), j + 1, acc + (a,))

    go(what, 0, ())
    return tuple(out)


def test_truncation_paths_match_reference_on_s6():
    for p in permutations(range(1, 7)):
        if canonical(p):
            assert truncation_paths(p) == reference_truncation_paths(p), p


@given(perms.filter(lambda w: canonical(w) != ()))
@settings(max_examples=300, deadline=None)
def test_truncation_paths_match_reference(w):
    assert truncation_paths(w) == reference_truncation_paths(w)


def recursive_paths(w, k, m):
    """_paths as a recursion over columns, without the endpoints' descent data."""
    p = _start_word(w, k, m)
    out = []

    def go(j, acc):
        if j == m:
            out.append((_strip(p), acc))
            return
        b = k + j
        pb = p[b - 1]
        lo = 0
        for c in range(k, b):
            if lo < p[c - 1] < pb:
                lo = p[c - 1]
        for a in range(k - 1, 0, -1):
            pa = p[a - 1]
            if lo < pa < pb:
                lo = pa
                p[a - 1], p[b - 1] = pb, pa
                go(j + 1, acc + (a,))
                p[a - 1], p[b - 1] = pa, pb

    go(0, ())
    return out


def brute_width(w, k):
    """The width of w at its last descent k: the largest m with w_k > w_{k+m}."""
    return max(m for m in range(1, len(w) - k + 1) if w[k - 1] > w[k + m - 1])


def check_paths_kernel(w):
    k = _last_descent(w)
    m = brute_width(w, k)
    # The width _paths expands w with is the one it hands _start_word.
    widths = []

    def start_word(w, k, m):
        widths.append(m)
        return _start_word(w, k, m)

    T._start_word = start_word
    try:
        got = _paths(w, k, k - 1)
    finally:
        T._start_word = _start_word
    assert widths == [m], w
    assert [(e, cols) for e, cols, _ in got] == recursive_paths(w, k, m), w
    for e, _, ld in got:
        assert ld == _last_descent(e), (w, e)


def test_paths_kernel_equals_the_recursion_on_all_of_s8():
    # Every word at the size of the product workload's u x v, not only a
    # random sample of S8 and S9 as below: 40 319 words.
    for p in permutations(range(1, 9)):
        w = canonical(p)
        if w:
            check_paths_kernel(w)


@given(st.integers(8, 9).flatmap(lambda n: st.permutations(range(1, n + 1))).map(canonical))
@settings(max_examples=300, deadline=None)
def test_paths_kernel_equals_the_recursion_on_s8_and_s9(w):
    if w:
        check_paths_kernel(w)


def test_paths_kernel_keeps_every_endpoint_that_survives_truncation_on_s7():
    # With low < k - 1, _paths drops an endpoint only when its truncation to
    # x1..x_low vanishes.  The test reads only the value just after the
    # endpoint's last descent, so it may keep a dead endpoint: on S7 it keeps
    # 58 of the 17 297 dead ones over 21 581 (w, low) cases.
    missed = dead = 0
    for w in all_perms(7):
        if not w:
            continue
        k = _last_descent(w)
        every = _paths(w, k, k - 1)
        for low in range(k - 1):
            got = _paths(w, k, low)
            kept = {e for e, _, _ in got}
            assert got == [x for x in every if x[0] in kept], (w, low)
            for e, _, _ in every:
                if truncated_schubert(e, low).terms:
                    assert e in kept, (w, low, e)
                else:
                    dead += 1
                    missed += e in kept
    assert (missed, dead) == (58, 17297)


def reference_children(w, k, r):
    """The child words of one transition step of w, each copied, swapped and stripped."""
    s = max(j for j in range(r + 1, len(w) + 1) if w[j - 1] < w[r - 1])
    v = list(w)
    v[r - 1], v[s - 1] = v[s - 1], v[r - 1]
    out = [_strip(v)] if r <= k else []
    for q in range(r - 1, 0, -1):
        if is_covering(v, (q, r)):
            u = v[:]
            u[q - 1], u[r - 1] = u[r - 1], u[q - 1]
            out.append(_strip(u))
    return out


def test_transition_kernel_yields_the_stripped_child_words_on_s7():
    # Each word is compared before its polynomial is built, so a wrong word
    # fails here rather than sending _node down a tree that never ends.
    for w in all_perms(7):
        if not w:
            continue
        r = _last_descent(w)
        for k in (len(w), r - 1):
            want = reference_children(w, k, r)
            key = w if r <= k else (w, k)
            step = _transition(w, k, r, Memo(_monomials), key)
            got = []
            try:
                child = next(step)
                while True:
                    assert child == want[len(got)], (w, k, got)
                    got.append(child)
                    child = step.send(_node(child, k))
            except StopIteration as done:
                p = done.value
            assert got == want, (w, k)
            assert p == truncated_schubert(w, k), (w, k)


def test_from_code_kernel_on_s6():
    for p in permutations(range(1, 7)):
        c = code(p)
        assert _from_code(c) == from_code(c) == canonical(p), p


@given(st.lists(st.integers(0, 6), max_size=8).map(tuple))
@settings(max_examples=300, deadline=None)
def test_from_code_kernel_equals_from_code(c):
    w = _from_code(c)
    assert w == from_code(c)
    assert code(w) == strip(c)


def charged(fn, a):
    """Units fn(a) charges under a budget, and its result."""
    with term_budget(10**6):
        p = fn(a)
        return 10**6 - remaining(), p


@given(st.lists(st.integers(0, 3), max_size=5).map(strip))
@settings(max_examples=200, deadline=None)
def test_slide_kernel_equals_slide_polynomial(a):
    poly._placements.cache_clear()
    cold, p = charged(poly._slide, a)
    warm, q = charged(poly._slide, a)
    poly._placements.cache_clear()
    public_cold, r = charged(slide_polynomial, a)
    public_warm, s = charged(slide_polynomial, a)
    assert p == q == r == s
    assert cold == warm == public_cold == public_warm == len(p.terms)


def test_schubert_expand_of_products_matches_divided_differences_on_s4():
    dd = {}

    def oracle(w):
        if w not in dd:
            dd[w] = dd_schubert(w)
        return dd[w]

    for u in all_perms(4):
        for v in all_perms(4):
            want = {}
            for e1, c1 in oracle(u).items():
                for e2, c2 in oracle(v).items():
                    e = strip(a + b for a, b in zip_longest(e1, e2, fillvalue=0))
                    want[e] = want.get(e, 0) + c1 * c2
            got = {}
            for w, c in schubert_expand(schubert(u) * schubert(v)).items():
                for e, ce in oracle(w).items():
                    got[e] = got.get(e, 0) + c * ce
            nonzero = {e: c for e, c in want.items() if c}
            assert {e: c for e, c in got.items() if c} == nonzero, (u, v)
