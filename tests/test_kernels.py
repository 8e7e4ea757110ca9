"""The private permutation kernels against the public, validating layer.

The kernels trust their input; each must agree with the public function
that validates first, on canonical words and on words padded with fixed
points.  The fused truncation tree is checked against a reference built
from the public is_covering and apply_transposition only.
"""

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from schubcalc import (
    apply_transposition,
    canonical,
    is_covering,
    last_descent,
    length,
    truncation_paths,
)
from schubcalc.perm import _covers, _last_descent, _strip, _swap, pad

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
