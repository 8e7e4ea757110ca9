"""Packed monomial keys against a tuple-keyed reference, and the order of expansions.

Polynomial stores each monomial as one int with B bits per variable.
These tests check its arithmetic against plain dicts keyed by exponent
tuples, near the slot limit 2^B - 1 and past it, in more than 64
variables, and check that expansions come back in a fixed order that
does not depend on what the memos hold.
"""

from itertools import zip_longest

from hypothesis import given, settings
from hypothesis import strategies as st

import schubcalc.poly as poly
from schubcalc import (
    Polynomial,
    schubert,
    schubert_expand,
    schur,
    slide_expand,
    slide_polynomial,
    stanley,
    substitute_zero,
)
from schubcalc.schubert import _schubert, _stanley
from oracles import strip

# -- a tuple-keyed reference -------------------------------------------


def ref(terms):
    """Strip every key, add equal keys, and drop zero coefficients."""
    out = {}
    for e, c in terms.items():
        e = strip(e)
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = strip(a + b for a, b in zip_longest(e1, e2, fillvalue=0))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_str(p):
    if not p:
        return "0"
    out = []
    for e, c in sorted(p.items(), reverse=True):
        body = "*".join(f"x{i}" if x == 1 else f"x{i}^{x}" for i, x in enumerate(e, 1) if x)
        if not body:
            out.append(str(c))
        elif c in (1, -1):
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(f"{c}*{body}")
    return " + ".join(out)


# Exponents around the 8-bit slot limit, short keys and keys in more
# than 64 variables.
EDGE = (0, 0, 0, 1, 2, 254, 255, 256, 257)
exponents = st.one_of(
    st.lists(st.integers(min_value=0, max_value=3), max_size=4),
    st.lists(st.sampled_from(EDGE), max_size=6),
    st.lists(st.sampled_from(EDGE), min_size=65, max_size=70),
).map(tuple)
term_dicts = st.one_of(
    st.dictionaries(exponents, st.integers(min_value=-3, max_value=3), max_size=5),
    st.just({}),
    st.integers(min_value=-3, max_value=3).map(lambda c: {(): c}),
)


@given(term_dicts, term_dicts, st.integers(min_value=0, max_value=72))
@settings(max_examples=300, deadline=None)
def test_packed_arithmetic_matches_the_tuple_reference(a, b, k):
    p, q = Polynomial(a), Polynomial(b)
    rp, rq = ref(a), ref(b)
    assert p.terms == rp
    assert (p + q).terms == ref_add(rp, rq)
    assert (p - q).terms == ref_add(rp, {e: -c for e, c in rq.items()})
    assert (p * q).terms == (q * p).terms == ref_mul(rp, rq)
    assert (p * 3).terms == ref_mul(rp, {(): 3})
    assert substitute_zero(p, k).terms == {e: c for e, c in rp.items() if len(e) <= k}
    assert p.degrees() == {sum(e) for e in rp}
    assert (p * q).degrees() == {sum(e) for e in ref_mul(rp, rq)}
    assert p.sorted_terms() == sorted(rp.items(), reverse=True)
    assert str(p) == ref_str(rp)
    assert str(p * q) == ref_str(ref_mul(rp, rq))
    assert p == Polynomial(rp) and (p * q == Polynomial(ref_mul(rp, rq)))


def test_slot_limit_and_repack():
    top = Polynomial({(0, 255): 1})
    assert top._bits == 8 and top.degrees() == {255}
    assert str(top) == "x2^255"
    assert Polynomial({(256,): 1})._bits == 16
    # 255 + 1 would carry out of an 8-bit slot: the product repacks first.
    x2 = Polynomial({(0, 1): 1})
    assert x2._bits == 8
    product = top * x2
    assert product._bits == 16
    assert product.terms == {(0, 256): 1}
    assert str(product) == "x2^256"
    assert product.degrees() == {256}
    assert substitute_zero(product, 1) == Polynomial()
    # Equal polynomials compare equal whatever their slot widths.
    wide = product - product + x2
    assert wide._bits == 16 and wide == x2 and x2 == wide
    assert wide + x2 == 2 * x2


def test_many_variables():
    n = 100
    p = Polynomial({(0,) * i + (1,): 1 for i in range(n)})
    square = p * p
    assert len(square.terms) == n * (n + 1) // 2
    assert square.terms[(0,) * (n - 1) + (2,)] == 1
    assert square.terms[(1,) + (0,) * (n - 2) + (1,)] == 2
    assert substitute_zero(square, 2) == Polynomial({(2,): 1, (1, 1): 2, (0, 2): 1})
    assert square.degrees() == {2}


def test_terms_is_a_fresh_view():
    p = Polynomial({(1, 2): 3})
    view = p.terms
    assert view == {(1, 2): 3} and view is not p.terms
    view[(5,)] = 1
    assert p.terms == {(1, 2): 3}


# -- expansions: a fixed order, whatever the memos hold ----------------

# Reprs taken before monomials were packed: ascending by code, or by
# composition.
EXPANSIONS = [
    (lambda: schubert_expand(schubert((1, 3, 2)) * schubert((1, 3, 2))),
     "{(1, 4, 2, 3): 1, (2, 3, 1): 1}"),
    (lambda: schubert_expand(schubert((2, 1, 4, 3)) * schubert((1, 3, 2))),
     "{(2, 3, 4, 1): 1, (2, 4, 1, 3): 1, (3, 1, 4, 2): 1, (4, 1, 2, 3): 1}"),
    (lambda: schubert_expand(schubert((1, 4, 2, 3)) * schubert((2, 1, 4, 3))),
     "{(2, 4, 3, 1): 1, (2, 5, 1, 3, 4): 1, (3, 4, 1, 2): 1, (4, 1, 3, 2): 1, (5, 1, 2, 3, 4): 1}"),
    (lambda: schubert_expand(schubert((2, 4, 1, 3)) * schubert((3, 1, 4, 2))),
     "{(4, 3, 2, 1): 1, (4, 5, 1, 2, 3): 1, (5, 2, 3, 1, 4): 1, (5, 3, 1, 2, 4): 1}"),
    (lambda: schubert_expand(schubert((1, 3, 2)) * schur((2, 1), 2)),
     "{(2, 5, 1, 3, 4): 1, (3, 4, 1, 2): 1}"),
    (lambda: slide_expand(schubert((1, 4, 3, 2))), "{(0, 2, 1): 1, (1, 2): 1}"),
    (lambda: slide_expand(schubert((2, 4, 1, 3))), "{(1, 2): 1, (2, 1): 1}"),
    (lambda: slide_expand(schubert((1, 5, 3, 2, 6, 4))),
     "{(0, 3, 1, 0, 1): 1, (0, 3, 2): 1, (1, 3, 0, 0, 1): 1, (1, 3, 1): 1, "
     "(2, 2, 0, 0, 1): 1, (2, 2, 1): 1, (2, 3): 1}"),
    (lambda: slide_expand(schubert((1, 3, 2)) * schubert((2, 1, 4, 3))),
     "{(1, 1, 1): 1, (1, 2): 1, (2, 0, 1): 1, (2, 1): 1, (3,): 1}"),
]


def clear_caches():
    _schubert.cache_clear()
    _stanley.cache_clear()
    poly._placements.cache_clear()


def test_expansion_order_is_pinned_and_cache_independent():
    want = [text for _, text in EXPANSIONS]
    clear_caches()
    cold = [repr(expand()) for expand, _ in EXPANSIONS]
    warm = [repr(expand()) for expand, _ in EXPANSIONS]
    assert cold == warm == want


def test_reading_terms_leaves_the_memos_alone():
    clear_caches()
    built = [schubert((1, 5, 3, 2, 6, 4)), stanley((3, 1, 6, 5, 2, 4), 4), slide_polynomial((0, 3, 1))]
    held = (_schubert.held, _stanley.held)
    assert held[0] > 0 and held[1] > 0
    for p in built + [q for memo in (_schubert, _stanley) for q, _ in memo.values()]:
        p.terms
        p.sorted_terms()
        str(p)
    assert (_schubert.held, _stanley.held) == held
    assert _schubert.held == sum(len(p.terms) for p, _ in _schubert.values())
