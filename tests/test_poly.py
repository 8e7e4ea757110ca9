import importlib
import os
import subprocess
import sys
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schubcalc.poly as poly
from schubcalc import (
    VIRTUAL,
    NonExpandableError,
    Polynomial,
    flatten,
    fundamental_quasisym,
    slide_expand,
    slide_polynomial,
    substitute_zero,
    term_budget,
)
from schubcalc._limits import remaining
from oracles import brute_fqs, brute_slide, refines, strip, weak_compositions

# the displayed monomial expansion of the slide polynomial of (0,3,1,0,1)
SLIDE_03101 = {
    (0, 3, 1, 0, 1),
    (0, 3, 1, 1),
    (1, 2, 1, 0, 1),
    (1, 2, 1, 1),
    (2, 1, 1, 0, 1),
    (2, 1, 1, 1),
    (3, 0, 1, 0, 1),
    (3, 0, 1, 1),
    (3, 1, 0, 0, 1),
    (3, 1, 0, 1),
    (3, 1, 1),
}


def all_weak_comps(max_weight, max_length):
    for length in range(max_length + 1):
        for weight in range(max_weight + 1):
            yield from weak_compositions(weight, length)


def test_flatten():
    assert flatten((0, 3, 1, 0, 1)) == (3, 1, 1)
    assert flatten((0, 0)) == ()
    assert flatten((3, 2, 0, 0)) == (3, 2)


def test_polynomial_normalization():
    assert Polynomial({(1, 0): 1}).terms == {(1,): 1}
    assert Polynomial({(1, 0): 1, (1,): -1}).terms == {}
    assert Polynomial({(2,): 0}).terms == {}
    assert not Polynomial()
    with pytest.raises(ValueError):
        Polynomial({(-1,): 1})


def test_polynomial_rejects_non_integer_data():
    # Every key is checked, also those whose coefficient is zero.
    for terms in (
        {(1.5,): 1},
        {(1,): 0.5},
        {(1, 0.0): 1},
        {(1.5,): 0},
        {(1,): 0.0},
        {(-1,): 0},
        {("1",): 1},
    ):
        with pytest.raises(ValueError):
            Polynomial(terms)
    with pytest.raises(ValueError, match="non-integer"):
        Polynomial.monomial((1,), 0.5)


def test_polynomial_arithmetic_examples():
    x1 = Polynomial.monomial((1,))
    x2 = Polynomial.monomial((0, 1))
    assert (x1 + x2) * (x1 - x2) == Polynomial({(2,): 1, (0, 2): -1})
    p = Polynomial({(3, 1): 2, (0, 0, 1): -1})
    assert p * Polynomial.monomial((), 1) == p
    assert p * 1 == p
    assert p * 0 == Polynomial()
    assert 3 * p == p + p + p
    assert p - p == Polynomial()
    assert str(Polynomial()) == "0"
    assert str(Polynomial({(): 5})) == "5"
    assert str(Polynomial({(1, 2): -1, (): 2})) == "-x1*x2^2 + 2"


def test_polynomial_operators_refuse_other_operands():
    # Each operator returns NotImplemented for an operand that is not a
    # Polynomial (an int factor aside), so Python falls back: == compares
    # identities, and the arithmetic raises TypeError.
    p = Polynomial({(1,): 1})
    assert (p == 1) is False
    for op in (lambda: p + 1, lambda: p - 1, lambda: p * 1.5, lambda: 1.5 * p):
        with pytest.raises(TypeError):
            op()


def test_polynomial_str_is_sorted_descending():
    p = Polynomial({(0, 2): 1, (2,): 1, (1, 1): 1})
    assert str(p) == "x1^2 + x1*x2 + x2^2"


exponents = st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(tuple)
polys = st.dictionaries(exponents, st.integers(min_value=-4, max_value=4), max_size=4).map(
    Polynomial
)


@given(polys, polys, polys)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial() == p
    assert p * Polynomial.monomial(()) == p


def reference_product(p, q):
    """p * q term by term, each key summed by zip_longest; zeros dropped at the end."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = strip(a + b for a, b in zip_longest(e1, e2, fillvalue=0))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# Keys of unequal length, signed coefficients, the empty and constant polynomials.
mul_polys = st.one_of(
    st.dictionaries(
        st.lists(st.integers(min_value=0, max_value=2), max_size=5).map(tuple),
        st.integers(min_value=-2, max_value=2),
        max_size=5,
    ).map(Polynomial),
    st.just(Polynomial()),
    st.integers(min_value=-3, max_value=3).map(lambda c: Polynomial({(): c})),
)


@given(mul_polys, mul_polys, st.integers(min_value=-3, max_value=3))
@settings(max_examples=300, deadline=None)
def test_mul_matches_zip_longest_reference(p, q, k):
    assert (p * q).terms == reference_product(p, q)
    # The cross terms p*q and -q*p cancel to zero.
    s, d = p + q, p - q
    assert (s * d).terms == reference_product(s, d)
    constant = Polynomial({(): k})
    assert (p * k).terms == (k * p).terms == reference_product(p, constant)


@given(polys, st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_substitute_zero_is_multiplicative_on_products(p, k):
    assert substitute_zero(p + p, k) == substitute_zero(p, k) + substitute_zero(p, k)
    assert set(substitute_zero(p, k).terms) == {
        e for e in p.terms if len(e) <= k
    }


def test_substitute_zero():
    p = Polynomial({(2, 1): 1, (0, 0, 3): 4, (): 2})
    assert substitute_zero(p, 2) == Polynomial({(2, 1): 1, (): 2})
    assert substitute_zero(p, 0) == Polynomial({(): 2})
    with pytest.raises(ValueError):
        substitute_zero(p, -1)


def test_slide_polynomial_examples():
    got = slide_polynomial((0, 3, 1, 0, 1))
    assert set(got.terms) == SLIDE_03101
    assert set(got.terms.values()) == {1}
    assert slide_polynomial((0, 0, 0)) == Polynomial({(): 1})
    assert slide_polynomial(VIRTUAL) == Polynomial()
    assert slide_polynomial(()) == Polynomial({(): 1})
    with pytest.raises(ValueError):
        slide_polynomial((1, -1))


def test_slide_polynomial_3101_brute_count():
    # only (3,1,0,1) and (3,1,1,0) pass both the dominance and flatten
    # refinement filters; everything coarser, e.g. (3,2,0,0), is excluded
    got = slide_polynomial((3, 1, 0, 1))
    assert dict(got.terms) == brute_slide((3, 1, 0, 1))
    assert set(got.terms) == {(3, 1, 0, 1), (3, 1, 1)}


def test_slide_ignores_trailing_zeros():
    assert slide_polynomial((0, 2, 0, 0)) == slide_polynomial((0, 2))


def test_slide_matches_brute_force():
    for a in all_weak_comps(4, 4):
        assert dict(slide_polynomial(a).terms) == brute_slide(a), a


def test_fundamental_quasisym_examples():
    assert fundamental_quasisym((3, 1, 1), 3) == Polynomial({(3, 1, 1): 1})
    assert fundamental_quasisym((4,), 1) == Polynomial({(4,): 1})
    assert fundamental_quasisym((3, 1, 1), 2) == Polynomial()
    assert fundamental_quasisym((), 3) == Polynomial({(): 1})
    with pytest.raises(ValueError):
        fundamental_quasisym((1, 0), 2)
    with pytest.raises(ValueError):
        fundamental_quasisym((1,), -1)


def test_slide_bases_reject_parts_and_k_that_are_not_ints():
    for call in (
        lambda: slide_polynomial((1.0, 2)),
        lambda: slide_polynomial((1.5,)),
        lambda: slide_polynomial((1, 0.0)),
        lambda: fundamental_quasisym((1.5,), 2),
        lambda: fundamental_quasisym((2,), 2.0),
    ):
        with pytest.raises(ValueError):
            call()
    # bools are ints, as in Polynomial.
    assert slide_polynomial((True, 2)) == slide_polynomial((1, 2))
    assert fundamental_quasisym((2,), True) == fundamental_quasisym((2,), 1)


def test_each_composition_kind_has_one_message():
    # The library raises what the CLI reports for its comp argument.
    weak = "weak composition parts must be nonnegative ints: "
    strong = "composition parts must be positive ints: "
    for call, message in (
        (lambda: slide_polynomial((0, -1)), weak + "(0, -1)"),
        (lambda: slide_polynomial([1.5]), weak + "(1.5,)"),
        (lambda: fundamental_quasisym((3, 0, 1), 3), strong + "(3, 0, 1)"),
        (lambda: fundamental_quasisym(["a"], 3), strong + "('a',)"),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_fundamental_quasisym_matches_brute_force():
    comps = {flatten(a) for a in all_weak_comps(4, 4)}
    for alpha in comps:
        for k in range(0, 5):
            got = fundamental_quasisym(alpha, k)
            assert dict(got.terms) == brute_fqs(alpha, k), (alpha, k)


def cold_charge(call):
    """The result of call with no placement memoized, and the units it charged."""
    poly._placements.cache_clear()
    with term_budget(10**6):
        p = call()
        return p, 10**6 - remaining()


def test_fundamental_quasisym_is_the_padded_slide_polynomial():
    # F_alpha(x1..xk) is the slide polynomial of 0^(k - len(alpha)) alpha,
    # and 0 when alpha has more than k parts: the same keys, in the same
    # order, for the same charge, on every |alpha| <= 7 and k <= 7.
    cases = 0
    for alpha in sorted({flatten(a) for n in range(8) for a in weak_compositions(n, n)}):
        for k in range(8):
            got, charged = cold_charge(lambda: fundamental_quasisym(alpha, k))
            if k < len(alpha):
                want, need = Polynomial(), 0
            else:
                want, need = cold_charge(lambda: slide_polynomial((0,) * (k - len(alpha)) + alpha))
            assert list(got._keys) == list(want._keys), (alpha, k)
            assert charged == need, (alpha, k)
            cases += 1
    assert cases == 1024


def test_quasisym_monomials_flatten_to_refinements():
    p = fundamental_quasisym((2, 1), 4)
    for e, c in p.terms.items():
        assert c == 1
        assert refines(flatten(e), (2, 1))
    # 6 placements of (2,1) itself plus 4 of the refinement (1,1,1)
    assert len(p.terms) == 10


def test_slide_truncation_identity_weight5():
    # zeros strictly before the first nonzero block: killing variables past
    # any k inside that block leaves the quasisymmetric polynomial
    checked = 0
    for a in all_weak_comps(5, 5):
        nz = [i for i, x in enumerate(a) if x]
        if not nz:
            continue
        s = nz[0]
        while s + 1 < len(a) and a[s + 1]:
            s += 1
        for k in range(1, s + 2):
            got = substitute_zero(slide_polynomial(a), k)
            want = fundamental_quasisym(flatten(a), k)
            assert got == want, (a, k)
            checked += 1
    assert checked > 500


def test_slide_equals_quasisym_iff_zeros_prefix():
    # in its own number of variables, a slide polynomial is quasisymmetric
    # exactly when no zero entry sits after a nonzero one
    for a in all_weak_comps(5, 5):
        prefix = True
        seen_nonzero = False
        for x in a:
            if x:
                seen_nonzero = True
            elif seen_nonzero:
                prefix = False
                break
        eq = slide_polynomial(a) == fundamental_quasisym(flatten(a), len(a))
        assert eq == prefix, a


def test_slide_expand_round_trip():
    # expansion keys are normalized with trailing zeros stripped
    for a in all_weak_comps(5, 5):
        assert slide_expand(slide_polynomial(a)) == {strip(a): 1}


def test_slide_expand_sum():
    p = slide_polynomial((3, 1, 0, 1)) + slide_polynomial((3, 2))
    assert slide_expand(p) == {(3, 1, 0, 1): 1, (3, 2): 1}


def test_slide_expand_signed_input():
    # x1*x2 - x1^2 is not slide-positive; elimination still terminates and
    # returns the signed expansion
    p = Polynomial({(1, 1): 1, (2,): -1})
    expansion = slide_expand(p)
    assert expansion == {(1, 1): 1, (2,): -1}
    total = Polynomial()
    for a, c in expansion.items():
        total = total + slide_polynomial(a) * c
    assert total == p


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_wrong_slide_pivot_is_refused_before_it_is_stored(flags):
    # x1^9 does not have the pivot x1 as its largest monomial, and 2*x1
    # has it with coefficient 2.  Each is refused as it is built, with or
    # without assert statements, and the cold memo stays empty.
    script = (
        "import schubcalc.poly as m\n"
        "x1 = m.Polynomial({(1,): 1})\n"
        "for wrong in (m.Polynomial({(9,): 1}), x1 * 2):\n"
        "    m._slide = lambda a: wrong\n"
        "    try:\n"
        "        m.slide_expand(x1)\n"
        "    except m.NonExpandableError as exc:\n"
        "        pivots = m._slide_pivots\n"
        "        print(exc, len(pivots), pivots.held, pivots.misses)\n"
    )
    src = os.path.dirname(os.path.dirname(importlib.import_module("schubcalc").__file__))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    refused = "pivot (1,) is not the largest monomial, with coefficient 1, of (1,) 0 0 0\n"
    assert (proc.returncode, proc.stdout) == (0, refused * 2), proc.stderr


def test_a_stored_pivot_that_leaves_its_monomial_is_refused_under_optimize():
    # A memo entry whose keys lack its own monomial clears nothing, so the
    # same monomial is the largest again; elimination must raise, with
    # assert statements stripped, instead of looping on it.
    script = (
        "import schubcalc.poly as m\n"
        "x1 = m.Polynomial({(1,): 1})\n"
        "memo = m.Memo(m._pivot_size)\n"
        "memo.put((max(x1._keys), x1._bits), ((1,), 'x1', {}))\n"
        "try:\n"
        "    m._eliminate(x1, memo, None)\n"
        "except m.NonExpandableError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(importlib.import_module("schubcalc").__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    refused = "pivot (1,) did not clear the maximum\n"
    assert (proc.returncode, proc.stdout) == (0, refused), proc.stderr


@given(
    st.dictionaries(
        st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(tuple),
        st.integers(min_value=-3, max_value=3),
        max_size=3,
    )
)
@settings(max_examples=150, deadline=None)
def test_slide_expand_reconstructs_arbitrary_polynomials(terms):
    p = Polynomial(terms)
    expansion = slide_expand(p)
    total = Polynomial()
    for a, c in expansion.items():
        total = total + slide_polynomial(a) * c
    assert total == p
