import importlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubcalc import (
    NonExpandableError,
    NoSolutionError,
    Polynomial,
    code,
    descent_set,
    fundamental_quasisym,
    length,
    schubert,
    schubert_expand,
    schubert_via_compatible,
    schubert_via_slides,
    schur,
    shift,
    slide_expand,
    stanley,
    substitute_zero,
)
from schubcalc.verify import all_partitions, all_perms
from oracles import (
    brute_fqs,
    brute_reduced_words,
    brute_schubert,
    dd_schubert,
    ssyt_schur,
    strong_descent,
)

SCHUBERT_42153 = {(3, 1, 0, 1): 1, (3, 1, 1): 1, (3, 2): 1}

SCHUBERT_153264 = {
    (3, 2): 1,
    (3, 1, 1): 2,
    (3, 1, 0, 1): 1,
    (3, 1, 0, 0, 1): 1,
    (3, 0, 2): 1,
    (3, 0, 1, 1): 1,
    (3, 0, 1, 0, 1): 1,
    (2, 3): 1,
    (2, 2, 1): 2,
    (2, 2, 0, 1): 1,
    (2, 2, 0, 0, 1): 1,
    (2, 1, 2): 1,
    (2, 1, 1, 1): 1,
    (2, 1, 1, 0, 1): 1,
    (1, 3, 1): 2,
    (1, 3, 0, 1): 1,
    (1, 3, 0, 0, 1): 1,
    (1, 2, 2): 1,
    (1, 2, 1, 1): 1,
    (1, 2, 1, 0, 1): 1,
    (0, 3, 2): 1,
    (0, 3, 1, 1): 1,
    (0, 3, 1, 0, 1): 1,
}

SLIDES_153264 = {
    (0, 3, 1, 0, 1): 1,
    (2, 2, 0, 0, 1): 1,
    (1, 3, 0, 0, 1): 1,
    (0, 3, 2): 1,
    (2, 2, 1): 1,
    (1, 3, 1): 1,
    (2, 3): 1,
}

# quasisymmetric expansion of the Stanley polynomial of 42153
STANLEY_42153 = {
    (3, 1, 1): 1,
    (2, 2, 1): 2,
    (1, 3, 1): 2,
    (3, 2): 1,
    (1, 2, 2): 2,
    (1, 1, 3): 1,
    (2, 1, 2): 1,
    (2, 3): 1,
}


def test_schubert_42153_both_constructors():
    want = Polynomial(SCHUBERT_42153)
    assert schubert_via_slides((4, 2, 1, 5, 3)) == want
    assert schubert_via_compatible((4, 2, 1, 5, 3)) == want
    assert schubert((4, 2, 1, 5, 3)) == want


def test_schubert_identity():
    one = Polynomial({(): 1})
    assert schubert_via_slides(()) == one
    assert schubert_via_compatible((1, 2, 3)) == one


def test_schubert_153264():
    got = schubert_via_compatible((1, 5, 3, 2, 6, 4))
    assert dict(got.terms) == SCHUBERT_153264
    assert len(got.terms) == 23
    assert sum(got.terms.values()) == 26
    assert schubert_via_slides((1, 5, 3, 2, 6, 4)) == got


def test_schubert_153264_slide_expansion():
    assert slide_expand(schubert((1, 5, 3, 2, 6, 4))) == SLIDES_153264


def test_schubert_42153_slide_expansion():
    assert slide_expand(schubert((4, 2, 1, 5, 3))) == {(3, 1, 0, 1): 1, (3, 2): 1}


def test_schubert_matches_definition_brute_force():
    for w in all_perms(4):
        assert schubert_via_compatible(w) == Polynomial(brute_schubert(w)), w
    assert dict(schubert((4, 2, 1, 5, 3)).terms) == brute_schubert((4, 2, 1, 5, 3))
    assert dict(schubert((1, 5, 3, 2, 6, 4)).terms) == brute_schubert((1, 5, 3, 2, 6, 4))


def test_schubert_matches_divided_differences():
    for w in all_perms(4):
        assert dict(schubert(w).terms) == dd_schubert(w, 4), w
    for w in [(4, 2, 1, 5, 3), (1, 5, 3, 2, 6, 4), (5, 1, 7, 3, 8, 2, 4, 6)]:
        assert dict(schubert(w).terms) == dd_schubert(w), w


def perms_of(*sizes):
    return st.sampled_from(sizes).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)


# Length 9 keeps the reduced-word walk of the slide oracle to a few
# thousand words; the longest element of S7 has over a billion.
@given(perms_of(6, 7).filter(lambda w: length(w) <= 9))
@settings(max_examples=60, deadline=None)
def test_transition_matches_slides(w):
    assert schubert(w) == schubert_via_slides(w)


@given(perms_of(6, 7))
@settings(max_examples=25, deadline=None)
def test_transition_matches_divided_differences(w):
    assert dict(schubert(w).terms) == dd_schubert(w)


def test_schubert_minimum_monomial_is_code():
    # code(w) is the dominance-least exponent, hence the lex minimum, and it
    # carries coefficient 1 — this is what makes basis elimination work
    for w in all_perms(5):
        p = schubert(w)
        assert min(p.terms) == code(w)
        assert p.terms[code(w)] == 1


def test_stanley_42153_quasisymmetric_expansion():
    for k in range(1, 6):
        want = Polynomial()
        for alpha, mult in STANLEY_42153.items():
            want = want + fundamental_quasisym(alpha, k) * mult
        assert stanley((4, 2, 1, 5, 3), k) == want, k


def test_stanley_matches_reduced_word_definition():
    # F_w(x1..xk) is the sum over reduced words of the fundamental
    # quasisymmetric polynomial of the word's strong descent composition.
    for w in all_perms(5):
        words = brute_reduced_words(w)
        for k in range(5):
            want = {}
            for word in words:
                for e in brute_fqs(strong_descent(word), k):
                    want[e] = want.get(e, 0) + 1
            assert dict(stanley(w, k).terms) == want, (w, k)


def test_stanley_identity_and_small_k():
    assert stanley((), 3) == Polynomial({(): 1})
    assert stanley((4, 2, 1, 5, 3), 1) == Polynomial()
    assert str(stanley((2, 1), 2)) == "x1 + x2"


def test_stanley_is_symmetric():
    p = stanley((3, 1, 4, 2), 3)

    def swap(e, i):
        e = e + (0,) * (i + 2 - len(e))
        lst = list(e)
        lst[i], lst[i + 1] = lst[i + 1], lst[i]
        return tuple(lst)

    for i in range(2):
        assert Polynomial({swap(e, i): c for e, c in p.terms.items()}) == p


def test_stanley_stability_under_prepend():
    for w in all_perms(4):
        for k in range(1, 4):
            assert stanley(w, k) == stanley(shift(w, 1), k), (w, k)


def test_shifted_schubert_truncates_to_stanley():
    for w in all_perms(4):
        for k in range(1, 4):
            for n in range(k, 5):
                got = substitute_zero(schubert(shift(w, n)), k)
                assert got == stanley(w, k), (w, k, n)


def test_substitute_zero_kills_153264_in_one_variable():
    assert substitute_zero(schubert((1, 5, 3, 2, 6, 4)), 1) == Polynomial()


def test_stanley_equals_schubert_iff_descent_exactly_k():
    # the symmetric polynomial collapses to the Schubert polynomial only for
    # the identity and for grassmannian w whose descent sits exactly at k
    for w in all_perms(5):
        for k in range(1, 5):
            expected = w == () or descent_set(w) == {k}
            assert (stanley(w, k) == schubert(w)) == expected, (w, k)


def test_schur_examples():
    assert str(schur((1,), 3)) == "x1 + x2 + x3"
    assert schur((2, 1), 2) == Polynomial({(2, 1): 1, (1, 2): 1})
    # 8 tableaux with entries <= 3, two of which share the monomial x1*x2*x3
    p = schur((2, 1), 3)
    assert len(p.terms) == 7 and sum(p.terms.values()) == 8
    assert schur((), 2) == Polynomial({(): 1})
    # More parts than variables: no tableau fits, so the polynomial is 0.
    assert schur((2, 1), 1) == Polynomial()
    with pytest.raises(ValueError, match="not a partition"):
        schur((1, 2), 1)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        schur((2, 1), -1)


def test_a_float_permutation_is_not_read_from_the_memo():
    # (2.0, 1.0) equals (2, 1) and hashes alike, so a memo read before the
    # check would answer it with S_21.
    assert str(schubert((2, 1))) == "x1"
    for w in ((2.0, 1.0), (2, 1.0)):
        with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.2: "):
            schubert(w)


def test_schur_matches_tableau_oracle():
    # k < len(lam) included: both sides are 0 there.
    for lam in all_partitions(6):
        for k in range(5):
            assert dict(schur(lam, k).terms) == ssyt_schur(lam, k), (lam, k)


def test_schur_is_symmetric_under_adjacent_swaps():
    for lam in all_partitions(4):
        for k in range(len(lam), 5):
            if k == 0:
                continue
            p = schur(lam, k)
            for i in range(k - 1):
                swapped = {}
                for e, c in p.terms.items():
                    e = e + (0,) * (k - len(e))
                    lst = list(e)
                    lst[i], lst[i + 1] = lst[i + 1], lst[i]
                    swapped[tuple(lst)] = c
                assert Polynomial(swapped) == p, (lam, k, i)


def test_schubert_expand_basis_element():
    got = schubert_expand(schubert((4, 2, 1, 5, 3)), degree=5, ambient=6)
    assert got == {(4, 2, 1, 5, 3): 1}


def test_schubert_expand_degree_one():
    p = Polynomial({(1,): 1, (0, 1): 1})
    assert schubert_expand(p) == {(1, 3, 2): 1}
    with pytest.raises(NoSolutionError):
        schubert_expand(p, ambient=2)


def test_schubert_expand_monk_product():
    p = schubert((2, 1)) * Polynomial({(1,): 1})
    assert schubert_expand(p, degree=2, ambient=4) == {(3, 1, 2): 1}


def test_schubert_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        schubert_expand(Polynomial({(1,): 1, (2,): 1}))
    with pytest.raises(ValueError):
        schubert_expand(Polynomial({(1,): 1, (0, 1): 1}), degree=3)
    assert schubert_expand(Polynomial()) == {}


def test_schubert_expand_rejects_a_wrong_pivot_polynomial(monkeypatch):
    # schubcalc.schubert as an attribute is the function, not the module.
    module = importlib.import_module("schubcalc.schubert")
    p = Polynomial({(1,): 1, (0, 1): 1})
    # A pivot polynomial without its pivot monomial leaves the pivot behind;
    # one with a larger monomial does not have the pivot as its maximum.
    # Pivots are looked up through transition._node on a _pivots miss, so
    # the memo starts cold.  A rejected pivot is never stored, and the
    # same memo then gives the right expansion.
    pivots = module._pivots
    pivots.cache_clear()
    for wrong in (Polynomial({(9,): 1}), Polynomial({(0, 1): 1, (0, 0, 1): 1})):
        monkeypatch.setattr(module, "_node", lambda w, k, wrong=wrong: wrong)
        with pytest.raises(NonExpandableError):
            schubert_expand(p)
        assert not pivots and (pivots.held, pivots.misses) == (0, 0)
    monkeypatch.undo()
    assert schubert_expand(p) == {(1, 3, 2): 1}
    assert (pivots.held, pivots.misses) == (2, 1)


def test_schubert_expand_checks_ambient_on_a_hit_and_on_a_miss():
    module = importlib.import_module("schubcalc.schubert")
    p = Polynomial({(1,): 1, (0, 1): 1})
    module._pivots.cache_clear()
    with pytest.raises(NoSolutionError) as cold:
        schubert_expand(p, ambient=2)
    assert not module._pivots
    assert schubert_expand(p) == {(1, 3, 2): 1}
    assert module._pivots.cache_info().currsize == 2
    with pytest.raises(NoSolutionError) as warm:
        schubert_expand(p, ambient=2)
    assert str(warm.value) == str(cold.value) == (
        "pivot (0, 1) needs a permutation of 3 values, ambient is 2"
    )


def test_schubert_expand_guard_holds_under_optimization():
    script = (
        "import importlib\n"
        "m = importlib.import_module('schubcalc.schubert')\n"
        "m._node = lambda w, k: m.Polynomial({(9,): 1})\n"
        "try:\n"
        "    m.schubert_expand(m.Polynomial({(1,): 1, (0, 1): 1}))\n"
        "except m.NonExpandableError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(importlib.import_module("schubcalc").__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (0, "raised\n"), proc.stderr


def test_schubert_expand_round_trips_s4():
    for w in all_perms(4):
        assert schubert_expand(schubert(w)) == {w: 1}, w


def test_schubert_expand_integer_combination():
    p = schubert((3, 1, 2)) * 2 + schubert((2, 3, 1)) * 7
    assert schubert_expand(p) == {(2, 3, 1): 7, (3, 1, 2): 2}
