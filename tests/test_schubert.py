import importlib
import itertools
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubcalc import (
    NonExpandableError,
    NoSolutionError,
    Polynomial,
    VIRTUAL,
    code,
    descent_set,
    fundamental_quasisym,
    iter_reduced_words,
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
    weak_descent_composition,
)
from schubcalc.schubert import truncated_schubert
from schubcalc.verify import all_partitions, all_perms
from oracles import (
    brute_fqs,
    brute_reduced_words,
    brute_schubert,
    dd_schubert,
    dream_polynomial,
    pipe_dreams,
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


def test_slide_expansion_counts_weak_descent_compositions_on_s5():
    # Assaf and Searles: S_w is the sum of the slide polynomials of the weak
    # descent compositions of its reduced words, the virtual ones left out.
    for w in all_perms(5):
        comps = map(weak_descent_composition, iter_reduced_words(w))
        want = Counter(comp for comp in comps if comp is not VIRTUAL)
        assert slide_expand(schubert(w)) == want, w


def test_oracles_agree_on_s7_up_to_length_8():
    # The verify suites and the tests above stop at S6; at length <= 8
    # every reduced-word oracle of S7 stays cheap.
    perms = [w for w in all_perms(7) if length(w) <= 8]
    assert len(perms) == 1416
    for w in perms:
        p = schubert(w)
        assert schubert_via_slides(w) == p, w
        assert schubert_via_compatible(w) == p, w


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
    # (2.0, 1.0) and (2, True) equal (2, 1) and hash alike, so a memo read
    # before the check would answer them with S_21.
    assert str(schubert((2, 1))) == "x1"
    for w in ((2.0, 1.0), (2, 1.0), (2, True)):
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
    p = schubert((4, 2, 1, 5, 3))
    assert p.degrees() == {5}
    assert schubert_expand(p, ambient=6) == {(4, 2, 1, 5, 3): 1}


def test_schubert_expand_degree_one():
    p = Polynomial({(1,): 1, (0, 1): 1})
    assert schubert_expand(p) == {(1, 3, 2): 1}
    with pytest.raises(NoSolutionError):
        schubert_expand(p, ambient=2)


def test_schubert_expand_monk_product():
    p = schubert((2, 1)) * Polynomial({(1,): 1})
    assert p.degrees() == {2}
    assert schubert_expand(p, ambient=4) == {(3, 1, 2): 1}


def test_schubert_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        schubert_expand(Polynomial({(1,): 1, (2,): 1}))
    # ambient is the only keyword: the degree is read off the polynomial.
    with pytest.raises(TypeError):
        schubert_expand(Polynomial({(1,): 1, (0, 1): 1}), degree=3)
    assert schubert_expand(Polynomial()) == {}


def test_schubert_expand_rejects_a_wrong_pivot_polynomial(monkeypatch):
    # schubcalc.schubert as an attribute is the function, not the module.
    module = importlib.import_module("schubcalc.schubert")
    p = Polynomial({(1,): 1, (0, 1): 1})
    # A pivot polynomial without its pivot monomial leaves the pivot behind;
    # one with a larger monomial does not have the pivot as its maximum.
    # Pivots are looked up through schubert._node on a _pivots miss, so
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
    # ambient is checked on p's monomials before any pivot is read, so a
    # cold memo and a warm one raise alike, and the cold one stays empty.
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
        "monomial (0, 1) needs a permutation of 3 values, ambient is 2"
    )


def test_ambient_holds_exactly_under_the_staircase():
    # The S_w with w in S_N are a basis of the polynomials whose monomials
    # lie under the staircase x_i^(N-i) (Macdonald, Notes on Schubert
    # Polynomials, (4.11)).
    perms = list(all_perms(4))
    for u in perms:
        for v in perms:
            p = schubert(u) * schubert(v)
            full = schubert_expand(p)
            for n in range(7):
                if all(x <= n - i for e in p.terms for i, x in enumerate(e, 1)):
                    assert schubert_expand(p, ambient=n) == full, (u, v, n)
                    assert all(len(w) <= n for w in full)
                else:
                    with pytest.raises(NoSolutionError):
                        schubert_expand(p, ambient=n)
    # Each monomial on its own: x^e expands within S_N exactly when
    # i + e_i <= N for every e_i > 0 (e may end in zeros, which p drops).
    for size in range(5):
        for e in itertools.product(range(5), repeat=size):
            p = Polynomial({e: 1})
            for n in range(9):
                if any(x and i + x > n for i, x in enumerate(e, 1)):
                    with pytest.raises(NoSolutionError):
                        schubert_expand(p, ambient=n)
                else:
                    assert all(len(w) <= n for w in schubert_expand(p, ambient=n)), (e, n)


def test_ambient_names_one_monomial_however_p_was_built():
    p = schubert((4, 2, 1, 5, 3)) * schubert((2, 1, 4, 3))
    terms = list(p.terms.items())
    builds = [Polynomial(dict(order)) for order in (terms, terms[::-1], sorted(terms))]
    for order in (terms, terms[::-1]):
        q = Polynomial()
        for e, c in order:
            q = q + Polynomial.monomial(e, c)
        builds.append(q)
    assert len({tuple(q._keys) for q in builds}) > 1
    for q in builds:
        with pytest.raises(NoSolutionError) as exc:
            schubert_expand(q, ambient=5)
        assert str(exc.value) == (
            "monomial (5, 2) needs a permutation of 6 values, ambient is 5"
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


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_wrong_schubert_pivot_is_refused_before_it_is_stored(flags):
    # The pivot of x1 is the code of (2, 1).  x1^9 does not have it as its
    # largest monomial, and 2*x1 has it with coefficient 2.  Each is
    # refused as it is built, with or without assert statements, and the
    # cold memo stays empty.
    script = (
        "import importlib\n"
        "m = importlib.import_module('schubcalc.schubert')\n"
        "x1 = m.Polynomial({(1,): 1})\n"
        "for wrong in (m.Polynomial({(9,): 1}), x1 * 2):\n"
        "    m._node = lambda w, k: wrong\n"
        "    try:\n"
        "        m.schubert_expand(x1)\n"
        "    except m.NonExpandableError as exc:\n"
        "        print(exc, len(m._pivots), m._pivots.held, m._pivots.misses)\n"
    )
    src = os.path.dirname(os.path.dirname(importlib.import_module("schubcalc").__file__))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    refused = "pivot (1,) is not the largest monomial, with coefficient 1, of (2, 1) 0 0 0\n"
    assert (proc.returncode, proc.stdout) == (0, refused * 2), proc.stderr


def test_schubert_expand_round_trips_s4():
    for w in all_perms(4):
        assert schubert_expand(schubert(w)) == {w: 1}, w


def test_schubert_expand_integer_combination():
    p = schubert((3, 1, 2)) * 2 + schubert((2, 3, 1)) * 7
    assert schubert_expand(p) == {(2, 3, 1): 7, (3, 1, 2): 2}


def in_rows(dreams, k):
    return [d for d in dreams if all(i <= k for i, _ in d)]


def shifted(w, k):
    """1^k x w: w with k fixed points put in front."""
    return (*range(1, k + 1), *(x + k for x in w))


def check_pipe_dreams(w):
    # S_w from its reduced pipe dreams, and S_w(x1..xk, 0, ...) from those
    # with every cross in rows <= k, at every k below len(w).
    dreams = pipe_dreams(w)
    assert dream_polynomial(dreams) == schubert(w).terms, w
    for k in range(len(w)):
        assert dream_polynomial(in_rows(dreams, k)) == truncated_schubert(w, k).terms, (w, k)
    return len(dreams)


def test_pipe_dreams_give_schubert_and_every_truncation_on_s7():
    assert sum(check_pipe_dreams(w) for w in all_perms(7)) == 150371


def test_pipe_dreams_in_k_rows_give_stanley():
    # F_w(x1..xk) = S_{1^k x w}(x1..xk, 0, ...), so the dreams of 1^k x w
    # in rows <= k give stanley.  rows=k keeps just those dreams, as
    # filtering the full set does.
    for w in all_perms(6):
        dreams = pipe_dreams(w)
        for k in range(len(w) + 1):
            assert pipe_dreams(w, k) == in_rows(dreams, k), (w, k)
    for w in all_perms(5):
        for k in range(6):
            assert dream_polynomial(pipe_dreams(shifted(w, k), k)) == stanley(w, k).terms, (w, k)


@given(st.integers(8, 9).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_pipe_dreams_agree_on_s8_and_s9(w):
    check_pipe_dreams(w)
    for k in (1, 2):
        assert dream_polynomial(pipe_dreams(shifted(w, k), k)) == stanley(w, k).terms, (w, k)


def test_pipe_dreams_of_the_inverse_mismatch_on_s5():
    # The convention matters: the dreams read as words of w^-1 are those of
    # w^-1, and S_{w^-1} = S_w only for the 26 involutions of S5.
    mismatched = 0
    for w in all_perms(5):
        inverse = tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))
        mismatched += dream_polynomial(pipe_dreams(inverse)) != schubert(w).terms
    assert mismatched == 94
