"""End-to-end acceptance checklist.

Part 1 pins golden values (1a-1h), each required to finish inside a
second; part 2 runs the exhaustive identity suites (2a-2g).  Every test
prints one PASS/FAIL line; a single counterexample fails the build.
"""

import random
import time
from contextlib import contextmanager
from itertools import permutations

from schubcalc import (
    Polynomial,
    cross_identity_check,
    fundamental_quasisym,
    grassmannian,
    length,
    monk_multiply,
    reduced_words,
    schubert,
    schubert_expand,
    schubert_times_schur,
    schubert_via_compatible,
    schubert_via_slides,
    schur,
    shift,
    slide_expand,
    slide_polynomial,
    stanley,
    substitute_zero,
    truncate_last_descent,
    truncation_paths,
)
from schubcalc.poly import flatten
from schubcalc.verify import all_partitions, all_perms, basis_vector
from oracles import last_descent, weak_compositions


@contextmanager
def criterion(tag, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {tag}")
        raise
    elapsed = time.perf_counter() - start
    assert budget is None or elapsed < budget, f"{tag}: {elapsed:.3f}s over budget"
    print(f"PASS {tag} ({elapsed:.3f}s)")


R42153 = {
    (4, 2, 1, 2, 3),
    (4, 1, 2, 1, 3),
    (4, 1, 2, 3, 1),
    (2, 4, 1, 2, 3),
    (2, 1, 4, 2, 3),
    (2, 1, 2, 4, 3),
    (1, 4, 2, 3, 1),
    (1, 2, 4, 3, 1),
    (1, 4, 2, 1, 3),
    (1, 2, 4, 1, 3),
    (1, 2, 1, 4, 3),
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


def test_1a_reduced_words_of_42153():
    with criterion("1a reduced words of 42153", budget=1.0):
        words = reduced_words((4, 2, 1, 5, 3))
        assert len(words) == 11
        assert set(words) == R42153


def test_1b_schubert_42153_both_constructors():
    with criterion("1b Schubert polynomial of 42153", budget=1.0):
        want = Polynomial({(3, 1, 0, 1): 1, (3, 1, 1): 1, (3, 2): 1})
        assert schubert_via_slides((4, 2, 1, 5, 3)) == want
        assert schubert_via_compatible((4, 2, 1, 5, 3)) == want


def test_1c_schubert_153264_and_slide_expansion():
    with criterion("1c Schubert polynomial of 153264", budget=1.0):
        p = schubert_via_slides((1, 5, 3, 2, 6, 4))
        assert p == schubert_via_compatible((1, 5, 3, 2, 6, 4))
        assert len(p.terms) == 23
        assert sum(p.terms.values()) == 26
        assert slide_expand(p) == SLIDES_153264


def test_1d_slide_polynomial_03101():
    with criterion("1d slide polynomial of (0,3,1,0,1)", budget=1.0):
        p = slide_polynomial((0, 3, 1, 0, 1))
        assert dict(p.terms) == {e: 1 for e in SLIDE_03101}


def test_1e_stanley_42153_quasisymmetric_multiset():
    with criterion("1e Stanley expansion of 42153", budget=1.0):
        for k in (3, 5):
            want = Polynomial()
            for alpha, mult in STANLEY_42153.items():
                want = want + fundamental_quasisym(alpha, k) * mult
            assert stanley((4, 2, 1, 5, 3), k) == want


def test_1f_grassmannian_5441_6():
    with criterion("1f grassmannian of (5,4,4,1) at 6", budget=1.0):
        assert grassmannian((5, 4, 4, 1), 6) == (1, 2, 4, 8, 9, 11, 3, 5, 6, 7, 10)


def test_1g_truncation_of_51738246():
    with criterion("1g truncation of 51738246", budget=1.0):
        assert truncate_last_descent((5, 1, 7, 3, 8, 2, 4, 6)) == {
            (5, 2, 7, 6, 1, 3, 4): 1,
            (6, 2, 7, 4, 1, 3, 5): 1,
        }
        paths = truncation_paths((5, 1, 7, 3, 8, 2, 4, 6))
        assert {cols for _, cols in paths} == {(2, 4, 4), (2, 4, 1)}


def test_1h_product_42153_by_schur_21():
    with criterion("1h product of 42153 with s_(2,1)(x1..x5)", budget=1.0):
        assert schubert_times_schur((4, 2, 1, 5, 3), (2, 1), 5) == {
            (4, 2, 3, 5, 7, 1, 6): 1,
            (4, 3, 1, 5, 7, 2, 6): 1,
            (4, 2, 1, 6, 7, 3, 5): 1,
            (4, 2, 1, 7, 5, 3, 6): 1,
            (5, 2, 1, 7, 3, 4, 6): 1,
        }


def test_2a_constructors_agree_s5_and_sampled_s6():
    with criterion("2a constructor agreement, S5 + 100 of S6"):
        count = 0
        for w in all_perms(5):
            assert schubert_via_slides(w) == schubert_via_compatible(w), w
            count += 1
        assert count == 120
        rng = random.Random(20250814)
        pool = list(permutations(range(1, 7)))
        for p in rng.sample(pool, 100):
            assert schubert_via_slides(p) == schubert_via_compatible(p), p


def test_2b_truncated_slides_are_quasisymmetric():
    with criterion("2b slide/quasisymmetric truncation, weight <= 5"):
        checked = 0
        for n in range(6):
            for m in range(6):
                for a in weak_compositions(n, m):
                    nz = [i for i, x in enumerate(a) if x]
                    if not nz:
                        continue
                    s = nz[0]
                    while s + 1 < len(a) and a[s + 1]:
                        s += 1
                    for k in range(1, s + 2):
                        got = substitute_zero(slide_polynomial(a), k)
                        assert got == fundamental_quasisym(flatten(a), k), (a, k)
                        checked += 1
        assert checked > 500


def test_2c_monk_rule_on_s4():
    with criterion("2c Monk's rule vs expansion oracle, S4"):
        for w in all_perms(4):
            for k in range(1, 4):
                p = schubert(w) * basis_vector(k)
                assert {sum(e) for e in p.terms} == {length(w) + 1}, (w, k)
                assert monk_multiply(w, k) == schubert_expand(p), (w, k)


def test_2d_truncation_equals_substitution_on_s5():
    with criterion("2d truncation vs substitution, S5"):
        for w in all_perms(5):
            k = last_descent(w)
            if k is None:
                continue
            total = Polynomial()
            for u, c in truncate_last_descent(w).items():
                assert c == 1, (w, u)
                total = total + schubert(u)
            assert total == substitute_zero(schubert(w), k - 1), w


def test_2e_cross_identity_on_s3_pairs():
    with criterion("2e crossed-product identity, S3 x S3"):
        for u in all_perms(3):
            for v in all_perms(3):
                for k in range(max(1, len(u)), 5):
                    for n in range(k, 5):
                        assert cross_identity_check(u, v, k, n), (u, v, k, n)


def test_2f_schur_products_on_s4():
    with criterion("2f Schubert x Schur vs expansion oracle, S4"):
        for u in all_perms(4):
            for k in range(1, 4):
                ld = last_descent(u)
                if ld is not None and ld > k:
                    continue
                for lam in all_partitions(3):
                    if len(lam) > k:
                        continue
                    got = schubert_times_schur(u, lam, k)
                    p = schubert(u) * schur(lam, k)
                    assert {sum(e) for e in p.terms} == {length(u) + sum(lam)}, (u, lam, k)
                    assert got == schubert_expand(p), (u, lam, k)
                    for w, c in got.items():
                        assert c > 0 and length(w) == length(u) + sum(lam)


def test_2g_stability_on_s4():
    with criterion("2g Stanley stability, S4"):
        for w in all_perms(4):
            for k in range(1, 4):
                assert stanley(w, k) == stanley(shift(w, 1), k), (w, k)
                for n in range(k, 5):
                    got = substitute_zero(schubert(shift(w, n)), k)
                    assert got == stanley(w, k), (w, k, n)
