import copy
import os
import pickle
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schubcalc
import schubcalc.transition as T
from schubcalc import (
    Chain,
    Polynomial,
    TermBudgetExceeded,
    apply_transposition,
    canonical,
    cross_identity_check,
    grassmannian,
    length,
    lr_chains,
    lr_coefficient,
    monk_multiply,
    reduced_words,
    schubert,
    schubert_expand,
    schubert_times_schur,
    schur,
    stanley,
    substitute_zero,
    term_budget,
    truncate_last_descent,
    truncation_paths,
    truncation_start,
)
from schubcalc.schubert import _schubert, _stanley, truncated_schubert
from schubcalc.transition import _drain, _product_seed
from schubcalc.verify import all_partitions, all_perms, basis_vector
from oracles import (
    alternating_chains,
    brute_reduced_words,
    chain_end,
    dd_schubert,
    edelman_greene,
    hook_count,
    jacobi_trudi,
    last_descent,
    lr_tableaux,
    partitions,
    pieri,
    ssyt_schur,
    stanley_table,
)
from oracles import grassmannian as oracle_grassmannian

PRODUCT_42153_21 = {
    (4, 2, 3, 5, 7, 1, 6): 1,
    (4, 3, 1, 5, 7, 2, 6): 1,
    (4, 2, 1, 6, 7, 3, 5): 1,
    (4, 2, 1, 7, 5, 3, 6): 1,
    (5, 2, 1, 7, 3, 4, 6): 1,
}

CHAINS_42153_21 = {
    (4, 2, 1, 6, 7, 3, 5): ["(4,6)(5,6)(5,7)"],
    (4, 2, 1, 7, 5, 3, 6): ["(4,6)(5,6)(4,7)"],
    (4, 2, 3, 5, 7, 1, 6): ["(5,6)(3,6)(5,7)"],
    (4, 3, 1, 5, 7, 2, 6): ["(5,6)(2,6)(5,7)"],
    (5, 2, 1, 7, 3, 4, 6): ["(4,6)(1,6)(4,7)"],
}

# the product of S_13524 with s_(2,1)(x1,x2,x3) carries a coefficient 2
PRODUCT_13524_21 = {
    (1, 4, 7, 2, 3, 5, 6): 1,
    (1, 5, 6, 2, 3, 4): 1,
    (2, 3, 7, 1, 4, 5, 6): 1,
    (2, 4, 6, 1, 3, 5): 2,
    (3, 4, 5, 1, 2): 1,
}

CHAINS_13524_21 = {
    (1, 4, 7, 2, 3, 5, 6): ["(3,6)(3,7)(2,5)"],
    (1, 5, 6, 2, 3, 4): ["(3,6)(2,5)(2,6)"],
    (2, 3, 7, 1, 4, 5, 6): ["(3,6)(3,7)(1,4)"],
    (2, 4, 6, 1, 3, 5): ["(2,5)(3,6)(1,4)", "(3,6)(1,4)(2,5)"],
    (3, 4, 5, 1, 2): ["(2,5)(1,4)(1,5)"],
}


def test_chain_walk_and_endpoint():
    c = Chain((1, 4, 2, 3), ((2, 4), (1, 2)), (-1, 1))
    assert c.walk() == ((1, 4, 2, 3), (1, 3, 2), (3, 1, 2))
    assert c.endpoint == (3, 1, 2)
    assert str(c) == "(2,4)(1,2)"
    assert Chain((), (), ()).endpoint == ()
    assert str(Chain((), (), ())) == ""


def test_chain_rejects_bad_steps():
    with pytest.raises(ValueError):
        Chain((2, 1), ((1, 2),), (1,))  # goes down, flagged up
    with pytest.raises(ValueError):
        Chain((3, 2, 1), ((1, 3),), (-1,))  # drops length by 3
    with pytest.raises(ValueError):
        Chain((), ((1, 3),), (1,))  # raises length by 3, over the padded 2
    with pytest.raises(ValueError):
        Chain((), ((2, 3), (1, 2)), (1, -1))  # goes up, flagged down
    with pytest.raises(ValueError):
        Chain((2, 1), ((1, 2), (1, 2)), (-1,))
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.3: "):
        Chain((1, 3, 2.0), ((1, 2),), (1,))  # a float entry
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.2: "):
        Chain((2, True), (), ())  # a bool entry
    with pytest.raises(ValueError, match=r"^transposition needs 1 <= a < b, got "):
        Chain((2, 1), ((1.0, 2.0),), (-1,))
    with pytest.raises(ValueError, match=r"^transposition needs 1 <= a < b, got "):
        Chain((), [5], [1])  # a step that is not a pair
    with pytest.raises(ValueError, match=r"^transposition needs 1 <= a < b, got "):
        Chain((), [(1, 2, 3)], [1])  # a step of three positions
    for d in [True, 1.0, -1.0]:
        with pytest.raises(ValueError, match=r"^directions must be \+1 or -1$"):
            Chain((), ((1, 2),), (d,))


def test_chain_is_an_immutable_value():
    c = Chain([1, 4, 2, 3], [[2, 4], [1, 2]], [-1, 1])
    same = Chain((1, 4, 2, 3, 5), ((2, 4), (1, 2)), (-1, 1))
    assert c == same and hash(c) == hash(same)
    assert c != Chain((1, 4, 2, 3), ((2, 4),), (-1,))
    assert c != ((1, 4, 2, 3), ((2, 4), (1, 2)), (-1, 1))
    assert repr(c) == "Chain(base=(1, 4, 2, 3), steps=((2, 4), (1, 2)), directions=(-1, 1))"
    assert copy.copy(c) == pickle.loads(pickle.dumps(c)) == c
    for name in ("base", "steps", "directions", "endpoint", "extra"):
        with pytest.raises(AttributeError):
            setattr(c, name, ())
    with pytest.raises(AttributeError):
        del c.base
    assert c.endpoint == (3, 1, 2)


def test_monk_examples():
    assert monk_multiply((2, 1), 1) == {(3, 1, 2): 1}
    assert monk_multiply((), 1) == {(2, 1): 1}
    assert monk_multiply((), 2) == {(1, 3, 2): 1}
    # x1 + ... + xk is 0 at k = 0.
    assert monk_multiply((2, 1), 0) == {}


def test_monk_42153_against_oracle():
    w = (4, 2, 1, 5, 3)
    p = schubert(w) * basis_vector(2)
    assert {sum(e) for e in p.terms} == {6}
    assert monk_multiply(w, 2) == schubert_expand(p)


def test_monk_matches_oracle_on_s4():
    for w in all_perms(4):
        for k in range(1, 4):
            p = schubert(w) * basis_vector(k)
            assert {sum(e) for e in p.terms} == {length(w) + 1}, (w, k)
            assert monk_multiply(w, k) == schubert_expand(p), (w, k)


def test_k_zero_is_no_variables():
    # Every count is k >= 0.  In no variables x1 + ... + xk is 0, s_()
    # is 1 and every other s_lam is 0, as schur and schubert_expand say;
    # a u with a descent is refused, its last descent being past k.
    # S5 holds S1 to S4 with fixed points appended.
    for w in all_perms(5):
        assert monk_multiply(w, 0) == {} == schubert_expand(schubert(w) * basis_vector(0)), w
    for lam in ((), *all_partitions(4)):
        want = schubert_expand(schur(lam, 0))
        assert schubert_times_schur((), lam, 0) == want == ({(): 1} if not lam else {})
        assert {w: len(cs) for w, cs in lr_chains((), lam, 0).items()} == want
        assert lr_coefficient((), lam, 0, ()) == want.get((), 0)
    assert [str(c) for c in lr_chains((), (), 0)[()]] == [""]
    for u in ((2, 1), (1, 3, 2), (4, 2, 1, 5, 3)):
        message = f"^last descent of u is {last_descent(u)}, beyond k=0$"
        for lam in ((), (1,), (2, 1)):
            for product in (schubert_times_schur, lr_chains):
                with pytest.raises(ValueError, match=message):
                    product(u, lam, 0)
            with pytest.raises(ValueError, match=message):
                lr_coefficient(u, lam, 0, u)


def test_every_expansion_is_sorted_by_permutation_on_s5():
    # The CLI prints an expansion in the order the library returns it, so
    # each public expansion comes sorted by permutation.
    for w in all_perms(5):
        if w:
            got = truncate_last_descent(w)
            assert list(got) == sorted(got), w
        for k in range(7):
            got = monk_multiply(w, k)
            assert list(got) == sorted(got), (w, k)
        for lam in ((), *all_partitions(3)):
            for k in range(last_descent(w) or 0, 6):
                for product in (schubert_times_schur, lr_chains):
                    got = product(w, lam, k)
                    assert list(got) == sorted(got), (product.__name__, w, lam, k)


def test_truncation_start_examples():
    assert truncation_start((5, 1, 7, 3, 8, 2, 4, 6)) == (5, 1, 7, 3, 2, 4, 6)
    assert truncation_start((1, 3, 2)) == ()
    assert truncation_start((2, 1)) == ()
    # Each public entry to the truncation reads the last descent itself,
    # and the identity, which has none, is refused alike by all three.
    for fn in (truncation_start, truncation_paths, truncate_last_descent):
        for w in ((), (1,), (1, 2, 3)):
            with pytest.raises(ValueError, match="^the identity has no descent to truncate$"):
                fn(w)


def test_truncation_paths_51738246():
    assert truncation_paths((5, 1, 7, 3, 8, 2, 4, 6)) == (
        ((5, 2, 7, 6, 1, 3, 4), (2, 4, 4)),
        ((6, 2, 7, 4, 1, 3, 5), (2, 4, 1)),
    )


def test_truncate_examples():
    assert truncate_last_descent((5, 1, 7, 3, 8, 2, 4, 6)) == {
        (5, 2, 7, 6, 1, 3, 4): 1,
        (6, 2, 7, 4, 1, 3, 5): 1,
    }
    assert truncate_last_descent((2, 1)) == {}
    assert truncate_last_descent((1, 3, 2)) == {(2, 1): 1}
    # Sorted, like the product's expansion.
    assert list(truncate_last_descent((5, 1, 7, 3, 8, 2, 4, 6))) == [
        (5, 2, 7, 6, 1, 3, 4),
        (6, 2, 7, 4, 1, 3, 5),
    ]
    with pytest.raises(ValueError):
        truncate_last_descent((1, 2, 3))


def test_truncation_equals_substitution_on_s5():
    for w in all_perms(5):
        k = last_descent(w)
        if k is None:
            continue
        total = Polynomial()
        for u, c in truncate_last_descent(w).items():
            assert c == 1, (w, u)
            total = total + schubert(u)
        assert total == substitute_zero(schubert(w), k - 1), w


def test_drain_expands_every_truncation_on_s7():
    # The paper's second result: S_w(x1..xk, 0, ...) expands positively by
    # repeated last-descent truncation, at every k below the last descent.
    for w in all_perms(7):
        top = last_descent(w)
        if top is None:
            continue
        assert list(truncate_last_descent(w)) == sorted(truncate_last_descent(w)), w
        for k in range(top):
            got = _drain(w, k)
            assert got == schubert_expand(truncated_schubert(w, k)), (w, k)
            assert all(c > 0 for c in got.values()), (w, k)


def test_drain_expands_schubert_times_stanley_on_s4():
    # The title theorem for every v, not only v_lam: S_u F_v(x1..xk) is
    # the truncation of S_{u x v} to x1..xk, which the drain expands
    # positively.
    count = 0
    for u in all_perms(4):
        for v in all_perms(4):
            for k in range(last_descent(u) or 1, 5):
                got = _drain(_product_seed(u, v, k)[1], k)
                assert got == schubert_expand(schubert(u) * stanley(v, k)), (u, v, k)
                assert all(c > 0 for c in got.values()), (u, v, k)
                count += 1
    assert count == 1536


def test_drain_of_a_stanley_polynomial_counts_edelman_greene_tableaux():
    # F_v(x1..xk) = sum of a_lam s_lam(x1..xk), a_lam the Edelman–Greene
    # tableaux of shape lam (Edelman and Greene, Adv. Math. 1987); at
    # k = len(v) no shape is too tall, and the sum of a_lam f^lam is the
    # number of reduced words of v (Stanley, Europ. J. Combin. 1984).
    # reduced_words is checked against the brute-force search on S4.
    count = 0
    for v in all_perms(5):
        if not v:
            continue
        words = brute_reduced_words(v) if len(v) <= 4 else set(reduced_words(v))
        eg = edelman_greene(v, words)
        k = len(v)
        got = _drain(_product_seed((), v, k)[1], k)
        assert got == {oracle_grassmannian(lam, k): a for lam, a in eg.items()}, v
        assert sum(a * hook_count(lam) for lam, a in eg.items()) == len(words), v
        count += 1
    assert count == 119


def larger_to_the_left(w):
    """The largest number of larger values to the left of a value of w."""
    return max((sum(x > y for x in w[:i]) for i, y in enumerate(w)), default=0)


def test_truncation_vanishes_exactly_when_a_value_has_too_many_larger_to_its_left():
    # The criterion by which _paths drops a truncation endpoint and _node
    # zeroes a Stanley node: S_w(x1..xk, 0, ...) = 0 exactly when some value
    # of w has more than k larger values to its left.  It is checked in both
    # directions against substitution into schubert(w), which builds only
    # _schubert nodes and so never applies the criterion.
    for n in range(1, 8):
        for w in all_perms(n):
            h = larger_to_the_left(w)
            full = schubert(w)
            for k in range(n):
                assert bool(substitute_zero(full, k).terms) == (h <= k), (w, k)


def test_cold_truncations_match_the_oracles_and_store_no_zero_on_s6():
    # _node answers a _stanley miss that the criterion zeroes with 0,
    # neither built nor stored; every other node is built by transition.
    # Every w of S1..S6 is the canonical form of one of S6.
    stanleys = stanley_table(6, 6)
    for w in all_perms(6):
        schub = dd_schubert(w)
        for k in range(len(w) + 1):
            for call, want in ((truncated_schubert, schub), (stanley, stanleys[w])):
                _schubert.cache_clear()
                _stanley.cache_clear()
                got = call(w, k).terms
                assert got == {e: c for e, c in want.items() if len(e) <= k}, (call, w, k)
                assert all(p for p, _ in _stanley.values()), (call, w, k)


def test_product_42153():
    assert schubert_times_schur((4, 2, 1, 5, 3), (2, 1), 5) == PRODUCT_42153_21


def test_product_identity_and_monk_cases():
    assert schubert_times_schur((), (2, 1), 2) == {(2, 4, 1, 3): 1}
    assert schubert_times_schur((2, 1), (1,), 1) == {(3, 1, 2): 1}
    assert schubert_times_schur((2, 1), (), 3) == {(2, 1): 1}
    # lam may be any iterable, as in schur and grassmannian.
    assert schubert_times_schur((), iter((2, 1)), 2) == {(2, 4, 1, 3): 1}
    assert lr_chains((), iter((2, 1)), 2) == lr_chains((), (2, 1), 2)
    assert lr_coefficient((), iter((2, 1)), 2, (2, 4, 1, 3)) == 1


def test_product_preconditions():
    with pytest.raises(ValueError):
        schubert_times_schur((1, 3, 2), (1,), 1)  # last descent 2 > k
    # Two rows, k = 1: s_(1,1)(x1) = 0, so the product is 0, not an error.
    assert schubert_times_schur((2, 1), (1, 1), 1) == {}
    with pytest.raises(ValueError):
        schubert_times_schur((2, 1), (1,), 0)
    with pytest.raises(ValueError):
        schubert_times_schur((2, 1), (1, 2), 3)  # not a partition


def test_too_many_parts_has_one_message():
    # Only grassmannian still rejects more parts than k; the polynomial
    # and the product built from it are 0 there.
    with pytest.raises(ValueError, match=r"^partition \(2, 1\) has more parts than k=1$"):
        grassmannian((2, 1), 1)
    with pytest.raises(ValueError, match=r"^partition \(1,\) has more parts than k=0$"):
        grassmannian((1,), 0)
    assert schur((2, 1), 1) == Polynomial() == schur((1,), 0)
    assert schubert_times_schur((2, 1), (2, 1), 1) == {}


def test_more_parts_than_variables_is_zero_on_s4():
    # s_lam(x1..xk) = 0 when lam has more than k parts, and the truncation
    # tree seeded with u x v_lam then has no leaf.  The oracle multiplies
    # by the tableau generating function, which does not go through schur.
    cases = 0
    for u in all_perms(4):
        for lam in all_partitions(4):
            for k in range(max(1, last_descent(u) or 0), len(lam)):
                cases += 1
                want = schubert_expand(schubert(u) * Polynomial(ssyt_schur(lam, k)))
                assert want == {}
                assert schubert_times_schur(u, lam, k) == want, (u, lam, k)
                assert lr_chains(u, lam, k) == {}, (u, lam, k)
                for w in all_perms(5):
                    if length(w) == length(u) + sum(lam):
                        assert lr_coefficient(u, lam, k, w) == 0, (u, lam, k, w)
    assert cases == 88


def test_product_matches_oracle_on_s4():
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
                    assert c > 0
                    assert length(w) == length(u) + sum(lam)


def test_product_coefficient_two():
    assert schubert_times_schur((1, 3, 5, 2, 4), (2, 1), 3) == PRODUCT_13524_21


def test_lr_coefficient_examples():
    assert lr_coefficient((4, 2, 1, 5, 3), (2, 1), 5, (4, 2, 3, 5, 7, 1, 6)) == 1
    assert lr_coefficient((4, 2, 1, 5, 3), (2, 1), 5, (4, 2, 1, 5, 3)) == 0
    assert lr_coefficient((2, 1), (1,), 1, (3, 1, 2)) == 1
    assert lr_coefficient(grassmannian((2, 1), 3), (2, 1), 3, grassmannian((3, 2, 1), 3)) == 2
    # A malformed target is an input error, whatever budget is left.
    with pytest.raises(ValueError, match="not a permutation"):
        with term_budget(0):
            lr_coefficient((2, 1), (1,), 1, (1, 1))


def test_lr_chains_42153():
    got = lr_chains((4, 2, 1, 5, 3), (2, 1), 5)
    assert {w: [str(c) for c in cs] for w, cs in got.items()} == CHAINS_42153_21


def test_lr_chains_count_coefficients():
    got = lr_chains((1, 3, 5, 2, 4), (2, 1), 3)
    assert {w: [str(c) for c in cs] for w, cs in got.items()} == CHAINS_13524_21
    for w, cs in got.items():
        assert len(cs) == PRODUCT_13524_21[w]
        for c in cs:
            assert c.base == (1, 3, 5, 2, 4)
            assert c.endpoint == w
            assert all(a <= 3 < b for a, b in c.steps)


def test_lr_chains_validate_u_once(monkeypatch):
    # Leaves are built by Chain._trusted, which keeps the covering checks
    # but does not sort u again: one canonical call, on entry.
    calls = Counter()
    real = T.canonical

    def counted(w):
        calls["canonical"] += 1
        return real(w)

    monkeypatch.setattr(T, "canonical", counted)
    got = lr_chains((3, 1, 6, 2, 8, 5, 4, 7), (3, 2, 1), 7)
    assert sum(map(len, got.values())) == 72
    assert calls["canonical"] == 1
    with pytest.raises(ValueError, match="not a covering"):
        T.Chain._trusted((2, 1), ((1, 2),), (1,))


def test_lr_chains_small_cases():
    assert {
        w: [str(c) for c in cs] for w, cs in lr_chains((), (2, 1), 2).items()
    } == {(2, 4, 1, 3): ["(2,3)(1,3)(2,4)"]}
    for u in all_perms(3):
        for lam in all_partitions(2):
            k = max(len(lam), last_descent(u) or 1)
            chains = lr_chains(u, lam, k)
            product = schubert_times_schur(u, lam, k)
            assert {w: len(cs) for w, cs in chains.items()} == product, (u, lam, k)


# A reference chain rewrite, independent of lr_chains: its own
# conjugation and push-down, and the staircase normal form of one
# alternating down/up truncation chain.


def conj(d, t):
    """d t d, the transposition t with d's two points exchanged."""
    x, y = d
    a, b = (y if p == x else x if p == y else p for p in t)
    return (a, b) if a < b else (b, a)


def push_downs_left(items):
    """Rewrite a mixed word so all down-steps precede all up-steps.

    items pairs each transposition with whether it is a down-step.
    Moving a down-step t left across an up-step s rewrites s t as
    t (t s t); an up-step equal to t cancels against it.  The group
    element is unchanged.
    """
    downs, ups = [], []
    for t, is_down in items:
        if not is_down:
            ups.append(t)
            continue
        for i in range(len(ups) - 1, -1, -1):
            if ups[i] == t:
                del ups[i]
                break
            ups[i] = conj(t, ups[i])
        else:
            downs.append(t)
    return downs, ups


def reverse_ups(ups):
    """Reverse a transposition word by sinking heads: t R = (t R t) t."""
    rest, out = list(ups), []
    while rest:
        head = rest.pop(0)
        rest = [conj(head, t) for t in rest]
        out.insert(0, head)
    return out


def normalize_chain(chain):
    """Rewrite an alternating down/up chain into staircase form.

    The input steps alternate (k, b_1)(a_1, k)(k, b_2)(a_2, k)... from a
    base w whose last descent is k, with b_1 > b_2 > ... and b_1 maximal
    such that w_k > w_{b_1}.  The output chain from the same base does
    all m = b_1 - k down-steps (k, k+m)...(k, k+1) first, then m up-steps
    in column order (a'_1, k)(a'_2, k+1)..., and reaches the same
    endpoint.  Padding pairs (k,j)(k,j) are inserted at the skipped
    columns, then down-steps commute left past up-steps by conjugation.
    """
    w, steps = chain.base, chain.steps
    k = last_descent(w)
    m = max(b for b in range(k + 1, len(w) + 1) if w[b - 1] < w[k - 1]) - k
    pairs = list(zip(steps[0::2], steps[1::2]))
    bs = [down[1] for down, _ in pairs] + [k]
    items = []
    for i, (down, up) in enumerate(pairs):
        items += [(down, True), (up, False)]
        for j in range(bs[i] - 1, bs[i + 1], -1):
            items += [((k, j), True), ((k, j), False)]
    downs, ups = push_downs_left(items)
    assert downs == [(k, k + m - i) for i in range(m)], chain
    ups = reverse_ups(ups)
    assert [b for _, b in ups] == list(range(k, k + m)), chain
    assert all(a < k for a, _ in ups), chain
    out = Chain(w, tuple(downs + ups), (-1,) * m + (1,) * m)
    assert out.endpoint == chain.endpoint, chain
    return out


def lr_chains_rewriting_each_leaf(u, lam, k):
    """lr_chains as first written: every leaf rewrites its whole raw word.

    The raw word of a leaf is the staircase of down-steps of each tree
    node on its path, each followed by the up-steps of the chosen
    truncation columns; one push_downs_left per leaf sorts it.
    """
    u, w0 = _product_seed(u, grassmannian(lam, len(lam)), k)
    out = {}

    def go(w, raw):
        kk = last_descent(w)
        if kk is None or kk <= k:
            downs, ups = push_downs_left(raw)
            base = w0
            for t in downs:
                base = apply_transposition(base, t)
            assert base == u
            out.setdefault(w, []).append(Chain(u, ups, (1,) * len(ups)))
            return
        m = max(b for b in range(kk + 1, len(w) + 1) if w[b - 1] < w[kk - 1]) - kk
        stage = [((kk, kk + m - i), True) for i in range(m)]
        for p, cols in truncation_paths(w):
            go(p, raw + stage + [((a, kk + j), False) for j, a in enumerate(cols)])

    go(w0, [])
    return {w: tuple(cs) for w, cs in sorted(out.items())}


def allowed_ks(u, lam, top):
    return range(max(1, len(lam), last_descent(u) or 0), top + 1)


def test_lr_chains_equal_the_per_leaf_rewrite_on_s5():
    for u in all_perms(5):
        for lam in [(), *all_partitions(3)]:
            for k in allowed_ks(u, lam, 5):
                assert lr_chains(u, lam, k) == lr_chains_rewriting_each_leaf(u, lam, k), (u, lam, k)


@st.composite
def product_case(draw):
    n = draw(st.integers(6, 8))
    u = canonical(draw(st.permutations(range(1, n + 1))))
    size = draw(st.integers(1, 4))
    lam = draw(st.sampled_from([p for p in all_partitions(size) if sum(p) == size]))
    ks = allowed_ks(u, lam, max(1, len(lam), last_descent(u) or 0) + 2)
    return u, lam, draw(st.sampled_from(ks))


@given(product_case())
@settings(max_examples=200, deadline=None)
def test_lr_chains_equal_the_per_leaf_rewrite_on_s6_to_s8(case):
    assert lr_chains(*case) == lr_chains_rewriting_each_leaf(*case)


def pieri_cases(n):
    """(u, p, k) for every u in S_n, 1 <= p <= 3 and max(ld(u), 1) <= k <= n."""
    for u in all_perms(n):
        for k in range(max(last_descent(u) or 0, 1), n + 1):
            for p in (1, 2, 3):
                yield u, p, k


def check_pieri(u, p, k, column):
    lam = (1,) * p if column else (p,)
    want = pieri(u, p, k, column)
    assert schubert_times_schur(u, lam, k) == want, (u, lam, k)
    assert {w: len(cs) for w, cs in lr_chains(u, lam, k).items()} == want, (u, lam, k)


def test_product_equals_the_pieri_rule_on_s6():
    # S6 holds S4 and S5 with fixed points appended, and their k up to 6.
    for u, p, k in pieri_cases(6):
        check_pieri(u, p, k, False)
        check_pieri(u, p, k, True)


@st.composite
def pieri_case(draw):
    n = draw(st.integers(8, 9))
    u = canonical(draw(st.permutations(range(1, n + 1))))
    k = draw(st.integers(max(last_descent(u) or 0, 1), n))
    return u, draw(st.integers(1, 3)), k, draw(st.booleans())


@given(pieri_case())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_product_equals_the_pieri_rule_on_s8_and_s9(case):
    check_pieri(*case)


def test_pieri_rule_with_rows_and_columns_swapped_disagrees_on_s4():
    cases = wrong = 0
    for u, p, k in pieri_cases(4):
        for column in (False, True):
            lam = (1,) * p if column else (p,)
            cases += 1
            wrong += pieri(u, p, k, not column) != schubert_times_schur(u, lam, k)
    assert (wrong, cases) == (256, 384)


def check_jacobi_trudi(u, lam, k):
    want = jacobi_trudi(u, lam, k)
    assert schubert_times_schur(u, lam, k) == want, (u, lam, k)
    assert {w: len(cs) for w, cs in lr_chains(u, lam, k).items()} == want, (u, lam, k)


def test_product_equals_jacobi_trudi_on_s6():
    # Every u with the four lam of at most 4 boxes that have two rows, at
    # the least k the product takes.
    cases = 0
    for u in all_perms(6):
        for lam in ((2, 1), (3, 1), (2, 2), (2, 1, 1)):
            k = max(last_descent(u) or 0, len(lam))
            assert schubert_times_schur(u, lam, k) == jacobi_trudi(u, lam, k), (u, lam, k)
            cases += 1
    assert cases == 2880


# The lam of 3 to 6 boxes with at least two rows and two columns: neither
# Pieri rule covers them, and the LR test covers only a Grassmannian u.
BOXES = [lam for size in range(3, 7) for lam in partitions(size) if len(lam) > 1 and lam[0] > 1]


@st.composite
def jacobi_trudi_case(draw):
    n = draw(st.integers(10, 12))
    u = canonical(draw(st.permutations(range(1, n + 1))))
    lam = draw(st.sampled_from(BOXES))
    k = max(last_descent(u) or 0, len(lam))
    return u, lam, draw(st.integers(k, k + 1))


@given(jacobi_trudi_case())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_product_equals_jacobi_trudi_on_s10_to_s12(case):
    check_jacobi_trudi(*case)


def test_jacobi_trudi_with_column_pieri_gives_the_conjugate_on_s4():
    # e_p in place of h_p turns det[h_{lam_i - i + j}] into s_lam', so only
    # a lam that is not its own conjugate tells the conventions apart.
    for lam, conjugate, wrong in (
        ((2, 1), (2, 1), 0),
        ((2, 2), (2, 2), 0),
        ((3, 1), (2, 1, 1), 24),
        ((2, 1, 1), (3, 1), 24),
        ((3, 2), (2, 2, 1), 24),
    ):
        mismatches = 0
        for u in all_perms(4):
            k = max(last_descent(u) or 0, len(lam))
            got = jacobi_trudi(u, lam, k, column=True)
            assert got == schubert_times_schur(u, conjugate, k), (u, lam, k)
            mismatches += got != schubert_times_schur(u, lam, k)
        assert mismatches == wrong, lam


def lr_rule(mu, lam, k, lattice=True):
    """The product of S_{v_mu} with s_lam(x1..xk) by the Littlewood–Richardson rule."""
    out = {}
    for nu in partitions(sum(mu) + sum(lam)):
        if len(nu) <= k and (c := lr_tableaux(nu, mu, lam, lattice)):
            out[oracle_grassmannian(nu, k)] = c
    return out


def test_product_of_a_grassmannian_u_equals_the_littlewood_richardson_rule():
    cases = 0
    for size in range(9):
        for mu_size in range(size + 1):
            for mu in partitions(mu_size):
                for lam in partitions(size - mu_size):
                    for k in range(max(len(mu), 1), 6):
                        u = grassmannian(mu, k)
                        want = lr_rule(mu, lam, k)
                        assert schubert_times_schur(u, lam, k) == want, (mu, lam, k)
                        for nu in partitions(size):
                            if len(nu) <= k:
                                w = oracle_grassmannian(nu, k)
                                assert lr_coefficient(u, lam, k, w) == want.get(w, 0)
                        cases += 1
    assert cases == 1675
    assert lr_tableaux((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coefficient(grassmannian((2, 1), 3), (2, 1), 3, grassmannian((3, 2, 1), 3)) == 2


def test_littlewood_richardson_rule_without_the_lattice_condition_disagrees():
    assert schubert_times_schur((), (1, 1), 1) == lr_rule((), (1, 1), 1) == {}
    assert lr_rule((), (1, 1), 1, lattice=False) == {(3, 1, 2): 1}


def test_cross_identity_examples():
    assert cross_identity_check((4, 2, 1, 5, 3), (2, 1), 5, 5)
    assert cross_identity_check((2, 1), (2, 1), 2, 3)
    assert cross_identity_check((), (3, 1, 2), 2, 2)
    with pytest.raises(ValueError):
        cross_identity_check((2, 1), (2, 1), 1, 3)  # u moves position 2 > k
    with pytest.raises(ValueError):
        cross_identity_check((2, 1), (2, 1), 4, 3)  # k > n


def test_cross_identity_exhaustive_s3():
    for u in all_perms(3):
        for v in all_perms(3):
            for k in range(max(1, len(u)), 5):
                for n in range(k, 5):
                    assert cross_identity_check(u, v, k, n), (u, v, k, n)


def test_normalize_chain_staircase_example():
    raw = Chain(
        (5, 1, 7, 3, 8, 2, 4, 6), ((5, 8), (4, 5), (5, 6), (2, 5)), (-1, 1, -1, 1)
    )
    norm = normalize_chain(raw)
    assert str(norm) == "(5,8)(5,7)(5,6)(2,5)(4,6)(4,7)"
    assert norm.directions == (-1, -1, -1, 1, 1, 1)
    assert norm.base == raw.base
    assert norm.endpoint == raw.endpoint == (5, 2, 7, 6, 1, 3, 4)


def test_nested_chain_collapses_to_product_form():
    # the nested down/up blocks out of 421537968 multiply out to the same
    # permutation as the three bare up-steps out of 42153
    w = (4, 2, 1, 5, 3, 7, 9, 6, 8)
    steps = [(7, 9), (7, 8), (5, 7), (6, 8), (6, 8), (6, 7), (3, 6), (5, 7)]
    assert chain_end(w, steps) == chain_end((4, 2, 1, 5, 3), [(5, 6), (3, 6), (5, 7)])
    assert chain_end(w, steps) == (4, 2, 3, 5, 7, 1, 6)


def test_alternating_chains_normalize_onto_truncation_paths_s5():
    for w in all_perms(5):
        if last_descent(w) is None:
            continue
        chains = alternating_chains(w)
        ends = Counter(chain_end(w, ch) for ch in chains)
        assert ends == Counter(truncate_last_descent(w)), w
        normalized = set()
        pairs = set()
        for ch in chains:
            c = Chain(w, ch, (-1, 1) * (len(ch) // 2))
            norm = normalize_chain(c)
            assert norm.endpoint == c.endpoint
            normalized.add(str(norm))
            m = norm.directions.count(-1)
            assert norm.walk()[m] == truncation_start(w)
            pairs.add((norm.endpoint, tuple(a for a, _ in norm.steps[m:])))
        assert len(normalized) == len(chains), w
        assert pairs == set(truncation_paths(w)), w


def test_term_budget_aborts_enumeration():
    with pytest.raises(TermBudgetExceeded):
        with term_budget(1):
            truncation_paths((5, 1, 7, 3, 8, 2, 4, 6))
    with term_budget(2):
        assert len(truncation_paths((5, 1, 7, 3, 8, 2, 4, 6))) == 2
    assert len(truncation_paths((5, 1, 7, 3, 8, 2, 4, 6))) == 2
    with pytest.raises(ValueError, match="^term budget must be nonnegative, got -1$"):
        with term_budget(-1):
            pass
    with pytest.raises(ValueError, match="^term budget must be an int, got '2'$"):
        with term_budget("2"):
            pass


def test_product_expands_each_node_once(monkeypatch):
    expanded = []
    kernel = T._paths

    def recording(w, k, low):
        expanded.append(w)
        return kernel(w, k, low)

    monkeypatch.setattr(T, "_paths", recording)
    cases = [((3, 1, 6, 2, 8, 5, 4, 7), (5, 4, 3, 2, 1), 7)]
    cases += [
        (u, lam, k) for u in all_perms(4) for lam in all_partitions(4) for k in allowed_ks(u, lam, 5)
    ]
    for case in cases:
        expanded.clear()
        schubert_times_schur(*case)
        assert len(expanded) == len(set(expanded)), case


# Budget units each call charges: one per truncated tree node, one per
# truncation endpoint.  The lr_chains count was measured before the
# permutation kernels were split from the validating layer; the product's
# fell from 1751 to 1435 when its tree was drained by last descent, which
# expands each node once, and to 1292 when endpoints whose truncation to
# x1..xk vanishes were charged but no longer expanded; the lr_chains case
# has no such endpoint.  truncate_last_descent is one level of the same
# drain, so its 12 endpoints cost one more unit, for its one node: 13.
PINNED_WORK = [
    (schubert_times_schur, ((3, 1, 6, 2, 8, 5, 4, 7), (5, 4, 3, 2, 1), 7), 1292),
    (lr_chains, ((3, 1, 6, 2, 8, 5, 4, 7), (3, 2, 1), 7), 99),
    (truncate_last_descent, ((8, 6, 3, 2, 1, 5, 10, 4, 7, 9),), 13),
]


@pytest.mark.parametrize("fn, args, units", PINNED_WORK, ids=lambda x: getattr(x, "__name__", ""))
def test_pinned_work_counts(fn, args, units):
    want = fn(*args)
    with term_budget(units):
        assert fn(*args) == want
    with pytest.raises(TermBudgetExceeded):
        with term_budget(units - 1):
            fn(*args)


def test_guards_hold_under_optimize():
    # Each guard is fed a wrong kernel, helper or child and must still raise with -O.
    script = """
import schubcalc.transition as T

def outcome(fn, *args, **patch):
    saved = {name: getattr(T, name) for name in patch}
    vars(T).update(patch)
    try:
        fn(*args)
    except RuntimeError as exc:
        return f"{type(exc).__name__}: {exc}"
    finally:
        vars(T).update(saved)
    return "no error"

print(outcome(T.monk_multiply, (1, 3, 2), 2, _swap=lambda w, a, b: w))
print(outcome(T.truncation_start, (5, 1, 7, 3, 8, 2, 4, 6), _strip=lambda w: tuple(w)[1:]))
print(outcome(T.lr_chains, (), (1,), 1, _push_down=lambda ups, x, y: False))
twice = lambda w, k, low: [((2, 1), (1,), 1)] * 2
print(outcome(T.truncate_last_descent, (1, 3, 2), _paths=twice))
# Truncating from w instead of w-hat leaves endpoints with a descent at
# or past the node's, which the endpoint scan of _paths must catch.
unshifted = lambda w, k, m: list(w)
print(outcome(T.schubert_times_schur, (4, 2, 1, 5, 3), (2, 1), 5, _start_word=unshifted))
print(outcome(T.lr_chains, (4, 2, 1, 5, 3), (2, 1), 5, _start_word=unshifted))
# An up-step out of row 0 is not one of the chain's steps (a, b) with
# 0 < a <= k < b, which the leaf check must catch.
print(outcome(T.lr_chains, (1, 3, 2), (1,), 2, _paths=lambda w, k, low: [((2, 3, 1), (0,), 2)]))
# An endpoint that its columns do not lead to is not where the chain
# ends, which the last leaf check must catch.
paths = T._paths
elsewhere = lambda w, k, low: [((3, 1, 2), cols, ld) for _, cols, ld in paths(w, k, low)]
print(outcome(T.lr_chains, (), (1,), 1, _paths=elsewhere))
# An x_r child of degree 255, raised by x_r, overflows the 8-bit slots of
# a transition step on S2, which must raise before it stores anything.
from schubcalc._limits import Memo
from schubcalc.poly import _monomials
memo = Memo(_monomials)
def overflow():
    step = T._transition((2, 1), 2, 1, memo, (2, 1))
    next(step)
    step.send(T.Polynomial({(255,): 1}))
print(outcome(overflow), len(memo))
"""
    src = os.path.dirname(os.path.dirname(schubcalc.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["RuntimeError"] * 9, proc.stdout
    assert "duplicate truncation endpoint" in lines[3], proc.stdout
    assert all("keeps a descent" in line for line in lines[4:6]), proc.stdout
    assert lines[6] == (
        "RuntimeError: up-steps [(0, 4)] to (2, 3, 1) do not cross k = 2 |lam| times"
    ), proc.stdout
    assert lines[7] == "RuntimeError: chain (1,2) ends at (2, 1), not (3, 1, 2)", proc.stdout
    assert lines[8] == (
        "RuntimeError: S_(2, 1) has degree 256, too large for 8-bit slots 0"
    ), proc.stdout

