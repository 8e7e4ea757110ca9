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
    format_chain,
    grassmannian,
    length,
    lr_chains,
    lr_coefficient,
    monk_multiply,
    schubert,
    schubert_expand,
    schubert_times_schur,
    schur,
    substitute_zero,
    term_budget,
    truncate_last_descent,
    truncation_paths,
    truncation_start,
)
from schubcalc.transition import _descent_data, _drain, _product_seed, truncated_schubert
from schubcalc.verify import all_partitions, all_perms, basis_vector
from oracles import alternating_chains, chain_end, last_descent, ssyt_schur

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


def test_format_chain():
    assert format_chain(((5, 8), (4, 5))) == "(5,8)(4,5)"
    assert format_chain(()) == ""


def test_monk_examples():
    assert monk_multiply((2, 1), 1) == {(3, 1, 2): 1}
    assert monk_multiply((), 1) == {(2, 1): 1}
    assert monk_multiply((), 2) == {(1, 3, 2): 1}
    with pytest.raises(ValueError):
        monk_multiply((2, 1), 0)


def test_monk_42153_against_oracle():
    w = (4, 2, 1, 5, 3)
    p = schubert(w) * basis_vector(2)
    assert monk_multiply(w, 2) == schubert_expand(p, degree=6)


def test_monk_matches_oracle_on_s4():
    for w in all_perms(4):
        for k in range(1, 4):
            p = schubert(w) * basis_vector(k)
            want = schubert_expand(p, degree=length(w) + 1)
            assert monk_multiply(w, k) == want, (w, k)


def test_truncation_start_examples():
    assert truncation_start((5, 1, 7, 3, 8, 2, 4, 6)) == (5, 1, 7, 3, 2, 4, 6)
    assert truncation_start((1, 3, 2)) == ()
    assert truncation_start((2, 1)) == ()
    with pytest.raises(ValueError):
        truncation_start(())


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
            got = _drain(w, *_descent_data(w), k)
            assert got == schubert_expand(truncated_schubert(w, k)), (w, k)
            assert all(c > 0 for c in got.values()), (w, k)


def larger_to_the_left(w):
    """The largest number of larger values to the left of a value of w."""
    return max((sum(x > y for x in w[:i]) for i, y in enumerate(w)), default=0)


def test_truncation_vanishes_exactly_when_a_value_has_too_many_larger_to_its_left():
    # The criterion by which _paths drops a truncation endpoint:
    # S_w(x1..xk, 0, ...) = 0 exactly when some value of w has more than k
    # larger values to its left.  The drop relies on one direction only.
    for n in range(1, 8):
        for w in all_perms(n):
            h = larger_to_the_left(w)
            for k in range(n):
                assert bool(truncated_schubert(w, k).terms) == (h <= k), (w, k)


def test_product_42153():
    assert schubert_times_schur((4, 2, 1, 5, 3), (2, 1), 5) == PRODUCT_42153_21


def test_product_identity_and_monk_cases():
    assert schubert_times_schur((), (2, 1), 2) == {(2, 4, 1, 3): 1}
    assert schubert_times_schur((2, 1), (1,), 1) == {(3, 1, 2): 1}
    assert schubert_times_schur((2, 1), (), 3) == {(2, 1): 1}


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
                want = schubert_expand(
                    schubert(u) * schur(lam, k), degree=length(u) + sum(lam)
                )
                assert got == want, (u, lam, k)
                for w, c in got.items():
                    assert c > 0
                    assert length(w) == length(u) + sum(lam)


def test_product_coefficient_two():
    assert schubert_times_schur((1, 3, 5, 2, 4), (2, 1), 3) == PRODUCT_13524_21


def test_lr_coefficient_examples():
    assert lr_coefficient((4, 2, 1, 5, 3), (2, 1), 5, (4, 2, 3, 5, 7, 1, 6)) == 1
    assert lr_coefficient((4, 2, 1, 5, 3), (2, 1), 5, (4, 2, 1, 5, 3)) == 0
    assert lr_coefficient((2, 1), (1,), 1, (3, 1, 2)) == 1
    assert lr_coefficient((1, 3, 5, 2, 4), (2, 1), 3, (2, 4, 6, 1, 3, 5)) == 2
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
    u, w0, _, _ = _product_seed(u, grassmannian(lam, len(lam)), k)
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
    with pytest.raises(ValueError, match="^term budget must be nonnegative$"):
        with term_budget(-1):
            pass
    with pytest.raises(ValueError, match="^term budget must be an int, got '2'$"):
        with term_budget("2"):
            pass


def test_product_expands_each_node_once(monkeypatch):
    expanded = []
    kernel = T._paths

    def recording(w, k, m, low):
        expanded.append(w)
        return kernel(w, k, m, low)

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
    # Each guard is fed a wrong kernel or helper and must still raise with -O.
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
twice = lambda w, k, m, low: [((2, 1), (1,), 1, 1)] * 2
print(outcome(T.truncate_last_descent, (1, 3, 2), _paths=twice))
# Truncating from w instead of w-hat leaves endpoints with a descent at
# or past the node's, which the endpoint scan of _paths must catch.
unshifted = lambda w, k, m: list(w)
print(outcome(T.schubert_times_schur, (4, 2, 1, 5, 3), (2, 1), 5, _start_word=unshifted))
print(outcome(T.lr_chains, (4, 2, 1, 5, 3), (2, 1), 5, _start_word=unshifted))
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
    assert [line.split(":")[0] for line in lines] == ["RuntimeError"] * 6, proc.stdout
    assert "duplicate truncation endpoint" in lines[3], proc.stdout
    assert all("keeps a descent" in line for line in lines[4:]), proc.stdout
