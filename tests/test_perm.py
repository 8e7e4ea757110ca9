from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from schubcalc import (
    Polynomial,
    apply_transposition,
    canonical,
    code,
    cross,
    cross_identity_check,
    descent_set,
    format_perm,
    from_code,
    grassmannian,
    inverse,
    is_covering,
    last_descent,
    length,
    lr_chains,
    monk_multiply,
    parse_perm,
    reduced_words,
    schubert,
    schubert_expand,
    schubert_times_schur,
    shift,
    schur,
    stanley,
    substitute_zero,
    term_budget,
    to_partition,
)
from schubcalc.perm import _grassmannian
from schubcalc.transition import truncated_schubert
from schubcalc.verify import SUITES
from oracles import grassmannian as oracle_grassmannian
from oracles import inversions, partitions

S5 = [canonical(p) for p in permutations(range(1, 6))]


def test_canonical_strips_trailing_fixed_points():
    assert canonical([2, 1, 3, 4]) == (2, 1)
    assert canonical([1, 2, 3]) == ()
    assert canonical([4, 2, 1, 5, 3]) == (4, 2, 1, 5, 3)


def test_canonical_rejects_non_permutations():
    with pytest.raises(ValueError):
        canonical([1, 1])
    with pytest.raises(ValueError):
        canonical([0, 1])
    with pytest.raises(ValueError):
        canonical([2, 4, 3])


@pytest.mark.parametrize(
    "w",
    [
        (2.0, 1.0), (2, 1.0), (1.0,), (3, 1, 2.0), (2, Fraction(1)), (Decimal(2), 1),
        (2, True), (True,), (3, True, 2),
    ],
)
def test_canonical_rejects_entries_that_are_not_ints(w):
    # Each entry equals an int, so the sort alone would let it through;
    # bools also sum to an int.
    with pytest.raises(ValueError, match=rf"^not a permutation of 1\.\.{len(w)}: "):
        canonical(w)
    with pytest.raises(ValueError, match=r"^not a permutation"):
        format_perm(w)


def test_length_examples():
    assert length(()) == 0
    assert length((4, 2, 1, 5, 3)) == 5
    assert length((5, 1, 7, 3, 8, 2, 4, 6)) == 12


def test_length_matches_inversion_count_on_s5():
    for w in S5:
        assert length(w) == inversions(w)


def test_descent_set_examples():
    assert descent_set(()) == set()
    assert descent_set((4, 2, 1, 5, 3)) == {1, 2, 4}
    assert descent_set(grassmannian((5, 4, 4, 1), 6)) == {6}
    assert last_descent(()) is None
    assert last_descent((4, 2, 1, 5, 3)) == 4


def test_code_examples():
    assert code(()) == ()
    assert code((4, 2, 1, 5, 3)) == (3, 1, 0, 1)
    assert from_code((3, 1, 0, 1)) == (4, 2, 1, 5, 3)
    assert from_code(()) == ()


def test_code_round_trip_on_s5():
    for w in S5:
        c = code(w)
        assert from_code(c) == w
        assert sum(c) == length(w)
    # codes are insensitive to trailing zeros, like the permutations they name
    assert from_code((3, 1, 0, 1, 0, 0)) == (4, 2, 1, 5, 3)


def test_apply_transposition_examples():
    assert apply_transposition((2, 1, 3), (1, 3)) == (3, 1, 2)
    assert apply_transposition((), (1, 2)) == (2, 1)
    assert apply_transposition((4, 2, 1, 5, 3), (4, 5)) == (4, 2, 1, 3)  # 42135
    with pytest.raises(ValueError):
        apply_transposition((2, 1), (3, 3))


@pytest.mark.parametrize("t", [(1.0, 2.0), (1, 3.0), (True, 2), (1, Fraction(2))])
def test_transposition_positions_must_be_ints(t):
    with pytest.raises(ValueError, match=r"^transposition needs 1 <= a < b, got "):
        apply_transposition((2, 1), t)
    with pytest.raises(ValueError, match=r"^transposition needs 1 <= a < b, got "):
        is_covering((2, 1), t)


def test_transposition_changes_length_by_odd_amount():
    for w in S5:
        for a, b in combinations(range(1, 7), 2):
            assert (length(apply_transposition(w, (a, b))) - length(w)) % 2 == 1


def test_covering_predicate_matches_length_on_s5():
    for w in S5:
        for a, b in combinations(range(1, 7), 2):
            grows = length(apply_transposition(w, (a, b))) == length(w) + 1
            assert is_covering(w, (a, b)) == grows


def test_inverse():
    assert inverse(()) == ()
    for w in S5:
        inv = inverse(w)
        assert all(w[inv[i] - 1] == i + 1 for i in range(len(w)))
        assert inverse(inv) == w
        assert length(inv) == length(w)


def test_shift_examples():
    assert shift((4, 2, 1, 5, 3), 1) == (1, 5, 3, 2, 6, 4)
    assert shift((2, 1), 0) == (2, 1)
    assert shift((2, 1), 2) == (1, 2, 4, 3)
    assert length(shift((4, 2, 1, 5, 3), 3)) == 5
    assert shift((), 2) == ()
    assert shift([1, 2, 3], 1) == ()


def test_permutation_results_are_canonical():
    # pad is left out: appending fixed points is its job.
    results = [shift((), 2), cross((), (), 3), grassmannian((), 3)]
    for w in S5:
        padded = w + tuple(range(len(w) + 1, 7))
        results += [
            canonical(padded),
            inverse(padded),
            from_code(code(padded) + (0, 0)),
            parse_perm(",".join(map(str, padded))),
            apply_transposition(padded, (1, 6)),
            apply_transposition(padded, (4, 5)),
        ]
        for m in range(3):
            results += [shift(padded, m), cross(padded, padded, len(w) + m)]
    for lam in ((), (1,), (2, 1), (3, 3)):
        results += [grassmannian(lam, k) for k in range(len(lam), 4)]
    for w in results:
        assert canonical(w) == w


def test_cross_examples():
    assert cross((4, 2, 1, 5, 3), (2, 4, 1, 3), 5) == (4, 2, 1, 5, 3, 7, 9, 6, 8)
    assert cross((), (2, 1), 3) == shift((2, 1), 3)
    assert cross((2, 1), (2, 1), 2) == (2, 1, 4, 3)
    with pytest.raises(ValueError):
        cross((2, 1, 4, 3), (2, 1), 2)


def test_cross_rejects_a_negative_m():
    # The width is checked before u, which moves nothing here.
    with pytest.raises(ValueError, match=r"^m must be nonnegative, got -1$"):
        cross((), (2, 1), -1)
    with pytest.raises(ValueError, match=r"^m must be nonnegative, got -2$"):
        cross((2, 1), (), -2)
    assert cross((), (2, 1), 0) == (2, 1)


def budgeted(x):
    with term_budget(x):
        return reduced_words((2, 1))


# Each public call that takes a count (k, m, n, nmax, degree, ambient or
# a term budget), as a function of it.
COUNTED = {
    "stanley": lambda x: stanley((2, 1), x),
    "schur": lambda x: schur((2, 1), x),
    "grassmannian": lambda x: grassmannian((1,), x),
    "to_partition": lambda x: to_partition((2, 1), x),
    "monk_multiply": lambda x: monk_multiply((2, 1), x),
    "schubert_times_schur": lambda x: schubert_times_schur((2, 1), (1,), x),
    "lr_chains": lambda x: lr_chains((2, 1), (1,), x),
    "shift": lambda x: shift((2, 1), x),
    "cross": lambda x: cross((), (2, 1), x),
    "truncated_schubert": lambda x: truncated_schubert((2, 1), x),
    "substitute_zero": lambda x: substitute_zero(schubert((2, 1)), x),
    "schubert_expand_degree": lambda x: schubert_expand(schubert((2, 1)), degree=x),
    "schubert_expand_ambient": lambda x: schubert_expand(Polynomial({(): 1}), ambient=x),
    "cross_identity_check_k": lambda x: cross_identity_check((), (2, 1), x, 2),
    "cross_identity_check_n": lambda x: cross_identity_check((), (2, 1), 1, x),
    "term_budget": budgeted,
} | {f"verify_{name}": suite for name, suite in SUITES.items()}


@pytest.mark.parametrize("call", COUNTED.values(), ids=COUNTED)
def test_a_count_must_be_an_int(call):
    for x in (2.0, 1.5):
        with pytest.raises(ValueError, match=rf" must be an int, got {x}$"):
            call(x)
    # A bool is an int: True counts as 1.
    assert call(True) == call(1)


def test_cross_identity_check_names_the_count_it_rejects():
    # Each count is named as the caller passed it; n reaches cross as m.
    for name in ("k", "n"):
        with pytest.raises(ValueError, match=rf"^{name} must be an int, got 2.0$"):
            COUNTED[f"cross_identity_check_{name}"](2.0)


def test_cross_length_and_descents_on_s3_pairs():
    s3 = [canonical(p) for p in permutations(range(1, 4))]
    for u in s3:
        for v in s3:
            for m in range(len(u), 5):
                w = cross(u, v, m)
                assert length(w) == length(u) + length(v)
                want = descent_set(u) | {d + m for d in descent_set(v)}
                assert descent_set(w) == want


def test_grassmannian_examples():
    assert grassmannian((5, 4, 4, 1), 6) == (1, 2, 4, 8, 9, 11, 3, 5, 6, 7, 10)
    assert grassmannian((), 3) == ()
    assert grassmannian((2, 1), 2) == (2, 4, 1, 3)
    with pytest.raises(ValueError):
        grassmannian((2, 1, 1), 2)
    with pytest.raises(ValueError):
        grassmannian((1, 2), 2)
    for lam in ((), (1,)):
        with pytest.raises(ValueError, match="^k must be nonnegative$"):
            grassmannian(lam, -1)


def test_grassmannian_matches_the_oracle():
    cases = 0
    for weight in range(12):
        for lam in partitions(weight):
            for k in range(len(lam), 9):
                want = oracle_grassmannian(lam, k)
                assert _grassmannian(lam, k) == grassmannian(lam, k) == want, (lam, k)
                cases += 1
    assert cases == 947


def test_grassmannian_and_schur_messages():
    for call in (grassmannian, schur):
        with pytest.raises(ValueError, match=r"^k must be nonnegative$"):
            call((2, 1), -1)
        with pytest.raises(ValueError, match=r"^not a partition: \(1, 2\)$"):
            call((1, 2), 3)
    # More parts than k: no permutation, but the zero polynomial.
    with pytest.raises(ValueError, match=r"^partition \(2, 1, 1\) has more parts than k=2$"):
        grassmannian((2, 1, 1), 2)
    assert str(schur((2, 1, 1), 2)) == "0"


def test_grassmannian_length_and_round_trip():
    for weight in range(0, 7):
        for lam in partitions(weight):
            for k in range(max(len(lam), 1), 5):
                v = grassmannian(lam, k)
                assert length(v) == sum(lam)
                d = descent_set(v)
                assert d == ({k} if lam else set())
                assert to_partition(v, k) == lam


def test_to_partition_examples():
    assert to_partition((1, 2, 4, 8, 9, 11, 3, 5, 6, 7, 10), 6) == (5, 4, 4, 1)
    assert to_partition((), 3) == ()
    assert to_partition((2, 4, 1, 3), 2) == (2, 1)
    with pytest.raises(ValueError):
        to_partition((3, 2, 1), 1)  # two descents
    with pytest.raises(ValueError):
        to_partition((2, 4, 1, 3), 3)  # descent at 2, not 3


def test_parse_and_format():
    assert parse_perm("42153") == (4, 2, 1, 5, 3)
    assert parse_perm("1,2,4,8,9,11,3,5,6,7,10") == (1, 2, 4, 8, 9, 11, 3, 5, 6, 7, 10)
    assert parse_perm("1") == ()
    assert format_perm(()) == "1"
    assert format_perm((4, 2, 1, 5, 3)) == "42153"
    assert format_perm((1, 2, 4, 8, 9, 11, 3, 5, 6, 7, 10)) == "1,2,4,8,9,11,3,5,6,7,10"
    for text in ("", "4a1", "1,x"):
        with pytest.raises(ValueError):
            parse_perm(text)
    for w in S5:
        assert parse_perm(format_perm(w)) == w
