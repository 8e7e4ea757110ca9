from collections import Counter
from itertools import permutations, product

import pytest

from schubcalc import (
    canonical,
    compatible_sequences,
    iter_reduced_words,
    length,
    reduced_words,
    sequence_weight,
    shift,
    weak_descent_composition,
)
from schubcalc.poly import flatten
from oracles import (
    brute_compatible,
    brute_reduced_words,
    inversions,
    strip,
    strong_descent,
    weak_descent,
    word_perm,
)

S4 = [canonical(p) for p in permutations(range(1, 5))]
S5 = [canonical(p) for p in permutations(range(1, 6))]


def all_words(most, letters=4):
    # Every word of length at most `most` over 1..letters, reduced or not:
    # unlike reduced words, these repeat letters, so they tell < from <=.
    for n in range(most + 1):
        yield from product(range(1, letters + 1), repeat=n)

# the eleven reduced words of 42153, frozen from brute-force enumeration
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


def test_reduced_word_walk_rejects_non_permutations():
    # The walk trusts its input; the public entries validate it once.
    with pytest.raises(ValueError):
        reduced_words((1, 1))
    with pytest.raises(ValueError):
        next(iter_reduced_words((2, 2)))


def test_reduced_words_identity_and_321():
    assert reduced_words(()) == ((),)
    assert set(reduced_words((3, 2, 1))) == {(1, 2, 1), (2, 1, 2)}
    assert set(reduced_words((3, 2, 1))) == brute_reduced_words((3, 2, 1))


def test_reduced_words_42153():
    words = reduced_words((4, 2, 1, 5, 3))
    assert len(words) == 11
    assert set(words) == R42153
    assert set(words) == brute_reduced_words((4, 2, 1, 5, 3))


def test_reduced_words_match_brute_force_on_s4():
    for w in S4:
        assert set(reduced_words(w)) == brute_reduced_words(w)


def test_reduced_words_sorted_and_reduced():
    for w in S5:
        words = reduced_words(w)
        assert list(words) == sorted(words)
        assert all(
            len(rho) == inversions(w) and word_perm(rho, 5) == w for rho in words
        )


def test_iter_reduced_words_streams_the_same_set():
    for w in S4 + [(4, 2, 1, 5, 3)]:
        streamed = list(iter_reduced_words(w))
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == set(reduced_words(w))


def recursive_reduced_words(u, buf=()):
    """iter_reduced_words by plain recursion: letters of each step ascending."""
    if not u:
        yield tuple(reversed(buf))
        return
    for i in range(1, len(u)):
        a, b = u.index(i), u.index(i + 1)
        if a > b:
            v = list(u)
            v[a], v[b] = i + 1, i
            while v and v[-1] == len(v):
                v.pop()
            yield from recursive_reduced_words(tuple(v), buf + (i,))


def recursive_compatible(word):
    """compatible_sequences by plain recursion over positions, smallest entry first."""
    rev = tuple(reversed(word))
    out = []

    def place(seq):
        j = len(seq)
        if j == len(rev):
            out.append(seq)
            return
        lo = 1 if j == 0 else seq[-1] + (rev[j - 1] < rev[j])
        for v in range(lo, rev[j] + 1):
            place(seq + (v,))

    place(())
    return tuple(out)


def test_walks_keep_the_order_of_the_recursion_on_s5():
    for w in S5:
        words = list(iter_reduced_words(w))
        assert words == list(recursive_reduced_words(w)), w
        for rho in words:
            assert compatible_sequences(rho) == recursive_compatible(rho), rho


def test_word_count_is_shift_invariant_on_s4():
    for w in S4:
        n = len(reduced_words(w))
        for m in (1, 2, 3):
            shifted = reduced_words(shift(w, m))
            assert len(shifted) == n
            assert set(shifted) == {
                tuple(x + m for x in rho) for rho in reduced_words(w)
            }


def test_weak_descent_composition_examples():
    assert weak_descent_composition((4, 2, 1, 2, 3)) == (3, 1, 0, 1)
    assert weak_descent_composition((2, 4, 1, 2, 3)) == (3, 2)
    assert weak_descent_composition(()) == ()
    assert (
        weak_descent_composition((6, 7, 4, 5, 6, 8, 4, 2, 5, 3, 4, 7))
        == (3, 2, 1, 4, 0, 2)
    )
    assert weak_descent_composition((5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6)) is None


def test_weak_descent_composition_matches_its_definition_on_every_word():
    words = list(all_words(7))
    assert len(words) == 21845
    for word in words:
        comp = weak_descent_composition(word)
        assert comp == weak_descent(word), word


def test_flat_of_weak_equals_strong_on_s5():
    for w in S5:
        for rho in reduced_words(w):
            des = weak_descent_composition(rho)
            if des is None:
                continue
            assert flatten(des) == strong_descent(rho)


def test_weak_descent_composition_of_shifted_word_on_s4():
    for w in S4:
        for rho in reduced_words(w):
            des = weak_descent_composition(rho)
            if des is None:
                continue
            for m in (1, 2, 3):
                lifted = tuple(x + m for x in rho)
                # compositions are compared with trailing zeros stripped, which
                # only matters for the identity's empty word
                assert weak_descent_composition(lifted) == strip((0,) * m + des)


def test_compatible_sequences_examples():
    assert compatible_sequences((4, 2, 1, 2, 3)) == ((1, 1, 1, 2, 3), (1, 1, 1, 2, 4))
    assert compatible_sequences((2, 4, 1, 2, 3)) == ((1, 1, 1, 2, 2),)
    assert compatible_sequences((1, 4, 2, 3, 1)) == ()
    assert compatible_sequences(()) == ((),)
    # of the eleven words of 42153, only the two above have any sequences
    assert sum(bool(compatible_sequences(rho)) for rho in R42153) == 2


def test_compatible_sequences_match_brute_force():
    for w in S4:
        for rho in reduced_words(w):
            assert set(compatible_sequences(rho)) == brute_compatible(rho)


def test_compatible_sequences_match_brute_force_on_every_word():
    words = list(all_words(5))
    assert len(words) == 1365
    for word in words:
        want = sorted(brute_compatible(word))
        assert compatible_sequences(word) == tuple(want), word


def test_virtual_iff_no_compatible_sequence_on_s5():
    for w in S5:
        for rho in reduced_words(w):
            has_seq = bool(compatible_sequences(rho))
            assert has_seq == (weak_descent_composition(rho) is not None)


def greedy(word):
    """The entrywise-largest compatible sequence of word, or None if it has none."""
    seqs = compatible_sequences(word)
    return tuple(map(max, zip(*seqs))) if seqs else None


def test_greedy_compatible():
    assert greedy((4, 2, 1, 2, 3)) == (1, 1, 1, 2, 4)
    assert greedy(()) == ()
    assert greedy((1, 4, 2, 3, 1)) is None


def test_greedy_weight_is_weak_descent_composition_on_s5():
    for w in S5:
        for rho in reduced_words(w):
            des = weak_descent_composition(rho)
            if des is None:
                assert greedy(rho) is None
                continue
            best = greedy(rho)
            seqs = compatible_sequences(rho)
            assert best in seqs
            assert all(
                all(x >= y for x, y in zip(best, s)) for s in seqs
            )
            assert sequence_weight(best) == des


def test_sequence_weight():
    assert sequence_weight(()) == ()
    assert sequence_weight((1, 1, 1, 2, 4)) == (3, 1, 0, 1)
    assert sequence_weight((2, 2, 3)) == (0, 2, 1)


def test_sequence_weight_rejects_entries_that_are_not_positive_ints():
    # A 0 once landed in the last slot through comp[-1]; (0,) and (-1,)
    # raised IndexError.
    for seq in ((0, 2), (2, 0, 0), (0,), (-1,), (1.0,), (1, "a")):
        with pytest.raises(ValueError, match="sequence entries must be positive ints"):
            sequence_weight(seq)
    assert sequence_weight((True, 2)) == (1, 1)


def test_virtual_word_for_41758236():
    # a 12-letter reduced word whose greedy slots fall off the left edge
    rho = (5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6)
    w = word_perm(rho, 8)
    assert w == (4, 1, 7, 5, 8, 2, 3, 6)
    assert inversions(w) == len(rho)
    assert weak_descent_composition(rho) is None


def test_descent_composition_counts_42153():
    des_multiset = Counter(strong_descent(rho) for rho in R42153)
    assert des_multiset == Counter(
        {
            (3, 1, 1): 1,
            (2, 2, 1): 2,
            (1, 3, 1): 2,
            (3, 2): 1,
            (1, 2, 2): 2,
            (1, 1, 3): 1,
            (2, 1, 2): 1,
            (2, 3): 1,
        }
    )
