"""The five memos: invisible in results, budgeted alike cold and warm,
and bounded by the items they hold."""

import importlib
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schubcalc.poly as poly
import schubcalc.transition as T
import schubcalc.words as words
from schubcalc import (
    Polynomial,
    TermBudgetExceeded,
    canonical,
    code,
    compatible_sequences,
    fundamental_quasisym,
    grassmannian,
    iter_reduced_words,
    reduced_words,
    schubert,
    schubert_expand,
    schubert_via_compatible,
    schur,
    shift,
    slide_expand,
    slide_polynomial,
    stanley,
    term_budget,
)
from schubcalc._limits import MEMO_BOUND, Memo, charge, remaining
from schubcalc.perm import _last_descent
from schubcalc.transition import _schubert, _stanley
from schubcalc.verify import all_partitions
from oracles import dd_schubert

# schubcalc.schubert as an attribute is the function, not the module.
_pivots = importlib.import_module("schubcalc.schubert")._pivots

# The transition memos, read by _node.
MEMOS = (_schubert, _stanley)

SAMPLE = [
    ("schubert", (1, 5, 3, 2, 6, 4)),
    ("schubert", (4, 2, 1, 5, 3)),
    ("schubert", (3, 7, 1, 6, 2, 5, 4)),
    ("schubert", (2, 6, 8, 1, 5, 3, 7, 4)),
    ("stanley", (4, 2, 1, 5, 3), 3),
    ("stanley", (3, 1, 6, 5, 2, 4), 4),
    ("stanley", (2, 5, 7, 1, 4, 3, 6), 2),
]


def build(item):
    return schubert(item[1]) if item[0] == "schubert" else stanley(item[1], item[2])


def clear():
    for memo in MEMOS:
        memo.cache_clear()


def test_cold_build_of_the_longest_element_of_s60():
    # 1770 transition levels, none of them in the memo: depth is not
    # bounded by Python's recursion limit.
    w0 = tuple(range(60, 0, -1))
    clear()
    assert schubert(w0) == Polynomial({code(w0): 1})
    assert _schubert.cache_info().misses == len(w0) * (len(w0) - 1) // 2


def recursive_node(w, k):
    """_node's transition steps driven by plain recursion instead of a stack."""
    if not w:
        return T._ONE
    r = _last_descent(w)
    memo, key = (_schubert, w) if r <= k else (_stanley, (w, k))
    p = memo.find(key)
    if p is not None:
        return p
    charge()
    step = T._transition(w, k, r, memo, key)
    p = None
    try:
        while True:
            p = recursive_node(step.send(p), k)
    except StopIteration as done:
        return done.value


def memo_traffic(call, items):
    """call(*item) for each item from cold memos, and the traffic it made."""
    clear()
    out = [call(*item) for item in items]
    return out, [(m.hits, m.misses, list(m.items())) for m in MEMOS]


def test_stored_children_never_change():
    # Each transition sum starts from a copy of its first q-child, which
    # is a stored polynomial or _ONE; a sum built in that child's own dict
    # would change the child under its memo key.  Stanley nodes (last
    # descent beyond k) have no x_r term, so their sum is that copy plus
    # the later q-children.
    clear()
    for w in permutations(range(1, 7)):
        schubert(w)
    for w in permutations(range(1, 5)):
        for k in range(6):
            stanley(w, k)
    assert len(_stanley) > 100
    for w, (p, _) in _schubert.items():
        assert p.terms == dd_schubert(w), w
    for (w, k), (p, _) in _stanley.items():
        assert p.terms == {e: c for e, c in dd_schubert(w).items() if len(e) <= k}, (w, k)
    assert T._ONE._keys == {0: 1}


def test_the_stack_keeps_the_memo_traffic_of_the_recursion(monkeypatch):
    # Small bounds make evictions, so hits depend on the order of lookups.
    for memo in MEMOS:
        monkeypatch.setattr(memo, "bound", 300)
    perms = [canonical(w) for w in permutations(range(1, 7))]
    items = [(w, k) for w in perms for k in (2, 6)]
    # Each public entry validates and makes one _node call, on these
    # arguments, so it makes the recursion's traffic too.
    entries = [
        (T._node, items, lambda w, k: (w, k)),
        (T.truncated_schubert, items, lambda w, k: (w, k)),
        (schubert, [(w,) for w in perms], lambda w: (w, len(w))),
        (
            stanley,
            [(w, k) for w in perms[:120] for k in (0, 1, 3)],
            lambda w, k: (shift(w, k), k),
        ),
        (
            schur,
            [(lam, k) for lam in all_partitions(5) for k in range(len(lam), 5)],
            lambda lam, k: (grassmannian(lam, k), k),
        ),
    ]
    for entry, args, node_args in entries:
        recursion = memo_traffic(lambda *item: recursive_node(*node_args(*item)), args)
        assert memo_traffic(entry, args) == recursion, entry.__name__


# The eviction policy on bare memos, whose values are strings of their size.


def bare(bound, *keys):
    """A Memo(len) of the given bound, with each key put unread, in order."""
    memo = Memo(len)
    memo.bound = bound
    for key in keys:
        memo.put(key, key)
    return memo


def test_the_newest_unread_entry_is_evicted_first():
    memo = bare(3, "a", "b", "c")
    # Iteration runs from the cold end: new entries are stored there.
    assert list(memo) == ["c", "b", "a"]
    memo.put("d", "d")
    assert list(memo) == ["d", "b", "a"]


def test_an_entry_read_once_outlives_a_flood_of_puts():
    memo = bare(3, "a", "b")
    assert memo.find("a") == "a"
    for i in range(100):
        memo.put(i, "x")
    # Each new put evicts the one before it: unread entries go newest first.
    assert list(memo) == [99, "b", "a"] and memo.held == 3


def test_a_hit_sets_a_bit_and_moves_nothing():
    memo = bare(3, "a", "b", "c")
    assert memo.find("c") == "c"
    # The read entry stays where it was, at the cold end, with its bit set.
    assert list(memo) == ["c", "b", "a"]
    assert [bit for _, bit in memo.values()] == [True, False, False]
    memo.put("d", "d")
    # Eviction reached c first: it lost its bit and went to the hot end,
    # and the next entry, b, unread, was dropped.
    assert list(memo) == ["d", "a", "c"]
    assert [bit for _, bit in memo.values()] == [False, False, False]
    assert (memo.hits, memo.misses, memo.held) == (1, 4, 3)
    memo.put("e", "e")
    assert list(memo) == ["e", "a", "c"]


def test_an_entry_larger_than_the_bound_is_kept_alone():
    memo = bare(3, "a", "b")
    memo.find("a")
    # Entries are stored at the cold end; a read does not move them.
    assert list(memo) == ["b", "a"]
    memo.put("big", "xxxxx")
    assert list(memo) == ["big"] and memo.held == 5
    memo.put("c", "c")
    assert list(memo) == ["c"] and memo.held == 1


# Sizes by key for the list model; key 6 is larger than the bound of 5.
SIZES = {key: 1 + key % 3 for key in range(6)} | {6: 7}


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=60))
@settings(max_examples=200, deadline=None)
def test_the_memo_matches_a_list_model(keys):
    memo = Memo(len)
    memo.bound = 5
    model = []  # [key, size, reference bit] entries, cold end first
    hits = misses = 0
    for key in keys:
        size = SIZES[key]
        if memo.find(key) is None:
            memo.put(key, "x" * size)
        found = [entry for entry in model if entry[0] == key]
        if found:
            hits += 1
            found[0][2] = True
        else:
            misses += 1
            while model and sum(s for _, s, _ in model) + size > 5:
                entry = model.pop(0)
                if entry[2]:
                    entry[2] = False
                    model.append(entry)
            model.insert(0, [key, size, False])
        assert [[k, len(value), bit] for k, (value, bit) in memo.items()] == model
        assert memo.held == sum(s for _, s, _ in model)
        assert (memo.hits, memo.misses) == (hits, misses)
    assert memo.find(-1) is None and memo.hits == hits


def test_a_cold_scan_of_s6_misses_a_pinned_count(monkeypatch):
    # With FIFO eviction this scan makes 1 551 hits and 1 200 misses: in
    # lexicographic order the next permutation reuses the nodes just built,
    # and a node handed to its parent is stored unread, at the cold end.
    # The construct benchmark draws distinct inputs instead, where the
    # policy cuts the misses by 44 %.  Moving each hit to the hot end
    # (LRU insertion) made 1 903 hits and 1 920 misses.
    monkeypatch.setattr(_schubert, "bound", 300)
    clear()
    for w in permutations(range(1, 7)):
        schubert(w)
    assert (_schubert.hits, _schubert.misses) == (1906, 1916)


def items(memo):
    """The items each entry of a memo holds, as the memo itself sizes them."""
    return [memo.size(value) for value, _ in memo.values()]


def expand_product(u, v):
    return schubert_expand(schubert(u) * schubert(v))


def slides_of(w):
    return slide_expand(schubert(w))


# Each memo with calls that read it: a sample, and a flood that overfills
# a bound of FLOOD_BOUND items.
FLOOD_BOUND = 300
MEMO_CALLS = [
    (
        _schubert,
        [(schubert, (item[1],)) for item in SAMPLE if item[0] == "schubert"],
        [(schubert, (w,)) for w in permutations(range(1, 7))],
    ),
    (
        _stanley,
        [(stanley, item[1:]) for item in SAMPLE if item[0] == "stanley"],
        [(stanley, (w, 4)) for w in permutations(range(1, 6))],
    ),
    (
        poly._placements,
        [
            (slide_polynomial, ((0, 3, 1, 0, 1),)),
            (slide_polynomial, ((1, 0, 2, 0, 0, 1),)),
            (fundamental_quasisym, ((3, 1, 1), 4)),
        ],
        [(slide_polynomial, (a,)) for a in product(range(4), repeat=4)],
    ),
    (
        _pivots,
        [
            (expand_product, ((4, 2, 1, 5, 3), (2, 1, 4, 3))),
            (expand_product, ((1, 3, 2), (1, 3, 2))),
            (expand_product, ((3, 1, 2), (2, 3, 1))),
        ],
        [(expand_product, uv) for uv in product(permutations(range(1, 5)), repeat=2)],
    ),
    (
        poly._slide_pivots,
        [
            (slides_of, ((1, 5, 3, 2, 6, 4),)),
            (slides_of, ((4, 2, 1, 5, 3),)),
            (slide_expand, (Polynomial({(1, 1): 1, (2,): -1}),)),
        ],
        [(slides_of, (w,)) for w in permutations(range(1, 6))],
    ),
]


def test_results_do_not_depend_on_the_memo(monkeypatch):
    for memo, sample, flood in MEMO_CALLS:
        assert memo.bound == MEMO_BOUND
        assert sorted(vars(memo.cache_info())) == ["currsize", "hits", "maxsize", "misses"]
        memo.cache_clear()
        cold = [repr(fn(*args)) for fn, args in sample]
        assert [repr(fn(*args)) for fn, args in sample] == cold

        monkeypatch.setattr(memo, "bound", FLOOD_BOUND)
        largest = max(items(memo))
        stored = []
        put = memo.put

        def checked_put(key, value, memo=memo, put=put):
            nonlocal largest
            put(key, value)
            stored.append(key)
            largest = max(largest, memo.size(value))
            assert memo.held == sum(items(memo))
            assert memo.held <= memo.bound + largest

        monkeypatch.setattr(memo, "put", checked_put)
        for fn, args in flood:
            fn(*args)
        assert any(key not in memo for key in stored), "nothing was evicted"
        assert memo.cache_info().currsize == memo.held
        assert [repr(fn(*args)) for fn, args in sample] == cold


def test_cache_info_counts_hits_and_misses():
    clear()
    schubert((4, 2, 1, 5, 3))
    info = _schubert.cache_info()
    assert info.misses > 0 and info.currsize == _schubert.held
    schubert((4, 2, 1, 5, 3))
    assert _schubert.cache_info().hits == info.hits + 1
    assert _schubert.cache_info().misses == info.misses
    # A warm call reads one entry of one memo, or one per pivot of an
    # expansion: hits only, no miss.
    memos = [memo for memo, _, _ in MEMO_CALLS]
    p = schubert((4, 2, 1, 5, 3))
    for memo, call, reads in (
        (_stanley, lambda: stanley((4, 2, 1, 5, 3), 2), 1),
        (_schubert, lambda: schur((2, 1), 2), 1),
        (poly._placements, lambda: slide_polynomial((0, 2, 1)), 1),
        (poly._placements, lambda: fundamental_quasisym((2, 1), 3), 1),
        (_pivots, lambda: schubert_expand(p), 1),
        # S_42153 is the slide polynomials of (3, 1, 0, 1) and (3, 2).
        (poly._slide_pivots, lambda: slide_expand(p), 2),
    ):
        call()
        before = [(m.hits, m.misses) for m in memos]
        call()
        after = [(m.hits - reads * (m is memo), m.misses) for m in memos]
        assert after == before


def test_budget_stops_a_cold_construction():
    clear()
    with pytest.raises(TermBudgetExceeded):
        with term_budget(3):
            schubert((5, 8, 2, 7, 1, 6, 4, 3))


def test_schubert_expand_charges_its_cold_pivots_only():
    # A cold expansion charges the transition nodes of its pivots; a warm
    # one reads every pivot from _pivots and charges nothing.
    p = schubert((4, 2, 1, 5, 3)) * schubert((2, 1, 4, 3))
    for memo, _, _ in MEMO_CALLS:
        memo.cache_clear()
    charged = []
    for _ in range(2):
        with term_budget(10**6):
            got = schubert_expand(p)
            charged.append(10**6 - remaining())
        assert len(got) == 5
    assert charged == [17, 0]


def test_slide_expand_charges_alike_cold_and_warm():
    # Every pivot charges the monomials of its slide polynomial: through
    # _placed on a miss, and from the _slide_pivots entry on a hit.
    p = schubert((1, 5, 3, 2, 6, 4))

    def cold():
        poly._slide_pivots.cache_clear()
        poly._placements.cache_clear()

    cold()
    charged = []
    for _ in range(2):
        with term_budget(10**6):
            got = slide_expand(p)
            charged.append(10**6 - remaining())
    need = sum(len(slide_polynomial(a).terms) for a in got)
    assert charged == [need, need]
    for n in range(need + 1):
        cold()
        result = attempt(slide_expand, (p,), n)
        slide_expand(p)
        assert attempt(slide_expand, (p,), n) == result
        assert (result is None) == (n < need)


def nodes(item):
    """Units a cold construction charges: one per computed node."""
    clear()
    before = sum(memo.cache_info().misses for memo in MEMOS)
    build(item)
    return sum(memo.cache_info().misses for memo in MEMOS) - before


@given(st.sampled_from(SAMPLE), st.integers(min_value=0, max_value=400))
@settings(max_examples=60, deadline=None)
def test_budgets_are_monotone(item, n):
    need = nodes(item)
    clear()
    want = list(build(item).terms.items())
    for budget in (n, n + 1):
        clear()
        if budget < need:
            with pytest.raises(TermBudgetExceeded):
                with term_budget(budget):
                    build(item)
        else:
            with term_budget(budget):
                assert list(build(item).terms.items()) == want


# The memo of slide placements.
CACHES = (poly._placements,)

# Producers charged one unit per item: the readers of _placements, and
# the enumerations of reduced words and compatible sequences, which are
# not cached, so their warm call is a second cold one.
CACHED = [
    (slide_polynomial, ((0, 3, 1, 0, 1),)),
    (slide_polynomial, ((1, 0, 2, 0, 0, 1),)),
    (fundamental_quasisym, ((3, 1, 1), 4)),
    (fundamental_quasisym, ((2, 2), 3)),
    (reduced_words, ((4, 2, 1, 5, 3),)),
    (reduced_words, ((3, 2, 1, 5, 4),)),
    (slide_polynomial, ((),)),
    (fundamental_quasisym, ((), 3)),
    (compatible_sequences, ((9, 7, 5, 3, 1),)),
    (compatible_sequences, ((),)),
]


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def test_results_do_not_depend_on_the_caches():
    warm = [fn(*args) for fn, args in CACHED]
    assert [fn(*args) for fn, args in CACHED] == warm
    clear_caches()
    assert [fn(*args) for fn, args in CACHED] == warm


def attempt(fn, args, n):
    try:
        with term_budget(n):
            return fn(*args)
    except TermBudgetExceeded:
        return None


@pytest.mark.parametrize("fn, args", CACHED)
def test_budgets_fail_alike_cold_and_warm(fn, args):
    result = fn(*args)
    size = len(result) if isinstance(result, tuple) else len(result.terms)
    for n in range(size + 2):
        clear_caches()
        cold = attempt(fn, args, n)
        fn(*args)
        assert attempt(fn, args, n) == cold
        assert (cold is None) == (n < size)


def test_a_cold_miss_stops_past_the_budget(monkeypatch):
    # Unbudgeted, these are 12 870 placements, 768 words, 16 796 sequences
    # (Catalan(10)) and, for the first reduced word of 2,1,4,3,...,24,23
    # alone, 208 012 sequences (Catalan(12)).  Under a budget of 5 each
    # charges one unit per item as it emits it and raises at the sixth.
    charged = []

    def recorded(n=1):
        charged.append(n)
        charge(n)

    monkeypatch.setattr(poly, "charge", recorded)
    monkeypatch.setattr(words, "charge", recorded)
    for fn, args in (
        (slide_polynomial, ((0,) * 8 + (8,),)),
        (reduced_words, ((5, 4, 3, 2, 1),)),
        (compatible_sequences, (tuple(range(19, 0, -2)),)),
        (schubert_via_compatible, (sum(((i + 1, i) for i in range(1, 24, 2)), ()),)),
    ):
        clear_caches()
        charged.clear()
        with pytest.raises(TermBudgetExceeded):
            with term_budget(5):
                fn(*args)
        assert charged == [1] * 6, fn


def test_reduced_words_sorts_the_stream_on_s5():
    for w in permutations(range(1, 6)):
        assert reduced_words(w) == tuple(sorted(iter_reduced_words(w))), w

