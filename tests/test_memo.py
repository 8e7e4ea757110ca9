"""The transition memos and the entry-bounded caches: invisible in
results, budgeted alike cold and warm; the memos are bounded by monomials."""

from itertools import permutations

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
    fundamental_quasisym,
    iter_reduced_words,
    reduced_words,
    schubert,
    schur,
    slide_polynomial,
    stanley,
    term_budget,
)
from schubcalc._limits import charge
from schubcalc.perm import _last_descent
from schubcalc.transition import MEMO_MONOMIALS, _Memo, _schubert, _stanley

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
    p = memo.get(key)
    if p is not None:
        memo.hits += 1
        return p
    charge()
    step = T._transition(w, k, r, memo, key)
    p = None
    try:
        while True:
            p = recursive_node(step.send(p), k)
    except StopIteration as done:
        return done.value


def memo_traffic(node, items):
    clear()
    out = [node(canonical(w), k) for w, k in items]
    return out, [(m.hits, m.misses, list(m.items())) for m in MEMOS]


def test_the_stack_keeps_the_memo_traffic_of_the_recursion(monkeypatch):
    # Small bounds make evictions, so hits depend on the order of lookups.
    for memo in MEMOS:
        monkeypatch.setattr(memo, "bound", 300)
    items = [(w, k) for w in permutations(range(1, 7)) for k in (2, 6)]
    assert memo_traffic(T._node, items) == memo_traffic(recursive_node, items)


def test_results_do_not_depend_on_the_memo(monkeypatch):
    assert sum(memo.bound for memo in MEMOS) == MEMO_MONOMIALS
    clear()
    cold = [list(build(item).terms.items()) for item in SAMPLE]
    assert [list(build(item).terms.items()) for item in SAMPLE] == cold

    largest = max(len(p.terms) for memo in MEMOS for p in memo.values())
    put = _Memo.put

    def checked_put(self, key, p):
        nonlocal largest
        put(self, key, p)
        largest = max(largest, len(p.terms))
        assert self.held <= self.bound + largest

    monkeypatch.setattr(_Memo, "put", checked_put)
    misses = _schubert.cache_info().misses
    for w in permutations(range(1, 8)):
        schubert(w)
    for w in permutations(range(1, 6)):
        stanley(w, 4)
    assert _schubert.cache_info().misses > misses
    assert (1, 5, 3, 2, 6, 4) not in _schubert, "the sample was not evicted"
    for memo in MEMOS:
        assert memo.held == sum(len(p.terms) for p in memo.values())
        assert memo.held <= memo.bound + largest

    assert [list(build(item).terms.items()) for item in SAMPLE] == cold


def test_cache_info_counts_hits_and_misses():
    clear()
    schubert((4, 2, 1, 5, 3))
    info = _schubert.cache_info()
    assert info.misses > 0 and info.currsize == _schubert.held
    schubert((4, 2, 1, 5, 3))
    assert _schubert.cache_info().hits == info.hits + 1
    assert _schubert.cache_info().misses == info.misses
    # A warm stanley or schur reads one entry of its memo: one hit, no miss.
    for memo, call in (
        (_stanley, lambda: stanley((4, 2, 1, 5, 3), 2)),
        (_schubert, lambda: schur((2, 1), 2)),
    ):
        call()
        before = [(m.hits, m.misses) for m in MEMOS]
        call()
        after = [(m.hits - (m is memo), m.misses) for m in MEMOS]
        assert after == before


def test_budget_stops_a_cold_construction():
    clear()
    with pytest.raises(TermBudgetExceeded):
        with term_budget(3):
            schubert((5, 8, 2, 7, 1, 6, 4, 3))


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


# The entry-bounded caches of slide placements and reduced-word lists.
CACHES = (poly._placements, words._reduced_words)

CACHED = [
    (slide_polynomial, ((0, 3, 1, 0, 1),)),
    (slide_polynomial, ((1, 0, 2, 0, 0, 1),)),
    (fundamental_quasisym, ((3, 1, 1), 4)),
    (fundamental_quasisym, ((2, 2), 3)),
    (reduced_words, ((4, 2, 1, 5, 3),)),
    (reduced_words, ((3, 2, 1, 5, 4),)),
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
    size = len(result) if fn is reduced_words else len(result.terms)
    for n in range(size + 2):
        clear_caches()
        cold = attempt(fn, args, n)
        fn(*args)
        assert attempt(fn, args, n) == cold
        assert (cold is None) == (n < size)


def test_a_cold_miss_stops_past_the_budget(monkeypatch):
    # Uncapped, these are about 49 million placements and 292864 words.
    # Each step of the reduced-word walk strips the word it built once.
    # With the cap at 7, a placement walk that ran past its budget of 5
    # would stop at the cap with ValueError instead.
    calls = {"step": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(poly, "SLIDE_TERM_CAP", 7)
    monkeypatch.setattr(words, "_strip", counted("step", words._strip))
    clear_caches()
    with pytest.raises(TermBudgetExceeded):
        with term_budget(5):
            slide_polynomial((0,) * 30 + (8,))
    with pytest.raises(TermBudgetExceeded):
        with term_budget(5):
            reduced_words((6, 5, 4, 3, 2, 1))
    assert calls["step"] <= 100, calls


def test_reduced_words_sorts_the_stream_on_s5():
    for w in permutations(range(1, 6)):
        assert reduced_words(w) == tuple(sorted(iter_reduced_words(w))), w
