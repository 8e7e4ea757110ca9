"""The transition memos: bounded by monomials, invisible in results, budgeted."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubcalc import TermBudgetExceeded, schubert, stanley, term_budget
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
