"""Cache sizing and cooperative term budgets.

Enumerations over reduced words, slide monomials and transition trees can
explode combinatorially.  A term budget, installed as a context, makes
them fail fast instead of grinding: producers call charge() as they emit
items and the first item past the limit raises TermBudgetExceeded.  It is
the only limit on work; without a budget an enumeration runs to the end.

Their results are kept in memos, each bounded by the items its values
hold (monomials for a polynomial, words for a word list), MEMO_BOUND
items per memo.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections import OrderedDict
from types import SimpleNamespace

MEMO_BOUND = 1 << 15


class TermBudgetExceeded(RuntimeError):
    def __init__(self, limit: int):
        super().__init__(f"term budget of {limit} exceeded")
        self.limit = limit


_state: contextvars.ContextVar[list[int] | None] = contextvars.ContextVar(
    "term_budget", default=None
)


def charge(n: int = 1) -> None:
    """Consume n units of the active budget, if any."""
    state = _state.get()
    if state is None:
        return
    state[0] -= n
    if state[0] < 0:
        raise TermBudgetExceeded(state[1])


def remaining() -> int | None:
    """Units left in the active budget, or None when none is active."""
    state = _state.get()
    return None if state is None else state[0]


@contextlib.contextmanager
def term_budget(limit: int | None):
    """Limit the total items charged within the context; None disables."""
    if limit is None:
        yield
        return
    if limit < 0:
        raise ValueError("term budget must be nonnegative")
    token = _state.set([limit, limit])
    try:
        yield
    finally:
        _state.reset(token)


class Memo(OrderedDict):
    """Values by key, bounded by the items they hold.

    size(value) is the number of items a value holds.  Each memo has one
    reader: it calls get() and counts a hit itself.  put() counts a miss
    and evicts entries in the order they were stored (a hit does not
    refresh one) until the new one fits.  An entry larger than the bound
    is still stored, alone.
    """

    def __init__(self, size):
        super().__init__()
        self.size = size
        self.bound = MEMO_BOUND
        self.held = self.hits = self.misses = 0

    def put(self, key, value) -> None:
        self.misses += 1
        n = self.size(value)
        while self and self.held + n > self.bound:
            self.held -= self.size(self.popitem(last=False)[1])
        self[key] = value
        self.held += n

    def cache_info(self) -> SimpleNamespace:
        """hits, misses, maxsize and currsize, as functools caches report; sizes count items."""
        return SimpleNamespace(
            hits=self.hits, misses=self.misses, maxsize=self.bound, currsize=self.held
        )

    def cache_clear(self) -> None:
        self.clear()
        self.held = self.hits = self.misses = 0
