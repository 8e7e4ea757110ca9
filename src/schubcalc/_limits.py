"""Cache sizing and cooperative term budgets.

Enumerations over reduced words, slide monomials and transition trees can
explode combinatorially.  A term budget, installed as a context, makes
them fail fast instead of grinding: producers call charge() as they emit
items and the first item past the limit raises TermBudgetExceeded.  It is
the only limit on work; without a budget an enumeration runs to the end.

Their results are kept in memos, each bounded by the items its values
hold (monomials for a polynomial, words for a word list), MEMO_BOUND
items per memo.  A memo stores a new entry at its cold end and moves an
entry to its hot end when it is read (the LRU insertion policy of
Qureshi et al., ISCA 2007): an entry that is stored and never read
again, such as the result of a one-off construction, is evicted before
the entries that lookups read.
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
    reader: it calls find() and, on a miss, put().  put() counts a miss,
    evicts from the cold end until the new entry fits, and stores the new
    entry at the cold end.  find() counts a hit and moves the entry to
    the hot end.  So an entry that was never read is evicted first,
    newest first, and one that was read ages in least-recently-read
    order.  An entry larger than the bound is still stored, alone.
    """

    def __init__(self, size):
        super().__init__()
        self.size = size
        self.bound = MEMO_BOUND
        self.held = self.hits = self.misses = 0

    def find(self, key):
        """The value stored under key, or None; a hit moves it to the hot end."""
        value = self.get(key)
        if value is not None:
            self.hits += 1
            self.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self.misses += 1
        n = self.size(value)
        while self and self.held + n > self.bound:
            self.held -= self.size(self.popitem(last=False)[1])
        self[key] = value
        self.move_to_end(key, last=False)
        self.held += n

    def cache_info(self) -> SimpleNamespace:
        """hits, misses, maxsize and currsize, as functools caches report; sizes count items."""
        return SimpleNamespace(
            hits=self.hits, misses=self.misses, maxsize=self.bound, currsize=self.held
        )

    def cache_clear(self) -> None:
        self.clear()
        self.held = self.hits = self.misses = 0
