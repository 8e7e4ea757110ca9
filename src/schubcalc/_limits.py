"""Cache sizing and cooperative term budgets.

Enumerations over reduced words, compatible sequences, slide monomials
and transition trees can explode combinatorially.  A term budget,
installed as a context, makes them fail fast instead of grinding: every
producer calls charge() as it emits an item, never looking ahead, and
the first item past the limit raises TermBudgetExceeded.  A result read
from a memo charges its items at once, the same as a cold call.  It is
the only limit on work; without a budget an enumeration runs to the end.

Their results are kept in memos, each bounded by the monomials its
values hold, MEMO_BOUND per memo.  A memo stores a new entry at its
cold end, where it also evicts (the insertion order of the LRU
insertion policy, Qureshi et al., ISCA 2007), and a read only sets the
entry's reference bit: an entry whose bit is set when eviction reaches
it has the bit cleared and goes to the hot end instead (second chance,
as in CLOCK, Corbató 1968).
So an entry that is stored and never read again, such as the result of
a one-off construction, is evicted before the entries that lookups
read, and a hit costs one dict read and a flag store.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections import OrderedDict
from types import SimpleNamespace

from .perm import _check_int

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
    _check_int(limit, "term budget")
    token = _state.set([limit, limit])
    try:
        yield
    finally:
        _state.reset(token)


class Memo(OrderedDict):
    """Values by key, bounded by the items they hold.

    size(value) is the number of items a value holds.  Each key maps to
    an entry [value, bit], where bit records a read since the entry was
    stored or last passed over.  A reader calls find() and, on a miss,
    put().  find() counts a hit and sets the bit; it never reorders.
    put() counts a miss and evicts from the cold end until the new entry
    fits: an entry whose bit is set has it cleared and goes to the hot
    end, any other is dropped.  Then it stores the new entry at the cold
    end.  So an entry that was never read is evicted first, newest
    first, and one that was read outlives the next eviction pass.  An
    entry larger than the bound is still stored, alone.
    """

    def __init__(self, size):
        super().__init__()
        self.size = size
        self.bound = MEMO_BOUND
        self.held = self.hits = self.misses = 0

    def find(self, key):
        """The value stored under key, or None; a hit sets the entry's bit."""
        entry = self.get(key)
        if entry is None:
            return None
        self.hits += 1
        entry[1] = True
        return entry[0]

    def put(self, key, value) -> None:
        self.misses += 1
        n = self.size(value)
        while self and self.held + n > self.bound:
            old, entry = self.popitem(last=False)
            if entry[1]:
                # Read since it was stored or last passed over: a second chance.
                entry[1] = False
                self[old] = entry
            else:
                self.held -= self.size(entry[0])
        self[key] = [value, False]
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
