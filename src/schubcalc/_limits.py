"""Cache sizing and cooperative term budgets.

Enumerations over reduced words, slide monomials and transition trees can
explode combinatorially.  A term budget, installed as a context, makes
them fail fast instead of grinding: producers call charge() as they emit
items and the first item past the limit raises TermBudgetExceeded.
"""

from __future__ import annotations

import contextlib
import contextvars

CACHE_SIZE = 10000


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
