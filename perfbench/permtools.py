"""Stdlib-only permutation and polynomial helpers and CLI renderers.

Inputs are generated and outputs are checked with this code, never with
the library under test, so the program only ever receives generated
inputs and the checks stay independent of it.  Permutations are tuples in
one-line notation with trailing fixed points stripped, as in schubcalc.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import lru_cache
from itertools import zip_longest


def strip(w) -> tuple[int, ...]:
    w = list(w)
    while w and w[-1] == len(w):
        w.pop()
    return tuple(w)


def inversions(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def lehmer_code(w) -> tuple[int, ...]:
    c = [sum(1 for j in range(i + 1, len(w)) if w[j] < w[i]) for i in range(len(w))]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def last_descent(w) -> int | None:
    return max((i for i in range(1, len(w)) if w[i - 1] > w[i]), default=None)


def swap(w, a: int, b: int) -> tuple[int, ...]:
    """Right multiplication by the transposition (a, b)."""
    ww = list(w) + list(range(len(w) + 1, b + 1))
    ww[a - 1], ww[b - 1] = ww[b - 1], ww[a - 1]
    return strip(ww)


def covers(w, a: int, b: int) -> bool:
    """Whether w (a, b) is exactly one longer than w."""
    ww = list(w) + list(range(len(w) + 1, b + 1))
    lo, hi = ww[a - 1], ww[b - 1]
    return lo < hi and not any(lo < ww[c] < hi for c in range(a, b - 1))


@lru_cache(maxsize=None)
def _code_counts(n: int, total: int) -> list[list[int]]:
    # ways[i][s]: Lehmer-code tails c_i..c_{n-1} (c_i <= n-1-i) summing to s.
    ways = [[0] * (total + 1) for _ in range(n + 1)]
    ways[n][0] = 1
    for i in range(n - 1, -1, -1):
        for s in range(total + 1):
            ways[i][s] = sum(ways[i + 1][s - c] for c in range(min(n - 1 - i, s) + 1))
    return ways


def random_perm_of_length(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """Uniform permutation of 1..n with exactly `length` inversions."""
    ways = _code_counts(n, length)
    code = []
    rem = length
    for i in range(n):
        r = rng.randrange(ways[i][rem])
        for c in range(min(n - 1 - i, rem) + 1):
            r -= ways[i + 1][rem - c]
            if r < 0:
                break
        code.append(c)
        rem -= c
    avail = list(range(1, n + 1))
    return strip([avail.pop(c) for c in code])


def perms_by_length(n: int) -> dict[int, list[tuple[int, ...]]]:
    """All permutations of 1..n, grouped by length, in lexicographic order."""
    out: dict[int, list[tuple[int, ...]]] = {}
    for w in itertools.permutations(range(1, n + 1)):
        out.setdefault(inversions(w), []).append(strip(w))
    return out


@lru_cache(maxsize=None)
def reduced_word_count(w) -> int:
    """Number of reduced words: the sum over descents i of those of w s_i."""
    if not w:
        return 1
    total = 0
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            v = list(w)
            v[i - 1], v[i] = v[i], v[i - 1]
            total += reduced_word_count(strip(v))
    return total


def van_der_corput(j: int) -> float:
    """The base-2 radical inverse of j: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    x, f = 0.0, 0.5
    while j:
        if j & 1:
            x += f
        j >>= 1
        f /= 2
    return x


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return strip(w)


def partitions(total: int, max_rows: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of total, largest part first, in reverse lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(rem: int, largest: int, acc: tuple[int, ...]) -> None:
        if rem == 0:
            out.append(acc)
            return
        if max_rows is not None and len(acc) == max_rows:
            return
        for part in range(min(rem, largest), 0, -1):
            rec(rem - part, part, acc + (part,))

    rec(total, total, ())
    return out


def grassmannian(lam, k: int) -> tuple[int, ...]:
    full = tuple(lam) + (0,) * (k - len(lam))
    front = [i + full[k - i] for i in range(1, k + 1)]
    n = k + (lam[0] if lam else 0)
    rest = sorted(set(range(1, n + 1)) - set(front))
    return strip(front + rest)


def shift(w, m: int) -> tuple[int, ...]:
    return tuple(range(1, m + 1)) + tuple(v + m for v in w)


def random_walk_up(rng: random.Random, u, k: int, steps: int) -> tuple[int, ...]:
    """A permutation reached from u by `steps` covering moves (a, b), a <= k < b."""
    w = tuple(u)
    for _ in range(steps):
        moves = [(a, b) for a in range(1, k + 1) for b in range(k + 1, max(len(w), k) + 2) if covers(w, a, b)]
        a, b = rng.choice(moves)
        w = swap(w, a, b)
    return w


# -- polynomials as {exponent tuple: coefficient} dicts --


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = strip_exp(tuple(x + y for x, y in zip_longest(e1, e2, fillvalue=0)))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_sum(pairs) -> dict:
    """Sum of c * p over (c, p) pairs of coefficient and term dict."""
    out: dict = {}
    for c, p in pairs:
        for e, ce in p.items():
            out[e] = out.get(e, 0) + c * ce
    return {e: c for e, c in out.items() if c}


def strip_exp(e: tuple) -> tuple:
    n = len(e)
    while n and e[n - 1] == 0:
        n -= 1
    return e[:n]


def is_symmetric(terms: dict, k: int) -> bool:
    for e, c in terms.items():
        key = strip_exp(tuple(sorted(e + (0,) * (k - len(e)), reverse=True)))
        if terms.get(key) != c:
            return False
    return True


# -- CLI output, rendered from library results as the README specifies --


def format_perm(w) -> str:
    if not w:
        return "1"
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def _term(exp, coeff: int) -> str:
    factors = [f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp, 1) if e > 0]
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


def render_poly(terms: dict, fmt: str) -> str:
    items = sorted(terms.items(), reverse=True)
    if fmt == "json":
        return json.dumps({"terms": [{"coeff": c, "exponents": list(e)} for e, c in items]}) + "\n"
    if not items:
        return "0\n"
    return " + ".join(_term(e, c) for e, c in items) + "\n"


def render_expansion(expansion: dict, fmt: str, chains: dict | None = None) -> str:
    items = sorted(expansion.items())

    def steps(chain) -> str:
        return "".join(f"({a},{b})" for a, b in chain.steps)

    if fmt == "json":
        terms = []
        for w, c in items:
            entry: dict = {"perm": list(w), "coeff": c}
            if chains is not None:
                entry["chains"] = [steps(ch) for ch in chains.get(w, ())]
            terms.append(entry)
        return json.dumps({"terms": terms}) + "\n"
    lines = [] if items else ["0"]
    for w, c in items:
        lines.append(f"{format_perm(w)}: {c}")
        if chains is not None:
            lines.extend(f"  {steps(ch)}" for ch in chains.get(w, ()))
    return "".join(line + "\n" for line in lines)


VERIFY_UNITS = {
    "slides": "permutations",
    "monk": "cases",
    "truncate": "permutations",
    "cross": "cases",
    "product": "products",
}


def render_coeff(c: int, fmt: str) -> str:
    return (json.dumps({"coeff": c}) if fmt == "json" else str(c)) + "\n"


def render_verify(suite: str, count: int, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"ok": True, "suite": suite, "count": count}) + "\n"
    return f"OK ({count} {VERIFY_UNITS[suite]})\n"
