"""Exhaustive self-check suites over small symmetric groups.

Each suite checks one identity on every instance below a size bound and
returns the number of instances checked; the first failure raises
CounterexampleError with the witness, and a bound that is negative or
not an int raises ValueError.  These back the CLI verify command.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import permutations

from ._limits import CounterexampleError
from .perm import Perm, _check_int, canonical, cross, last_descent, length
from .poly import Polynomial, substitute_zero
from .schubert import schubert, schubert_expand, schur, stanley, truncated_schubert
from .transition import lr_chains, monk_multiply, schubert_times_schur, truncate_last_descent


def all_perms(n: int) -> Iterator[Perm]:
    for p in permutations(range(1, n + 1)):
        yield canonical(p)


def all_partitions(max_weight: int) -> Iterator[tuple[int, ...]]:
    """Nonempty partitions of weight 1..max_weight, by weight then parts."""

    def rec(remaining: int, largest: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    for n in range(1, max_weight + 1):
        yield from rec(n, n)


def basis_vector(k: int) -> Polynomial:
    """x1 + ... + xk."""
    return Polynomial({(0,) * i + (1,): 1 for i in range(k)})


def verify_slides(nmax: int = 4) -> int:
    """Transition, slides and compatible sequences agree on all of S_nmax."""
    # Imported here: only this suite walks reduced words.
    from .words import schubert_via_compatible, schubert_via_slides

    _check_int(nmax, "nmax")
    count = 0
    for w in all_perms(nmax):
        p = schubert(w)
        if p != schubert_via_slides(w) or p != schubert_via_compatible(w):
            raise CounterexampleError(f"constructors disagree on {w}")
        count += 1
    return count


def verify_monk(nmax: int = 4) -> int:
    """Covering-transposition expansion matches the expansion oracle, k = 0 included."""
    _check_int(nmax, "nmax")
    count = 0
    for w in all_perms(nmax):
        for k in range(nmax):
            got = monk_multiply(w, k)
            want = schubert_expand(schubert(w) * basis_vector(k))
            if got != want:
                raise CounterexampleError(
                    f"monk_multiply({w}, {k}) = {got}, oracle gives {want}"
                )
            count += 1
    return count


def verify_truncate(nmax: int = 4) -> int:
    """Killing the last descent variable matches the truncation expansion.

    Also checks truncation by transition against substitution,
    truncated_schubert(w, j) == S_w(x1..xj, 0, ...), for every
    0 <= j <= len(w); cross_identity_check relies on it.  The count is
    of the permutations with a last descent.
    """
    _check_int(nmax, "nmax")
    count = 0
    for w in all_perms(nmax):
        p = schubert(w)
        for j in range(len(w) + 1):
            if truncated_schubert(w, j) != substitute_zero(p, j):
                raise CounterexampleError(
                    f"truncated_schubert({w}, {j}) differs from substitution"
                )
        k = last_descent(w)
        if k is None:
            continue
        lhs = substitute_zero(p, k - 1)
        rhs = Polynomial()
        for u, c in truncate_last_descent(w).items():
            if c != 1:
                raise CounterexampleError(f"multiplicity {c} at {u} truncating {w}")
            rhs = rhs + schubert(u)
        if lhs != rhs:
            raise CounterexampleError(f"truncation of {w} fails at x_{k} = 0")
        count += 1
    return count


def cross_identity_check(
    u: Sequence[int], v: Sequence[int], k: int, n: int
) -> bool:
    """Whether splicing v above position n factors after killing x_{k+1}...

    Compares the crossed Schubert polynomial, truncated to k variables,
    with the product of u's Schubert polynomial and v's Stanley
    polynomial in those variables.  Needs u inside S_k and k <= n.
    """
    _check_int(k, "k")
    _check_int(n, "n")
    u = canonical(u)
    v = canonical(v)
    if len(u) > k:
        raise ValueError(f"u moves position {len(u)}, beyond k={k}")
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    lhs = truncated_schubert(cross(u, v, n), k)
    rhs = schubert(u) * stanley(v, k)
    return lhs == rhs


def verify_cross(nmax: int = 4) -> int:
    """Splice-then-truncate factors into Schubert times Stanley."""
    _check_int(nmax, "nmax")
    count = 0
    for u in all_perms(nmax - 1):
        m = len(u)
        for v in all_perms(nmax - 1):
            for k in range(m, nmax + 1):
                for n in range(k, nmax + 1):
                    if not cross_identity_check(u, v, k, n):
                        raise CounterexampleError(
                            f"cross identity fails for u={u}, v={v}, k={k}, n={n}"
                        )
                    count += 1
    return count


def verify_product(nmax: int = 4) -> int:
    """Transition expansion matches the oracle, positively, degree-correct.

    Each case also checks lr_chains: as many chains end at each term as its
    coefficient, and each starts at u and ends at that term.  The empty
    partition runs at every k from ld(u), 0 included, where the product is
    S_u itself with one chain of no steps.
    """
    _check_int(nmax, "nmax")
    count = 0
    for u in all_perms(nmax):
        ld = last_descent(u)
        for lam in ((), *all_partitions(3)):
            for k in range(len(lam), nmax):
                if ld is not None and ld > k:
                    continue
                got = schubert_times_schur(u, lam, k)
                want = schubert_expand(schubert(u) * schur(lam, k))
                if got != want:
                    raise CounterexampleError(
                        f"product expansion of ({u}, {lam}, {k}) = {got}, "
                        f"oracle gives {want}"
                    )
                degree = length(u) + sum(lam)
                for w, c in got.items():
                    if c < 1:
                        raise CounterexampleError(
                            f"nonpositive coefficient {c} at {w} in ({u}, {lam}, {k})"
                        )
                    if length(w) != degree:
                        raise CounterexampleError(
                            f"degree of {w} is {length(w)}, expected {degree}"
                        )
                chains = lr_chains(u, lam, k)
                if {w: len(cs) for w, cs in chains.items()} != got:
                    raise CounterexampleError(
                        f"chain counts of ({u}, {lam}, {k}) differ from {got}"
                    )
                for w, cs in chains.items():
                    for chain in cs:
                        if chain.base != u or chain.endpoint != w:
                            raise CounterexampleError(
                                f"chain {chain} of ({u}, {lam}, {k}) runs from "
                                f"{chain.base} to {chain.endpoint}, not from u to {w}"
                            )
                count += 1
    return count


SUITES = {
    "slides": verify_slides,
    "monk": verify_monk,
    "truncate": verify_truncate,
    "cross": verify_cross,
    "product": verify_product,
}
