"""Every CounterexampleError of the verify suites, reached by a planted defect.

Each test patches the call that a suite checks so that it drops or bumps
one coefficient (for slides, one monomial) on one case, and expects the
message that names that case.  A suite whose comparison went vacuous
would still count its cases; these show that each comparison can fail.
"""

import re

import pytest

from schubcalc import Chain, CounterexampleError, Polynomial, words
from schubcalc import verify

X1 = Polynomial({(1,): 1})


def planted(real, case, change):
    """real, with change applied to its result on the arguments case."""

    def call(*args):
        got = real(*args)
        return change(got) if args == case else got

    return call


def fails(suite, nmax, message):
    with pytest.raises(CounterexampleError, match=f"^{re.escape(message)}$"):
        suite(nmax)


def test_slides_suite_sees_a_constructor_disagree(monkeypatch):
    # The suite imports its oracles from words when it runs.
    real = words.schubert_via_slides
    monkeypatch.setattr(words, "schubert_via_slides", planted(real, ((2, 1),), lambda p: p + X1))
    fails(verify.verify_slides, 3, "constructors disagree on (2, 1)")


def test_truncate_suite_sees_truncation_differ_from_substitution(monkeypatch):
    real = verify.truncated_schubert
    monkeypatch.setattr(verify, "truncated_schubert", planted(real, ((2, 1), 1), lambda p: p + X1))
    fails(verify.verify_truncate, 3, "truncated_schubert((2, 1), 1) differs from substitution")


def test_truncate_suite_sees_a_multiplicity(monkeypatch):
    real = verify.truncate_last_descent
    bump = planted(real, ((1, 3, 2),), lambda d: {u: c + 1 for u, c in d.items()})
    monkeypatch.setattr(verify, "truncate_last_descent", bump)
    fails(verify.verify_truncate, 3, "multiplicity 2 at (2, 1) truncating (1, 3, 2)")


def test_truncate_suite_sees_a_dropped_term(monkeypatch):
    real = verify.truncate_last_descent
    monkeypatch.setattr(verify, "truncate_last_descent", planted(real, ((1, 3, 2),), lambda d: {}))
    fails(verify.verify_truncate, 3, "truncation of (1, 3, 2) fails at x_2 = 0")


def test_cross_suite_sees_the_identity_fail(monkeypatch):
    real = verify.stanley
    monkeypatch.setattr(verify, "stanley", planted(real, ((2, 1), 1), lambda p: p + X1))
    fails(verify.verify_cross, 3, "cross identity fails for u=(), v=(2, 1), k=1, n=1")


def test_cross_suite_reaches_k_0(monkeypatch):
    # F_v in no variables is 0 for v other than the identity; x1 in its
    # place fails at the suite's first case of v = (2, 1).
    real = verify.stanley
    monkeypatch.setattr(verify, "stanley", planted(real, ((2, 1), 0), lambda p: X1))
    fails(verify.verify_cross, 3, "cross identity fails for u=(), v=(2, 1), k=0, n=0")


# The product suite's first case, and its expansion.
FIRST = ((), (1,), 1)


def test_product_suite_sees_a_dropped_term(monkeypatch):
    real = verify.schubert_times_schur
    monkeypatch.setattr(verify, "schubert_times_schur", planted(real, FIRST, lambda d: {}))
    fails(
        verify.verify_product, 3, "product expansion of ((), (1,), 1) = {}, oracle gives {(2, 1): 1}"
    )


def plant_agreed(monkeypatch, change):
    """Change the product on FIRST, and make the oracle agree with it.

    The oracle then returns whatever the product last did, so the
    comparison passes and only the later checks can see the change.
    """
    real = verify.schubert_times_schur
    last = {}

    def product(*case):
        last["got"] = got = change(real(*case)) if case == FIRST else real(*case)
        return got

    monkeypatch.setattr(verify, "schubert_times_schur", product)
    monkeypatch.setattr(verify, "schubert_expand", lambda p: last["got"])


def test_product_suite_sees_a_nonpositive_coefficient(monkeypatch):
    plant_agreed(monkeypatch, lambda d: {w: c - 1 for w, c in d.items()})
    fails(verify.verify_product, 3, "nonpositive coefficient 0 at (2, 1) in ((), (1,), 1)")


def test_product_suite_sees_a_term_of_the_wrong_degree(monkeypatch):
    plant_agreed(monkeypatch, lambda d: {**d, (3, 2, 1): 1})
    fails(verify.verify_product, 3, "degree of (3, 2, 1) is 3, expected 1")


def test_product_suite_sees_a_dropped_chain(monkeypatch):
    real = verify.lr_chains
    monkeypatch.setattr(verify, "lr_chains", planted(real, FIRST, lambda d: {}))
    fails(verify.verify_product, 3, "chain counts of ((), (1,), 1) differ from {(2, 1): 1}")


def test_product_suite_sees_a_chain_end_elsewhere(monkeypatch):
    # (2,3) is an up-step from u = (), to 132 and not to 21.
    wrong = Chain((), ((2, 3),), (1,))
    real = verify.lr_chains
    monkeypatch.setattr(verify, "lr_chains", planted(real, FIRST, lambda d: {(2, 1): (wrong,)}))
    fails(
        verify.verify_product,
        3,
        "chain (2,3) of ((), (1,), 1) runs from () to (1, 3, 2), not from u to (2, 1)",
    )
