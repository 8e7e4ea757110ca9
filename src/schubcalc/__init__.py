"""Exact Schubert-calculus polynomials: slides, Stanley, and transitions.

import schubcalc loads the kernels (_limits, perm, poly, schubert and
transition); the reduced-word oracles of words and the suites of verify
load on first use of a name they define.
"""

from ._limits import CounterexampleError, TermBudgetExceeded, term_budget
from .perm import (
    Perm,
    Transposition,
    apply_transposition,
    canonical,
    code,
    cross,
    descent_set,
    format_perm,
    from_code,
    grassmannian,
    inverse,
    is_covering,
    last_descent,
    length,
    parse_perm,
    shift,
    to_partition,
)
from .poly import (
    VIRTUAL,
    NonExpandableError,
    Polynomial,
    flatten,
    fundamental_quasisym,
    slide_expand,
    slide_polynomial,
    substitute_zero,
)
from .schubert import (
    NoSolutionError,
    schubert,
    schubert_expand,
    schur,
    stanley,
)
from .transition import (
    Chain,
    format_chain,
    lr_chains,
    lr_coefficient,
    monk_multiply,
    schubert_times_schur,
    truncate_last_descent,
    truncation_paths,
    truncation_start,
)

# Names defined by the oracle modules, by module; __getattr__ imports the
# module on first access (PEP 562) and binds the name here.
_LAZY = {
    "SUITES": "verify",
    "cross_identity_check": "verify",
    "compatible_sequences": "words",
    "iter_reduced_words": "words",
    "reduced_words": "words",
    "schubert_via_compatible": "words",
    "schubert_via_slides": "words",
    "sequence_weight": "words",
    "weak_descent_composition": "words",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Imported here: a plain import of the package does not need it.
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "Perm",
    "Transposition",
    "Polynomial",
    "Chain",
    "VIRTUAL",
    "NonExpandableError",
    "NoSolutionError",
    "CounterexampleError",
    "TermBudgetExceeded",
    "SUITES",
    "apply_transposition",
    "canonical",
    "code",
    "compatible_sequences",
    "cross",
    "cross_identity_check",
    "descent_set",
    "flatten",
    "format_chain",
    "format_perm",
    "from_code",
    "fundamental_quasisym",
    "grassmannian",
    "inverse",
    "is_covering",
    "iter_reduced_words",
    "last_descent",
    "length",
    "lr_chains",
    "lr_coefficient",
    "monk_multiply",
    "parse_perm",
    "reduced_words",
    "schubert",
    "schubert_expand",
    "schubert_times_schur",
    "schubert_via_compatible",
    "schubert_via_slides",
    "schur",
    "sequence_weight",
    "shift",
    "slide_expand",
    "slide_polynomial",
    "stanley",
    "substitute_zero",
    "term_budget",
    "to_partition",
    "truncate_last_descent",
    "truncation_paths",
    "truncation_start",
    "weak_descent_composition",
]
