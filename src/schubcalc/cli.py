"""Command-line front end.

Every command prints either plain text (line-oriented, sorted) or JSON
(schema-stable, sorted); output is byte-identical across runs.  Each
subcommand binds `run`, one call into the library, and `emit`, which
renders its result as text; stdout is written only once both succeed.
Exit codes: 0 success, 1 verification counterexample, 2 malformed input
(argparse), 3 precondition violation, 4 term budget exceeded, 5 internal
error.  Apart from argparse's 2, `main` alone maps exceptions to exit
codes.  A closed stdout is not an error: the run exits 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from ._limits import CounterexampleError, TermBudgetExceeded, term_budget
from .perm import _check_ints, check_partition, format_perm, parse_perm
from .poly import Polynomial, fundamental_quasisym, slide_polynomial
from .schubert import schubert, schur, stanley
from .transition import (
    lr_chains,
    lr_coefficient,
    monk_multiply,
    schubert_times_schur,
    truncate_last_descent,
)

# The verify suites, in verify.SUITES order, by what each one counts.
SUITE_UNITS = {
    "slides": "permutations",
    "monk": "cases",
    "truncate": "permutations",
    "cross": "cases",
    "product": "products",
}


def _converter(parse):
    """Wrap parse so that argparse reports its ValueError message as is.

    argparse turns a bare ValueError into "invalid <function name> value",
    which names a private helper and drops the message.
    """

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_perm = _converter(parse_perm)


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot read integers from {text!r}") from None


@_converter
def _partition(text: str) -> tuple[int, ...]:
    return check_partition(_ints(text))


@_converter
def _weak_comp(text: str) -> tuple[int, ...]:
    return _check_ints(_ints(text), "weak composition parts")


@_converter
def _strong_comp(text: str) -> tuple[int, ...]:
    return _check_ints(_ints(text), "composition parts", 1)


def _json(doc: dict) -> str:
    # Imported here: plain output, the default, never pays for it.
    import json

    return json.dumps(doc)


def _emit_poly(p: Polynomial, args: argparse.Namespace) -> str:
    if args.format == "plain":
        return str(p)
    return _json({"terms": [{"coeff": c, "exponents": list(e)} for e, c in p.sorted_terms()]})


def _emit_expansion(result: dict, args: argparse.Namespace) -> str:
    # Under --chains, result is lr_chains': the witness chains of each term.
    chains = getattr(args, "chains", False)
    terms = []
    for w, c in sorted(result.items()):
        term: dict = {"perm": list(w), "coeff": len(c) if chains else c}
        if chains:
            term["chains"] = [str(chain) for chain in c]
        terms.append(term)
    if args.format == "json":
        return _json({"terms": terms})
    lines = []
    for term in terms:
        lines.append(f"{format_perm(term['perm'])}: {term['coeff']}")
        lines += ["  " + chain for chain in term.get("chains", ())]
    return "\n".join(lines) or "0"


def _emit_coeff(c: int, args: argparse.Namespace) -> str:
    return str(c) if args.format == "plain" else _json({"coeff": c})


def _run_suites(args: argparse.Namespace) -> dict[str, int]:
    # Imported here: only the verify command loads the suites.
    from .verify import SUITES

    names = SUITES if args.suite == "all" else [args.suite]
    return {name: SUITES[name](args.nmax) for name in names}


def _emit_counts(counts: dict[str, int], args: argparse.Namespace) -> str:
    if args.suite == "all":
        return "OK" if args.format == "plain" else _json({"ok": True, "counts": counts})
    count = counts[args.suite]
    if args.format == "plain":
        return f"OK ({count} {SUITE_UNITS[args.suite]})"
    return _json({"ok": True, "suite": args.suite, "count": count})


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help and usage at 78 columns, whatever the terminal.

    By default argparse sizes every formatter from
    shutil.get_terminal_size(), and add_argument builds one per call, so
    each process would import shutil (with zlib, bz2 and lzma) for help
    text it rarely prints.  78 is the width argparse picks when stdout is
    not a terminal.
    """

    def __init__(self, prog: str) -> None:
        super().__init__(prog, width=78)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and by inheritance each subparser, that uses _HelpFormatter."""

    def __init__(self, **kwargs) -> None:
        super().__init__(formatter_class=_HelpFormatter, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json"), default="plain", help="output format"
    )
    common.add_argument(
        "--timeout-terms",
        type=int,
        metavar="N",
        help="abort with exit code 4 after enumerating N items",
    )

    parser = _Parser(
        prog="schubcalc",
        description="Exact Schubert-calculus polynomials and product expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schubert", parents=[common], help="Schubert polynomial of w")
    p.add_argument("perm", type=_perm)
    p.set_defaults(run=lambda a: schubert(a.perm), emit=_emit_poly)

    p = sub.add_parser("stanley", parents=[common], help="Stanley polynomial of w in k variables")
    p.add_argument("perm", type=_perm)
    p.add_argument("k", type=int)
    p.set_defaults(run=lambda a: stanley(a.perm, a.k), emit=_emit_poly)

    p = sub.add_parser("schur", parents=[common], help="Schur polynomial of a partition in k variables")
    p.add_argument("partition", type=_partition)
    p.add_argument("k", type=int)
    p.set_defaults(run=lambda a: schur(a.partition, a.k), emit=_emit_poly)

    p = sub.add_parser("slide", parents=[common], help="fundamental slide polynomial of a weak composition")
    p.add_argument("comp", type=_weak_comp)
    p.set_defaults(run=lambda a: slide_polynomial(a.comp), emit=_emit_poly)

    p = sub.add_parser("fqs", parents=[common], help="fundamental quasisymmetric polynomial in k variables")
    p.add_argument("comp", type=_strong_comp)
    p.add_argument("k", type=int)
    p.set_defaults(run=lambda a: fundamental_quasisym(a.comp, a.k), emit=_emit_poly)

    p = sub.add_parser("multiply", parents=[common], help="Schubert expansion of S_u times s_lam(x1..xk)")
    p.add_argument("perm", type=_perm)
    p.add_argument("partition", type=_partition)
    p.add_argument("k", type=int)
    p.add_argument("--chains", action="store_true", help="list witness chains per term")
    p.set_defaults(
        run=lambda a: (lr_chains if a.chains else schubert_times_schur)(a.perm, a.partition, a.k),
        emit=_emit_expansion,
    )

    p = sub.add_parser("truncate", parents=[common], help="expansion of S_w with its last descent variable set to 0")
    p.add_argument("perm", type=_perm)
    p.set_defaults(run=lambda a: truncate_last_descent(a.perm), emit=_emit_expansion)

    p = sub.add_parser("monk", parents=[common], help="expansion of S_w times (x1 + ... + xk)")
    p.add_argument("perm", type=_perm)
    p.add_argument("k", type=int)
    p.set_defaults(run=lambda a: monk_multiply(a.perm, a.k), emit=_emit_expansion)

    p = sub.add_parser("coeff", parents=[common], help="one coefficient of the multiply expansion")
    p.add_argument("perm", type=_perm)
    p.add_argument("partition", type=_partition)
    p.add_argument("k", type=int)
    p.add_argument("target", type=_perm)
    p.set_defaults(
        run=lambda a: lr_coefficient(a.perm, a.partition, a.k, a.target), emit=_emit_coeff
    )

    p = sub.add_parser("verify", parents=[common], help="run exhaustive identity suites")
    p.add_argument("--suite", choices=(*SUITE_UNITS, "all"), default="all")
    p.add_argument("--nmax", type=int, default=4)
    p.set_defaults(run=_run_suites, emit=_emit_counts)

    return parser


def _write(text: str) -> None:
    """Print text to stdout; a reader that has gone away is not an error."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Nobody is left to read the rest.  Point fd 1 at /dev/null so the
        # interpreter's flush at exit does not fail on the same pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with term_budget(args.timeout_terms):
            text = args.emit(args.run(args), args)
        _write(text)
        return 0
    except CounterexampleError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TermBudgetExceeded as exc:
        print(f"error: {exc}; partial results discarded", file=sys.stderr)
        return 4
    except Exception as exc:
        # Imported here: only a failing run pays for it.
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
