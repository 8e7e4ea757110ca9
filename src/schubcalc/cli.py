"""Command-line front end.

Every command prints either plain text (line-oriented, sorted) or JSON
(schema-stable, sorted); output is byte-identical across runs.  `_json`
writes the JSON byte for byte as json.dumps does with its defaults, so
no command imports json or, with it, re.  Its strings are the ones a
command writes, printable ASCII without a quote or backslash, which
need no escape; it refuses any other.  One table, `_COMMANDS`, gives
each command its help, its positionals with their readers, its own
options, `run`, one call into the library, and `emit`, which renders its
result as text, terms in the order the library returns them; stdout is
written only once both succeed.  Each reader is a plain function, such
as the library's parse_perm, that raises ValueError on bad input.
`_read` reads a well-formed command straight from that table; anything
else, help included, goes to the argparse parser that `_build_parser`
makes from the same table.  argparse lives only in `_build_parser`,
which is called only to print help or to report malformed input.
Exit codes: 0 success, 1 verification counterexample, 2 malformed input
(argparse), 3 precondition violation, 4 term budget exceeded, 5 internal
error.  Apart from argparse's 2, `main` alone maps exceptions to exit
codes.  A closed stdout is not an error: the run exits 0.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

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


def _ints(text: str) -> tuple[int, ...]:
    """Comma-separated ints; the empty string is the empty sequence."""
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot read integers from {text!r}") from None


def _partition(text: str) -> tuple[int, ...]:
    return check_partition(_ints(text))


def _weak_comp(text: str) -> tuple[int, ...]:
    return _check_ints(_ints(text), "weak composition parts")


def _strong_comp(text: str) -> tuple[int, ...]:
    return _check_ints(_ints(text), "composition parts", 1)


def _string(s: str) -> str:
    # Every string of a CLI document is a key, a suite name or a chain:
    # printable ASCII without '"' or '\\', which json.dumps writes as is.
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    raise TypeError(f"cannot write {s!r} as JSON: not a string the CLI writes")


def _json(doc) -> str:
    """doc as json.dumps(doc) writes it, with every default.

    Only what the CLI's documents hold is accepted: dicts with str keys,
    lists, strs of printable ASCII without '"' or '\\', ints and True;
    anything else raises TypeError.  True is tested first, since bool is
    an int.
    """
    if doc is True:
        return "true"
    kind = type(doc)
    if kind is int:
        return int.__repr__(doc)
    if kind is str:
        return _string(doc)
    if kind is list:
        return "[" + ", ".join(map(_json, doc)) + "]"
    if kind is dict:
        items = []
        for key, value in doc.items():
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            items.append(f"{_string(key)}: {_json(value)}")
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def _emit_poly(p: Polynomial, args: SimpleNamespace) -> str:
    if args.format == "plain":
        return str(p)
    return _json({"terms": [{"coeff": c, "exponents": list(e)} for e, c in p.sorted_terms()]})


def _emit_expansion(result: dict, args: SimpleNamespace) -> str:
    # Under --chains, result is lr_chains': the witness chains of each term.
    # Terms come in the library's order, sorted by permutation.
    chains = getattr(args, "chains", False)
    terms = []
    for w, c in result.items():
        term: dict = {"perm": list(w), "coeff": len(c) if chains else c}
        if chains:
            term["chains"] = [str(chain) for chain in c]
        terms.append(term)
    if args.format == "json":
        return _json({"terms": terms})
    lines = []
    for term in terms:
        lines.append(f"{format_perm(term['perm'])}: {term['coeff']}")
        # A chain with no steps, the identity's, has no text to indent.
        lines += ["  " + chain for chain in term.get("chains", ()) if chain]
    return "\n".join(lines) or "0"


def _emit_coeff(c: int, args: SimpleNamespace) -> str:
    return str(c) if args.format == "plain" else _json({"coeff": c})


def _run_suites(args: SimpleNamespace) -> dict[str, int]:
    # Imported here: only the verify command loads the suites.
    from .verify import SUITES

    names = SUITES if args.suite == "all" else [args.suite]
    return {name: SUITES[name](args.nmax) for name in names}


def _emit_counts(counts: dict[str, int], args: SimpleNamespace) -> str:
    if args.suite == "all":
        return "OK" if args.format == "plain" else _json({"ok": True, "counts": counts})
    count = counts[args.suite]
    if args.format == "plain":
        return f"OK ({count} {SUITE_UNITS[args.suite]})"
    return _json({"ok": True, "suite": args.suite, "count": count})


# The options of every command, each as its flag and add_argument's
# keywords.  _read takes an option's default from here, so a store_true
# option states its default too.
_COMMON = (
    ("--format", {"choices": ("plain", "json"), "default": "plain", "help": "output format"}),
    (
        "--timeout-terms",
        {"type": int, "metavar": "N", "help": "abort with exit code 4 after enumerating N items"},
    ),
)

# name -> (help, positionals as (name, reader), own options, run, emit).
# Each run looks the library up in this module when it is called, so a
# name patched here, by a test or a tracer, is the one that runs.
_COMMANDS = {
    "schubert": (
        "Schubert polynomial of w", (("perm", parse_perm),), (),
        lambda a: schubert(a.perm), _emit_poly,
    ),
    "stanley": (
        "Stanley polynomial of w in k variables", (("perm", parse_perm), ("k", int)), (),
        lambda a: stanley(a.perm, a.k), _emit_poly,
    ),
    "schur": (
        "Schur polynomial of a partition in k variables", (("partition", _partition), ("k", int)),
        (), lambda a: schur(a.partition, a.k), _emit_poly,
    ),
    "slide": (
        "fundamental slide polynomial of a weak composition", (("comp", _weak_comp),), (),
        lambda a: slide_polynomial(a.comp), _emit_poly,
    ),
    "fqs": (
        "fundamental quasisymmetric polynomial in k variables",
        (("comp", _strong_comp), ("k", int)), (),
        lambda a: fundamental_quasisym(a.comp, a.k), _emit_poly,
    ),
    "multiply": (
        "Schubert expansion of S_u times s_lam(x1..xk)",
        (("perm", parse_perm), ("partition", _partition), ("k", int)),
        (
            (
                "--chains",
                {"action": "store_true", "default": False, "help": "list witness chains per term"},
            ),
        ),
        lambda a: (lr_chains if a.chains else schubert_times_schur)(a.perm, a.partition, a.k),
        _emit_expansion,
    ),
    "truncate": (
        "expansion of S_w with its last descent variable set to 0", (("perm", parse_perm),), (),
        lambda a: truncate_last_descent(a.perm), _emit_expansion,
    ),
    "monk": (
        "expansion of S_w times (x1 + ... + xk)", (("perm", parse_perm), ("k", int)), (),
        lambda a: monk_multiply(a.perm, a.k), _emit_expansion,
    ),
    "coeff": (
        "one coefficient of the multiply expansion",
        (("perm", parse_perm), ("partition", _partition), ("k", int), ("target", parse_perm)), (),
        lambda a: lr_coefficient(a.perm, a.partition, a.k, a.target), _emit_coeff,
    ),
    "verify": (
        "run exhaustive identity suites", (),
        (
            ("--suite", {"choices": (*SUITE_UNITS, "all"), "default": "all"}),
            ("--nmax", {"type": int, "default": 4}),
        ),
        _run_suites, _emit_counts,
    ),
}


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """What parse_args would return for a well-formed argv, else None.

    Only the canonical shape is read: a command, its positionals in order,
    then its options, each spelled out in full, at most once, with its
    value as the next token.  No positional or value may start with "-".
    Each value goes through the reader and choices that argparse applies.
    Anything else, help included, is left to argparse, which alone prints
    help and reports malformed input.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positionals, options, run, emit = _COMMANDS[argv[0]]
    if len(argv) <= len(positionals):
        return None
    unread = dict(_COMMON + options)
    values = {"command": argv[0], "run": run, "emit": emit}
    for flag, spec in unread.items():
        values[flag[2:].replace("-", "_")] = spec.get("default")
    # (dest, reader, choices, token) for every value, in argv order.
    pending = [(dest, read, None, token) for (dest, read), token in zip(positionals, argv[1:])]
    rest = iter(argv[len(positionals) + 1 :])
    for flag in rest:
        # None for an unknown, abbreviated, "="-joined or repeated option.
        spec = unread.pop(flag, None)
        if spec is None:
            return None
        dest = flag[2:].replace("-", "_")
        if spec.get("action") == "store_true":
            values[dest] = True
        else:
            # A missing value reads as "-", which is refused below.
            token = next(rest, "-")
            pending.append((dest, spec.get("type", str), spec.get("choices"), token))
    for dest, read, choices, token in pending:
        if token.startswith("-"):
            return None
        try:
            value = read(token)
        except Exception:  # argparse reads it again and reports it
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def _build_parser():
    """The argparse parser of the commands in _COMMANDS."""
    # Imported here: a well-formed command never gets this far.
    import argparse

    def formatter(prog: str) -> argparse.HelpFormatter:
        # Help and usage wrap at 78 columns, whatever the terminal.  By
        # default argparse sizes every formatter from
        # shutil.get_terminal_size(), and add_argument builds one per call,
        # so each process would import shutil (with zlib, bz2 and lzma) for
        # help text it rarely prints.  78 is the width argparse picks when
        # stdout is not a terminal.
        return argparse.HelpFormatter(prog, width=78)

    def reported(read):
        # argparse would report a reader's ValueError as "invalid <function
        # name> value", naming a private helper and dropping the message;
        # int keeps argparse's own "invalid int value".
        def convert(text: str):
            try:
                return read(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return convert

    parser = argparse.ArgumentParser(
        prog="schubcalc",
        description="Exact Schubert-calculus polynomials and product expansions.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positionals, options, run, emit) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, formatter_class=formatter)
        for flag, spec in _COMMON:
            p.add_argument(flag, **spec)
        for dest, read in positionals:
            p.add_argument(dest, type=read if read is int else reported(read))
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.set_defaults(run=run, emit=emit)
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
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
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
