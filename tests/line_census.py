"""Line census: every statement of a library function that tier-1 runs.

Run from anywhere, with pytest and hypothesis installed:

    python tests/line_census.py

It runs the tier-1 suite in this process under sys.settrace and
threading.settrace, recording the lines run in frames of src/schubcalc
only, and then lists every statement of a function body there that never
ran.  A statement counts as reached when any of its lines ran, so a
condition written over several lines is not a false miss; a compound
statement (if, for, while, with, a nested def) also counts as reached
when the first statement of its body ran.  Docstrings, global and
nonlocal declarations and try: headers compile to nothing that a trace
sees, so they are not listed.

The census exits 1 when tier-1 fails, when a statement outside ALLOWED
went unreached, or when an entry of ALLOWED was reached or names no
statement any more, so that the list cannot go stale.  Subprocesses are
not traced, which is why some statements are allowed.  Tracing makes
tier-1 about four times slower, so the census is a CI step of its own
and not part of tier-1.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schubcalc"

# Statements that tier-1 does not reach in this process, keyed by
# (module, function, source text with each line stripped and the lines
# joined by one space; the header alone for a compound statement).
ALLOWED = {
    # Reached only by the tests that run the package or the CLI in a
    # subprocess: dir(schubcalc), the plain line of a one-suite verify,
    # a reader that closes the pipe, and main's default argv and its
    # exit-3 and exit-4 arms.
    ("__init__", "__dir__", "return sorted({*globals(), *_LAZY})"),
    ("cli", "_emit_counts", 'return f"OK ({count} {SUITE_UNITS[args.suite]})"'),
    ("cli", "_write", "except BrokenPipeError:"),
    ("cli", "_write", "devnull = os.open(os.devnull, os.O_WRONLY)"),
    ("cli", "_write", "os.dup2(devnull, sys.stdout.fileno())"),
    ("cli", "_write", "os.close(devnull)"),
    ("cli", "main", "argv = sys.argv[1:]"),
    ("cli", "main", 'print(f"error: {exc}", file=sys.stderr)'),
    ("cli", "main", "return 3"),
    ("cli", "main", 'print(f"error: {exc}; partial results discarded", file=sys.stderr)'),
    ("cli", "main", "return 4"),
    # Guards against a broken kernel that an assert meets first, so that
    # only the python -O subprocesses of test_guards_hold_under_optimize
    # and test_schubert_expand_guard_holds_under_optimization reach them.
    ("poly", "_eliminate",
     'raise RuntimeError(f"pivot {_unpack(last, bits)} did not clear the maximum")'),
    ("transition", "_transition",
     'raise RuntimeError(f"S_{w} has degree {bound}, too large for {bits}-bit slots")'),
    ("transition", "monk_multiply",
     'raise RuntimeError(f"Monk term {u} reached by two transpositions")'),
    ("transition", "_start_word",
     'raise RuntimeError(f"truncation start of {w} disagrees with its transpositions")'),
    ("transition", "_paths",
     'raise RuntimeError( f"truncation endpoint {tuple(p[:i])} keeps a descent at {ld} >= {k}" )'),
    ("transition", "truncate_last_descent",
     'raise RuntimeError(f"duplicate truncation endpoint {p}")'),
    ("transition", "lr_chains",
     'raise RuntimeError(f"down-steps to {w} leave {base}, not u = {u}")'),
    ("transition", "lr_chains", "crossing = False"),
    ("transition", "lr_chains", "break"),
    ("transition", "lr_chains",
     'raise RuntimeError(f"up-steps {ups} to {w} do not cross k = {k} |lam| times")'),
    ("transition", "lr_chains",
     'raise RuntimeError(f"chain {chain} ends at {chain.endpoint}, not {w}")'),
    # _push_down's two rename branches, which no input has been seen to
    # take (ROADMAP.md, "Measured and not worth doing").
    ("transition", "_push_down", "a = x"),
    ("transition", "_push_down", "a = y"),
}


def _text(lines: list[str], first: int, last: int) -> str:
    # Comment lines between a compound header and its body are left out.
    stripped = (line.strip() for line in lines[first - 1 : last])
    return " ".join(line for line in stripped if line and not line.startswith("#"))


def _entry(node: ast.AST, scope: list[str], lines: list[str]) -> tuple[str, set[int], str]:
    """(function, the lines any of which reach node, text) of one statement.

    A compound statement's text is its header alone, and its first body
    statement reaches it too.
    """
    body = getattr(node, "body", None)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        first = min(d.lineno for d in [*node.decorator_list, node])
        last, reach = body[0].lineno - 1, set()
    elif isinstance(body, list):
        first, last, reach = node.lineno, body[0].lineno - 1, {body[0].lineno}
    else:
        first, last, reach = node.lineno, node.end_lineno, set()
    return ".".join(scope), reach.union(range(first, last + 1)), _text(lines, first, last)


def statements(path: Path) -> list[tuple[str, set[int], str]]:
    """_entry of each statement of a function body in the module at path.

    The function is the dotted name of the innermost enclosing function,
    its classes included.
    """
    source = path.read_text()
    lines = source.splitlines()
    found = []

    def visit(body: list[ast.stmt], scope: list[str], in_function: bool) -> None:
        for i, stmt in enumerate(body):
            docstring = (
                i == 0
                and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            )
            silent = docstring or isinstance(stmt, (ast.Global, ast.Nonlocal, ast.Try))
            if in_function and not silent:
                found.append(_entry(stmt, scope, lines))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                inner = in_function or isinstance(stmt, ast.FunctionDef)
                visit(stmt.body, scope + [stmt.name], inner)
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []), scope, in_function)
            for handler in getattr(stmt, "handlers", []):
                if in_function:
                    found.append(_entry(handler, scope, lines))
                visit(handler.body, scope, in_function)

    visit(ast.parse(source).body, [], False)
    return found


def census(ran: dict[str, set[int]]) -> tuple[set[tuple[str, str, str]], set[tuple[str, str, str]]]:
    """The (module, function, text) of the statements not run, and of those run."""
    missed, reached = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        run = ran.get(str(path), set())
        for function, lines, text in statements(path):
            (reached if run & lines else missed).add((path.stem, function, text))
    return missed, reached


def _run_traced() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit status, and the lines run in each file of the package."""
    prefix = str(PACKAGE) + "/"
    wanted: dict[str, bool] = {}
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = str(Path(name).resolve()).startswith(prefix)
        return local if keep else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    # Filenames as the frames gave them, resolved like the package's.
    resolved: dict[str, set[int]] = defaultdict(set)
    for name, lines in ran.items():
        resolved[str(Path(name).resolve())] |= lines
    return int(status), resolved


def main() -> int:
    status, ran = _run_traced()
    imported = sys.modules.get("schubcalc")
    if imported is None or Path(imported.__file__).resolve().parent != PACKAGE:
        print(f"census: the tests did not import schubcalc from {PACKAGE}")
        return 1
    missed, reached = census(ran)
    ok = status == 0
    if not ok:
        print(f"census: tier-1 exited with {status}")
    for module, function, text in sorted(missed - ALLOWED):
        print(f"census: not reached: {module}.{function}: {text}")
        ok = False
    for module, function, text in sorted(ALLOWED & reached):
        print(f"census: allowed but reached: {module}.{function}: {text}")
        ok = False
    for module, function, text in sorted(ALLOWED - missed - reached):
        print(f"census: allowed but not found: {module}.{function}: {text}")
        ok = False
    if ok:
        print(f"census: OK ({len(reached)} statements reached, {len(missed)} allowed)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
