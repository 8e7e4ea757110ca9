import json
import os
import shutil
import subprocess
import sys
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import schubcalc
from schubcalc import (
    Polynomial,
    canonical,
    compatible_sequences,
    format_perm,
    from_code,
    fundamental_quasisym,
    greedy_compatible,
    last_descent,
    parse_perm,
    run_decomposition,
    schubert,
    schubert_times_schur,
    sequence_weight,
    slide_polynomial,
    stanley,
    weak_descent_composition,
)
from schubcalc import cli, verify
from schubcalc.perm import check_partition

# Child processes import the package from the tree under test.
ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(schubcalc.__file__))}


# Seconds a child process may take: the budgeted commands below stop at
# once, and would grind for minutes if their budget were lost.
TIMEOUT = 120


def run(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "schubcalc", *args],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=TIMEOUT,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_python(script):
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=ENV, timeout=TIMEOUT
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_schubert_plain():
    assert run("schubert", "42153") == (
        0,
        "x1^3*x2^2 + x1^3*x2*x3 + x1^3*x2*x4\n",
        "",
    )
    assert run("schubert", "1") == (0, "1\n", "")


def test_schubert_methods_agree():
    default = run("schubert", "153264")
    assert default == run("schubert", "153264", "--method", "transition")
    assert default == run("schubert", "153264", "--method", "slides")
    assert default == run("schubert", "153264", "--method", "compatible")
    assert default[0] == 0


def test_schubert_json():
    code, out, err = run("schubert", "153264", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["terms"]) == 23
    assert sum(t["coeff"] for t in doc["terms"]) == 26
    exps = [tuple(t["exponents"]) for t in doc["terms"]]
    assert exps == sorted(exps, reverse=True)
    for t in doc["terms"]:
        assert set(t) == {"coeff", "exponents"}


def test_stanley_and_schur():
    assert run("stanley", "42153", "1") == (0, "0\n", "")
    assert run("schur", "1", "3") == (0, "x1 + x2 + x3\n", "")


def test_slide_and_fqs():
    code, out, err = run("slide", "0,3,1,0,1")
    assert (code, err) == (0, "")
    assert out.count(" + ") == 10  # 11 monomials
    assert run("fqs", "3,1,1", "3") == (0, "x1^3*x2*x3\n", "")


def test_multiply_plain():
    assert run("multiply", "42153", "2,1", "5") == (
        0,
        "4216735: 1\n4217536: 1\n4235716: 1\n4315726: 1\n5217346: 1\n",
        "",
    )
    assert run("multiply", "1", "2,1", "2") == (0, "2413: 1\n", "")
    assert run("multiply", "21", "1", "1") == (0, "312: 1\n", "")


def test_multiply_chains():
    code, out, err = run("multiply", "42153", "2,1", "5", "--chains")
    assert (code, err) == (0, "")
    assert out == (
        "4216735: 1\n  (4,6)(5,6)(5,7)\n"
        "4217536: 1\n  (4,6)(5,6)(4,7)\n"
        "4235716: 1\n  (5,6)(3,6)(5,7)\n"
        "4315726: 1\n  (5,6)(2,6)(5,7)\n"
        "5217346: 1\n  (4,6)(1,6)(4,7)\n"
    )


def test_multiply_chains_json():
    code, out, err = run("multiply", "1", "2,1", "2", "--chains", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc == {
        "terms": [{"perm": [2, 4, 1, 3], "coeff": 1, "chains": ["(2,3)(1,3)(2,4)"]}]
    }


def test_truncate_and_monk():
    assert run("truncate", "51738246") == (0, "5276134: 1\n6274135: 1\n", "")
    assert run("truncate", "21") == (0, "0\n", "")
    assert run("monk", "21", "1") == (0, "312: 1\n", "")
    assert run("monk", "1", "1") == (0, "21: 1\n", "")


def test_coeff():
    assert run("coeff", "42153", "2,1", "5", "4235716") == (0, "1\n", "")
    code, out, _ = run("coeff", "42153", "2,1", "5", "4235716", "--format", "json")
    assert code == 0 and json.loads(out) == {"coeff": 1}


def test_verify_single_suites():
    assert run("verify", "--suite", "slides", "--nmax", "5") == (
        0,
        "OK (120 permutations)\n",
        "",
    )
    assert run("verify", "--suite", "monk", "--nmax", "4") == (0, "OK (72 cases)\n", "")
    assert run("verify", "--suite", "truncate", "--nmax", "5") == (
        0,
        "OK (119 permutations)\n",
        "",
    )
    assert run("verify", "--suite", "cross", "--nmax", "4") == (0, "OK (168 cases)\n", "")
    assert run("verify", "--suite", "product", "--nmax", "4") == (
        0,
        "OK (216 products)\n",
        "",
    )


def test_verify_all_and_json():
    assert run("verify", "--suite", "all", "--nmax", "3") == (0, "OK\n", "")
    code, out, err = run("verify", "--suite", "monk", "--nmax", "4", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"ok": True, "suite": "monk", "count": 72}
    code, out, _ = run("verify", "--suite", "all", "--nmax", "3", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True
    assert set(doc["counts"]) == {"slides", "monk", "truncate", "cross", "product"}


def test_exit_1_on_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(verify, "monk_multiply", lambda w, k: {})
    with pytest.raises(verify.CounterexampleError, match=r"^monk_multiply\(\(\), 1\) = \{\}"):
        verify.verify_monk(3)
    for fmt in ("plain", "json"):
        assert cli.main(["verify", "--suite", "monk", "--nmax", "3", "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("FAIL: monk_multiply(")


def library_message(parse, arg):
    with pytest.raises(ValueError) as exc:
        parse(arg)
    return str(exc.value)


def test_exit_2_on_malformed_input():
    # The message names what was wrong, not the private converter that saw it.
    cases = [
        (("schubert", "4215x"), "perm", library_message(parse_perm, "4215x")),
        (("schubert", "1,1"), "perm", library_message(parse_perm, "1,1")),
        (("schur", "1,2", "3"), "partition", library_message(check_partition, (1, 2))),
        (("fqs", "3,0,1", "3"), "comp", "composition parts must be positive ints: (3, 0, 1)"),
        (("slide", "0,-1"), "comp", "weak composition parts must be nonnegative ints: (0, -1)"),
    ]
    for args, dest, message in cases:
        code, out, err = run(*args)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument {dest}: {message}\n"), err
        assert "invalid" not in err and " _" not in err, err


# Every entry point that takes a sequence of ints: the name its check
# gives the entries, and their least value.
INT_SEQUENCES = {
    "from_code": (from_code, "code entries", 0),
    "sequence_weight": (sequence_weight, "sequence entries", 1),
    "slide_polynomial": (slide_polynomial, "weak composition parts", 0),
    "fundamental_quasisym": (lambda a: fundamental_quasisym(a, 3), "composition parts", 1),
    "run_decomposition": (run_decomposition, "word letters", 1),
    "weak_descent_composition": (weak_descent_composition, "word letters", 1),
    "greedy_compatible": (greedy_compatible, "word letters", 1),
    "compatible_sequences": (compatible_sequences, "word letters", 1),
    "Polynomial": (lambda e: Polynomial({e: 1}), "exponents", 0),
}


@pytest.mark.parametrize("call, name, least", INT_SEQUENCES.values(), ids=INT_SEQUENCES)
def test_int_sequences_share_one_check(call, name, least):
    kind = "positive" if least else "nonnegative"
    # A float, a str and a value below the bound, in a sequence that is
    # otherwise valid, raise the one message.
    for bad in (1.5, "a", least - 1):
        seq = (2, bad)
        with pytest.raises(ValueError) as exc:
            call(seq)
        assert str(exc.value) == f"{name} must be {kind} ints: {seq!r}"
    # bools are ints, as in check_partition.
    assert call((2, True)) == call((2, 1))
    # Any iterable is read once, as its tuple.
    assert call(iter((2, 1))) == call((2, 1))


def test_cli_int_sequences_share_the_library_check():
    for command, extra, name, least in (
        ("slide", (), "weak composition parts", 0),
        ("fqs", ("3",), "composition parts", 1),
    ):
        kind = "positive" if least else "nonnegative"
        # Only a value below the bound reads as an int; the others are
        # malformed before the check.
        for bad, message in (
            (least - 1, f"{name} must be {kind} ints: (2, {least - 1})"),
            (1.5, "cannot read integers from '2,1.5'"),
            ("a", "cannot read integers from '2,a'"),
        ):
            code, out, err = run(command, f"2,{bad}", *extra)
            assert (code, out) == (2, "")
            assert err.endswith(f": error: argument comp: {message}\n"), err


def test_exit_3_on_precondition_violation():
    assert run("monk", "21", "0") == (3, "", "error: k must be positive, got 0\n")
    assert run("schur", "1", "-1") == (3, "", "error: k must be nonnegative, got -1\n")
    code, _, err = run("multiply", "42153", "2,1", "2")
    assert code == 3 and err.startswith("error:")
    code, out, err = run("verify", "--suite", "slides", "--nmax", "-1")
    assert (code, out) == (3, "") and err.startswith("error:")


def test_more_parts_than_variables_is_zero():
    # schur, stanley, fqs, multiply, --chains and coeff agree: 0, exit 0.
    assert run("schur", "2,1", "1") == (0, "0\n", "")
    assert run("schur", "2,1", "0") == (0, "0\n", "")
    assert run("stanley", "321", "1") == (0, "0\n", "")
    assert run("fqs", "3,1", "0") == (0, "0\n", "")
    assert run("multiply", "21", "2,1", "1") == (0, "0\n", "")
    assert run("multiply", "21", "2,1", "1", "--format", "json") == (0, '{"terms": []}\n', "")
    assert run("multiply", "21", "2,1", "1", "--chains") == (0, "0\n", "")
    assert run("coeff", "21", "2,1", "1", "312") == (0, "0\n", "")


def test_exit_4_on_term_budget():
    code, out, err = run("schubert", "42153", "--timeout-terms", "1")
    assert code == 4
    assert out == ""
    assert "partial results discarded" in err


def test_budget_bounds_slide_placements():
    # About 49 million placements: the budget stops them one past its end.
    code, out, err = run("slide", "0," * 30 + "8", "--timeout-terms", "5")
    assert (code, out) == (4, "")
    assert err == "error: term budget of 5 exceeded; partial results discarded\n"


def test_slide_and_fqs_deeper_than_the_recursion_limit():
    # 1 101 and 1 100 positions, past Python's default recursion limit:
    # the placements walk keeps its own stack.
    code, out, err = run("slide", "0," * 1100 + "1")
    assert (code, err) == (0, "")
    assert out == " + ".join(f"x{i}" for i in range(1, 1102)) + "\n"
    code, out, err = run("fqs", "1", "1100")
    assert (code, err) == (0, "")
    assert out == " + ".join(f"x{i}" for i in range(1, 1101)) + "\n"


def test_truncation_deeper_than_the_recursion_limit():
    # 1 100 truncation columns, and a product whose chain walk passes
    # about 1 100 tree levels, past Python's default recursion limit: the
    # truncation kernel and lr_chains keep their own stacks.
    top = ",".join(map(str, [1101, *range(1, 1101)]))
    assert run("truncate", ",".join(map(str, [1, 1102, *range(2, 1102)]))) == (0, top + ": 1\n", "")
    u = ",".join(map(str, [1100, *range(1, 1100)]))
    assert run("multiply", u, "1", "1") == (0, top + ": 1\n", "")
    assert run("multiply", u, "1", "1", "--chains") == (0, top + ": 1\n  (1,1101)\n", "")


def test_exit_5_on_internal_error(monkeypatch, capsys):
    def broken(w):
        raise RuntimeError(f"duplicate truncation endpoint {w}")

    monkeypatch.setattr(cli, "truncate_last_descent", broken)
    assert cli.main(["truncate", "51738246"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith(
        "internal error: RuntimeError: duplicate truncation endpoint (5, 1, 7, 3, 8, 2, 4, 6)\n"
    )


def test_deep_schubert_in_a_fresh_process():
    # The longest element of S46 is 1035 transition levels deep, past
    # Python's default recursion limit; the walk keeps its own stack.
    code, out, err = run("schubert", ",".join(map(str, range(46, 0, -1))))
    assert (code, err) == (0, "")
    assert out == "*".join(f"x{i}^{46 - i}" for i in range(1, 45)) + "*x45\n"


@pytest.mark.parametrize("method", ["slides", "compatible"])
def test_budget_stops_a_reduced_word_walk_deeper_than_the_recursion_limit(method):
    # The first reduced word of the longest element of S46 is 1035
    # letters long; the walk keeps its own stack, so the budget stops it.
    w0 = ",".join(map(str, range(46, 0, -1)))
    assert run("schubert", w0, "--timeout-terms", "10", "--method", method) == (
        4,
        "",
        "error: term budget of 10 exceeded; partial results discarded\n",
    )


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "schubcalc", "schubert", "21"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=ENV,
            timeout=TIMEOUT,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_term_budget_is_exact_for_a_cold_construction():
    # A fresh process builds every transition node once, charging one unit
    # each: a node is one miss, of _schubert or of _stanley.
    for args, call in (
        (("schubert", "42153"), "schubert((4, 2, 1, 5, 3))"),
        (("stanley", "42153", "2"), "stanley((4, 2, 1, 5, 3), 2)"),
        (("schur", "2,1", "2"), "schur((2, 1), 2)"),
    ):
        nodes = int(run_python(
            "from schubcalc import schubert, schur, stanley\n"
            "from schubcalc.transition import _schubert, _stanley\n"
            f"{call}\n"
            "print(_schubert.cache_info().misses + _stanley.cache_info().misses)\n"
        ))
        plain = run(*args)
        assert plain[0] == 0 and nodes > 0, args
        assert run(*args, "--timeout-terms", str(nodes)) == plain, args
        assert run(*args, "--timeout-terms", str(nodes - 1))[0] == 4, args


def test_output_is_deterministic():
    first = run("multiply", "42153", "2,1", "5", "--chains", "--format", "json")
    second = run("multiply", "42153", "2,1", "5", "--chains", "--format", "json")
    assert first == second


def json_terms(capsys, *args):
    assert cli.main([*args, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return json.loads(out)["terms"]


def as_polynomial(terms):
    return Polynomial({tuple(t["exponents"]): t["coeff"] for t in terms})


PERMS = st.integers(1, 6).flatmap(lambda n: st.permutations(range(1, n + 1))).map(canonical)


@given(PERMS, st.integers(0, 4), st.data())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_json_round_trips(capsys, w, k, data):
    assert as_polynomial(json_terms(capsys, "schubert", format_perm(w))) == schubert(w)
    assert as_polynomial(json_terms(capsys, "stanley", format_perm(w), str(k))) == stanley(w, k)

    k = max(k, last_descent(w) or 1)
    parts = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=min(k, 3)))
    lam = tuple(sorted(parts, reverse=True))
    terms = json_terms(capsys, "multiply", format_perm(w), ",".join(map(str, lam)), str(k))
    got = {tuple(t["perm"]): t["coeff"] for t in terms}
    assert got == schubert_times_schur(w, lam, k)


def test_all_names_the_public_surface():
    # The oracle names are bound on first access; resolve them all first.
    for name in schubcalc.__all__:
        getattr(schubcalc, name)
    public = {
        name
        for name, value in vars(schubcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(schubcalc.__all__) == public


def test_import_loads_no_heavy_stdlib_modules():
    # Every CLI call pays for its imports; these modules cost milliseconds,
    # threading about half of one.
    script = (
        "import sys, schubcalc, schubcalc.cli\n"
        "heavy = ('dataclasses', 'typing', 'inspect', 'traceback', 'ast', 'threading')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=ENV
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


ORACLE_NAMES = {
    "verify": ("SUITES", "CounterexampleError", "cross_identity_check"),
    "words": (
        "compatible_sequences", "greedy_compatible", "iter_reduced_words", "reduced_words",
        "run_decomposition", "sequence_weight", "weak_descent_composition",
    ),
}


def test_import_leaves_the_oracle_modules_unloaded():
    # words and verify load on first use of a name they define.  The CLI
    # imports verify for its --suite choices, but a command that walks no
    # reduced word leaves words unloaded.
    script = (
        "import sys, schubcalc\n"
        "def loaded():\n"
        "    return [m for m in ('schubcalc.verify', 'schubcalc.words') if m in sys.modules]\n"
        "print(sorted(m for m in sys.modules if m.startswith('schubcalc')))\n"
        "from schubcalc import cli\n"
        "print(cli.main(['schubert', '3,2,1']), loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=ENV
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "['schubcalc', 'schubcalc._limits', 'schubcalc.perm', 'schubcalc.poly', "
        "'schubcalc.schubert', 'schubcalc.transition']",
        "x1^2*x2",
        "0 ['schubcalc.verify']",
    ]


def test_oracle_names_resolve_to_their_modules():
    script = (
        "import json, sys, schubcalc\n"
        "from schubcalc import poly\n"
        f"names = {ORACLE_NAMES!r}\n"
        "listed = set(dir(schubcalc)) >= set(schubcalc.__all__)\n"
        "same = [getattr(schubcalc, name) is getattr(sys.modules['schubcalc.' + mod], name)\n"
        "        for mod, group in names.items() for name in group]\n"
        "from schubcalc import words\n"
        "virtual = schubcalc.VIRTUAL is poly.VIRTUAL is words.VIRTUAL\n"
        "try:\n"
        "    schubcalc.no_such_name\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps([listed, same, virtual, missing]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=ENV
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    listed, same, virtual, missing = json.loads(proc.stdout)
    assert listed and virtual
    assert same == [True] * 10
    assert missing == "module 'schubcalc' has no attribute 'no_such_name'"


def test_plain_output_loads_neither_json_nor_shutil():
    # json is imported only to render --format json, and the fixed-width
    # help formatter keeps argparse from importing shutil.
    script = (
        "import sys\n"
        "from schubcalc import cli\n"
        "cli.main(['schubert', '21'])\n"
        "print(sorted(m for m in ('json', 'shutil') if m in sys.modules))\n"
        "cli.main(['schubert', '21', '--format', 'json'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=ENV
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    plain, loaded, doc = proc.stdout.splitlines()
    assert (plain, loaded) == ("x1", "[]")
    assert json.loads(doc) == {"terms": [{"coeff": 1, "exponents": [1]}]}


def exit_with(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


SUBCOMMANDS = (
    "schubert", "stanley", "schur", "slide", "fqs",
    "multiply", "truncate", "monk", "coeff", "verify",
)


def test_help_does_not_depend_on_the_terminal(monkeypatch, capsys):
    argvs = [["--help"], *([name, "--help"] for name in SUBCOMMANDS)]
    argvs += [[], ["multiply", "42153"]]  # exit 2, with the usage on stderr
    for argv in argvs:
        seen = []
        for columns in (None, "40", "200"):
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            seen.append(exit_with(capsys, argv))
        assert seen[0][0] == (0 if "--help" in argv else 2)
        assert seen[1] == seen[0] and seen[2] == seen[0], argv


def test_environment_does_not_configure_the_import():
    proc = subprocess.run(
        [sys.executable, "-m", "schubcalc", "schubert", "21"],
        capture_output=True,
        text=True,
        env={**ENV, "SCHUBERT_CACHE_SIZE": "x"},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "x1\n", "")


@pytest.mark.skipif(shutil.which("schubcalc") is None, reason="script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["schubcalc", "truncate", "51738246"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == "5276134: 1\n6274135: 1\n"
