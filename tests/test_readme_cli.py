"""Golden stdout of every command in the README's CLI block.

These pin rendering only: the values themselves are checked against
tests/oracles.py elsewhere.  Each command runs as written and with
--format json, in-process and then in one `python -S -O` process.
"""

import glob
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import schubcalc
from schubcalc import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(schubcalc.__file__))}

S153264 = (
    "x1^3*x2^2 + 2*x1^3*x2*x3 + x1^3*x2*x4 + x1^3*x2*x5 + x1^3*x3^2"
    " + x1^3*x3*x4 + x1^3*x3*x5 + x1^2*x2^3 + 2*x1^2*x2^2*x3 + x1^2*x2^2*x4"
    " + x1^2*x2^2*x5 + x1^2*x2*x3^2 + x1^2*x2*x3*x4 + x1^2*x2*x3*x5"
    " + 2*x1*x2^3*x3 + x1*x2^3*x4 + x1*x2^3*x5 + x1*x2^2*x3^2"
    " + x1*x2^2*x3*x4 + x1*x2^2*x3*x5 + x2^3*x3^2 + x2^3*x3*x4 + x2^3*x3*x5\n"
)
S153264_JSON = (
    '{"terms": [{"coeff": 1, "exponents": [3, 2]}, {"coeff": 2, "exponents": [3, 1, 1]},'
    ' {"coeff": 1, "exponents": [3, 1, 0, 1]}, {"coeff": 1, "exponents": [3, 1, 0, 0, 1]},'
    ' {"coeff": 1, "exponents": [3, 0, 2]}, {"coeff": 1, "exponents": [3, 0, 1, 1]},'
    ' {"coeff": 1, "exponents": [3, 0, 1, 0, 1]}, {"coeff": 1, "exponents": [2, 3]},'
    ' {"coeff": 2, "exponents": [2, 2, 1]}, {"coeff": 1, "exponents": [2, 2, 0, 1]},'
    ' {"coeff": 1, "exponents": [2, 2, 0, 0, 1]}, {"coeff": 1, "exponents": [2, 1, 2]},'
    ' {"coeff": 1, "exponents": [2, 1, 1, 1]}, {"coeff": 1, "exponents": [2, 1, 1, 0, 1]},'
    ' {"coeff": 2, "exponents": [1, 3, 1]}, {"coeff": 1, "exponents": [1, 3, 0, 1]},'
    ' {"coeff": 1, "exponents": [1, 3, 0, 0, 1]}, {"coeff": 1, "exponents": [1, 2, 2]},'
    ' {"coeff": 1, "exponents": [1, 2, 1, 1]}, {"coeff": 1, "exponents": [1, 2, 1, 0, 1]},'
    ' {"coeff": 1, "exponents": [0, 3, 2]}, {"coeff": 1, "exponents": [0, 3, 1, 1]},'
    ' {"coeff": 1, "exponents": [0, 3, 1, 0, 1]}]}\n'
)
MULTIPLY_PERMS = (
    '{"perm": [4, 2, 1, 6, 7, 3, 5], "coeff": 1',
    '{"perm": [4, 2, 1, 7, 5, 3, 6], "coeff": 1',
    '{"perm": [4, 2, 3, 5, 7, 1, 6], "coeff": 1',
    '{"perm": [4, 3, 1, 5, 7, 2, 6], "coeff": 1',
    '{"perm": [5, 2, 1, 7, 3, 4, 6], "coeff": 1',
)
CHAINS = ("(4,6)(5,6)(5,7)", "(4,6)(5,6)(4,7)", "(5,6)(3,6)(5,7)", "(5,6)(2,6)(5,7)", "(4,6)(1,6)(4,7)")

# README command (without "schubcalc" and "--format json", quoted as the
# shell reads it) -> (plain, JSON) stdout.
GOLDEN = {
    "schubert 42153": (
        "x1^3*x2^2 + x1^3*x2*x3 + x1^3*x2*x4\n",
        '{"terms": [{"coeff": 1, "exponents": [3, 2]}, {"coeff": 1, "exponents": [3, 1, 1]},'
        ' {"coeff": 1, "exponents": [3, 1, 0, 1]}]}\n',
    ),
    "schubert 153264": (S153264, S153264_JSON),
    "stanley 42153 2": (
        "x1^3*x2^2 + x1^2*x2^3\n",
        '{"terms": [{"coeff": 1, "exponents": [3, 2]}, {"coeff": 1, "exponents": [2, 3]}]}\n',
    ),
    "schur 2,1 3": (
        "x1^2*x2 + x1^2*x3 + x1*x2^2 + 2*x1*x2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2\n",
        '{"terms": [{"coeff": 1, "exponents": [2, 1]}, {"coeff": 1, "exponents": [2, 0, 1]},'
        ' {"coeff": 1, "exponents": [1, 2]}, {"coeff": 2, "exponents": [1, 1, 1]},'
        ' {"coeff": 1, "exponents": [1, 0, 2]}, {"coeff": 1, "exponents": [0, 2, 1]},'
        ' {"coeff": 1, "exponents": [0, 1, 2]}]}\n',
    ),
    "slide 0,3,1,0,1": (
        "x1^3*x2*x3 + x1^3*x2*x4 + x1^3*x2*x5 + x1^3*x3*x4 + x1^3*x3*x5"
        " + x1^2*x2*x3*x4 + x1^2*x2*x3*x5 + x1*x2^2*x3*x4 + x1*x2^2*x3*x5"
        " + x2^3*x3*x4 + x2^3*x3*x5\n",
        '{"terms": [{"coeff": 1, "exponents": [3, 1, 1]}, {"coeff": 1, "exponents": [3, 1, 0, 1]},'
        ' {"coeff": 1, "exponents": [3, 1, 0, 0, 1]}, {"coeff": 1, "exponents": [3, 0, 1, 1]},'
        ' {"coeff": 1, "exponents": [3, 0, 1, 0, 1]}, {"coeff": 1, "exponents": [2, 1, 1, 1]},'
        ' {"coeff": 1, "exponents": [2, 1, 1, 0, 1]}, {"coeff": 1, "exponents": [1, 2, 1, 1]},'
        ' {"coeff": 1, "exponents": [1, 2, 1, 0, 1]}, {"coeff": 1, "exponents": [0, 3, 1, 1]},'
        ' {"coeff": 1, "exponents": [0, 3, 1, 0, 1]}]}\n',
    ),
    "fqs 3,1,1 3": (
        "x1^3*x2*x3\n",
        '{"terms": [{"coeff": 1, "exponents": [3, 1, 1]}]}\n',
    ),
    "multiply 42153 2,1 5": (
        "4216735: 1\n4217536: 1\n4235716: 1\n4315726: 1\n5217346: 1\n",
        '{"terms": [' + ", ".join(p + "}" for p in MULTIPLY_PERMS) + "]}\n",
    ),
    "multiply 42153 2,1 5 --chains": (
        "4216735: 1\n  (4,6)(5,6)(5,7)\n4217536: 1\n  (4,6)(5,6)(4,7)\n"
        "4235716: 1\n  (5,6)(3,6)(5,7)\n4315726: 1\n  (5,6)(2,6)(5,7)\n"
        "5217346: 1\n  (4,6)(1,6)(4,7)\n",
        '{"terms": ['
        + ", ".join(f'{p}, "chains": ["{c}"]}}' for p, c in zip(MULTIPLY_PERMS, CHAINS))
        + "]}\n",
    ),
    "truncate 51738246": (
        "5276134: 1\n6274135: 1\n",
        '{"terms": [{"perm": [5, 2, 7, 6, 1, 3, 4], "coeff": 1},'
        ' {"perm": [6, 2, 7, 4, 1, 3, 5], "coeff": 1}]}\n',
    ),
    "monk 21 1": ("312: 1\n", '{"terms": [{"perm": [3, 1, 2], "coeff": 1}]}\n'),
    "monk 1432 2": (
        "15324: 1\n2431: 1\n3412: 1\n",
        '{"terms": [{"perm": [1, 5, 3, 2, 4], "coeff": 1}, {"perm": [2, 4, 3, 1], "coeff": 1},'
        ' {"perm": [3, 4, 1, 2], "coeff": 1}]}\n',
    ),
    "monk 21 0": ("0\n", '{"terms": []}\n'),
    "multiply 1 '' 0": ("1: 1\n", '{"terms": [{"perm": [], "coeff": 1}]}\n'),
    "multiply 1 '' 0 --chains": (
        "1: 1\n",
        '{"terms": [{"perm": [], "coeff": 1, "chains": [""]}]}\n',
    ),
    "coeff 42153 2,1 5 4235716": ("1\n", '{"coeff": 1}\n'),
    "verify --suite all --nmax 4": (
        "OK\n",
        '{"ok": true, "counts": {"slides": 24, "monk": 96, "truncate": 23,'
        ' "cross": 198, "product": 257}}\n',
    ),
}


def readme_commands():
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```$", README, re.M | re.S).group(1)
    commands = []
    for line in block.splitlines():
        words = shlex.split(line.split("#")[0])
        assert words[0] == "schubcalc", line
        if "--format" in words:
            i = words.index("--format")
            assert words[i + 1] == "json", line
            del words[i : i + 2]
        commands.append(shlex.join(words[1:]))
    return commands


def readme_exit_2():
    """The README's malformed-input example: its argv and its stderr."""
    block = re.search(r"^```console\n\$ schubcalc (.*?)\n(.*?)^```$", README, re.M | re.S)
    return block.group(1).split(), block.group(2)


def cases():
    """(argv, exit code, stdout, stderr) for every golden command."""
    out = []
    for command, (plain, doc) in GOLDEN.items():
        out.append((shlex.split(command), 0, plain, ""))
        out.append((shlex.split(command) + ["--format", "json"], 0, doc, ""))
    argv, err = readme_exit_2()
    out.append((argv, 2, "", err))
    return out


def test_goldens_cover_the_readme_block():
    assert readme_commands() == list(GOLDEN)
    assert readme_exit_2()[0] == ["schubert", "1,1"]


@pytest.mark.parametrize(
    "argv, code, out, err", [pytest.param(*case, id=shlex.join(case[0])) for case in cases()]
)
def test_readme_command_in_process(capsys, argv, code, out, err):
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


def test_readme_commands_are_read_without_argparse():
    # Each well-formed README command is read from the command table; only
    # the malformed example goes to argparse, which reports it.
    parser = cli._build_parser()
    for argv, code, _, _ in cases():
        args = cli._read(argv)
        assert (args is None) == (code == 2), argv
        if args is not None:
            assert vars(args) == vars(parser.parse_args(argv)), argv


SCRIPT = """\
import contextlib, io, json, sys
from schubcalc import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_readme_commands_under_dash_S_dash_O():
    # No site-packages and no assert statements: rendering needs neither.
    want = [list(case) for case in cases()]
    argvs = json.dumps([argv for argv, *_ in want])
    proc = subprocess.run(
        [sys.executable, "-S", "-O", "-c", SCRIPT, argvs], capture_output=True, text=True, env=ENV
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == want


def test_readme_commands_do_not_depend_on_the_hash_seed():
    # str hashes, and so the order of a set or a str-keyed dict, change with
    # PYTHONHASHSEED; stdout and exit codes must not.  Each seed runs in a
    # fresh process.
    want = [list(case) for case in cases()]
    argvs = json.dumps([argv for argv, *_ in want])
    runs = []
    for seed in ("0", "999"):
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT, argvs],
            capture_output=True,
            text=True,
            env={**ENV, "PYTHONHASHSEED": seed},
        )
        assert (proc.returncode, proc.stderr) == (0, ""), seed
        runs.append([(argv, code, out) for argv, code, out, _ in json.loads(proc.stdout)])
    assert runs[0] == runs[1] == [(argv, code, out) for argv, code, out, _ in want]


def interpreter(name):
    """A python3.x called name that starts, or None.

    It is looked for on PATH, then beside the running interpreter in a
    pyenv layout (<versions>/*/bin/name).  A candidate counts only if it
    starts and reports the version its name gives: a pyenv shim for a
    version that is installed but not selected exits with an error.
    """
    version = name.removeprefix("python")
    versions = os.path.dirname(sys.prefix)
    found = [shutil.which(name), *sorted(glob.glob(os.path.join(versions, "*", "bin", name)))]
    probe = "import sys; print('%d.%d' % sys.version_info[:2])"
    for exe in filter(None, found):
        try:
            proc = subprocess.run(
                [exe, "-S", "-c", probe], capture_output=True, text=True, timeout=60
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == version:
            return exe
    return None


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_readme_commands_on_other_interpreters(name):
    # The block needs only the stdlib, so it runs under -S on any supported
    # interpreter, without pytest; stdout and exit codes must be the
    # goldens.  argparse's own stderr text differs between versions.
    exe = interpreter(name)
    if exe is None:
        pytest.skip(f"no {name} that starts")
    want = [list(case) for case in cases()]
    argvs = json.dumps([argv for argv, *_ in want])
    proc = subprocess.run([exe, "-S", "-c", SCRIPT, argvs], capture_output=True, text=True, env=ENV)
    assert (proc.returncode, proc.stderr) == (0, ""), exe
    got = [(argv, code, out) for argv, code, out, _ in json.loads(proc.stdout)]
    assert got == [(argv, code, out) for argv, code, out, _ in want], exe
