"""What perfbench/ needs from the library, checked without changing perfbench/.

The benchmark's tracer reads the memos through cache_info(), counts work
by rebinding each producer module's charge, and the cli workload sizes
its --timeout-terms budgets from the traced count of a cold command.  A
rename or a moved charge() keeps the library's own tests green but
breaks those budgets, so the contract is pinned here.  Every check runs
in a fresh process, with cold memos as in the benchmark.
"""

import json
import os
import subprocess
import sys

import pytest

import schubcalc

SRC = os.path.dirname(os.path.dirname(schubcalc.__file__))
ROOT = os.path.dirname(SRC)
PERFBENCH = os.path.join(ROOT, "perfbench")
ENV = {**os.environ, "PYTHONPATH": SRC}
TIMEOUT = 120


def python(*args):
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=TIMEOUT
    )
    return proc.returncode, proc.stdout, proc.stderr


TABLES = f"""
import importlib, json, pkgutil, sys
sys.path.insert(0, {PERFBENCH!r})
import tracer
import schubcalc
from schubcalc import _limits, schubert, slide_polynomial, stanley
# A cold Schubert, a nonzero Stanley and a slide polynomial.
schubert((4, 2, 1, 5, 3))
assert stanley((4, 2, 1, 5, 3), 2)
slide_polynomial((0, 3, 1))
report = {{"caches": [], "charges": [], "producers": [], "labelled": list(tracer.CHARGE_LABELS)}}
for metric, module, name in tracer.CACHES:
    info = getattr(importlib.import_module("schubcalc." + module), name).cache_info()
    report["caches"].append([metric, module, name, info.hits, info.misses])
for module in tracer.CHARGE_LABELS:
    bound = importlib.import_module("schubcalc." + module).charge is _limits.charge
    report["charges"].append([module, bound])
for info in pkgutil.iter_modules(schubcalc.__path__):
    module = importlib.import_module("schubcalc." + info.name)
    if info.name != "_limits" and getattr(module, "charge", None) is _limits.charge:
        report["producers"].append(info.name)
print(json.dumps(report))
"""


def tables():
    code, out, err = python("-c", TABLES)
    assert code == 0, err
    return json.loads(out)


def test_tracer_tables_name_live_caches_and_charges():
    # A memo that moved would leave the tracer reading a dead binding whose
    # counts stay 0, so every cache but _reduced_words, which the tracer's
    # own comment says no workload reaches, must have seen the misses of
    # the work in TABLES.
    report = tables()
    assert len(report["caches"]) == 4 and report["charges"]
    for metric, module, name, hits, misses in report["caches"]:
        assert isinstance(hits, int) and isinstance(misses, int), (metric, module, name)
        if (module, name) != ("words", "_reduced_words"):
            assert misses > 0, f"schubcalc.{module}.{name} saw no miss"
    for module, bound in report["charges"]:
        assert bound, f"schubcalc.{module}.charge is not _limits.charge"


def test_every_charging_module_is_labelled():
    # The tracer counts only the charges of the modules it labels, so a
    # charge() bound in any other module would shrink the traced budgets.
    report = tables()
    assert report["producers"]
    unlabelled = set(report["producers"]) - set(report["labelled"])
    assert not unlabelled, f"charge() bound in unlabelled modules: {sorted(unlabelled)}"


def traced_charge(argv):
    """limits.charged of one cold traced command, as the cli workload measures it."""
    code, out, err = python(
        "-S",
        os.path.join(PERFBENCH, "worker.py"),
        "--mode", "cli-one", "--workload", "cli", "--argv", json.dumps(argv),
    )
    assert code == 0, err
    rec = json.loads(out.splitlines()[-1])
    assert rec["code"] == 0, rec
    return rec["counts"].get("limits.charged", 0), rec["stdout"]


@pytest.mark.parametrize(
    "argv",
    [
        ["multiply", "42153", "2,1", "5"],
        ["multiply", "42153", "2,1", "5", "--chains"],
        ["schubert", "42153"],
        ["multiply", "21", "2,1", "1"],
        ["fqs", "2,1", "3"],
        ["slide", "0,2,1"],
    ],
    ids=" ".join,
)
def test_traced_charge_is_the_exact_budget(argv):
    charged, stdout = traced_charge(argv)
    assert charged > 0
    code, out, err = python("-m", "schubcalc", *argv, "--timeout-terms", str(charged))
    assert (code, out, err) == (0, stdout, "")
    code, out, err = python("-m", "schubcalc", *argv, "--timeout-terms", str(charged - 1))
    assert (code, out) == (4, ""), err
