"""schubcalc benchmark: one workload per call, each in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 the per-layer metrics of a traced run.  The last
line of stdout is one JSON object {correct, attempted, failed, metrics};
the lines before it are a table of the same metrics with sample counts.
Workloads, metrics and the layer-to-metric map are described in
README.md next to this file.
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import os
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("construct", "product", "expand", "cli")
PYTHON = (sys.executable, "-S")
# Set-up is repeated in fresh interpreters and reported as the median.
SETUP_REPEATS = {"construct": 15, "product": 15, "expand": 5, "cli": 9}
CHILD_TIMEOUT = 150
SUITES = ("slides", "monk", "truncate", "cross", "product")

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "perm.canonical.calls": "count",
    "perm.canonical.self_s": "s",
    "perm.is_covering.calls": "count",
    "perm.apply_transposition.calls": "count",
    "perm.last_descent.calls": "count",
    "perm.from_code.calls": "count",
    "perm.self_s": "s",
    "words.reduced_words_walked": "count",
    "words.iter_reduced_words.self_s": "s",
    "words.weak_descent_composition.calls": "count",
    "words.self_s": "s",
    "poly.slide_monomials": "count",
    "poly.slide_polynomial.calls": "count",
    "poly.slide_polynomial.self_s": "s",
    "poly.placements.hits": "count",
    "poly.placements.misses": "count",
    "poly.mul.calls": "count",
    "poly.mul.term_pairs": "count",
    "poly.mul.self_s": "s",
    "poly.slide_expand.pivots": "count",
    "poly.slide_expand.self_s": "s",
    "poly.self_s": "s",
    "schubert.schubert.calls": "count",
    "schubert.schubert.self_s": "s",
    "schubert.cache.hits": "count",
    "schubert.cache.misses": "count",
    "schubert.stanley.self_s": "s",
    "schubert.schubert_expand.calls": "count",
    "schubert.schubert_expand.pivots": "count",
    "schubert.schubert_expand.self_s": "s",
    "transition.truncation_paths.calls": "count",
    "transition.truncation_paths.endpoints": "count",
    "transition.charged": "count",
    "transition.schubert_times_schur.self_s": "s",
    "transition.lr_chains.chains": "count",
    "transition.lr_chains.self_s": "s",
    "transition.self_s": "s",
    "limits.charge.calls": "count",
    "limits.charged": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.command_s": "s",
    "cli.stdout_bytes": "bytes",
    **{f"verify.{s}.s": "s" for s in SUITES},
    "trace.overhead_ratio": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def child(args: list[str], timeout: float = CHILD_TIMEOUT) -> dict:
    """Run a worker (or any stdlib Python snippet) and parse its last line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen([*PYTHON, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"timed out after {timeout} s: {args}")
    sys.stderr.write(err.decode(errors="replace"))
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {args}")
    return json.loads(lines[-1])


def worker(workload: str, mode: str, seed: int, seconds: float = 0.0, **extra) -> dict:
    args = [os.path.join(HERE, "worker.py"), "--workload", workload, "--mode", mode,
            "--seed", str(seed), "--seconds", str(seconds)]
    for k, v in extra.items():
        args += [f"--{k}", str(v)]
    return child(args)


def start_time(code: str, repeats: int = 5) -> float:
    """Median wall time of a fresh `python -S -c code`."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        child(["-c", code + "\nprint('{}')"])
        times.append(perf_counter() - t0)
    return statistics.median(times)


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def latencies(rec: dict) -> array:
    lat = array("d")
    lat.frombytes(base64.b64decode(rec["lat"]))
    return lat


def end_to_end(workload: str, seed: int, seconds: float):
    run = worker(workload, "run", seed, seconds)
    setups = [run["setup_s"]] + [
        worker(workload, "setup", seed)["setup_s"] for _ in range(SETUP_REPEATS[workload] - 1)
    ]
    lat = sorted(latencies(run))
    n, failed = run["attempted"], run["failed"]
    metrics = {
        "ops_per_s": (n / math.fsum(lat), n),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, n),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, n),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
        "ok_ratio": ((n - failed) / n, n),
    }
    notes = [f"{n} ops in one fresh interpreter",
             f"times at the reference speed: the speed loop took {run['loop_s'] * 1e3:.4g} ms "
             f"here, {speed.REF_LOOP_S * 1e3:.4g} ms at the reference speed",
             f"fail_ratio {failed / n:.6g} ({failed} of {n} ops)",
             f"full oracle checks: {run['full_checks']}"]
    notes += [f"{k}: {v}" for k, v in run["facts"].items()]
    if run["busy_s"] < seconds:
        notes.append(f"ops ran out after {n} ops and {run['busy_s']:.3g} s, before --seconds")
    return n, failed, metrics, END_TO_END, notes


def per_layer(workload: str, seed: int):
    plain = worker(workload, "fixed", seed)
    traces = [worker(workload, "trace", seed) for _ in range(2)]
    failed = plain["failed"] + sum(t["failed"] for t in traces)
    attempted = plain["attempted"] + sum(t["attempted"] for t in traces)
    notes = []
    if traces[0]["counts"] != traces[1]["counts"]:
        # Work counts must repeat exactly on one seed; a mismatch is a failure.
        failed += 1
        diff = sorted(k for k in set(traces[0]["counts"]) | set(traces[1]["counts"])
                      if traces[0]["counts"].get(k) != traces[1]["counts"].get(k))
        notes.append(f"traced counts differ between two runs: {diff}")
    times = [tracer.self_times(t["self_s"]) for t in traces]
    values: dict[str, float] = {name: 0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name in traces[0]["counts"]:
            values[name] = traces[0]["counts"][name]
        elif name in times[0]:
            values[name] = statistics.median(t.get(name, 0.0) for t in times)
    values["trace.overhead_ratio"] = statistics.median(t["wall_s"] for t in traces) / plain["wall_s"]
    interpreter = start_time("pass")
    values["cli.interpreter_s"] = interpreter
    values["cli.import_s"] = start_time("import schubcalc") - interpreter
    if workload == "cli":
        per_command = plain["wall_s"] / plain["attempted"]
        values["cli.command_s"] = per_command - values["cli.import_s"] - interpreter
        values["cli.stdout_bytes"] = plain["facts"]["stdout_bytes"]
        for suite in SUITES:
            values[f"verify.{suite}.s"] = worker(workload, "verify-time", seed, suite=suite)["s"]
    metrics = {name: (v, 1) for name, v in values.items()}
    notes.append(f"traced list: {plain['attempted']} ops; two traced runs compared")
    return attempted, failed, metrics, PER_LAYER, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/schubcalc/__init__.py", "tests/oracles.py")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a schubcalc checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            attempted, failed, metrics, units, notes = per_layer(args.workload, args.seed)
        else:
            attempted, failed, metrics, units, notes = end_to_end(args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, n) in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:40s} {shown} {units[name]:8s} n={n}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
