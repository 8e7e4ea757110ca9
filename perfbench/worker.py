"""One workload in one fresh interpreter; prints a JSON record as its last line.

Started by run.py, never by hand.  Modes:
  setup        set up only, report setup_s
  run          set up, then a closed loop for --seconds (at least MIN_OPS ops)
  fixed        set up, then the workload's fixed trace list, untraced
  trace        the same list with every layer wrapped by tracer.Tracer
  cli-one      one traced `schubcalc` command (used by the cli trace)
  verify-time  one verify suite at --nmax 4, timed in-process
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import io
import json
import os
import resource
import sys
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def set_up(name: str, seed: int, tracer=None):
    """The set-up and its time, converted to the reference speed."""
    clock = speed.Clock()
    t0 = perf_counter()
    import schubcalc

    if tracer is not None:
        tracer.install()
    w = workloads.WORKLOADS[name](schubcalc, seed)
    w.warm_up(clock.tick)
    dt = perf_counter() - t0 - clock.spent
    return w, dt * clock.scale()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--argv")
    ap.add_argument("--suite")
    args = ap.parse_args()

    if args.mode == "cli-one":
        import schubcalc.cli

        t = tracing.Tracer()
        t.install()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = t.call(schubcalc.cli.main, json.loads(args.argv))
        rec = t.snapshot()
        rec.update(code=code, stdout=buf.getvalue())
        print(json.dumps(rec))
        return 0

    if args.mode == "verify-time":
        import schubcalc

        t0 = perf_counter()
        schubcalc.SUITES[args.suite](4)
        print(json.dumps({"s": perf_counter() - t0}))
        return 0

    tracer = tracing.Tracer() if args.mode == "trace" else None
    w, setup_s = set_up(args.workload, args.seed, tracer)
    rec: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(rec))
        return 0
    errors = w.after_setup()
    failed = len(errors)

    def fail(i, op, msg):
        nonlocal failed
        failed += 1
        errors.append(f"op {i} {op!r}: {msg}")

    if args.mode == "run":
        sampled = w.sampled()
        kept = []
        lat = array("d", bytes(8 * w.max_ops))
        busy = 0.0
        clock = speed.Clock()
        for i, op in enumerate(w.stream()):
            clock.tick()
            t0 = perf_counter()
            try:
                out = w.run(op)
                err = None
            except Exception as exc:  # an exception is a failed op
                err = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            lat[i] = dt
            busy += dt
            if err is None:
                err = w.check(op, out)
                if i in sampled:
                    kept.append((i, op, out))
            if err:
                fail(i, op, err)
            if (i + 1 >= workloads.MIN_OPS and busy >= args.seconds) or i + 1 == w.max_ops:
                break
        n = i + 1
        # Latencies are reported at the reference speed (speed.py).
        scale = clock.scale()
        for j in range(n):
            lat[j] *= scale
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_kb = resource.getrusage(usage).ru_maxrss
        import oracles

        for i, op, out in kept:
            err = w.full_check(op, out, oracles)
            if err:
                fail(i, op, f"full check: {err}")
        rec.update(
            attempted=n,
            failed=failed,
            busy_s=busy,
            loop_s=clock.loop_s(),
            lat=base64.b64encode(lat[:n].tobytes()).decode(),
            peak_rss_mb=peak_kb / 1024,
            full_checks=len(kept),
        )
    else:
        ops = w.trace_ops()
        wall = 0.0
        for i, op in enumerate(ops):
            t0 = perf_counter()
            try:
                out = w.run(op) if tracer is None else w.run_traced(op, tracer)
            except Exception as exc:
                fail(i, op, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                wall += perf_counter() - t0
            err = w.check(op, out)
            if err:
                fail(i, op, err)
        rec.update(attempted=len(ops), failed=failed, wall_s=wall)
        if tracer is not None:
            rec.update(tracer.snapshot())
    rec["facts"] = w.facts()
    for e in errors[:20]:
        print(f"[{args.workload}] {e}", file=sys.stderr)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
