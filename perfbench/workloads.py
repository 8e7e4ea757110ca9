"""The four benchmark workloads: construct, product, expand and cli.

Each workload generates its inputs from the seed with the stdlib code in
permtools (in set-up, or lazily between timed operations), yields
operations for a closed loop, runs one operation through the library, and
checks outputs: a cheap invariant on
every operation and a full comparison against tests/oracles.py on a seeded
sample.  Checks run outside the timed region.  Why each workload exists is
recorded in BENCHMARK.json and README.md next to this file.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from collections.abc import Iterator

import permtools as pt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

# p90 needs at least ten samples beyond it; the closed loop runs at least
# this many operations even if --seconds has passed.
MIN_OPS = 100


class Workload:
    name = ""
    full_checks = 0  # oracle comparisons per run, on ops drawn by seed
    # Latencies go to a buffer of this many slots allocated before the
    # loop, so peak RSS does not grow with the number of ops; a run stops
    # early if it fills.
    max_ops = 200_000

    def __init__(self, sc, seed: int):
        self.sc = sc
        self.seed = seed

    def warm_up(self, tick) -> None:
        """Declared warm-up, timed as part of set-up; calls tick() between steps."""

    def after_setup(self) -> list[str]:
        """Checks on set-up results; runs after set-up timing stops."""
        return []

    def stream(self) -> Iterator:
        raise NotImplementedError

    def trace_ops(self) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        return None

    def full_check(self, op, out, oracles) -> str | None:
        return None

    def run_traced(self, op, tracer):
        return tracer.call(self.run, op)

    def facts(self) -> dict:
        """Extra counts about the run, printed next to the metrics."""
        return {}

    def sampled(self) -> set[int]:
        """Indices among the first MIN_OPS operations that get the full check."""
        rng = random.Random(f"{self.name}-sample-{self.seed}")
        return set(rng.sample(range(MIN_OPS), self.full_checks))


class Construct(Workload):
    """Cold Schubert, Stanley and Schur polynomials of distinct inputs."""

    name = "construct"
    full_checks = 6
    # Lengths are capped at 11: a length-12 permutation of S8 costs 0.3-0.6 s
    # and length 13 up to 4 s, so a run would hold too few operations for a
    # p90 and a few draws would decide its throughput.  Lengths 4..11 still
    # span a 500x range in cost (the factorial tail of the reduced-word walk).
    # Length 4 is the floor because shorter permutations of S8 run out of
    # distinct draws within a run.  Even so there are only 174 of length 4,
    # one per round of 17 ops, so the stream ends after about 2 800 ops; a
    # run on a library fast enough to get there measures those ops alone.
    #
    # A round sorts into five cost blocks: six cheap ops (lengths 4-7 and
    # the Schur polynomial), then length 8 (3 ops), 9 (2), 10 (3) and 11
    # (3).  The median falls inside the length-8 block and the p90 inside
    # the length-11 block, not on a gap between blocks where a small change
    # of mix would move them.  A length-11 Stanley polynomial in 4 variables
    # is left out: its cost has a coefficient of variation of 1.6 between
    # draws, so a few of them decided a run's throughput.
    SCHUBERT_LENGTHS = (4, 5, 6, 7, 8, 9, 10, 11, 8, 8, 10, 11)
    STANLEY = ((7, 2), (9, 3), (10, 4), (11, 2))
    # The cost of an op follows the number of reduced words of its
    # permutation (correlation 0.97-0.98 at lengths 10 and 11).  So the
    # permutations of each length are ranked by that number (ties in seeded
    # order), and the j-th draw of a stratum takes the rank at quantile
    # frac(vdc(j) + u): vdc is the base-2 van der Corput sequence and u a
    # seeded shift, or the nearest unused rank.  Each draw is still uniform
    # over the stratum, but any run's prefix of draws covers the cost range
    # evenly, so runs on different seeds get nearly the same cost mix.

    def stream(self):
        # Drawn lazily, between timed ops, so set-up is the import alone; each
        # round of 17 holds every stratum.  The stream ends at the first
        # stratum that has no distinct draw left.
        rng = random.Random(f"construct-{self.seed}")
        by_length = pt.perms_by_length(8)
        ranks: dict = {}
        used: set = set()
        drawn: dict = {}
        shift: dict = {}

        def fresh(stratum, length, key):
            if stratum not in shift:
                shift[stratum] = rng.random()
            if length not in ranks:
                ranks[length] = sorted(by_length[length], key=lambda w: (pt.reduced_word_count(w), rng.random()))
            j = drawn[stratum] = drawn.get(stratum, -1) + 1
            ranked = ranks[length]
            r = int((pt.van_der_corput(j) + shift[stratum]) % 1.0 * len(ranked))
            for d in range(len(ranked)):
                for i in (r + d, r - d - 1):
                    if 0 <= i < len(ranked) and key(ranked[i]) not in used:
                        used.add(key(ranked[i]))
                        return ranked[i]
            return None

        schur_pool = [
            (lam, k)
            for k in range(1, 8)
            for size in range(3, 12)
            for lam in pt.partitions(size, k)
            if lam[0] <= 8 - k
        ]
        rng.shuffle(schur_pool)
        while True:
            stanley = iter(self.STANLEY)
            for i, length in enumerate(self.SCHUBERT_LENGTHS):
                w = fresh(length, length, lambda w: w)
                if w is None:
                    return
                yield ("schubert", w)
                if i % 3 == 2:
                    length, k = next(stanley)
                    w = fresh((length, k), length, lambda w: (w, k))
                    if w is None:
                        return
                    yield ("stanley", w, k)
            # Schur polynomials share the Schubert cache, so their
            # grassmannian permutations count as used too.
            while schur_pool:
                lam, k = schur_pool.pop()
                if pt.grassmannian(lam, k) not in used:
                    used.add(pt.grassmannian(lam, k))
                    yield ("schur", lam, k)
                    break

    def trace_ops(self):
        return list(itertools.islice(self.stream(), 8 * 17))

    def run(self, op):
        kind = op[0]
        if kind == "schubert":
            return self.sc.schubert(op[1])
        if kind == "stanley":
            return self.sc.stanley(op[1], op[2])
        return self.sc.schur(op[1], op[2])

    def check(self, op, out):
        terms = out.terms
        # A Stanley polynomial vanishes in too few variables; the others cannot.
        if (not terms and op[0] != "stanley") or any(c < 1 for c in terms.values()):
            return "empty or nonpositive"
        if op[0] == "schubert":
            w = op[1]
            degree, code = pt.inversions(w), pt.lehmer_code(w)
            if min(terms) != code or terms[code] != 1:
                return "lowest monomial is not the code"
            if max(len(e) for e in terms) > (pt.last_descent(w) or 0):
                return "uses a variable beyond the last descent"
        else:
            k = op[2]
            degree = pt.inversions(op[1]) if op[0] == "stanley" else sum(op[1])
            if max(map(len, terms), default=0) > k or not pt.is_symmetric(terms, k):
                return f"not symmetric in {k} variables"
            if op[0] == "schur" and terms.get(op[1]) != 1:
                return "leading monomial"
        if any(sum(e) != degree for e in terms):
            return f"not homogeneous of degree {degree}"
        return None

    def full_check(self, op, out, oracles):
        if op[0] == "schubert":
            want = oracles.dd_schubert(op[1])
        elif op[0] == "stanley":
            # Stability: F_v(x1..xk) = S_{1^k x v}(x1..xk, 0, ...).
            w, k = op[1], op[2]
            want = {e: c for e, c in oracles.dd_schubert(pt.shift(w, k)).items() if len(e) <= k}
        else:
            want = oracles.ssyt_schur(op[1], op[2])
        return None if out.terms == want else "differs from the oracle"


class Product(Workload):
    """Schubert x Schur expansions by last-descent truncation."""

    name = "product"
    full_checks = 4
    ROUND = (
        "stt", "chains", "stt", "coeff", "truncate", "stt", "chains", "monk", "stt", "coeff",
        "stt", "chains", "stt", "truncate", "chains", "stt", "monk", "coeff", "stt", "chains",
    )

    @staticmethod
    def _draw(rng, kind):
        while True:
            u = pt.random_perm(rng, rng.choice((8, 9)))
            if u:
                break
        ld = pt.last_descent(u)
        if kind == "truncate":
            return (kind, u)
        if kind == "monk":
            return (kind, u, rng.randint(1, len(u)))
        k = ld + rng.randrange(3)
        size = rng.randint(1, 6)
        lam = rng.choice(pt.partitions(size, k))
        if kind == "coeff":
            return (kind, u, lam, k, pt.random_walk_up(rng, u, k, size))
        return (kind, u, lam, k)

    def stream(self):
        # Drawn lazily, between timed ops, so every op of a run is fresh.
        rng = random.Random(f"product-{self.seed}")
        while True:
            for kind in self.ROUND:
                yield self._draw(rng, kind)

    def trace_ops(self):
        return list(itertools.islice(self.stream(), 1000))

    def run(self, op):
        sc, kind = self.sc, op[0]
        if kind == "stt":
            return sc.schubert_times_schur(*op[1:])
        if kind == "chains":
            return sc.lr_chains(*op[1:])
        if kind == "coeff":
            return sc.lr_coefficient(*op[1:])
        if kind == "truncate":
            return sc.truncate_last_descent(op[1])
        return sc.monk_multiply(op[1], op[2])

    def check(self, op, out):
        kind, u = op[0], op[1]
        if kind == "truncate":
            ld = pt.last_descent(u)
            for p, c in out.items():
                if c != 1 or pt.inversions(p) != pt.inversions(u):
                    return f"endpoint {p}"
                if (pt.last_descent(p) or 0) >= ld:
                    return f"endpoint {p} keeps the last descent"
            return None
        if kind == "monk":
            k = op[2]
            for w, c in out.items():
                n = max(len(w), len(u))
                uu, ww = u + tuple(range(len(u) + 1, n + 1)), w + tuple(range(len(w) + 1, n + 1))
                diff = [i + 1 for i in range(n) if uu[i] != ww[i]]
                if c != 1 or pt.inversions(w) != pt.inversions(u) + 1 or len(diff) != 2:
                    return f"term {w}"
                a, b = diff
                if not (a <= k < b and pt.swap(u, a, b) == w):
                    return f"term {w} is not u({a},{b}) across {k}"
            return None
        lam, k = op[2], op[3]
        expected = self.sc.schubert_times_schur(u, lam, k)
        if kind == "coeff":
            return None if out == expected.get(op[4], 0) else "coefficient differs from the expansion"
        if kind == "chains":
            if {w: len(cs) for w, cs in out.items()} != expected:
                return "chain counts differ from the coefficients"
            for w, cs in out.items():
                for ch in cs:
                    v = u
                    for a, b in ch.steps:
                        if not (a <= k < b and pt.covers(v, a, b)):
                            return f"step ({a},{b}) of a chain to {w}"
                        v = pt.swap(v, a, b)
                    if v != w or len(ch.steps) != sum(lam):
                        return f"chain does not reach {w}"
            return None
        degree = pt.inversions(u) + sum(lam)
        for w, c in out.items():
            if c < 1 or pt.inversions(w) != degree or (pt.last_descent(w) or 0) > k:
                return f"term {w}: {c}"
        return None

    def full_check(self, op, out, oracles):
        kind, u = op[0], op[1]
        dd = oracles.dd_schubert
        if kind == "truncate":
            ld = pt.last_descent(u)
            lhs = {e: c for e, c in dd(u).items() if len(e) < ld}
            rhs = pt.poly_sum((1, dd(p)) for p in out)
        elif kind == "monk":
            lhs = pt.poly_mul(dd(u), {(0,) * i + (1,): 1 for i in range(op[2])})
            rhs = pt.poly_sum((1, dd(w)) for w in out)
        else:
            lam, k = op[2], op[3]
            expansion = out
            if kind == "chains":
                expansion = {w: len(cs) for w, cs in out.items()}
            elif kind == "coeff":
                expansion = self.sc.schubert_times_schur(u, lam, k)
                if expansion.get(op[4], 0) != out:
                    return "coefficient differs from the checked expansion"
            lhs = pt.poly_mul(dd(u), oracles.ssyt_schur(lam, k))
            rhs = pt.poly_sum((c, dd(w)) for w, c in expansion.items())
        return None if lhs == rhs else "differs from the oracle"


class Expand(Workload):
    """Schubert- and slide-basis expansion of warm-cache products."""

    name = "expand"
    full_checks = 3
    max_ops = 1_000_000
    # The warm-up runs every op of one fixed pool, so set-up builds the same
    # basis on every seed and setup_s does not depend on the draw.  The
    # timed loop cycles over the whole pool in an order the seed picks, so
    # every seed times the same cost mix: with 180 point costs, a seeded
    # subset moved the median latency by up to 19 % between seeds.  Every
    # degree is drawn six times per kind.  Degree 11 is the cap: one
    # degree-12 product of S5 polynomials can cost 0.8 s cold and degree 13
    # up to 4 s.
    DEGREES = tuple(range(2, 12)) * 6

    def __init__(self, sc, seed):
        super().__init__(sc, seed)
        rng = random.Random("expand-pool")
        ops = []
        for d in self.DEGREES:
            lu = rng.randint(max(0, d - 10), min(10, d))
            ops.append(("uv", pt.random_perm_of_length(rng, 5, lu),
                        pt.random_perm_of_length(rng, 5, d - lu)))
            size = rng.randint(max(1, d - 10), min(4, d))
            k = rng.randint(1, 4)
            ops.append(("ul", pt.random_perm_of_length(rng, 5, d - size),
                        rng.choice(pt.partitions(size, k)), k))
            ops.append(("se", pt.random_perm_of_length(rng, 5, d - 1)))
        self.ops = ops
        self.timed = list(range(len(ops)))
        random.Random(f"expand-{seed}").shuffle(self.timed)
        self.expected: list = []

    def warm_up(self, tick):
        # Builds every Schubert polynomial the timed loop reads.
        for i in range(len(self.ops)):
            tick()
            self.expected.append(self.run(i))

    def _reconstruct(self, op, out) -> str | None:
        sc = self.sc
        if op[0] == "se":
            got = pt.poly_sum((c, sc.slide_polynomial(a).terms) for a, c in out.items())
            return None if got == sc.schubert(op[1]).terms else "slides do not sum back"
        right = sc.schubert(op[2]) if op[0] == "uv" else sc.schur(op[2], op[3])
        want = pt.poly_mul(sc.schubert(op[1]).terms, right.terms)
        got = pt.poly_sum((c, sc.schubert(w).terms) for w, c in out.items())
        return None if got == want else "Schubert terms do not sum back"

    def after_setup(self):
        errors = []
        for op, out in zip(self.ops, self.expected):
            err = self._reconstruct(op, out)
            if err:
                errors.append(f"{op}: {err}")
        return errors

    def stream(self):
        return itertools.cycle(self.timed)

    def trace_ops(self):
        return self.timed * 30

    def run(self, i):
        op, sc = self.ops[i], self.sc
        if op[0] == "uv":
            return sc.schubert_expand(sc.schubert(op[1]) * sc.schubert(op[2]))
        if op[0] == "ul":
            return sc.schubert_expand(sc.schubert(op[1]) * sc.schur(op[2], op[3]))
        return sc.slide_expand(sc.schubert(op[1]))

    def check(self, op, out):
        return None if out == self.expected[op] else "differs from the warm-up pass"

    def full_check(self, op, out, oracles):
        op = self.ops[op]
        dd = oracles.dd_schubert
        if op[0] == "se":
            got = pt.poly_sum((c, oracles.brute_slide(a)) for a, c in out.items())
            return None if got == dd(op[1]) else "differs from the oracle"
        right = dd(op[2]) if op[0] == "uv" else oracles.ssyt_schur(op[2], op[3])
        got = pt.poly_sum((c, dd(w)) for w, c in out.items())
        return None if got == pt.poly_mul(dd(op[1]), right) else "differs from the oracle"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


# -S leaves out the host's site-packages hooks (a .pth import costs about
# 250 ms per start on the reference machine); schubcalc needs only the stdlib.
PYTHON = (sys.executable, "-S")


class Cli(Workload):
    """README commands, each in a fresh `python -m schubcalc` process."""

    name = "cli"
    full_checks = 0
    ROUND = (
        "schubert", "multiply", "stanley", "slide", "coeff", "schur", "truncate",
        "chains", "schubert", "fqs", "monk", "multiply", "stanley", "verify", "slide",
        "chains", "schur", "truncate", "coeff", "schubert", "repeat",
    )
    ROUNDS = 6
    SUITES = ("slides", "monk", "truncate", "cross", "product")
    BUDGETED = 0.2
    TIMEOUT = 60

    def __init__(self, sc, seed):
        super().__init__(sc, seed)
        rng = random.Random(f"cli-{seed}")
        self.ops: list = []
        for r in range(self.ROUNDS):
            for kind in self.ROUND:
                if kind == "repeat":
                    self.ops.append(rng.choice(self.ops))
                    continue
                call = self._draw(rng, kind, r)
                fmt = rng.choice(("plain", "json"))
                budget = rng.choice(("C", "C-1")) if rng.random() < self.BUDGETED else None
                self.ops.append((call, fmt, budget))
        self.first_stdout: dict = {}
        self.expected: dict = {}
        self.budgets: dict = {}
        self.facts_: dict = {"stdout_bytes": 0}

    def _draw(self, rng, kind, r):
        if kind == "verify":
            return ("verify", self.SUITES[r % len(self.SUITES)])
        if kind == "schubert":
            return (kind, pt.random_perm_of_length(rng, 6, rng.randint(1, 8)))
        if kind == "stanley":
            return (kind, pt.random_perm(rng, 5), rng.randint(2, 4))
        if kind == "schur":
            lam = rng.choice(pt.partitions(rng.randint(1, 5), 4))
            return (kind, lam, rng.randint(len(lam), 4))
        if kind == "slide":
            while True:
                comp = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 5)))
                if 0 < sum(comp) <= 6:
                    return (kind, comp)
        if kind == "fqs":
            return (kind, rng.choice(pt.partitions(rng.randint(1, 5)))[::-1], rng.randint(1, 4))
        if kind == "truncate":
            while True:
                w = pt.random_perm(rng, rng.randint(6, 8))
                if w:
                    return (kind, w)
        if kind == "monk":
            w = pt.random_perm(rng, 5)
            return (kind, w, rng.randint(1, 5))
        u = pt.random_perm(rng, rng.choice((5, 6)))
        k = (pt.last_descent(u) or 1) + rng.randrange(3)
        size = rng.randint(1, 4)
        lam = rng.choice(pt.partitions(size, k))
        if kind == "coeff":
            return (kind, u, lam, k, pt.random_walk_up(rng, u, k, size))
        return (kind, u, lam, k)

    def compute(self, call):
        """The library result behind a command, before rendering."""
        sc, kind = self.sc, call[0]
        fn = {
            "schubert": sc.schubert, "stanley": sc.stanley, "schur": sc.schur,
            "slide": sc.slide_polynomial, "fqs": sc.fundamental_quasisym,
            "multiply": sc.schubert_times_schur, "chains": sc.lr_chains,
            "truncate": sc.truncate_last_descent, "monk": sc.monk_multiply,
            "coeff": sc.lr_coefficient,
        }.get(kind)
        if fn is None:
            return sc.SUITES[call[1]](4)
        return fn(*call[1:])

    def warm_up(self, tick):
        # Compiles the package once so no timed process pays for bytecode.
        subprocess.run([*PYTHON, "-m", "schubcalc", "--help"], env=cli_env(), cwd=ROOT,
                       capture_output=True, timeout=self.TIMEOUT, check=True)

    def after_setup(self):
        # C: items the unbudgeted command charges in a fresh traced process,
        # so with cold caches as in the timed loop.  Measured before the loop
        # but not counted in setup_s, since users do not pay for it.  A
        # budget is never negative, so C = 0 gives C-1 = 0 too.
        for call, fmt, budget in self.ops:
            if budget and call not in self.budgets:
                rec = self._cli_one((call, fmt, None))
                self.budgets[call] = rec["counts"].get("limits.charged", 0)
        return []

    # Argument types by position, after the command name.
    SIGNATURES = {
        "schubert": "p", "stanley": "pi", "schur": "ci", "slide": "c", "fqs": "ci",
        "multiply": "pci", "chains": "pci", "truncate": "p", "monk": "pi", "coeff": "pcip",
    }

    def argv(self, op) -> list[str]:
        call, fmt, budget = op
        kind = call[0]
        if kind == "verify":
            args = ["verify", "--suite", call[1], "--nmax", "4"]
        else:
            render = {"p": pt.format_perm, "c": lambda x: ",".join(map(str, x)), "i": str}
            args = ["multiply" if kind == "chains" else kind]
            args += [render[t](x) for t, x in zip(self.SIGNATURES[kind], call[1:])]
            if kind == "chains":
                args.append("--chains")
        args += ["--format", fmt]
        if budget:
            c = self.budgets[call]
            args += ["--timeout-terms", str(c if budget == "C" else max(c - 1, 0))]
        return args

    def stream(self):
        return itertools.cycle(self.ops)

    def trace_ops(self):
        return self.ops[: len(self.ROUND)]

    def facts(self):
        return dict(sorted(self.facts_.items()))

    def run(self, op):
        proc = subprocess.run([*PYTHON, "-m", "schubcalc", *self.argv(op)], env=cli_env(), cwd=ROOT,
                              capture_output=True, timeout=self.TIMEOUT)
        return proc.returncode, proc.stdout

    def _cli_one(self, op) -> dict:
        """Run the command in a fresh traced process; its trace record."""
        proc = subprocess.run(
            [*PYTHON, os.path.join(HERE, "worker.py"), "--mode", "cli-one", "--workload", "cli",
             "--argv", json.dumps(self.argv(op))],
            env=cli_env(), cwd=ROOT, capture_output=True, timeout=self.TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"traced command failed: {proc.stderr.decode()[-500:]}")
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])

    def run_traced(self, op, tracer):
        rec = self._cli_one(op)
        tracer.absorb(rec)
        return rec["code"], rec["stdout"].encode()

    def expected_stdout(self, call, fmt) -> str:
        key = (call, fmt)
        if key not in self.expected:
            kind = call[0]
            out = self.compute(call)
            if kind in ("schubert", "stanley", "schur", "slide", "fqs"):
                text = pt.render_poly(out.terms, fmt)
            elif kind == "chains":
                text = pt.render_expansion({w: len(cs) for w, cs in out.items()}, fmt, out)
            elif kind == "coeff":
                text = pt.render_coeff(out, fmt)
            elif kind == "verify":
                text = pt.render_verify(call[1], out, fmt)
            else:
                text = pt.render_expansion(out, fmt)
            self.expected[key] = text
        return self.expected[key]

    def check(self, op, out):
        code, stdout = out
        call, fmt, budget = op
        self.facts_["stdout_bytes"] += len(stdout)
        argv = tuple(self.argv(op))
        first = self.first_stdout.setdefault(argv, stdout)
        if first != stdout:
            return "repeated command printed different bytes"
        if budget:
            key = f"budgeted {budget} exit {code}"
            self.facts_[key] = self.facts_.get(key, 0) + 1
            # C is what this command charges cold, so only C-1 may run out.
            if code == 4 and stdout == b"" and budget == "C-1":
                return None
        if code != 0:
            return f"exit {code}"
        if stdout.decode() != self.expected_stdout(call, fmt):
            return "stdout differs from the rendered library result"
        return None


WORKLOADS = {w.name: w for w in (Construct, Product, Expand, Cli)}
