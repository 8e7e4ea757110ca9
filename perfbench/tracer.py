"""Per-layer tracing of schubcalc from outside the library.

Every public function of the traced modules is replaced, in every
``schubcalc`` module namespace that holds it (including ``from .x import y``
re-exports and the ``schubert = schubert_via_slides`` alias), by a wrapper
that records calls and self time.  A span stack subtracts the time of
wrapped children from each span, so self times of nested layers add up to
the traced wall time instead of double counting.  ``charge`` is wrapped
once per importing module so the work count is labelled by its producer.
Library caches are only read (``cache_info``), never cleared or resized.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("perm", "words", "poly", "schubert", "transition", "verify", "cli", "_limits")

# Label a function object by its default public name, not its implementation name.
ALIASES = {"schubert.schubert_via_slides": "schubert.schubert"}

# Polynomial arithmetic is reached through operators, not module functions.
METHODS = {"__mul__": "poly.mul", "__rmul__": "poly.mul"}

# Producers that call charge(); the label names what each one counts.
CHARGE_LABELS = {
    "words": "words.reduced_words_walked",
    "poly": "poly.slide_monomials",
    "transition": "transition.charged",
}

# (metric, module, cache function) pairs read with cache_info().  No
# workload reaches _reduced_words, so its counts are compared between
# traced runs but not published.
CACHES = (
    ("schubert.cache", "schubert", "_schubert"),
    ("schubert.cache", "schubert", "_stanley"),
    ("poly.placements", "poly", "_placements"),
    ("words.cache", "words", "_reduced_words"),
)


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    def __init__(self):
        self.counts: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._active = False
        self._modules: dict[str, types.ModuleType] = {}
        self._polynomial = None

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for name in LAYERS:
            self._modules[name] = importlib.import_module(f"schubcalc.{name}")
        limits = self._modules["_limits"]
        replaced: dict[int, object] = {}
        for name, mod in self._modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and obj is not limits.charge
                    and obj is not limits.term_budget
                    and id(obj) not in replaced
                ):
                    label = f"{_layer(mod.__name__)}.{obj.__name__}"
                    replaced[id(obj)] = self._wrap(ALIASES.get(label, label), obj)
        for mod in [m for n, m in sys.modules.items() if n == "schubcalc" or n.startswith("schubcalc.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        for name, label in CHARGE_LABELS.items():
            mod = self._modules[name]
            if mod.charge is limits.charge:
                mod.charge = self._counting_charge(label, limits.charge)
        poly_cls = self._modules["poly"].Polynomial
        self._polynomial = poly_cls
        wrapped: dict[int, object] = {}
        for attr, label in METHODS.items():
            fn = poly_cls.__dict__[attr]
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(label, fn)
            setattr(poly_cls, attr, wrapped[id(fn)])

    def _counting_charge(self, label: str, charge):
        def traced_charge(n: int = 1) -> None:
            if self._active:
                self.counts["limits.charge.calls"] += 1
                self.counts["limits.charged"] += n
                self.counts[label] += n
            charge(n)

        return traced_charge

    def _after(self, label: str, args: tuple, result) -> None:
        # Work counts derived from arguments and results at the boundary.
        if label == "poly.mul" and isinstance(args[1], self._polynomial):
            self.counts["poly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
        elif label in ("poly.slide_expand", "schubert.schubert_expand"):
            self.counts[f"{label}.pivots"] += len(result)
        elif label == "transition.truncation_paths":
            self.counts["transition.truncation_paths.endpoints"] += len(result)
        elif label == "transition.lr_chains":
            self.counts["transition.lr_chains.chains"] += sum(len(c) for c in result.values())

    def _enter(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, label: str, t0: float) -> None:
        dt = perf_counter() - t0
        child = self._stack.pop()
        self.self_s[label] += dt - child
        if self._stack:
            self._stack[-1] += dt

    def _wrap(self, label: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(label, fn)
        tracer = self
        calls = f"{label}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            tracer.counts[calls] += 1
            t0 = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(label, t0)
            tracer._after(label, args, result)
            return result

        return traced

    def _wrap_generator(self, label: str, fn):
        tracer = self
        calls = f"{label}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if tracer._active:
                tracer.counts[calls] += 1
            # Each resumption is a span, so time spent between yields in
            # the caller is not charged to the generator.
            while True:
                active = tracer._active
                if active:
                    t0 = tracer._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if active:
                        tracer._exit(label, t0)
                yield item

        return traced

    # -- measurement --------------------------------------------------

    def _cache_infos(self) -> list:
        return [getattr(self._modules[mod], fn).cache_info() for _, mod, fn in CACHES]

    def call(self, fn, *args):
        """Run fn(*args) as one traced operation; caches are read around it."""
        before = self._cache_infos()
        self._active = True
        try:
            return fn(*args)
        finally:
            self._active = False
            for (metric, _, _), b, a in zip(CACHES, before, self._cache_infos()):
                self.counts[f"{metric}.hits"] += a.hits - b.hits
                self.counts[f"{metric}.misses"] += a.misses - b.misses

    def snapshot(self) -> dict:
        """Exact counts, and self seconds by span label."""
        return {"counts": dict(self.counts), "self_s": dict(self.self_s)}

    def absorb(self, snapshot: dict) -> None:
        """Add the snapshot of a traced child process."""
        self.counts.update(snapshot["counts"])
        for label, t in snapshot["self_s"].items():
            self.self_s[label] += t


def self_times(self_s: dict) -> dict:
    """Self-time metrics: one per span label plus one sum per layer."""
    times = {f"{label}.self_s": t for label, t in self_s.items()}
    for layer in ("perm", "words", "poly", "schubert", "transition"):
        times[f"{layer}.self_s"] = sum(t for label, t in self_s.items() if label.split(".")[0] == layer)
    return times
