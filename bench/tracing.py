"""Per-layer instrumentation applied from outside the program.

Public functions of the donoharm modules are swapped, for the length of
one pass, for wrappers that record a span (name, start, end, parent) or
a peak allocation; every module that imported the function by name gets
the wrapper too, so calls made by the CLI and by other modules are seen.
Counts come from a profile hook in a pass of their own, so the hook's cost
never lands in a span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import tracemalloc
from fractions import Fraction
from time import perf_counter
from typing import Callable, Iterator

# Span name -> the (module, function) pairs whose calls it times.  Span
# names are the per-layer metric names in BENCHMARK.json.
SPAN_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "scenario.parse_s": (("scenario", "parse_scenario"),),
    "scenario.canonicalise_s": (("scenario", "as_population"), ("scenario", "as_deterministic_view")),
    "scenario.render_s": (("scenario", "render_report"),),
    "engine.evaluate_population_s": (("engine", "evaluate_population"),),
    "engine.evaluate_deterministic_s": (("engine", "evaluate_deterministic"),),
    "engine.deterministic_view_s": (("engine", "deterministic_view_of"),),
    "engine.paradox_s": (("engine", "paradox_report"),),
    "model.validate_population_s": (("model", "validate_population"),),
    "simulate.population_s": (("simulate", "simulate_population"),),
    "simulate.deterministic_s": (("simulate", "simulate_deterministic"),),
    "lottery.nm_value_s": (("lottery", "nm_value"),),
    "lottery.penalized_value_s": (("lottery", "penalized_value"),),
    "lottery.outcome_distribution_s": (("lottery", "outcome_distribution"),),
    "lottery.reduce_compound_s": (("lottery", "reduce_compound"),),
    "lottery.coherence_check_s": (("lottery", "coherence_check"),),
}
SIMULATORS = {k: v for k, v in SPAN_TARGETS.items() if k.startswith("simulate.")}


@contextlib.contextmanager
def patched(
    targets: dict[str, tuple[tuple[str, str], ...]],
    wrap: Callable[[str, Callable], Callable],
) -> Iterator[None]:
    """Replace each target function by wrap(name, fn) in every donoharm module."""
    modules = [m for k, m in list(sys.modules.items()) if k == "donoharm" or k.startswith("donoharm.")]
    saved = []
    try:
        for name, funcs in targets.items():
            for module, attr in funcs:
                fn = getattr(sys.modules.get(f"donoharm.{module}"), attr, None)
                if fn is None:  # a later version may drop the function; its span reads 0
                    continue
                wrapper = wrap(name, fn)
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is fn]:
                        saved.append((m, key, fn))
                        setattr(m, key, wrapper)
        yield
    finally:
        for m, key, fn in reversed(saved):
            setattr(m, key, fn)


class Tracer:
    """Spans kept in memory; recursive calls of one function make one span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._open: set[str] = set()

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else len(self.spans)
        record = {"id": len(self.spans), "name": name, "parent": parent, "trace": root, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        self._open.add(name)
        record["start"] = perf_counter()
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
            self._open.discard(name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def totals(self, first: int = 0) -> dict[str, float]:
        """Seconds per span name over spans[first:]; nested same-name spans
        cannot occur, so each total counts every second once."""
        out: dict[str, float] = {}
        for s in self.spans[first:]:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out


class Counts:
    """Calls to Fraction.__new__, validate_population and Generator.binomial,
    and the tracemalloc peak of each simulator call.

    numpy's Generator methods are compiled and invisible to a profile hook,
    so binomial calls are counted on the generators numpy.random.default_rng
    hands out during the pass.
    """

    def __init__(self) -> None:
        self.fraction_new = 0
        self.validate_population = 0
        self.binomial = 0
        self.peak_alloc_bytes = 0
        self._fraction_code = Fraction.__new__.__code__
        model = sys.modules.get("donoharm.model")
        validate = getattr(model, "validate_population", None)
        self._validate_code = getattr(validate, "__code__", None)

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code is self._fraction_code:
                self.fraction_new += 1
            elif code is self._validate_code:
                self.validate_population += 1

    def _peak(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_alloc_bytes = max(self.peak_alloc_bytes, peak)

        return wrapper

    @contextlib.contextmanager
    def counting(self) -> Iterator[None]:
        import numpy.random

        default_rng = numpy.random.default_rng
        numpy.random.default_rng = lambda *a, **k: _CountingGenerator(default_rng(*a, **k), self)
        tracemalloc.start()
        try:
            with patched(SIMULATORS, self._peak):
                threading.setprofile(self._hook)
                sys.setprofile(self._hook)
                try:
                    yield
                finally:
                    sys.setprofile(None)
                    threading.setprofile(None)
        finally:
            tracemalloc.stop()
            numpy.random.default_rng = default_rng


class _CountingGenerator:
    """A numpy Generator that counts its binomial calls."""

    def __init__(self, rng, counts: Counts) -> None:
        self._rng = rng
        self._counts = counts

    def binomial(self, *args, **kwargs):
        self._counts.binomial += 1
        return self._rng.binomial(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._rng, name)
