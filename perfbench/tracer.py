"""In-memory spans around the package's public functions, installed from outside.

``install`` replaces each traced function or method with a wrapper, in every
loaded ``simplets`` module that refers to it, so the package itself is not
edited.  Every call records a span: name, start, end, busy time and the span
that was open when it began.  Hot functions (called about a million times on
``exact-m5``) are aggregated instead: all their calls under one parent span
share one record that sums busy time and counts calls, so tracing stays a
small share of the run.  Spans stay in memory and are written out by
``dump`` when the process ends; pool workers forked from a traced process
write their own file when they exit.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import sys
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("index", "name", "parent", "start", "end", "busy", "calls", "steps", "burn_in")

    def __init__(self, index: int, name: str, parent: int, start: float):
        self.index = index
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0
        self.calls = 0
        self.steps = 0
        self.burn_in = None

    def to_json(self) -> dict:
        return {field: getattr(self, field) for field in self.__slots__}


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._batches: dict[tuple[str, int], Span] = {}

    def _open(self, name: str, start: float) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(len(self.spans), name, parent, start)
        self.spans.append(span)
        return span

    def _batch(self, name: str, start: float) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = self._batches.get((name, parent))
        if span is None:
            span = self._batches[(name, parent)] = self._open(name, start)
        return span

    def timed(self, name: str, fn, hot: bool = False):
        """Wrap ``fn``; with ``hot`` its calls are summed into one span per parent."""
        stack = self._stack
        get = self._batch if hot else self._open

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            span = get(name, t0)
            stack.append(span.index)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span.busy += t1 - t0
                span.end = t1
                span.calls += 1

        return _like(wrapper, fn)

    def timed_iter(self, name: str, fn):
        """Wrap a generator function: the time inside its ``next`` calls is
        summed into one span per parent, and ``calls`` counts the items."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = self._batch(name, perf_counter())

            def iterate():
                while True:
                    t0 = perf_counter()
                    stack.append(span.index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        span.busy += t1 - t0
                        span.end = t1
                    span.calls += 1
                    yield item

            return iterate()

        return _like(wrapper, fn)

    def sampler_method(self, name: str, fn):
        """Wrap ``SimpletSampler.__init__`` or ``.sample``: besides the span,
        record the burn-in length and the MH steps the call took."""
        stack = self._stack

        def wrapper(sampler, *args, **kwargs):
            steps0 = getattr(sampler, "steps_taken", 0)
            t0 = perf_counter()
            span = self._open(name, t0)
            stack.append(span.index)
            try:
                return fn(sampler, *args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span.busy = t1 - t0
                span.end = t1
                span.calls = 1
                span.steps = getattr(sampler, "steps_taken", 0) - steps0
                span.burn_in = getattr(sampler, "burn_in", None)

        return _like(wrapper, fn)

    def dump(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_json() for span in self.spans], handle)

    def _in_worker(self) -> None:
        # Cleared in place: the wrappers hold these very objects.
        self.spans.clear()
        self._stack.clear()
        self._batches.clear()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def follow_forks(self) -> None:
        """Make pool workers forked after this call record and dump their own spans."""
        multiprocessing.util.register_after_fork(self, Tracer._in_worker)


def _like(wrapper, fn):
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr, None))
    wrapper.__wrapped__ = fn
    return wrapper


# (module, attribute path, span name, kind).  ``hot`` calls are aggregated.
TARGETS = (
    ("simplets.io", "load_complex", "io.load_complex", "plain"),
    ("simplets.complexes", "build_complex", "complexes.build_complex", "plain"),
    ("simplets.complexes", "skeleton_diameter", "complexes.skeleton_diameter", "plain"),
    ("simplets.complexes", "connected_components", "complexes.connected_components", "plain"),
    ("simplets.complexes", "Simplet.simplices", "complexes.simplices", "hot"),
    ("simplets.catalog", "generate_catalog", "catalog.generate_catalog", "plain"),
    ("simplets.catalog", "TypeClassifier.index_of", "catalog.classify", "hot"),
    ("simplets.exact", "enumerate_connected_subsets", "exact.enumerate", "iter"),
    ("simplets.exact", "exact_counts", "exact.exact_counts", "plain"),
    ("simplets.sampler", "burn_in_steps", "sampler.burn_in_steps", "plain"),
    ("simplets.sampler", "SimpletSampler.__init__", "sampler.init", "sampler"),
    ("simplets.sampler", "SimpletSampler.sample", "sampler.sample", "sampler"),
    ("simplets.approx", "approximate_sfd", "approx.approximate_sfd", "plain"),
    ("simplets.approx", "empirical_sfd", "approx.empirical_sfd", "plain"),
    ("simplets.generate", "generate", "generate.generate", "plain"),
)


def replace(module_name: str, path: str, make_wrapper) -> None:
    """Replace ``module.path`` (a function or ``Class.method``) by
    ``make_wrapper(original)``; modules that imported the function by name
    get the wrapper too."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    if outer:
        return
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "simplets" or name.startswith("simplets.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every target in place."""
    kinds = {
        "plain": tracer.timed,
        "hot": lambda name, fn: tracer.timed(name, fn, hot=True),
        "iter": tracer.timed_iter,
        "sampler": tracer.sampler_method,
    }
    for module_name, path, span_name, kind in TARGETS:
        replace(module_name, path, lambda fn: kinds[kind](span_name, fn))


def load_spans(out_dir: Path) -> list[list[dict]]:
    """Spans of every process of a run, one list per process."""
    return [json.loads(path.read_text()) for path in sorted(out_dir.glob("spans-*.json"))]


def self_times(spans: list[dict]) -> list[float]:
    """Busy time of each span minus the busy time of its direct children."""
    child_busy = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_busy[span["parent"]] += span["busy"]
    return [span["busy"] - child for span, child in zip(spans, child_busy)]
