"""One fresh-interpreter run of a ``simplets`` command, started by ``run.py``.

    python3 child.py run   OUT_DIR -- ARGV...   run ``simplets.cli.main(ARGV)``
    python3 child.py trace OUT_DIR -- ARGV...   run it with spans, write them to OUT_DIR
    python3 child.py micro OUT_DIR FACETS M SEED   fixed-input kernel microbenchmarks

``run`` writes ``time.monotonic()`` to ``OUT_DIR/first-work`` when the
command reaches its first unit of work (its first sample, or the start of
exact counting); the parent started its clock, on the same system-wide
monotonic clock, just before starting this interpreter, so the difference is
the command's set-up time.  The stamp costs one check per sample.
"""

import sys


def _run(out_dir, argv):
    """Run ``simplets.cli.main(argv)``, writing ``time.monotonic()`` to
    ``OUT_DIR/first-work`` when the command first reaches a unit of work."""
    import os
    import time

    import simplets.cli
    from tracer import replace

    reached = []

    def stamp_first(fn):
        def first_work(*args, **kwargs):
            if not reached:
                reached.append(time.monotonic())
                with open(os.path.join(out_dir, "first-work"), "w", encoding="utf-8") as handle:
                    handle.write(repr(reached[0]))
            return fn(*args, **kwargs)

        return first_work

    replace("simplets.sampler", "SimpletSampler.sample", stamp_first)
    replace("simplets.exact", "exact_counts", stamp_first)
    return simplets.cli.main(argv)


def _trace(out_dir, argv):
    from pathlib import Path

    import simplets.cli
    import tracer

    spans = tracer.Tracer(Path(out_dir))
    tracer.install(spans)
    spans.follow_forks()
    try:
        return spans.timed("cli.main", simplets.cli.main)(argv)
    finally:
        spans.dump()


def _micro(facets, m, seed):
    """Per-call time of the walk's degree kernel (``SimpletSampler._degree``
    with its cache cleared) and of ``TypeClassifier.index_of`` over a seeded
    set of connected vertex sets of the input, so the number does not depend
    on the path a walk takes."""
    import json
    import random
    import statistics
    import time

    from simplets import (
        Simplet,
        SimpletSampler,
        TypeClassifier,
        WalkConfig,
        generate_catalog,
        largest_connected_restriction,
        load_complex,
    )

    complex_, _labels = load_complex(facets)
    # The sampler needs a connected host; the exact workload's input need not be.
    complex_ = largest_connected_restriction(complex_).complex
    adj = complex_.adjacency
    rng = random.Random(seed)
    roots = [v for v in range(complex_.vertex_count) if adj[v]]
    states = []
    # Sizes m-1 and m alternate: from a full state the walk proposes swaps
    # (size m) and removals (size m-1), and most simplets have m vertices.
    for i in range(4000):
        chosen = [rng.choice(roots)]
        frontier = set(adj[chosen[0]])
        while len(chosen) < m - i % 2 and frontier:
            w = rng.choice(sorted(frontier))
            chosen.append(w)
            frontier = (frontier | adj[w]).difference(chosen)
        states.append(tuple(sorted(chosen)))

    def per_call_us(fn, passes=5):
        times = []
        for _ in range(passes):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) / len(states) * 1e6)
        return statistics.median(times)

    sampler = SimpletSampler(complex_, WalkConfig(m=m, burn_in=1))
    degree_cache = sampler._degree_cache

    def degrees():
        degree_cache.clear()  # every call computes, as on a state the walk has not seen
        return [sampler._degree(s) for s in states]

    classifier = TypeClassifier(generate_catalog(m))
    simplets = [Simplet(complex_, s) for s in states]
    degree_sum = sum(degrees())  # warm-up pass
    for simplet in simplets:
        classifier.index_of(simplet)  # fills the classifier's cache
    result = {
        "state_degree_us": per_call_us(degrees),
        "classify_us": per_call_us(lambda: [classifier.index_of(x) for x in simplets]),
        "states": len(states),
        "degree_sum": degree_sum,
    }
    print(json.dumps(result))
    return 0


def main(args):
    mode, out_dir, rest = args[0], args[1], args[2:]
    if mode == "micro":
        return _micro(rest[0], int(rest[1]), int(rest[2]))
    argv = rest[1:] if rest[:1] == ["--"] else rest
    return {"run": _run, "trace": _trace}[mode](out_dir, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
