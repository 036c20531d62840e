"""Regenerate ``pins.json``: the pinned inputs and reference outputs.

For each workload it generates ``CANDIDATES`` inputs from generator seeds
0, 1, ..., measures how much work each gives, and pins the ``KEEP`` inputs
whose work is closest to the median, so every benchmark seed runs an input of
about the same size.  For ``exact`` the work is the number of simplets.  For
the sampling workloads only the inputs with the most common (diameter, max
degree) are eligible, so every pinned input has the same burn-in and the
walk takes the same number of steps; among them the work is the edge count,
since the cost of a step grows with the density.  It then records each kept
input's profile, content hash and the reference outputs the benchmark
checks against, computed with the package as it is.

Run from the repository root; it rewrites the whole file, the full and the
smoke workloads, and takes several minutes:

    PYTHONPATH=src python3 perfbench/pin_inputs.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    PINS_PATH,
    SMOKE_WORKLOADS,
    WORKLOADS,
    input_profile,
    make_input,
    text_hash,
)

# Candidate inputs scanned per workload: enough that KEEP of them share the
# most common (diameter, max degree); validate-lm's groups are smaller.  At
# n=30 the m=5 simplet count varies widely, so exact-m5 scans many more to
# keep ten of nearly the same count.
CANDIDATES = {
    "full": {"approx-n500": 40, "exact-m5": 200, "validate-lm": 80},
    "smoke": {"approx-n500": 12, "exact-m5": 12, "validate-lm": 12},
}
KEEP = {"full": 10, "smoke": 4}


def _work(workload, complex_, profile) -> float:
    from simplets import enumerate_connected_subsets

    if workload.command == "exact":
        return sum(1 for _ in enumerate_connected_subsets(complex_, workload.m))
    return profile["edges"]


def _group(profile: dict):
    """Inputs of one group get the same burn-in (``exact`` has one group)."""
    return (profile["diameter"], profile["max_degree"]) if "diameter" in profile else None


def _reference(workload, complex_) -> dict:
    from simplets import exact_counts, generate_catalog

    sfd = exact_counts(complex_, generate_catalog(workload.m))
    if workload.command == "approx":
        return {"frequencies": list(sfd.frequencies)}
    return {"counts": list(sfd.counts)}


def pin_workload(workload, candidates: int, keep: int) -> dict:
    scanned = []
    for gen_seed in range(candidates):
        complex_, text = make_input(workload, gen_seed)
        profile = input_profile(complex_, workload)
        work = _work(workload, complex_, profile)
        scanned.append((gen_seed, complex_, text, profile, work))
        print(f"  {workload.name} gen_seed={gen_seed} work={work} {profile}", file=sys.stderr)
    modal, size = Counter(_group(row[3]) for row in scanned).most_common(1)[0]
    if size < keep:
        raise SystemExit(f"{workload.name}: only {size} inputs share {modal}; scan more candidates")
    eligible = [row for row in scanned if _group(row[3]) == modal]
    middle = statistics.median(w for *_, w in eligible)
    chosen = sorted(eligible, key=lambda row: (abs(row[4] - middle), row[0]))[:keep]
    entries = []
    for gen_seed, complex_, text, profile, work in sorted(chosen, key=lambda row: row[0]):
        t0 = time.perf_counter()
        entries.append(
            {
                "gen_seed": gen_seed,
                "sha256": text_hash(text),
                "profile": profile,
                "work": work,
                "reference": _reference(workload, complex_),
            }
        )
        print(f"  reference for gen_seed={gen_seed}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return {"median_work": middle, "entries": entries}


def main() -> int:
    pins = {}
    for section, table in (("full", WORKLOADS), ("smoke", SMOKE_WORKLOADS)):
        pins[section] = {
            name: pin_workload(workload, CANDIDATES[section][name], KEEP[section])
            for name, workload in table.items()
        }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
