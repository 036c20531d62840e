"""The paper's experiment: how much slack the sample count leaves on random
complexes, for an ideal sampler.

For each row, a trial draws the paper's count of simplets uniformly, with
replacement, from all connected vertex sets of size 2..m, estimates the SFD
vector with ``empirical_sfd`` and scores its L-infinity error against
``exact_counts``.  The table lists, per row, the count, ``failure_bound`` at
that count, the share of trials whose error exceeds epsilon, and the 90th
percentile of the error.  Regenerate ``tests/bound_experiment.md`` (about
20 s on a 2-vCPU VM) with::

    PYTHONPATH=src python -m tests.bound_experiment
"""

from __future__ import annotations

import math
import random
import statistics
import time
from pathlib import Path

from simplets import (
    GenSpec,
    Simplet,
    empirical_sfd,
    enumerate_connected_subsets,
    exact_counts,
    failure_bound,
    generate,
    generate_catalog,
    largest_connected_restriction,
    linf_distance,
)

TABLE = Path(__file__).with_name("bound_experiment.md")

N = 40
FAMILIES = {
    "flag": lambda seed: GenSpec("flag", N, 8 / (N - 1), seed=seed),  # average degree 8
    "lm": lambda seed: GenSpec("lm", N, 0.25, p_tri=0.7, p_tet=0.7, seed=seed),
}
GEN_SEEDS = (0, 1)
MS = (3, 4, 5)
EPSILONS = (0.05, 0.1, 0.2, 0.3)
DELTA = 0.1
C = 0.5
TRIALS = 200
# the largest failure rate the gate accepts: delta plus two binomial standard deviations
SLACK = DELTA + 2 * math.sqrt(DELTA * (1 - DELTA) / TRIALS)

COLUMNS = (
    "family", "gen seed", "m", "subsets", "types met", "epsilon", "count",
    "failure_bound", "failure rate", "p90 error", "epsilon / p90",
)


def paper_count(epsilon: float) -> int:
    """``ceil((c / epsilon^2) * (1 + ln(1/delta)))``, as ``required_samples`` starts from."""
    return math.ceil(C / (epsilon * epsilon) * (1 + math.log(1.0 / DELTA)))


def setting(family: str, gen_seed: int, m: int):
    """The complex (largest component), its connected sets in sorted order,
    and their exact SFD vector."""
    complex_ = largest_connected_restriction(generate(FAMILIES[family](gen_seed))).complex
    subsets = sorted(enumerate_connected_subsets(complex_, m))
    return complex_, subsets, exact_counts(complex_, generate_catalog(m))


def errors(complex_, subsets, exact, epsilon: float, run: str) -> list[float]:
    """The L-infinity errors of ``TRIALS`` ideal-sampler estimates drawn with
    the paper's count, from a generator seeded by ``run``."""
    rng = random.Random(run)
    catalog, count = generate_catalog(exact.catalog_m), paper_count(epsilon)
    out = []
    for _ in range(TRIALS):
        draws = [Simplet(complex_, subsets[rng.randrange(len(subsets))]) for _ in range(count)]
        out.append(linf_distance(empirical_sfd(draws, catalog), exact))
    return out


def row(family: str, gen_seed: int, m: int, epsilon: float, setup) -> dict:
    """One table row, from the ``setting`` of its family, seed and m."""
    complex_, subsets, exact = setup
    errs = errors(complex_, subsets, exact, epsilon, f"table {family} {gen_seed} {m} {epsilon}")
    count = paper_count(epsilon)
    top = sorted(errs)[math.ceil(0.9 * TRIALS) - 1]  # the nearest-rank 90th percentile
    return {
        "family": family,
        "gen seed": gen_seed,
        "m": m,
        "subsets": len(subsets),
        "types met": sum(1 for c in exact.counts if c),
        "epsilon": epsilon,
        "count": count,
        "failure_bound": f"{failure_bound(count, epsilon):.3g}",
        "failure rate": f"{sum(e > epsilon for e in errs) / TRIALS:.3f}",
        "p90 error": f"{top:.4f}",
        "epsilon / p90": f"{epsilon / top:.2f}",
    }


def read_table() -> list[dict]:
    """The committed rows, as the strings written."""
    lines = [line for line in TABLE.read_text(encoding="utf-8").splitlines() if line.startswith("|")]
    head, rows = lines[0], lines[2:]
    names = [cell.strip() for cell in head.strip("|").split("|")]
    return [dict(zip(names, (cell.strip() for cell in line.strip("|").split("|")))) for line in rows]


def main() -> None:
    start = time.perf_counter()
    rows = []
    for family in FAMILIES:
        for gen_seed in GEN_SEEDS:
            for m in MS:
                setup = setting(family, gen_seed, m)
                rows.extend(row(family, gen_seed, m, eps, setup) for eps in EPSILONS)
    ratios = [float(r["epsilon / p90"]) for r in rows]
    worst = max(float(r["failure rate"]) for r in rows)
    lines = [
        "# The sample count on random complexes",
        "",
        "Written by `PYTHONPATH=src python -m tests.bound_experiment`.  Each row",
        f"runs {TRIALS} trials of an ideal sampler: the paper's count",
        f"(c = {C}, delta = {DELTA}) of uniform draws, with replacement, from the",
        f"connected sets of size 2..m of the largest component of an n = {N} complex",
        "(flag: average degree 8; lm: p_edge 0.25, p_tri 0.7, p_tet 0.7).  The",
        "failure rate is the share of trials whose L-infinity error exceeds",
        "epsilon; p90 error is the 90th percentile (nearest rank) of that error.",
        "",
        "| " + " | ".join(COLUMNS) + " |",
        "|" + "---|" * len(COLUMNS),
        *("| " + " | ".join(str(r[c]) for c in COLUMNS) + " |" for r in rows),
        "",
        f"Largest failure rate: {worst:.3f}, against delta = {DELTA} and the gate "
        f"{SLACK:.3f}.",
        f"epsilon / p90: {min(ratios):.2f} to {max(ratios):.2f}, median "
        f"{statistics.median(ratios):.2f}.",
        "",
    ]
    TABLE.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {len(rows)} rows to {TABLE} in {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
