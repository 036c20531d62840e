"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured runtimes.  Statistical criteria use fixed seeds, so the
whole suite is deterministic.
"""

import math
import random
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from simplets import (
    GenSpec,
    GrowthSampler,
    Simplet,
    SimpletSampler,
    WalkConfig,
    build_complex,
    empirical_sfd,
    enumerate_connected_subsets,
    exact_counts,
    generate,
    generate_catalog,
    largest_connected_restriction,
    linf_distance,
    required_samples,
    skeleton_diameter,
    state_degree,
    transition_matrix,
)

from . import oracles
from .conftest import random_complexes
from .test_sampler import small_test_complexes


def report(number: int, detail: str, elapsed: float, budget: float | None = None) -> None:
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"\ncriterion {number}: PASS — {detail} ({elapsed:.2f}s{budget_note})")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_catalog_cardinality():
    start = time.perf_counter()
    sizes = {m: len(generate_catalog(m)) for m in (2, 3, 4)}
    elapsed = time.perf_counter() - start
    assert sizes == {2: 1, 3: 4, 4: 18}
    report(1, f"catalog sizes m=2,3,4 -> {sizes[2]}, {sizes[3]}, {sizes[4]}", elapsed, budget=1.0)


def test_criterion_2_oracle_equivalence(catalog3, catalog4):
    start = time.perf_counter()
    complexes = random_complexes(50, max_n=12, seed=4242)
    checked = 0
    for complex_ in complexes:
        for catalog in (catalog3, catalog4):
            expected = oracles.classify_counts(complex_, catalog)
            if sum(expected) == 0:
                continue
            assert list(exact_counts(complex_, catalog).counts) == expected
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 90
    report(2, f"{len(complexes)} random complexes x m in (3,4): exact == naive oracle", elapsed, budget=60.0)


def test_criterion_3_transition_matrix_properties():
    start = time.perf_counter()
    complexes = small_test_complexes()
    assert len(complexes) >= 10
    for complex_, m in complexes:
        states, matrix = transition_matrix(complex_, m)
        assert len(states) <= 60
        assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) <= 1e-12
        assert np.array_equal(matrix, matrix.T)
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in np.flatnonzero(matrix[i] > 0):
                if j != i and j not in seen:
                    seen.add(int(j))
                    frontier.append(int(j))
        assert len(seen) == len(states)
        dist = np.zeros(len(states))
        dist[0] = 1.0
        uniform = np.full(len(states), 1.0 / len(states))
        for _ in range(200_000):
            dist = dist @ matrix
            if np.max(np.abs(dist - uniform)) <= 1e-12:
                break
        assert np.max(np.abs(dist - uniform)) <= 1e-9
    elapsed = time.perf_counter() - start
    report(3, f"{len(complexes)} complexes: row sums, symmetry, connectivity, uniform limit", elapsed, budget=10.0)


def test_criterion_4_degree_bound():
    start = time.perf_counter()
    # exhaustive over every state of the small zoo
    for complex_, m in small_test_complexes():
        bound = m * complex_.max_degree + m + m * (m - 1) * complex_.max_degree
        for state in enumerate_connected_subsets(complex_, m):
            assert state_degree(complex_, state, m) <= bound
    # sampled states of a large generated complex
    m = 4
    big = generate(GenSpec("flag", 500, 8.0 / 499, seed=11))
    bound = m * big.max_degree + m + m * (m - 1) * big.max_degree
    rng = random.Random(13)
    edges = big.edges()
    checked = 0
    while checked < 10_000:
        state = set(edges[rng.randrange(len(edges))])
        while len(state) < m and rng.random() < 0.7:
            frontier = sorted(set().union(*(big.adjacency[v] for v in state)) - state)
            if not frontier:
                break
            state.add(frontier[rng.randrange(len(frontier))])
        assert state_degree(big, tuple(sorted(state)), m) <= bound
        checked += 1
    elapsed = time.perf_counter() - start
    report(4, f"degree <= m*D+m+m(m-1)*D exhaustively and on {checked} sampled states (n=500)", elapsed, budget=60.0)


def _uniformity_check(complex_, m, c_mix, draws, seed):
    sampler = SimpletSampler(complex_, WalkConfig(m=m, c_mix=c_mix, rng_seed=seed))
    states = sorted(enumerate_connected_subsets(complex_, m))
    tallies = Counter(sampler.sample().vertices for _ in range(draws))
    observed = [tallies.get(s, 0) for s in states]
    max_dev = max(abs(o / draws - 1.0 / len(states)) for o in observed)
    p_value = stats.chisquare(observed).pvalue
    return len(states), max_dev, p_value


def test_criterion_5_sampler_uniformity():
    start = time.perf_counter()
    triangle = build_complex([{0, 1, 2}], 3)
    count, dev, p = _uniformity_check(triangle, m=3, c_mix=3.0, draws=40_000, seed=2025)
    assert count == 4
    assert dev <= 0.01
    assert p >= 0.001
    cycle5 = build_complex([{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}], 5)
    count5, dev5, p5 = _uniformity_check(cycle5, m=3, c_mix=3.0, draws=40_000, seed=2025)
    assert count5 >= 10
    assert dev5 <= 0.01
    assert p5 >= 0.001
    elapsed = time.perf_counter() - start
    report(
        5,
        f"40k samples: max deviation {dev:.4f}/{dev5:.4f} <= 0.01, chi2 p {p:.3f}/{p5:.3f} >= 0.001",
        elapsed,
        budget=120.0,
    )


def _criterion_complex():
    spec = GenSpec("flag", 50, 0.15, seed=7)
    restricted, _ = largest_connected_restriction(generate(spec))
    return restricted


def test_criterion_6_guarantee_ideal_sampler(catalog4):
    start = time.perf_counter()
    complex_ = _criterion_complex()
    exact = exact_counts(complex_, catalog4)
    simplets = [Simplet(complex_, vs) for vs in enumerate_connected_subsets(complex_, 4)]
    epsilon, delta, trials = 0.1, 0.1, 200
    count = required_samples(epsilon, delta, 0.5)
    assert count == 166
    rng = random.Random(6006)
    failures = 0
    for _ in range(trials):
        draws = [simplets[rng.randrange(len(simplets))] for _ in range(count)]
        if linf_distance(empirical_sfd(draws, catalog4), exact) > epsilon:
            failures += 1
    threshold = delta + 2.0 * math.sqrt(delta * (1.0 - delta) / trials)
    elapsed = time.perf_counter() - start
    assert failures / trials <= threshold
    report(
        6,
        f"ideal sampler: {failures}/{trials} failures ({failures / trials:.3f}) <= {threshold:.4f}",
        elapsed,
        budget=120.0,
    )


def test_criterion_7_guarantee_mcmc(catalog4):
    # c is not fixed by the bound itself; this check uses c = 0.5 throughout.
    start = time.perf_counter()
    complex_ = _criterion_complex()
    exact = exact_counts(complex_, catalog4)
    epsilon, delta, trials = 0.1, 0.1, 200
    count = required_samples(epsilon, delta, 0.5)
    # default burn-in (c_mix = 1); one sampler shared across trials: every
    # sample is an independent fresh chain, trials just group them
    sampler = SimpletSampler(complex_, WalkConfig(m=4, rng_seed=2024))
    failures = 0
    for _ in range(trials):
        draws = [sampler.sample() for _ in range(count)]
        if linf_distance(empirical_sfd(draws, catalog4), exact) > epsilon:
            failures += 1
    threshold = delta + 2.0 * math.sqrt(delta * (1.0 - delta) / trials)
    elapsed = time.perf_counter() - start
    assert failures / trials <= threshold
    report(
        7,
        f"MCMC sampler (burn-in {sampler.burn_in}): {failures}/{trials} failures "
        f"({failures / trials:.3f}) <= {threshold:.4f}",
        elapsed,
        budget=900.0,
    )


def test_criterion_8_sample_count_formula():
    start = time.perf_counter()
    first = required_samples(0.1, 0.1, 0.5)
    second = required_samples(0.1, 0.01, 0.5)
    assert first == 166
    assert second == 281
    elapsed = time.perf_counter() - start
    report(8, f"required_samples: {first} and {second}", elapsed)


def test_criterion_9_scaling_profile():
    start = time.perf_counter()
    target_diameter = 5
    per_sample = {}
    details = []
    count = required_samples(0.1, 0.1, 0.5)
    for size in (100, 200, 400):
        p_edge = 8.0 / (size - 1)
        for seed in range(25):
            complex_, _ = largest_connected_restriction(
                generate(GenSpec("flag", size, p_edge, seed=seed))
            )
            diameter = skeleton_diameter(complex_)
            if diameter.value == target_diameter and complex_.vertex_count >= 0.95 * size:
                break
        else:
            pytest.fail(f"no seed with diameter {target_diameter} at n={size}")
        sampler = SimpletSampler(complex_, WalkConfig(m=4, rng_seed=42))
        for _ in range(5):  # warm up caches before timing
            sampler.sample()
        t0 = time.perf_counter()
        for _ in range(count):
            sampler.sample()
        per_sample[size] = (time.perf_counter() - t0) / count
        details.append(
            f"n={complex_.vertex_count} deg<={complex_.max_degree} diam={diameter.value} "
            f"burn={sampler.burn_in} {per_sample[size] * 1000:.1f}ms/sample"
        )
    ratio = per_sample[400] / per_sample[100]
    elapsed = time.perf_counter() - start
    assert ratio < 3.0, f"per-sample time ratio {ratio:.2f} not clearly sublinear"
    report(9, f"{'; '.join(details)}; ratio(400/100)={ratio:.2f} < 3.0", elapsed)


def test_guarantee_growth_sampler(catalog4):
    # criteria 6 and 7's check, with the growth sampler's exactly uniform,
    # independent samples in place of the ideal sampler's and the walk's
    start = time.perf_counter()
    complex_ = _criterion_complex()
    exact = exact_counts(complex_, catalog4)
    epsilon, delta, trials = 0.1, 0.1, 200
    count = required_samples(epsilon, delta, 0.5)
    assert count == 166
    sampler = GrowthSampler(complex_, 4, rng_seed=2026)
    failures = 0
    for _ in range(trials):
        draws = [sampler.sample() for _ in range(count)]
        if linf_distance(empirical_sfd(draws, catalog4), exact) > epsilon:
            failures += 1
    threshold = delta + 2.0 * math.sqrt(delta * (1.0 - delta) / trials)
    elapsed = time.perf_counter() - start
    assert failures / trials <= threshold
    print(
        f"\ngrowth sampler guarantee: PASS — {failures}/{trials} failures "
        f"({failures / trials:.3f}) <= {threshold:.4f} ({elapsed:.2f}s)"
    )
