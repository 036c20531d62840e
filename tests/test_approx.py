import functools
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from simplets import (
    GenSpec,
    InputError,
    SFDVector,
    Simplet,
    SimpletSampler,
    WalkConfig,
    approximate_sfd,
    build_complex,
    empirical_sfd,
    enumerate_connected_subsets,
    exact_counts,
    failure_bound,
    generate,
    generate_catalog,
    induced_subcomplex,
    linf_distance,
    required_samples,
)
from simplets import approx as approx_module

from . import bound_experiment, oracles


def test_required_samples_reference_values():
    assert required_samples(0.1, 0.1, 0.5) == 166
    assert required_samples(0.1, 0.01, 0.5) == 281
    assert required_samples(0.1, 0.1, 0.5) == math.ceil(
        0.5 / 0.1**2 * (1 + math.log(1 / 0.1))
    )
    # small constants, raised until failure_bound certifies the count
    assert required_samples(0.1, 0.1, 0.1) == 105
    assert required_samples(0.05, 0.3, 0.2) == 250


def test_required_samples_epsilon_scaling():
    # halving epsilon quadruples the bound, up to the ceilings
    for eps in (0.3, 0.2, 0.1):
        coarse = required_samples(eps, 0.1, 0.5)
        fine = required_samples(eps / 2, 0.1, 0.5)
        assert 4 * coarse - 3 <= fine <= 4 * coarse


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.98),
)
def test_required_samples_monotone(epsilon, delta):
    base = required_samples(epsilon, delta, 0.5)
    assert required_samples(min(0.99, epsilon * 1.5), delta, 0.5) <= base
    assert required_samples(epsilon, min(0.99, delta * 1.01), 0.5) <= base


@pytest.mark.parametrize("eps, delta, c", [(0, 0.1, 0.5), (1, 0.1, 0.5), (0.1, 0, 0.5), (0.1, 1.0, 0.5), (0.1, 0.1, 0)])
def test_required_samples_rejects_out_of_range(eps, delta, c):
    with pytest.raises(InputError):
        required_samples(eps, delta, c)


@pytest.fixture
def no_sampler(monkeypatch):
    """Fail the test if ``approximate_sfd`` builds a sampler."""

    def refuse(*args, **kwargs):
        raise AssertionError("a sampler was built before the constants were checked")

    monkeypatch.setattr(approx_module, "SimpletSampler", refuse)


def test_approx_params_validation(filled_triangle, catalog3, no_sampler):
    with pytest.raises(InputError):
        approximate_sfd(filled_triangle, catalog3, epsilon=1.2, delta=0.1)
    with pytest.raises(InputError):
        approximate_sfd(filled_triangle, catalog3, epsilon=0.1, delta=0.0)
    with pytest.raises(InputError):
        approximate_sfd(filled_triangle, catalog3, epsilon=0.1, delta=0.1, c=-1)
    with pytest.raises(InputError):
        approximate_sfd(filled_triangle, catalog3, epsilon=0.1, delta=0.1, c_mix=0.0)


@pytest.mark.parametrize("eps, delta, c", [
    (math.nan, 0.1, 0.5), (0.1, math.nan, 0.5), (0.1, 0.1, math.nan), (0.1, 0.1, math.inf),
    (0.1, 0.1, 1e308),  # finite constants, infinite bound
    (1e-200, 0.1, 0.5),  # epsilon squared underflows to zero
    (0.1, 5e-324, 0.5),  # 1 / delta overflows
])
def test_non_finite_constants_and_bounds_are_rejected(
    eps, delta, c, filled_triangle, catalog3, no_sampler
):
    with pytest.raises(InputError):
        required_samples(eps, delta, c)
    with pytest.raises(InputError):
        approximate_sfd(filled_triangle, catalog3, epsilon=eps, delta=delta, c=c)


@pytest.mark.parametrize("eps, delta, c, named", [
    ("0.1", 0.1, 0.5, "epsilon"),
    (None, 0.1, 0.5, "epsilon"),
    (0.1, "0.1", 0.5, "delta"),
    (0.1, 0.1, "1", "c"),
    (Decimal("0.1"), 0.1, 0.5, "epsilon"),
])
def test_constants_that_are_not_numbers_are_rejected(
    eps, delta, c, named, filled_triangle, catalog3, no_sampler
):
    with pytest.raises(InputError, match=f"non-real {named}"):
        required_samples(eps, delta, c)
    with pytest.raises(InputError, match=f"non-real {named}"):
        approximate_sfd(filled_triangle, catalog3, epsilon=eps, delta=delta, c=c)


def test_empirical_sfd_indicator_average(filled_triangle, catalog3):
    edge = induced_subcomplex(filled_triangle, {0, 1})
    tri = induced_subcomplex(filled_triangle, {0, 1, 2})
    sfd = empirical_sfd([edge, edge, tri, edge], catalog3)
    assert sfd.mode == "approx"
    assert sfd.total == 4
    assert sorted(f for f in sfd.frequencies if f) == [0.25, 0.75]
    only_edges = empirical_sfd([edge, edge], catalog3)
    assert max(only_edges.frequencies) == 1.0


def test_empirical_sfd_rejects_empty(catalog3):
    with pytest.raises(InputError):
        empirical_sfd([], catalog3)


def test_distances_reference_values():
    a = SFDVector(2, (3, 1))
    assert linf_distance(a, a) == 0.0
    b = SFDVector(2, (1, 0))
    c = SFDVector(2, (0, 1))
    assert linf_distance(b, c) == 1.0
    d = SFDVector(2, (1, 1))
    assert linf_distance(a, d) == pytest.approx(0.25)


def test_distances_reject_mismatched_m(catalog3, catalog4):
    a = SFDVector(3, [1] * len(catalog3))
    b = SFDVector(4, [1] * len(catalog4))
    with pytest.raises(InputError):
        linf_distance(a, b)


def test_approximate_sfd_deterministic(filled_triangle, catalog3):
    one = approximate_sfd(filled_triangle, catalog3, 0.1, 0.1, 0.5, seed=5, c_mix=3.0)
    two = approximate_sfd(filled_triangle, catalog3, 0.1, 0.1, 0.5, seed=5, c_mix=3.0)
    assert one == two
    assert one.total == 166


def test_approximate_sfd_close_to_exact(triangle_with_pendant, catalog3):
    exact = exact_counts(triangle_with_pendant, catalog3)
    approx = approximate_sfd(triangle_with_pendant, catalog3, 0.1, 0.1, 0.5, seed=11, c_mix=4.0)
    assert linf_distance(approx, exact) <= 0.1


@pytest.mark.parametrize(
    "facets, n",
    [
        ([{0, 1, 2}], 3),
        ([{0, 1}, {0, 2}, {0, 3}], 4),
        ([{0, 1, 2}, {2, 3}], 4),
        ([{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}], 5),
    ],
)
def test_guarantee_with_ideal_uniform_sampler(facets, n, catalog3):
    """Monte-Carlo check of the accuracy bound with sampling noise only."""
    complex_ = build_complex(facets, n)
    exact = exact_counts(complex_, catalog3)
    states = [
        Simplet(complex_, vs) for vs in enumerate_connected_subsets(complex_, 3)
    ]
    rng = random.Random(2024)
    epsilon, delta, trials = 0.1, 0.1, 200
    count = required_samples(epsilon, delta, 0.5)
    failures = 0
    for _ in range(trials):
        draws = [states[rng.randrange(len(states))] for _ in range(count)]
        estimate = empirical_sfd(draws, catalog3)
        if linf_distance(estimate, exact) > epsilon:
            failures += 1
    slack = delta + 2 * math.sqrt(delta * (1 - delta) / trials)
    assert failures / trials <= slack


def test_bound_experiment_table_meets_its_gate():
    table = bound_experiment
    rows = table.read_table()
    grid = itertools.product(table.FAMILIES, table.GEN_SEEDS, table.MS, table.EPSILONS)
    assert [(r["family"], r["gen seed"], r["m"], r["epsilon"]) for r in rows] == [
        tuple(map(str, key)) for key in grid
    ]
    for r in rows:
        epsilon, count = float(r["epsilon"]), int(r["count"])
        # the paper's count, certified, and the bound the table reports for it
        assert count == table.paper_count(epsilon) == required_samples(epsilon, table.DELTA)
        assert r["failure_bound"] == f"{failure_bound(count, epsilon):.3g}"
        assert float(r["failure rate"]) <= table.SLACK, r


@pytest.mark.slow
@pytest.mark.parametrize("family, gen_seed, m, epsilon", [("lm", 0, 4, 0.3), ("flag", 1, 5, 0.1)])
def test_bound_experiment_rows_reproduce_within_binomial_noise(family, gen_seed, m, epsilon):
    """Two committed rows re-run on fresh draws."""
    key = tuple(map(str, (family, gen_seed, m, epsilon)))
    rows = bound_experiment.read_table()
    committed = next(r for r in rows if (r["family"], r["gen seed"], r["m"], r["epsilon"]) == key)
    complex_, subsets, exact = bound_experiment.setting(family, gen_seed, m)
    assert len(subsets) == int(committed["subsets"])
    errors = bound_experiment.errors(complex_, subsets, exact, epsilon, "re-run")
    trials = bound_experiment.TRIALS

    def noise(p):  # three standard deviations of the difference of two binomial shares
        p = max(p, 1 / trials)
        return 3 * math.sqrt(2 * p * (1 - p) / trials)

    rate, old = sum(e > epsilon for e in errors) / trials, float(committed["failure rate"])
    assert abs(rate - old) <= noise((rate + old) / 2), (rate, committed)
    # a tenth of the errors lie above the 90th percentile, printed to 4 places
    top = float(committed["p90 error"])
    assert sum(e > top + 5e-5 for e in errors) / trials <= 0.1 + noise(0.1)
    assert sum(e >= top - 5e-5 for e in errors) / trials >= 0.1 - noise(0.1)


def test_mcmc_guarantee_small_complex(catalog3):
    """End-to-end guarantee on a small complex, reduced trial count."""
    complex_ = build_complex([{0, 1, 2}, {2, 3}, {3, 4}], 5)
    exact = exact_counts(complex_, catalog3)
    epsilon, delta, trials = 0.1, 0.1, 60
    count = required_samples(epsilon, delta, 0.5)
    sampler = SimpletSampler(complex_, WalkConfig(m=3, c_mix=2.0, rng_seed=77))
    failures = 0
    for _ in range(trials):
        draws = [sampler.sample() for _ in range(count)]
        if linf_distance(empirical_sfd(draws, catalog3), exact) > epsilon:
            failures += 1
    assert failures / trials <= delta + 2 * math.sqrt(delta * (1 - delta) / trials)


def test_sample_bound_beyond_any_run_is_rejected():
    # finite, but more samples than a list can hold
    with pytest.raises(InputError, match="more than any run can draw"):
        required_samples(0.4, 0.1, 1e300)


def test_miss_probability_matches_enumeration_of_every_draw():
    counts, epsilon = [3, 0, 2, 1], 0.2
    total = sum(counts)
    for n in (1, 2, 3, 4):
        missed = 0.0
        for draws in itertools.product(range(len(counts)), repeat=n):
            if max(abs(draws.count(t) / n - c / total) for t, c in enumerate(counts)) > epsilon:
                missed += math.prod(counts[t] / total for t in draws)
        assert oracles.miss_probability(counts, n, epsilon) == pytest.approx(missed, abs=1e-12)


@functools.cache
def _exact_m5_input_at_m6():
    """The exact SFD vector, at m = 6, of the exact-m5 benchmark input (gen seed 24)."""
    return exact_counts(generate(GenSpec("flag", 30, 8 / 29, seed=24)), generate_catalog(6))


def test_one_sample_misses_on_a_spread_out_sfd():
    exact = _exact_m5_input_at_m6()
    assert sum(1 for count in exact.counts if count) == 138
    assert 0.0704 < max(exact.frequencies) < 0.0705
    # one draw puts all its mass on one type, at least 1 - 0.0705 from its frequency
    assert oracles.miss_probability(exact.counts, 1, 0.8) == 1.0


def test_paper_count_meets_its_guarantee_at_a_large_epsilon():
    # the paper's count is 1 here; failure_bound raises it to 2 draws, which
    # miss with probability 0.029
    epsilon, delta = 0.8, 0.8
    n = required_samples(epsilon, delta)
    assert n == 2
    assert oracles.miss_probability(_exact_m5_input_at_m6().counts, n, epsilon) <= delta


def _grid_supremum(n, epsilon, points=100_000):
    """The largest g(p)/p over p = i/points, with g(p) = P(|Bin(n, p)/n - p| >
    epsilon) from scipy's binomial tails and epsilon at its decimal value."""
    from scipy.stats import binom

    eps = Fraction(repr(epsilon))
    i = np.arange(1, points + 1, dtype=np.int64)
    # n * (i / points +- eps) over the common denominator, floored exactly
    scale = points * eps.denominator
    above = n * (i * eps.denominator + points * eps.numerator) // scale + 1
    below = -(-n * (i * eps.denominator - points * eps.numerator) // scale) - 1
    p = i / points
    return float(np.max((binom.sf(above - 1, n, p) + binom.cdf(below, n, p)) / p))


# failure_bound's values, bit for bit, with epsilon read as the decimal it prints as
_PINNED_BOUNDS = {
    (11, 0.4): "0.02646943785231088",
    (19, 0.3): "0.023816299496056247",
    (166, 0.1): "0.02288414277622232",
    (281, 0.1): "0.001751666912814155",
    (2, 0.8): "0.2015748031496467",
    (15, 0.3): "0.05152532793993043",
    (30, 0.123456789): "0.5723117456559458",
    # the supremum lies just above epsilon, finer than the grid resolves
    (7, 2.5e-07): "4000000.1192114884",
    (40, 1e-05): "100000.76202998194",
}


@pytest.mark.parametrize("n, epsilon", [
    (11, 0.4), (19, 0.3), (166, 0.1), (281, 0.1), (2, 0.8),
    # an upper and a lower threshold step at the same p: a cell across both
    # pairs their worse sides, 0.077 against a supremum of 0.051
    (15, 0.3),
    (30, 0.123456789),
])
def test_failure_bound_is_within_ten_percent_above_a_dense_grid(n, epsilon):
    supremum = _grid_supremum(n, epsilon)
    assert supremum <= failure_bound(n, epsilon) <= 1.1 * supremum
    assert repr(failure_bound(n, epsilon)) == _PINNED_BOUNDS[n, epsilon]


@pytest.mark.parametrize("n, epsilon", [(7, 2.5e-07), (40, 1e-05)])
def test_failure_bound_is_pinned_where_a_grid_cannot_resolve_it(n, epsilon):
    assert repr(failure_bound(n, epsilon)) == _PINNED_BOUNDS[n, epsilon]


def test_required_samples_raises_only_an_uncertified_count():
    # the paper's counts certify, except where they are 1
    for epsilon, delta, count in [(0.4, 0.1, 11), (0.3, 0.1, 19), (0.3, 0.2, 15), (0.1, 0.1, 166)]:
        assert required_samples(epsilon, delta) == count
        assert failure_bound(count, epsilon) <= delta
    assert failure_bound(1, 0.8) > 0.8
    assert required_samples(0.8, 0.8) == 2
    # a small constant is raised to a count that certifies, one above one that does not
    count = required_samples(0.1, 0.1, 0.1)
    assert count > math.ceil(0.1 / 0.1**2 * (1 + math.log(10)))
    assert failure_bound(count, 0.1) <= 0.1 < failure_bound(count - 1, 0.1)


def test_failure_bound_is_computed_once_per_count_and_epsilon():
    # each trial of validate asks for the count, and its JSON for the bound
    failure_bound.cache_clear()
    approx_module._certifies.cache_clear()
    for _ in range(3):
        failure_bound(required_samples(0.35, 0.1), 0.35)
    assert failure_bound.cache_info().misses == 1
    assert approx_module._certifies.cache_info().misses == 1


@pytest.mark.parametrize("n, epsilon", [(0, 0.1), (-1, 0.1), (1.5, 0.1), (5, 0), (5, 1.0), (5, math.nan)])
def test_failure_bound_rejects_bad_arguments(n, epsilon):
    with pytest.raises(InputError):
        failure_bound(n, epsilon)
