import math
import random

import pytest
from hypothesis import given, strategies as st

from simplets import (
    ApproxParams,
    InputError,
    Simplet,
    SimpletSampler,
    WalkConfig,
    approximate_sfd,
    build_complex,
    empirical_sfd,
    enumerate_connected_subsets,
    exact_counts,
    induced_subcomplex,
    linf_distance,
    required_samples,
    sfd_from_counts,
)


def test_required_samples_reference_values():
    assert required_samples(0.1, 0.1, 0.5) == 166
    assert required_samples(0.1, 0.01, 0.5) == 281
    assert required_samples(0.1, 0.1, 0.5) == math.ceil(
        0.5 / 0.1**2 * (1 + math.log(1 / 0.1))
    )


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


def test_approx_params_validation():
    with pytest.raises(InputError):
        ApproxParams(epsilon=1.2, delta=0.1)
    with pytest.raises(InputError):
        ApproxParams(epsilon=0.1, delta=0.0)
    with pytest.raises(InputError):
        ApproxParams(epsilon=0.1, delta=0.1, c=-1)


@pytest.mark.parametrize("eps, delta, c", [
    (math.nan, 0.1, 0.5), (0.1, math.nan, 0.5), (0.1, 0.1, math.nan), (0.1, 0.1, math.inf),
    (0.1, 0.1, 1e308),  # finite constants, infinite bound
    (1e-200, 0.1, 0.5),  # epsilon squared underflows to zero
    (0.1, 5e-324, 0.5),  # 1 / delta overflows
])
def test_non_finite_constants_and_bounds_are_rejected(eps, delta, c):
    with pytest.raises(InputError):
        required_samples(eps, delta, c)
    with pytest.raises(InputError):
        ApproxParams(epsilon=eps, delta=delta, c=c)


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
    a = sfd_from_counts((3, 1), 2)
    assert linf_distance(a, a) == 0.0
    b = sfd_from_counts((1, 0), 2)
    c = sfd_from_counts((0, 1), 2)
    assert linf_distance(b, c) == 1.0
    d = sfd_from_counts((1, 1), 2)
    assert linf_distance(a, d) == pytest.approx(0.25)


def test_distances_reject_mismatched_m(catalog3, catalog4):
    a = sfd_from_counts([1] * len(catalog3), 3)
    b = sfd_from_counts([1] * len(catalog4), 4)
    with pytest.raises(InputError):
        linf_distance(a, b)


def test_approximate_sfd_deterministic(filled_triangle, catalog3):
    params = ApproxParams(0.1, 0.1, 0.5, WalkConfig(m=3, c_mix=3.0, rng_seed=5))
    one = approximate_sfd(filled_triangle, catalog3, params)
    two = approximate_sfd(filled_triangle, catalog3, params)
    assert one == two
    assert one.total == 166


def test_approximate_sfd_m_mismatch(filled_triangle, catalog4):
    params = ApproxParams(0.1, 0.1, 0.5, WalkConfig(m=3))
    with pytest.raises(InputError):
        approximate_sfd(filled_triangle, catalog4, params)


def test_approximate_sfd_close_to_exact(triangle_with_pendant, catalog3):
    exact = exact_counts(triangle_with_pendant, catalog3)
    params = ApproxParams(0.1, 0.1, 0.5, WalkConfig(m=3, c_mix=4.0, rng_seed=11))
    approx = approximate_sfd(triangle_with_pendant, catalog3, params)
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
