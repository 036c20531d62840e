"""The growth sampler: its exact output law, its DP and its draws.

Each proposal outputs a given simplet with a probability that
``oracles.acceptance_law`` computes exactly, so uniformity is checked as an
identity of fractions rather than estimated from draws; the draws are then
checked against that law.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from scipy import stats

from simplets import (
    GenSpec,
    GrowthSampler,
    InputError,
    StructuralError,
    build_complex,
    enumerate_connected_subsets,
    generate,
    induced_subcomplex,
)
from simplets.growth import _orderings

from . import oracles
from .test_sampler import small_test_complexes


def _uniform_constant(complex_, m):
    """The one probability that a proposal outputs each state."""
    _, weights = oracles.growth_weights(complex_, m)
    return Fraction(1, complex_.vertex_count * sum(weights))


def test_acceptance_law_matches_brute_force_over_orderings():
    complexes = small_test_complexes() + [(oracles.lopsided(8, 2, 5), 4), (oracles.lopsided(5, 1, 3, True), 5)]
    for complex_, m in complexes:
        sums, law = oracles.brute_acceptance_law(complex_, m)
        assert oracles.ordering_sums(complex_, m) == sums
        assert oracles.acceptance_law(complex_, m) == law


def _assert_one_constant(complex_, m):
    law = oracles.acceptance_law(complex_, m)
    assert len(law) == sum(1 for _ in enumerate_connected_subsets(complex_, m))
    assert set(law.values()) == {_uniform_constant(complex_, m)}


@pytest.mark.parametrize("complex_, m", oracles.lopsided_zoo())
def test_acceptance_law_is_one_constant_on_the_lopsided_zoo(complex_, m):
    assert 1_000 <= sum(1 for _ in enumerate_connected_subsets(complex_, m)) <= 2_000
    _assert_one_constant(complex_, m)


@pytest.mark.parametrize("n, seed", [(12, 1), (14, 2)])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_acceptance_law_is_one_constant_on_small_flag_complexes(n, seed, m):
    _assert_one_constant(generate(GenSpec("flag", n, 0.45, seed=seed)), m)


@pytest.mark.slow
@pytest.mark.parametrize("m", [4, 5, 6])
def test_acceptance_law_is_one_constant_on_a_flag_complex_of_40_vertices(m):
    complex_ = generate(GenSpec("flag", 40, 0.12, seed=1))
    if m == 6:
        assert sum(1 for _ in enumerate_connected_subsets(complex_, m)) == 85_016
    _assert_one_constant(complex_, m)


@pytest.mark.parametrize("complex_, m", oracles.lopsided_zoo()[::2])
def test_sampler_dp_matches_the_oracle(complex_, m):
    # f(S) does not depend on the order the sampler grew S in; try two
    degrees = [len(near) for near in complex_.adjacency]
    for state, f in oracles.ordering_sums(complex_, m).items():
        for order in (list(state), list(reversed(state))):
            value = _orderings(complex_.adjacency, order, [degrees[v] for v in order])
            assert math.isclose(value, f, rel_tol=1e-12)


@pytest.mark.parametrize("complex_, m, seed, count", [
    (oracles.lopsided(6, 1, 3, filled=True), 4, 3, 200),
    (oracles.lopsided(5, 2, 4), 5, 8, 100),
    (generate(GenSpec("flag", 14, 0.45, seed=2)), 6, 1, 10),
])
def test_sampler_matches_the_exact_reference_stream(complex_, m, seed, count):
    sampler = GrowthSampler(complex_, m, rng_seed=seed)
    draws = [sampler.sample().vertices for _ in range(count)]
    assert draws == oracles.reference_growth(complex_, m, seed, count)


def _chi_square(complex_, m, per_state, seed):
    states = sorted(enumerate_connected_subsets(complex_, m))
    sampler = GrowthSampler(complex_, m, rng_seed=seed)
    tallies = Counter(sampler.sample().vertices for _ in range(per_state * len(states)))
    assert set(tallies) <= set(states)
    return stats.chisquare([tallies[s] for s in states]).pvalue


def test_draws_are_uniform_on_a_small_lopsided_complex():
    assert _chi_square(oracles.lopsided(4, 1, 3, filled=True), 4, 100, seed=5) >= 0.001


@pytest.mark.slow
def test_draws_are_uniform_on_the_lopsided_k8_path_k5_complex():
    complex_ = oracles.lopsided(8, 2, 5)
    assert sum(1 for _ in enumerate_connected_subsets(complex_, 4)) == 234
    assert _chi_square(complex_, 4, 200, seed=2) >= 0.001


def test_samples_are_connected_induced_simplets_of_a_disconnected_host():
    # a filled triangle, a path of two edges and an isolated vertex
    complex_ = build_complex([{0, 1, 2}, {3, 4}, {4, 5}, {6}], 7)
    sampler = GrowthSampler(complex_, 3, rng_seed=4)
    seen = set()
    for _ in range(400):
        simplet = sampler.sample()
        assert induced_subcomplex(complex_, simplet.vertices) == simplet
        assert 2 <= len(simplet) <= 3
        seen.add(simplet.vertices)
    assert seen == set(enumerate_connected_subsets(complex_, 3))


def test_counters_and_seeded_streams():
    complex_ = oracles.lopsided(6, 1, 3)
    one, two = GrowthSampler(complex_, 4, rng_seed=9), GrowthSampler(complex_, 4, rng_seed=9)
    draws = [one.sample() for _ in range(300)]
    assert draws == [two.sample() for _ in range(300)]
    assert one.accepted == 300
    assert one.proposals > one.pre_rejects + one.dps >= one.dps > one.accepted
    other = GrowthSampler(complex_, 4, rng_seed=10)
    assert [other.sample() for _ in range(300)] != draws


def test_set_up_needs_no_diameter_and_no_bitsets():
    complex_ = generate(GenSpec("flag", 60, 0.1, seed=3))
    sampler = GrowthSampler(complex_, 5, rng_seed=1)
    for _ in range(20):
        sampler.sample()
    assert complex_._bits is None
    assert complex_._diameter is None


@pytest.mark.parametrize("m", [2, 3.5, 4.0, True, "4", None])
def test_m_must_be_an_integer_of_at_least_3(m, path4):
    with pytest.raises(InputError):
        GrowthSampler(path4, m)


@pytest.mark.parametrize("seed", [1.5, "1", None])
def test_seed_must_be_an_integer(seed, path4):
    with pytest.raises(InputError, match="rng_seed"):
        GrowthSampler(path4, 3, rng_seed=seed)


def test_a_complex_with_no_edge_is_rejected():
    with pytest.raises(StructuralError):
        GrowthSampler(build_complex([{0}, {1}, {2}], 3), 3)


@pytest.mark.parametrize("complex_, m", [*oracles.lopsided_zoo(), (build_complex([{0, 1, 2}], 3), 4)])
def test_size_weights_are_the_oracles(complex_, m):
    bounds, weights = oracles.growth_weights(complex_, m)
    expected = [(bounds[: k - 1], weight) for k, weight in enumerate(weights, 2)]
    assert GrowthSampler(complex_, m)._sizes == expected
