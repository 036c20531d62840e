"""The walk's exact output law, from the sparse transition matrix.

A sample is the state of a fresh chain after ``burn_in`` steps from a
uniform edge, so the law it is drawn from can be computed exactly rather
than estimated from draws: ``oracles.exact_output_law``.
"""

import functools
from itertools import combinations

import numpy as np
import pytest

from simplets import (
    Simplet,
    build_complex,
    burn_in_steps,
    exact_counts,
    generate_catalog,
    skeleton_diameter,
    transition_matrix,
)
from simplets.sampler import DEFAULT_C_MIX

from . import oracles
from .test_acceptance import _criterion_complex
from .test_sampler import small_test_complexes


def test_exact_output_law_equals_the_dense_evolution():
    for complex_, m in small_test_complexes():
        states, matrix = transition_matrix(complex_, m)
        start = np.zeros(len(states))
        start[[states.index(e) for e in complex_.edges()]] = 1.0 / len(complex_.edges())
        for steps in (0, 1, 2, 7, 40):
            sparse_states, law = oracles.exact_output_law(complex_, m, steps)
            assert sparse_states == states
            dense = start @ np.linalg.matrix_power(matrix, steps)
            assert np.max(np.abs(law - dense)) <= 1e-12


def test_walk_law_on_the_criterion_complex_is_uniform_at_its_default_burn_in():
    # the complex of criteria 6 and 7, whose 15,099 states the dense matrix
    # would hold in about 1.8 GB
    complex_ = _criterion_complex()
    burn_in = burn_in_steps(complex_, DEFAULT_C_MIX)
    states, law = oracles.exact_output_law(complex_, 4, burn_in)
    assert (len(states), burn_in) == (15_099, 529)
    assert abs(law.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(law - 1.0 / len(states))) <= 1e-6


@functools.cache
def _lopsided():
    """K13 and K8 as edges only, joined by a path through three more
    vertices, at m = 4: the walk's law at its default burn-in, and that law
    and the uniform one over the same states, each summed by type."""
    edges = [
        *combinations(range(13), 2),
        (12, 13), (13, 14), (14, 15), (15, 16),
        *combinations(range(16, 24), 2),
    ]
    complex_ = build_complex(edges, 24)
    burn_in = burn_in_steps(complex_, DEFAULT_C_MIX)
    states, law = oracles.exact_output_law(complex_, 4, burn_in)
    catalog = generate_catalog(4)
    walk_types = [0.0] * len(catalog)
    for state, p in zip(states, law):
        walk_types[catalog.index_of_mask(len(state), Simplet(complex_, state).mask())] += p
    return complex_, burn_in, states, law, walk_types, exact_counts(complex_, catalog).frequencies


def test_lopsided_complex_shape():
    complex_, burn_in, states, law, _, _ = _lopsided()
    assert skeleton_diameter(complex_).value == 6
    assert (len(states), burn_in) == (1_367, 1_488)
    assert abs(law.sum() - 1.0) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "the walk's type law on the K13-path-K8 complex at m = 4 is 0.0109 from the "
        "uniform type law in L-infinity at its default burn-in of 1,488 steps "
        "(its state law is 2.3e-4 from uniform): the burn-in heuristic does not "
        "mix this lopsided complex"
    ),
)
def test_walk_type_law_on_a_lopsided_complex_is_near_uniform_at_its_default_burn_in():
    *_, walk_types, uniform_types = _lopsided()
    assert max(abs(a - b) for a, b in zip(walk_types, uniform_types)) <= 1e-3
