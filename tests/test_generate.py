from itertools import combinations
from math import comb

import pytest

from simplets import (
    GenSpec,
    InputError,
    StructuralError,
    build_complex,
    exact_counts,
    generate,
    largest_connected_restriction,
)

from . import oracles


def test_spec_validation():
    with pytest.raises(InputError):
        GenSpec("tree", 5, 0.5)
    with pytest.raises(InputError):
        GenSpec("flag", 2, 0.5)
    with pytest.raises(InputError):
        GenSpec("flag", 5, 1.5)
    with pytest.raises(InputError):
        GenSpec("lm", 5, 0.5, p_tri=-0.1)


def test_flag_complete(catalog4):
    complex_ = generate(GenSpec("flag", 5, 1.0, seed=1))
    # truncation at dimension 3: the facets are the five 4-vertex simplices
    assert sorted(sorted(f) for f in complex_.facets) == [
        list(c) for c in combinations(range(5), 4)
    ]
    sfd = exact_counts(complex_, catalog4)
    assert sfd.total == comb(5, 2) + comb(5, 3) + comb(5, 4)


def test_lm_graph_only():
    complex_ = generate(GenSpec("lm", 5, 1.0, p_tri=0.0, p_tet=0.0, seed=2))
    assert all(len(f) == 2 for f in complex_.facets)
    assert complex_.edge_count == comb(5, 2)


def test_lm_tetrahedra_gated_by_triangles():
    # without filled triangles no tetrahedron can appear even at p_tet = 1
    complex_ = generate(GenSpec("lm", 6, 1.0, p_tri=0.0, p_tet=1.0, seed=3))
    assert all(len(f) == 2 for f in complex_.facets)
    # with all triangles filled, every 4-clique fills
    full = generate(GenSpec("lm", 5, 1.0, p_tri=1.0, p_tet=1.0, seed=3))
    assert sorted(len(f) for f in full.facets) == [4] * comb(5, 4)


def test_lm_partial_fill_downward_closed():
    for seed in range(5):
        complex_ = generate(GenSpec("lm", 10, 0.5, p_tri=0.6, p_tet=0.7, seed=seed))
        for facet in complex_.facets:
            for size in range(1, len(facet) + 1):
                for sub in combinations(sorted(facet), size):
                    assert oracles.subset_spans_simplex(complex_, sub)
        for a in complex_.facets:
            for b in complex_.facets:
                assert a is b or not a <= b


def test_generation_reproducible():
    spec = GenSpec("lm", 12, 0.4, p_tri=0.5, p_tet=0.5, seed=99)
    assert generate(spec).facets == generate(spec).facets
    other = GenSpec("lm", 12, 0.4, p_tri=0.5, p_tet=0.5, seed=100)
    assert generate(spec).facets != generate(other).facets


def test_isolated_vertices_kept_as_singletons():
    complex_ = generate(GenSpec("flag", 30, 0.02, seed=5))
    covered = {v for f in complex_.facets for v in f}
    assert covered == set(range(30))


def test_restriction_keeps_connected_complex_intact(filled_triangle):
    restricted, original = largest_connected_restriction(filled_triangle)
    assert original == (0, 1, 2)
    assert restricted.facets == filled_triangle.facets
    assert restricted is filled_triangle


def test_restriction_two_triangles():
    complex_ = build_complex([{0, 1, 2}, {3, 4, 5}], 6)
    restricted, original = largest_connected_restriction(complex_)
    assert original == (0, 1, 2)  # tie broken toward the lowest vertex id
    assert restricted.facets == (frozenset({0, 1, 2}),)


def test_restriction_picks_larger_component():
    complex_ = build_complex([{0, 1}, {2, 3}, {3, 4}], 5)
    restricted, original = largest_connected_restriction(complex_)
    assert original == (2, 3, 4)
    assert restricted.vertex_count == 3
    assert sorted(tuple(sorted(f)) for f in restricted.facets) == [(0, 1), (1, 2)]


def test_restriction_requires_edges():
    with pytest.raises(StructuralError):
        largest_connected_restriction(build_complex([{0}, {1}], 2))


def test_generated_complexes_pass_validity_oracles():
    for seed in range(4):
        for model in ("flag", "lm"):
            complex_ = generate(GenSpec(model, 9, 0.45, p_tri=0.5, p_tet=0.5, seed=seed))
            for facet in complex_.facets:
                assert oracles.subset_spans_simplex(complex_, facet)
            for u in range(complex_.vertex_count):
                for v in complex_.adjacency[u]:
                    assert oracles.subset_spans_simplex(complex_, (u, v))
