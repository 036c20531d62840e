import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from simplets import (
    GenSpec,
    InputError,
    StructuralError,
    build_complex,
    connected_components,
    exact_counts,
    generate,
    largest_connected_restriction,
)
from simplets.complexes import MAX_VERTICES
from simplets.generate import _cofaces

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


@pytest.mark.parametrize("args, named", [
    (("flag", 10, "0.5"), "p_edge"),
    (("flag", 10, None), "p_edge"),
    (("lm", 10, 0.5, "x"), "p_tri"),
    (("lm", 10, 0.5, 0.5, b"1"), "p_tet"),
])
def test_spec_rejects_fill_probabilities_that_are_not_numbers(args, named):
    with pytest.raises(InputError, match=f"non-real {named}"):
        GenSpec(*args)


def test_spec_takes_the_vertex_count_as_an_integer():
    # A float count would fail inside range() when generating; bool is an
    # integer and still meets the n >= 3 check.
    with pytest.raises(InputError, match="non-integer n"):
        GenSpec("flag", 10.0, 0.2)
    with pytest.raises(InputError, match="n >= 3"):
        GenSpec("flag", True, 0.2)
    spec = GenSpec("flag", np.int64(10), 0.2)
    assert type(spec.n) is int and generate(spec).vertex_count == 10


def test_spec_rejects_more_vertices_than_a_complex_may_have():
    assert GenSpec("flag", MAX_VERTICES, 0.0).n == MAX_VERTICES
    with pytest.raises(InputError, match=f"at most {MAX_VERTICES} vertices"):
        GenSpec("flag", MAX_VERTICES + 1, 0.0)


@pytest.mark.parametrize("seed", [None, [1], 1.5])
def test_spec_takes_the_seed_as_an_integer(seed):
    with pytest.raises(InputError, match="non-integer seed"):
        GenSpec("flag", 10, 0.5, seed=seed)


def test_integer_seeds_give_the_same_complex():
    facets = [[0, 1, 6], [0, 3, 6], [0, 7], [0, 9], [0, 10], [2, 3, 6], [2, 7], [3, 6, 11],
              [4, 5, 6], [4, 10], [5, 7], [8, 10], [9, 11], [10, 11]]
    for seed in (3, np.int64(3)):
        spec = GenSpec("flag", 12, 0.4, seed=seed)
        assert type(spec.seed) is int
        complex_ = largest_connected_restriction(generate(spec)).complex
        assert sorted(map(sorted, complex_.facets)) == facets


@pytest.mark.parametrize("seed", range(6))
def test_cofaces_are_the_cliques_in_lexicographic_order(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 30)
    p = rng.uniform(0.1, 0.6)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    def cliques(size):
        return [c for c in combinations(range(n), size)
                if all(v in adjacency[u] for u, v in combinations(c, 2))]

    triangles = _cofaces(adjacency, edges)
    assert triangles == cliques(3)
    assert _cofaces(adjacency, triangles) == cliques(4)


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


def _tables(complex_):
    """Every table the constructor fills, each set in its iteration order."""
    tables = (complex_.facets, complex_._incidence, complex_.adjacency)
    return (complex_.vertex_count, complex_.max_degree, *([tuple(s) for s in t] for t in tables))


@pytest.mark.parametrize("model, n", [("flag", 200), ("lm", 300)])
@pytest.mark.parametrize("seed", range(4))
def test_restriction_equals_a_build_of_the_relabelled_facets(model, n, seed):
    complex_ = generate(GenSpec(model, n, 0.01, p_tri=0.5, p_tet=0.5, seed=seed))
    components = connected_components(complex_)
    assert len(components) > 1
    restricted, original = largest_connected_restriction(complex_)
    assert original == tuple(max(components, key=lambda comp: (len(comp), -comp[0])))
    relabel = {old: new for new, old in enumerate(original)}
    built = build_complex(
        [[relabel[v] for v in facet] for facet in complex_.facets if facet <= relabel.keys()],
        len(original),
    )
    assert _tables(restricted) == _tables(built)
    assert restricted.edges() == built.edges()


@pytest.mark.parametrize("seed", range(30))
def test_restriction_of_a_random_disconnected_complex_equals_a_build(seed):
    # random facets inside blocks of a shuffled vertex set, so that the
    # components interleave in id order; some facets nest or repeat
    rng = random.Random(seed)
    n = rng.randint(6, 30)
    ids = list(range(n))
    rng.shuffle(ids)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
    blocks = [ids[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    candidates = [[v] for v in ids]
    for block in blocks:
        for _ in range(rng.randint(1, 2 * len(block))):
            candidates.append(rng.sample(block, rng.randint(1, min(4, len(block)))))
    candidates += rng.sample(candidates, 5) + [rng.sample(max(blocks, key=len), 2)]
    complex_ = build_complex(candidates, n)
    assert len(connected_components(complex_)) > 1
    restricted, original = largest_connected_restriction(complex_)
    relabel = {old: new for new, old in enumerate(original)}
    built = build_complex(
        [[relabel[v] for v in facet] for facet in complex_.facets if facet <= relabel.keys()],
        len(original),
    )
    assert _tables(restricted) == _tables(built)


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
