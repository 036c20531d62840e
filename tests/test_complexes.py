import random
from itertools import combinations

import pytest

from simplets import (
    GenSpec,
    InputError,
    SimpletSampler,
    StructuralError,
    WalkConfig,
    build_complex,
    burn_in_steps,
    connected_components,
    generate,
    induced_subcomplex,
    largest_connected_restriction,
    skeleton_diameter,
)
from simplets import complexes

from .conftest import random_complexes
from . import oracles


def test_single_filled_triangle_shape(filled_triangle):
    assert len(filled_triangle.facets) == 1
    assert filled_triangle.edge_count == 3
    assert filled_triangle.max_degree == 2


def test_non_maximal_facets_dropped():
    complex_ = build_complex([{0, 1}, {1, 2}, {0, 1, 2}], 3)
    assert complex_.facets == (frozenset({0, 1, 2}),)


def test_disconnected_build_is_allowed():
    complex_ = build_complex([{0, 1}, {2, 3}], 4)
    assert len(connected_components(complex_)) == 2


def test_duplicate_facets_deduplicated():
    complex_ = build_complex([{0, 1}, {1, 0}, (0, 1)], 2)
    assert complex_.facets == (frozenset({0, 1}),)


@pytest.mark.parametrize(
    "facets, n",
    [([{0, 5}], 3), ([set()], 3), ([{-1, 0}], 3), ([{0, 1.5}], 3)],
)
def test_build_rejects_bad_input(facets, n):
    with pytest.raises(InputError):
        build_complex(facets, n)


def test_contains_simplex_basics(filled_triangle, empty_triangle):
    assert oracles.subset_spans_simplex(filled_triangle, {0, 1})
    assert oracles.subset_spans_simplex(filled_triangle, {0, 1, 2})
    assert not oracles.subset_spans_simplex(empty_triangle, {0, 1, 2})


def test_downward_closure_over_all_facets():
    for complex_ in random_complexes(12, seed=100):
        for facet in complex_.facets:
            for size in range(1, len(facet) + 1):
                for sub in combinations(sorted(facet), size):
                    assert oracles.subset_spans_simplex(complex_, sub)


def test_facets_form_an_antichain():
    for complex_ in random_complexes(12, seed=101):
        facets = complex_.facets
        for a in facets:
            for b in facets:
                if a is not b:
                    assert not a <= b


def test_adjacency_symmetric_and_degree_consistent():
    for complex_ in random_complexes(10, seed=102):
        for u in range(complex_.vertex_count):
            for v in complex_.adjacency[u]:
                assert u in complex_.adjacency[v]
                assert oracles.subset_spans_simplex(complex_, (u, v))
        assert complex_.max_degree == max(
            (len(a) for a in complex_.adjacency), default=0
        )


def test_induced_subcomplex_edge(filled_triangle):
    simplet = induced_subcomplex(filled_triangle, {0, 1})
    assert simplet.vertices == (0, 1)
    assert simplet.simplices() == ((0, 1),)


def test_induced_subcomplex_disconnected_returns_none(path3):
    assert induced_subcomplex(path3, {0, 2}) is None


def test_induced_subcomplex_triangle_with_pendant(triangle_with_pendant):
    simplet = induced_subcomplex(triangle_with_pendant, {0, 1, 2, 3})
    expected = oracles.induced_simplices(triangle_with_pendant, (0, 1, 2, 3))
    assert set(simplet.simplices()) == expected
    assert expected == {(0, 1), (0, 2), (1, 2), (2, 3), (0, 1, 2)}


def test_induced_subcomplex_input_errors(filled_triangle):
    with pytest.raises(InputError):
        induced_subcomplex(filled_triangle, {0})
    with pytest.raises(InputError):
        induced_subcomplex(filled_triangle, {0, 9})


def test_induced_subcomplex_matches_exhaustive_subset_scan():
    rng = random.Random(7)
    for complex_ in random_complexes(15, max_n=10, seed=103):
        n = complex_.vertex_count
        for _ in range(10):
            size = rng.randint(2, min(6, n))
            vertices = tuple(sorted(rng.sample(range(n), size)))
            simplet = induced_subcomplex(complex_, vertices)
            if oracles.connected_on(complex_, vertices):
                assert simplet is not None
                expected = oracles.induced_simplices(complex_, vertices)
                assert set(simplet.simplices()) == expected
                # the i-th of the N subsets in (size, tuple) order weighs 2**(N-1-i)
                subsets = [s for k in range(2, size + 1) for s in combinations(range(size), k)]
                mask = simplet.mask()
                decoded = {
                    tuple(vertices[i] for i in s)
                    for bit, s in enumerate(reversed(subsets))
                    if mask >> bit & 1
                }
                assert decoded == expected
            else:
                assert simplet is None


@pytest.mark.parametrize(
    "facets, n, expected",
    [
        ([{0, 1, 2}], 3, 1),
        ([{0, 1}, {1, 2}, {2, 3}], 4, 3),
        ([{0, 1}, {1, 2}, {2, 3}, {0, 3}], 4, 2),
        # A double sweep from vertex 0 would read 2 here.
        ([{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}], 5, 3),
    ],
)
def test_skeleton_diameter_small_cases(facets, n, expected):
    assert skeleton_diameter(build_complex(facets, n)).value == expected


def test_skeleton_diameter_matches_brute_force():
    def brute_diameter(complex_):
        n = complex_.vertex_count
        best = 0
        for s in range(n):
            dist = {s: 0}
            frontier = [s]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in complex_.adjacency[x]:
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            best = max(best, max(dist.values()))
        return best

    for complex_ in random_complexes(15, seed=104):
        if len(connected_components(complex_)) != 1:
            continue
        assert skeleton_diameter(complex_).value == brute_diameter(complex_)
    # Sparse, tree-like complexes have long peripheral paths (diameters 7 to 14).
    for seed in range(20):
        spec = GenSpec("flag", 60, 2.2 / 59, seed=seed)
        complex_ = largest_connected_restriction(generate(spec)).complex
        assert skeleton_diameter(complex_).value == brute_diameter(complex_)


def test_skeleton_diameter_of_long_path_takes_few_passes(monkeypatch):
    calls = []
    bfs = complexes._bfs_distances

    def counting_bfs(complex_, start):
        calls.append(start)
        return bfs(complex_, start)

    monkeypatch.setattr(complexes, "_bfs_distances", counting_bfs)
    path = build_complex([{v, v + 1} for v in range(2999)], 3000)
    assert skeleton_diameter(path).value == 2999
    assert len(calls) <= 10


def test_skeleton_diameter_computed_once_per_complex(monkeypatch):
    calls = []
    bfs = complexes._bfs_distances

    def counting_bfs(complex_, start):
        calls.append(start)
        return bfs(complex_, start)

    monkeypatch.setattr(complexes, "_bfs_distances", counting_bfs)
    complex_ = build_complex([{0, 1, 2}, {2, 3}, {3, 4}], 5)
    first = skeleton_diameter(complex_)
    assert first.value == 3
    assert 1 <= len(calls) <= complex_.vertex_count
    calls.clear()
    assert skeleton_diameter(complex_) == first
    assert burn_in_steps(complex_, 1.0) >= 1
    SimpletSampler(complex_, WalkConfig(m=3))
    assert calls == []

    disconnected = build_complex([{0, 1}, {2, 3}], 4)
    for _ in range(2):
        with pytest.raises(StructuralError):
            skeleton_diameter(disconnected)
    assert len(calls) == 2


def test_skeleton_diameter_disconnected_names_vertices():
    complex_ = build_complex([{0, 1}, {2, 3}], 4)
    with pytest.raises(StructuralError, match=r"\d+ and \d+"):
        skeleton_diameter(complex_)
