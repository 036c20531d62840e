import copy
import pickle
import random
from itertools import combinations

import numpy as np
import pytest

from simplets import (
    GenSpec,
    InputError,
    SFDVector,
    SimpletSampler,
    StructuralError,
    WalkConfig,
    build_complex,
    burn_in_steps,
    connected_components,
    generate,
    generate_catalog,
    induced_subcomplex,
    largest_connected_restriction,
    skeleton_diameter,
    state_degree,
    state_neighbors,
)
from simplets import complexes

from .conftest import random_complexes
from . import oracles


def test_single_filled_triangle_shape(filled_triangle):
    assert len(filled_triangle.facets) == 1
    assert filled_triangle.edge_count == 3
    assert filled_triangle.max_degree == 2


def test_records_are_read_only_and_copy_by_value(filled_triangle):
    records = [
        induced_subcomplex(filled_triangle, (0, 2)),
        generate_catalog(3),
        SFDVector(3, (1, 2, 0), mode="approx"),
        WalkConfig(m=4, burn_in=7),
        GenSpec("lm", 10, 0.5, p_tri=0.3, seed=2),
    ]
    for record in records:
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert copied == record and hash(copied) == hash(record)
            assert repr(copied) == repr(record)
            for name in record.__slots__:
                if name != "host":  # a complex compares by identity
                    assert getattr(copied, name) == getattr(record, name)
        for name in record.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_non_maximal_facets_dropped():
    complex_ = build_complex([{0, 1}, {1, 2}, {0, 1, 2}], 3)
    assert complex_.facets == (frozenset({0, 1, 2}),)


def test_disconnected_build_is_allowed():
    complex_ = build_complex([{0, 1}, {2, 3}], 4)
    assert len(connected_components(complex_)) == 2


def test_duplicate_facets_deduplicated():
    complex_ = build_complex([{0, 1}, {1, 0}, (0, 1)], 2)
    assert complex_.facets == (frozenset({0, 1}),)


def test_two_vertex_candidates_kept_only_outside_kept_facets():
    # repeated edges, edges inside the kept triangles, and edges of neither
    candidates = [
        (1, 2), (4, 5), (0, 1), (5, 4), (2, 3), (0, 1, 2), (3, 6), (0, 2), (1, 2),
        (7, 8), (2, 3, 4), (3, 4), (6, 3), (8, 7),
    ]
    complex_ = build_complex(candidates, 9)
    assert complex_.facets == tuple(map(frozenset, [
        (0, 1, 2), (2, 3, 4), (3, 6), (4, 5), (7, 8),
    ]))


@pytest.mark.parametrize(
    "facets, n",
    [([{0, 5}], 3), ([set()], 3), ([{-1, 0}], 3), ([{0, 1.5}], 3)],
)
def test_build_rejects_bad_input(facets, n):
    with pytest.raises(InputError):
        build_complex(facets, n)


def test_build_takes_the_vertex_count_as_an_integer():
    with pytest.raises(InputError, match="non-integer vertex_count"):
        build_complex([[0, 1]], 2.0)
    with pytest.raises(InputError, match="vertex_count must be nonnegative"):
        build_complex([(0,)], -1)
    complex_ = build_complex([[0, 1]], np.int64(3))
    assert type(complex_.vertex_count) is int and complex_.vertex_count == 3


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
    assert len(simplet) == len(simplet.vertices) == 2


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


def test_skeleton_connected_on_checks_vertex_ids(path3):
    for vertices in ([-1], [0, 3], [3, 5], [0, 1, -1]):
        with pytest.raises(InputError, match="out of range"):
            path3.skeleton_connected_on(vertices)
    assert path3.skeleton_connected_on([]) is False
    assert path3.skeleton_connected_on([1]) is True
    assert path3.skeleton_connected_on([2, 0]) is False


def test_vertex_queries_reject_non_integer_ids(path3):
    for vertices in ([0.0, 1.0], [0, 1.5], ["0", 1], [None]):
        with pytest.raises(InputError, match="non-integer vertex id"):
            path3.skeleton_connected_on(vertices)
        with pytest.raises(InputError, match="non-integer vertex id"):
            induced_subcomplex(path3, vertices)
    with pytest.raises(InputError, match="non-integer vertex id"):
        state_degree(path3, (0, 1.0), 3)


def test_vertex_queries_use_the_integer_ids(path3):
    # bool and other operator.index types are normalised to plain ints
    assert path3.skeleton_connected_on([True, 2]) is True
    simplet = induced_subcomplex(path3, [True, 2])
    assert simplet.vertices == (1, 2)
    assert all(type(v) is int for v in simplet.vertices)
    assert state_neighbors(path3, [True, 2], 3) == [(0, 1), (0, 1, 2)]
    with pytest.raises(InputError):  # True and 1 are one vertex, given twice
        state_degree(path3, (True, 1), 3)


def test_component_queries_match_the_oracle_on_disconnected_complexes():
    rng = random.Random(9)
    disconnected = [
        c for c in random_complexes(60, seed=105) if len(connected_components(c)) > 1
    ]
    assert len(disconnected) >= 5
    for complex_ in disconnected:
        n = complex_.vertex_count
        components = connected_components(complex_)
        assert sorted(v for comp in components for v in comp) == list(range(n))
        assert [comp[0] for comp in components] == sorted(comp[0] for comp in components)
        for comp in components:
            assert comp == sorted(comp) and oracles.connected_on(complex_, comp)
            assert all(complex_.adjacency[v] <= set(comp) for v in comp)
        for _ in range(20):
            vertices = rng.sample(range(n), rng.randint(1, n))
            expected = oracles.connected_on(complex_, vertices)
            assert complex_.skeleton_connected_on(vertices) == expected


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
    for complex_ in random_complexes(15, seed=104):
        if len(connected_components(complex_)) != 1:
            continue
        assert skeleton_diameter(complex_).value == oracles.all_pairs_diameter(complex_)
    # Sparse, tree-like complexes have long peripheral paths (diameters 7 to 14).
    for seed in range(20):
        spec = GenSpec("flag", 60, 2.2 / 59, seed=seed)
        complex_ = largest_connected_restriction(generate(spec)).complex
        assert skeleton_diameter(complex_).value == oracles.all_pairs_diameter(complex_)


def _flag_host(n, seed):
    spec = GenSpec("flag", n, 8 / (n - 1), seed=seed)
    return largest_connected_restriction(generate(spec)).complex


@pytest.mark.parametrize("seed", range(4))
def test_skeleton_diameter_on_multi_word_balls(seed):
    # n = 300 balls span ten 30-bit integer digits.
    complex_ = _flag_host(300, seed)
    assert skeleton_diameter(complex_).value == oracles.all_pairs_diameter(complex_)


@pytest.mark.slow
def test_skeleton_diameter_on_a_large_host():
    complex_ = _flag_host(2000, 0)
    assert skeleton_diameter(complex_).value == oracles.all_pairs_diameter(complex_)


def test_skeleton_diameter_of_long_path():
    # Every ball grows for at least 1500 levels here.
    path = build_complex([{v, v + 1} for v in range(2999)], 3000)
    assert skeleton_diameter(path).value == 2999


def test_skeleton_diameter_computed_once_per_complex(monkeypatch):
    calls = []
    compute = complexes._compute_diameter

    def counting_compute(complex_):
        calls.append(complex_)
        return compute(complex_)

    monkeypatch.setattr(complexes, "_compute_diameter", counting_compute)
    complex_ = build_complex([{0, 1, 2}, {2, 3}, {3, 4}], 5)
    first = skeleton_diameter(complex_)
    assert first.value == 3
    assert calls == [complex_]
    calls.clear()
    assert skeleton_diameter(complex_) == first
    assert burn_in_steps(complex_, 1.0) >= 1
    SimpletSampler(complex_, WalkConfig(m=3))
    assert calls == []

    disconnected = build_complex([{0, 1}, {2, 3}], 4)
    for _ in range(2):
        with pytest.raises(StructuralError):
            skeleton_diameter(disconnected)
    assert calls == [disconnected, disconnected]


def test_skeleton_diameter_disconnected_names_vertices():
    cases = [
        ([{0, 1}, {2, 3}], 4, 2),
        ([{0, 1}, {1, 2}, {3, 4}], 5, 3),
        ([{1, 2}], 3, 1),  # vertex 0 isolated
        # {10, 11} stops growing while the ball of 0 still grows.
        ([{v, v + 1} for v in range(9)] + [{10, 11}], 12, 10),
    ]
    for facets, n, missing in cases:
        message = (
            f"1-skeleton is disconnected: no path between vertices 0 and {missing}; "
            "restrict to the largest connected component (--largest-component)"
        )
        with pytest.raises(StructuralError) as info:
            skeleton_diameter(build_complex(facets, n))
        assert str(info.value) == message


def test_decode_mask_equals_the_layout_scan_for_every_catalog_key():
    from simplets.catalog import _CATALOG_DATA

    with open(_CATALOG_DATA, encoding="ascii") as data:
        keys = [(int(k), int(mask, 16)) for k, mask in map(str.split, data)]
    assert len(keys) == 16117 and max(k for k, _ in keys) == 6
    for k, mask in keys:
        scan = tuple(s for s, weight, _ in complexes.simplex_layout(k) if mask & weight)
        assert complexes.decode_mask(k, mask) == scan


def test_positions_are_the_set_bits():
    rng = random.Random(0)
    masks = [*range(1 << 12), *(rng.getrandbits(200) for _ in range(200))]
    for mask in masks:
        assert complexes._positions(mask) == tuple(i for i in range(200) if mask & (1 << i))


@pytest.mark.parametrize("mask", [-1, 1 << 11, 1.5])
def test_decode_mask_rejects_a_mask_outside_the_layout(mask):
    with pytest.raises(InputError):
        complexes.decode_mask(4, mask)  # 11 subsets with at least two vertices


def _random_candidates(rng, n):
    """Candidate facets on ``n`` vertices: random sets, some of their faces,
    repeats of both, and a few isolated vertices as singletons."""
    isolated = rng.sample(range(n), 2)
    rest = [v for v in range(n) if v not in isolated]
    sets = [rng.sample(rest, rng.randint(1, min(5, len(rest)))) for _ in range(rng.randint(1, 8))]
    faces = [rng.sample(s, rng.randint(1, len(s))) for s in sets for _ in range(2)]
    candidates = sets + faces + rng.sample(sets + faces, 3) + [[v] for v in isolated]
    rng.shuffle(candidates)
    return candidates


@pytest.mark.parametrize("seed", range(40))
def test_build_complex_matches_the_brute_force_tables(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    candidates = _random_candidates(rng, n)
    facets, incidence, adjacency = oracles.built_tables(candidates, n)
    complex_ = build_complex(candidates, n)
    assert list(complex_.facets) == facets
    assert list(complex_._incidence) == incidence
    assert list(complex_.adjacency) == adjacency
    assert complex_.max_degree == max(map(len, adjacency))


def test_build_complex_limits_the_vertices(monkeypatch):
    with pytest.raises(InputError, match="vertex_count"):
        build_complex([(0, 1)], complexes.MAX_VERTICES + 1)
    monkeypatch.setattr(complexes, "MAX_VERTICES", 3)
    assert build_complex([(0, 1)], 3).vertex_count == 3
    with pytest.raises(InputError, match="vertex_count 4 is over 3"):
        build_complex([(0, 1)], 4)


def test_build_complex_limits_the_implied_edges(monkeypatch):
    assert complexes.MAX_IMPLIED_EDGES < 1266 * 1265 // 2
    with pytest.raises(InputError, match="edges"):
        build_complex([range(1266)], 1266)
    monkeypatch.setattr(complexes, "MAX_IMPLIED_EDGES", 4)
    assert build_complex([(0, 1, 2), (2, 3)], 4).edge_count == 4  # 3 + 1 implied edges
    with pytest.raises(InputError, match="more than 4 edges"):
        build_complex([(0, 1, 2), (2, 3), (1, 3)], 4)


def _check_against_brute_force(candidates, n):
    """The constructor on ``candidates`` as handed keeps the facets that
    ``oracles.built_tables`` names, with the same incidence and adjacency;
    incidence is compared by facet, since the constructor keeps the order it
    is handed and the oracle sorts."""
    facets, incidence, adjacency = oracles.built_tables(candidates, n)
    complex_ = complexes.SimplicialComplex(n, map(frozenset, candidates))
    assert sorted(complex_.facets, key=lambda f: (-len(f), sorted(f))) == facets
    assert [{complex_.facets[i] for i in s} for s in complex_._incidence] == [
        {facets[i] for i in s} for s in incidence
    ]
    assert list(complex_.adjacency) == adjacency
    return complex_


@pytest.mark.parametrize("spec", [
    GenSpec("flag", 16, 0.7, seed=2),
    GenSpec("lm", 16, 0.7, p_tri=0.8, p_tet=0.8, seed=2),
])
def test_constructor_matches_the_brute_force_tables_on_dense_candidates(handed, spec):
    generate(spec)
    assert max(map(len, handed)) == 4
    assert len(set(handed)) == len(handed)
    _check_against_brute_force(handed, spec.n)
    # the same candidates in another order within each size
    rng = random.Random(spec.seed)
    reordered = rng.sample(handed, len(handed))
    reordered.sort(key=len, reverse=True)
    _check_against_brute_force(reordered, spec.n)
    # repeats of every size, shuffled, are build_complex's to drop
    repeated = handed + rng.sample(handed, len(handed) // 3)
    rng.shuffle(repeated)
    facets, incidence, adjacency = oracles.built_tables(repeated, spec.n)
    built = build_complex(repeated, spec.n)
    assert (list(built.facets), list(built._incidence), list(built.adjacency)) == (
        facets, incidence, adjacency,
    )


def test_constructor_drops_faces_handed_after_a_larger_facet():
    # a triangle, then an unrelated tetrahedron, then one of its faces and a
    # face of the triangle: both of the last lie in a kept facet that is not
    # of the largest size kept so far when they come
    candidates = [(0, 1, 2), (3, 4, 5, 6), (3, 4, 5), (1, 2), (5, 6), (2, 3)]
    complex_ = _check_against_brute_force(candidates, 7)
    assert complex_.facets == tuple(map(frozenset, [(0, 1, 2), (3, 4, 5, 6), (2, 3)]))
