import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from simplets import (
    GenSpec,
    InputError,
    SFDVector,
    StructuralError,
    build_complex,
    enumerate_connected_subsets,
    exact_counts,
    generate,
    generate_catalog,
)
from simplets import exact as exact_module
from simplets.complexes import simplex_layout

from . import oracles
from .conftest import random_complexes

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def test_enumeration_filled_triangle(filled_triangle):
    subsets = sorted(enumerate_connected_subsets(filled_triangle, 3))
    assert subsets == [(0, 1), (0, 1, 2), (0, 2), (1, 2)]


def test_enumeration_path_excludes_disconnected(path3):
    subsets = sorted(enumerate_connected_subsets(path3, 3))
    assert subsets == [(0, 1), (0, 1, 2), (1, 2)]


def test_enumeration_complete_skeleton_counts():
    complete = build_complex([(u, v) for u in range(4) for v in range(u + 1, 4)], 4)
    assert len(list(enumerate_connected_subsets(complete, 4))) == 6 + 4 + 1


def test_enumeration_m_validation(filled_triangle):
    with pytest.raises(InputError):
        list(enumerate_connected_subsets(filled_triangle, 1))


def test_enumeration_takes_m_as_an_integer(filled_triangle):
    # A float m would fail inside range() once the enumeration starts.
    with pytest.raises(InputError, match="non-integer m"):
        list(enumerate_connected_subsets(filled_triangle, 3.0))


def test_enumeration_matches_naive_and_is_duplicate_free():
    for complex_ in random_complexes(20, seed=200):
        for m in (3, 4):
            fast = list(enumerate_connected_subsets(complex_, m))
            assert len(fast) == len(set(fast))
            assert sorted(fast) == sorted(oracles.all_connected_subsets(complex_, m))


@pytest.mark.parametrize("m", range(2, 6))
def test_enumeration_agrees_with_the_tally(m):
    # two separate recursions: the enumerator yields as many sets of each
    # size as _esu tallies, root by root in increasing order of least vertex
    exact_m5_input = generate(GenSpec("flag", 30, 8 / 29, seed=24))
    for complex_ in random_complexes(10, seed=205) + [exact_m5_input]:
        tallies = exact_module._esu(complex_, m)
        sizes = [0] * (m + 1)
        least = 0
        for subset in enumerate_connected_subsets(complex_, m):
            sizes[len(subset)] += 1
            assert subset[0] >= least
            least = subset[0]
        assert sizes[2:] == [sum(tallies[k].values()) for k in range(2, m + 1)]


def test_exact_counts_filled_triangle(filled_triangle, catalog4):
    sfd = exact_counts(filled_triangle, catalog4)
    expected = oracles.classify_counts(filled_triangle, catalog4)
    assert list(sfd.counts) == expected
    assert sfd.total == 4
    assert len(sfd) == len(catalog4)
    nonzero = {i: c for i, c in enumerate(sfd.counts) if c}
    assert sorted(nonzero.values()) == [1, 3]
    assert sorted(f for f in sfd.frequencies if f) == [0.25, 0.75]


def test_exact_counts_empty_triangle(empty_triangle, catalog4):
    # the induced sub-complex on all three vertices is the hollow triangle,
    # and the only other simplets are the three edges
    sfd = exact_counts(empty_triangle, catalog4)
    assert list(sfd.counts) == oracles.classify_counts(empty_triangle, catalog4)
    assert sfd.total == 4
    assert sorted(c for c in sfd.counts if c) == [1, 3]


def test_exact_counts_single_edge(catalog4):
    edge = build_complex([{0, 1}], 2)
    sfd = exact_counts(edge, catalog4)
    assert sfd.total == 1
    assert sfd.frequencies[0] == 1.0
    assert sum(sfd.frequencies) == 1.0


def test_exact_counts_no_edges(catalog4):
    with pytest.raises(StructuralError):
        exact_counts(build_complex([{0}, {1}], 2), catalog4)


def test_exact_counts_match_naive_oracle(catalog3, catalog4, catalog5):
    # lm complexes dense enough to hold filled and hollow tetrahedra
    tetrahedral = [
        generate(GenSpec("lm", n, 0.7, p_tri=0.9, p_tet=0.6, seed=210 + i))
        for i, n in enumerate((8, 9, 7, 7))
    ]
    assert all(any(len(f) == 4 for f in complex_.facets) for complex_ in tetrahedral)
    for complex_ in random_complexes(12, max_n=10, seed=201) + tetrahedral[:2]:
        for catalog in (generate_catalog(2), catalog3, catalog4, catalog5):
            assert list(exact_counts(complex_, catalog).counts) == (
                oracles.classify_counts(complex_, catalog)
            )
    catalog6 = generate_catalog(6)
    for complex_ in random_complexes(3, max_n=7, seed=204, min_n=6) + tetrahedral[2:]:
        assert list(exact_counts(complex_, catalog6).counts) == (
            oracles.classify_counts(complex_, catalog6)
        )


def dense_lm_complexes():
    """lm complexes so dense that m-vertex subsets close triangles and
    tetrahedra at their last vertex."""
    return [
        generate(GenSpec("lm", n, 0.8, p_tri=0.9, p_tet=0.9, seed=seed))
        for seed, n in ((231, 8), (232, 8), (233, 9))
    ]


@pytest.mark.parametrize("m", range(3, 7))
def test_exact_counts_on_dense_lm_complexes(m):
    catalog = generate_catalog(m)
    layout = simplex_layout(m)
    closed_at_last = {
        size: sum(w for s, w, _ in layout if len(s) == size and s[-1] == m - 1)
        for size in (3, 4)
    }
    closes = set()
    for complex_ in dense_lm_complexes():
        leaves = exact_module._esu(complex_, m)[m]
        closes |= {size for size, bits in closed_at_last.items() if any(k & bits for k in leaves)}
        counts = exact_counts(complex_, catalog).counts
        assert list(counts) == oracles.classify_counts(complex_, catalog)
        subsets = list(enumerate_connected_subsets(complex_, m))
        assert len(subsets) == len(set(subsets)) == sum(counts)
    assert closes == ({3, 4} if m > 3 else {3})


def test_exact_counts_classify_once_per_distinct_mask(monkeypatch, catalog5):
    complex_ = generate(GenSpec("flag", 30, 8 / 29, seed=24))
    classified = []
    canonical_mask = exact_module._canonical_mask

    def counting_canonical_mask(k, mask):
        classified.append(k)
        return canonical_mask(k, mask)

    monkeypatch.setattr(exact_module, "_canonical_mask", counting_canonical_mask)
    sfd = exact_counts(complex_, catalog5)
    # 185 distinct (size, position-labelled mask) keys on this input
    assert len(classified) == 185
    assert sum(sfd.counts) == len(list(enumerate_connected_subsets(complex_, 5))) == 35_595


def check_benchmark_references(monkeypatch, name, catalog):
    """Exact counts on a workload's ten pinned inputs equal its reference
    counts, read from the benchmark without editing it."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    workload = workloads.WORKLOADS[name]
    assert workload.m == catalog.m
    entries = workloads.load_pins(smoke=False)[name]["entries"]
    assert len(entries) == 10
    for entry in entries:
        complex_, _text = workloads.make_input(workload, entry["gen_seed"])
        assert list(exact_counts(complex_, catalog).counts) == entry["reference"]["counts"]


def test_exact_counts_equal_the_benchmark_references(monkeypatch, catalog5):
    check_benchmark_references(monkeypatch, "exact-m5", catalog5)


def test_validate_oracle_equals_the_benchmark_references(monkeypatch, catalog4):
    # validate's exact oracle runs exact_counts at m = 4 on the same input
    check_benchmark_references(monkeypatch, "validate-lm", catalog4)


def test_exact_counts_permutation_invariant(catalog5):
    rng = random.Random(5)
    for complex_ in random_complexes(10, max_n=10, seed=202):
        base = exact_counts(complex_, catalog5).counts
        n = complex_.vertex_count
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = build_complex(
                [{perm[v] for v in f} for f in complex_.facets], n
            )
            assert exact_counts(relabeled, catalog5).counts == base


def test_total_count_monotone_under_facet_addition(catalog4):
    rng = random.Random(9)
    for complex_ in random_complexes(10, max_n=10, seed=203):
        n = complex_.vertex_count
        before = exact_counts(complex_, catalog4).total
        extra = tuple(rng.sample(range(n), 3))
        grown = build_complex(list(complex_.facets) + [extra], n)
        assert exact_counts(grown, catalog4).total >= before


@pytest.mark.parametrize(
    "counts, expected",
    [
        ((3, 1, 0, 0), (0.75, 0.25, 0.0, 0.0)),
        ((5, 0, 0, 0), (1.0, 0.0, 0.0, 0.0)),
        ((1, 1, 1, 1), (0.25, 0.25, 0.25, 0.25)),
    ],
)
def test_sfd_vector_examples(counts, expected):
    sfd = SFDVector(3, counts)
    assert sfd.frequencies == expected
    assert sfd.total == sum(counts)


def test_sfd_vector_rejects_bad_input():
    with pytest.raises(InputError):
        SFDVector(3, (0, 0, 0))
    with pytest.raises(InputError):
        SFDVector(3, (1, -1, 2))
    with pytest.raises(InputError):
        SFDVector(3, [0.5, 1.5, 2.9])  # would truncate to (0, 1, 2)
    with pytest.raises(InputError):
        SFDVector(3, (1, float("nan"), 2))


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=30))
def test_sfd_vector_properties(counts):
    if sum(counts) == 0:
        with pytest.raises(InputError):
            SFDVector(4, counts)
        return
    sfd = SFDVector(4, counts)
    assert abs(sum(sfd.frequencies) - 1.0) <= 1e-12
    assert all(f >= 0 for f in sfd.frequencies)
    total = sum(counts)
    assert all(f == c / total for c, f in zip(counts, sfd.frequencies))
