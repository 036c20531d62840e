import hashlib
import json
import random
from itertools import combinations, permutations

import pytest

from simplets import (
    InputError,
    IntegrityError,
    Simplet,
    build_complex,
    canonical_form,
    canonical_key,
    generate_catalog,
    induced_subcomplex,
)

from simplets import catalog as catalog_module
from simplets.complexes import simplex_layout
from simplets.cli import main

from . import catalog_reference, oracles


def relabeled(simplices, perm):
    return [tuple(sorted(perm[v] for v in s)) for s in simplices]


def test_single_edge_key(filled_triangle):
    simplet = induced_subcomplex(filled_triangle, {1, 2})
    key = canonical_key(simplet)
    assert key.vertex_count == 2
    assert key.simplices == ((0, 1),)


def test_empty_vs_filled_triangle_distinct(empty_triangle, filled_triangle):
    key_empty = canonical_key(induced_subcomplex(empty_triangle, {0, 1, 2}))
    key_filled = canonical_key(induced_subcomplex(filled_triangle, {0, 1, 2}))
    assert key_empty.vertex_count == key_filled.vertex_count == 3
    assert key_empty != key_filled
    assert (0, 1, 2) in key_filled.simplices
    assert (0, 1, 2) not in key_empty.simplices


def test_diamond_key_invariant_under_random_relabelings():
    # 4-cycle plus a chord, exactly one of the two triangles filled
    base = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (0, 1, 2)]
    reference = canonical_form(4, base)
    rng = random.Random(11)
    for _ in range(10):
        perm = list(range(4))
        rng.shuffle(perm)
        assert canonical_form(4, relabeled(base, perm)) == reference


def test_canonicalization_idempotent(catalog4):
    for key in catalog4.keys:
        assert canonical_form(key.vertex_count, key.simplices) == key


def test_relabeling_invariance_exhaustive_small(catalog4):
    for key in catalog4.keys:
        k = key.vertex_count
        for perm in permutations(range(k)):
            assert canonical_form(k, relabeled(key.simplices, perm)) == key


def test_relabeling_invariance_sampled_k5(catalog5):
    rng = random.Random(23)
    five_vertex = [key for key in catalog5.keys if key.vertex_count == 5]
    for key in rng.sample(five_vertex, 25):
        for _ in range(12):
            perm = list(range(5))
            rng.shuffle(perm)
            assert canonical_form(5, relabeled(key.simplices, perm)) == key


def test_relabeling_invariance_sampled_k6():
    # random 6-vertex simplets; every canonical key of a valid simplet is a
    # catalog entry, so this exercises the k=6 leg without the full catalog
    rng = random.Random(29)
    checked = 0
    while checked < 15:
        edges = [
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if rng.random() < 0.5
        ]
        complex_ = build_complex(edges or [(0, 1)], 6)
        if len({v for e in complex_.facets for v in e}) < 6:
            continue
        simplet = induced_subcomplex(complex_, range(6))
        if simplet is None:
            continue
        key = canonical_key(simplet)
        for _ in range(8):
            perm = list(range(6))
            rng.shuffle(perm)
            assert canonical_form(6, relabeled(key.simplices, perm)) == key
        checked += 1


def random_downward_closed(rng, k):
    """Random simplex set over ``range(k)``, filled level by level, not necessarily connected."""
    present = [s for s in combinations(range(k), 2) if rng.random() < 0.6] or [(0, 1)]
    for size in range(3, k + 1):
        level = set(present)
        present += [
            c
            for c in combinations(range(k), size)
            if all(f in level for f in combinations(c, size - 1)) and rng.random() < 0.6
        ]
    return present


def test_canonical_form_equals_tuple_sort_minimum():
    # the largest mask must be the smallest (size, tuple)-sorted relabeling
    rng = random.Random(43)
    for k, sets, relabelings in ((3, 20, None), (4, 20, None), (5, 6, None), (6, 6, 6)):
        perms = list(permutations(range(k)))
        for _ in range(sets):
            simplices = random_downward_closed(rng, k)
            expected = oracles.min_encoding(k, perms, simplices)
            sample = perms if relabelings is None else rng.sample(perms, relabelings)
            for perm in sample:
                key = canonical_form(k, relabeled(simplices, perm))
                assert key.simplices == expected


def test_canonical_form_rejects_a_simplex_without_its_faces(catalog3):
    cases = [
        (3, [(0, 1, 2)], r"\(0, 1, 2\)"),
        (3, [(0, 1), (1, 2), (0, 1, 2)], r"\(0, 1, 2\)"),
        # (1, 2, 3) has its faces; (0, 1, 2) lacks (0, 2).
        (4, [(0, 1), (1, 2), (2, 3), (1, 3), (1, 2, 3), (2, 1, 0)], r"\(0, 1, 2\)"),
    ]
    for k, simplices, named in cases:
        with pytest.raises(InputError, match=named):
            canonical_form(k, simplices)
    # A closed list is still classified, even with a disconnected skeleton.
    assert catalog3.index_of(canonical_form(3, [(0, 1), (0, 2), (1, 2), (0, 1, 2)])) == 3
    assert canonical_form(4, [(0, 1), (2, 3)]).vertex_count == 4


def relabeled_mask(key, perm):
    weight = {s: w for s, w, _ in simplex_layout(key.vertex_count)}
    return sum(weight[s] for s in relabeled(key.simplices, perm))


def check_refined_search_is_brute_force(keys, relabelings, seed):
    rng = random.Random(seed)
    for key in keys:
        k = key.vertex_count
        tables = catalog_module._tables(k).values()
        for _ in range(relabelings):
            perm = list(range(k))
            rng.shuffle(perm)
            mask = relabeled_mask(key, perm)
            assert catalog_module._canonical_mask(k, mask) == catalog_module._max_mask(
                tables, mask
            ), (key, perm)


@pytest.mark.parametrize("k", range(2, 7))
def test_weight_tables_equal_the_per_permutation_reference(k):
    tables = catalog_module._tables(k)
    reference = oracles.weight_tables(k)
    assert list(tables.items()) == list(reference.items())


def has_complete_skeleton(key):
    k = key.vertex_count
    return sum(len(s) == 2 for s in key.simplices) == k * (k - 1) // 2


def test_refined_search_equals_brute_force_up_to_m5(catalog5):
    check_refined_search_is_brute_force(catalog5.keys, relabelings=4, seed=47)


def test_refined_search_equals_brute_force_sampled_m6():
    # complete skeletons take the all-tables fallback; sample both kinds
    rng = random.Random(53)
    six = [key for key in generate_catalog(6).keys if key.vertex_count == 6]
    complete = [key for key in six if has_complete_skeleton(key)]
    others = [key for key in six if not has_complete_skeleton(key)]
    assert len(complete) == 7751 and len(others) == 8191
    sample = rng.sample(others, 150) + rng.sample(complete, 40)
    check_refined_search_is_brute_force(sample, relabelings=2, seed=59)


@pytest.mark.slow
def test_refined_search_equals_brute_force_every_m6_type():
    six = [key for key in generate_catalog(6).keys if key.vertex_count == 6]
    check_refined_search_is_brute_force(six, relabelings=1, seed=61)


def test_catalog_m5_is_pinned():
    obj = generate_catalog(5).to_json_obj()
    digest = hashlib.sha256(json.dumps(obj).encode()).hexdigest()
    assert digest == "ecadbe3b961cf1269c7611ecc129387ca6628f35ad94f3668abd7a4baf6b17c2"


def test_catalog_sizes(catalog3, catalog4):
    assert len(generate_catalog(2)) == 1
    assert len(catalog3) == 4
    assert len(catalog4) == 18
    # derived independently: pairwise permutation-search isomorphism classes
    assert oracles.iso_class_count(2) == 1
    assert oracles.iso_class_count(3) == 3
    assert len(catalog3) == 1 + oracles.iso_class_count(3)


def test_catalog_m_range_rejected():
    for m in (1, 0, 7, 9):
        with pytest.raises(InputError):
            generate_catalog(m)


@pytest.mark.parametrize("call, named", [
    (lambda: generate_catalog("4"), "non-integer m"),
    (lambda: generate_catalog(4.0), "non-integer m"),
    (lambda: generate_catalog(None), "non-integer m"),
    (lambda: canonical_form("3", [(0, 1)]), "non-integer vertex_count"),
    (lambda: canonical_form(3.0, [(0, 1)]), "non-integer vertex_count"),
])
def test_sizes_that_are_not_integers_are_rejected(call, named):
    with pytest.raises(InputError, match=named):
        call()


def test_catalog_keys_unique_and_ordered(catalog5):
    keys = catalog5.keys
    assert len(set(keys)) == len(keys)
    assert list(keys) == sorted(keys)
    assert [k.vertex_count for k in keys] == sorted(k.vertex_count for k in keys)


def test_catalog_keys_valid_complexes(catalog5):
    for key in catalog5.keys:
        assert oracles.downward_closed(key.vertex_count, key.simplices)
        assert oracles.skeleton_connected(key.vertex_count, key.simplices)


def test_catalog_keys_equal_full_permutation_minimum(catalog5):
    # the generator minimizes only over skeleton automorphisms; that must
    # coincide with the plain minimum over all k! relabelings
    for key in catalog5.keys:
        assert canonical_form(key.vertex_count, key.simplices) == key


def test_catalog_generation_deterministic(catalog4):
    again = generate_catalog(4)
    assert again.keys == catalog4.keys


def test_index_of_roundtrip(catalog4):
    edge_key = canonical_form(2, [(0, 1)])
    assert catalog4.index_of(edge_key) == 0
    for i, key in enumerate(catalog4.keys):
        assert catalog4.index_of(key) == i


def test_index_of_errors(catalog3, catalog4):
    four_vertex = next(k for k in catalog4.keys if k.vertex_count == 4)
    with pytest.raises(InputError):
        catalog3.index_of(four_vertex)
    from simplets import SimpletTypeKey

    non_canonical = SimpletTypeKey(3, ((0, 2), (1, 2)))
    with pytest.raises(IntegrityError):
        catalog3.index_of(non_canonical)


def test_canonical_key_of_every_simplet_is_in_catalog(catalog4):
    from .conftest import random_complexes

    for complex_ in random_complexes(6, max_n=9, seed=31):
        from simplets import enumerate_connected_subsets

        for vs in enumerate_connected_subsets(complex_, 4):
            key = canonical_key(Simplet(complex_, vs))
            assert catalog4.index_of(key) >= 0


def test_classifier_matches_direct_canonicalization(catalog4):
    from simplets import TypeClassifier, enumerate_connected_subsets

    from .conftest import random_complexes

    classifier = TypeClassifier(catalog4)
    for complex_ in random_complexes(4, max_n=9, seed=37):
        for vs in enumerate_connected_subsets(complex_, 4):
            simplet = Simplet(complex_, vs)
            assert classifier.index_of(simplet) == catalog4.index_of(
                canonical_key(simplet)
            )


def test_catalog_k5_matches_plain_labeled_enumeration(catalog5):
    """Exhaustive labeled enumeration, no automorphism shortcuts."""
    seen_keys = {canonical_form(5, s) for s in oracles.labeled_connected_complexes(5)}
    assert seen_keys == {key for key in catalog5.keys if key.vertex_count == 5}


def test_catalog_data_equals_generator():
    for m in range(2, 6):
        assert generate_catalog(m).keys == catalog_reference._generate_catalog(m).keys


def test_catalog_m6_is_pinned():
    catalog6 = generate_catalog(6)
    assert len(catalog6) == 16117
    digest = hashlib.sha256(json.dumps(catalog6.to_json_obj()).encode()).hexdigest()
    assert digest == "9f5460c252609dfc768d1559af3ec0d396624d258bf5d32e1ccda7aaec6f4fc2"
    assert len(set(catalog6.keys)) == len(catalog6.keys)
    rng = random.Random(41)
    for key in rng.sample([k for k in catalog6.keys if k.vertex_count == 6], 40):
        assert oracles.downward_closed(6, key.simplices)
        assert oracles.skeleton_connected(6, key.simplices)
        assert canonical_form(6, key.simplices) == key


def test_damaged_catalog_data_is_rejected(tmp_path, monkeypatch, capsys):
    with open(catalog_module._CATALOG_DATA, encoding="ascii") as data:
        lines = data.readlines()
    truncated = tmp_path / "truncated.txt"
    truncated.write_text("".join(lines[:-1]), encoding="ascii")
    monkeypatch.setattr(catalog_module, "_CATALOG_DATA", str(truncated))
    assert len(generate_catalog(5)) == 175  # the lines of k <= 5 are intact
    with pytest.raises(IntegrityError):
        generate_catalog(6)
    truncated.write_text("".join(lines[:100]), encoding="ascii")
    with pytest.raises(IntegrityError):
        generate_catalog(5)
    monkeypatch.setattr(catalog_module, "_CATALOG_DATA", str(tmp_path / "missing.txt"))
    with pytest.raises(IntegrityError):
        generate_catalog(3)
    assert main(["catalog", "--m", "3"]) == 5
    assert "catalog data" in capsys.readouterr().err


@pytest.mark.slow
def test_catalog_m6_generates(tmp_path):
    regenerate = (
        "the catalog data differs from the generator; regenerate it with "
        "PYTHONPATH=src python -m tests.catalog_reference"
    )
    reference = catalog_reference._generate_catalog(6)
    assert reference.keys == generate_catalog(6).keys, regenerate
    path = tmp_path / "catalog_masks.txt"
    catalog_reference._write_catalog_data(reference, path)
    with open(catalog_module._CATALOG_DATA, "rb") as committed:
        assert path.read_bytes() == committed.read(), regenerate
