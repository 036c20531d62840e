"""Canonical, permutation-invariant classification of simplets.

A simplet type is an isomorphism class of small connected complexes.  The
canonical key of a simplet is the minimum, over all relabelings of its k
vertices, of the sorted list of its simplices of dimension >= 1.  Keys are
compared with simplices ordered by (size, vertex tuple), so the edge part of
an encoding always precedes the higher-dimensional part.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from .complexes import Simplet
from .errors import InputError, IntegrityError

__all__ = [
    "SimpletTypeKey",
    "SimpletCatalog",
    "TypeClassifier",
    "canonical_form",
    "canonical_key",
    "generate_catalog",
]

MAX_CATALOG_VERTICES = 6

_PERMS: dict[int, tuple[tuple[int, ...], ...]] = {}


def _perms(k: int) -> tuple[tuple[int, ...], ...]:
    if k not in _PERMS:
        if k > MAX_CATALOG_VERTICES:
            raise InputError(
                f"canonicalization supports at most {MAX_CATALOG_VERTICES} vertices, got {k}"
            )
        _PERMS[k] = tuple(permutations(range(k)))
    return _PERMS[k]


def _encoding_sort_key(simplex: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (len(simplex), simplex)


def _encode_under(
    perm: Sequence[int], simplices: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    return tuple(
        sorted((tuple(sorted(perm[v] for v in s)) for s in simplices), key=_encoding_sort_key)
    )


def _min_encoding(
    perms: Iterable[Sequence[int]], simplices: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    best = None
    for perm in perms:
        cand = _encode_under(perm, simplices)
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


@dataclass(frozen=True, order=True)
class SimpletTypeKey:
    """Canonical encoding of a simplet type: vertex count plus canonical simplex list."""

    vertex_count: int
    simplices: tuple[tuple[int, ...], ...]


def canonical_form(vertex_count: int, simplices: Iterable[Iterable[int]]) -> SimpletTypeKey:
    """Canonical key of a complex given over local labels ``[0, vertex_count)``.

    ``simplices`` must list every simplex of dimension >= 1 (vertices are
    implied).  The result is invariant under any relabeling of the input.
    """
    if vertex_count < 2:
        raise InputError("a simplet type needs at least two vertices")
    base = sorted({tuple(sorted(s)) for s in simplices})
    for s in base:
        if len(s) < 2:
            raise InputError(f"simplex {s} has dimension < 1")
        if any(not (0 <= v < vertex_count) for v in s):
            raise InputError(f"simplex {s} uses labels outside [0, {vertex_count})")
    return SimpletTypeKey(vertex_count, _min_encoding(_perms(vertex_count), base))


def canonical_key(simplet: Simplet) -> SimpletTypeKey:
    """Canonical key of a simplet, invariant under vertex relabeling of the host."""
    local = {v: i for i, v in enumerate(simplet.vertices)}
    return canonical_form(
        len(simplet.vertices),
        [tuple(local[v] for v in s) for s in simplet.simplices()],
    )


@dataclass(frozen=True)
class SimpletCatalog:
    """Ordered family of all simplet types with at most ``m`` vertices."""

    m: int
    keys: tuple[SimpletTypeKey, ...]
    index: dict[SimpletTypeKey, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {key: i for i, key in enumerate(self.keys)})

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[SimpletTypeKey]:
        return iter(self.keys)

    def index_of(self, key: SimpletTypeKey) -> int:
        if key.vertex_count > self.m:
            raise InputError(
                f"key has {key.vertex_count} vertices but the catalog only covers m={self.m}"
            )
        try:
            return self.index[key]
        except KeyError:
            raise IntegrityError(
                f"key {key} not found in the complete catalog for m={self.m}; "
                "this indicates a canonicalization bug"
            ) from None

    def to_json_obj(self) -> list[dict]:
        return [
            {"k": key.vertex_count, "simplices": [list(s) for s in key.simplices]}
            for key in self.keys
        ]


# --- catalog generation --------------------------------------------------
#
# Classes are enumerated skeleton-first.  Two complexes with non-isomorphic
# 1-skeletons are never isomorphic, and once a skeleton is fixed in canonical
# form, any isomorphism between two fillings of it is an automorphism of the
# skeleton.  Fillings are therefore deduplicated orbit-wise under Aut(G),
# level by level, and the final key equals the plain minimum over all k!
# permutations because the (size, tuple) encoding order compares the edge
# part first.


def _labeled_trees(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All labeled trees on k vertices, decoded from Pruefer sequences."""
    if k == 2:
        yield ((0, 1),)
        return
    for seq in product(range(k), repeat=k - 2):
        degree = [1] * k
        for v in seq:
            degree[v] += 1
        leaves = [v for v in range(k) if degree[v] == 1]
        heapq.heapify(leaves)
        edges = []
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, v) if leaf < v else (v, leaf))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u = heapq.heappop(leaves)
        w = heapq.heappop(leaves)
        edges.append((u, w) if u < w else (w, u))
        yield tuple(edges)


def _connected_graph_classes(k: int) -> list[tuple[tuple[int, ...], ...]]:
    """Canonical edge encodings of all connected spanning graphs on k vertices.

    Grown by single-edge augmentation from spanning trees, which reaches every
    connected spanning graph.
    """
    perms = _perms(k)
    all_pairs = list(combinations(range(k), 2))
    classes: set[tuple[tuple[int, ...], ...]] = set()
    frontier: set[tuple[tuple[int, ...], ...]] = set()
    for tree in _labeled_trees(k):
        enc = _min_encoding(perms, tree)
        if enc not in classes:
            classes.add(enc)
            frontier.add(enc)
    while frontier:
        next_frontier: set[tuple[tuple[int, ...], ...]] = set()
        for enc in frontier:
            present = set(enc)
            for pair in all_pairs:
                if pair in present:
                    continue
                enc2 = _min_encoding(perms, list(enc) + [pair])
                if enc2 not in classes:
                    classes.add(enc2)
                    next_frontier.add(enc2)
        frontier = next_frontier
    return sorted(classes)


def _automorphisms(
    k: int, simplices: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Vertex permutations mapping the simplex set onto itself."""
    reference = set(simplices)
    auts = []
    for perm in _perms(k):
        if all(tuple(sorted(perm[v] for v in s)) in reference for s in simplices):
            auts.append(perm)
    return auts


def _slot_permutations(
    candidates: Sequence[tuple[int, ...]], auts: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Distinct permutations of candidate slots induced by the automorphisms."""
    slot_of = {c: i for i, c in enumerate(candidates)}
    seen = set()
    maps = []
    for perm in auts:
        slot_map = tuple(slot_of[tuple(sorted(perm[v] for v in c))] for c in candidates)
        if slot_map not in seen:
            seen.add(slot_map)
            maps.append(slot_map)
    return maps


def _orbit_reps(num_slots: int, slot_perms: Sequence[tuple[int, ...]]) -> Iterator[int]:
    """Bitmasks over ``num_slots`` slots that are minimal in their orbit."""
    total = 1 << num_slots
    nontrivial = [p for p in slot_perms if p != tuple(range(num_slots))]
    if not nontrivial:
        yield from range(total)
        return
    if total * len(nontrivial) > 2_000_000:
        yield from _orbit_reps_bulk(num_slots, nontrivial)
        return
    shifted = [[1 << p[i] for i in range(num_slots)] for p in nontrivial]
    for mask in range(total):
        minimal = True
        for bits in shifted:
            mapped = 0
            rest = mask
            while rest:
                low = rest & -rest
                mapped |= bits[low.bit_length() - 1]
                rest ^= low
            if mapped < mask:
                minimal = False
                break
        if minimal:
            yield mask
    return


def _orbit_reps_bulk(num_slots: int, slot_perms: Sequence[tuple[int, ...]]) -> Iterator[int]:
    """Vectorized orbit-minimality scan for large slot counts or groups."""
    import numpy as np

    total = 1 << num_slots
    chunk = 1 << 15
    weight_cols = np.empty((num_slots, len(slot_perms)), dtype=np.float64)
    for j, p in enumerate(slot_perms):
        for i in range(num_slots):
            weight_cols[i, j] = float(1 << p[i])
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        masks = np.arange(start, stop, dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(num_slots)[None, :]) & 1).astype(np.float64)
        mapped = bits @ weight_cols
        keep = np.all(mapped >= masks[:, None].astype(np.float64), axis=1)
        for mask in masks[keep]:
            yield int(mask)


def _fillings(
    k: int,
    previous_level: Sequence[tuple[int, ...]],
    size: int,
    chosen: list[tuple[int, ...]],
    auts: list[tuple[int, ...]],
    out: list[tuple[tuple[int, ...], ...]],
) -> None:
    """Enumerate downward-closed extensions level by level, one rep per Aut-orbit."""
    if size > k:
        out.append(tuple(chosen))
        return
    prev = set(previous_level)
    candidates = [
        c for c in combinations(range(k), size) if all(f in prev for f in combinations(c, size - 1))
    ]
    if not candidates:
        out.append(tuple(chosen))
        return
    slot_perms = _slot_permutations(candidates, auts)
    for mask in _orbit_reps(len(candidates), slot_perms):
        picked = [candidates[i] for i in range(len(candidates)) if mask >> i & 1]
        picked_set = set(picked)
        stab = [
            a for a in auts if all(tuple(sorted(a[v] for v in c)) in picked_set for c in picked)
        ]
        _fillings(k, picked, size + 1, chosen + picked, stab, out)


def _classes_for_vertex_count(k: int) -> list[SimpletTypeKey]:
    keys: set[SimpletTypeKey] = set()
    for edges_enc in _connected_graph_classes(k):
        auts = _automorphisms(k, edges_enc)
        results: list[tuple[tuple[int, ...], ...]] = []
        _fillings(k, list(edges_enc), 3, [], auts, results)
        for extra in results:
            simplices = list(edges_enc) + list(extra)
            # The skeleton is already canonical, so minimizing over Aut(G)
            # equals minimizing over all k! permutations.
            keys.add(SimpletTypeKey(k, _min_encoding(auts, simplices)))
    return sorted(keys)


def generate_catalog(m: int) -> SimpletCatalog:
    """The ordered catalog of every simplet type with 2..m vertices.

    Types are ordered by vertex count, then lexicographically on their
    canonical simplex encodings.  ``m`` must lie in [2, 6]; generation for
    m = 6 is exhaustive and takes considerably longer than smaller sizes.
    """
    if not (2 <= m <= MAX_CATALOG_VERTICES):
        raise InputError(f"catalog supports 2 <= m <= {MAX_CATALOG_VERTICES}, got {m}")
    keys: list[SimpletTypeKey] = []
    for k in range(2, m + 1):
        keys.extend(_classes_for_vertex_count(k))
    return SimpletCatalog(m, tuple(keys))


class TypeClassifier:
    """Maps simplets to catalog positions, memoizing by local structure.

    The cache key is the order-preserving local encoding of a simplet, so
    repeated classification of structurally identical simplets skips the
    permutation search.  Semantics match
    ``catalog.index_of(canonical_key(simplet))`` exactly.
    """

    def __init__(self, catalog: SimpletCatalog):
        self.catalog = catalog
        self._cache: dict[tuple[int, tuple[tuple[int, ...], ...]], int] = {}

    def index_of(self, simplet: Simplet) -> int:
        local = {v: i for i, v in enumerate(simplet.vertices)}
        raw = tuple(
            sorted(
                (tuple(local[v] for v in s) for s in simplet.simplices()),
                key=_encoding_sort_key,
            )
        )
        k = len(simplet.vertices)
        cached = self._cache.get((k, raw))
        if cached is not None:
            return cached
        index = self.catalog.index_of(canonical_form(k, raw))
        self._cache[(k, raw)] = index
        return index
