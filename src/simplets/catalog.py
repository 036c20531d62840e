"""Canonical, permutation-invariant classification of simplets.

A simplet type is an isomorphism class of small connected complexes.  The
canonical key of a simplet is the minimum, over all relabelings of its k
vertices, of the list of its simplices of dimension >= 1 sorted by (size,
vertex tuple), so the edge part of an encoding always precedes the
higher-dimensional part.  Relabelings keep the number of simplices of each
size, so that minimum is the relabeling with the largest simplex mask
(``complexes.simplex_layout``), and every search here runs on masks.

The catalog for m <= 6 is committed as package data (``catalog_masks.txt``)
and ``generate_catalog`` reads it.  The generator below is the reference it
was made by; regenerate the file (about 25 s) with::

    PYTHONPATH=src python -c 'from simplets import catalog; catalog._write_catalog_data()'
"""

from __future__ import annotations

import functools
import heapq
import os
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Iterable, Iterator, Sequence

from .complexes import Simplet, decode_mask, simplex_layout
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

# One ``k hexmask`` line per type in catalog order; the mask is under
# ``simplex_layout(k)``.  ``_CATALOG_SIZES[m]`` is the size of the m catalog.
_CATALOG_DATA = os.path.join(os.path.dirname(__file__), "catalog_masks.txt")
_CATALOG_SIZES = {2: 1, 3: 4, 4: 18, 5: 175, 6: 16117}


@functools.cache
def _tables(k: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """One weight table per relabeling of ``range(k)``, keyed by its vertex
    order (the vertex that gets label 0 first): entry ``b`` is the weight
    that the subset of weight ``2 ** b`` is relabeled to."""
    if k > MAX_CATALOG_VERTICES:
        raise InputError(
            f"canonicalization supports at most {MAX_CATALOG_VERTICES} vertices, got {k}"
        )
    weight = {s: w for s, w, _ in simplex_layout(k)}
    tables = {}
    for perm in permutations(range(k)):
        order = [0] * k
        for v, label in enumerate(perm):
            order[label] = v
        tables[tuple(order)] = tuple(
            weight[tuple(sorted(perm[v] for v in s))] for s in reversed(weight)
        )
    return tables


def _bits(mask: int) -> list[int]:
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


# The set bits of every vertex bitmask of up to MAX_CATALOG_VERTICES vertices.
_BITS = tuple(tuple(_bits(cell)) for cell in range(1 << MAX_CATALOG_VERTICES))


def _max_mask(tables: Iterable[Sequence[int]], mask: int) -> int:
    bits = _bits(mask)
    return max(sum(map(table.__getitem__, bits)) for table in tables)


@functools.cache
def _edges(k: int) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """``(u, v, weight)`` per edge of ``simplex_layout(k)``, and the mask of
    all edges."""
    edges = tuple((s[0], s[1], w) for s, w, _ in simplex_layout(k) if len(s) == 2)
    return edges, sum(w for _, _, w in edges)


def _edge_maximal_orders(k: int, rows: Sequence[int]) -> list[tuple[int, ...]]:
    """Vertex orders (the vertex that gets label 0 first) that include every
    labelling giving the skeleton with adjacency bitmasks ``rows`` its
    largest edge part.

    Labels go out one at a time.  A partial labelling keeps its unlabelled
    vertices in ordered cells, as bitmasks: a cell's labels come before those
    of every later cell.  Labelling ``v`` next gives it a row of ones for its
    neighbours in each later cell, placed first in that cell, so the largest
    row goes to the vertices whose neighbour counts in the later cells form
    the largest tuple.  Ties branch, compared across all partial labellings
    of the level; each cell then splits into the new vertex's neighbours and
    the rest.  The partial labellings of a level share their rows so far and
    hence their cell sizes; once every cell is a single vertex, each has one
    completion, and all of them are returned.
    """
    level: list[tuple[tuple[int, ...], list[int]]] = [((), [(1 << k) - 1])]
    while len(level[0][1]) < k - len(level[0][0]):
        best: tuple[int, ...] = ()
        picks: list[tuple[tuple[int, ...], list[int], int]] = []
        for order, cells in level:
            first, rest = cells[0], cells[1:]
            for v in _BITS[first]:
                row = rows[v]
                counts = ((first & row).bit_count(), *[(c & row).bit_count() for c in rest])
                if counts > best:
                    best, picks = counts, [(order, cells, v)]
                elif counts == best:
                    picks.append((order, cells, v))
        level = []
        for order, cells, v in picks:
            row = rows[v]
            split = []
            for c in (cells[0] & ~(1 << v), *cells[1:]):
                if c & row:
                    split.append(c & row)
                if c & ~row:
                    split.append(c & ~row)
            level.append((order + (v,), split))
    return [order + tuple(c.bit_length() - 1 for c in cells) for order, cells in level]


def _canonical_mask(k: int, mask: int) -> int:
    """The largest relabeling of a k-vertex simplex mask.

    Edges hold the high bits, so the largest relabeling is one whose edge
    part is largest.  Individualisation and refinement over the skeleton's
    rows (McKay & Piperno, 2014) finds those labellings, and only their
    weight tables are evaluated.  For k <= 4 or a complete skeleton the
    refinement prunes little or nothing, and every table is evaluated.
    """
    tables = _tables(k)
    if k <= 4:
        return _max_mask(tables.values(), mask)
    edges, all_edges = _edges(k)
    if mask & all_edges == all_edges:
        return _max_mask(tables.values(), mask)
    rows = [0] * k
    for u, v, w in edges:
        if mask & w:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return _max_mask(map(tables.__getitem__, _edge_maximal_orders(k, rows)), mask)


@dataclass(frozen=True, order=True)
class SimpletTypeKey:
    """Canonical encoding of a simplet type: vertex count plus canonical simplex list."""

    vertex_count: int
    simplices: tuple[tuple[int, ...], ...]


def _key(k: int, mask: int) -> SimpletTypeKey:
    return SimpletTypeKey(k, decode_mask(k, mask))


def canonical_form(vertex_count: int, simplices: Iterable[Iterable[int]]) -> SimpletTypeKey:
    """Canonical key of a complex given over local labels ``[0, vertex_count)``.

    ``simplices`` must list every simplex of dimension >= 1 (vertices are
    implied).  The result is invariant under any relabeling of the input.
    """
    if vertex_count < 2:
        raise InputError("a simplet type needs at least two vertices")
    _tables(vertex_count)  # rejects k > 6 before the 2**k layout is built
    weight = {s: w for s, w, _ in simplex_layout(vertex_count)}
    mask = 0
    for s in {tuple(sorted(s)) for s in simplices}:
        if s not in weight:
            raise InputError(
                f"simplex {s} is not a set of at least two distinct labels in [0, {vertex_count})"
            )
        mask |= weight[s]
    return _key(vertex_count, _canonical_mask(vertex_count, mask))


def canonical_key(simplet: Simplet) -> SimpletTypeKey:
    """Canonical key of a simplet, invariant under vertex relabeling of the host."""
    k = len(simplet.vertices)
    return _key(k, _canonical_mask(k, simplet.mask()))


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


def _connected_graph_classes(k: int) -> list[int]:
    """Canonical edge masks of all connected spanning graphs on k vertices.

    Grown by single-edge augmentation from spanning trees, which reaches every
    connected spanning graph.
    """
    tables = _tables(k).values()
    weight = {s: w for s, w, _ in simplex_layout(k)}
    edge_weights = [w for s, w in weight.items() if len(s) == 2]
    classes: set[int] = set()
    frontier: set[int] = set()
    for tree in _labeled_trees(k):
        enc = _max_mask(tables, sum(weight[e] for e in tree))
        if enc not in classes:
            classes.add(enc)
            frontier.add(enc)
    while frontier:
        next_frontier: set[int] = set()
        for enc in frontier:
            for w in edge_weights:
                if enc & w:
                    continue
                enc2 = _max_mask(tables, enc | w)
                if enc2 not in classes:
                    classes.add(enc2)
                    next_frontier.add(enc2)
        frontier = next_frontier
    return sorted(classes)


def _stabilizer(tables: Iterable[Sequence[int]], mask: int) -> list[Sequence[int]]:
    """The relabelings, as weight tables, that map the mask onto itself."""
    bits = _bits(mask)
    return [table for table in tables if sum(map(table.__getitem__, bits)) == mask]


def _slot_permutations(
    candidates: Sequence[int], auts: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Distinct permutations of candidate slots induced by the automorphisms."""
    slot_of = {c: i for i, c in enumerate(candidates)}
    seen = set()
    maps = []
    for table in auts:
        slot_map = tuple(slot_of[table[c.bit_length() - 1]] for c in candidates)
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
    k: int, size: int, chosen: int, auts: list[Sequence[int]], out: list[int]
) -> None:
    """Enumerate downward-closed extensions level by level, one rep per Aut-orbit."""
    candidates = [
        w for s, w, faces in simplex_layout(k) if len(s) == size and chosen & faces == faces
    ]
    if not candidates:
        out.append(chosen)
        return
    slot_perms = _slot_permutations(candidates, auts)
    for slots in _orbit_reps(len(candidates), slot_perms):
        picked = sum(w for i, w in enumerate(candidates) if slots >> i & 1)
        _fillings(k, size + 1, chosen | picked, _stabilizer(auts, picked), out)


def _classes_for_vertex_count(k: int) -> list[SimpletTypeKey]:
    masks: set[int] = set()
    for edges in _connected_graph_classes(k):
        auts = _stabilizer(_tables(k).values(), edges)
        results: list[int] = []
        _fillings(k, 3, edges, auts, results)
        # The skeleton is already canonical, so minimizing over Aut(G)
        # equals minimizing over all k! permutations.
        masks.update(_max_mask(auts, mask) for mask in results)
    return sorted(_key(k, mask) for mask in masks)


def _generate_catalog(m: int) -> SimpletCatalog:
    """The reference generator behind the committed catalog data."""
    keys: list[SimpletTypeKey] = []
    for k in range(2, m + 1):
        keys.extend(_classes_for_vertex_count(k))
    return SimpletCatalog(m, tuple(keys))


def _write_catalog_data() -> None:
    """Regenerate the committed catalog data from the reference generator."""
    catalog = _generate_catalog(MAX_CATALOG_VERTICES)
    weights = {k: {s: w for s, w, _ in simplex_layout(k)} for k in range(2, catalog.m + 1)}
    with open(_CATALOG_DATA, "w", encoding="ascii") as out:
        for key in catalog.keys:
            mask = sum(weights[key.vertex_count][s] for s in key.simplices)
            out.write(f"{key.vertex_count} {mask:x}\n")


def generate_catalog(m: int) -> SimpletCatalog:
    """The ordered catalog of every simplet type with 2..m vertices.

    Types are ordered by vertex count, then lexicographically on their
    canonical simplex encodings.  ``m`` must lie in [2, 6].  The types are
    read from the committed catalog data; a missing or incomplete file
    raises ``IntegrityError``.
    """
    if not (2 <= m <= MAX_CATALOG_VERTICES):
        raise InputError(f"catalog supports 2 <= m <= {MAX_CATALOG_VERTICES}, got {m}")
    sizes: dict[int, int] = {}
    keys: list[SimpletTypeKey] = []
    try:
        with open(_CATALOG_DATA, encoding="ascii") as data:
            for line in data:
                k_text, mask_text = line.split()
                k = int(k_text)
                if k > m:
                    break
                keys.append(_key(k, int(mask_text, 16)))
                sizes[k] = len(keys)
    except (OSError, ValueError) as exc:
        raise IntegrityError(f"catalog data {_CATALOG_DATA} is unreadable: {exc!r}") from None
    expected = {k: _CATALOG_SIZES[k] for k in range(2, m + 1)}
    if sizes != expected:
        raise IntegrityError(
            f"catalog data {_CATALOG_DATA} gives catalog sizes {sizes} by m, expected {expected}"
        )
    return SimpletCatalog(m, tuple(keys))


class TypeClassifier:
    """Maps simplets to catalog positions, memoizing on ``(k, simplex mask)``.

    Structurally identical simplets under the same vertex order share a mask,
    so repeated classification skips the permutation search.  Semantics match
    ``catalog.index_of(canonical_key(simplet))`` exactly.
    """

    def __init__(self, catalog: SimpletCatalog):
        self.catalog = catalog
        self._cache: dict[tuple[int, int], int] = {}

    def index_of(self, simplet: Simplet) -> int:
        k, mask = len(simplet.vertices), simplet.mask()
        index = self._cache.get((k, mask))
        if index is None:
            index = self.catalog.index_of(_key(k, _canonical_mask(k, mask)))
            self._cache[k, mask] = index
        return index
