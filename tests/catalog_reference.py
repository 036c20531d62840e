"""The reference generator behind the committed catalog data.

``simplets.generate_catalog`` reads the catalog from
``src/simplets/catalog_masks.txt``; this module enumerates it from scratch,
and the tests compare the two.  Regenerate the file (about 25 s on a 2-vCPU
VM) with::

    PYTHONPATH=src python -m tests.catalog_reference

Classes are enumerated skeleton-first.  Two complexes with non-isomorphic
1-skeletons are never isomorphic, and once a skeleton is fixed in canonical
form, any isomorphism between two fillings of it is an automorphism of the
skeleton.  Fillings are therefore deduplicated orbit-wise under Aut(G),
level by level, and the final key equals the plain maximum over all k!
relabelings because the edges hold a mask's high bits.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

from simplets.catalog import (
    _CATALOG_DATA,
    MAX_CATALOG_VERTICES,
    SimpletCatalog,
    SimpletTypeKey,
    _bits,
    _edges,
    _key,
    _max_mask,
    _tables,
)
from simplets.complexes import simplex_layout

from .oracles import skeleton_connected


def _connected_graph_classes(k: int) -> list[int]:
    """Canonical edge masks of all connected graphs on k vertices.

    Edges are deleted one at a time from the complete graph while it stays
    connected.  That reaches every connected graph: deleting the edges it
    lacks, in any order, passes only through its supergraphs.
    """
    tables = _tables(k).values()
    edges, complete = _edges(k)
    classes = {complete}
    frontier = [complete]
    while frontier:
        smaller = []
        for mask in frontier:
            for _, _, w in edges:
                rest = mask & ~w
                if rest == mask or not skeleton_connected(
                    k, [(u, v) for u, v, x in edges if rest & x]
                ):
                    continue
                canonical = _max_mask(tables, rest)
                if canonical not in classes:
                    classes.add(canonical)
                    smaller.append(canonical)
        frontier = smaller
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
    """Bitmasks over ``num_slots`` slots that are minimal in their orbit.

    The scan is vectorised: each chunk of masks is mapped under every
    nontrivial permutation by one matrix product, and a mask is kept when no
    image is smaller.  Masks come out in increasing order.
    """
    total = 1 << num_slots
    nontrivial = [p for p in slot_perms if p != tuple(range(num_slots))]
    if not nontrivial:
        yield from range(total)
        return
    import numpy as np

    chunk = 1 << 15
    # float64 is exact here: a fill level has at most C(6, 3) = 20 slots, so
    # each slot weight is a power of two below 2**20 and every image sum is
    # an integer below 2**53.
    weight_cols = np.empty((num_slots, len(nontrivial)), dtype=np.float64)
    for j, p in enumerate(nontrivial):
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
        # The skeleton is already canonical, so maximizing over Aut(G)
        # equals maximizing over all k! relabelings.
        masks.update(_max_mask(auts, mask) for mask in results)
    return sorted(_key(k, mask) for mask in masks)


def _generate_catalog(m: int) -> SimpletCatalog:
    keys: list[SimpletTypeKey] = []
    for k in range(2, m + 1):
        keys.extend(_classes_for_vertex_count(k))
    return SimpletCatalog(m, tuple(keys))


def _write_catalog_data(catalog: SimpletCatalog, path: str | Path) -> None:
    """Write ``catalog`` in the committed data format, one ``k hexmask`` line per type."""
    weights = {k: {s: w for s, w, _ in simplex_layout(k)} for k in range(2, catalog.m + 1)}
    with open(path, "w", encoding="ascii") as out:
        for key in catalog.keys:
            mask = sum(weights[key.vertex_count][s] for s in key.simplices)
            out.write(f"{key.vertex_count} {mask:x}\n")


if __name__ == "__main__":
    _write_catalog_data(_generate_catalog(MAX_CATALOG_VERTICES), _CATALOG_DATA)
