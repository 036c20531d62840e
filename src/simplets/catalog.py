"""Canonical, permutation-invariant classification of simplets.

A simplet type is an isomorphism class of small connected complexes.  The
canonical key of a simplet is the minimum, over all relabelings of its k
vertices, of the list of its simplices of dimension >= 1 sorted by (size,
vertex tuple), so the edge part of an encoding always precedes the
higher-dimensional part.  Relabelings keep the number of simplices of each
size, so that minimum is the relabeling with the largest simplex mask
(``complexes.simplex_layout``), and every search here runs on masks.

The catalog for m <= 6 is committed as package data (``catalog_masks.txt``)
and ``generate_catalog`` reads it; this module only loads and classifies.
The reference generator that made the file lives in the test suite;
regenerate the file (about 25 s on a 2-vCPU VM) from a source checkout with::

    PYTHONPATH=src python -m tests.catalog_reference
"""

from __future__ import annotations

import functools
import os
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import permutations

from .complexes import Simplet, _index, _positions, decode_mask, simplex_layout
from .errors import InputError, IntegrityError
from .record import Record

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
    that the subset of weight ``2 ** b`` is relabeled to.

    Subsets are vertex bitmasks here.  A relabeling's image of every bitmask
    is built from the bitmask without its lowest vertex, and each table reads
    the weights of the images of the simplex subsets."""
    if k > MAX_CATALOG_VERTICES:
        raise InputError(
            f"canonicalization supports at most {MAX_CATALOG_VERTICES} vertices, got {k}"
        )
    weight = [0] * (1 << k)
    for s, w, _ in simplex_layout(k):
        weight[sum(1 << v for v in s)] = w
    cells = sorted((c for c in range(1 << k) if weight[c]), key=weight.__getitem__)
    steps = [(c, c & (c - 1), (c & -c).bit_length() - 1) for c in range(1, 1 << k)]
    image = [0] * (1 << k)
    tables = {}
    for perm in permutations(range(k)):
        for c, rest, v in steps:
            image[c] = image[rest] | 1 << perm[v]
        order = [0] * k
        for v, label in enumerate(perm):
            order[label] = v
        tables[tuple(order)] = tuple([weight[image[c]] for c in cells])
    return tables


def _max_mask(tables: Iterable[Sequence[int]], mask: int) -> int:
    bits = _positions(mask)
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
            for v in _positions(first):
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


SimpletTypeKey = namedtuple("SimpletTypeKey", "vertex_count simplices")
SimpletTypeKey.__doc__ = (
    "Canonical encoding of a simplet type: vertex count plus canonical simplex list."
)


def _key(k: int, mask: int) -> SimpletTypeKey:
    return SimpletTypeKey(k, decode_mask(k, mask))


def canonical_form(vertex_count: int, simplices: Iterable[Iterable[int]]) -> SimpletTypeKey:
    """Canonical key of a complex given over local labels ``[0, vertex_count)``.

    ``simplices`` must list every simplex of dimension >= 1 with all of its
    faces (vertices are implied), else :class:`InputError`.  The result is
    invariant under any relabeling of the input.
    """
    vertex_count = _index(vertex_count, "vertex_count")
    if vertex_count < 2:
        raise InputError("a simplet type needs at least two vertices")
    _tables(vertex_count)  # rejects k > 6 before the 2**k layout is built
    layout = {s: (w, faces) for s, w, faces in simplex_layout(vertex_count)}
    listed = {tuple(sorted(s)) for s in simplices}
    mask = 0
    for s in listed:
        if s not in layout:
            raise InputError(
                f"simplex {s} is not a set of at least two distinct labels in [0, {vertex_count})"
            )
        mask |= layout[s][0]
    for s in sorted(listed):
        if layout[s][1] & ~mask:
            raise InputError(f"simplex {s} is listed without all of its faces")
    return _key(vertex_count, _canonical_mask(vertex_count, mask))


def canonical_key(simplet: Simplet) -> SimpletTypeKey:
    """Canonical key of a simplet, invariant under vertex relabeling of the host."""
    k = len(simplet.vertices)
    return _key(k, _canonical_mask(k, simplet.mask()))


class SimpletCatalog(Record):
    """Ordered family of all simplet types with at most ``m`` vertices.

    ``index`` maps each key to its position in ``keys``.
    """

    __slots__ = ("m", "keys", "index")
    _arity = 2
    _compared = _shown = ("m", "keys")

    def __init__(self, m: int, keys: tuple[SimpletTypeKey, ...]):
        self._store(m, keys, {key: i for i, key in enumerate(keys)})

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

    def index_of_mask(self, k: int, mask: int) -> int:
        """Catalog position of the type of a k-vertex simplex mask under
        ``simplex_layout(k)``, whatever its vertex labelling."""
        return self.index_of(_key(k, _canonical_mask(k, mask)))

    def to_json_obj(self) -> list[dict]:
        return [
            {"k": key.vertex_count, "simplices": [list(s) for s in key.simplices]}
            for key in self.keys
        ]


def generate_catalog(m: int) -> SimpletCatalog:
    """The ordered catalog of every simplet type with 2..m vertices.

    Types are ordered by vertex count, then lexicographically on their
    canonical simplex encodings.  ``m`` must lie in [2, 6].  The types are
    read from the committed catalog data; a missing or incomplete file
    raises ``IntegrityError``.
    """
    m = _index(m, "m")
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
            index = self.catalog.index_of_mask(k, mask)
            self._cache[k, mask] = index
        return index
