"""Exact simplet enumeration and the exact SFD vector.

The counting recursion, ``_esu``, walks the connected vertex sets of the
1-skeleton using extension candidates restricted to ids above the root
vertex, so every connected subset appears once without a global seen-set
(the ESU scheme of Wernicke, TCBB 2006).  It carries each subset's simplex
mask, over the positions in insertion order, from parent to child: adding a
vertex tests only the simplices that end at its position and whose other
vertices it neighbours.  The last level is tallied in its parent's loop
rather than recursed into, and the leaves that attach only to the newest
vertex count as one.  The recursion tallies the subsets per ``(size,
mask)``, so exact counting classifies each distinct position-labelled mask
once instead of each subset, straight from the mask.  Enumeration is a
plain generator with the same extension rule and no masks.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Iterator

from .catalog import SimpletCatalog, _canonical_mask, _key
from .complexes import SimplicialComplex, _index, simplex_layout
from .errors import InputError, StructuralError
from .record import Record

__all__ = [
    "SFDVector",
    "enumerate_connected_subsets",
    "exact_counts",
]


class SFDVector(Record):
    """Simplet frequency distribution over the catalog order.

    Holds the per-type ``counts`` of a counting or sampling run, which must be
    nonnegative integers, not all zero.  ``total`` is their sum and ``frequencies``
    the counts divided by it, a length-N_m vector in [0, 1] summing to 1.
    """

    __slots__ = ("catalog_m", "counts", "mode", "total", "frequencies")
    _arity = 3
    _compared = ("catalog_m", "counts", "mode")
    _shown = ("catalog_m", "counts", "mode", "total")

    def __init__(self, catalog_m: int, counts: Iterable[int], mode: str = "exact"):
        try:
            counts = tuple(map(operator.index, counts))
        except TypeError as exc:
            raise InputError(f"counts must be integers: {exc}") from None
        if any(c < 0 for c in counts):
            raise InputError("counts must be nonnegative")
        total = sum(counts)
        if total == 0:
            raise InputError("cannot normalize an all-zero count vector")
        self._store(catalog_m, counts, mode, total, tuple(c / total for c in counts))

    def __len__(self) -> int:
        return len(self.counts)

    def to_json_obj(self) -> dict:
        return {
            "m": self.catalog_m,
            "frequencies": list(self.frequencies),
            "mode": self.mode,
            "counts": list(self.counts),
            "total": self.total,
        }


@functools.cache
def _attach_table(m: int) -> tuple[tuple[tuple[int, tuple], ...], ...]:
    """Per position j < m and attach pattern a < 2 ** j, where bit p is set when
    the vertex at j neighbours the vertex at position p: the summed weights of
    the edges (p, j) under ``simplex_layout(m)``, and the ``(others, weight,
    faces)`` of each larger layout entry that ends at j and whose other
    members all lie in the pattern.  No other entry ending at j can be a
    simplex, since a simplex's vertices are pairwise adjacent."""
    layout = simplex_layout(m)
    return tuple(
        tuple(
            (
                sum(w for s, w, _ in layout if len(s) == 2 and s[1] == j and a >> s[0] & 1),
                tuple(
                    (s[:-1], w, faces)
                    for s, w, faces in layout
                    if len(s) > 2 and s[-1] == j and all(a >> p & 1 for p in s[:-1])
                ),
            )
            for a in range(1 << j)
        )
        for j in range(m)
    )


def _esu(complex_: SimplicialComplex, m: int) -> list[dict[int, int]]:
    """Tally every connected vertex set of size 2..m per simplex mask.

    A set of size k found in insertion order ``sub`` has the simplex mask of
    the position-labelled ``sub`` under ``simplex_layout(m)``, which sets only
    bits of subsets of ``range(k)``.  Returns ``tallies``, where
    ``tallies[k]`` counts the k-sets per mask.

    Each extension candidate carries its attach pattern over ``sub`` (bit p
    set when it neighbours position p), kept up to date as ``sub`` grows.
    Adding it at position j looks the pattern up in ``_attach_table(m)``: the
    edges it brings, then only the larger simplices it can close, each taken
    when all of its faces are present and its vertices share a facet, as
    ``Simplet.mask()`` does: the other vertices are read from ``sub`` and
    their facet sets from the complex's incidence.

    The m-sets are the leaves.  The loop that adds an (m - 1)-set
    ``sub + (w,)`` tallies its leaves in place instead of recursing: a later
    candidate of ``sub`` extends it with w's bit added to its pattern and is
    tested as above, and w's fresh neighbours (above the root and outside
    ``closed``) attach to w alone.  Such a leaf closes no simplex beyond its
    edge to w, so all of them share one mask and count at once.
    """
    adj = complex_.adjacency
    incidence = complex_._incidence
    table = _attach_table(m)
    tallies: list[dict[int, int]] = [{} for _ in range(m + 1)]
    leaves = tallies[m]

    def extend(
        root: int,
        sub: tuple[int, ...],
        mask: int,
        ext: list[int],
        pats: list[int],
        closed: frozenset[int],
    ) -> None:
        j = len(sub)
        patterns = table[j]
        tally = tallies[j + 1]
        bit = 1 << j
        last = j + 2 == m
        if last:
            leaf_patterns = table[m - 1]
            fresh_edges = leaf_patterns[bit][0]
        for i, w in enumerate(ext):
            edges, larger = patterns[pats[i]]
            new_mask = mask | edges
            for others, weight, faces in larger:
                if new_mask & faces == faces and incidence[w].intersection(
                    *[incidence[sub[p]] for p in others]
                ):
                    new_mask |= weight
            tally[new_mask] = tally.get(new_mask, 0) + 1
            child = sub + (w,)
            nbrs = adj[w]
            fresh = [u for u in nbrs if u > root and u not in closed]
            rest = ext[i + 1 :]
            if not last:
                extend(
                    root,
                    child,
                    new_mask,
                    rest + fresh,
                    [a | bit if u in nbrs else a for u, a in zip(rest, pats[i + 1 :])]
                    + [bit] * len(fresh),
                    closed | nbrs,
                )
                continue
            for u, a in zip(rest, pats[i + 1 :]):
                edges, larger = leaf_patterns[a | bit if u in nbrs else a]
                leaf_mask = new_mask | edges
                for others, weight, faces in larger:
                    if leaf_mask & faces == faces and incidence[u].intersection(
                        *[incidence[child[p]] for p in others]
                    ):
                        leaf_mask |= weight
                leaves[leaf_mask] = leaves.get(leaf_mask, 0) + 1
            if fresh:
                leaf_mask = new_mask | fresh_edges
                leaves[leaf_mask] = leaves.get(leaf_mask, 0) + len(fresh)

    for root in range(complex_.vertex_count):
        ext0 = sorted(u for u in adj[root] if u > root)
        if not ext0:
            continue
        if m == 2:  # the root is the parent: its edge weighs 1 under simplex_layout(2)
            leaves[1] = leaves.get(1, 0) + len(ext0)
        else:
            extend(root, (root,), 0, ext0, [1] * len(ext0), adj[root] | {root})
    return tallies


def enumerate_connected_subsets(
    complex_: SimplicialComplex, m: int
) -> Iterator[tuple[int, ...]]:
    """Yield every vertex set of size 2..m whose induced skeleton is connected.

    Each subset is produced exactly once, as a sorted tuple, as soon as
    ``_esu``'s extension rule grows it: root by root in increasing order of
    its least vertex, each set before its own extensions.  Within a root the
    order follows the adjacency sets' iteration order, so it may differ between
    copies of a complex; the set of subsets, and hence every count, does not.
    """
    m = _index(m, "m")
    if m < 2:
        raise InputError(f"m must be at least 2, got {m}")
    adj = complex_.adjacency

    def extend(root, sub, ext, closed):
        for i, w in enumerate(ext):
            child = sub + (w,)
            yield tuple(sorted(child))
            if len(child) < m:
                nbrs = adj[w]
                fresh = [u for u in nbrs if u > root and u not in closed]
                yield from extend(root, child, ext[i + 1 :] + fresh, closed | nbrs)

    for root in range(complex_.vertex_count):
        ext0 = sorted(u for u in adj[root] if u > root)
        yield from extend(root, (root,), ext0, adj[root] | {root})


def exact_counts(complex_: SimplicialComplex, catalog: SimpletCatalog) -> SFDVector:
    """Exact per-type simplet counts and frequencies over the given catalog.

    One enumeration pass tallies the subsets per ``(size, mask)``.  Subsets
    that share a position-labelled mask share a type, so each distinct
    ``(size, mask)`` is classified once, from the mask alone: its bits move
    from ``simplex_layout(m)`` to ``simplex_layout(size)``, which list the
    subsets of ``range(size)`` in the same order, and ``_canonical_mask``
    maps the result to its type.
    """
    m = catalog.m
    tallies = _esu(complex_, m)
    weight = {s: w for s, w, _ in simplex_layout(m)}
    counts = [0] * len(catalog)
    for size in range(2, m + 1):
        relabel = [(weight[s], w) for s, w, _ in simplex_layout(size)]
        for mask, count in tallies[size].items():
            local = sum(w for w_m, w in relabel if mask & w_m)
            counts[catalog.index_of(_key(size, _canonical_mask(size, local)))] += count
    if sum(counts) == 0:
        raise StructuralError("complex has no simplets: the 1-skeleton has no edges")
    return SFDVector(m, counts)
