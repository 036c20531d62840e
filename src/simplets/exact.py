"""Exact simplet enumeration and the exact SFD vector.

One recursion, ``_esu``, walks the connected vertex sets of the 1-skeleton
using extension candidates restricted to ids above the root vertex, so every
connected subset appears exactly once without a global seen-set (the ESU
scheme of Wernicke, TCBB 2006).  It carries each subset's simplex mask, over
the positions in insertion order, from parent to child: adding a vertex tests
only the simplices that end at its position and whose other vertices it
neighbours.  The recursion tallies the subsets per ``(size, mask)``, so exact
counting classifies each distinct position-labelled mask once instead of each
subset; enumeration collects the subsets root by root.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .catalog import SimpletCatalog, canonical_form
from .complexes import SimplicialComplex, decode_mask, simplex_layout
from .errors import InputError, StructuralError

__all__ = [
    "SFDVector",
    "enumerate_connected_subsets",
    "exact_counts",
]


@dataclass(frozen=True)
class SFDVector:
    """Simplet frequency distribution over the catalog order.

    Holds the per-type ``counts`` of a counting or sampling run, which must be
    nonnegative and not all zero.  ``total`` is their sum and ``frequencies``
    the counts divided by it, a length-N_m vector in [0, 1] summing to 1.
    """

    catalog_m: int
    counts: tuple[int, ...]
    mode: str = "exact"
    total: int = field(init=False, compare=False)
    frequencies: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise InputError("counts must be nonnegative")
        total = sum(counts)
        if total == 0:
            raise InputError("cannot normalize an all-zero count vector")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "frequencies", tuple(c / total for c in counts))

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


def _esu(
    complex_: SimplicialComplex,
    m: int,
    roots: Iterable[int],
    found: list[tuple[int, ...]] | None = None,
) -> list[dict[int, int]]:
    """Tally every connected vertex set of size 2..m whose least vertex is in ``roots``.

    A set of size k found in insertion order ``sub`` has the simplex mask of
    the position-labelled ``sub`` under ``simplex_layout(m)``, which sets only
    bits of subsets of ``range(k)``.  Returns ``tallies``, where
    ``tallies[k]`` counts the k-sets per mask.  ``found``, when given,
    collects every set as a sorted tuple.

    Each extension candidate carries its attach pattern over ``sub`` (bit p
    set when it neighbours position p), kept up to date as ``sub`` grows.
    Adding it at position j looks the pattern up in ``_attach_table(m)``: the
    edges it brings, then only the larger simplices it can close, each taken
    when all of its faces are present and its vertices share a facet, as
    ``Simplet.mask()`` does: the other vertices are read from ``sub`` and
    their facet sets from the complex's incidence.
    """
    adj = complex_.adjacency
    incidence = complex_._incidence
    table = _attach_table(m)
    tallies: list[dict[int, int]] = [{} for _ in range(m + 1)]

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
        leaf = j + 1 == m
        bit = 1 << j
        for i, w in enumerate(ext):
            edges, larger = patterns[pats[i]]
            new_mask = mask | edges
            for others, weight, faces in larger:
                if new_mask & faces == faces and incidence[w].intersection(
                    *[incidence[sub[p]] for p in others]
                ):
                    new_mask |= weight
            tally[new_mask] = tally.get(new_mask, 0) + 1
            if found is not None:
                found.append(tuple(sorted(sub + (w,))))
            if leaf:
                continue
            nbrs = adj[w]
            fresh = [u for u in nbrs if u > root and u not in closed]
            extend(
                root,
                sub + (w,),
                new_mask,
                ext[i + 1 :] + fresh,
                [a | bit if u in nbrs else a for u, a in zip(ext[i + 1 :], pats[i + 1 :])]
                + [bit] * len(fresh),
                closed | nbrs,
            )

    for root in roots:
        ext0 = sorted(u for u in adj[root] if u > root)
        if ext0:
            extend(root, (root,), 0, ext0, [1] * len(ext0), adj[root] | {root})
    return tallies


def enumerate_connected_subsets(
    complex_: SimplicialComplex, m: int
) -> Iterator[tuple[int, ...]]:
    """Yield every vertex set of size 2..m whose induced skeleton is connected.

    Each subset is produced exactly once, as a sorted tuple, root by root in
    increasing order of its least vertex.  Within a root the order follows
    the adjacency sets' iteration order, so it may differ between copies of a
    complex; the set of subsets, and hence every count, does not.
    """
    if m < 2:
        raise InputError(f"m must be at least 2, got {m}")
    for root in range(complex_.vertex_count):
        found: list[tuple[int, ...]] = []
        _esu(complex_, m, (root,), found)
        yield from found


def exact_counts(complex_: SimplicialComplex, catalog: SimpletCatalog) -> SFDVector:
    """Exact per-type simplet counts and frequencies over the given catalog.

    One enumeration pass tallies the subsets per ``(size, mask)``.  Subsets
    that share a position-labelled mask share a type, so each distinct
    ``(size, mask)`` is classified once, from the mask alone.
    """
    m = catalog.m
    tallies = _esu(complex_, m, range(complex_.vertex_count))
    counts = [0] * len(catalog)
    for size in range(2, m + 1):
        for mask, count in tallies[size].items():
            counts[catalog.index_of(canonical_form(size, decode_mask(m, mask)))] += count
    if sum(counts) == 0:
        raise StructuralError("complex has no simplets: the 1-skeleton has no edges")
    return SFDVector(m, counts)
