"""Exact simplet enumeration and the exact SFD vector.

The enumeration walks connected vertex sets of the 1-skeleton using
extension candidates restricted to ids above the root vertex, so every
connected subset appears exactly once without a global seen-set (the ESU
scheme of Wernicke, TCBB 2006).  It carries each subset's simplex mask, over
the positions in insertion order, from parent to child: adding a vertex tests
only the simplices that end at its position.  Exact counting memoises the
catalog index on ``(size, mask)``, so the classifier runs once per distinct
position-labelled mask instead of once per subset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .catalog import SimpletCatalog, TypeClassifier
from .complexes import Simplet, SimplicialComplex, simplex_layout
from .errors import InputError, StructuralError

__all__ = [
    "SFDVector",
    "enumerate_connected_subsets",
    "exact_counts",
    "sfd_from_counts",
]


@dataclass(frozen=True)
class SFDVector:
    """Simplet frequency distribution over the catalog order.

    ``frequencies`` is a length-N_m vector in [0, 1] summing to 1; ``counts``
    carries the raw per-type tallies when the vector came from counting or
    sampling.
    """

    catalog_m: int
    frequencies: tuple[float, ...]
    counts: tuple[int, ...] | None = None
    total: int | None = None
    mode: str = "exact"

    def __post_init__(self) -> None:
        if any(f < 0.0 or f > 1.0 for f in self.frequencies):
            raise InputError("frequencies must lie in [0, 1]")
        if not math.isclose(sum(self.frequencies), 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise InputError("frequencies must sum to 1")
        if self.counts is not None:
            if len(self.counts) != len(self.frequencies):
                raise InputError("counts and frequencies must have equal length")
            if self.total != sum(self.counts):
                raise InputError("total must equal the sum of counts")

    def __len__(self) -> int:
        return len(self.frequencies)

    def to_json_obj(self) -> dict:
        obj: dict = {
            "m": self.catalog_m,
            "frequencies": list(self.frequencies),
            "mode": self.mode,
        }
        if self.counts is not None:
            obj["counts"] = list(self.counts)
            obj["total"] = self.total
        return obj


def sfd_from_counts(
    counts: Sequence[int], catalog_m: int, mode: str = "exact"
) -> SFDVector:
    """Normalize nonnegative integer counts into an SFD vector."""
    if any(c < 0 for c in counts):
        raise InputError("counts must be nonnegative")
    total = sum(counts)
    if total == 0:
        raise InputError("cannot normalize an all-zero count vector")
    return SFDVector(
        catalog_m=catalog_m,
        frequencies=tuple(c / total for c in counts),
        counts=tuple(int(c) for c in counts),
        total=total,
        mode=mode,
    )


@functools.cache
def _position_layout(m: int) -> tuple[tuple[tuple, tuple], ...]:
    """Per position j, the ``simplex_layout(m)`` entries whose last element is j:
    ``((i, weight) per edge (i, j), (members, weight, faces) per larger subset)``."""
    layout = simplex_layout(m)
    return tuple(
        (
            tuple((s[0], w) for s, w, _ in layout if len(s) == 2 and s[1] == j),
            tuple((s, w, faces) for s, w, faces in layout if len(s) > 2 and s[-1] == j),
        )
        for j in range(m)
    )


def _grow(complex_: SimplicialComplex, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(sub, mask)`` for every connected vertex set of size 2..m.

    ``sub`` lists the vertices in insertion order and ``mask`` is the simplex
    mask of the position-labelled sub under ``simplex_layout(m)``; a k-vertex
    sub sets only bits of subsets of ``range(k)``.  Adding the vertex at
    position j tests only the layout entries whose last element is j: edges
    from the adjacency, then a larger subset through the facet incidence only
    when all of its faces are present, as ``Simplet.mask()`` does.
    """
    if m < 2:
        raise InputError(f"m must be at least 2, got {m}")
    adj = complex_.adjacency
    incidence = complex_._incidence
    positions = _position_layout(m)

    def extend(
        root: int, sub: tuple[int, ...], mask: int, ext: list[int], closed: frozenset[int]
    ) -> Iterator[tuple[tuple[int, ...], int]]:
        edges, larger = positions[len(sub)]
        stop = len(sub) + 1 >= m
        for i, w in enumerate(ext):
            new_sub = sub + (w,)
            nbrs = adj[w]
            new_mask = mask
            for p, weight in edges:
                if sub[p] in nbrs:
                    new_mask |= weight
            for members, weight, faces in larger:
                if new_mask & faces == faces and frozenset.intersection(
                    *[incidence[new_sub[p]] for p in members]
                ):
                    new_mask |= weight
            yield new_sub, new_mask
            if stop:
                continue
            new_ext = ext[i + 1 :] + [u for u in nbrs if u > root and u not in closed]
            yield from extend(root, new_sub, new_mask, new_ext, closed | nbrs)

    for root in range(complex_.vertex_count):
        ext0 = sorted(u for u in adj[root] if u > root)
        if ext0:
            yield from extend(root, (root,), 0, ext0, adj[root] | {root})


def enumerate_connected_subsets(
    complex_: SimplicialComplex, m: int
) -> Iterator[tuple[int, ...]]:
    """Yield every vertex set of size 2..m whose induced skeleton is connected.

    Each subset is produced exactly once, as a sorted tuple.  The order
    follows the adjacency sets' iteration order, so it may differ between
    copies of a complex; the set of subsets, and hence every count, does not.
    """
    for sub, _mask in _grow(complex_, m):
        yield tuple(sorted(sub))


def exact_counts(complex_: SimplicialComplex, catalog: SimpletCatalog) -> SFDVector:
    """Exact per-type simplet counts and frequencies over the given catalog.

    Subsets that share a position-labelled mask share a type, so the
    classifier runs once per distinct ``(size, mask)``.
    """
    classifier = TypeClassifier(catalog)
    type_of: dict[tuple[int, int], int] = {}
    counts = [0] * len(catalog)
    for sub, mask in _grow(complex_, catalog.m):
        key = (len(sub), mask)
        index = type_of.get(key)
        if index is None:
            index = classifier.index_of(Simplet(complex_, tuple(sorted(sub))))
            type_of[key] = index
        counts[index] += 1
    if sum(counts) == 0:
        raise StructuralError("complex has no simplets: the 1-skeleton has no edges")
    return sfd_from_counts(counts, catalog.m, mode="exact")
