"""Simplicial complexes stored as facet lists, plus induced sub-complex queries.

A complex is represented by its maximal simplices (facets).  Downward closure
then holds by construction: a vertex set spans a simplex exactly when it is a
subset of some facet.  :func:`simplex_layout` defines the local simplex mask,
the one encoding of a simplet's simplices.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations, cycle
from typing import Iterable, NamedTuple

from .errors import InputError, StructuralError

__all__ = [
    "SimplicialComplex",
    "Simplet",
    "DiameterEstimate",
    "build_complex",
    "decode_mask",
    "induced_subcomplex",
    "simplex_layout",
    "skeleton_diameter",
    "connected_components",
]

class SimplicialComplex:
    """Immutable simplicial complex over dense vertex ids ``[0, n)``.

    Construct through :func:`build_complex`; instances are safe for concurrent
    read access.  ``_diameter`` memoises :func:`skeleton_diameter`.
    """

    __slots__ = ("vertex_count", "facets", "adjacency", "max_degree", "_incidence", "_diameter")

    def __init__(self, vertex_count: int, facets: tuple[frozenset[int], ...]):
        self.vertex_count = vertex_count
        self.facets = facets
        incidence: list[set[int]] = [set() for _ in range(vertex_count)]
        adjacency: list[set[int]] = [set() for _ in range(vertex_count)]
        for idx, facet in enumerate(facets):
            for v in facet:
                incidence[v].add(idx)
            for u, v in combinations(sorted(facet), 2):
                adjacency[u].add(v)
                adjacency[v].add(u)
        self._incidence: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in incidence)
        self.adjacency: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adjacency)
        self.max_degree = max((len(s) for s in self.adjacency), default=0)
        self._diameter: DiameterEstimate | None = None

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(n={self.vertex_count}, facets={len(self.facets)}, "
            f"edges={self.edge_count}, max_degree={self.max_degree})"
        )

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All 1-simplices as sorted pairs, in deterministic order."""
        return [(u, v) for u in range(self.vertex_count) for v in self.adjacency[u] if u < v]

    def _check_vertices(self, vertices: Iterable[int]) -> tuple[int, ...]:
        vs = tuple(vertices)
        if not vs:
            raise InputError("vertex set must be non-empty")
        for v in vs:
            if not (0 <= v < self.vertex_count):
                raise InputError(f"vertex id {v} out of range [0, {self.vertex_count})")
        return vs

    def skeleton_connected_on(self, vertices: Iterable[int]) -> bool:
        """True iff the 1-skeleton induced on the given vertices is connected."""
        vs = set(vertices)
        if not vs:
            return False
        start = next(iter(vs))
        seen = {start}
        queue = deque((start,))
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u] & vs:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(vs)


@dataclass(frozen=True)
class Simplet:
    """A connected induced sub-complex of ``host``, identified by its vertex set.

    Construct through :func:`induced_subcomplex` (or the sampler), which
    enforce connectivity; the constructor itself does not re-validate.
    """

    host: SimplicialComplex = field(compare=False, repr=False)
    vertices: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.vertices)

    def mask(self) -> int:
        """The local simplex mask of the induced simplices of dimension >= 1.

        Edges come from the adjacency; a larger subset is looked up in the
        facet incidence only when all of its faces are present.
        """
        vs = self.vertices
        adjacency = self.host.adjacency
        incidence = self.host._incidence
        layout = simplex_layout(len(vs))
        edge_count = len(vs) * (len(vs) - 1) // 2
        mask = 0
        for (i, j), weight, _ in layout[:edge_count]:
            if vs[j] in adjacency[vs[i]]:
                mask |= weight
        for members, weight, faces in layout[edge_count:]:
            if mask & faces == faces and frozenset.intersection(
                *[incidence[vs[i]] for i in members]
            ):
                mask |= weight
        return mask

    def simplices(self) -> tuple[tuple[int, ...], ...]:
        """Induced simplices of dimension >= 1, sorted by (size, vertex tuple)."""
        vs = self.vertices
        return tuple(
            tuple(vs[i] for i in s) for s in decode_mask(len(vs), self.mask())
        )


@functools.cache
def simplex_layout(k: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """``(subset, weight, faces)`` for each subset of ``range(k)`` with >= 2 elements.

    Subsets come in (size, tuple) order and the i-th of N weighs
    ``2 ** (N - 1 - i)``; ``faces`` is the mask of its faces one size down
    (0 for an edge).
    """
    subsets = [s for size in range(2, k + 1) for s in combinations(range(k), size)]
    weight = {s: 1 << (len(subsets) - 1 - i) for i, s in enumerate(subsets)}
    return tuple(
        (s, weight[s], sum(weight.get(f, 0) for f in combinations(s, len(s) - 1)))
        for s in subsets
    )


def decode_mask(k: int, mask: int) -> tuple[tuple[int, ...], ...]:
    """The local simplices a k-vertex simplex mask holds, in (size, tuple) order."""
    return tuple(s for s, weight, _ in simplex_layout(k) if mask & weight)


class DiameterEstimate(NamedTuple):
    value: int


def build_complex(facet_list: Iterable[Iterable[int]], vertex_count: int) -> SimplicialComplex:
    """Build a complex from candidate facets, dropping duplicates and non-maximal entries.

    Every vertex id must lie in ``[0, vertex_count)`` and every facet must be
    non-empty.  Entries that are subsets of other entries are removed so the
    stored facets form an antichain.
    """
    if vertex_count < 0:
        raise InputError("vertex_count must be nonnegative")
    candidates: set[frozenset[int]] = set()
    for entry in facet_list:
        try:
            facet = frozenset(operator.index(v) for v in entry)
        except TypeError as exc:
            raise InputError(f"non-integer vertex id in facet {entry!r}") from exc
        if not facet:
            raise InputError("empty facet")
        for v in facet:
            if not (0 <= v < vertex_count):
                raise InputError(f"vertex id {v} out of range [0, {vertex_count})")
        candidates.add(facet)

    # Largest first: a candidate is a facet iff no already-kept set contains it.
    kept: list[frozenset[int]] = []
    incidence: list[set[int]] = [set() for _ in range(vertex_count)]
    for facet in sorted(candidates, key=lambda f: (-len(f), sorted(f))):
        it = iter(facet)
        common = set(incidence[next(it)])
        for v in it:
            common &= incidence[v]
            if not common:
                break
        if common:
            continue
        idx = len(kept)
        kept.append(facet)
        for v in facet:
            incidence[v].add(idx)
    return SimplicialComplex(vertex_count, tuple(kept))


def induced_subcomplex(complex_: SimplicialComplex, vertices: Iterable[int]) -> Simplet | None:
    """The simplet induced on ``vertices``, or None if its skeleton is disconnected.

    Requires at least two vertices; the result contains every simplex of the
    host whose vertices lie in the given set.
    """
    vs = tuple(sorted(set(complex_._check_vertices(vertices))))
    if len(vs) < 2:
        raise InputError("a simplet needs at least two vertices")
    if not complex_.skeleton_connected_on(vs):
        return None
    return Simplet(complex_, vs)


def _bfs_distances(complex_: SimplicialComplex, start: int) -> list[int]:
    dist = [-1] * complex_.vertex_count
    dist[start] = 0
    queue = deque((start,))
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in complex_.adjacency[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                queue.append(w)
    return dist


def connected_components(complex_: SimplicialComplex) -> list[list[int]]:
    """Connected components of the 1-skeleton (isolated vertices are singletons)."""
    seen = [False] * complex_.vertex_count
    components: list[list[int]] = []
    for v in range(complex_.vertex_count):
        if seen[v]:
            continue
        seen[v] = True
        comp = [v]
        queue = deque((v,))
        while queue:
            u = queue.popleft()
            for w in complex_.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        components.append(sorted(comp))
    return components


def skeleton_diameter(complex_: SimplicialComplex) -> DiameterEstimate:
    """Exact diameter of the 1-skeleton for every n, computed once per complex.

    The skeleton must be connected; a disconnected one raises
    :class:`StructuralError` on every call.
    """
    if complex_._diameter is None:
        complex_._diameter = _compute_diameter(complex_)
    return complex_._diameter


def _compute_diameter(complex_: SimplicialComplex) -> DiameterEstimate:
    """BoundingDiameters (Takes & Kosters, CIKM 2011).

    A BFS from ``v`` with eccentricity ``e`` bounds every eccentricity by
    ``max(d, e - d) <= ecc(w) <= e + d``, ``d = dist(v, w)``.  Candidates whose
    eccentricity is known or can move neither ``lb`` nor ``ub`` are dropped.
    Sources alternate between the largest upper bound (ties: lowest degree,
    likely peripheral) and the smallest lower bound (ties: highest degree).
    """
    n = complex_.vertex_count
    if n <= 1:
        return DiameterEstimate(0)
    dist = _bfs_distances(complex_, 0)
    if min(dist) < 0:
        raise StructuralError(
            f"1-skeleton is disconnected: no path between vertices 0 and {dist.index(-1)}; "
            "restrict to the largest connected component (--largest-component)"
        )
    degree = [len(neighbors) for neighbors in complex_.adjacency]
    lo = [0] * n
    hi = [n] * n
    candidates = range(n)
    lb, ub = 0, n
    for from_high in cycle((True, False)):
        ecc = max(dist)
        for w in candidates:
            d = dist[w]
            low = max(lo[w], d, ecc - d)
            lo[w] = low
            hi[w] = min(hi[w], ecc + d)
            if low > lb:
                lb = low
        # Dropped vertices have eccentricity at most lb; every hi is at most 2 * ecc.
        candidates = [
            w for w in candidates if lo[w] < hi[w] and (hi[w] > lb or 2 * lo[w] < ub)
        ]
        ub = min(ub, max((hi[w] for w in candidates), default=lb))
        if lb >= ub:
            return DiameterEstimate(lb)
        if from_high:
            source = max(candidates, key=lambda w: (hi[w], -degree[w]))
        else:
            source = min(candidates, key=lambda w: (lo[w], -degree[w]))
        dist = _bfs_distances(complex_, source)
