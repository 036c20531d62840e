"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's enumeration and
canonicalization paths: membership goes straight to the facet list,
connectivity is a fresh BFS, and type matching is a permutation search.
"""

from __future__ import annotations

from itertools import combinations, permutations

from simplets import SimplicialComplex


def subset_spans_simplex(complex_: SimplicialComplex, vertices) -> bool:
    vs = set(vertices)
    return any(vs <= facet for facet in complex_.facets)


def induced_simplices(complex_: SimplicialComplex, vertices) -> set[tuple[int, ...]]:
    """Every simplex of dimension >= 1 inside ``vertices``, by exhaustive subsets."""
    vs = sorted(vertices)
    out = set()
    for size in range(2, len(vs) + 1):
        for sub in combinations(vs, size):
            if subset_spans_simplex(complex_, sub):
                out.add(sub)
    return out


def connected_on(complex_: SimplicialComplex, vertices) -> bool:
    vs = set(vertices)
    if not vs:
        return False
    edges = {
        (u, v)
        for u, v in combinations(sorted(vs), 2)
        if subset_spans_simplex(complex_, (u, v))
    }
    start = min(vs)
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return seen == vs


def all_connected_subsets(complex_: SimplicialComplex, m: int) -> list[tuple[int, ...]]:
    """Connected vertex sets of size 2..m via the full 2^n scan."""
    n = complex_.vertex_count
    found = []
    for size in range(2, m + 1):
        for sub in combinations(range(n), size):
            if connected_on(complex_, sub):
                found.append(sub)
    return found


def isomorphic(k: int, simplices_a, simplices_b) -> bool:
    """Permutation-search isomorphism test between two local simplex sets."""
    a = {tuple(sorted(s)) for s in simplices_a}
    b = {tuple(sorted(s)) for s in simplices_b}
    if len(a) != len(b):
        return False
    if sorted(len(s) for s in a) != sorted(len(s) for s in b):
        return False
    for perm in permutations(range(k)):
        if {tuple(sorted(perm[v] for v in s)) for s in a} == b:
            return True
    return False


def min_encoding(k: int, perms, simplices) -> tuple[tuple[int, ...], ...]:
    """Minimum over ``perms`` of the relabeled simplex list sorted by (size, tuple)."""
    def encode(perm):
        relabeled = (tuple(sorted(perm[v] for v in s)) for s in simplices)
        return tuple(sorted(relabeled, key=lambda s: (len(s), s)))

    return min(encode(perm) for perm in perms)


def local_simplices(complex_: SimplicialComplex, vertices) -> list[tuple[int, ...]]:
    relabel = {v: i for i, v in enumerate(sorted(vertices))}
    return [tuple(sorted(relabel[v] for v in s)) for s in induced_simplices(complex_, vertices)]


def classify_counts(complex_: SimplicialComplex, catalog) -> list[int]:
    """Per-type counts via the all-subsets scan and permutation-search matching."""
    counts = [0] * len(catalog.keys)
    cache: dict[tuple, int] = {}
    for sub in all_connected_subsets(complex_, catalog.m):
        k = len(sub)
        local = tuple(sorted(local_simplices(complex_, sub)))
        index = cache.get((k, local))
        if index is None:
            matches = [
                i
                for i, key in enumerate(catalog.keys)
                if key.vertex_count == k and isomorphic(k, key.simplices, local)
            ]
            assert len(matches) == 1, f"expected exactly one matching type, got {matches}"
            index = matches[0]
            cache[(k, local)] = index
        counts[index] += 1
    return counts


def downward_closed(k: int, simplices) -> bool:
    present = {tuple(sorted(s)) for s in simplices}
    for s in present:
        if len(s) > 2:
            for face in combinations(s, len(s) - 1):
                if face not in present:
                    return False
    return True


def skeleton_connected(k: int, simplices) -> bool:
    adj = {v: set() for v in range(k)}
    for s in simplices:
        if len(s) == 2:
            adj[s[0]].add(s[1])
            adj[s[1]].add(s[0])
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == k


def iso_class_count(k: int) -> int:
    """Number of connected spanning complexes on k vertices up to isomorphism.

    Labeled level-by-level enumeration deduplicated by pairwise permutation
    search; independent of the catalog generator.  Intended for k <= 4.
    """
    pairs = list(combinations(range(k), 2))
    reps: list[list[tuple[int, ...]]] = []

    def record(simplices: list[tuple[int, ...]]) -> None:
        for rep in reps:
            if isomorphic(k, rep, simplices):
                return
        reps.append(simplices)

    def fill(previous, size, acc):
        if size > k:
            record(acc)
            return
        cands = [
            c
            for c in combinations(range(k), size)
            if all(f in set(previous) for f in combinations(c, size - 1))
        ]
        if not cands:
            record(acc)
            return
        for mask in range(1 << len(cands)):
            picked = [cands[i] for i in range(len(cands)) if mask >> i & 1]
            fill(picked, size + 1, acc + picked)

    for emask in range(1, 1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if emask >> i & 1]
        if skeleton_connected(k, edges):
            fill(edges, 3, list(edges))
    return len(reps)
