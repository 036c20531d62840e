"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's enumeration and
canonicalization paths: membership goes straight to the facet list,
connectivity is a fresh BFS, and type matching is a permutation search.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Iterator

from simplets import SimplicialComplex
from simplets.complexes import simplex_layout


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


def all_pairs_diameter(complex_: SimplicialComplex) -> int:
    """The largest BFS eccentricity over every vertex of a connected skeleton."""
    best = 0
    for s in range(complex_.vertex_count):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in complex_.adjacency[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


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


def weight_tables(k: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Per-relabeling weight tables of ``simplex_layout(k)``, one sorted
    simplex tuple per simplex per permutation, keyed by vertex order (the
    vertex that gets label 0 first): entry ``b`` is the weight that the
    subset of weight ``2 ** b`` is relabeled to."""
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


def local_simplices(complex_: SimplicialComplex, vertices) -> list[tuple[int, ...]]:
    relabel = {v: i for i, v in enumerate(sorted(vertices))}
    return [tuple(sorted(relabel[v] for v in s)) for s in induced_simplices(complex_, vertices)]


def vertex_profile(k: int, simplices) -> tuple[tuple[int, ...], ...]:
    """Relabeling invariant: each vertex's count of simplices per size, sorted."""
    counts = [[0] * (k - 1) for _ in range(k)]
    for s in simplices:
        for v in s:
            counts[v][len(s) - 2] += 1
    return tuple(sorted(map(tuple, counts)))


def classify_counts(complex_: SimplicialComplex, catalog) -> list[int]:
    """Per-type counts via the all-subsets scan and permutation-search matching.

    Only catalog types with the subset's ``vertex_profile`` can be isomorphic
    to it, so the permutation search runs on those alone.
    """
    counts = [0] * len(catalog.keys)
    by_profile: dict[tuple, list[int]] = {}
    for i, key in enumerate(catalog.keys):
        k = key.vertex_count
        by_profile.setdefault((k, vertex_profile(k, key.simplices)), []).append(i)
    cache: dict[tuple, int] = {}
    for sub in all_connected_subsets(complex_, catalog.m):
        k = len(sub)
        local = tuple(sorted(local_simplices(complex_, sub)))
        index = cache.get((k, local))
        if index is None:
            matches = [
                i
                for i in by_profile.get((k, vertex_profile(k, local)), [])
                if isomorphic(k, catalog.keys[i].simplices, local)
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


def labeled_connected_complexes(k: int) -> Iterator[list[tuple[int, ...]]]:
    """Every complex on the labels ``range(k)`` with a connected skeleton.

    Each connected edge set is filled level by level with every
    downward-closed choice of higher simplices, so each labeled complex comes
    out once, as its list of simplices of dimension >= 1.  Nothing is
    canonicalized.
    """
    pairs = list(combinations(range(k), 2))

    def fill(previous, size, acc):
        cands = [
            c
            for c in combinations(range(k), size)
            if all(f in previous for f in combinations(c, size - 1))
        ]
        if not cands:
            yield acc
            return
        for mask in range(1 << len(cands)):
            picked = [cands[i] for i in range(len(cands)) if mask >> i & 1]
            yield from fill(set(picked), size + 1, acc + picked)

    for emask in range(1, 1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if emask >> i & 1]
        if skeleton_connected(k, edges):
            yield from fill(set(edges), 3, edges)


def iso_class_count(k: int) -> int:
    """Number of connected spanning complexes on k vertices up to isomorphism.

    ``labeled_connected_complexes`` deduplicated by pairwise permutation
    search; independent of the catalog generator.  Intended for k <= 4.
    """
    reps: list[list[tuple[int, ...]]] = []
    for simplices in labeled_connected_complexes(k):
        if not any(isomorphic(k, rep, simplices) for rep in reps):
            reps.append(simplices)
    return len(reps)


def _components_on(adj, vertices) -> list[set[int]]:
    """Connected components of the skeleton induced on ``vertices``, by BFS."""
    remaining = set(vertices)
    comps = []
    while remaining:
        comp = {remaining.pop()}
        frontier = list(comp)
        while frontier:
            hits = adj[frontier.pop()] & remaining
            remaining -= hits
            comp |= hits
            frontier.extend(hits)
        comps.append(comp)
    return comps


def segment_moves(adj, state, m) -> list[tuple[int, ...]]:
    """The walk's proposals from ``state`` in move-index order: adds by vertex,
    removals in state order, then swaps by removed vertex (in state order)
    and then by added vertex.  A replacement must neighbour every component
    of the state without the removed vertex."""
    sset = set(state)
    moves = []
    if len(state) < m:
        adds = set().union(*(adj[v] for v in state)) - sset
        moves += [tuple(sorted(sset | {w})) for w in sorted(adds)]
    swaps = []
    for u in state:
        rest = [x for x in state if x != u]
        comps = _components_on(adj, rest)
        if len(comps) == 1 and len(state) > 2:
            moves.append(tuple(rest))
        cand = set.intersection(*(set().union(*(adj[x] for x in c)) for c in comps)) - sset
        swaps += [tuple(sorted(rest + [w])) for w in sorted(cand)]
    return moves + swaps


def reference_walk(complex_: SimplicialComplex, m: int, burn_in: int, seed: int, count: int):
    """``count`` samples of the walk with no memo, moves from ``segment_moves``.

    Each chain starts at a uniform edge of ``complex_.edges()`` and makes
    ``burn_in`` Metropolis-Hastings steps: a uniform move index, accepted
    when the proposal's degree is no larger or with probability d(s)/d(j).
    One ``random.Random(seed)`` stream drives every chain, drawn in that order.
    """
    rng = random.Random(seed)
    adj, edges = complex_.adjacency, complex_.edges()
    samples = []
    for _ in range(count):
        state = edges[rng.randrange(len(edges))]
        moves = segment_moves(adj, state, m)
        for _ in range(burn_in):
            proposal = moves[rng.randrange(len(moves))]
            proposal_moves = segment_moves(adj, proposal, m)
            d_s, d_j = len(moves), len(proposal_moves)
            if d_j <= d_s or rng.random() < d_s / d_j:
                state, moves = proposal, proposal_moves
        samples.append(state)
    return samples


def bit_connected(nb, mask) -> bool:
    """Whether the positions in ``mask`` are connected under the neighbour
    masks ``nb`` (bit j of ``nb[i]`` set when i and j are adjacent)."""
    if not mask:
        return False
    seen = mask & -mask
    frontier = [seen.bit_length() - 1]
    while frontier:
        i = frontier.pop()
        new = nb[i] & mask & ~seen
        seen |= new
        frontier += [j for j in range(len(nb)) if new >> j & 1]
    return seen == mask
