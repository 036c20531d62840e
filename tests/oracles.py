"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's enumeration and
canonicalization paths: membership goes straight to the facet list,
connectivity is a fresh BFS, and type matching is a permutation search.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from typing import Iterator

from simplets import (
    SimplicialComplex, build_complex, enumerate_connected_subsets, state_degree, state_neighbors,
)
from simplets.complexes import simplex_layout


def built_tables(candidates, n: int):
    """What ``build_complex(candidates, n)`` must store, by brute force.

    The facets are the distinct candidates that lie in no other candidate,
    largest first and then by sorted vertices; beside them, each vertex's set
    of facet indices and its set of neighbours, one per vertex.
    """
    distinct = {frozenset(c) for c in candidates}
    facets = sorted(
        (f for f in distinct if not any(f < g for g in distinct)),
        key=lambda f: (-len(f), sorted(f)),
    )
    incidence = [{i for i, f in enumerate(facets) if v in f} for v in range(n)]
    adjacency = [{u for f in facets if v in f for u in f if u != v} for v in range(n)]
    return facets, incidence, adjacency


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


def exact_output_law(complex_: SimplicialComplex, m: int, steps: int):
    """The walk's exact law after ``steps`` steps from a uniform edge, as
    ``(states, law)``: the sorted states of ``enumerate_connected_subsets`` and
    a numpy vector of their probabilities.

    Row i of the transition matrix puts min(1/d_i, 1/d_j) on each proposal j
    that ``state_neighbors`` lists, with degrees from ``state_degree``, and the
    remainder on i.  The matrix is sparse, so unlike the dense
    ``transition_matrix`` this reaches the criterion-7 complex's 15,099 states.
    """
    import numpy as np
    from scipy import sparse

    states = sorted(enumerate_connected_subsets(complex_, m))
    position = {s: i for i, s in enumerate(states)}
    degree = [state_degree(complex_, s, m) for s in states]
    rows, cols, values = [], [], []
    for i, state in enumerate(states):
        for proposal in state_neighbors(complex_, state, m):
            j = position[proposal]
            rows.append(i)
            cols.append(j)
            values.append(min(1.0 / degree[i], 1.0 / degree[j]))
    count = len(states)
    moves = sparse.csr_matrix((values, (rows, cols)), shape=(count, count))
    loops = np.maximum(0.0, 1.0 - np.asarray(moves.sum(axis=1)).ravel())
    backward = (moves + sparse.diags(loops)).T.tocsr()
    edges = complex_.edges()
    law = np.zeros(count)
    law[[position[e] for e in edges]] = 1.0 / len(edges)
    for _ in range(steps):
        law = backward @ law
    return states, law


def miss_probability(counts, n: int, epsilon: float) -> float:
    """P(max_t |N_t / n - p_t| > epsilon) for the type counts N_t of ``n``
    independent draws from the law p proportional to ``counts``.

    Exact up to float rounding: the types are taken in turn, and given the
    draws not yet placed, a type's share of them is binomial with its mass
    over the mass still left.
    """
    total = left = sum(counts)
    within = {n: 1.0}  # draws not yet placed -> P(every type so far is within epsilon)
    for c in counts:
        if not c:
            continue
        p, q = c / total, c / left
        placed: dict[int, float] = {}
        for rest, prob in within.items():
            for k in range(rest + 1):
                if abs(k / n - p) <= epsilon:
                    pmf = math.comb(rest, k) * q**k * (1.0 - q) ** (rest - k)
                    placed[rest - k] = placed.get(rest - k, 0.0) + prob * pmf
        within = placed
        left -= c
    return 1.0 - within.get(0, 0.0)


def growth_weights(complex_: SimplicialComplex, m: int) -> tuple[list[int], list[int]]:
    """The growth sampler's bounds and size weights: G_i, the sum of the i
    largest vertex degrees, for i = 1 .. min(m, n) - 1, and
    W_k = G_1 * ... * G_{k-1} for each size k = 2 .. min(m, n)."""
    degrees = sorted((len(near) for near in complex_.adjacency), reverse=True)
    bounds = [sum(degrees[:i]) for i in range(1, min(m, complex_.vertex_count))]
    return bounds, [math.prod(bounds[: k - 1]) for k in range(2, len(bounds) + 2)]


def ordering_sums(complex_: SimplicialComplex, m: int) -> dict[tuple[int, ...], Fraction]:
    """f(S) = n q(S) for every connected set S of 2..m vertices, q(S) the
    probability that half-edge growth from a uniform root adds S's vertices
    in some order: the DP f(T) = sum over x in T of
    f(T - x) e(x, T - x) / D(T - x), from f({x}) = 1, memoised over every
    connected set (a disconnected set has no ordering, so f is 0 there)."""
    adjacency = complex_.adjacency
    f: dict[frozenset[int], Fraction] = {frozenset([v]): Fraction(1) for v in range(complex_.vertex_count)}
    states = sorted(enumerate_connected_subsets(complex_, m), key=lambda s: (len(s), s))
    for state in states:
        total = Fraction(0)
        for x in state:
            rest = frozenset(state) - {x}
            if rest in f:
                edges = len(adjacency[x] & rest)
                total += f[rest] * edges / sum(len(adjacency[v]) for v in rest)
        f[frozenset(state)] = total
    return {state: f[frozenset(state)] for state in states}


def acceptance_law(complex_: SimplicialComplex, m: int) -> dict[tuple[int, ...], Fraction]:
    """The probability that one proposal of the growth sampler outputs each
    state: the size weight w_k = W_k / sum(W) times q(S) times the
    acceptance min(1, C_k / q(S)), with C_k = 1 / (n W_k) and q(S) from
    ``ordering_sums``.  It is one constant exactly when no state's q(S) falls
    below its C_k."""
    n = complex_.vertex_count
    _, weights = growth_weights(complex_, m)
    total = sum(weights)
    law = {}
    for state, f in ordering_sums(complex_, m).items():
        weight = weights[len(state) - 2]
        law[state] = Fraction(weight, total) * min(f / n, Fraction(1, n * weight))
    return law


def brute_acceptance_law(complex_: SimplicialComplex, m: int):
    """``(ordering_sums, acceptance_law)`` by brute force over every ordering
    of every state, with the pre-reject.  An ordering v_1 .. v_k has
    probability (1/n) * prod e(v_(i+1), P_i) / D(P_i) over its prefixes P_i,
    q(S) sums it over S's orderings, and an ordering is accepted with
    probability min(1, prod D(P_i) / G_i, C_k / q(S))."""
    n, adjacency = complex_.vertex_count, complex_.adjacency
    bounds, weights = growth_weights(complex_, m)
    total = sum(weights)
    sums, law = {}, {}
    for state in enumerate_connected_subsets(complex_, m):
        k = len(state)
        drawn = []  # (probability, pre-reject ratio) per ordering
        for order in permutations(state):
            probability, ratio = Fraction(1, n), Fraction(1)
            for i in range(1, k):
                prefix = set(order[:i])
                half_edges = sum(len(adjacency[v]) for v in prefix)
                probability *= Fraction(len(adjacency[order[i]] & prefix), half_edges)
                ratio *= Fraction(half_edges, bounds[i - 1])
            drawn.append((probability, ratio))
        q = sum(p for p, _ in drawn)
        bound = Fraction(1, n * weights[k - 2])
        sums[state] = n * q
        law[state] = Fraction(weights[k - 2], total) * sum(p * min(1, ratio, bound / q) for p, ratio in drawn)
    return sums, law


def reference_growth(complex_: SimplicialComplex, m: int, seed: int, count: int) -> list[tuple[int, ...]]:
    """``count`` samples of the growth sampler in exact arithmetic, from one
    ``random.Random(seed)`` stream drawn in the sampler's order.

    A proposal draws ``randrange(sum(W))`` for its size, ``randrange(n)`` for
    its root and ``random()`` for its U.  Before each pick it is rejected when
    U >= prod D(P_i) / G_i over the sets grown so far; a pick is
    ``randrange(D(P))`` into the half-edges listed vertex by vertex in growth
    order, each vertex's neighbours sorted, and a far end inside P or a root
    with no neighbour rejects.  A full set is kept when U < C_k / q(S), with
    q(S) from ``ordering_sums``.
    """
    rng = random.Random(seed)
    n = complex_.vertex_count
    neighbors = [sorted(near) for near in complex_.adjacency]
    bounds, weights = growth_weights(complex_, m)
    ends = list(accumulate(weights))
    sums = ordering_sums(complex_, m)
    samples = []
    while len(samples) < count:
        r, size = rng.randrange(ends[-1]), 2
        while r >= ends[size - 2]:
            size += 1
        grown = [rng.randrange(n)]
        u = int(rng.random() * 2**53)  # U is u / 2^53 exactly
        reached, allowed = 1, 1  # prod D(P_i) and prod G_i so far
        for i in range(1, size):
            half_edges = [w for v in grown for w in neighbors[v]]
            if not half_edges:
                break
            reached, allowed = reached * len(half_edges), allowed * bounds[i - 1]
            if u * allowed >= reached << 53:
                break
            w = half_edges[rng.randrange(len(half_edges))]
            if w in grown:
                break
            grown.append(w)
        else:
            state = tuple(sorted(grown))
            if Fraction(u * weights[size - 2], 2**53) * sums[state] < 1:
                samples.append(state)
    return samples


def lopsided(left: int, path: int, right: int, filled: bool = False) -> SimplicialComplex:
    """K_left and K_right joined by a path through ``path`` more vertices:
    the cliques as edges only, or as filled simplices (each clique one
    facet) when ``filled``."""
    right_start = left + path
    cliques = [range(left), range(right_start, right_start + right)]
    facets = [set(c) for c in cliques] if filled else [set(e) for c in cliques for e in combinations(c, 2)]
    facets += [{v, v + 1} for v in range(left - 1, right_start)]
    return build_complex(facets, right_start + right)


def lopsided_zoo() -> list[tuple[SimplicialComplex, int]]:
    """Clique-path-clique complexes of very unequal degrees, with 1k-2k
    states each at the given m."""
    return [
        (lopsided(13, 3, 8), 4),
        (lopsided(13, 3, 8, filled=True), 4),
        (lopsided(19, 2, 5), 3),
        (lopsided(11, 2, 4), 5),
        (lopsided(10, 2, 4, filled=True), 6),
    ]
