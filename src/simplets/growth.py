"""Exactly uniform simplet sampling by half-edge growth with rejection.

Let D(P) be the sum of the degrees of the vertices in P, and G_i the sum of
the i largest degrees of the host.  A proposal draws a size k in 2..m with
probability proportional to G_1 ⋯ G_{k−1} and a uniform root, then grows the
set k − 1 times, each time by a uniform half-edge among the D(P) half-edges
whose near end lies in the current set P.  A far end already in P rejects
the proposal, and so does a root with no neighbour.  Adding w to P has
probability e(w, P)/D(P), with e(w, P) the edges from w into P, so each
growth ordering of a k-vertex set has probability at least
C_k = 1/(n G_1 ⋯ G_{k−1}).  The set S grown is accepted with probability
C_k/q(S), where q(S) sums the probabilities of S's orderings.  Every simplet
with 2..m vertices is then the output of a proposal with the same
probability, 1/(n Σ_k G_1 ⋯ G_{k−1}), and the host need not be connected.
Proposals are independent, so samples are too (Bressan, "Efficient and
near-optimal algorithms for sampling connected subgraphs", STOC 2021;
ordering probabilities as in Paramonov, Shemetov & Sharpnack, "Estimating
graphlet statistics via lifting", KDD 2019).

q(S) is f(S)/n for the DP over the subsets T of S,
f(T) = Σ_{x∈T} f(T∖x) · e(x, T∖x)/D(T∖x), with f({x}) = 1.  One uniform U
decides a proposal.  Before the DP it pre-rejects once U ≥ ∏ D(P_i)/G_i
over the sets P_i grown so far, checked before each pick: q(S) is at least
the drawn ordering's probability, so C_k/q(S) is at most the full product,
and no factor exceeds 1.  Both tests compare floats; the test suite checks
seeded draws against the same rule in exact arithmetic.
"""

from __future__ import annotations

import functools
import heapq
import random
from bisect import bisect_right
from itertools import accumulate

from .complexes import Simplet, SimplicialComplex, _index
from .errors import InputError, StructuralError

__all__ = ["GrowthSampler"]


@functools.cache
def _plan(k: int) -> tuple:
    """The subset DP's steps for k positions: each mask with two or more bits
    in increasing order, with its lowest bit and every ``(position, rest)``
    that removes one of its positions."""
    return tuple(
        (mask, mask & -mask, tuple((x, mask ^ 1 << x) for x in range(k) if mask >> x & 1))
        for mask in range(3, 1 << k)
        if mask & (mask - 1)
    )


def _orderings(adjacency, grown: list[int], degrees: list[int]) -> float:
    """f(S) of the vertices ``grown``, whose degrees are ``degrees``: n times
    the probability that growth from a uniform root adds them in some order."""
    k = len(grown)
    nb = [0] * k  # bit j of nb[i] set when positions i and j are adjacent
    for i in range(1, k):
        near = adjacency[grown[i]]
        for j in range(i):
            if grown[j] in near:
                nb[i] |= 1 << j
                nb[j] |= 1 << i
    g = [0.0] * (1 << k)  # f(T) / D(T)
    d = [0] * (1 << k)  # D(T)
    for i, degree in enumerate(degrees):
        g[1 << i] = 1.0 / degree
        d[1 << i] = degree
    for mask, low, moves in _plan(k):
        d[mask] = d[mask ^ low] + d[low]
        f = 0.0
        for x, rest in moves:
            if g[rest]:
                f += g[rest] * (nb[x] & rest).bit_count()
        g[mask] = f / d[mask]
    return g[-1] * d[-1]


class GrowthSampler:
    """Draws exactly uniform, independent simplets with 2..m vertices from
    ``complex_`` by half-edge growth with rejection.

    Set-up is O(n + edges): one sorted neighbour tuple and one degree per
    vertex.  There is no diameter, burn-in or warm-up, and the host need not
    be connected, but it needs an edge.  One stream seeded with ``rng_seed``
    drives every proposal.  ``proposals``, ``pre_rejects``, ``dps`` and
    ``accepted`` count the proposals drawn, those the pre-reject ended, the
    subset DPs run and the samples returned.
    """

    def __init__(self, complex_: SimplicialComplex, m: int, rng_seed: int = 0):
        self.m = _index(m, "m")
        if self.m < 3:
            raise InputError(f"the sampler requires an integer m >= 3, got m={m!r}")
        self._rng = random.Random(_index(rng_seed, "rng_seed"))
        if complex_.max_degree == 0:
            raise StructuralError("growth sampling needs a complex with at least one edge")
        self.complex = complex_
        self._neighbors = [tuple(sorted(near)) for near in complex_.adjacency]
        self._degrees = [len(near) for near in self._neighbors]
        # G_1 .. G_{k-1} and their product for each size k in 2..min(m, n)
        bounds = list(accumulate(heapq.nlargest(min(self.m, complex_.vertex_count) - 1, self._degrees)))
        products = list(accumulate(bounds, lambda a, b: a * b))
        self._sizes = [(bounds[: k - 1], products[k - 2]) for k in range(2, len(bounds) + 2)]
        self._cumulative = list(accumulate(products))
        self.proposals = self.pre_rejects = self.dps = self.accepted = 0

    def sample(self) -> Simplet:
        """One simplet, uniform over every simplet with 2..m vertices: the
        first accepted proposal."""
        getrandbits, random_ = self._rng.getrandbits, self._rng.random
        neighbors, degrees, adjacency = self._neighbors, self._degrees, self.complex.adjacency
        sizes, cumulative = self._sizes, self._cumulative
        total, n = cumulative[-1], len(degrees)
        total_width, n_width = total.bit_length(), n.bit_length()
        proposals = pre_rejects = dps = 0
        while True:
            proposals += 1
            # each index below as rng.randrange draws it, without its frames
            r = getrandbits(total_width)
            while r >= total:
                r = getrandbits(total_width)
            bounds, product = sizes[bisect_right(cumulative, r)]
            root = getrandbits(n_width)
            while root >= n:
                root = getrandbits(n_width)
            u = random_()
            grown, grown_degrees = [root], [degrees[root]]
            d = degrees[root]
            scaled = u  # u * prod(G_i / D(P_i)) over the sets grown so far
            for g in bounds:
                if not d:
                    break  # an isolated root
                scaled *= g / d
                if scaled >= 1.0:
                    pre_rejects += 1
                    break
                width = d.bit_length()
                r = getrandbits(width)
                while r >= d:
                    r = getrandbits(width)
                i = 0
                while r >= grown_degrees[i]:
                    r -= grown_degrees[i]
                    i += 1
                w = neighbors[grown[i]][r]
                if w in grown:
                    break
                grown.append(w)
                grown_degrees.append(degrees[w])
                d += degrees[w]
            else:
                dps += 1
                if u * product * _orderings(adjacency, grown, grown_degrees) < 1.0:
                    self.proposals += proposals
                    self.pre_rejects += pre_rejects
                    self.dps += dps
                    self.accepted += 1
                    return Simplet(self.complex, tuple(sorted(grown)))
