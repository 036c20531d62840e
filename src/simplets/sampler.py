"""Uniform simplet sampling via a Metropolis-style walk on the simplet state graph.

States are the simplets of the host complex with 2..m vertices, encoded as
sorted vertex tuples.  Moves add, remove, or swap one vertex while keeping
the induced skeleton connected.  Transition probabilities are
``T(i, j) = min(1/d(i), 1/d(j))`` for neighboring states, with the residual
mass on a self-loop, which makes ``T`` symmetric and doubly stochastic and
hence the stationary distribution uniform over all states.  The walk expands
each state once, into its degree and its move segments, and reuses that
expansion both to weigh a proposal and to move from it once accepted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .complexes import Simplet, SimplicialComplex, skeleton_diameter
from .errors import InputError, IntegrityError, StructuralError

__all__ = [
    "WalkConfig",
    "SimpletSampler",
    "state_neighbors",
    "state_degree",
    "burn_in_steps",
    "transition_matrix",
]

State = tuple[int, ...]

# The degree and move segments of a state are memoized together, for at most
# this many states; states seen after the cache fills are expanded on every visit.
_CACHE_CAP = 20_000


@dataclass(frozen=True)
class WalkConfig:
    """Random-walk parameters.

    ``burn_in`` overrides the mixing-bound heuristic when set; otherwise the
    sampler uses ``burn_in_steps`` with ``c_mix``.  ``rng_seed`` seeds the
    sampler's only random stream.
    """

    m: int
    burn_in: int | None = None
    c_mix: float = 1.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 3:
            raise InputError(f"the sampler requires m >= 3, got m={self.m}")
        if self.burn_in is not None and self.burn_in < 1:
            raise InputError("burn_in must be a positive integer")
        if self.c_mix <= 0:
            raise InputError("c_mix must be positive")


def _components(adj: Sequence[frozenset[int]], vertices: Sequence[int]) -> list[set[int]]:
    """Connected components of the skeleton induced on a small vertex set."""
    size = len(vertices)
    if size == 1:
        return [{vertices[0]}]
    if size == 2:
        a, b = vertices
        return [{a, b}] if b in adj[a] else [{a}, {b}]
    remaining = set(vertices)
    comps: list[set[int]] = []
    while remaining:
        start = remaining.pop()
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            hits = adj[x] & remaining
            if hits:
                remaining -= hits
                comp |= hits
                stack.extend(hits)
        comps.append(comp)
    return comps


def _expand(adj: Sequence[frozenset[int]], state: State, m: int) -> tuple[int, list[tuple]]:
    """Degree and move segments of a state.

    Returns ``(degree, segments)`` where segments is a list of
    ``("add", [v, ...])``, ``("remove", [u, ...])`` and ``("swap", u, [v, ...])``
    entries in that order, and ``degree`` is the number of moves they hold.
    """
    k = len(state)
    sset = set(state)
    degree = 0
    segments: list[tuple] = []
    union = set().union

    if k < m:
        adds = union(*(adj[v] for v in state)) - sset
        if adds:
            degree += len(adds)
            segments.append(("add", sorted(adds)))

    removable: list[int] = []
    swap_entries: list[tuple[int, list[int]]] = []
    for u in state:
        rest = [x for x in state if x != u]
        comps = _components(adj, rest)
        if len(comps) == 1:
            if k > 2:
                removable.append(u)
            cand = union(*(adj[x] for x in rest)) - sset
        else:
            # A replacement vertex must neighbor every component of the
            # remainder, i.e. lie in the intersection of their neighborhoods.
            cand = union(*(adj[x] for x in comps[0]))
            for comp in comps[1:]:
                cand &= union(*(adj[x] for x in comp))
                if not cand:
                    break
            cand -= sset
        if cand:
            degree += len(cand)
            swap_entries.append((u, sorted(cand)))
    if removable:
        degree += len(removable)
        segments.append(("remove", removable))
    segments.extend(("swap", u, vs) for u, vs in swap_entries)
    return degree, segments


def _neighbor(state: State, segments: list[tuple], index: int) -> State:
    """The ``index``-th move of ``state``, counting through its segments in order."""
    for seg in segments:
        kind = seg[0]
        if kind == "add":
            vs = seg[1]
            if index < len(vs):
                return tuple(sorted(state + (vs[index],)))
            index -= len(vs)
        elif kind == "remove":
            us = seg[1]
            if index < len(us):
                u = us[index]
                return tuple(x for x in state if x != u)
            index -= len(us)
        else:
            _, u, vs = seg
            if index < len(vs):
                rest = [x for x in state if x != u]
                rest.append(vs[index])
                rest.sort()
                return tuple(rest)
            index -= len(vs)
    raise IntegrityError("neighbor index out of range; degree bookkeeping is broken")


def _walk_state(complex_: SimplicialComplex, state: Sequence[int], m: int) -> State:
    """``state`` as a sorted walk state; InputError unless it holds 2..m
    distinct vertices of ``complex_`` whose induced skeleton is connected."""
    vs = complex_._check_vertices(state)
    s = tuple(sorted(set(vs)))
    if len(s) != len(vs) or not 2 <= len(s) <= m:
        raise InputError(f"a state has 2..{m} distinct vertices, got {vs}")
    if not complex_.skeleton_connected_on(s):
        raise InputError(f"the skeleton induced on {s} is not connected")
    return s


def state_neighbors(
    complex_: SimplicialComplex, state: Sequence[int], m: int
) -> list[State]:
    """Every state one add/remove/swap move away from ``state``, sorted.

    These are exactly the proposals of the walk: one per move index."""
    s = _walk_state(complex_, state, m)
    degree, segments = _expand(complex_.adjacency, s, m)
    return sorted(_neighbor(s, segments, i) for i in range(degree))


def state_degree(complex_: SimplicialComplex, state: Sequence[int], m: int) -> int:
    """Number of out-neighbors of a state in the walk graph."""
    return _expand(complex_.adjacency, _walk_state(complex_, state, m), m)[0]


def burn_in_steps(
    complex_: SimplicialComplex, c_mix: float, diameter: int | None = None
) -> int:
    """Walk length from the mixing-time bound: ceil(c_mix * ln(max(n,3)) * max_degree * diam^2)."""
    if c_mix <= 0:
        raise InputError("c_mix must be positive")
    if diameter is None:
        diameter = skeleton_diameter(complex_).value
    n = complex_.vertex_count
    raw = c_mix * math.log(max(n, 3)) * complex_.max_degree * diameter * diameter
    return max(1, math.ceil(raw))


class SimpletSampler:
    """Draws uniformly distributed simplets from a connected host complex.

    Every sample starts a fresh chain at a uniformly random edge and walks for
    the burn-in length, so samples are independent.  One stream seeded with
    ``config.rng_seed`` drives every chain.
    """

    def __init__(self, complex_: SimplicialComplex, config: WalkConfig):
        if complex_.vertex_count < 3:
            raise StructuralError(
                f"sampler requires at least 3 vertices, got {complex_.vertex_count}"
            )
        diameter = skeleton_diameter(complex_).value  # raises if disconnected
        self.complex = complex_
        self.config = config
        self.burn_in = (
            config.burn_in
            if config.burn_in is not None
            else burn_in_steps(complex_, config.c_mix, diameter=diameter)
        )
        self._rng = random.Random(config.rng_seed)
        self._adj = complex_.adjacency
        self._edges = complex_.edges()
        self._degree_cache: dict[State, tuple[int, list[tuple]]] = {}
        self._current: State | None = None
        self._info: tuple[int, list[tuple]] | None = None
        self.steps_taken = 0

    def _expansion(self, state: State) -> tuple[int, list[tuple]]:
        info = self._degree_cache.get(state)
        if info is None:
            info = _expand(self._adj, state, self.config.m)
            if len(self._degree_cache) < _CACHE_CAP:
                self._degree_cache[state] = info
        return info

    def _degree(self, state: State) -> int:
        return self._expansion(state)[0]

    def _step(self) -> None:
        d_s, segments = self._info
        if d_s == 0:
            raise IntegrityError("reached a sink state; impossible for a connected host")
        rng = self._rng
        proposal = _neighbor(self._current, segments, rng.randrange(d_s))
        info = self._expansion(proposal)
        d_j = info[0]
        if d_j <= d_s or rng.random() < d_s / d_j:
            self._current = proposal
            self._info = info
        self.steps_taken += 1

    def sample(self) -> Simplet:
        """One simplet distributed (approximately) uniformly over all states:
        a fresh chain from a uniform edge, walked for the burn-in length."""
        edge = self._edges[self._rng.randrange(len(self._edges))]
        self._current = edge
        self._info = self._expansion(edge)
        for _ in range(self.burn_in):
            self._step()
        return Simplet(self.complex, self._current)


def transition_matrix(complex_: SimplicialComplex, m: int):
    """Explicit transition matrix over all states, for diagnostics and tests.

    Returns ``(states, T)`` with states sorted and ``T`` a dense numpy array.
    Only usable on small complexes; the state count grows quickly.
    """
    import numpy as np

    from .exact import enumerate_connected_subsets

    states = sorted(enumerate_connected_subsets(complex_, m))
    position = {s: i for i, s in enumerate(states)}
    count = len(states)
    matrix = np.zeros((count, count))
    expansions = [_expand(complex_.adjacency, s, m) for s in states]
    for i, (s, (degree, segments)) in enumerate(zip(states, expansions)):
        for index in range(degree):
            j = position[_neighbor(s, segments, index)]
            matrix[i, j] = min(1.0 / degree, 1.0 / expansions[j][0])
        # the true residual is >= 0; clamp the float rounding of exact zeros
        matrix[i, i] = max(0.0, 1.0 - matrix[i].sum())
    return states, matrix
