"""Uniform simplet sampling via a Metropolis-style walk on the simplet state graph.

States are the simplets of the host complex with 2..m vertices, encoded as
sorted vertex tuples.  Moves add, remove, or swap one vertex while keeping
the induced skeleton connected.  Transition probabilities are
``T(i, j) = min(1/d(i), 1/d(j))`` for neighboring states, with the residual
mass on a self-loop, which makes ``T`` symmetric and doubly stochastic and
hence the stationary distribution uniform over all states.  One pass over a
state's adjacency gives each outside vertex its attach mask, the positions it
touches (the GUISE kernel of Bhuiyan et al., ICDM 2012); the degree is then a
sum of lookups in a move table memoised per induced shape.  Only the walk's
current state is decoded into moves.  The sampler memoises the degrees of
proposed states, and the expansions of those among them the walk enters.
"""

from __future__ import annotations

import functools
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

# The degrees of at most this many proposed states are memoised.
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


# Swap counts are packed one _FIELD-bit field per position, so that one C-level
# sum counts every position's swaps; that sum modulo _FIELD_MASK is their total.
_FIELD = 32
_FIELD_MASK = (1 << _FIELD) - 1


class _MoveTable(dict):
    """The moves of one shape ``nb``, a state's induced neighbour masks by
    position.  ``removable`` lists the positions whose removal keeps the state
    connected, ``parts[u]`` the component masks of the state without u.  A
    vertex with attach mask a can replace u when a meets every part of
    ``parts[u]``; ``swap`` maps a to those positions and the table maps it to
    them as packed fields, both filled on first lookup."""

    __slots__ = ("removable", "parts", "swap")

    def __init__(self, nb: tuple[int, ...]):
        super().__init__()
        k = len(nb)
        self.parts, self.swap = [], {}
        for u in range(k):
            rest, parts = ((1 << k) - 1) ^ (1 << u), []
            while rest:
                part, grown = 0, rest & -rest
                while grown != part:
                    part = grown
                    for i in range(k):
                        if part >> i & 1:
                            grown |= nb[i] & rest
                parts.append(part)
                rest ^= part
            self.parts.append(parts)
        self.removable = [u for u, parts in enumerate(self.parts) if len(parts) == 1 and k > 2]

    def __missing__(self, attach: int) -> int:
        swap = packed = 0
        for u, parts in enumerate(self.parts):
            if all(part & attach for part in parts):
                swap |= 1 << u
                packed |= 1 << (_FIELD * u)
        self.swap[attach] = swap
        self[attach] = packed
        return packed


# One table per shape; fewer than 28k connected shapes have at most 6 positions.
_moves_table = functools.cache(_MoveTable)


def _expand(adj: Sequence[frozenset[int]], state: State, m: int) -> tuple:
    """``(degree, adds, attach, table, swaps, picks)`` of a state: ``attach`` maps
    each outside neighbour to its attach mask, all of which may be added below
    m vertices (``adds``), ``swaps`` packs the swap count of every position, and
    ``picks`` keeps each position's sorted replacements once decoded."""
    attach: dict[int, int] = {}
    bit = 1
    for v in state:
        for w in adj[v]:
            attach[w] = attach.get(w, 0) | bit
        bit <<= 1
    table = _moves_table(tuple(map(attach.pop, state)))
    adds = len(attach) if len(state) < m else 0
    swaps = sum(map(table.__getitem__, attach.values()))
    return adds + len(table.removable) + swaps % _FIELD_MASK, adds, attach, table, swaps, {}


def _neighbor(state: State, expansion: tuple, index: int) -> State:
    """The ``index``-th move of ``state``: adds by vertex, then removals by
    position, then swaps by position and then by replacing vertex."""
    _degree, adds, attach, table, swaps, picks = expansion
    if index < adds:
        return tuple(sorted(state + (sorted(attach)[index],)))
    index -= adds
    removable = table.removable
    if index < len(removable):
        u = removable[index]
        return state[:u] + state[u + 1:]
    index -= len(removable)
    swap = table.swap
    for u in range(len(state)):
        count = swaps >> (_FIELD * u) & _FIELD_MASK
        if index < count:
            if u not in picks:
                picks[u] = sorted([w for w, a in attach.items() if swap[a] >> u & 1])
            return tuple(sorted(state[:u] + state[u + 1:] + (picks[u][index],)))
        index -= count
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
    expansion = _expand(complex_.adjacency, s, m)
    return sorted(_neighbor(s, expansion, i) for i in range(expansion[0]))


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
        self._degree_cache: dict[State, int] = {}
        self._expansions: dict[State, tuple] = {}
        self._current: State | None = None
        self._info: tuple | None = None
        self.steps_taken = 0

    def _weigh(self, state: State) -> tuple[int, tuple | None]:
        """The degree of ``state``, and its expansion unless only the degree is memoised."""
        info = self._expansions.get(state)
        degree = info[0] if info else self._degree_cache.get(state)
        if degree is None:
            info = _expand(self._adj, state, self.config.m)
            degree = info[0]
            if len(self._degree_cache) < _CACHE_CAP:
                self._degree_cache[state] = degree
        return degree, info

    def _degree(self, state: State) -> int:
        return self._weigh(state)[0]

    def _step(self) -> None:
        d_s = self._info[0]
        if d_s == 0:
            raise IntegrityError("reached a sink state; impossible for a connected host")
        rng = self._rng
        proposal = _neighbor(self._current, self._info, rng.randrange(d_s))
        d_j, info = self._weigh(proposal)
        if d_j <= d_s or rng.random() < d_s / d_j:
            if info is None:  # kept for the memo's states that the walk enters
                info = self._expansions[proposal] = _expand(self._adj, proposal, self.config.m)
            self._current = proposal
            self._info = info
        self.steps_taken += 1

    def sample(self) -> Simplet:
        """One simplet distributed (approximately) uniformly over all states:
        a fresh chain from a uniform edge, walked for the burn-in length."""
        edge = self._edges[self._rng.randrange(len(self._edges))]
        self._current = edge
        self._info = self._expansions.get(edge) or _expand(self._adj, edge, self.config.m)
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
    for i, (s, expansion) in enumerate(zip(states, expansions)):
        for index in range(expansion[0]):
            j = position[_neighbor(s, expansion, index)]
            matrix[i, j] = min(1.0 / expansion[0], 1.0 / expansions[j][0])
        # the true residual is >= 0; clamp the float rounding of exact zeros
        matrix[i, i] = max(0.0, 1.0 - matrix[i].sum())
    return states, matrix
