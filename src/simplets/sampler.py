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
current state is decoded into moves.  ``SimpletSampler.sample`` is the walk's
one loop.  Its one memo maps each proposed state to its degree, and replaces
that by the state's expansion when the walk enters it.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_
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

# The sampler's memo holds at most this many states.
_CACHE_CAP = 20_000


def _check_positive(name: str, value: float) -> None:
    """InputError unless ``value`` is a finite positive number."""
    if not (0 < value < math.inf):
        raise InputError(f"{name} must be a finite positive number, got {value}")


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
        if self.burn_in is not None and (type(self.burn_in) is not int or self.burn_in < 1):
            raise InputError(f"burn_in must be a positive integer, got {self.burn_in!r}")
        _check_positive("c_mix", self.c_mix)


# Swap counts are packed one field per position, so that one C-level sum counts
# every position's swaps; that sum modulo the field's mask is their total, which
# is at most len(state) * len(attach) and must fit in one field.  Six narrow
# fields fit a machine word, which the sum adds without allocating; states with
# too many outside neighbours for them use wide fields.
_NARROW, _WIDE = 10, 32


class _MoveTable(dict):
    """The moves of one shape ``nb``, a state's induced neighbour masks by
    position.  ``removable`` lists the positions whose removal keeps the state
    connected, ``parts[u]`` the component masks of the state without u.  A
    vertex with attach mask a can replace u when a meets every part of
    ``parts[u]``; the table maps a to those positions as packed ``field``-bit
    fields, filled on first lookup, so bit ``field * u`` of its entry is set
    when it can replace u."""

    __slots__ = ("removable", "parts", "field", "mask")

    def __init__(self, nb: tuple[int, ...], field: int):
        super().__init__()
        k = len(nb)
        self.parts = []
        self.field, self.mask = field, (1 << field) - 1
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
        packed = 0
        for u, parts in enumerate(self.parts):
            if all(part & attach for part in parts):
                packed |= 1 << (self.field * u)
        self[attach] = packed
        return packed


# One table per shape and field width; fewer than 28k connected shapes have at
# most 6 positions.
_moves_table = functools.cache(_MoveTable)


def _expand(adj: Sequence[frozenset[int]], state: State, m: int) -> tuple:
    """``(degree, adds, attach, table, swaps, picks)`` of a state: ``attach`` maps
    each outside neighbour to its attach mask, all of which may be added below
    m vertices (``adds``), ``swaps`` packs the swap count of every position, and
    ``picks`` keeps each position's sorted replacements once decoded."""
    attach = dict.fromkeys(adj[state[0]], 1)
    bit = 2
    for v in state[1:]:
        for w in adj[v]:
            attach[w] = attach.get(w, 0) | bit
        bit <<= 1
    nb = tuple(map(attach.pop, state))
    table = _moves_table(nb, _NARROW if len(state) * len(attach) < (1 << _NARROW) - 1 else _WIDE)
    adds = len(attach) if len(state) < m else 0
    swaps = sum(map(table.__getitem__, attach.values()))
    return adds + len(table.removable) + swaps % table.mask, adds, attach, table, swaps, {}


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
    field, mask = table.field, table.mask
    for u in range(len(state)):
        count = swaps >> (field * u) & mask
        if index < count:
            if u not in picks:  # the outside neighbours whose swap positions include u
                picks[u] = sorted(compress(attach, map(
                    and_, map(table.__getitem__, attach.values()), repeat(1 << field * u))))
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
    _check_positive("c_mix", c_mix)
    if diameter is None:
        diameter = skeleton_diameter(complex_).value
    n = complex_.vertex_count
    raw = c_mix * math.log(max(n, 3)) * complex_.max_degree * diameter * diameter
    if not raw <= sys.maxsize:  # no range of steps can be longer
        raise InputError(
            f"the burn-in for c_mix={c_mix} is {raw:.3g} steps, more than any walk "
            f"can take ({sys.maxsize})"
        )
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
        # The memo: a state's degree, replaced by its expansion once the walk
        # enters it.  It holds at most _CACHE_CAP states.
        self._degree_cache: dict[State, int | tuple] = {}
        self.steps_taken = 0

    def _degree(self, state: State) -> int:
        """The degree of ``state``, by the memo's rules for a proposal."""
        entry = self._degree_cache.get(state)
        if entry is None:
            entry = _expand(self._adj, state, self.config.m)[0]
            if len(self._degree_cache) < _CACHE_CAP:
                self._degree_cache[state] = entry
        return entry if entry.__class__ is int else entry[0]

    def sample(self) -> Simplet:
        """One simplet distributed (approximately) uniformly over all states:
        a fresh chain from a uniform edge, walked for the burn-in length.

        Each step proposes a uniform move of the current state and accepts it
        with probability ``min(1, d(current) / d(proposal))``.  A proposal's
        degree comes from the memo; one the memo lacks is expanded, and its
        degree kept while the memo has room.  Entering a state whose memo
        entry is a degree expands it again and keeps that expansion."""
        rng, adj, m, memo, cap = self._rng, self._adj, self.config.m, self._degree_cache, _CACHE_CAP
        randrange, random_, expand, neighbor = rng.randrange, rng.random, _expand, _neighbor
        state = self._edges[randrange(len(self._edges))]
        info = memo.get(state)
        if info.__class__ is not tuple:  # a chain start reuses only a kept expansion
            info = expand(adj, state, m)
        d_s = info[0]
        for _ in range(self.burn_in):
            if d_s == 0:
                raise IntegrityError("reached a sink state; impossible for a connected host")
            proposal = neighbor(state, info, randrange(d_s))
            entry = memo.get(proposal)
            if entry is None:
                entry = expand(adj, proposal, m)
                d_j = entry[0]
                if len(memo) < cap:
                    memo[proposal] = d_j
            elif entry.__class__ is int:
                d_j = entry
            else:
                d_j = entry[0]
            if d_j <= d_s or random_() < d_s / d_j:
                if entry.__class__ is int:  # entering a state whose degree is memoised
                    entry = memo[proposal] = expand(adj, proposal, m)
                state, info, d_s = proposal, entry, d_j
        self.steps_taken += self.burn_in
        return Simplet(self.complex, state)


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
