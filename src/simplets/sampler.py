"""Uniform simplet sampling via a Metropolis-style walk on the simplet state graph.

States are the simplets of the host complex with 2..m vertices, encoded as
sorted vertex tuples.  Moves add, remove, or swap one vertex while keeping
the induced skeleton connected.  Transition probabilities are
``T(i, j) = min(1/d(i), 1/d(j))`` for neighboring states, with the residual
mass on a self-loop, which makes ``T`` symmetric and doubly stochastic and
hence the stationary distribution uniform over all states.  Each vertex's
neighbours are one integer bitset, kept on the complex (about n²/8 bytes).
A state's moves are then a few big-integer ORs, ANDs and popcounts over its
vertices' bitsets, as its shape (the induced edges) prescribes; only the
walk's current state is decoded into a move.  The expansion of a state is
straight-line code generated once per state size (``_kernel``): it reads the
shape's ``(removable, cuts)`` (``_shape``) from a per-size dict keyed by the
integer of edge flags, filled as shapes are met, and lets each function in
``cuts`` (``_cut``) set the swaps of one position whose removal splits the
state, from that position's partition of the others: at most 395 functions
up to m = 6, where one per shape would be thousands.
``SimpletSampler.sample`` is the walk's one loop; it draws each move
index from ``getrandbits`` exactly as ``Random.randrange`` would.  Its one
memo maps each proposed state to its degree, and replaces that by the
state's expansion when the walk enters it.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections.abc import Sequence
from itertools import combinations

from .complexes import Simplet, SimplicialComplex, _check_positive, _index, _positions, skeleton_diameter
from .errors import InputError, IntegrityError, StructuralError
from .record import Record

__all__ = [
    "DEFAULT_C_MIX",
    "WalkConfig",
    "SimpletSampler",
    "state_neighbors",
    "state_degree",
    "burn_in_steps",
    "transition_matrix",
]

State = tuple[int, ...]

# The default scale of the burn-in heuristic (``burn_in_steps``).
DEFAULT_C_MIX = 1.0

# The sampler's memo holds at most this many states.
_CACHE_CAP = 20_000


class WalkConfig(Record):
    """Random-walk parameters.

    ``burn_in`` overrides the mixing-bound heuristic when set; otherwise the
    sampler uses ``burn_in_steps`` with ``c_mix``.  ``rng_seed``, an integer,
    seeds the sampler's only random stream.
    """

    __slots__ = _compared = _shown = ("m", "burn_in", "c_mix", "rng_seed")
    _arity = 4

    def __init__(self, m: int, burn_in: int | None = None, c_mix: float = DEFAULT_C_MIX, rng_seed: int = 0):
        if type(m) is not int or m < 3:
            raise InputError(f"the sampler requires an integer m >= 3, got m={m!r}")
        if burn_in is not None and (type(burn_in) is not int or burn_in < 1):
            raise InputError(f"burn_in must be a positive integer, got {burn_in!r}")
        _check_positive("c_mix", c_mix)
        self._store(m, burn_in, c_mix, _index(rng_seed, "rng_seed"))


def _shape(k: int, key: int) -> tuple:
    """``(removable, cuts)`` of ``k`` positions whose induced edges are the set
    bits of ``key``, one per pair in ``combinations`` order: the positions
    whose removal keeps the state connected, and ``_cut(k, u, parts)`` for
    each position u whose removal splits the others into several parts."""
    nb = [0] * k
    for bit, (i, j) in enumerate(combinations(range(k), 2)):
        if key >> bit & 1:
            nb[i] |= 1 << j
            nb[j] |= 1 << i
    removable, cuts = 0, []
    for u in range(k):
        rest, parts = ((1 << k) - 1) ^ (1 << u), []
        while rest:
            # grow the part from its lowest position, reading only the
            # neighbours of the positions reached last round
            part = new = rest & -rest
            while new:
                reach = 0
                for i in _positions(new):
                    reach |= nb[i]
                new = reach & rest & ~part
                part |= new
            parts.append(_positions(part))
            rest ^= part
        if len(parts) > 1:
            cuts.append(_cut(k, u, tuple(parts)))
        elif k > 2:
            removable |= 1 << u
    return _positions(removable), tuple(cuts)


@functools.cache
def _cut(k: int, u: int, parts: tuple[tuple[int, ...], ...]):
    """A function of the swap list and a k-vertex state's rows ``r0 .. r{k-1}``
    that sets ``swaps[u]`` to the AND over ``parts``, the state's split without
    u, of each part's OR; compiled once per (k, u, parts).  The parts leave out
    u alone, so they fix it, and up to m = 6 at most 395 exist (k * (B(k - 1)
    - 1) summed over k, B the Bell numbers); only those met are compiled."""
    rows = ", ".join(f"r{i}" for i in range(k))
    body = " & ".join(f"({' | '.join(f'r{i}' for i in part)})" for part in parts)
    namespace = {}
    exec(compile(f"def cut(swaps, {rows}): swaps[{u}] = {body}",
                 f"<simplets cut k={k} u={u} {parts}>", "exec"), namespace)
    return namespace["cut"]


@functools.cache
def _kernel(k: int, m: int):
    """The expansion of a k-vertex state as one function without loops over
    positions or pairs, compiled once per (k, m).  It tests the state's pairs
    for edges into an integer shape key, looks the key's ``(removable, cuts)``
    up in a dict of its own (filled on a miss by ``_shape``, so only shapes
    met take room), and gives every position the OR of the other positions'
    rows from prefix and suffix ORs; each function in ``cuts`` then
    overrides the swaps of its cut position.  At k = m nothing can be added,
    so the degree line counts no adds."""
    pos = range(k)
    # prefix[i] names the OR of rows 0..i for i < k - 1, suffix[i] that of
    # rows i..k-1 for i > 0
    prefix = ["r0"] + [f"p{i}" for i in range(1, k - 1)]
    suffix = [None] + [f"q{i}" for i in range(1, k - 1)] + [f"r{k - 1}"]
    others = [suffix[1]] + [f"{prefix[u - 1]} | {suffix[u + 1]}" for u in range(1, k - 1)]
    key = " | ".join(
        f"(s{j} in a{i}) << {bit}" for bit, (i, j) in enumerate(combinations(pos, 2))
    )
    lines = [
        "def expand(adj, bits, state):",
        f"    {', '.join(f's{i}' for i in pos)}, = state",
        *(f"    a{i} = adj[s{i}]" for i in range(k - 1)),
        f"    key = {key}",
        "    try:",
        "        removable, cuts = shapes[key]",
        "    except KeyError:",
        f"        removable, cuts = shapes[key] = _shape({k}, key)",
        f"    out = ~({' | '.join(f'1 << s{i}' for i in pos)})",
        *(f"    r{i} = bits[s{i}] & out" for i in pos),
        *(f"    p{i} = {prefix[i - 1]} | r{i}" for i in range(1, k - 1)),
        *(f"    q{i} = r{i} | {suffix[i + 1]}" for i in range(k - 2, 0, -1)),
        f"    swaps = [{', '.join(others + [prefix[k - 2]])}]",
        "    for cut in cuts:",
        f"        cut(swaps, {', '.join(f'r{i}' for i in pos)})",
        f"    adds = {prefix[k - 2]} | r{k - 1}" if k < m else "    adds = 0",
        "    degree = " + ("adds.bit_count() + " if k < m else "") + "len(removable) + "
        + " + ".join(f"swaps[{u}].bit_count()" for u in pos),
        "    return degree, adds, removable, swaps",
    ]
    namespace = {"shapes": {}, "_shape": _shape}
    exec(compile("\n".join(lines), f"<simplets kernel k={k} m={m}>", "exec"), namespace)
    return namespace["expand"]


def _expand(adj: Sequence[frozenset[int]], bits: Sequence[int], state: State, m: int) -> tuple:
    """``(degree, adds, removable, swaps)`` of a state: ``adds`` is the bitset of
    the outside neighbours, which may be added below m vertices (0 at m),
    ``removable`` the removable positions, and ``swaps[u]`` the bitset of the
    outside vertices that can replace position u: those that neighbour every
    part of the state without u."""
    return _kernel(len(state), m)(adj, bits, state)


def _neighbor(state: State, expansion: tuple, index: int) -> State:
    """The ``index``-th move of ``state``: adds by vertex, then removals by
    position, then swaps by position and then by replacing vertex.  The vertex
    that joins is the index-th lowest set bit of the move's bitset."""
    _degree, mask, removable, swaps = expansion
    rest = state
    count = mask.bit_count()
    if index >= count:
        index -= count
        count = len(removable)
        if index < count:
            u = removable[index]
            return state[:u] + state[u + 1:]
        index -= count
        for u, mask in enumerate(swaps):
            count = mask.bit_count()
            if index < count:
                rest = state[:u] + state[u + 1:]
                break
            index -= count
        else:
            raise IntegrityError("neighbor index out of range; degree bookkeeping is broken")
    base = 0
    while index > 4:  # halve the mask while many set bits precede the one sought
        half = mask.bit_length() >> 1
        low = mask & ((1 << half) - 1)
        count = low.bit_count()
        if index < count:
            mask = low
        else:
            index, mask, base = index - count, mask >> half, base + half
    for _ in range(index):
        mask &= mask - 1
    return tuple(sorted(rest + (base + (mask & -mask).bit_length() - 1,)))


def _walk_state(complex_: SimplicialComplex, state: Sequence[int], m: int) -> State:
    """``state`` as a sorted walk state; InputError unless it holds 2..m
    distinct vertices of ``complex_`` whose induced skeleton is connected."""
    vs = tuple(state)
    s = tuple(sorted(complex_._vertex_set(vs)))
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
    expansion = _expand(complex_.adjacency, complex_._adjacency_bits(), s, m)
    return sorted(_neighbor(s, expansion, i) for i in range(expansion[0]))


def state_degree(complex_: SimplicialComplex, state: Sequence[int], m: int) -> int:
    """Number of out-neighbors of a state in the walk graph."""
    s = _walk_state(complex_, state, m)
    return _expand(complex_.adjacency, complex_._adjacency_bits(), s, m)[0]


def burn_in_steps(
    complex_: SimplicialComplex, c_mix: float, diameter: int | None = None
) -> int:
    """Walk length from the mixing-time bound: ceil(c_mix * ln(max(n,3)) * max_degree * diam^2).

    A given ``diameter`` must be a nonnegative integer; InputError otherwise.
    """
    _check_positive("c_mix", c_mix)
    if diameter is None:
        diameter = skeleton_diameter(complex_).value
    else:
        diameter = _index(diameter, "diameter")
        if diameter < 0:
            raise InputError(f"diameter must be nonnegative, got {diameter}")
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
        self._bits = complex_._adjacency_bits()
        self._edges = complex_.edges()
        # The memo: a state's degree, replaced by its expansion once the walk
        # enters it.  It holds at most _CACHE_CAP states.
        self._degree_cache: dict[State, int | tuple] = {}
        self.steps_taken = 0

    def _degree(self, state: State) -> int:
        """The degree of ``state``, by the memo's rules for a proposal."""
        entry = self._degree_cache.get(state)
        if entry is None:
            entry = _expand(self._adj, self._bits, state, self.config.m)[0]
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
        rng, adj, bits, m = self._rng, self._adj, self._bits, self.config.m
        memo, cap = self._degree_cache, _CACHE_CAP
        getrandbits, random_, expand, neighbor = rng.getrandbits, rng.random, _expand, _neighbor
        state = self._edges[rng.randrange(len(self._edges))]
        info = memo.get(state)
        if info.__class__ is not tuple:  # a chain start reuses only a kept expansion
            info = expand(adj, bits, state, m)
        d_s = info[0]
        for _ in range(self.burn_in):
            if d_s == 0:
                raise IntegrityError("reached a sink state; impossible for a connected host")
            # the move index as rng.randrange(d_s) draws it, without its two frames
            width = d_s.bit_length()
            index = getrandbits(width)
            while index >= d_s:
                index = getrandbits(width)
            proposal = neighbor(state, info, index)
            entry = memo.get(proposal)
            if entry is None:
                entry = expand(adj, bits, proposal, m)
                d_j = entry[0]
                if len(memo) < cap:
                    memo[proposal] = d_j
            elif entry.__class__ is int:
                d_j = entry
            else:
                d_j = entry[0]
            if d_j <= d_s or random_() < d_s / d_j:
                if entry.__class__ is int:  # entering a state whose degree is memoised
                    entry = memo[proposal] = expand(adj, bits, proposal, m)
                state, info, d_s = proposal, entry, d_j
        self.steps_taken += self.burn_in
        return Simplet(self.complex, state)


def transition_matrix(complex_: SimplicialComplex, m: int):
    """Explicit transition matrix over all states, for diagnostics and tests.

    Returns ``(states, T)`` with states sorted and ``T`` a dense numpy array.
    Only usable on small complexes; the state count grows quickly.  It needs
    numpy, which the package does not depend on (the ``test`` extra installs
    it); nothing else in the package imports numpy.
    """
    import numpy as np

    from .exact import enumerate_connected_subsets

    states = sorted(enumerate_connected_subsets(complex_, m))
    position = {s: i for i, s in enumerate(states)}
    count = len(states)
    matrix = np.zeros((count, count))
    expansions = [_expand(complex_.adjacency, complex_._adjacency_bits(), s, m) for s in states]
    for i, (s, expansion) in enumerate(zip(states, expansions)):
        for index in range(expansion[0]):
            j = position[_neighbor(s, expansion, index)]
            matrix[i, j] = min(1.0 / expansion[0], 1.0 / expansions[j][0])
        # the true residual is >= 0; clamp the float rounding of exact zeros
        matrix[i, i] = max(0.0, 1.0 - matrix[i].sum())
    return states, matrix
