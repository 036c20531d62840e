"""Simplicial complexes stored as facet lists, plus induced sub-complex queries.

A complex is represented by its maximal simplices (facets).  Downward closure
then holds by construction: a vertex set spans a simplex exactly when it is a
subset of some facet.  :func:`simplex_layout` defines the local simplex mask,
the one encoding of a simplet's simplices.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from collections.abc import Iterable
from itertools import combinations, compress

from .errors import InputError, StructuralError
from .record import Record

__all__ = [
    "SimplicialComplex",
    "Simplet",
    "DiameterEstimate",
    "MAX_IMPLIED_EDGES",
    "MAX_VERTICES",
    "build_complex",
    "decode_mask",
    "induced_subcomplex",
    "simplex_layout",
    "skeleton_diameter",
    "connected_components",
]


def _index(value, what: str) -> int:
    """``operator.index(value)``; InputError naming ``what`` for a non-integer."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise InputError(f"non-integer {what} {value!r}") from exc


def _real(value, what: str):
    """``value`` if it is a ``numbers.Real`` (int, float, Fraction, numpy reals;
    not Decimal, which float arithmetic rejects); InputError naming ``what``."""
    if value.__class__ not in (int, float):
        import numbers  # loaded only for the rare caller with another type

        if not isinstance(value, numbers.Real):
            raise InputError(f"non-real {what} {value!r}")
    return value


class SimplicialComplex:
    """Immutable simplicial complex over dense vertex ids ``[0, n)``.

    Outside input goes through :func:`build_complex`.  The constructor takes
    distinct candidate facets: non-empty frozensets of ids in ``[0, n)``, each
    before its proper subsets (largest first does this).  It keeps a candidate
    as the next facet unless an earlier kept facet contains it, so faces of
    kept facets drop out, and it fills the facet incidence and the adjacency
    in that one pass; it checks nothing else.  Since candidates are distinct,
    one no smaller than every facet kept so far is kept with no test.
    ``build_complex`` drops repeats before it sorts; ``generate`` and
    ``largest_connected_restriction`` hand distinct candidates already in order.
    Instances are safe for concurrent read access.  ``_diameter`` memoises
    :func:`skeleton_diameter`, and ``_bits`` :meth:`_adjacency_bits`.  Every
    connectivity query on the 1-skeleton runs one component search,
    :func:`_component`.
    """

    __slots__ = (
        "vertex_count", "facets", "adjacency", "max_degree", "_incidence", "_diameter", "_bits",
    )

    def __init__(self, vertex_count: int, candidates: Iterable[frozenset[int]]):
        self.vertex_count = vertex_count
        facets = []
        incidence = [set() for _ in range(vertex_count)]
        adjacency = [set() for _ in range(vertex_count)]
        largest = 0  # the largest size kept so far
        for facet in candidates:
            if len(facet) >= largest:
                largest = len(facet)
            else:
                # A kept facet holds this candidate iff its vertices' incidences
                # share an index, which needs the first vertex to neighbour the rest.
                rest = iter(facet)
                if adjacency[next(rest)].issuperset(rest) and set.intersection(
                    *[incidence[v] for v in facet]
                ):
                    continue
            idx = len(facets)  # one int object shared by every vertex
            facets.append(facet)
            for v in facet:
                incidence[v].add(idx)
            for u, v in combinations(sorted(facet), 2):
                adjacency[u].add(v)
                adjacency[v].add(u)
        # freeze in place, so each set goes as its frozenset is made
        for table in (incidence, adjacency):
            for v, s in enumerate(table):
                table[v] = frozenset(s)
        self.facets: tuple[frozenset[int], ...] = tuple(facets)
        self._incidence: tuple[frozenset[int], ...] = tuple(incidence)
        self.adjacency: tuple[frozenset[int], ...] = tuple(adjacency)
        self.max_degree = max(map(len, adjacency), default=0)
        self._diameter: DiameterEstimate | None = None
        self._bits: tuple[int, ...] | None = None

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(n={self.vertex_count}, facets={len(self.facets)}, "
            f"edges={self.edge_count}, max_degree={self.max_degree})"
        )

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All 1-simplices as sorted pairs, in sorted order.

        The walk draws its start edge from this list, so the order must not
        depend on how a copy of the complex hashes its adjacency sets.
        """
        return [(u, v) for u in range(self.vertex_count) for v in sorted(self.adjacency[u]) if u < v]

    def _adjacency_bits(self) -> tuple[int, ...]:
        """The adjacency as integer bitsets, bit w of entry v set when w is a
        neighbour of v; built on first use (about n²/8 bytes) and kept."""
        if self._bits is None:
            bits = []
            for nbrs in self.adjacency:
                row = 0
                for w in nbrs:
                    row |= 1 << w
                bits.append(row)
            self._bits = tuple(bits)
        return self._bits

    def _vertex_set(self, vertices: Iterable[int]) -> set[int]:
        """The given ids as a set of ints, each through ``_index``; InputError
        for a non-integer id or one outside ``[0, n)``."""
        vs = set()
        for v in vertices:
            v = _index(v, "vertex id")
            if not (0 <= v < self.vertex_count):
                raise InputError(f"vertex id {v} out of range [0, {self.vertex_count})")
            vs.add(v)
        return vs

    def skeleton_connected_on(self, vertices: Iterable[int]) -> bool:
        """True iff the 1-skeleton induced on the given vertices is connected;
        False for no vertices, InputError for a non-integer id or one outside
        ``[0, n)``."""
        vs = self._vertex_set(vertices)
        return bool(vs) and len(_component(self.adjacency, min(vs), vs)) == len(vs)


class Simplet(Record):
    """A connected induced sub-complex of ``host``, identified by its vertex set.

    Construct through :func:`induced_subcomplex` (or the sampler), which
    enforce connectivity; the constructor itself does not re-validate.
    Equality, the hash and repr use the vertices only.
    """

    __slots__ = ("host", "vertices")
    _arity = 2
    _compared = _shown = ("vertices",)

    def __init__(self, host: SimplicialComplex, vertices: tuple[int, ...] = ()):
        self._store(host, vertices)

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


@functools.cache
def _mask_digits(k: int) -> tuple[tuple[tuple[int, ...], ...], str, int]:
    """The subsets of ``simplex_layout(k)`` in order, one per binary digit of
    a mask, heaviest first; the format that spells a mask in those digits; and
    the bound that every mask lies below."""
    subsets = tuple(s for s, _, _ in simplex_layout(k))
    return subsets, f"0{len(subsets)}b", 1 << len(subsets)


_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def decode_mask(k: int, mask: int) -> tuple[tuple[int, ...], ...]:
    """The local simplices a k-vertex simplex mask holds, in (size, tuple) order."""
    subsets, digits, bound = _mask_digits(k)
    mask = _index(mask, "mask")
    if not 0 <= mask < bound:
        raise InputError(f"{mask} is not a {k}-vertex simplex mask")
    return tuple(compress(subsets, format(mask, digits).encode().translate(_DIGIT_BITS)))


@functools.lru_cache(maxsize=64)
def _positions(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, lowest first.  The walk asks only for vertex
    bitmasks of up to six vertices, which the 64 kept results cover; the
    catalog's wide simplex masks pass through without growing the cache."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


DiameterEstimate = namedtuple("DiameterEstimate", "value")

# The most edges that build_complex's candidates may imply, summing
# C(|facet|, 2) over them, and the most vertices a complex may have, checked
# before any per-vertex table.  At both limits, loading a file peaked under
# 1 GB RSS on Python 3.11: 786 MB for K_1265 as 799,480 2-vertex lines plus
# singleton lines up to 200,000 vertices (the worst shape measured), 620 MB
# for 800,000 random edges over 200,000 vertices, 201 MB for 200,000
# singleton lines and 174 MB for one facet of 1,265 vertices.  A 110 kB line
# of 20,000 labels, which would need about 40 GB, fails at once.  Lower bytes
# per edge or per vertex would let the limits rise.
MAX_IMPLIED_EDGES = 800_000
MAX_VERTICES = 200_000
_WITHIN_1GB = "more than this tool loads within about 1 GB"


def build_complex(facet_list: Iterable[Iterable[int]], vertex_count: int) -> SimplicialComplex:
    """Build a complex from candidate facets, dropping duplicates and non-maximal entries.

    The gate for facet files and library callers: every vertex id must lie in
    ``[0, vertex_count)`` and every facet must be non-empty.  This checks the
    entries, drops repeats and sorts the rest largest first, then by sorted
    vertices; the :class:`SimplicialComplex` constructor drops each entry that
    a kept one contains, so the stored facets form an antichain.  More than
    ``MAX_VERTICES`` vertices, or entries implying more than
    ``MAX_IMPLIED_EDGES`` edges in all, raise InputError before anything is built.
    """
    vertex_count = _index(vertex_count, "vertex_count")
    if vertex_count < 0:
        raise InputError("vertex_count must be nonnegative")
    if vertex_count > MAX_VERTICES:
        raise InputError(f"vertex_count {vertex_count} is over {MAX_VERTICES}, {_WITHIN_1GB}")
    candidates: set[frozenset[int]] = set()
    implied = 0
    for entry in facet_list:
        try:
            facet = frozenset(map(operator.index, entry))
        except TypeError as exc:
            raise InputError(f"non-integer vertex id in facet {entry!r}") from exc
        if not facet:
            raise InputError("empty facet")
        implied += len(facet) * (len(facet) - 1) // 2
        if implied > MAX_IMPLIED_EDGES:
            raise InputError(f"the facets imply more than {MAX_IMPLIED_EDGES} edges, {_WITHIN_1GB}")
        for v in facet:
            if not (0 <= v < vertex_count):
                raise InputError(f"vertex id {v} out of range [0, {vertex_count})")
        candidates.add(facet)
    # largest first, then by sorted vertices: two passes of a stable sort
    ordered = sorted(candidates, key=sorted)
    del candidates  # its table goes before the constructor's tables come
    ordered.sort(key=len, reverse=True)
    return SimplicialComplex(vertex_count, ordered)


def induced_subcomplex(complex_: SimplicialComplex, vertices: Iterable[int]) -> Simplet | None:
    """The simplet induced on ``vertices``, or None if its skeleton is disconnected.

    Requires at least two vertices; the result contains every simplex of the
    host whose vertices lie in the given set.
    """
    vs = tuple(sorted(complex_._vertex_set(vertices)))
    if len(vs) < 2:
        raise InputError("a simplet needs at least two vertices")
    if not complex_.skeleton_connected_on(vs):
        return None
    return Simplet(complex_, vs)


def _component(
    adjacency: tuple[frozenset[int], ...], start: int, within: set[int] | None = None
) -> set[int]:
    """The vertices the 1-skeleton joins to ``start``, passing only through
    ``within`` when given (``start`` must lie in it): breadth-first, one set
    union of neighbour sets per level."""
    seen = {start}
    frontier = {start}
    while frontier:
        frontier = set().union(*[adjacency[u] for u in frontier]) - seen
        if within is not None:
            frontier &= within
        seen |= frontier
    return seen


def connected_components(complex_: SimplicialComplex) -> list[list[int]]:
    """Connected components of the 1-skeleton, each sorted, in order of their
    lowest vertex (isolated vertices are singletons)."""
    seen: set[int] = set()
    components: list[list[int]] = []
    for v in range(complex_.vertex_count):
        if v not in seen:
            component = _component(complex_.adjacency, v)
            seen |= component
            components.append(sorted(component))
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
    """Level-synchronous ball growth on the adjacency bitsets.

    ``balls[v]`` is the bitset of the vertices within distance t of v, first
    for t = 1 (v and its neighbours); ball(v, t + 1) is the OR of ball(w, t)
    over v and its neighbours w.  A level's new balls are all built before any
    is written back: reading a ball already grown to t + 1 would skip a
    distance and undercount.  Only balls short of all n vertices grow, and the
    diameter is the first t at which every ball is full.  A ball that stops
    growing short of full is a whole component, so the skeleton is
    disconnected.

    The work is at most n * diam * (mean degree + 1) ORs of n-bit integers,
    with at most two extra n²/8-byte tables alive (the balls and one level's
    new balls).  It grows with the diameter: a 3000-vertex path takes seconds,
    but every sample then walks ``ln n * max_degree * diam²`` steps, about
    1.4e8 there, so the diameter stays below one sample's cost.
    """
    n = complex_.vertex_count
    if n <= 1:
        return DiameterEstimate(0)
    adjacency = complex_.adjacency
    full = (1 << n) - 1
    balls = [row | 1 << v for v, row in enumerate(complex_._adjacency_bits())]
    growing = [v for v in range(n) if balls[v] != full]
    radius = 1
    while growing:
        radius += 1
        grown = []
        for v in growing:
            ball = balls[v]
            for w in adjacency[v]:
                ball |= balls[w]
            grown.append(ball)
        still = []
        for v, ball in zip(growing, grown):
            if ball == balls[v]:
                outside = set(range(n)).difference(_component(adjacency, 0))
                raise StructuralError(
                    f"1-skeleton is disconnected: no path between vertices 0 and {min(outside)}; "
                    "restrict to the largest connected component (--largest-component)"
                )
            balls[v] = ball
            if ball != full:
                still.append(v)
        growing = still
    return DiameterEstimate(radius)
