"""Random simplicial complex generators for experiments.

Two models over an Erdos-Renyi base graph: ``flag`` takes every clique of
size <= 4 as a simplex (clique complex truncated at dimension 3); ``lm``
fills each graph triangle independently and fills a tetrahedron only when
all four of its boundary triangles were filled, keeping downward closure.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import combinations

from .complexes import MAX_VERTICES, SimplicialComplex, _index, _real, connected_components
from .errors import InputError, StructuralError
from .record import Record

__all__ = ["GenSpec", "generate", "largest_connected_restriction", "RestrictionResult"]

MODELS = ("flag", "lm")


class GenSpec(Record):
    """Generator parameters: the model, the vertex count, the fill
    probabilities of edges, triangles and tetrahedra, and the integer seed."""

    __slots__ = _compared = _shown = ("model", "n", "p_edge", "p_tri", "p_tet", "seed")
    _arity = 6

    def __init__(
        self, model: str, n: int, p_edge: float, p_tri: float = 0.0, p_tet: float = 0.0,
        seed: int = 0,
    ):
        if model not in MODELS:
            raise InputError(f"model must be one of {MODELS}, got {model!r}")
        n = _index(n, "n")
        if n < 3:
            raise InputError(f"generator needs n >= 3, got n={n}")
        if n > MAX_VERTICES:  # fail before the O(n²) base graph, not after it
            raise InputError(f"generator takes at most {MAX_VERTICES} vertices, got n={n}")
        for name, p in (("p_edge", p_edge), ("p_tri", p_tri), ("p_tet", p_tet)):
            if not (0.0 <= _real(p, name) <= 1.0):
                raise InputError(f"{name}={p} outside [0, 1]")
        self._store(model, n, p_edge, p_tri, p_tet, _index(seed, "seed"))


def _base_graph(spec: GenSpec, rng: random.Random):
    adjacency: list[set[int]] = [set() for _ in range(spec.n)]
    edges: list[tuple[int, int]] = []
    for u, v in combinations(range(spec.n), 2):
        if rng.random() < spec.p_edge:
            adjacency[u].add(v)
            adjacency[v].add(u)
            edges.append((u, v))
    return adjacency, edges


def _cofaces(adjacency, cliques) -> list[tuple[int, ...]]:
    """Each clique extended by every common neighbour of its vertices above
    its last one: in clique order, then in the order of the new vertex."""
    out = []
    for clique in cliques:
        for x in sorted(set.intersection(*[adjacency[v] for v in clique])):
            if x > clique[-1]:
                out.append((*clique, x))
    return out


def generate(spec: GenSpec) -> SimplicialComplex:
    """Generate a complex; deterministic for a fixed spec (seed included).

    The candidates go straight to the constructor, distinct and in its order, so only
    ``GenSpec``'s bound on ``n`` limits them.  Isolated vertices are kept as
    singleton facets so the vertex count survives facet-file round trips.
    """
    rng = random.Random(spec.seed)
    adjacency, edges = _base_graph(spec, rng)
    triangles = _cofaces(adjacency, edges)

    if spec.model == "flag":
        filled_tris = triangles
        filled_tets = _cofaces(adjacency, triangles)
    else:
        filled_tris = [t for t in triangles if rng.random() < spec.p_tri]
        filled_set = set(filled_tris)
        filled_tets = [
            quad
            for quad in _cofaces(adjacency, triangles)
            if all(f in filled_set for f in combinations(quad, 3))
            and rng.random() < spec.p_tet
        ]

    # largest first, lexicographic within a size: the constructor drops the faces
    facets = [*filled_tets, *filled_tris, *edges]
    facets.extend((v,) for v in range(spec.n) if not adjacency[v])
    return SimplicialComplex(spec.n, map(frozenset, facets))


RestrictionResult = namedtuple("RestrictionResult", "complex original_vertices")


def largest_connected_restriction(complex_: SimplicialComplex) -> RestrictionResult:
    """Induced sub-complex on the largest skeleton component, relabeled densely.

    Ties break toward the component containing the lowest vertex id.  Also
    returns the original ids in new-id order so callers can carry labels over.
    A complex whose skeleton is connected comes back as it is.
    """
    if complex_.edge_count == 0:
        raise StructuralError("complex has no edges; nothing to restrict to")
    components = connected_components(complex_)
    if len(components) == 1:
        return RestrictionResult(complex_, tuple(components[0]))
    best = max(components, key=lambda comp: (len(comp), -min(comp)))
    relabel = {old: new for new, old in enumerate(best)}
    facets = (
        frozenset(relabel[v] for v in facet)
        for facet in complex_.facets
        if next(iter(facet)) in relabel
    )
    return RestrictionResult(SimplicialComplex(len(best), facets), tuple(best))
