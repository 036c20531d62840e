"""Simplet frequency distribution (SFD) vectors of simplicial complexes.

Exact enumeration, canonical simplet-type classification, uniform simplet
sampling (an MCMC walk, and exact growth with rejection), and (epsilon,
delta)-approximate SFD estimation.
"""

from .approx import (
    approximate_sfd,
    empirical_sfd,
    failure_bound,
    linf_distance,
    required_samples,
)
from .catalog import (
    SimpletCatalog,
    SimpletTypeKey,
    TypeClassifier,
    canonical_form,
    canonical_key,
    generate_catalog,
)
from .complexes import (
    DiameterEstimate,
    Simplet,
    SimplicialComplex,
    build_complex,
    connected_components,
    induced_subcomplex,
    skeleton_diameter,
)
from .errors import InputError, IntegrityError, SimpletsError, StructuralError
from .exact import SFDVector, enumerate_connected_subsets, exact_counts
from .generate import GenSpec, generate, largest_connected_restriction
from .growth import GrowthSampler
from .io import load_complex, read_facets, write_facets
from .sampler import (
    SimpletSampler,
    WalkConfig,
    burn_in_steps,
    state_degree,
    state_neighbors,
    transition_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "DiameterEstimate",
    "GenSpec",
    "GrowthSampler",
    "InputError",
    "IntegrityError",
    "SFDVector",
    "Simplet",
    "SimpletCatalog",
    "SimpletSampler",
    "SimpletTypeKey",
    "SimpletsError",
    "SimplicialComplex",
    "StructuralError",
    "TypeClassifier",
    "WalkConfig",
    "approximate_sfd",
    "build_complex",
    "burn_in_steps",
    "canonical_form",
    "canonical_key",
    "connected_components",
    "empirical_sfd",
    "enumerate_connected_subsets",
    "exact_counts",
    "failure_bound",
    "generate",
    "generate_catalog",
    "induced_subcomplex",
    "largest_connected_restriction",
    "linf_distance",
    "load_complex",
    "read_facets",
    "required_samples",
    "skeleton_diameter",
    "state_degree",
    "state_neighbors",
    "transition_matrix",
    "write_facets",
]
