"""Sample-complexity bound and the sampling-based SFD estimator.

The simplet-type sets partition the simplet domain, so their VC dimension is
1 and ``ceil((c / eps^2) * (1 + ln(1/delta)))`` uniform independent samples
suffice for an (eps, delta)-approximation of the SFD vector.  The supremum
deviation over the type family equals the coordinatewise L-infinity distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .catalog import SimpletCatalog, TypeClassifier
from .complexes import Simplet, SimplicialComplex
from .errors import InputError
from .exact import SFDVector, sfd_from_counts
from .sampler import SimpletSampler, WalkConfig

__all__ = [
    "DEFAULT_VC_CONSTANT",
    "ApproxParams",
    "required_samples",
    "empirical_sfd",
    "approximate_sfd",
    "linf_distance",
]

# The bound leaves the leading constant unspecified; 0.5 matches the constants
# commonly used with relative-deviation epsilon-sample bounds and is
# configurable everywhere it appears.
DEFAULT_VC_CONSTANT = 0.5

_VC_DIMENSION = 1  # the type sets partition the domain


@dataclass(frozen=True)
class ApproxParams:
    """Accuracy/confidence targets plus the walk configuration."""

    epsilon: float
    delta: float
    c: float = DEFAULT_VC_CONSTANT
    walk: WalkConfig = field(default_factory=lambda: WalkConfig(m=4))

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise InputError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InputError(f"delta must lie in (0, 1), got {self.delta}")
        if self.c <= 0:
            raise InputError("c must be positive")


def required_samples(epsilon: float, delta: float, c: float = DEFAULT_VC_CONSTANT) -> int:
    """Samples sufficient for an (epsilon, delta)-approximation of the SFD vector."""
    if not (0.0 < epsilon < 1.0) or not (0.0 < delta < 1.0):
        raise InputError("epsilon and delta must lie in (0, 1)")
    if c <= 0:
        raise InputError("c must be positive")
    return math.ceil(c / (epsilon * epsilon) * (_VC_DIMENSION + math.log(1.0 / delta)))


def empirical_sfd(samples: Sequence[Simplet], catalog: SimpletCatalog) -> SFDVector:
    """Per-type indicator averages over a list of sampled simplets."""
    if not samples:
        raise InputError("empirical_sfd needs at least one sample")
    classifier = TypeClassifier(catalog)
    counts = [0] * len(catalog)
    for simplet in samples:
        counts[classifier.index_of(simplet)] += 1
    return sfd_from_counts(counts, catalog.m, mode="approx")


def approximate_sfd(
    complex_: SimplicialComplex,
    catalog: SimpletCatalog,
    params: ApproxParams,
) -> SFDVector:
    """(epsilon, delta)-approximate SFD vector via uniform MCMC simplet sampling.

    Draws ``required_samples(params.epsilon, params.delta, params.c)`` simplets
    with the configured walk, seeded by ``params.walk.rng_seed``, and averages
    their type indicators.
    """
    if params.walk.m != catalog.m:
        raise InputError(
            f"walk samples simplets up to m={params.walk.m} but the catalog covers m={catalog.m}"
        )
    count = required_samples(params.epsilon, params.delta, params.c)
    sampler = SimpletSampler(complex_, params.walk)
    samples = [sampler.sample() for _ in range(count)]
    return empirical_sfd(samples, catalog)


def _check_comparable(a: SFDVector, b: SFDVector) -> None:
    if a.catalog_m != b.catalog_m or len(a.frequencies) != len(b.frequencies):
        raise InputError(
            f"cannot compare SFD vectors for m={a.catalog_m} and m={b.catalog_m}"
        )


def linf_distance(a: SFDVector, b: SFDVector) -> float:
    """Maximum per-type frequency deviation (the approximation guarantee's metric)."""
    _check_comparable(a, b)
    return max(abs(x - y) for x, y in zip(a.frequencies, b.frequencies))
