"""Sample-complexity bound and the sampling-based SFD estimator.

The simplet-type sets partition the simplet domain, so their VC dimension is
1 and ``ceil((c / eps^2) * (1 + ln(1/delta)))`` uniform independent samples
suffice for an (eps, delta)-approximation of the SFD vector.  The supremum
deviation over the type family equals the coordinatewise L-infinity distance.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

from .catalog import SimpletCatalog, TypeClassifier
from .complexes import Simplet, SimplicialComplex, _real
from .errors import InputError
from .exact import SFDVector
from .sampler import DEFAULT_C_MIX, SimpletSampler, WalkConfig, _check_positive

__all__ = [
    "DEFAULT_VC_CONSTANT",
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


def required_samples(epsilon: float, delta: float, c: float = DEFAULT_VC_CONSTANT) -> int:
    """Samples sufficient for an (epsilon, delta)-approximation of the SFD vector."""
    if not (0.0 < _real(epsilon, "epsilon") < 1.0):
        raise InputError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not (0.0 < _real(delta, "delta") < 1.0):
        raise InputError(f"delta must lie in (0, 1), got {delta}")
    _check_positive("c", c)
    square = epsilon * epsilon
    raw = c / square * (_VC_DIMENSION + math.log(1.0 / delta)) if square else math.inf
    if not raw <= sys.maxsize:  # no list of samples can be longer
        raise InputError(
            f"epsilon={epsilon}, delta={delta} and c={c} give {raw:.3g} samples, "
            f"more than any run can draw ({sys.maxsize})"
        )
    return math.ceil(raw)


def empirical_sfd(samples: Sequence[Simplet], catalog: SimpletCatalog) -> SFDVector:
    """Per-type indicator averages over a list of sampled simplets."""
    if not samples:
        raise InputError("empirical_sfd needs at least one sample")
    classifier = TypeClassifier(catalog)
    counts = [0] * len(catalog)
    for simplet in samples:
        counts[classifier.index_of(simplet)] += 1
    return SFDVector(catalog.m, counts, mode="approx")


def approximate_sfd(
    complex_: SimplicialComplex,
    catalog: SimpletCatalog,
    epsilon: float,
    delta: float,
    c: float = DEFAULT_VC_CONSTANT,
    seed: int = 0,
    c_mix: float = DEFAULT_C_MIX,
) -> SFDVector:
    """(epsilon, delta)-approximate SFD vector via uniform MCMC simplet sampling.

    Draws ``required_samples(epsilon, delta, c)`` simplets with at most
    ``catalog.m`` vertices from one walk seeded by ``seed``, whose burn-in
    ``c_mix`` scales, and averages their type indicators.  Bad constants
    raise ``InputError`` before the walk is set up.
    """
    count = required_samples(epsilon, delta, c)
    sampler = SimpletSampler(complex_, WalkConfig(m=catalog.m, c_mix=c_mix, rng_seed=seed))
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
