"""Sample-complexity bound and the sampling-based SFD estimator.

The simplet-type sets partition the simplet domain, so their VC dimension is
1 and ``ceil((c / eps^2) * (1 + ln(1/delta)))`` uniform independent samples
suffice for an (eps, delta)-approximation of the SFD vector, for some constant
c.  The supremum deviation over the type family equals the coordinatewise
L-infinity distance.  :func:`failure_bound` certifies a count without that
constant, and :func:`required_samples` raises the paper's count until it does.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from collections.abc import Sequence

from .catalog import SimpletCatalog, TypeClassifier
from .complexes import Simplet, SimplicialComplex, _index, _real
from .errors import InputError
from .exact import SFDVector
from .sampler import DEFAULT_C_MIX, SimpletSampler, WalkConfig, _check_positive

__all__ = [
    "DEFAULT_VC_CONSTANT",
    "failure_bound",
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


def _at_least(n: int, k: int, p: float, per: float, slack: float) -> tuple[float, float]:
    """Lower and upper bounds on P(Bin(n, p) >= k) / per.

    The terms are summed from k up until the rest, bounded by the geometric
    series of the last ratio (the ratios fall from term to term), is at most
    ``slack`` of the sum; the sum is the lower bound and the sum plus that
    series the upper.  With ``slack`` 1e-3 the two are within 0.1 %; with an
    infinite ``slack`` only the first term is computed.  The division by
    ``per`` is done in logs, so a tail below the float range divided by a
    small ``per`` does not underflow.
    """
    if k <= 0:
        return 1.0 / per, 1.0 / per
    if k > n or p <= 0.0:
        return 0.0, 0.0
    if k <= n * p:  # the ratios start at 1 or more
        return 0.0, 1.0 / per
    log_first = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p) - math.log(per)
    )
    odds = p / (1.0 - p)
    term, total = 1.0, 0.0  # in units of the first term
    while k < n:
        total += term
        ratio = (n - k) / (k + 1) * odds
        term *= ratio
        k += 1
        if term <= slack * (1.0 - ratio) * total:
            term /= 1.0 - ratio
            break
    else:
        total, term = total + term, 0.0
    return (
        math.exp(log_first + math.log(total)),
        min(math.exp(log_first + math.log(total + term)), 1.0 / per),
    )


_FLOOR = 1e-300  # failure_bound reports no less, so float underflow cannot hide a tail


def _refinements(n: int, epsilon: float, slack: float):
    """Bounds on sup g(p)/p over p in (0, 1], with g(p) the probability
    that |Bin(n, p)/n - p| > epsilon: after each split of a cell, the
    largest cell bound, an upper bound, and the largest lower bound on
    g(p)/p at a split point; the tails are bounded by :func:`_at_least` to
    ``slack``.

    Over a cell [p0, p1] the upper tail is at most its value at p1 from the
    threshold at p0, and the lower tail at most its value at p0 from the
    threshold at p1, both over p0.  Near 0, where the lower tail is empty,
    the upper tail from threshold a is at most C(n, a) p^a.  The cell with
    the largest bound is split at a point where a threshold steps, or else
    in half.  Thresholds are exact, with ``epsilon`` read as the decimal it
    prints as (0.3 is 3/10, en/ed): where one tail's threshold steps up at
    the point where the other's steps down, a float threshold can pair the
    worse side of both, which no single p does.  A point (x, s) stands for
    x / (n ed 2^s), and a step k/n -+ epsilon is (k ed -+ n en, 0).
    """
    eps = float(epsilon)
    mantissa, _, exponent = repr(eps).partition("e")
    whole, _, digits = mantissa.partition(".")
    en, ed = int(whole + digits), 10 ** (len(digits) - int(exponent or 0))

    def scaled(p, sign):  # n * (p + sign * eps) as an integer ratio
        return p[0] + sign * (n * en << p[1]), ed << p[1]

    def upper(p):  # the upper tail at p is X >= upper(p)
        top, bottom = scaled(p, 1)
        return top // bottom + 1

    def lower(p):  # the lower tail at p is X <= lower(p)
        top, bottom = scaled(p, -1)
        return -(-top // bottom) - 1

    def real(p):  # p as a float
        return p[0] / (n * ed << p[1])

    def point(p):  # a lower bound on g(p) / p
        p_ = real(p)
        return _at_least(n, upper(p), p_, p_, slack)[0] + _at_least(
            n, n - lower(p), 1.0 - p_, p_, slack
        )[0]

    def cell(p0, p1):  # an upper bound on g(p) / p over [p0, p1]
        a, b = upper(p0), lower(p1)
        if p0[0]:
            p0_ = real(p0)
            return _at_least(n, a, real(p1), p0_, slack)[1] + _at_least(
                n, n - b, 1.0 - p0_, p0_, slack
            )[1]
        if b >= 0:
            return math.inf
        log = math.lgamma(n + 1) - math.lgamma(a + 1) - math.lgamma(n - a + 1)
        log += (a - 1) * math.log(real(p1))
        return math.exp(log) if log < 700.0 else math.inf

    def split(p0, p1):  # a step in (p0, p1) near its middle, or else the middle
        mid = (real(p0) + real(p1)) / 2
        top, bottom = scaled(p1, 1)
        first, last = upper(p0), min(-(-top // bottom) - 1, n)
        steps = []
        if first <= last:  # the upper threshold steps at k/n - eps
            k = min(max(round(n * (mid + eps)), first), last)
            steps.append((k * ed - n * en, 0))
        top, bottom = scaled(p0, -1)
        first, last = max(top // bottom + 1, 0), lower(p1)
        if first <= last:  # the lower threshold steps at k/n + eps
            k = min(max(round(n * (mid - eps)), first), last)
            steps.append((k * ed + n * en, 0))
        if steps:
            return min(steps, key=lambda p: abs(real(p) - mid))
        s = max(p0[1], p1[1])
        return (p0[0] << s - p0[1]) + (p1[0] << s - p1[1]), s + 1

    best = 0.0  # the largest lower bound met
    cells = [(-math.inf, (0, 0), (n * ed, 0))]
    while True:
        bound, p0, p1 = heapq.heappop(cells)
        yield -bound, best
        s = split(p0, p1)
        best = max(best, point(s))
        heapq.heappush(cells, (-cell(p0, s), p0, s))
        heapq.heappush(cells, (-cell(s, p1), s, p1))


@functools.lru_cache(maxsize=256)
def failure_bound(n: int, epsilon: float) -> float:
    """An upper bound on the probability that ``n`` independent uniform
    samples give an SFD estimate more than ``epsilon`` from the SFD vector in
    L-infinity, whatever the number of types; at least 1e-300.

    A type of frequency p misses with probability g(p), the chance that
    |Bin(n, p)/n - p| > epsilon, so the union bound over frequencies summing
    to 1 gives at most sup g(p)/p over p in (0, 1].  This returns a bound on
    that supremum within 2 % of it, from exact binomial tails (see
    :func:`_refinements`), computed once per ``(n, epsilon)``.
    """
    if _index(n, "sample count") < 1:
        raise InputError(f"the sample count must be positive, got {n}")
    if not (0.0 < _real(epsilon, "epsilon") < 1.0):
        raise InputError(f"epsilon must lie in (0, 1), got {epsilon}")
    for bound, best in _refinements(n, epsilon, 1e-3):
        if bound <= max(1.02 * best, _FLOOR):
            # float rounding in lgamma and the term products stays far below this
            return max(bound, _FLOOR) * (1.0 + n * 1e-13)


@functools.lru_cache(maxsize=256)
def _certifies(n: int, epsilon: float, delta: float) -> bool:
    """``failure_bound(n, epsilon) <= delta``, settled by one-term tail
    bounds where they suffice: failure_bound is within 2 % of a supremum
    that they bound from above and below.  A count they leave open after
    16 sqrt(n) + 64 splits goes to failure_bound itself."""
    budget = 16 * math.isqrt(n) + 64
    for splits, (bound, best) in enumerate(_refinements(n, epsilon, math.inf)):
        if max(1.02 * bound, _FLOOR) * (1.0 + n * 1e-13) <= delta:
            return True
        if best > delta:
            return False
        if splits == budget:
            return failure_bound(n, epsilon) <= delta


def required_samples(epsilon: float, delta: float, c: float = DEFAULT_VC_CONSTANT) -> int:
    """Samples sufficient for an (epsilon, delta)-approximation of the SFD vector.

    The paper's count, ``ceil((c / epsilon^2) * (1 + ln(1/delta)))``, when
    ``failure_bound`` certifies it; otherwise a larger count that it does:
    the count doubles until it is certified, then bisection moves it back to
    a certified count just above one that is not.
    """
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
    uncertified, count = 0, math.ceil(raw)
    while not _certifies(count, epsilon, delta):
        uncertified, count = count, 2 * count
    while count - uncertified > 1 and uncertified:
        middle = (uncertified + count) // 2
        if not _certifies(middle, epsilon, delta):
            uncertified = middle
        else:
            count = middle
    return count


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
