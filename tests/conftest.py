import importlib
import random

import pytest

from simplets import GenSpec, build_complex, generate, generate_catalog
from simplets.complexes import SimplicialComplex


@pytest.fixture(scope="session")
def catalog3():
    return generate_catalog(3)


@pytest.fixture(scope="session")
def catalog4():
    return generate_catalog(4)


@pytest.fixture(scope="session")
def catalog5():
    return generate_catalog(5)


@pytest.fixture
def filled_triangle():
    return build_complex([{0, 1, 2}], 3)


@pytest.fixture
def empty_triangle():
    return build_complex([{0, 1}, {1, 2}, {0, 2}], 3)


@pytest.fixture
def path3():
    return build_complex([{0, 1}, {1, 2}], 3)


@pytest.fixture
def path4():
    return build_complex([{0, 1}, {1, 2}, {2, 3}], 4)


@pytest.fixture
def triangle_with_pendant():
    return build_complex([{0, 1, 2}, {2, 3}], 4)


@pytest.fixture
def handed(monkeypatch):
    """The candidates that ``generate`` and ``largest_connected_restriction``
    hand the constructor, in order, filled as each builds."""
    handed = []

    def recording_constructor(n, candidates):
        handed.extend(candidates)
        return SimplicialComplex(n, handed)

    # the package exports the function generate under the module's name
    module = importlib.import_module("simplets.generate")
    monkeypatch.setattr(module, "SimplicialComplex", recording_constructor)
    return handed


def random_complexes(count, max_n=12, seed=0, min_n=4):
    """Mixed flag/lm random complexes for property tests."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        model = "flag" if i % 2 == 0 else "lm"
        spec = GenSpec(
            model,
            rng.randint(min_n, max_n),
            rng.uniform(0.15, 0.7),
            p_tri=rng.random(),
            p_tet=rng.random(),
            seed=seed * 10_000 + i,
        )
        out.append(generate(spec))
    return out
