"""The names the benchmark under ``perfbench/`` reaches into the package by.

The benchmark wraps functions and reads sampler internals from outside the
package, so a refactor that renames one of them breaks it silently until the
benchmark runs.  These checks catch that in the default test run; they read
``perfbench/`` and never edit it.
"""

import ast
import importlib
from pathlib import Path

import simplets
from simplets import SimpletSampler, WalkConfig, build_complex, skeleton_diameter

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer

    assert tracer.TARGETS
    for module_name, path, _span, _kind in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"


def test_every_name_imported_from_the_package_exists():
    names = {
        alias.name
        for source in BENCH_DIR.glob("*.py")
        for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "simplets"
        for alias in node.names
    }
    assert "SimpletSampler" in names
    assert [name for name in sorted(names) if not hasattr(simplets, name)] == []


def test_sampler_internals_read_by_the_benchmark():
    complex_ = build_complex([{0, 1, 2}, {2, 3}], 4)
    assert isinstance(skeleton_diameter(complex_).value, int)
    sampler = SimpletSampler(complex_, WalkConfig(m=3, burn_in=5))
    assert sampler.burn_in == 5 and sampler.steps_taken == 0
    sampler._degree_cache.clear()
    assert sampler._degree((0, 1)) == 3
    assert (0, 1) in sampler._degree_cache
    sampler.sample()
    assert sampler.steps_taken == 5
