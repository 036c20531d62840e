import copy
import math
import pickle
import random
import sys
from collections import Counter
from decimal import Decimal
from itertools import combinations

import numpy as np
import pytest

from simplets import (
    GenSpec,
    InputError,
    IntegrityError,
    SimpletSampler,
    StructuralError,
    WalkConfig,
    approximate_sfd,
    build_complex,
    burn_in_steps,
    enumerate_connected_subsets,
    generate,
    largest_connected_restriction,
    state_degree,
    state_neighbors,
    transition_matrix,
)
from simplets import sampler as sampler_module

from . import oracles
from .conftest import random_complexes


def naive_neighbors(complex_, state, m):
    """Try every conceivable move and keep results that are valid states."""
    sset = set(state)
    out = set()
    universe = range(complex_.vertex_count)
    if len(sset) < m:
        for v in universe:
            if v not in sset and complex_.skeleton_connected_on(sset | {v}):
                out.add(tuple(sorted(sset | {v})))
    if len(sset) > 2:
        for u in sset:
            if complex_.skeleton_connected_on(sset - {u}):
                out.add(tuple(sorted(sset - {u})))
    for u in sset:
        for v in universe:
            if v not in sset and complex_.skeleton_connected_on((sset - {u}) | {v}):
                out.add(tuple(sorted((sset - {u}) | {v})))
    return sorted(out)


def small_test_complexes():
    """Connected complexes (n >= 3) whose state graphs stay small."""
    return [
        (build_complex([{0, 1, 2}], 3), 3),
        (build_complex([{0, 1}, {1, 2}, {0, 2}], 3), 3),
        (build_complex([{0, 1}, {1, 2}], 3), 3),
        (build_complex([{0, 1}, {1, 2}, {2, 3}], 4), 3),
        (build_complex([{0, 1}, {0, 2}, {0, 3}], 4), 3),
        (build_complex([{0, 1, 2}, {2, 3}], 4), 3),
        (build_complex([{0, 1}, {1, 2}, {2, 3}, {0, 3}], 4), 4),
        (build_complex([{0, 1, 2}, {1, 2, 3}], 4), 4),
        (build_complex([{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}], 5), 3),
        (build_complex([{0, 1, 2, 3}], 4), 4),
        (build_complex([{0, 1}, {0, 2}, {0, 3}, {0, 4}], 5), 3),
        (build_complex([{0, 1, 2}, {2, 3}, {3, 4}], 5), 4),
    ]


def test_config_validation():
    with pytest.raises(InputError):
        WalkConfig(m=2)
    with pytest.raises(InputError):
        WalkConfig(m=3, burn_in=0)
    with pytest.raises(InputError):
        WalkConfig(m=3, c_mix=0.0)


@pytest.mark.parametrize("m", [3.5, 4.0, True, "4"])
def test_config_m_must_be_an_int(m):
    with pytest.raises(InputError):
        WalkConfig(m=m)


@pytest.mark.parametrize("burn_in", [2.5, 3.0, True, "5"])
def test_config_burn_in_must_be_an_int(burn_in):
    with pytest.raises(InputError):
        WalkConfig(m=3, burn_in=burn_in)


@pytest.mark.parametrize("c_mix", [math.nan, math.inf, -math.inf])
def test_config_c_mix_must_be_finite(c_mix, path4):
    with pytest.raises(InputError):
        WalkConfig(m=3, c_mix=c_mix)
    with pytest.raises(InputError):
        burn_in_steps(path4, c_mix)


@pytest.mark.parametrize("c_mix", ["1", None, b"1", Decimal("1")])
def test_config_c_mix_must_be_a_number(c_mix, path4):
    with pytest.raises(InputError, match="non-real c_mix"):
        WalkConfig(m=3, c_mix=c_mix)
    with pytest.raises(InputError, match="non-real c_mix"):
        burn_in_steps(path4, c_mix)


@pytest.mark.parametrize("seed", [None, [1], 1.5])
def test_config_seed_must_be_an_int(seed):
    # None would seed from OS entropy, [1] would raise TypeError in the walk
    with pytest.raises(InputError, match="non-integer rng_seed"):
        WalkConfig(m=3, rng_seed=seed)


def test_integer_seeds_give_the_same_stream():
    complex_ = largest_connected_restriction(generate(GenSpec("flag", 12, 0.4, seed=3))).complex
    stream = [(1, 6, 11), (0, 4, 5, 6), (0, 2, 6, 11), (2, 3, 4, 6), (0, 4, 6, 11)]
    for seed in (7, -7, np.int64(7)):
        config = WalkConfig(m=4, burn_in=20, rng_seed=seed)
        assert type(config.rng_seed) is int
        sampler = SimpletSampler(complex_, config)
        assert [sampler.sample().vertices for _ in range(5)] == stream


def test_burn_in_that_overflows_is_rejected(path4):
    # finite c_mix, infinite bound: an InputError, not an OverflowError
    with pytest.raises(InputError):
        burn_in_steps(path4, 1e308)
    with pytest.raises(InputError):
        SimpletSampler(path4, WalkConfig(m=3, c_mix=1e308))


def test_neighbors_filled_triangle(filled_triangle):
    assert state_neighbors(filled_triangle, (0, 1), 3) == [(0, 1, 2), (0, 2), (1, 2)]
    assert state_neighbors(filled_triangle, (0, 1, 2), 3) == [(0, 1), (0, 2), (1, 2)]
    assert state_degree(filled_triangle, (0, 1), 3) == 3


def test_neighbors_path(path3):
    assert state_neighbors(path3, (0, 1, 2), 3) == [(0, 1), (1, 2)]
    assert state_neighbors(path3, (0, 1), 3) == [(0, 1, 2), (1, 2)]
    assert state_degree(path3, (0, 1), 3) == 2


def test_neighbors_match_brute_force():
    rng = random.Random(17)
    for complex_ in random_complexes(12, max_n=10, seed=300):
        m = rng.choice([3, 4])
        states = list(enumerate_connected_subsets(complex_, m))
        for state in rng.sample(states, min(25, len(states))):
            expected = naive_neighbors(complex_, state, m)
            assert state_neighbors(complex_, state, m) == expected
            assert state_degree(complex_, state, m) == len(expected)


def test_neighbor_symmetry():
    for complex_, m in small_test_complexes():
        states = list(enumerate_connected_subsets(complex_, m))
        neighbor_sets = {s: set(state_neighbors(complex_, s, m)) for s in states}
        for s in states:
            for t in neighbor_sets[s]:
                assert s in neighbor_sets[t]


def test_degree_bound():
    for complex_, m in small_test_complexes():
        delta = complex_.max_degree
        bound = m * delta + m + m * (m - 1) * delta
        for s in enumerate_connected_subsets(complex_, m):
            k = len(s)
            k_bound = k * delta + k + k * (k - 1) * delta
            d = state_degree(complex_, s, m)
            assert d <= k_bound <= bound


def test_transition_matrix_properties():
    complexes = small_test_complexes()
    assert len(complexes) >= 10
    for complex_, m in complexes:
        states, matrix = transition_matrix(complex_, m)
        assert len(states) <= 60
        assert np.all(np.abs(matrix.sum(axis=1) - 1.0) <= 1e-12)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(matrix >= 0)
        # state graph connectivity via BFS over positive off-diagonals
        count = len(states)
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(count):
                if j != i and matrix[i, j] > 0 and j not in seen:
                    seen.add(j)
                    frontier.append(j)
        assert len(seen) == count
        # power iteration from a point mass converges to uniform
        dist = np.zeros(count)
        dist[0] = 1.0
        uniform = np.full(count, 1.0 / count)
        for _ in range(200_000):
            nxt = dist @ matrix
            if np.max(np.abs(nxt - uniform)) <= 1e-12:
                dist = nxt
                break
            dist = nxt
        assert np.max(np.abs(dist - uniform)) <= 1e-9


def test_aperiodicity_triangle_witness():
    for complex_, m in small_test_complexes():
        found = False
        for u in range(complex_.vertex_count):
            nbrs = sorted(complex_.adjacency[u])
            for v, w in combinations(nbrs, 2):
                tri = tuple(sorted((u, v, w)))
                uv = tuple(sorted((u, v)))
                uw = tuple(sorted((u, w)))
                n_uv = set(state_neighbors(complex_, uv, m))
                n_uw = set(state_neighbors(complex_, uw, m))
                if tri in n_uv and tri in n_uw and uw in n_uv and uv in n_uw:
                    found = True
                    break
            if found:
                break
        assert found, f"no aperiodicity triangle in {complex_}"


def test_transition_probability_value(filled_triangle):
    states, matrix = transition_matrix(filled_triangle, 3)
    i = states.index((0, 1))
    j = states.index((0, 1, 2))
    assert matrix[i, j] == pytest.approx(1.0 / 3.0, abs=0)
    assert matrix[i, i] == pytest.approx(0.0, abs=1e-15)


def test_sampler_step_realizes_matrix(filled_triangle):
    # With a burn-in of one, each sample is a uniform edge followed by one step
    # of the production walk, so its law is the edge-averaged row of T.
    sampler = SimpletSampler(filled_triangle, WalkConfig(m=3, burn_in=1, rng_seed=3))
    draws = 30_000
    tallies = Counter(sampler.sample().vertices for _ in range(draws))
    states, matrix = transition_matrix(filled_triangle, 3)
    edges = filled_triangle.edges()
    expected = sum(matrix[states.index(e)] for e in edges) / len(edges)
    assert set(tallies) <= set(states)
    for state, probability in zip(states, expected):
        assert tallies[state] / draws == pytest.approx(probability, abs=0.02)


def test_burn_in_formula(filled_triangle, path4):
    assert burn_in_steps(filled_triangle, 1.0) == 3
    assert burn_in_steps(path4, 1.0) == 25
    # doubling the constant doubles the raw value before the ceiling
    raw = math.log(4) * 2 * 9
    assert burn_in_steps(path4, 2.0) == math.ceil(2 * raw)
    assert burn_in_steps(filled_triangle, 1e-9) == 1


@pytest.mark.parametrize("diameter, message", [
    (-3, "nonnegative"), ("3", "non-integer diameter"), (1.5, "non-integer diameter"),
])
def test_burn_in_rejects_a_diameter_that_is_not_a_nonnegative_integer(path4, diameter, message):
    with pytest.raises(InputError, match=message):
        burn_in_steps(path4, 1.0, diameter=diameter)


def test_burn_in_takes_the_diameter_as_an_integer(path4):
    assert burn_in_steps(path4, 1.0, diameter=np.int64(3)) == burn_in_steps(path4, 1.0) == 25
    assert burn_in_steps(path4, 1.0, diameter=0) == 1


def test_burn_in_disconnected():
    with pytest.raises(StructuralError):
        burn_in_steps(build_complex([{0, 1}, {2, 3}], 4), 1.0)


def test_sampler_preconditions(filled_triangle):
    with pytest.raises(StructuralError):
        SimpletSampler(build_complex([{0, 1}], 2), WalkConfig(m=3))
    with pytest.raises(StructuralError):
        SimpletSampler(build_complex([{0, 1}, {2, 3}], 4), WalkConfig(m=3))
    # m < 3 is rejected at the config level
    with pytest.raises(InputError):
        WalkConfig(m=2)


def test_deterministic_replay(filled_triangle):
    config = WalkConfig(m=3, rng_seed=99)
    a = SimpletSampler(filled_triangle, config)
    b = SimpletSampler(filled_triangle, config)
    seq_a = [a.sample().vertices for _ in range(50)]
    seq_b = [b.sample().vertices for _ in range(50)]
    assert seq_a == seq_b


def test_seeded_stream_is_pinned(triangle_with_pendant, catalog3):
    # Any change to the seeded output stream shows up here; such a change
    # must be deliberate and recorded.
    sampler = SimpletSampler(triangle_with_pendant, WalkConfig(m=3, rng_seed=4))
    assert [sampler.sample().vertices for _ in range(20)] == [
        (2, 3), (2, 3), (2, 3), (0, 1), (2, 3), (0, 1, 2), (0, 2), (1, 2, 3), (0, 2), (1, 2),
        (0, 2), (0, 1, 2), (0, 1, 2), (0, 2), (0, 1, 2), (0, 2), (0, 1, 2), (1, 2, 3), (2, 3),
        (0, 1),
    ]
    sfd = approximate_sfd(triangle_with_pendant, catalog3, 0.2, 0.1, 0.5, seed=7)
    assert sfd.counts == (25, 11, 0, 6)
    assert sfd.frequencies == (
        0.5952380952380952, 0.2619047619047619, 0.0, 0.14285714285714285,
    )


def _flag40():
    return largest_connected_restriction(generate(GenSpec("flag", 40, 0.15, seed=3))).complex


def test_seeded_stream_is_pinned_on_a_larger_complex():
    # Forty vertices give the start edge and the moves enough choices that
    # an order change anywhere in the walk moves this stream.
    sampler = SimpletSampler(_flag40(), WalkConfig(m=4, rng_seed=11))
    assert [sampler.sample().vertices for _ in range(10)] == [
        (2, 3, 16, 17), (3, 9, 14, 35), (0, 6, 7, 33), (6, 19, 20, 38), (7, 20, 23, 26),
        (1, 20, 28, 38), (10, 20, 34), (16, 19, 20, 21), (8, 26, 27), (6, 11, 20, 34),
    ]


def test_seeded_output_survives_pickling_and_copying(catalog3):
    # Pool workers get the complex pickled; the seeded output must not
    # depend on the iteration order of a copy's adjacency sets.
    spec = GenSpec("lm", 20, 0.3, p_tri=0.7, p_tet=0.7, seed=0)
    complex_ = largest_connected_restriction(generate(spec)).complex
    copies = [pickle.loads(pickle.dumps(complex_)), copy.deepcopy(complex_)]
    expected = approximate_sfd(complex_, catalog3, 0.1, 0.1, 0.5, seed=0)
    for other in copies:
        assert other.edges() == complex_.edges()
        assert approximate_sfd(other, catalog3, 0.1, 0.1, 0.5, seed=0) == expected


def test_caches_stay_within_cap_without_changing_the_stream(monkeypatch):
    # The one memo: capped, and the stream does not depend on the cap.
    complex_ = _flag40()
    config = WalkConfig(m=4, burn_in=300, rng_seed=5)
    uncapped = SimpletSampler(complex_, config)
    expected = [uncapped.sample().vertices for _ in range(30)]
    assert len(uncapped._degree_cache) > 50
    monkeypatch.setattr(sampler_module, "_CACHE_CAP", 50)
    capped = SimpletSampler(complex_, config)
    assert [capped.sample().vertices for _ in range(30)] == expected
    assert len(capped._degree_cache) == 50
    assert any(type(entry) is tuple for entry in capped._degree_cache.values())


def test_expansions_are_memo_misses_and_entered_memo_hits(monkeypatch):
    # The memo keeps degrees: a proposal is expanded when it is not memoised
    # yet, and a memoised one again when the walk first enters it, which
    # replaces its degree by that expansion for later visits and chain starts.
    expansions, currents, proposals = [], [], []
    expand, neighbor = sampler_module._expand, sampler_module._neighbor

    def counted_expand(adj, bits, state, m):
        expansions.append(state)
        return expand(adj, bits, state, m)

    def recorded_neighbor(state, expansion, index):
        currents.append(state)
        proposals.append(neighbor(state, expansion, index))
        return proposals[-1]

    monkeypatch.setattr(sampler_module, "_expand", counted_expand)
    monkeypatch.setattr(sampler_module, "_neighbor", recorded_neighbor)
    complex_ = _flag40()
    sampler = SimpletSampler(complex_, WalkConfig(m=4, burn_in=300, rng_seed=5))
    seen, entered, tally, fresh_starts = set(), set(), Counter(), 0
    for _ in range(30):
        kept, first = set(entered), len(proposals)
        final = sampler.sample().vertices
        fresh_starts += currents[first] not in kept
        # the walk's state after each step: the next step's current state,
        # and the sample after the last step
        for proposal, after in zip(proposals[first:], currents[first + 1:] + [final]):
            if proposal not in seen:
                seen.add(proposal)
                tally["miss"] += 1
            elif after == proposal:
                tally["accepted hit"] += 1
                entered.add(proposal)
    assert len(proposals) == sampler.steps_taken == 30 * 300
    memo = sampler._degree_cache
    assert len(memo) < sampler_module._CACHE_CAP
    assert tally["accepted hit"] > len(entered) > 0
    # one expansion per chain start without a kept one, per memo miss and
    # per memo hit entered
    assert len(expansions) == fresh_starts + tally["miss"] + len(entered)
    assert 0 < fresh_starts < 30  # both kinds of chain start occur
    assert set(memo) == seen
    assert {state for state, entry in memo.items() if type(entry) is tuple} == entered
    assert all(type(entry) is int for state, entry in memo.items() if state not in entered)
    for state in sorted(seen)[:50]:
        assert sampler._degree(state) == state_degree(complex_, state, 4)


def test_sink_state_is_an_integrity_error(monkeypatch, filled_triangle):
    expand = sampler_module._expand

    def sink(adj, bits, state, m):  # every state reports degree 0
        return (0,) + expand(adj, bits, state, m)[1:]

    monkeypatch.setattr(sampler_module, "_expand", sink)
    with pytest.raises(IntegrityError):
        SimpletSampler(filled_triangle, WalkConfig(m=3, burn_in=4)).sample()


def _walk_zoo(model):
    spec = GenSpec(model, 60 if model == "flag" else 30, 0.1 if model == "flag" else 0.25,
                   0.7, 0.7, seed=2)
    return largest_connected_restriction(generate(spec)).complex


@pytest.mark.parametrize("cap", [None, 50])
@pytest.mark.parametrize("model", ["flag", "lm"])
def test_sampler_matches_reference_walk(model, cap, monkeypatch):
    # The seeded stream of the memoised walk equals that of the plain
    # Metropolis-Hastings walk over the segment oracle's moves, also when
    # the memo fills up.
    if cap is not None:
        monkeypatch.setattr(sampler_module, "_CACHE_CAP", cap)
    complex_ = _walk_zoo(model)
    for m in range(3, 7):
        sampler = SimpletSampler(complex_, WalkConfig(m=m, burn_in=200, rng_seed=m))
        got = [sampler.sample().vertices for _ in range(8)]
        assert got == oracles.reference_walk(complex_, m, 200, m, 8), m


@pytest.mark.parametrize("model", ["flag", "lm"])
def test_move_order_matches_the_segment_oracle(model):
    # The seeded stream depends on the order of the moves, not only on their
    # set: the kernel must decode move indices exactly as the segment oracle
    # orders its proposals.
    spec = GenSpec(model, 60 if model == "flag" else 30, 0.1 if model == "flag" else 0.25,
                   0.7, 0.7, seed=2)
    complex_ = largest_connected_restriction(generate(spec)).complex
    adj, bits = complex_.adjacency, complex_._adjacency_bits()
    rng = random.Random(11)
    for m in range(3, 7):
        for _ in range(150):
            state = [rng.randrange(complex_.vertex_count)]
            for _ in range(rng.randint(1, m - 1)):
                state.append(rng.choice(sorted(set().union(*(adj[v] for v in state)) - set(state))))
            state = tuple(sorted(state))
            expansion = sampler_module._expand(adj, bits, state, m)
            moves = [sampler_module._neighbor(state, expansion, i) for i in range(expansion[0])]
            assert moves == oracles.segment_moves(adj, state, m), (state, m)


def _connected_shapes(k):
    """``(edges, nb)`` of every connected labelled graph on k positions: its
    edge flags in ``combinations`` order and its neighbour bitmasks."""
    pairs = list(combinations(range(k), 2))
    for edges in range(1 << len(pairs)):
        nb = [0] * k
        for bit, (i, j) in enumerate(pairs):
            if edges >> bit & 1:
                nb[i] |= 1 << j
                nb[j] |= 1 << i
        if oracles.bit_connected(nb, (1 << k) - 1):
            yield edges, nb


def test_shape_matches_brute_force_connectivity():
    # Every connected labelled graph on k = 2..5 positions and every nonzero
    # attach mask: removable positions, and the positions the new vertex can
    # replace, read from the cut functions on 0/1 rows and elsewhere from the
    # OR of the other rows, by exhaustive check.
    for k in range(2, 6):
        full = (1 << k) - 1
        rest = [full & ~(1 << u) for u in range(k)]
        for edges, nb in _connected_shapes(k):
            removable, cuts = sampler_module._shape(k, edges)
            assert removable == tuple(
                u for u in range(k) if k > 2 and oracles.bit_connected(nb, rest[u])
            )
            for attach in range(1, full + 1):
                rows = [attach >> i & 1 for i in range(k)]
                swaps = [any(rows[:u] + rows[u + 1:]) for u in range(k)]
                for cut in cuts:
                    cut(swaps, *rows)
                # w joins the state as position k; it may replace u when
                # the state without u, with w added, is connected.
                grown = nb + [attach]
                for i in range(k):
                    if attach >> i & 1:
                        grown[i] = nb[i] | 1 << k
                expected = [u for u in range(k) if oracles.bit_connected(grown, rest[u] | 1 << k)]
                assert [u for u in range(k) if swaps[u]] == expected


def _deep_size(obj, seen):
    """Bytes of ``obj`` and of the tuples and lists it reaches, each object
    counted once over ``seen``; the compiled cut functions, a bounded shared
    family, are not counted."""
    if id(obj) in seen or callable(obj):
        return 0
    seen.add(id(obj))
    kids = obj if isinstance(obj, (tuple, list)) else ()
    return sys.getsizeof(obj) + sum(_deep_size(kid, seen) for kid in kids)


def _m6_flag_shapes():
    """``(k, key, entry)`` of every shape-table entry of the kernels after a
    seeded m = 6 walk on the flag zoo complex."""
    sampler_module._kernel.cache_clear()
    sampler = SimpletSampler(_walk_zoo("flag"), WalkConfig(m=6, burn_in=300, rng_seed=1))
    for _ in range(5):
        sampler.sample()
    return [
        (k, key, entry)
        for k in range(2, 7)
        for key, entry in sampler_module._kernel(k, 6).__globals__["shapes"].items()
    ]


def test_shape_tables_hold_only_removable_and_cut_pairs():
    # A shape is stored as the pair (removable, cuts), and cuts holds, for
    # each position whose removal splits the state, the cached cut function
    # of that position and partition; the parts that build it are not kept.
    shapes = _m6_flag_shapes()
    assert len(shapes) > 500
    for k, key, entry in shapes:
        assert type(entry) is tuple and len(entry) == 2
        removable, cuts = entry
        assert type(removable) is tuple and all(type(u) is int for u in removable)
        assert type(cuts) is tuple
        adj = [set() for _ in range(k)]
        for bit, (i, j) in enumerate(combinations(range(k), 2)):
            if key >> bit & 1:
                adj[i].add(j)
                adj[j].add(i)
        expected = []
        for u in range(k):
            parts = oracles._components_on(adj, set(range(k)) - {u})
            if len(parts) > 1:
                parts = tuple(sorted(tuple(sorted(part)) for part in parts))
                expected.append(sampler_module._cut(k, u, parts))
        assert len(cuts) == len(expected)
        assert all(cut is want for cut, want in zip(cuts, expected)), (k, key)


def test_walk_shapes_hold_no_pairs_and_stay_small():
    # No shape stores a (position, function) pair: each cut function sets its
    # own position.  On this walk a shape takes about 120 bytes, about 270
    # with a pair per cut position.
    seen, size, shapes = set(), 0, _m6_flag_shapes()
    for _k, _key, (removable, cuts) in shapes:
        assert not any(type(cut) is tuple for cut in cuts)
        size += _deep_size((removable, cuts), seen)
    assert size / len(shapes) < 180, size / len(shapes)


def test_kernel_matches_the_segment_oracle_on_every_shape():
    # Every connected labelled graph on k = 2..5 positions as the state
    # (0, ..., k-1), in a host with one outside vertex per nonempty attach
    # mask: each cut-position override, removal and add meets the oracle.
    for k in range(2, 6):
        full = (1 << k) - 1
        state = tuple(range(k))
        for edges, nb in _connected_shapes(k):
            facets = [{i, j} for i, j in combinations(range(k), 2) if nb[i] >> j & 1]
            for attach in range(1, full + 1):
                w = k - 1 + attach
                facets += [{i, w} for i in range(k) if attach >> i & 1]
            host = build_complex(facets, k + full)
            adj, bits = host.adjacency, host._adjacency_bits()
            for m in (k, k + 1):
                expansion = sampler_module._expand(adj, bits, state, m)
                moves = [sampler_module._neighbor(state, expansion, i) for i in range(expansion[0])]
                assert moves == oracles.segment_moves(adj, state, m), (k, edges, m)


def test_kernels_stay_one_per_state_size():
    # The kernel is generated per state size and fills its shape table on
    # demand, so a walk with many shapes compiles no more functions, and
    # a large m allocates nothing per possible shape.
    sampler_module._kernel.cache_clear()
    sampler = SimpletSampler(_walk_zoo("flag"), WalkConfig(m=6, burn_in=300, rng_seed=1))
    for _ in range(5):
        sampler.sample()
    assert sampler_module._kernel.cache_info().currsize <= 6 - 1
    path12 = build_complex([{v, v + 1} for v in range(11)], 12)
    assert len(SimpletSampler(path12, WalkConfig(m=9, burn_in=50)).sample().vertices) <= 9
    state = tuple(range(2, 11))  # 36 pairs: a 2**36-slot key table would not fit
    assert state_degree(path12, state, 9) == len(naive_neighbors(path12, state, 9)) == 4


def _set_partitions(items):
    """Every partition of ``items`` into nonempty lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def test_cut_functions_and_their_bound():
    # Every way a position u can be a cut position of a k-vertex state,
    # k = 3..6: the other positions split into at least two parts, listed
    # as _shape lists them.  The generated function sets swaps[u], and no
    # other slot, to the AND over the parts of each part's OR, on rows many
    # machine words up.
    rng = random.Random(22)
    count = 0
    for k in range(3, 7):
        for u in range(k):
            others = [i for i in range(k) if i != u]
            for partition in _set_partitions(others):
                if len(partition) < 2:
                    continue
                parts = tuple(sorted(tuple(sorted(part)) for part in partition))
                cut = sampler_module._cut(k, u, parts)
                for _ in range(3):
                    rows = [rng.getrandbits(2000) << 1000 for _ in range(k)]
                    expected = -1
                    for part in parts:
                        reach = 0
                        for i in part:
                            reach |= rows[i]
                        expected &= reach
                    before = [rng.getrandbits(64) for _ in range(k)]
                    swaps = list(before)
                    assert cut(swaps, *rows) is None
                    assert swaps == before[:u] + [expected] + before[u + 1:], (k, u, parts)
                count += 1
    assert count == sum(k * (b - 1) for k, b in [(3, 2), (4, 5), (5, 15), (6, 52)]) == 395


def test_an_m6_walk_compiles_at_most_the_bounded_cut_family():
    # Cut functions are compiled per (state size, partition), never per
    # shape: an m = 6 walk meets thousands of shapes but at most 395
    # partitions, and still one kernel per state size.
    sampler_module._kernel.cache_clear()
    sampler_module._cut.cache_clear()
    sampler = SimpletSampler(_walk_zoo("flag"), WalkConfig(m=6, burn_in=300, rng_seed=1))
    for _ in range(5):
        sampler.sample()
    assert 0 < sampler_module._cut.cache_info().currsize <= 395
    assert sampler_module._kernel.cache_info().currsize <= 6 - 1


def test_swap_counts_on_a_wide_star():
    # A star: from a state of the centre and leaves, every other leaf can be
    # added and can replace a leaf, so the masks span many machine words.
    leaves = 1100
    star = build_complex([{0, v} for v in range(1, leaves + 1)], leaves + 1)
    for state, degree in [((0, 1), 2 * (leaves - 1)), ((0, 1, 2), 2 + 2 * (leaves - 2))]:
        assert state_degree(star, state, 3) == degree
        expansion = sampler_module._expand(star.adjacency, star._adjacency_bits(), state, 3)
        moves = [sampler_module._neighbor(state, expansion, i) for i in range(expansion[0])]
        assert moves == oracles.segment_moves(star.adjacency, state, 3)


def _flag2000():
    return largest_connected_restriction(generate(GenSpec("flag", 2000, 0.004, seed=1))).complex


def test_multi_word_bitsets_match_brute_force():
    # A root past id 1000 puts the state's bits many machine words up.
    complex_ = _flag2000()
    assert complex_.vertex_count >= 1900
    adj = complex_.adjacency
    rng = random.Random(5)
    for m in (3, 4, 5):
        for _ in range(4):
            state = [rng.randrange(1000, complex_.vertex_count)]
            for _ in range(m - 1 - rng.randrange(2)):
                state.append(rng.choice(sorted(set().union(*(adj[v] for v in state)) - set(state))))
            expected = naive_neighbors(complex_, state, m)
            assert state_neighbors(complex_, state, m) == expected
            assert state_degree(complex_, state, m) == len(expected)


def test_sampler_matches_reference_walk_on_a_large_host():
    complex_ = _flag2000()
    sampler = SimpletSampler(complex_, WalkConfig(m=4, burn_in=150, rng_seed=3))
    assert sampler._bits is complex_._adjacency_bits()  # one table per complex
    got = [sampler.sample().vertices for _ in range(6)]
    assert got == oracles.reference_walk(complex_, 4, 150, 3, 6)


@pytest.mark.parametrize("state", [(0, 9), (1,), (0, 2), (0, 1, 2, 3), (1, 1, 2)])
def test_state_queries_reject_non_states(state):
    # out of range, too small, disconnected, too large, repeated vertex
    path = build_complex([{0, 1}, {1, 2}, {2, 3}], 4)
    with pytest.raises(InputError):
        state_degree(path, state, 3)
    with pytest.raises(InputError):
        state_neighbors(path, state, 3)


def test_samples_are_valid_states():
    for complex_, m in small_test_complexes()[:6]:
        sampler = SimpletSampler(complex_, WalkConfig(m=m, rng_seed=8))
        valid = set(enumerate_connected_subsets(complex_, m))
        for _ in range(200):
            assert sampler.sample().vertices in valid


def test_uniformity_smoke(filled_triangle):
    sampler = SimpletSampler(filled_triangle, WalkConfig(m=3, c_mix=4.0, rng_seed=12))
    draws = 12_000
    tallies = Counter(sampler.sample().vertices for _ in range(draws))
    assert set(tallies) == {(0, 1), (0, 2), (1, 2), (0, 1, 2)}
    for count in tallies.values():
        assert abs(count / draws - 0.25) <= 0.02


def test_star_has_six_uniform_states():
    star = build_complex([{0, 1}, {0, 2}, {0, 3}], 4)
    states = sorted(enumerate_connected_subsets(star, 3))
    assert len(states) == 6
    sampler = SimpletSampler(star, WalkConfig(m=3, c_mix=3.0, rng_seed=21))
    draws = 18_000
    tallies = Counter(sampler.sample().vertices for _ in range(draws))
    for state in states:
        assert abs(tallies[state] / draws - 1 / 6) <= 0.02


def test_burn_in_beyond_any_walk_is_rejected(filled_triangle):
    # finite, but more steps than a range can hold
    with pytest.raises(InputError, match="more than any walk can take"):
        burn_in_steps(filled_triangle, 1e300)
