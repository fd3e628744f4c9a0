"""greedy_walk, the one builder of least walks, against the walks it
replaced stepped one step at a time (tests/oracles.py): exact walks on
random multigraphs, path walks and least-neighbour walks, at lengths well
past each horizon, so that the loop is repeated; then its cost and its
size guard."""

import random
import sys

import pytest

import oracles
from oddwalk import homset, parity
from oddwalk.equiv import path_exact_walk, path_walk_exists
from oddwalk.generators import (complete_graph, cycle_graph, disjoint_union,
                                petersen_graph, random_graph)
from oddwalk.parity import exact_walk
from oddwalk.walks import greedy_walk


def _random_graphs(seed: int, count: int):
    """Seeded random multigraphs of 1-10 vertices, every third beside an
    odd cycle, so that bipartite, odd, mixed and edgeless ones all occur."""
    rng = random.Random(seed)
    for i in range(count):
        g = random_graph(rng, rng.randint(1, 10), rng.random() * 0.6, multi=0.4)
        if i % 3 == 0:
            g = disjoint_union(g, cycle_graph(rng.choice((3, 5))))
        yield rng, g


def test_exact_walks_match_the_per_step_oracle():
    cases = found = 0
    for rng, g in _random_graphs(41, 150):
        for _ in range(10):
            start, end = rng.choice(g.vertices), rng.choice(g.vertices)
            length = rng.randint(0, 200)
            want = oracles.exact_walk_per_step(g, start, end, length)
            assert exact_walk(g, start, end, length) == want, (start, end, length)
            cases += 1
            found += want is not None
    assert cases == 1500 and found > 500


def test_path_walks_match_the_per_step_oracle():
    rng = random.Random(42)
    cases = 0
    while cases < 1500:
        n = rng.randint(2, 40)
        start, end, length = rng.randrange(n), rng.randrange(n), rng.randint(0, 200)
        if path_walk_exists(abs(start - end), length):
            assert (path_exact_walk(n, start, end, length)
                    == oracles.path_exact_walk_per_step(n, start, end, length)), \
                (n, start, end, length)
            cases += 1


def test_least_walks_match_the_per_step_oracle():
    cases = 0
    for rng, g in _random_graphs(43, 150):
        for v in filter(g.neighbors, g.vertices):
            length = rng.randint(0, 200)
            assert (homset._least_walk(g, v, length)
                    == oracles.least_walk_per_step(g, v, length)), (v, length)
            cases += 1
    assert cases > 500


def test_a_walk_costs_its_vertices_and_horizon_not_its_length(monkeypatch):
    calls = []
    monkeypatch.setattr(parity, "least_step", lambda *args, f=parity.least_step:
                        calls.append(args[1]) or f(*args))
    for g in (cycle_graph(5), petersen_graph(), complete_graph(4),
              disjoint_union(cycle_graph(4), cycle_graph(7))):
        for length in (1000, 1001, 10 ** 5, 10 ** 5 + 1):
            for end in g.vertices[:3]:
                calls.clear()
                walk = exact_walk(g, g.vertices[0], end, length)
                if length < 10 ** 5:
                    assert walk == oracles.exact_walk_per_step(
                        g, g.vertices[0], end, length)
                if walk is not None:
                    assert walk.length == length and walk.vertices[-1] == end
                    horizon = max(parity.parity_distances(g, [end]).values())
                    assert 0 < len(calls) <= 4 * len(g.vertices) + horizon
    # a rule that never reads the steps left loops from the first step
    steps = []

    def around(v, r):
        steps.append(r)
        return (v + 1) % 7, v

    vs, ws = greedy_walk(0, 10 ** 6, around, 0)
    assert vs == [i % 7 for i in range(10 ** 6 + 1)] and ws == vs[:-1]
    assert len(steps) <= 4 * 7


def test_a_walk_too_long_for_a_list_fails_before_its_first_step():
    def refuse(v, r):
        raise AssertionError("stepped")

    for length in (sys.maxsize, 10 ** 20):
        with pytest.raises(MemoryError):
            greedy_walk("a", length, refuse, 0)
    with pytest.raises(MemoryError):
        exact_walk(complete_graph(3), "k0", "k0", 10 ** 23 + 2)
    with pytest.raises(MemoryError):
        path_exact_walk(3, 0, 2, 10 ** 20 + 2)
