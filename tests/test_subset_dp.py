"""The one subset dynamic program against the two it replaced.

reference_exact_small_tsp and reference_brute_cbo_small are the former
planner.exact_small_tsp (a pass over every DP entry for each mask) and
cbo.brute_cbo_small (its own frontier DP). Both now run on
planner.subset_layers and must give the same numbers exactly, not
approximately.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstsp_lab import bounds as bnd
from dstsp_lab import cbo
from dstsp_lab import dynamics as dyn
from dstsp_lab import planner

E2 = dyn.make_model({"model": "euclidean2"})
RS = dyn.make_model({"model": "reeds_shepp"})
SCALED = dyn.make_model({"model": "scaled_euclidean2", "sigma": 2.0})

UNIT = bnd.GridField((0.0, 0.0), 1.0 / 64, np.ones((64, 64)))
_STEP = np.ones((64, 64))
_STEP[32:, :] = 3.0
STEP = bnd.GridField((0.0, 0.0), 1.0 / 64, _STEP)


def reference_exact_small_tsp(model, targets, headings=1):
    n = len(targets)
    if n == 0:
        return 0.0
    with_heading = model.config_dim > model.workspace_dim
    h_count = headings if with_heading else 1
    angles = [2.0 * math.pi * k / h_count for k in range(h_count)]

    def config(i, h):
        p = tuple(float(v) for v in targets[i])
        return p + (angles[h],) if with_heading else p

    speed = dyn.closed_form_speed(model)
    cost = {}
    for i in range(n):
        for hi in range(h_count):
            for j in range(n):
                if i == j:
                    continue
                for hj in range(h_count):
                    cost[i, hi, j, hj] = planner._steer_time(
                        model, config(i, hi), config(j, hj), speed)

    dp = {}
    for i in range(n):
        for h in range(h_count):
            dp[1 << i, i, h] = 0.0
    full = (1 << n) - 1
    for mask in range(1, full + 1):
        for (m0, last, h0), base in [((m, l, h), v)
                                     for (m, l, h), v in dp.items()
                                     if m == mask]:
            for j in range(n):
                if mask & (1 << j):
                    continue
                nm = mask | (1 << j)
                for hj in range(h_count):
                    cand = base + cost[last, h0, j, hj]
                    key = (nm, j, hj)
                    if cand < dp.get(key, math.inf):
                        dp[key] = cand
    return min(v for (m, _, _), v in dp.items() if m == full)


def reference_brute_cbo_small(model, cost_field, targets, budget):
    n = len(targets)
    if n == 0:
        return 0
    cost = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                cost[i, j] = cbo._leg_cost(model, targets[i], targets[j],
                                           cost_field)
    dp = {(1 << i, i): 0.0 for i in range(n)}
    best = 1
    frontier = dict(dp)
    while frontier:
        new = {}
        for (mask, last), spent in frontier.items():
            for j in range(n):
                if mask & (1 << j):
                    continue
                c = spent + cost[last, j]
                if c > budget + 1e-12:
                    continue
                key = (mask | (1 << j), j)
                if c < new.get(key, math.inf) and c < dp.get(key, math.inf):
                    new[key] = c
        for key, val in new.items():
            if val < dp.get(key, math.inf):
                dp[key] = val
                best = max(best, bin(key[0]).count("1"))
        frontier = new
    return best


def _points(max_size):
    coord = st.floats(0.02, 0.98, allow_nan=False)
    return st.lists(st.tuples(coord, coord), min_size=1, max_size=max_size)


def test_layers_hold_every_subset_and_last_node():
    owner = [0, 0, 1, 2]   # target 0 has two nodes
    cost = [[0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 0.5, 4.0],
            [1.0, 0.5, 0.0, 1.0], [2.0, 4.0, 1.0, 0.0]]
    layers = planner.subset_layers(owner, cost)
    assert [len(layer) for layer in layers] == [4, 8, 4]
    assert layers[1][0b011, 2] == 0.5
    assert layers[2][0b111, 3] == 1.5
    assert min(layers[-1].values()) == 1.5
    budgeted = planner.subset_layers(owner, cost, 0.75)
    assert len(budgeted) == 2
    assert set(budgeted[1]) == {(0b011, 1), (0b011, 2)}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["euclidean2", "scaled", "reeds_shepp"]),
       _points(8), st.integers(1, 4))
def test_exact_small_tsp_matches_reference(name, pts, headings):
    model = {"euclidean2": E2, "scaled": SCALED, "reeds_shepp": RS}[name]
    assert planner.exact_small_tsp(model, pts, headings) == \
        reference_exact_small_tsp(model, pts, headings)


@settings(max_examples=25, deadline=None)
@given(_points(8), st.floats(0.1, 3.0), st.booleans())
def test_brute_cbo_small_matches_reference(pts, budget, step):
    field = STEP if step else UNIT
    assert cbo.brute_cbo_small(E2, field, pts, budget) == \
        reference_brute_cbo_small(E2, field, pts, budget)


@pytest.mark.parametrize("seed", range(5))
def test_exact_small_tsp_matches_reference_on_spread_layouts(seed):
    # 8 targets, one per cell of a 4 x 2 grid over the unit square
    rng = np.random.default_rng(seed)
    corner = np.array([(i / 4, j / 2) for i in range(4) for j in range(2)])
    pts = [tuple(p) for p in corner + rng.random((8, 2)) * (0.25, 0.5)]
    assert planner.exact_small_tsp(E2, pts) == \
        reference_exact_small_tsp(E2, pts)
    assert planner.exact_small_tsp(RS, pts, 4) == \
        reference_exact_small_tsp(RS, pts, 4)
