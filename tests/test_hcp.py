"""Tree collection: cost rules, constructive solver vs exhaustive oracle."""

import math
import random
import re
from fractions import Fraction

import pytest

from dstsp_lab import hcp
from dstsp_lab.errors import HypothesisViolated, InvalidPlan, SearchSpaceTooLarge


def params(b, s):
    return hcp.HcpParams(branch_factor=b, scale=s)


def inst(b, s, targets):
    return hcp.HcpInstance(params(b, s), tuple(tuple(t) for t in targets))


# ---------------------------------------------------------------- plan cost

def test_collect_at_root_costs_two():
    i = inst(2, 2, [[0]])
    assert hcp.plan_cost([("collect", 0)], i) == 2.0


def test_down_collect_up_costs_three():
    i = inst(2, 2, [[0]])
    plan = [("down", 0), ("collect", 0), ("up",)]
    assert hcp.plan_cost(plan, i) == 3.0


def test_two_level_collect_s3():
    # 1 + 1/3 + 2/9 + 1/3 + 1 = 26/9, frozen by hand
    i = inst(3, 3, [[1, 2]])
    plan = [("down", 1), ("down", 2), ("collect", 0), ("up",), ("up",)]
    assert abs(hcp.plan_cost(plan, i) - 26.0 / 9.0) < 1e-12
    assert hcp.plan_cost(plan, i, exact=True) == Fraction(26, 9)


def test_plan_cost_rejects_underflow():
    i = inst(2, 2, [[0]])
    with pytest.raises(InvalidPlan):
        hcp.plan_cost([("up",), ("down", 0), ("collect", 0), ("up",)], i)


def test_plan_cost_rejects_off_path_collect():
    i = inst(2, 2, [[1]])
    plan = [("down", 0), ("collect", 0), ("up",)]
    with pytest.raises(InvalidPlan):
        hcp.plan_cost(plan, i)


def test_plan_cost_rejects_double_collect():
    i = inst(2, 2, [[0]])
    with pytest.raises(InvalidPlan):
        hcp.plan_cost([("collect", 0), ("collect", 0)], i)


def test_plan_cost_rejects_missed_target_and_nonroot_end():
    i = inst(2, 2, [[0], [1]])
    with pytest.raises(InvalidPlan):
        hcp.plan_cost([("collect", 0)], i)
    with pytest.raises(InvalidPlan):
        hcp.plan_cost([("collect", 0), ("collect", 1), ("down", 0)], i)


def test_implicit_zero_continuation_allows_deep_collect():
    # stored path [1]; implicitly passes [1,0,0]
    i = inst(2, 2, [[1]])
    plan = [
        ("down", 1), ("down", 0), ("down", 0),
        ("collect", 0),
        ("up",), ("up",), ("up",),
    ]
    # 1 + 1/2 + 1/4 + 2/8 + 1/4 + 1/2 + 1 = 3.75
    assert hcp.plan_cost(plan, i) == 3.75


# ----------------------------------------------------------- counting paths

def test_targets_through_examples():
    i = inst(4, 2, [[0, 1], [0, 2], [1, 0]])
    assert hcp.targets_through(i, ()) == 3
    assert hcp.targets_through(i, (0,)) == 2
    assert hcp.targets_through(i, (0, 3)) == 0


def test_targets_through_implicit_zeros():
    i = inst(4, 2, [[2]])
    assert hcp.targets_through(i, (2, 0, 0)) == 1
    assert hcp.targets_through(i, (2, 1)) == 0


# ------------------------------------------------- constructive vs expected

def test_single_target_collects_at_root():
    i = inst(4, 2, [[3, 1]])
    plan = hcp.construct_optimal_plan(i)
    assert plan == [("collect", 0)]
    assert hcp.plan_cost(plan, i) == 2.0


def test_shared_prefix_pair_ties_at_four():
    # n_v = 2 at root and child 0: tie-break never descends, cost 4;
    # descending and collecting both at child 0 also costs 4 (frozen by
    # exhaustive search below)
    i = inst(4, 2, [[0, 1], [0, 2]])
    plan = hcp.construct_optimal_plan(i)
    assert plan == [("collect", 0), ("collect", 1)]
    assert hcp.plan_cost(plan, i) == 4.0


def test_three_targets_sharing_child_descend_for_five():
    i = inst(4, 2, [[2, 0], [2, 1], [2, 3]])
    plan = hcp.construct_optimal_plan(i)
    cost = hcp.plan_cost(plan, i)
    assert cost == 5.0
    assert plan[0] == ("down", 2)


def test_empty_instance_returns_empty_plan():
    i = inst(4, 2, [])
    plan = hcp.construct_optimal_plan(i)
    assert plan == []
    assert hcp.plan_cost(plan, i) == 0.0


# ----------------------------------------------------------- brute oracle

def test_brute_force_matches_frozen_examples():
    one = inst(4, 2, [[3, 1]])
    plan, cost = hcp.brute_force_optimal(one, depth_limit=3)
    assert cost == 2.0

    pair = inst(4, 2, [[0, 1], [0, 2]])
    plan, cost = hcp.brute_force_optimal(pair, depth_limit=3)
    assert cost == 4.0
    # fewest-vertices tie-break: no descent at all
    assert plan == [("collect", 0), ("collect", 1)]

    triple = inst(4, 2, [[2, 0], [2, 1], [2, 3]])
    plan, cost = hcp.brute_force_optimal(triple, depth_limit=3)
    assert cost == 5.0


def test_brute_force_guards():
    big = inst(4, 2, [[i] for i in range(4)] + [[0, 1], [0, 2], [0, 3]])
    with pytest.raises(SearchSpaceTooLarge):
        hcp.brute_force_optimal(big, depth_limit=3)  # n = 7
    with pytest.raises(SearchSpaceTooLarge):
        hcp.brute_force_optimal(inst(4, 2, [[0]]), depth_limit=5)
    with pytest.raises(SearchSpaceTooLarge):
        hcp.brute_force_optimal(inst(5, 2, [[0]]), depth_limit=3)


def _random_instance(rng, b, s, n, depth):
    seen = set()
    targets = []
    while len(targets) < n:
        path = tuple(rng.randrange(b) for _ in range(rng.randint(1, depth)))
        key = hcp.canonical_path(path)
        if key in seen:
            continue
        seen.add(key)
        targets.append(path)
    return inst(b, s, targets)


def test_constructive_equals_oracle_on_random_sweep():
    rng = random.Random(20260819)
    for trial in range(60):
        b = rng.choice([2, 3, 4])
        s = rng.choice([2, 3])
        n = rng.randint(1, 5)
        i = _random_instance(rng, b, s, n, depth=3)
        built = hcp.construct_optimal_plan(i)
        _, brute_cost = hcp.brute_force_optimal(i, depth_limit=3)
        built_cost = hcp.plan_cost(built, i)
        assert abs(built_cost - brute_cost) < 1e-12, (i, built_cost, brute_cost)


def test_monotonicity_adding_target_never_cheaper():
    rng = random.Random(7)
    for trial in range(40):
        b = rng.choice([2, 3, 4])
        s = rng.choice([2, 3])
        i = _random_instance(rng, b, s, rng.randint(1, 6), depth=3)
        smaller = hcp.HcpInstance(i.params, i.targets[:-1])
        cost_small = hcp.plan_cost(hcp.construct_optimal_plan(smaller), smaller)
        cost_full = hcp.plan_cost(hcp.construct_optimal_plan(i), i)
        assert cost_full >= cost_small - 1e-12


# ---------------------------------------------------------- level-k tours

def test_level_zero_plan_collects_everything_at_root():
    i = inst(4, 2, [[0, 1], [1, 2], [3, 3]])
    plan = hcp.level_k_plan(i, 0)
    assert hcp.plan_cost(plan, i) == 6.0


def test_level_one_plan_matches_closed_form():
    # b=4, s=2, n=16, k*=1: movement 8, collection 16
    rng = random.Random(3)
    i = _random_instance(rng, 4, 2, 16, depth=3)
    plan = hcp.level_k_plan(i, 1)
    cost = hcp.plan_cost(plan, i)
    assert abs(cost - 24.0) < 1e-12
    assert cost <= hcp.hcp_star_bound(16, params(4, 2))


def test_level_k_closed_form_general():
    rng = random.Random(5)
    for b, s in [(4, 2), (9, 3)]:
        for n in [3, 7, 12]:
            i = _random_instance(rng, b, s, n, depth=4)
            for k_star in [0, 1, 2]:
                plan = hcp.level_k_plan(i, k_star)
                movement = 2 * sum(b ** (k + 1) * s ** (-k) for k in range(k_star))
                collection = 2 * n * s ** (-k_star)
                assert abs(hcp.plan_cost(plan, i) - movement - collection) < 1e-9


# ------------------------------------------------------------- star bound

def test_star_bound_values():
    assert hcp.hcp_star_bound(16, params(4, 2)) == 48.0
    assert hcp.hcp_star_bound(1, params(4, 2)) == 12.0
    assert hcp.hcp_star_bound(0, params(4, 2)) == 0.0


def test_star_bound_rejects_small_gamma():
    with pytest.raises(HypothesisViolated):
        hcp.hcp_star_bound(4, params(2, 2))  # gamma = 1
    with pytest.raises(HypothesisViolated):
        hcp.hcp_star_bound(4, hcp.HcpParams(branch_factor=3, scale=2))


# ----------------------------------------------------------- instance checks

def test_instance_rejects_bad_and_duplicate_paths():
    for bad in ([0, 4], [-1], [1.5], [0, math.nan]):
        with pytest.raises(ValueError, match="index"):
            inst(4, 2, [[0, 1], bad])
    # trailing zeros are the implicit continuation: the same path
    with pytest.raises(ValueError, match="duplicate"):
        inst(4, 2, [[0, 1], [0, 1, 0]])

    # from _LEVELS_MIN targets the paths are checked as one digit array
    many = [[k % 4, k // 4 % 4, k // 16 % 4, k // 64] for k in range(1, 256)]
    assert len(many) >= hcp._LEVELS_MIN
    for bad in ([0, 4], [-1], [1.5], [0, math.nan], ["a"], [True, 5]):
        with pytest.raises(ValueError, match=re.escape(
                f"target path {tuple(bad)} has an index")):
            inst(4, 2, many + [bad])
    with pytest.raises(ValueError, match=r"duplicate target path \(1, 0\)$"):
        inst(4, 2, [[1]] + many[1:] + [[1, 0]])
    with pytest.raises(ValueError, match=r"duplicate target path \(1,\)$"):
        inst(4, 2, [[1, 0, 0]] + many[1:] + [[1]])
    # the first offender is named, a duplicate before a bad index
    with pytest.raises(ValueError, match=r"duplicate target path \(2, 0\)$"):
        inst(4, 2, many + [[2, 0], [7]])
    with pytest.raises(ValueError, match="index"):
        inst(4, 2, many + [[7], [2, 0]])
    assert many[4] == [1, 1, 0, 0]
    accepted = inst(4, 2, many[:4] + [[1.0, True, 0.0]] + many[5:])
    assert accepted.n == len(many)
    assert hcp.optimal_cost_fast(accepted) == \
        hcp.optimal_cost_fast(inst(4, 2, many))


# ------------------------------------------------------------ serialization

def test_instance_json_roundtrip():
    i = inst(4, 2, [[0, 1], [2, 0]])
    obj = hcp.instance_to_json(i)
    assert obj == {"b": 4, "s": 2, "targets": [[0, 1], [2, 0]]}
    assert hcp.instance_from_json(obj) == i


def test_plan_json_roundtrip():
    plan = [("down", 2), ("collect", 0), ("up",)]
    obj = hcp.plan_to_json(plan)
    assert obj == [
        {"op": "down", "arg": 2},
        {"op": "collect", "arg": 0},
        {"op": "up"},
    ]
    assert hcp.plan_from_json(obj) == plan
