"""Each output check passes on real program output and rejects it corrupted.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from dstsp_lab import bounds as bnd  # noqa: E402
from dstsp_lab import dynamics as dyn  # noqa: E402
from dstsp_lab import hcp, hcs, planner  # noqa: E402

UNIT = ((0.0, 0.0), (1.0, 1.0))


def _tour(spec, n, seed):
    model = dyn.make_model(spec)
    gamma = hcs.model_gamma(model)
    cover = hcs.build_cover(model, UNIT, planner.default_eps0(n, gamma))
    pts = [tuple(p) for p in np.random.default_rng(seed).random((n, 2))]
    return model, cover, planner.solve_dstsp(model, cover, pts), pts


@pytest.fixture(scope="module")
def euclid():
    return _tour({"model": "euclidean2"}, 64, 1)


@pytest.mark.parametrize("spec, n", [
    ({"model": "euclidean2"}, 64),
    ({"model": "scaled_euclidean2",
      "sigma": bnd.GridField((0.0, 0.0), 0.25, np.array([[1.0, 2.0]] * 4))},
     48),
    ({"model": "reeds_shepp"}, 12),
])
def test_real_tours_pass(spec, n):
    model, cover, tour, pts = _tour(spec, n, 2)
    assert checks.check_tour(model, cover, tour, pts) == []


def test_dropped_visit_is_rejected(euclid):
    model, cover, tour, pts = euclid
    bad = dataclasses.replace(tour, visited=tour.visited[:-1])
    assert checks.check_tour(model, cover, bad, pts)


def test_duplicated_visit_is_rejected(euclid):
    model, cover, tour, pts = euclid
    visits = list(tour.visited)
    visits[5] = (visits[4][0], visits[5][1])
    bad = dataclasses.replace(tour, visited=tuple(visits))
    assert checks.check_tour(model, cover, bad, pts)


def test_shifted_visit_time_is_rejected(euclid):
    model, cover, tour, pts = euclid
    visits = list(tour.visited)
    tid, vt = visits[10]
    visits[10] = (tid, vt + 1e-3)
    bad = dataclasses.replace(tour, visited=tuple(visits))
    problems = checks.check_tour(model, cover, bad, pts)
    assert any(f"target {tid} " in p for p in problems)


def test_wrong_total_time_is_rejected(euclid):
    model, cover, tour, pts = euclid
    bad = dataclasses.replace(tour, total_time=tour.total_time * 1.001)
    assert checks.check_tour(model, cover, bad, pts)


def _row(tour, n, j, ratio=None):
    scale = n ** 0.5 * j
    return {"n": str(n), "tour_time": repr(tour.total_time), "J": repr(j),
            "density": "uniform", "alpha_hat": repr(1 / math.pi),
            "ratio": repr(tour.total_time / scale if ratio is None
                          else ratio)}


def test_rows_reject_wrong_j_and_ratio(euclid):
    _, _, tour, pts = euclid
    j = math.pi ** -0.5
    expected = {"uniform": j}
    tours = [(tour, len(pts))]
    good = [_row(tour, len(pts), j)]
    assert checks.check_rows(good, tours, expected, 2, 1 / math.pi) == []
    off_j = [_row(tour, len(pts), j * 1.01)]
    assert checks.check_rows(off_j, tours, expected, 2, 1 / math.pi)
    low = [_row(tour, len(pts), j, ratio=1e-3)]
    assert checks.check_rows(low, tours, expected, 2, 1 / math.pi)


def _tree(b=4, s=2, n=300, seed=3):
    rng = np.random.default_rng(seed)
    digits = np.unique(rng.integers(0, b, size=(n, 6)), axis=0)
    inst = hcp.HcpInstance(hcp.HcpParams(b, s),
                           tuple(map(tuple, digits.tolist())))
    plan = hcp.construct_optimal_plan(inst)
    return digits, inst, plan


@pytest.mark.parametrize("b, s", [(4, 2), (9, 3), (8, 2), (27, 3)])
def test_real_trees_pass(b, s):
    digits, inst, plan = _tree(b, s)
    cost = hcp.optimal_cost_fast(inst)
    assert checks.check_tree(digits, b, s, cost, plan,
                             hcp.plan_cost(plan, inst)) == []


def test_tree_cost_off_by_one_edge_is_rejected():
    digits, inst, plan = _tree()
    cost = hcp.optimal_cost_fast(inst)
    edge = 2 ** -2  # an edge below a level-2 vertex
    assert checks.check_tree(digits, 4, 2, cost + edge, plan, cost)
    assert checks.check_tree(digits, 4, 2, cost, plan, cost - edge)


def test_plan_with_extra_excursion_is_rejected():
    digits, inst, plan = _tree()
    cost = hcp.optimal_cost_fast(inst)
    # re-entering the first child crosses its edge a third and fourth time
    down = next(a for a in plan if a[0] == "down")
    first = plan.index(("up",))
    bad = plan[:first + 1] + [down, ("up",)] + plan[first + 1:]
    _, problems = checks.walk_plan(bad, digits, 4, 2)
    assert problems


def test_plan_collecting_off_path_is_rejected():
    digits, inst, plan = _tree()
    cost = hcp.optimal_cost_fast(inst)
    # cursor of each collection, by walking the plan
    cursor, at = [], {}
    for k, a in enumerate(plan):
        if a[0] == "down":
            cursor.append(a[1])
        elif a[0] == "up":
            cursor.pop()
        else:
            at[k] = tuple(cursor)
    deep = next(k for k, c in at.items() if c)
    other = next(k for k, c in at.items()
                 if tuple(digits[plan[k][1], :len(at[deep])]) != at[deep])
    bad = list(plan)
    bad[deep], bad[other] = plan[other], plan[deep]
    problems = checks.check_tree(digits, 4, 2, cost, bad, cost)
    assert "a target is collected off its path" in problems


def test_dropped_collection_is_rejected():
    digits, inst, plan = _tree()
    k = next(k for k, a in enumerate(plan) if a[0] == "collect")
    _, problems = checks.walk_plan(plan[:k] + plan[k + 1:], digits, 4, 2)
    assert problems


def _envelope_case():
    rng = np.random.default_rng(4)
    field = bnd.GridField((0.0, 0.0), 1 / 24, rng.uniform(0.5, 4.0, (24, 24)))
    centers = checks.cell_centers((24, 24), 1 / 24)
    assert np.allclose(centers, field.cell_centers(), rtol=0, atol=1e-15)
    cells = np.arange(len(centers))
    pairs = rng.integers(len(centers), size=(2000, 2))
    return field, centers, cells, pairs


@pytest.mark.parametrize("upper", [True, False])
def test_real_envelopes_pass(upper):
    field, centers, cells, pairs = _envelope_case()
    out = (bnd.upper_reg if upper else bnd.lower_reg)(field, 0.05)
    assert checks.check_envelope(field.values, centers, out.values, 0.05,
                                 upper, cells, pairs) == []


@pytest.mark.parametrize("upper", [True, False])
def test_raised_envelope_value_is_rejected(upper):
    field, centers, cells, pairs = _envelope_case()
    out = np.array((bnd.upper_reg if upper else bnd.lower_reg)(
        field, 0.05).values)
    out.flat[100] += 1e-3
    assert checks.check_envelope(field.values, centers, out, 0.05, upper,
                                 cells, pairs)


def test_open_path_optimum_matches_exact_small_tsp():
    model = dyn.make_model({"model": "euclidean2"})
    pts = [tuple(p) for p in np.random.default_rng(5).random((6, 2))]
    own = checks.open_path_optimum(pts, checks.permutations(6))
    assert own == pytest.approx(planner.exact_small_tsp(model, pts),
                                rel=1e-12)


def test_binomial_difference_matches_a_direct_sum():
    n, p, z = 30, 0.3, 0.5
    direct = sum(math.comb(n, k) * p ** k * (1 - p) ** (n - k)
                 * ((k + 1) ** z - k ** z) for k in range(n + 1))
    assert checks.binom_zeta_diff(n, p, z) == pytest.approx(direct,
                                                            rel=1e-12)


def test_sandwich_constant_matches_the_program():
    for gamma in (2, 3):
        _, beta = bnd.beta_constant(2 ** gamma, gamma, True)
        assert checks.beta_constant(gamma) == pytest.approx(beta, rel=1e-15)
