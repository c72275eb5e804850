"""Tour construction: completeness, bounds, exact baselines, scaling."""

import dataclasses
import itertools
import math
import time
from unittest import mock

import numpy as np
import pytest

from dstsp_lab import dynamics as dyn
from dstsp_lab import hcs
from dstsp_lab import planner
from dstsp_lab import reeds_shepp as rs
from dstsp_lab.errors import (NotSymmetric, OutOfSupport, TargetOutsideCover,
                              TooLarge)
from dstsp_lab.seeding import make_rng

E2 = dyn.make_model({"model": "euclidean2"})
RS = dyn.make_model({"model": "reeds_shepp"})
SQ = ((0.0, 0.0), (1.0, 1.0))


def uniform_targets(n, seed, lo=0.0, hi=1.0):
    rng = make_rng(seed, "targets", n)
    return [tuple(p) for p in rng.uniform(lo, hi, size=(n, 2))]


def solve_uniform(n, seed, with_info=False):
    pts = uniform_targets(n, seed)
    eps0 = planner.default_eps0(n, 2)
    cov = hcs.build_cover(E2, SQ, eps0)
    out = planner.solve_dstsp(E2, cov, pts, with_info=with_info)
    return (out, pts, eps0) if not with_info else (*out, pts, eps0)


# ---------------------------------------------------------------- small cases

def test_empty_tour():
    cov = hcs.build_cover(E2, SQ, 1.0)
    tour = planner.solve_dstsp(E2, cov, [])
    assert tour.total_time == 0.0
    assert tour.visited == ()


def test_single_target_out_and_back():
    cov = hcs.build_cover(E2, SQ, 1.0)
    target = (0.3, 0.4)
    tour = planner.solve_dstsp(E2, cov, [target])
    d = math.dist((0.5, 0.5), target)
    assert tour.total_time == pytest.approx(2.0 * d)
    assert tour.total_time <= 2.0 * (d + 1.0)
    assert planner.tour_visits_all(tour, [target])


def test_coincident_targets_grouped():
    cov = hcs.build_cover(E2, SQ, 0.5)
    pts = [(0.2, 0.2), (0.2, 0.2), (0.7, 0.7), (0.2, 0.2), (0.7, 0.2)]
    tour = planner.solve_dstsp(E2, cov, pts)
    assert planner.tour_visits_all(tour, pts)
    assert len(tour.visited) == len(pts)


def test_target_outside_cover():
    cov = hcs.build_cover(E2, SQ, 0.5)
    for bad in [(1.5, 0.5), (math.nan, 0.5), (0.5, math.inf)]:
        with pytest.raises(TargetOutsideCover):
            planner.solve_dstsp(E2, cov, [(0.5, 0.5), bad])


_MANY = uniform_targets(20_000, 9)


@pytest.mark.parametrize("where", [0, 10_000, 19_999])
@pytest.mark.parametrize("bad, axis", [
    ((math.nan, 0.5), 0), ((0.5, math.nan), 1), ((math.inf, 0.5), 0),
    ((0.5, -math.inf), 1), ((1.0 + 1e-12, 0.5), 0), ((0.5, -0.01), 1),
    ((2.0, 2.0), 0)])
def test_target_outside_cover_names_the_lowest_bad_target(where, bad, axis):
    # located in one numpy pass, the first bad target of 20 000 is still
    # the one named, by its first bad coordinate
    cov = hcs.build_cover(E2, SQ, 0.01)
    pts = list(_MANY)
    pts[where] = bad
    if where + 1 < len(pts):
        pts[-1] = (0.5, 7.0)    # a later bad target is not the one named
    message = f"target {where}: coordinate {axis} outside the covered support"
    with pytest.raises(TargetOutsideCover) as err:
        planner.solve_dstsp(E2, cov, pts)
    assert str(err.value) == message
    assert isinstance(err.value.__cause__, OutOfSupport)


def test_with_info_gives_the_same_tour_and_times_its_stages():
    pts = uniform_targets(2048, 6)
    cov = hcs.build_cover(E2, SQ, planner.default_eps0(2048, 2))
    plain = planner.solve_dstsp(E2, cov, pts)
    tour, info = planner.solve_dstsp(E2, cov, pts, with_info=True)
    assert tour == plain
    timings = info["timings"]
    assert set(timings) == {"locate", "roots_tour", "plan", "realize",
                            "nn_order", "two_opt"}
    assert all(s >= 0.0 for s in timings.values())
    assert timings["nn_order"] + timings["two_opt"] <= timings["roots_tour"]
    counters = info["counters"]
    assert counters["occupied_roots"] == len(info["roots"]) \
        == len(info["root_order"])
    # roots with the same set of paths share one plan
    assert 0 < counters["plans_built"] < counters["occupied_roots"]
    assert counters["two_opt_moves"] > 0
    assert 0 < counters["nn_fallbacks"] < counters["occupied_roots"] // 4
    # only the car prices words
    assert counters["words"] == 0
    _, one = planner.solve_dstsp(E2, cov, pts[:1], with_info=True)
    assert one["counters"] == {"occupied_roots": 1, "plans_built": 1,
                               "two_opt_moves": 0, "nn_fallbacks": 0,
                               "steers": 1, "words": 0}
    _, none = planner.solve_dstsp(E2, cov, pts[:0], with_info=True)
    assert set(none["counters"]) == set(counters)


@pytest.mark.parametrize("model", [E2, RS])
def test_with_info_counts_every_steer(model):
    pts = uniform_targets(300, 2)
    eps0 = planner.default_eps0(300, hcs.model_gamma(model))
    cov = hcs.build_cover(model, SQ, eps0)
    calls = []
    steer = dyn.steer

    def counted(*args):
        calls.append(args)
        return steer(*args)

    with mock.patch.object(dyn, "steer", counted):
        _, info = planner.solve_dstsp(model, cov, pts, with_info=True)
    assert info["counters"]["steers"] == len(calls)


def test_car_word_memo_lives_for_one_solve():
    pts = uniform_targets(300, 2)
    cov = hcs.build_cover(RS, SQ, planner.default_eps0(300, 3))
    priced = []
    shortest_word = rs.shortest_word

    def counted(*args):
        priced.append(args)
        return shortest_word(*args)

    with mock.patch.object(rs, "shortest_word", counted):
        first = planner.solve_dstsp(RS, cov, pts)
        once = len(priced)
        second, info = planner.solve_dstsp(RS, cov, pts, with_info=True)
    # the second solve prices every word again: no memo outlives a solve
    assert second == first
    assert len(priced) == 2 * once
    # each canonical goal is priced once, and goals repeat on the lattice
    assert info["counters"]["words"] == once == len(set(priced[once:]))
    assert once < info["counters"]["steers"]


def test_default_path_reads_no_clock():
    pts = uniform_targets(512, 1)
    cov = hcs.build_cover(E2, SQ, planner.default_eps0(512, 2))
    with mock.patch.object(planner.time, "perf_counter",
                           side_effect=AssertionError("clock read")):
        planner.solve_dstsp(E2, cov, pts)


def test_asymmetric_model_rejected():
    bad = dataclasses.replace(E2, symmetric=False)
    cov = hcs.build_cover(E2, SQ, 0.5)
    with pytest.raises(NotSymmetric):
        planner.solve_dstsp(bad, cov, [(0.5, 0.5)])


# --------------------------------------------------------------- completeness

def test_completeness_and_duration_consistency():
    tour, pts, _ = solve_uniform(256, 1)
    assert planner.tour_visits_all(tour, pts)
    assert tour.trajectory.duration == pytest.approx(tour.total_time,
                                                     abs=1e-9)
    assert len({tid for tid, _ in tour.visited}) == len(pts)


def test_completeness_check_at_large_n_is_one_pass():
    tour, pts, _ = solve_uniform(4096, 6)
    start = time.perf_counter()
    assert planner.tour_visits_all(tour, pts)
    # one forward pass: well under a second where a rescan per visit
    # takes minutes
    assert time.perf_counter() - start < 2.0


def test_visit_check_rejects_bad_times():
    tour, pts, _ = solve_uniform(16, 2)
    broken = planner.Tour(tour.trajectory,
                          tuple((tid, 0.0) for tid, _ in tour.visited),
                          tour.total_time)
    assert not planner.tour_visits_all(broken, pts)


def test_realized_time_bound_with_slack():
    tour, info, pts, eps0 = solve_uniform(256, 3, with_info=True)
    s = 2
    per_root = sum(6.0 * s * eps0 * nj ** 0.5 for nj in info["roots"].values())
    assert tour.total_time <= info["c_eps0"] + per_root * 1.25


def test_same_seed_gives_the_same_tour():
    t1, pts, _ = solve_uniform(512, 4)
    t2 = planner.solve_dstsp(
        E2, hcs.build_cover(E2, SQ, planner.default_eps0(512, 2)), pts)
    assert t1.total_time == t2.total_time
    assert t1.visited == t2.visited
    assert t1.trajectory.segments == t2.trajectory.segments


@pytest.mark.parametrize("model, n", [(E2, 256), (RS, 24)])
def test_tour_is_an_open_path_between_first_and_last_root(model, n):
    # no closing leg: the trajectory runs from the first root's anchor to
    # the last root's, and its duration is the total time
    pts = uniform_targets(n, 8, lo=0.05, hi=0.95)
    eps0 = planner.default_eps0(n, hcs.model_gamma(model))
    cov = hcs.build_cover(model, SQ, eps0)
    tour, info = planner.solve_dstsp(model, cov, pts, with_info=True)
    order = info["root_order"]
    assert len(order) > 2
    first = cov.roots[order[0]].anchor
    last = cov.roots[order[-1]].anchor
    assert tour.trajectory.start == first
    end = tour.trajectory.configuration_at(math.inf)
    assert math.dist(end[:2], last[:2]) <= 1e-9
    assert math.dist(end[:2], first[:2]) > 1e-3
    assert tour.trajectory.duration == pytest.approx(tour.total_time,
                                                     abs=1e-9)


def test_bidirectional_car_end_to_end():
    cov = hcs.build_cover(RS, SQ, 0.3)
    pts = uniform_targets(12, 5, lo=0.05, hi=0.95)
    tour = planner.solve_dstsp(RS, cov, pts)
    assert planner.tour_visits_all(tour, pts)
    assert tour.trajectory.duration == pytest.approx(tour.total_time,
                                                     abs=1e-9)


# ----------------------------------------------------------------- roots_tour

def test_roots_tour_trivial_sizes():
    assert planner.roots_tour(E2, [(0.5, 0.5)]) == [0]
    assert sorted(planner.roots_tour(E2, [(0.0, 0.0), (3.0, 4.0)])) == [0, 1]


def test_roots_tour_grid_boustrophedon_bound():
    h = 0.1
    anchors = [(i * h, j * h) for j in range(4) for i in range(4)]
    order = planner.roots_tour(E2, anchors)
    assert sorted(order) == list(range(len(anchors)))
    assert sum(math.dist(anchors[a], anchors[b])
               for a, b in zip(order, order[1:])) <= 16 * h * 1.5


@pytest.mark.parametrize("model, n", [(E2, 256), (RS, 24)])
def test_c_eps0_sums_the_legs_between_roots_in_drive_order(model, n):
    pts = uniform_targets(n, 5, lo=0.05, hi=0.95)
    cov = hcs.build_cover(model, SQ,
                          planner.default_eps0(n, hcs.model_gamma(model)))
    _, info = planner.solve_dstsp(model, cov, pts, with_info=True)
    anchors = [cov.roots[k].anchor for k in info["root_order"]]
    assert len(anchors) > 2
    want = 0.0
    for a, b in zip(anchors, anchors[1:]):
        want += dyn.steer(model, a, b).duration
    assert info["c_eps0"] == want


# ----------------------------------------------------------- exact small TSP

def test_exact_two_points():
    assert planner.exact_small_tsp(E2, [(0.0, 0.0), (3.0, 4.0)]) == \
        pytest.approx(5.0)


def test_exact_collinear_sweep():
    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    assert planner.exact_small_tsp(E2, pts) == pytest.approx(2.0)


def test_exact_matches_permutation_brute_force():
    rng = make_rng(7, "perm")
    pts = [tuple(p) for p in rng.uniform(0.0, 1.0, size=(5, 2))]
    dp = planner.exact_small_tsp(E2, pts)
    brute = min(sum(math.dist(perm[k], perm[k + 1]) for k in range(4))
                for perm in itertools.permutations(pts))
    assert dp == pytest.approx(brute, abs=1e-12)


def test_exact_guards():
    pts9 = [(float(i), 0.0) for i in range(9)]
    with pytest.raises(TooLarge):
        planner.exact_small_tsp(E2, pts9)
    with pytest.raises(TooLarge):
        planner.exact_small_tsp(RS, [(0.0, 0.0), (1.0, 0.0)], headings=9)
    with pytest.raises(ValueError):
        planner.exact_small_tsp(E2, [(0.0, 0.0)], headings=0)
    assert planner.exact_small_tsp(E2, []) == 0.0


def test_exact_heading_grid_dominates_distance():
    pts = [(0.0, 0.0), (0.5, 0.1), (0.9, 0.4)]
    rs_val = planner.exact_small_tsp(RS, pts, headings=4)
    eu_val = planner.exact_small_tsp(E2, pts)
    # car time can never beat the straight-line bound at unit speed
    assert rs_val >= eu_val - 1e-9


def test_solve_at_least_exact_optimum():
    for seed in range(10):
        n = 2 + seed % 5
        pts = uniform_targets(n, 100 + seed)
        cov = hcs.build_cover(E2, SQ, planner.default_eps0(n, 2))
        tour = planner.solve_dstsp(E2, cov, pts)
        exact = planner.exact_small_tsp(E2, pts)
        assert tour.total_time >= exact - 1e-9


# -------------------------------------------------------------- trivial bound

def test_trivial_bound_values():
    assert planner.trivial_bound(0, E2, SQ) == 0.0
    one = planner.trivial_bound(1, E2, SQ)
    assert 1.0 <= one <= math.sqrt(2.0) * 1.2 + 1e-9
    assert planner.trivial_bound(10, E2, SQ) == pytest.approx(10.0 * one)


def test_trivial_bound_dominates_solver():
    for seed, n in [(0, 64), (1, 256)]:
        tour, pts, _ = solve_uniform(n, 200 + seed)
        assert tour.total_time <= planner.trivial_bound(n, E2, SQ)


# -------------------------------------------------------------- growth in n

def test_default_eps0():
    assert planner.default_eps0(16384, 2) == pytest.approx(1.0 / 128.0)
    assert planner.default_eps0(1, 2) == 1.0
    assert planner.default_eps0(10 ** 30, 2, eps_min=1e-6) == 1e-6


def test_scaling_slope_square_root():
    sizes = [256, 1024, 4096]
    medians = []
    for n in sizes:
        vals = sorted(solve_uniform(n, seed)[0].total_time
                      for seed in range(3))
        medians.append(vals[1])
    slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_ratio_sandwich_moderate_n():
    n, delta, s = 4096, 0.3, 2
    tour, _, _ = solve_uniform(n, 11)
    ratio = tour.total_time / math.sqrt(n)   # uniform density, unit J
    alpha_hat = 1.0 / math.pi
    from dstsp_lab import bounds as bnd
    _, beta = bnd.beta_constant(s ** 2, 2, symmetric=True)
    lower = (1.0 - delta) / beta
    upper = (1.0 + delta) * 12.0 * s * alpha_hat ** -0.5
    assert lower <= ratio <= upper
