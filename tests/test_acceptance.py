"""Acceptance suite: one test per contract criterion, exact where the maths
is exact, trend-based at desk scale where the guarantees are asymptotic.

Run with -v to get one pass/fail line per criterion.
"""

import csv
import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from dstsp_lab import agility as agl
from dstsp_lab import bounds as bnd
from dstsp_lab import cbo, cli, hcp, hcs, planner, stats
from dstsp_lab import dynamics as dyn
from dstsp_lab.seeding import make_rng

SEED = 20260819

_CACHE = {}


def _euclid2():
    return dyn.make_model({"model": "euclidean2"})


def _unit_support():
    return ((0.0, 0.0), (1.0, 1.0))


def _report(k, msg):
    print(f"ACCEPTANCE {k:02d} PASS - {msg}")


# --- shared samplers -------------------------------------------------------

def _random_instances(count, rng):
    """Random collection instances inside the brute-force guards."""
    out = []
    while len(out) < count:
        b = int(rng.integers(2, 5))
        s = int(rng.integers(2, 4))
        n = int(rng.integers(1, 6))
        depth = int(rng.integers(1, 4))
        targets = set()
        for _ in range(n):
            d = int(rng.integers(1, depth + 1))
            targets.add(tuple(int(rng.integers(0, b)) for _ in range(d)))
        try:
            inst = hcp.HcpInstance(hcp.HcpParams(b, s),
                                   tuple(sorted(targets)))
        except ValueError:
            continue
        out.append((inst, depth))
    return out


def _instance_sweep():
    if "instances" not in _CACHE:
        rng = make_rng(SEED, "acc-hcp")
        swept = []
        for inst, depth in _random_instances(220, rng):
            plan, brute_cost = hcp.brute_force_optimal(inst,
                                                       depth_limit=depth + 1)
            swept.append((inst, plan, brute_cost))
        _CACHE["instances"] = swept
    return _CACHE["instances"]


def _uniform_runs():
    """Uniform-density euclidean2 tours over the scaling grid, 20 seeds."""
    if "uniform" not in _CACHE:
        model = _euclid2()
        f = bnd.uniform_density((0.0, 0.0), 1.0 / 64, (64, 64))
        runs = {}
        covers = {}
        for n in (256, 1024, 4096, 16384):
            cover = hcs.build_cover(model, _unit_support(),
                                    planner.default_eps0(n, 2), s=2)
            times = []
            for seed in range(20):
                rng = make_rng(SEED, "acc-scaling", n, seed)
                pts = bnd.sample_density(f, n, rng)
                times.append(planner.solve_dstsp(model, cover, pts).total_time)
            runs[n] = times
            covers[n] = cover
        alpha = hcs.measure_alpha(covers[16384].roots[0], model, math.pi,
                                  400, make_rng(SEED, "acc-alpha"))
        _CACHE["uniform"] = (runs, alpha)
    return _CACHE["uniform"]


# --- criteria --------------------------------------------------------------

def test_c01_hcp_constructive_matches_brute_oracle():
    t0 = time.time()
    for inst, _, brute_cost in _instance_sweep():
        plan = hcp.construct_optimal_plan(inst)
        cost = hcp.plan_cost(plan, inst)
        assert abs(cost - brute_cost) < 1e-12, \
            f"constructive {cost} != brute {brute_cost} on {inst}"
    wall = time.time() - t0
    assert wall < 60.0
    _report(1, f"220 instances, constructive == brute exactly, {wall:.1f}s")


def test_c02_hcp_edge_parity_and_descend_threshold():
    for inst, plan, _ in _instance_sweep():
        s = inst.params.scale
        cursor = ()
        down, up = Counter(), Counter()
        for action in plan:
            if action[0] == "down":
                cursor = cursor + (action[1],)
                down[cursor] += 1
            elif action[0] == "up":
                up[cursor] += 1
                cursor = cursor[:-1]
        assert cursor == ()
        edges = set(down) | set(up)
        for e in edges:
            assert down[e] == up[e]
            assert down[e] + up[e] in (0, 2), \
                f"edge {e} crossed {down[e] + up[e]} times"
        entered = set(down)
        paths = [hcp.canonical_path(t) for t in inst.targets]
        vertices = {p[:k] for p in paths for k in range(1, len(p) + 1)}
        for v in vertices:
            n_v = sum(1 for p in paths if hcp.path_passes(p, v))
            if n_v * (s - 1) > s:
                assert v in entered, f"vertex {v} with n_v={n_v} not entered"
            elif n_v * (s - 1) < s:
                assert v not in entered, f"vertex {v} with n_v={n_v} entered"
    _report(2, "every optimum has 0/2 edge parity and obeys the "
               "descend threshold")


def test_c03_hcp_constructive_bound():
    t0 = time.time()
    rng = make_rng(SEED, "acc-hcp-bound")
    combos = ((4, 2, 2.0), (9, 3, 2.0), (8, 2, 3.0), (27, 3, 3.0))
    for k in range(1000):
        b, s, gamma = combos[k % 4]
        n_want = int(10 ** rng.uniform(1.0, 5.0))
        depth = 1
        while b ** depth < 4 * n_want:
            depth += 1
        raw = rng.integers(0, b, size=(n_want, depth))
        enc = np.unique(raw @ (b ** np.arange(depth)))
        dec = np.empty((len(enc), depth), dtype=int)
        e = enc.copy()
        for lvl in range(depth):
            dec[:, lvl] = e % b
            e //= b
        inst = hcp.HcpInstance(
            hcp.HcpParams(b, s),
            tuple(map(tuple, dec.tolist())))
        cost = hcp.optimal_cost_fast(inst)
        bound = 6.0 * s * inst.n ** (1.0 - 1.0 / gamma)
        assert cost <= bound, (cost, bound, inst.n, b, s)
    wall = time.time() - t0
    assert wall < 60.0
    _report(3, f"1000 instances up to n=1e5 under 6*s*n^(1-1/gamma), "
               f"{wall:.1f}s")


def test_c04_tour_time_scaling_slope():
    t0 = time.time()
    runs, _ = _uniform_runs()
    ns = sorted(runs)
    medians = [float(np.median(runs[n])) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    wall = time.time() - t0
    assert wall < 600.0
    assert 0.45 <= slope <= 0.55, f"slope {slope:.4f}"
    _report(4, f"median tour-time slope {slope:.4f} in 0.50 +/- 0.05, "
               f"{wall:.0f}s for 80 runs")


def test_c05_sandwich_at_largest_n():
    runs, alpha = _uniform_runs()
    j_val = math.pi ** -0.5
    _, beta = bnd.beta_constant(4, 2, symmetric=True)
    lo = (1.0 - 0.3) / beta
    hi = (1.0 + 0.3) * 12.0 * 2 * alpha ** -0.5
    ratios = [t / (16384 ** 0.5 * j_val) for t in runs[16384]]
    for r in ratios:
        assert lo <= r <= hi, f"ratio {r:.4f} outside [{lo:.4f}, {hi:.4f}]"
    _report(5, f"all 20 ratios (median {np.median(ratios):.3f}) inside "
               f"[{lo:.4f}, {hi:.1f}]")


def test_c06_linear_density_shifts_tours_by_j_ratio():
    runs, _ = _uniform_runs()
    model = _euclid2()
    vals = np.empty((64, 64))
    for i in range(64):
        vals[i, :] = 2.0 * (i + 0.5) / 64
    f_lin = bnd.normalize_density(bnd.GridField((0.0, 0.0), 1.0 / 64, vals))
    g = bnd.GridField((0.0, 0.0), 1.0 / 64, np.full((64, 64), math.pi))
    j_ratio = (bnd.interaction_integral(f_lin, g, 2)
               / bnd.interaction_integral(
                   bnd.uniform_density((0.0, 0.0), 1.0 / 64, (64, 64)), g, 2))
    assert j_ratio == pytest.approx(math.sqrt(2.0) * 2.0 / 3.0, abs=2e-3)

    n = 16384
    cover = hcs.build_cover(model, _unit_support(),
                            planner.default_eps0(n, 2), s=2)
    lin_times = []
    for seed in range(11):
        rng = make_rng(SEED, "acc-linear", n, seed)
        pts = bnd.sample_density(f_lin, n, rng)
        lin_times.append(planner.solve_dstsp(model, cover, pts).total_time)
    ratio = float(np.median(lin_times) / np.median(runs[n]))
    assert abs(ratio / 0.9428 - 1.0) <= 0.10, \
        f"tour ratio {ratio:.4f} vs J ratio 0.9428"
    _report(6, f"tour-time ratio {ratio:.4f} within 10% of J ratio 0.9428")


def test_c07_worst_case_density_maximizes_tours():
    t0 = time.time()
    sigma = bnd.GridField((0.0, 0.0), 0.5, np.array([[1.0], [2.0]]))
    model = dyn.make_model({"model": "scaled_euclidean2", "sigma": sigma})
    gvals = np.empty((64, 64))
    gvals[:32, :] = math.pi
    gvals[32:, :] = 4.0 * math.pi
    g = bnd.GridField((0.0, 0.0), 1.0 / 64, gvals)
    densities = {
        "worst_case": bnd.worst_case_density(g),
        "uniform": bnd.uniform_density((0.0, 0.0), 1.0 / 64, (64, 64)),
        "prop_g": bnd.normalize_density(g),
    }
    n = 8192
    # Coarser roots keep the pairwise steering stage tractable; the
    # density ordering is resolution-independent.
    cover = hcs.build_cover(model, _unit_support(), 4.0 * n ** -0.5, s=2)
    med = {}
    for name, f in densities.items():
        times = []
        for seed in range(20):
            rng = make_rng(SEED, "acc-adv", name, n, seed)
            pts = bnd.sample_density(f, n, rng)
            times.append(planner.solve_dstsp(model, cover, pts).total_time)
        med[name] = float(np.median(times))
    wall = time.time() - t0
    assert med["worst_case"] > med["uniform"], med
    assert med["worst_case"] > med["prop_g"], med
    _report(7, f"medians worst={med['worst_case']:.1f} > "
               f"uniform={med['uniform']:.1f} > prop_g={med['prop_g']:.1f}, "
               f"{wall:.0f}s")


def test_c08_holder_bound_and_equality_case():
    t0 = time.time()
    rng = make_rng(SEED, "acc-holder")
    for gi in range(5):
        g = bnd.GridField((0.0, 0.0), 1.0 / 32,
                          rng.uniform(0.5, 4.0, size=(32, 32)))
        cap = bnd.inverse_agility_integral(g) ** 0.5
        for fi in range(100):
            f = bnd.normalize_density(bnd.GridField(
                (0.0, 0.0), 1.0 / 32,
                rng.uniform(0.05, 1.0, size=(32, 32))))
            gap = bnd.holder_gap(f, g, 2)
            assert gap >= -1e-9
            assert bnd.interaction_integral(f, g, 2) <= cap + 1e-9
        star_gap = bnd.holder_gap(bnd.worst_case_density(g), g, 2)
        assert abs(star_gap) <= 1e-6
    wall = time.time() - t0
    assert wall < 60.0
    _report(8, f"500 density/agility pairs under the interaction cap, "
               f"equality at the reciprocal density, {wall:.1f}s")


def test_c09_regularization_invariants():
    t0 = time.time()

    def step1d():
        v = np.ones(64)
        v[32:] = 4.0
        return bnd.GridField((0.0,), 1.0 / 64, v)

    def smooth1d():
        x = (np.arange(64) + 0.5) / 64
        return bnd.GridField((0.0,), 1.0 / 64, 1.0 + 0.5 * np.sin(6 * x))

    def step2d():
        v = np.ones((32, 32))
        v[16:, :] = 4.0
        return bnd.GridField((0.0, 0.0), 1.0 / 32, v)

    def smooth2d():
        x = (np.arange(32) + 0.5) / 32
        v = 1.0 + 0.5 * np.outer(np.sin(4 * x), np.cos(4 * x))
        return bnd.GridField((0.0, 0.0), 1.0 / 32, v)

    for build in (step1d, smooth1d, step2d, smooth2d):
        f = build()
        centers = f.cell_centers()
        for zeta in (0.05, 0.2):
            u = bnd.upper_reg(f, zeta)
            lo = bnd.lower_reg(f, zeta)
            # floor / ceiling and domination
            assert np.all(u.values >= np.maximum(f.values, zeta) - 1e-12)
            assert np.all(lo.values <= np.minimum(f.values, 1.0 / zeta)
                          + 1e-12)
            # grid-Lipschitz with constant 1/zeta
            for field in (u, lo):
                flat = field.values.ravel()
                d = np.sqrt(np.maximum(
                    ((centers[:, None, :] - centers[None, :, :]) ** 2)
                    .sum(-1), 0.0))
                gap = np.abs(flat[:, None] - flat[None, :])
                assert np.all(gap <= d / zeta + 1e-9)
            # idempotence
            assert np.allclose(bnd.upper_reg(u, zeta).values, u.values,
                               atol=1e-9)
            assert np.allclose(bnd.lower_reg(lo, zeta).values, lo.values,
                               atol=1e-9)
        # zeta-monotonicity, one direction per envelope
        assert np.all(bnd.upper_reg(f, 0.05).values
                      <= bnd.upper_reg(f, 0.2).values + 1e-12)
        assert np.all(bnd.lower_reg(f, 0.05).values
                      >= bnd.lower_reg(f, 0.2).values - 1e-12)
        # zeta -> 0 pointwise convergence away from discontinuities
        interior = np.abs(centers[:, 0] - 0.5) > 0.1 if "step" in build.__name__ \
            else np.ones(centers.shape[0], dtype=bool)
        errs = []
        for zeta in (0.2, 0.1, 0.05, 0.01):
            u = bnd.upper_reg(f, zeta)
            errs.append(float(np.max(np.abs(
                u.values.ravel()[interior] - f.values.ravel()[interior]))))
        assert errs[-1] <= 1e-9
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    wall = time.time() - t0
    assert wall < 60.0
    _report(9, f"envelope invariants hold on step and smooth fields, "
               f"{wall:.1f}s")


def test_c10_concentration_bounds():
    t0 = time.time()
    # (a) closed-form difference bound dominates the exact expectation
    for z in (0.5, 2.0 / 3.0):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            for n in range(1, 201):
                exact = stats.exact_binom_zeta_diff(n, p, z)
                assert stats.diff_bound(n, p, z) >= exact - 1e-12
    # (b) empirical exceedance under the regime bound, (c) mean under the
    # concavity cap with 3-sigma slack
    for m in (4, 16):
        for z in (0.5, 2.0 / 3.0):
            rep = stats.balls_bins_experiment(stats.BinExperiment(
                p=(1.0 / m,) * m, n=10_000, zeta_exp=z,
                trials=10_000, seed=SEED))
            assert rep.empirical_prob <= rep.theoretical_bound, \
                (m, z, rep.empirical_prob, rep.theoretical_bound)
            cap = 10_000 ** z * stats.sum_p_zeta((1.0 / m,) * m, z)
            assert rep.mean_y <= cap + 3.0 * rep.std_y / rep.trials ** 0.5, \
                (m, z, rep.mean_y, cap)
    wall = time.time() - t0
    assert wall < 300.0
    _report(10, f"3600 exact dominations, 4 experiments of 1e4 trials "
                f"under their bounds, {wall:.1f}s")


def test_c11_agility_estimation_ranges():
    t0 = time.time()
    est2 = agl.estimate_gamma(_euclid2(), (0.3, 0.4), agl.eps_ladder(0.4),
                              10_000, make_rng(SEED, "acc-ag2"))
    assert 1.9 <= est2.gamma_hat <= 2.1
    assert abs(est2.g_hat - math.pi) <= 0.1 * math.pi

    est3 = agl.estimate_gamma(dyn.make_model({"model": "euclidean3"}),
                              (0.0, 0.0, 0.0), agl.eps_ladder(0.4),
                              60_000, make_rng(SEED, "acc-ag3"),
                              resolution_fn=lambda e: e / 10.0)
    assert 2.85 <= est3.gamma_hat <= 3.15

    est_s = agl.estimate_gamma(
        dyn.make_model({"model": "scaled_euclidean2", "sigma": 2.0}),
        (0.0, 0.0), agl.eps_ladder(0.4), 20_000, make_rng(SEED, "acc-ags"))
    assert abs(est_s.g_hat - 4.0 * math.pi) <= 0.1 * 4.0 * math.pi

    # curvature-constrained target is derived, not tabulated: 3 +/- 0.2
    est_rs = agl.estimate_gamma(
        dyn.make_model({"model": "reeds_shepp"}), (0.0, 0.0, 0.0),
        agl.eps_ladder(0.4), 50_000, make_rng(SEED, "acc-agrs"),
        resolution_fn=lambda e: e * e / 8.0)
    assert abs(est_rs.gamma_hat - 3.0) <= 0.2
    wall = time.time() - t0
    assert wall < 300.0
    _report(11, f"gamma/g estimates in range for all four models, "
                f"{wall:.1f}s")


def test_c12_cbo_counts_respect_bound():
    t0 = time.time()
    model = _euclid2()
    f = bnd.uniform_density((0.0, 0.0), 1.0 / 64, (64, 64))
    g = bnd.GridField((0.0, 0.0), 1.0 / 64, np.full((64, 64), math.pi))
    cost = bnd.cost_field(f, g, 0.05, 2)
    _, beta = bnd.beta_constant(4, 2, symmetric=True)
    delta = 0.5
    for seed in range(100):
        rng = make_rng(SEED, "acc-cbo", seed)
        pts = bnd.sample_density(f, 64, rng)
        for lam in (0.25, 1.0):
            greedy = cbo.greedy_orienteering(model, cost, pts, lam,
                                             make_rng(SEED, "acc-cbo-s",
                                                      seed))
            assert greedy <= cbo.cbo_bound(beta, lam, 64, 2, delta)
        small = pts[:6]
        lam = 0.5
        greedy = cbo.greedy_orienteering(model, cost, small, lam,
                                         make_rng(SEED, "acc-cbo-b", seed))
        brute = cbo.brute_cbo_small(model, cost, small, lam)
        assert brute >= greedy
        assert brute <= cbo.cbo_bound(beta, lam, 6, 2, delta)
    wall = time.time() - t0
    assert wall < 300.0
    _report(12, f"greedy/brute counts under the ceiling at delta=0.5 "
                f"across 100 seeds, {wall:.1f}s")


def test_c13_solver_dominates_exact_small_instances():
    model = _euclid2()
    f = bnd.uniform_density((0.0, 0.0), 1.0 / 16, (16, 16))
    for seed in range(50):
        rng = make_rng(SEED, "acc-exact", seed)
        n = int(rng.integers(2, 9))
        pts = bnd.sample_density(f, n, rng)
        cover = hcs.build_cover(model, _unit_support(),
                                planner.default_eps0(n, 2), s=2)
        tour = planner.solve_dstsp(model, cover, pts)
        best = planner.exact_small_tsp(model, pts)
        assert tour.total_time >= best - 1e-9, \
            f"solver {tour.total_time} beat exact {best}"
    _report(13, "heuristic tour time >= exact optimum on 50 instances")


def test_c14_cli_determinism_across_threads(tmp_path):
    argv = ["run-dstsp", "--model", "euclidean2", "--density", "uniform",
            "--n", "256", "--seeds", "3", "--seed", "7"]
    blobs = []
    for tag, threads in (("a", 1), ("b", 3), ("c", 1)):
        out = tmp_path / f"{tag}.csv"
        rc = cli.main(argv + ["--threads", str(threads), "--out", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    rows = list(csv.DictReader(open(tmp_path / "a.csv")))
    assert len(rows) == 3
    _report(14, "CSV byte-identical across reruns and thread counts")
