"""dstsp-lab benchmark: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from ./src, so the
benchmark measures the checkout's own sources. A run repeats whole rounds of
the workload's operations until S seconds have passed (at least one round),
checks every round's outputs with bench/checks.py outside the timed part, and
prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json. With
--trace 1 an untraced warm-up round is followed by alternating traced and
untraced rounds; the traced rounds wrap the package's public functions from
outside (bench/spans.py) and give the per-module metrics, plus the tracing
overhead against the warm untraced rounds.
Spans are written to .bench_runs/trace-<workload>-<seed>.csv.
"""

import os
import time


def _process_age():
    """Seconds since this process started, from /proc; 0 where unknown."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


# process start on the perf_counter clock, taken before any other import
_T_START = time.perf_counter() - _process_age()

import argparse  # noqa: E402
import csv  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import spans  # noqa: E402

MODULES = ("agility", "bounds", "cbo", "cli", "dynamics", "hcp", "hcs",
           "planner", "reeds_shepp", "stats")


def _import_package():
    """The checkout's dstsp_lab modules, by name; never an installed copy."""
    src = (ROOT / "src").resolve()
    if not (src / "dstsp_lab" / "__init__.py").is_file():
        raise ImportError(f"no dstsp_lab package under {src}")
    sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"dstsp_lab.{m}") for m in MODULES}
    for mod in mods.values():
        if src not in Path(mod.__file__).resolve().parents:
            raise ImportError(f"{mod.__name__} imported from {mod.__file__}")
    return mods


class Round:
    """One round: its timed program calls, their CPU time, and outputs."""

    def __init__(self):
        self.timed = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.outputs = None

    def call(self, fn, *args, **kwargs):
        """Time one program call; a raised error counts as a failed op."""
        self.attempted += 1
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.timed += time.perf_counter() - start
            self.cpu += time.process_time() - cpu


# --- workloads ---------------------------------------------------------------
#
# A workload's constructor makes its inputs from the seed, with the
# benchmark's own generator; prepare() makes the program calls that build
# fixed state; run() is one round; check() returns (problems, tour ratios).

class CliTours:
    """CLI runs whose tours are captured from planner.solve_dstsp."""

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, mods, workdir):
        self.m = mods
        self.workdir = workdir
        self.tours = []
        self.fields = []
        spans.capture(mods["planner"], "solve_dstsp", self.tours)
        spans.capture(mods["bounds"], "interaction_integral", self.fields)

    def cli(self, rnd, name, argv):
        out = os.path.join(self.workdir, f"{name}.csv")
        argv = argv + ["--seed", str(self.seed), "--threads", "2",
                       "--assert", "--out", out]
        rc = rnd.call(self.m["cli"].main, argv)
        if rc != 0:
            if rc is not None:  # an exception was counted by call()
                rnd.failed += 1
            return []
        with open(out, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def run(self):
        self.tours.clear()
        self.fields.clear()
        rnd = Round()
        rnd.outputs = self.runs(rnd)
        return rnd

    def check_tours(self, model_id):
        """Tour checks for one model; (problems, [(tour, n), ...])."""
        problems = []
        found = []
        for args, _, tour in self.tours:
            model, cover, targets = args[:3]
            if model.model_id != model_id:
                continue
            pts = [tuple(float(v) for v in p) for p in targets]
            problems.extend(checks.check_tour(model, cover, tour, pts))
            found.append((tour, len(pts)))
        return problems, found


class TourUniform(CliTours):
    """run-dstsp, euclidean2, uniform density, n = 4096 and 16384."""

    def runs(self, rnd):
        return self.cli(rnd, "uniform",
                        ["run-dstsp", "--model", "euclidean2", "--density",
                         "uniform", "--n", "4096,16384", "--seeds", "1"])

    def check(self, rnd):
        rows = rnd.outputs
        problems, tours = self.check_tours("euclidean2")
        g = np.full((64, 64), math.pi)
        j = {"uniform": checks.interaction(np.ones((64, 64)), g, 2, 1 / 64)}
        problems += checks.check_rows(rows, tours, j, 2, alpha=1 / math.pi)
        return problems, [float(r["ratio"]) for r in rows]


class TourSteered(CliTours):
    """run-adversarial at its defaults and run-dstsp with the car, n = 256."""

    def runs(self, rnd):
        adv = self.cli(rnd, "adversarial", ["run-adversarial", "--n", "256",
                                            "--seeds", "1"])
        car = self.cli(rnd, "car", ["run-dstsp", "--model", "reeds_shepp",
                                    "--n", "256", "--seeds", "1"])
        return adv, car

    def check(self, rnd):
        adv, car = rnd.outputs
        h = 1 / 64
        # the CLI's default speed field: 64 x 64, 1 on the left half, 2 right
        sigma = np.ones((64, 64))
        sigma[32:, :] = 2.0
        g = math.pi * sigma ** 2
        inv = 1.0 / g
        dens = {"uniform": np.ones_like(g),
                "worst_case": inv / (inv.sum() * h * h),
                "prop_g": g / (g.sum() * h * h)}
        j = {k: checks.interaction(f, g, 2, h) for k, f in dens.items()}
        problems, tours = self.check_tours("scaled_euclidean2")
        problems += checks.check_rows(adv, tours, j, 2, alpha=1 / math.pi)
        cap = math.sqrt(math.fsum(inv.ravel()) * h * h)
        if not math.isclose(j["worst_case"], cap, rel_tol=1e-12):
            problems.append(f"worst-case J {j['worst_case']!r} misses the "
                            f"Holder cap {cap!r}")
        for row in adv:
            if row["density"] != "worst_case" and \
                    not float(row["J"]) < cap * (1 - 1e-9):
                problems.append(f"{row['density']} J {row['J']} not below "
                                f"the Holder cap {cap!r}")

        car_problems, car_tours = self.check_tours("reeds_shepp")
        problems += car_problems
        # the car's agility field is measured, so its J is checked against
        # the field the CLI measured, with the benchmark's own quadrature
        car_g = [args[1].values for args, _, _ in self.fields if args[2] == 3]
        if len(car_g) != 1 or car_g[0].min() != car_g[0].max() \
                or car_g[0].min() <= 0.0:
            problems.append("car agility field is not one positive constant")
        else:
            jc = {"uniform": checks.interaction(np.ones((64, 64)), car_g[0],
                                                3, h)}
            problems += checks.check_rows(car, car_tours, jc, 3)
        return problems, [float(r["ratio"]) for r in adv + car]


class TreeCollect:
    """hcp alone on c03-style instances, n log-uniform in [10, 1e5]."""

    COMBOS = ((4, 2), (9, 3), (8, 2), (27, 3))
    COUNT = 128

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.instances = []
        for k in range(self.COUNT):
            b, s = self.COMBOS[k % 4]
            # one n per log stratum keeps the round's total size steady
            n_want = int(10 ** (1.0 + 4.0 * (k + rng.random()) / self.COUNT))
            depth = 1
            while b ** depth < 4 * n_want:
                depth += 1
            raw = rng.integers(0, b, size=(n_want, depth))
            enc = np.unique(raw @ (b ** np.arange(depth)))
            digits = np.empty((len(enc), depth), dtype=np.int8)
            for lvl in range(depth):
                digits[:, lvl] = enc % b
                enc //= b
            self.instances.append((b, s, digits))

    def prepare(self, mods, workdir):
        self.hcp = mods["hcp"]
        self.params = {(b, s): self.hcp.HcpParams(b, s)
                       for b, s in self.COMBOS}

    def run(self):
        # each instance is checked as soon as it is solved, outside the
        # timed calls, so that only one instance's plan is alive at a time
        hcp = self.hcp
        rnd = Round()
        problems, ratios = [], []
        for b, s, digits in self.instances:
            targets = tuple(map(tuple, digits.tolist()))
            inst = rnd.call(hcp.HcpInstance, self.params[b, s], targets)
            if inst is None:
                continue
            cost = rnd.call(hcp.optimal_cost_fast, inst)
            plan = rnd.call(hcp.construct_optimal_plan, inst)
            paid = rnd.call(hcp.plan_cost, plan, inst) if plan else None
            if None in (cost, plan, paid):
                continue
            problems += checks.check_tree(digits, b, s, cost, plan, paid)
            ratios.append(cost / len(digits) ** (1 - math.log(s)
                                                 / math.log(b)))
        rnd.outputs = problems, ratios
        return rnd

    def check(self, rnd):
        return rnd.outputs


class FieldAnalysis:
    """agility, bounds, cbo, the subset DPs and stats: no tour involved."""

    INSTANCES = 100

    # (model, anchor, eps0, samples, box side over eps (None: eps/8 squared
    # for the car), gamma window, g reference, g tolerance). Windows are
    # c11's, except for the gridded speed field: there eps/10 boxes add a
    # boundary ring of about 9.5 % to the disc, so g gets 15 %.
    AGILITY = (
        ("euclidean2", (0.3, 0.4), 0.4, 10_000, 1 / 20,
         (1.9, 2.1), math.pi, 0.1),
        ("euclidean3", (0.0, 0.0, 0.0), 0.4, 60_000, 1 / 10,
         (2.85, 3.15), None, None),
        ("scaled2", (0.0, 0.0), 0.4, 20_000, 1 / 20,
         (1.9, 2.1), 4 * math.pi, 0.1),
        ("reeds_shepp", (0.0, 0.0, 0.0), 0.4, 50_000, None,
         (2.8, 3.2), None, None),
        ("scaled_grid", (0.25, 0.25), 0.1, 6_000, 1 / 10,
         (1.9, 2.1), math.pi, 0.15),
    )
    ZETA = 0.05
    CBO_DELTA = 0.5

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 4])
        self.seeds = [int(v) for v in rng.integers(1 << 62, size=6)]
        self.env_vals = rng.uniform(0.5, 4.0, size=(128, 128))
        self.cbo_pts = rng.random((self.INSTANCES, 64, 2))
        self.cbo_starts = [int(v) for v in
                           rng.integers(1 << 62, size=self.INSTANCES)]
        # 8 targets, one per cell of a 4 x 2 grid over the unit square
        corner = np.array([(i / 4, j / 2) for i in range(4)
                           for j in range(2)])
        jitter = rng.random((self.INSTANCES, 8, 2)) * (0.25, 0.5)
        self.tsp_pts = [[tuple(p) for p in corner + jit] for jit in jitter]
        self.check_cells = rng.integers(128 * 128, size=64)
        self.check_pairs = rng.integers(128 * 128, size=(4096, 2))
        self.perms = checks.permutations(8)

    def prepare(self, mods, workdir):
        self.m = mods
        dyn, bnd = mods["dynamics"], mods["bounds"]
        sigma = bnd.GridField((0.0, 0.0), 0.5, np.array([[1.0], [2.0]]))
        self.models = {
            "euclidean2": dyn.make_model({"model": "euclidean2"}),
            "euclidean3": dyn.make_model({"model": "euclidean3"}),
            "scaled2": dyn.make_model({"model": "scaled_euclidean2",
                                       "sigma": 2.0}),
            "reeds_shepp": dyn.make_model({"model": "reeds_shepp"}),
            "scaled_grid": dyn.make_model({"model": "scaled_euclidean2",
                                           "sigma": sigma}),
        }
        self.env = bnd.GridField((0.0, 0.0), 1 / 128, self.env_vals)
        self.f = bnd.uniform_density((0.0, 0.0), 1 / 64, (64, 64))
        self.g = bnd.GridField((0.0, 0.0), 1 / 64,
                               np.full((64, 64), math.pi))

    def run(self):
        agl, bnd, cbo = self.m["agility"], self.m["bounds"], self.m["cbo"]
        stats = self.m["stats"]
        rnd = Round()
        out = {}
        for k, (label, anchor, eps0, samples, side, *_) in \
                enumerate(self.AGILITY):
            res = (lambda e: e * e / 8) if side is None \
                else (lambda e, c=side: e * c)
            rng = np.random.default_rng(self.seeds[k])
            out[label] = rnd.call(agl.estimate_gamma, self.models[label],
                                  anchor, agl.eps_ladder(eps0), samples, rng,
                                  resolution_fn=res)
        out["upper"] = rnd.call(bnd.upper_reg, self.env, self.ZETA)
        out["lower"] = rnd.call(bnd.lower_reg, self.env, self.ZETA)
        cost = out["cost"] = rnd.call(bnd.cost_field, self.f, self.g,
                                      self.ZETA, 2)

        e2 = self.models["euclidean2"]
        out["cbo"] = []
        for pts, start in zip(self.cbo_pts, self.cbo_starts):
            # (targets, budget, count) as in c12: greedy on 64 targets at two
            # budgets, then greedy and exhaustive on the first 6
            row = []
            for lam in (0.25, 1.0):
                rng = np.random.default_rng(start)
                row.append((64, lam, rnd.call(cbo.greedy_orienteering, e2,
                                              cost, pts, lam, rng)))
            rng = np.random.default_rng(start + 1)
            row.append((6, 0.5, rnd.call(cbo.greedy_orienteering, e2, cost,
                                         pts[:6], 0.5, rng)))
            row.append((6, 0.5, rnd.call(cbo.brute_cbo_small, e2, cost,
                                         pts[:6], 0.5)))
            out["cbo"].append(row)
        out["tsp"] = [rnd.call(self.m["planner"].exact_small_tsp, e2, pts)
                      for pts in self.tsp_pts]
        out["bins"] = []
        for m in (4, 16):
            for z in (0.5, 2 / 3):
                exp = stats.BinExperiment(p=(1.0 / m,) * m, n=10_000,
                                          zeta_exp=z, trials=10_000,
                                          seed=self.seeds[5])
                out["bins"].append(
                    (exp, rnd.call(stats.balls_bins_experiment, exp)))
        out["binom"] = [((n, p, z), rnd.call(stats.exact_binom_zeta_diff,
                                             n, p, z))
                        for z in (0.5, 2 / 3)
                        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
                        for n in range(1, 201)]
        rnd.outputs = out
        return rnd

    def check(self, rnd):
        out = rnd.outputs
        problems = []
        for label, *_, gwin, g_ref, g_tol in self.AGILITY:
            est = out[label]
            if est is None:
                continue
            if not gwin[0] <= est.gamma_hat <= gwin[1]:
                problems.append(f"{label}: gamma_hat {est.gamma_hat:.4f} "
                                f"outside {gwin}")
            if g_ref is not None and abs(est.g_hat - g_ref) > g_tol * g_ref:
                problems.append(f"{label}: g_hat {est.g_hat:.4f} not within "
                                f"{g_tol:.0%} of {g_ref:.4f}")

        centers = checks.cell_centers(self.env_vals.shape, 1 / 128)
        for key, upper in (("upper", True), ("lower", False)):
            if out[key] is not None:
                problems += checks.check_envelope(
                    self.env_vals, centers, out[key].values, self.ZETA,
                    upper, self.check_cells, self.check_pairs)
        # cost_field lifts both factors to at least zeta: floor zeta^(2/2)
        if out["cost"] is not None and \
                np.any(out["cost"].values < self.ZETA - 1e-12):
            problems.append("cost field below its floor zeta^(2/gamma)")

        beta = checks.beta_constant(2)
        for row in out["cbo"]:
            for n, lam, count in row:
                ceiling = (1 + self.CBO_DELTA) * beta * lam * n ** 0.5
                if count is not None and count > ceiling:
                    problems.append(f"cbo count {count} above the ceiling "
                                    f"{ceiling:.3f} (n={n}, budget={lam})")
            greedy, brute = row[2][2], row[3][2]
            if None not in (greedy, brute) and brute < greedy:
                problems.append(f"brute count {brute} below greedy {greedy}")

        ratios = []
        # optimal open path over tour_time scale: n^(1/2) J, J = pi^(-1/2)
        scale = math.sqrt(8) / math.sqrt(math.pi)
        for pts, best in zip(self.tsp_pts, out["tsp"]):
            if best is None:
                continue
            own = checks.open_path_optimum(pts, self.perms)
            if not math.isclose(best, own, rel_tol=1e-9):
                problems.append(f"exact_small_tsp {best!r}, permutations "
                                f"give {own!r}")
            ratios.append(best / scale)

        for exp, rep in out["bins"]:
            if rep is None:
                continue
            if rep.trials != exp.trials:
                problems.append(f"{rep.trials} trials run, {exp.trials} asked")
            if rep.empirical_prob > rep.theoretical_bound:
                problems.append(f"exceedance {rep.empirical_prob} above bound "
                                f"{rep.theoretical_bound} (m={exp.m})")
            # concavity: E[Y] <= n^z sum_j p_j^z, with 3 sigma of slack
            cap = exp.n ** exp.zeta_exp * exp.m * exp.m ** -exp.zeta_exp
            if rep.mean_y > cap + 3.0 * rep.std_y / math.sqrt(rep.trials):
                problems.append(f"mean Y {rep.mean_y} above its cap {cap}")
        for (n, p, z), val in out["binom"]:
            if val is None:
                continue
            own = checks.binom_zeta_diff(n, p, z)
            ceiling = math.exp(-3 * n * p / 28) + 2 * z * (n * p) ** (z - 1)
            if not math.isclose(val, own, rel_tol=1e-9, abs_tol=1e-12) \
                    or val > ceiling + 1e-12:
                problems.append(f"binomial difference {val!r} at n={n} "
                                f"p={p} z={z:.3f}: own {own!r}, ceiling "
                                f"{ceiling!r}")
        return problems, ratios


WORKLOADS = {
    "tour-uniform": TourUniform,
    "tour-steered": TourSteered,
    "tree-collect": TreeCollect,
    "field-analysis": FieldAnalysis,
}


# --- traced metrics ----------------------------------------------------------

def _cells(cell):
    return 1 + sum(_cells(c) for c in cell.children)


def _plan_counts(args, kwargs, result):
    return (len(result), sum(1 for a in result if a[0] == "down"))


def _pairs(args, kwargs, result):
    return result.values.size ** 2


# (module, public attribute, what the span's extra records)
TRACED = (
    ("cli", "main", None),
    ("cli", "emit_report", None),
    ("cli", "write_manifest", None),
    ("planner", "solve_dstsp", None),
    ("planner", "roots_tour", lambda a, k, r: len(a[1])),
    ("planner", "exact_small_tsp", None),
    ("hcs", "build_cover", None),
    ("hcs", "locate_root", None),
    ("hcs", "locate_path", None),
    ("hcs", "build_hcs", lambda a, k, r: _cells(r)),
    ("hcs", "measure_alpha", None),
    ("hcp", "HcpInstance", lambda a, k, r: r.n),
    ("hcp", "optimal_cost_fast", None),
    ("hcp", "construct_optimal_plan", _plan_counts),
    ("hcp", "plan_cost", None),
    ("dynamics", "steer", lambda a, k, r: len(r.segments)),
    ("dynamics", "steer_to_point", None),
    ("dynamics", "reverse_trajectory", None),
    ("dynamics", "sample_reachable", lambda a, k, r: a[3]),
    ("reeds_shepp", "shortest_word", None),
    ("agility", "estimate_gamma", None),
    ("agility", "grid_volume", None),
    ("bounds", "upper_reg", _pairs),
    ("bounds", "lower_reg", _pairs),
    ("bounds", "cost_field", None),
    ("bounds", "sample_density", None),
    ("bounds", "interaction_integral", None),
    ("cbo", "greedy_orienteering", None),
    ("cbo", "brute_cbo_small", None),
    ("stats", "balls_bins_experiment", lambda a, k, r: r.trials),
    ("stats", "exact_binom_zeta_diff", None),
)


def layer_metrics(t, rounds):
    """Per-module metrics per traced round, from a spans.SpanTable.

    Times are summed span durations, so they count both CLI workers.
    """
    anchors = t.extra_sum("planner.roots_tour")
    roots_steers = len(t.under("dynamics.steer", "planner.roots_tour"))
    built = t.extra_sum("hcs.build_hcs")
    entered = sum(1 + s[5][1] for s in
                  t.under("hcp.construct_optimal_plan", "planner.solve_dstsp"))
    totals = {
        "cli.main_s": t.total("cli.main"),
        "cli.self_s": t.self_time("cli.main"),
        "cli.report_s": t.total("cli.emit_report")
        + t.total("cli.write_manifest"),
        "planner.solve_calls": t.calls("planner.solve_dstsp"),
        "planner.solve_s": t.total("planner.solve_dstsp"),
        "planner.solve_self_s": t.self_time("planner.solve_dstsp"),
        "planner.roots_tour_s": t.total("planner.roots_tour"),
        "planner.roots_tour_self_s": t.self_time("planner.roots_tour"),
        "planner.anchors": anchors,
        "planner.roots_tour_steers": roots_steers,
        "planner.exact_small_tsp_s": t.total("planner.exact_small_tsp"),
        "hcs.build_cover_s": t.total("hcs.build_cover"),
        "hcs.locate_root_calls": t.calls("hcs.locate_root"),
        "hcs.locate_root_s": t.total("hcs.locate_root"),
        "hcs.locate_path_calls": t.calls("hcs.locate_path"),
        "hcs.locate_path_s": t.total("hcs.locate_path"),
        "hcs.build_hcs_calls": t.calls("hcs.build_hcs"),
        "hcs.build_hcs_s": t.total("hcs.build_hcs"),
        "hcs.cells_built": built,
        "hcs.cells_entered": entered,
        "hcs.measure_alpha_s": t.total("hcs.measure_alpha"),
        "hcp.instances": t.calls("hcp.HcpInstance"),
        "hcp.targets": t.extra_sum("hcp.HcpInstance"),
        "hcp.instance_s": t.total("hcp.HcpInstance"),
        "hcp.cost_s": t.total("hcp.optimal_cost_fast"),
        "hcp.plan_s": t.total("hcp.construct_optimal_plan"),
        "hcp.plan_actions": t.extra_sum("hcp.construct_optimal_plan", 0),
        "hcp.plan_cost_s": t.total("hcp.plan_cost"),
        "dynamics.steer_calls": t.calls("dynamics.steer"),
        "dynamics.steer_self_s": t.self_time("dynamics.steer"),
        "dynamics.steer_segments": t.extra_sum("dynamics.steer"),
        "dynamics.steer_to_point_calls": t.calls("dynamics.steer_to_point"),
        "dynamics.reverse_calls": t.calls("dynamics.reverse_trajectory"),
        "dynamics.reverse_s": t.total("dynamics.reverse_trajectory"),
        "dynamics.sample_reachable_s": t.total("dynamics.sample_reachable"),
        "reeds_shepp.shortest_word_calls":
            t.calls("reeds_shepp.shortest_word"),
        "reeds_shepp.shortest_word_s": t.total("reeds_shepp.shortest_word"),
        "agility.estimate_gamma_s": t.total("agility.estimate_gamma"),
        "agility.samples": t.extra_sum("dynamics.sample_reachable"),
        "agility.grid_volume_s": t.total("agility.grid_volume"),
        "bounds.envelope_s": t.total("bounds.upper_reg")
        + t.total("bounds.lower_reg"),
        "bounds.envelope_pairs": t.extra_sum("bounds.upper_reg")
        + t.extra_sum("bounds.lower_reg"),
        "bounds.cost_field_s": t.total("bounds.cost_field"),
        "bounds.sample_density_s": t.total("bounds.sample_density"),
        "bounds.interaction_integral_s":
            t.total("bounds.interaction_integral"),
        "cbo.greedy_s": t.total("cbo.greedy_orienteering"),
        "cbo.brute_s": t.total("cbo.brute_cbo_small"),
        "stats.balls_bins_s": t.total("stats.balls_bins_experiment"),
        "stats.trials": t.extra_sum("stats.balls_bins_experiment"),
        "stats.exact_binom_s": t.total("stats.exact_binom_zeta_diff"),
    }
    out = {}
    for name, value in totals.items():
        if isinstance(value, int):
            if value % rounds:
                raise RuntimeError(f"{name}: {value} is not the same count "
                                   f"in each of {rounds} rounds")
            out[name] = value // rounds
        else:
            out[name] = value / rounds
    out["planner.steers_per_anchor"] = roots_steers / anchors if anchors \
        else 0.0
    out["hcs.cells_entered_per_built"] = entered / built if built else 0.0
    return out


# --- driver ------------------------------------------------------------------

def _traced_round(mods, workload, recorder):
    for mod, attr, count in TRACED:
        recorder.wrap(mods[mod], attr, f"{mod}.{attr}", count)
    try:
        return workload.run()
    finally:
        recorder.restore()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        mods = _import_package()
    except ImportError as err:
        print(f"cannot import the package: {err}", file=sys.stderr)
        return 2

    runs_dir = ROOT / ".bench_runs"
    runs_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        return _measure(args, spec, mods, workdir, runs_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, spec, mods, workdir, runs_dir):
    gen_start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    gen_s = time.perf_counter() - gen_start
    workload.prepare(mods, workdir)
    # set-up runs from process start to the first timed call, less the
    # benchmark's own input generation
    setup_s = time.perf_counter() - _T_START - gen_s

    # With tracing, round 0 is an untraced warm-up (a process's first round
    # runs slower) and traced and untraced rounds then alternate, so the
    # overhead compares warm rounds only.
    recorder = spans.Recorder() if args.trace else None
    walls = {False: [], True: []}
    cpus = []
    attempted = failed = 0
    problems = []
    ratios = None
    peak_rss = 0.0
    started = time.perf_counter()
    for k in itertools.count():
        traced = bool(args.trace) and k % 2 == 1
        rnd = _traced_round(mods, workload, recorder) if traced \
            else workload.run()
        walls[traced].append(rnd.timed)
        if not traced:
            cpus.append(rnd.cpu)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted += rnd.attempted
        failed += rnd.failed
        found, round_ratios = workload.check(rnd)
        problems += found
        if ratios is None:
            ratios = round_ratios
        elif round_ratios != ratios:
            problems.append("a round's outputs differ from the first round's")
        if time.perf_counter() - started >= args.seconds and \
                (not args.trace or (k >= 2 and not traced)):
            break

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        values = layer_metrics(spans.SpanTable(recorder.spans),
                               len(walls[True]))
        values["process.cpu_s"] = statistics.median(cpus[1:])
        values["process.tracing_overhead_s"] = (
            statistics.median(walls[True])
            - statistics.median(walls[False][1:]))
        recorder.write(runs_dir / f"trace-{args.workload}-{args.seed}.csv")
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": peak_rss,
            "tour_ratio": statistics.fmean(ratios) if ratios else 0.0,
        }
        declared = spec["end_to_end"]
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ names)}")
    result = {
        "correct": not problems and bool(ratios),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
