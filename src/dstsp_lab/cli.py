"""Experiment front end: config resolution, subcommand dispatch, file emission.

Every subcommand resolves an ExperimentConfig (defaults, then a JSON config
file, then explicit flags, flags winning), runs its experiment with seeded
substreams, and writes a delimited report plus a JSON run manifest. Outputs
are a pure function of (config, seed): same inputs give byte-identical files.
Experiments run serially; the threads field is validated and echoed in the
manifest as an execution field but starts no workers.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import agility
from . import bounds as bnd
from . import cbo
from . import dynamics as dyn
from . import hcp
from . import hcs
from . import planner
from . import stats
from .errors import ConfigError
from .seeding import make_rng

SUBCOMMANDS = ("estimate-agility", "build-cover", "run-dstsp",
               "run-adversarial", "hcp-solve", "check-bounds", "cbo-check",
               "concentration")

DENSITY_PRESETS = ("uniform", "linear_x", "worst_case", "prop_g")

_DEFAULTS = {
    "model": {"model": "euclidean2"},
    "density": "uniform",
    "n": (256,),
    "seeds": 3,
    "seed": 0,
    "delta": 0.1,
    "zeta": 0.05,
    "eps0": None,
    "threads": None,
    "out": "report.csv",
    "format": "csv",
    "assert_checks": False,
    "extras": {},
}


# --- configuration --------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    model: dict
    density: str
    n: tuple
    seeds: int
    seed: int
    delta: float
    zeta: float
    eps0: object
    threads: int
    out: str
    format: str
    assert_checks: bool
    extras: dict

    def validate(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ConfigError(f"field 'subcommand': unknown {self.subcommand!r}")
        if not self.n:
            raise ConfigError("field 'n': list must be nonempty")
        if any(int(v) <= 0 for v in self.n):
            raise ConfigError("field 'n': entries must be positive")
        if list(self.n) != sorted(set(int(v) for v in self.n)):
            raise ConfigError("field 'n': entries must be strictly ascending")
        if self.seed < 0:
            raise ConfigError("field 'seed': must be >= 0")
        if self.seeds < 1:
            raise ConfigError("field 'seeds': must be >= 1")
        if self.delta <= 0.0:
            raise ConfigError("field 'delta': must be positive")
        if self.zeta <= 0.0:
            raise ConfigError("field 'zeta': must be positive")
        if self.eps0 is not None and float(self.eps0) <= 0.0:
            raise ConfigError("field 'eps0': must be positive")
        if self.threads < 1:
            raise ConfigError("field 'threads': must be >= 1")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"field 'format': unknown {self.format!r}")
        if not isinstance(self.model, dict) or "model" not in self.model:
            raise ConfigError("field 'model': needs a 'model' key")


def _parse_n(text):
    try:
        return tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as err:
        raise ConfigError(f"field 'n': {err}") from err


def _default_threads():
    try:
        return max(1, int(os.environ.get("DSTSP_LAB_THREADS", 1)))
    except ValueError as err:
        raise ConfigError(f"env DSTSP_LAB_THREADS: {err}") from err


def resolve_config(subcommand, args):
    """Layer defaults <- JSON config file <- explicit flags; flags win."""
    merged = {k: (dict(v) if isinstance(v, dict) else v)
              for k, v in _DEFAULTS.items()}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as err:
            raise ConfigError(f"config file: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(
                f"config file line {err.lineno}: {err.msg}") from err
        if not isinstance(loaded, dict):
            raise ConfigError("config file: top level must be an object")
        for key, val in loaded.items():
            if key == "model":
                if isinstance(val, str):
                    val = {"model": val}
                if not isinstance(val, dict):
                    raise ConfigError("field 'model': string or object")
                merged["model"].update(val)
            elif key == "n":
                merged["n"] = tuple(int(v) for v in val) \
                    if isinstance(val, (list, tuple)) else _parse_n(val)
            elif key == "extras":
                if not isinstance(val, dict):
                    raise ConfigError("field 'extras': must be an object")
                merged["extras"].update(val)
            elif key in merged:
                merged[key] = val
            else:
                raise ConfigError(f"config file: unknown field {key!r}")

    if args.model is not None:
        merged["model"].update({"model": args.model})
    if args.density is not None:
        merged["density"] = args.density
    if args.n is not None:
        merged["n"] = _parse_n(args.n)
    for flag in ("seeds", "seed", "delta", "zeta", "eps0", "out", "format"):
        val = getattr(args, flag)
        if val is not None:
            merged[flag] = val
    if args.threads is not None:
        merged["threads"] = args.threads
    if merged["threads"] is None:
        merged["threads"] = _default_threads()
    if getattr(args, "assert_checks", False):
        merged["assert_checks"] = True
    if getattr(args, "instance", None) is not None:
        merged["extras"]["instance"] = args.instance

    cfg = ExperimentConfig(
        subcommand=subcommand,
        model=merged["model"],
        density=str(merged["density"]),
        n=tuple(int(v) for v in merged["n"]),
        seeds=int(merged["seeds"]),
        seed=int(merged["seed"]),
        delta=float(merged["delta"]),
        zeta=float(merged["zeta"]),
        eps0=merged["eps0"],
        threads=int(merged["threads"]),
        out=str(merged["out"]),
        format=str(merged["format"]),
        assert_checks=bool(merged["assert_checks"]),
        extras=dict(merged["extras"]),
    )
    cfg.validate()
    return cfg


# --- report emission ------------------------------------------------------

def _fmt_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def emit_report(records, path, format="csv", header=None):
    """Stream homogeneous records to CSV (LF, '.'-decimal) or a JSON array.

    Records are mappings; the column order is the header argument when
    given, otherwise the first record's key order. An empty stream with a
    header still produces the header row.
    """
    it = iter(records)
    first = next(it, None)
    if header is None:
        if first is None:
            raise ValueError("cannot infer a header from an empty stream")
        header = list(first.keys())

    def rows():
        if first is not None:
            yield first
        yield from it

    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for rec in rows():
                writer.writerow([_fmt_cell(rec[k]) for k in header])
    elif format == "json":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("[")
            for i, rec in enumerate(rows()):
                fh.write(",\n " if i else "\n ")
                fh.write(json.dumps({k: rec[k] for k in header},
                                    default=_json_default))
            fh.write("\n]\n" if first is not None else "]\n")
    else:
        raise ValueError(f"unknown format {format!r}")


def _json_default(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    raise TypeError(f"not JSON serializable: {type(v)!r}")


def _sha256_bytes(data):
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _manifest_path(out):
    stem, _ = os.path.splitext(out)
    return stem + ".manifest.json"


# config fields that say how a run executes, not what it computes
_EXECUTION_FIELDS = ("threads", "out")


def write_manifest(cfg, out_paths, input_paths=()):
    """Config echo plus content hashes of every input and output file.

    resolved_config hashes the experiment fields only, so runs that differ
    in worker count or output path but compute the same reports share it.
    """
    echo = dataclasses.asdict(cfg)
    echo["n"] = list(cfg.n)
    experiment = {k: v for k, v in echo.items()
                  if k not in _EXECUTION_FIELDS}
    canonical = json.dumps(experiment, sort_keys=True, default=_json_default)
    manifest = {
        "subcommand": cfg.subcommand,
        "config": echo,
        "inputs": {"resolved_config": _sha256_bytes(canonical.encode())},
        "outputs": {},
    }
    for p in input_paths:
        manifest["inputs"][os.path.basename(p)] = _sha256_file(p)
    for p in out_paths:
        manifest["outputs"][p] = _sha256_file(p)
    path = _manifest_path(cfg.out)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True,
                  default=_json_default)
        fh.write("\n")
    return path


# --- shared experiment plumbing -------------------------------------------

_GRID_DIMS = (64, 64)


def _extra(cfg, key, default, convert):
    """extras[key], or default when absent, passed through convert; a value
    convert rejects is a ConfigError naming the field."""
    try:
        return convert(cfg.extras.get(key, default))
    except (IndexError, TypeError, ValueError) as err:
        raise ConfigError(f"field 'extras.{key}': {err}") from err


def _int_within(lo, hi=math.inf):
    """Converter for an integer extra that must lie in [lo, hi]."""
    def convert(val):
        if not lo <= int(val) <= hi:
            raise ValueError(f"must lie in [{lo}, {hi}], got {val!r}")
        return int(val)
    return convert


def _float_where(ok, what):
    """Converter for a real extra for which ok(value) must hold."""
    def convert(val):
        if not ok(float(val)):
            raise ValueError(f"must be {what}, got {val!r}")
        return float(val)
    return convert


def _floats(vals):
    return tuple(float(v) for v in vals)


def _grid_shape(vals):
    shape = tuple(int(v) for v in vals)
    if len(shape) != 2 or min(shape) < 1:
        raise ValueError(f"need two positive cell counts, got {vals!r}")
    return shape


def _density_file(path):
    """Normalized density from a grid-field file; a file that does not parse
    as one is a ConfigError naming the density field."""
    try:
        return bnd.normalize_density(bnd.field_from_file(path))
    except (OSError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"field 'density': {path}: "
                          f"{type(err).__name__}: {err}") from err


def _closed_form_g(model, grid, cfg):
    """Agility field on the grid: closed form where known, measured else."""
    mid = model.model_id
    speed = dyn.closed_form_speed(model)
    if mid in ("euclidean2", "scaled_euclidean2") and speed is not None:
        vals = np.full(grid.dims, math.pi * speed ** 2)
    elif mid == "scaled_euclidean2":
        vals = np.empty(grid.dims)
        for i in range(grid.dims[0]):
            for j in range(grid.dims[1]):
                cx = grid.origin[0] + (i + 0.5) * grid.cell_size
                cy = grid.origin[1] + (j + 0.5) * grid.cell_size
                s = model.sigma.value_at((cx, cy))
                vals[i, j] = math.pi * (model.c_pi * s) ** 2
    elif mid == "reeds_shepp":
        # No closed form: measure once at the grid center and broadcast
        # (the model is spatially homogeneous).
        n_samples = _extra(cfg, "g_samples", 3000, _int_within(1))
        cx = grid.origin[0] + grid.dims[0] * grid.cell_size / 2.0
        cy = grid.origin[1] + grid.dims[1] * grid.cell_size / 2.0
        best, _ = agility.cell_agility(model, (cx, cy), 0.05, n_samples,
                                       cfg.seed, ("g-field",))
        vals = np.full(grid.dims, best.g_hat)
    else:
        raise ConfigError(f"field 'model': no planar agility field for {mid!r}")
    return bnd.GridField(grid.origin, grid.cell_size, vals)


def _density_field(cfg, g_field):
    name = cfg.density
    if name == "uniform":
        return bnd.uniform_density(g_field.origin, g_field.cell_size,
                                   g_field.dims)
    if name == "linear_x":
        vals = np.empty(g_field.dims)
        for i in range(g_field.dims[0]):
            cx = g_field.origin[0] + (i + 0.5) * g_field.cell_size
            vals[i, :] = 2.0 * cx
        return bnd.normalize_density(
            bnd.GridField(g_field.origin, g_field.cell_size, vals))
    if name == "worst_case":
        return bnd.worst_case_density(g_field)
    if name == "prop_g":
        return bnd.normalize_density(g_field.with_values(
            np.array(g_field.values, dtype=float, copy=True)))
    raise ConfigError(
        f"field 'density': {name!r} is neither a preset "
        f"{DENSITY_PRESETS} nor an existing file")


def _support(field):
    mins = tuple(field.origin)
    maxs = tuple(field.origin[k] + field.dims[k] * field.cell_size
                 for k in range(len(field.dims)))
    return mins, maxs


def _measured_alpha(cfg, model, cover, g_field):
    cell = cover.roots[0]
    g_hat = float(g_field.value_at(cell.anchor[:2]))
    rng = make_rng(cfg.seed, "alpha-audit")
    return hcs.measure_alpha(cell, model, g_hat, 400, rng)


def _sigma_grid_from_extras(cfg):
    spec = cfg.extras.get("sigma_grid")
    if spec is None:
        vals = np.ones(_GRID_DIMS)
        vals[_GRID_DIMS[0] // 2:, :] = 2.0
        return bnd.GridField((0.0, 0.0), 1.0 / _GRID_DIMS[0], vals)
    try:
        return bnd.GridField(tuple(spec["origin"]), float(spec["cell_size"]),
                             np.asarray(spec["values"], dtype=float))
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"field 'extras.sigma_grid': {err}") from err


# --- subcommands ----------------------------------------------------------

def _cmd_run_dstsp(cfg, model=None, densities=None):
    if model is None:
        model = dyn.make_model(cfg.model)
    names = densities if densities is not None else [cfg.density]

    # A density file fixes the grid geometry; presets use the default.
    loaded = None
    if (len(names) == 1 and names[0] not in DENSITY_PRESETS
            and os.path.exists(names[0])):
        loaded = _density_file(names[0])
        grid = bnd.GridField(loaded.origin, loaded.cell_size,
                             np.zeros(loaded.dims))
    else:
        grid = bnd.unit_square_grid(_GRID_DIMS)
    g_field = _closed_form_g(model, grid, cfg)
    gamma = hcs.model_gamma(model)

    fields = {}
    for name in names:
        fields[name] = loaded if loaded is not None else _density_field(
            dataclasses.replace(cfg, density=name), g_field)
    support = _support(g_field)

    rows = []
    for name in names:
        f = fields[name]
        j_val = bnd.interaction_integral(f, g_field, gamma)
        for n in cfg.n:
            eps0 = float(cfg.eps0) if cfg.eps0 is not None \
                else planner.default_eps0(n, gamma)
            cover = hcs.build_cover(model, support, eps0, s=2)
            alpha = _measured_alpha(cfg, model, cover, g_field)
            scale = n ** (1.0 - 1.0 / gamma) * j_val
            for trial in range(cfg.seeds):
                rng = make_rng(cfg.seed, "run-dstsp", name, n, trial)
                pts = bnd.sample_density(f, n, rng)
                tour = planner.solve_dstsp(model, cover, pts)
                rows.append({
                    "seed": trial, "model": model.model_id, "density": name,
                    "n": n, "tour_time": tour.total_time, "J": j_val,
                    "ratio": tour.total_time / scale if scale > 0 else 0.0,
                    "eps0": eps0, "alpha_hat": alpha,
                })

    header = ["seed", "model", "density", "n", "tour_time", "J", "ratio",
              "eps0", "alpha_hat"]
    emit_report(rows, cfg.out, cfg.format, header)

    failures = []
    if cfg.assert_checks:
        _, beta = bnd.beta_constant(2 ** gamma, gamma, model.symmetric)
        for row in rows:
            lo = (1.0 - cfg.delta) / beta
            hi = (1.0 + cfg.delta) * 12.0 * 2 * row["alpha_hat"] ** (-1.0 / gamma)
            if not lo <= row["ratio"] <= hi:
                failures.append(
                    f"ratio {row['ratio']:.4f} outside [{lo:.4f}, {hi:.4f}] "
                    f"at n={row['n']} density={row['density']} "
                    f"seed={row['seed']}")
    return rows, failures


def _cmd_run_adversarial(cfg):
    # a JSON config cannot carry a grid: the field always comes from extras
    spec = dict(cfg.model)
    if spec.get("model") != "scaled_euclidean2":
        spec = {"model": "scaled_euclidean2"}
    spec["sigma"] = _sigma_grid_from_extras(cfg)
    model = dyn.make_model(spec)
    rows, failures = _cmd_run_dstsp(
        cfg, model=model, densities=["worst_case", "uniform", "prop_g"])
    if cfg.assert_checks and cfg.seeds >= 5:
        med = {}
        for name in ("worst_case", "uniform", "prop_g"):
            for n in cfg.n:
                times = [r["tour_time"] for r in rows
                         if r["density"] == name and r["n"] == n]
                med[(name, n)] = float(np.median(times))
        for n in cfg.n:
            worst = med[("worst_case", n)]
            for other in ("uniform", "prop_g"):
                if worst < med[(other, n)]:
                    failures.append(
                        f"worst-case median {worst:.4f} below {other} "
                        f"median {med[(other, n)]:.4f} at n={n}")
    return rows, failures


def _cmd_estimate_agility(cfg):
    model = dyn.make_model(cfg.model)
    cells = _extra(cfg, "cells", (2, 2), _grid_shape)
    n_samples = _extra(cfg, "n_samples", 4000, _int_within(1))
    headings = _extra(cfg, "headings", 8, _int_within(1))
    eps0 = float(cfg.eps0) if cfg.eps0 is not None else 0.05
    geometry = bnd.GridField((0.0, 0.0), 1.0 / cells[0],
                             np.zeros(cells))
    rng = make_rng(cfg.seed, "estimate-agility")
    _, records = agility.agility_field(model, geometry, eps0, n_samples,
                                       rng, headings=headings)
    header = ["model", "x", "y", "eps", "volume", "gamma_hat", "g_hat", "r2"]
    emit_report(records, cfg.out, cfg.format, header)

    failures = []
    if cfg.assert_checks:
        for rec in records:
            if not 1.8 <= rec["gamma_hat"] <= 3.3:
                failures.append(
                    f"gamma_hat {rec['gamma_hat']:.3f} out of range at "
                    f"({rec['x']:.3f}, {rec['y']:.3f})")
            if rec["r2"] < 0.9:
                failures.append(f"fit r2 {rec['r2']:.3f} below 0.9")
    return records, failures


def _cmd_build_cover(cfg):
    model = dyn.make_model(cfg.model)
    eps0 = float(cfg.eps0) if cfg.eps0 is not None \
        else planner.default_eps0(int(cfg.n[0]), hcs.model_gamma(model))
    support = _extra(cfg, "support", ((0.0, 0.0), (1.0, 1.0)),
                     lambda v: (_floats(v[0]), _floats(v[1])))
    cover = hcs.build_cover(model, support, eps0, s=2)
    obj = hcs.cover_to_json(cover)
    with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")

    failures = []
    if cfg.assert_checks:
        back = hcs.cover_from_json(obj)
        if hcs.cover_to_json(back) != obj:
            failures.append("cover JSON does not round-trip")
    return obj, failures


def _cmd_hcp_solve(cfg):
    path = cfg.extras.get("instance")
    if path is None:
        raise ConfigError("field 'extras.instance': hcp-solve needs "
                          "--instance pointing at an instance JSON file")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            instance = hcp.instance_from_json(json.load(fh))
    except OSError as err:
        raise ConfigError(f"field 'extras.instance': {err}") from err
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"field 'extras.instance': bad instance: {err}") \
            from err
    plan = hcp.construct_optimal_plan(instance)
    cost = hcp.plan_cost(plan, instance)
    result = {"cost": cost, "plan": hcp.plan_to_json(plan),
              "n_targets": len(instance.targets)}
    with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    failures = []
    if cfg.assert_checks:
        depth = max((len(t) for t in instance.targets), default=0)
        if (len(instance.targets) <= 5 and depth <= 3
                and instance.params.branch_factor <= 4):
            _, best_cost = hcp.brute_force_optimal(instance,
                                                   depth_limit=depth + 1)
            if abs(best_cost - cost) > 1e-9:
                failures.append(
                    f"constructive cost {cost} differs from brute "
                    f"optimum {best_cost}")
    return result, failures


def _cmd_check_bounds(cfg):
    nonnegative = _float_where(lambda v: v >= 0.0, ">= 0")
    gamma = _extra(cfg, "gamma", 2.0, _float_where(lambda v: v > 1.0, "> 1"))
    s = _extra(cfg, "s", 2, _int_within(2))
    if "beta" in cfg.extras:
        beta = _extra(cfg, "beta", None,
                      _float_where(lambda v: v > 0.0, "> 0"))
    else:
        b = _extra(cfg, "b", s ** gamma,
                   _float_where(lambda v: v >= 2.0, ">= 2"))
        _, beta = bnd.beta_constant(b, gamma,
                                    _extra(cfg, "symmetric", True, bool))
    report = bnd.bound_report(
        n=int(cfg.n[0]), delta=cfg.delta, beta=beta, s=s,
        alpha=_extra(cfg, "alpha", 1.0,
                     _float_where(lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
        gamma=gamma, J=_extra(cfg, "j", 1.0, nonnegative),
        int_g_inv=_extra(cfg, "int_g_inv", 1.0, nonnegative))
    obj = dataclasses.asdict(report)
    with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")

    failures = []
    if cfg.assert_checks:
        if report.lower > report.upper:
            failures.append("lower bound exceeds upper bound")
        if report.adversarial_lower > report.adversarial_upper:
            failures.append("adversarial lower bound exceeds upper bound")
    return obj, failures


def _cmd_cbo_check(cfg):
    model = dyn.make_model(cfg.model)
    if model.model_id != "euclidean2":
        raise ConfigError("field 'model': cbo-check runs on euclidean2")
    grid = bnd.unit_square_grid(_GRID_DIMS)
    g_field = _closed_form_g(model, grid, cfg)
    f = _density_field(dataclasses.replace(cfg, density="uniform"), g_field)
    gamma = hcs.model_gamma(model)
    cost = bnd.cost_field(f, g_field, cfg.zeta, gamma)
    _, beta = bnd.beta_constant(2 ** gamma, gamma, model.symmetric)
    lambdas = _extra(cfg, "lambdas", (0.25, 0.5, 1.0), _floats)

    rows = []
    for n in cfg.n:
        for trial in range(cfg.seeds):
            pts = bnd.sample_density(f, n, make_rng(cfg.seed, "cbo-check", n,
                                                    trial))
            for lam in lambdas:
                greedy = cbo.greedy_orienteering(
                    model, cost, pts, lam,
                    make_rng(cfg.seed, "cbo-start", n, trial))
                brute = cbo.brute_cbo_small(model, cost, pts, lam) \
                    if n <= 8 else -1
                bound = cbo.cbo_bound(beta, lam, n, gamma, cfg.delta)
                rows.append({"seed": trial, "n": n, "lambda": lam,
                             "greedy": greedy, "brute": brute,
                             "bound": bound})

    header = ["seed", "n", "lambda", "greedy", "brute", "bound"]
    emit_report(rows, cfg.out, cfg.format, header)

    failures = []
    if cfg.assert_checks:
        for row in rows:
            if row["greedy"] > row["bound"]:
                failures.append(
                    f"greedy count {row['greedy']} exceeds bound "
                    f"{row['bound']:.4f} at n={row['n']} "
                    f"lambda={row['lambda']} seed={row['seed']}")
            if row["brute"] >= 0 and row["brute"] < row["greedy"]:
                failures.append(
                    f"brute count {row['brute']} below greedy "
                    f"{row['greedy']} at n={row['n']} seed={row['seed']}")
            if row["brute"] >= 0 and row["brute"] > row["bound"]:
                failures.append(
                    f"brute count {row['brute']} exceeds bound "
                    f"{row['bound']:.4f} at n={row['n']} seed={row['seed']}")
    return rows, failures


def _cmd_concentration(cfg):
    ms = _extra(cfg, "m", (4, 16), lambda v: tuple(map(_int_within(1), v)))
    zeta = _float_where(lambda v: 0.0 < v < 1.0, "in (0, 1)")
    zetas = _extra(cfg, "zeta_exp", (0.5, 2.0 / 3.0),
                   lambda v: tuple(map(zeta, v)))
    trials = _extra(cfg, "trials", 1000, _int_within(1000, 100_000))
    rows = []
    for m in ms:
        for z in zetas:
            for n in cfg.n:
                exp = stats.BinExperiment(p=(1.0 / m,) * m, n=int(n),
                                          zeta_exp=z, trials=trials,
                                          seed=cfg.seed)
                rep = stats.balls_bins_experiment(exp)
                rows.append({
                    "regime": rep.regime, "m": m, "n": int(n), "zeta": z,
                    "trials": trials, "empirical": rep.empirical_prob,
                    "bound": rep.theoretical_bound,
                })
    header = ["regime", "m", "n", "zeta", "trials", "empirical", "bound"]
    emit_report(rows, cfg.out, cfg.format, header)

    failures = []
    if cfg.assert_checks:
        for row in rows:
            slack = 3.0 / row["trials"]
            if row["empirical"] > row["bound"] + slack:
                failures.append(
                    f"empirical exceedance {row['empirical']} above bound "
                    f"{row['bound']:.3e} + {slack:.1e} at m={row['m']} "
                    f"zeta={row['zeta']} n={row['n']}")
    return rows, failures


_HANDLERS = {
    "run-dstsp": _cmd_run_dstsp,
    "run-adversarial": _cmd_run_adversarial,
    "estimate-agility": _cmd_estimate_agility,
    "build-cover": _cmd_build_cover,
    "hcp-solve": _cmd_hcp_solve,
    "check-bounds": _cmd_check_bounds,
    "cbo-check": _cmd_cbo_check,
    "concentration": _cmd_concentration,
}


def run(cfg):
    """Run one resolved config; returns the process exit code."""
    cfg.validate()
    _, failures = _HANDLERS[cfg.subcommand](cfg)
    inputs = []
    for key in ("instance",):
        p = cfg.extras.get(key)
        if p is not None and os.path.exists(str(p)):
            inputs.append(str(p))
    if cfg.density not in DENSITY_PRESETS and os.path.exists(cfg.density):
        inputs.append(cfg.density)
    write_manifest(cfg, [cfg.out], inputs)
    if failures:
        for msg in failures:
            print(f"assertion failed: {msg}", file=sys.stderr)
        return 1
    return 0


# --- argument parsing ------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="dstsp-lab",
        description="Tour-scaling experiments for dynamic vehicles: "
                    "hierarchical covers, tour construction, bound and "
                    "concentration checks.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config file; explicit flags override it")
        p.add_argument("--model", default=None,
                       help="model id: euclidean2, euclidean3, "
                            "scaled_euclidean2, reeds_shepp, diff_drive")
        p.add_argument("--density", default=None,
                       help="preset (uniform, linear_x, worst_case, prop_g) "
                            "or a grid-field file")
        p.add_argument("--n", default=None,
                       help="comma-separated ascending target counts")
        p.add_argument("--seeds", type=int, default=None,
                       help="number of trials per configuration")
        p.add_argument("--seed", type=int, default=None, help="base seed")
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--zeta", type=float, default=None)
        p.add_argument("--eps0", type=float, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and recorded in the manifest; runs "
                            "are serial and start no workers (default: "
                            "DSTSP_LAB_THREADS, else 1)")
        p.add_argument("--assert", dest="assert_checks", action="store_true",
                       help="exit nonzero if any acceptance property fails")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", default=None, choices=("csv", "json"))
        if name == "hcp-solve":
            p.add_argument("--instance", default=None,
                           help="collection-instance JSON file")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.subcommand, args)
        return run(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
