"""Monte-Carlo estimation of the reachable-volume growth law.

For a vehicle at configuration q, the workspace volume of the time-eps
reachable set grows like g * eps^gamma as eps shrinks. This module estimates
gamma (log-log slope over a geometric eps ladder) and g (volume ratio at the
smallest scales) from sampled reachable points, using an occupancy grid as
the volume oracle. Occupancy grids stay unbiased on nonconvex reachable sets,
which rules out convex hulls; the price is sample count.

agility_field maps a workspace grid cell by cell. For models with a heading,
the per-cell value takes the max over a small set of sampled headings (the
estimates agree within noise for all implemented models, so this realizes
the supremum cheaply).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from .bounds import GridField
from .errors import DegenerateFit, EmptyPointSet
from .seeding import make_rng

_TWO_PI = 2.0 * math.pi


def grid_volume(points, resolution):
    """Occupied-box volume: count distinct boxes of side `resolution`
    containing at least one point, times box volume."""
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyPointSet("no points to measure")
    if pts.ndim == 1:
        pts = pts[:, None]
    boxes = np.unique(np.floor(pts / resolution).astype(np.int64), axis=0)
    return float(boxes.shape[0]) * resolution ** pts.shape[1]


def eps_ladder(eps0, count=5, factor=2.0):
    """Geometric ladder eps0 * factor^-k, k = 0..count-1."""
    return [eps0 * factor ** -k for k in range(count)]


def default_resolution(eps):
    return eps / 20.0


@dataclass(frozen=True)
class AgilityEstimate:
    gamma_hat: float
    g_hat: float
    epsilons: tuple
    volumes: tuple
    fit_r2: float


def _log_log_fit(eps, volumes):
    x = np.log(np.asarray(eps))
    y = np.log(np.asarray(volumes))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def estimate_gamma(model, q, eps_list, n_samples, rng, resolution_fn=None):
    """Fit the volume growth law over an eps ladder.

    All ladder rungs reuse the same control draws (durations scale with
    eps), which keeps the sampled sets nested for the euclidean models.
    resolution_fn maps eps to the occupancy-box side; the default eps/20
    suits models whose reachable set is round, while strongly anisotropic
    sets need a finer rule.
    """
    eps = sorted({float(e) for e in eps_list}, reverse=True)
    if len(eps) < 4:
        raise ValueError("need at least 4 distinct eps values")
    if eps[-1] <= 0.0:
        raise ValueError("eps values must be positive")
    res_fn = resolution_fn if resolution_fn is not None else default_resolution
    seed = int(rng.integers(1 << 63))
    volumes = []
    for e in eps:
        sub = np.random.Generator(np.random.PCG64(seed))
        pts = dyn.sample_reachable(model, q, e, n_samples, sub)
        volumes.append(grid_volume(pts, res_fn(e)))
    gamma_hat, r2 = _log_log_fit(eps, volumes)
    if r2 < 0.9:
        raise DegenerateFit(
            f"log-log fit r^2 = {r2:.3f}; raise the sample count or refine "
            "the resolution rule")
    tail = [volumes[i] / eps[i] ** gamma_hat for i in (-2, -1)]
    g_hat = float(np.median(tail))
    return AgilityEstimate(gamma_hat=gamma_hat, g_hat=g_hat,
                           epsilons=tuple(eps), volumes=tuple(volumes),
                           fit_r2=r2)


def cell_agility(model, center, eps0, n_samples, base_seed, cell_key,
                 resolution_fn=None, headings=8):
    """Best estimate at a workspace point: max g over sampled headings.

    Returns (best, per_heading) where per_heading has one estimate per
    anchor configuration tried (a single entry for heading-free models).
    """
    ladder = eps_ladder(eps0)
    if model.config_dim > model.workspace_dim:
        anchors = [tuple(center) + (_TWO_PI * k / headings,)
                   for k in range(headings)]
    else:
        anchors = [tuple(center)]
    per_heading = []
    for h, q in enumerate(anchors):
        rng = make_rng(base_seed, *cell_key, h)
        per_heading.append(estimate_gamma(model, q, ladder, n_samples, rng,
                                          resolution_fn=resolution_fn))
    best = max(per_heading, key=lambda est: est.g_hat)
    return best, per_heading


def agility_field(model, grid, eps, n_samples, rng, resolution_fn=None,
                  headings=8):
    """Per-cell agility over a workspace grid.

    grid supplies the geometry (origin, cell_size, dims); its values are
    ignored. Returns (GridField of g_hat, records), records being one dict
    per (cell, ladder rung) ready for CSV emission.
    """
    if model.workspace_dim != 2:
        raise ValueError("agility fields are built over planar grids")
    base_seed = int(rng.integers(1 << 63))
    dims = grid.dims
    values = np.empty(dims)
    records = []
    for i in range(dims[0]):
        for j in range(dims[1]):
            cx = grid.origin[0] + (i + 0.5) * grid.cell_size
            cy = grid.origin[1] + (j + 0.5) * grid.cell_size
            best, _ = cell_agility(model, (cx, cy), eps, n_samples, base_seed,
                                   (i, j), resolution_fn=resolution_fn,
                                   headings=headings)
            values[i, j] = best.g_hat
            for e, v in zip(best.epsilons, best.volumes):
                records.append({
                    "model": model.model_id, "x": cx, "y": cy, "eps": e,
                    "volume": v, "gamma_hat": best.gamma_hat,
                    "g_hat": best.g_hat, "r2": best.fit_r2,
                })
    return GridField(grid.origin, grid.cell_size, values), records
