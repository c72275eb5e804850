"""Hierarchical cell structures: anchored boxes that subdivide self-similarly.

A cell is an axis-aligned box in coordinates adapted to the vehicle at its
anchor configuration; per-axis half-widths scale like eps^w_i, where the
weight vector w reflects how reachable-set extent scales along each axis
(isotropic models: all 1; the bidirectional car: 1 along the heading, 2
laterally). Splitting axis i into s^{w_i} equal parts produces s^gamma
children, each a valid cell at radius eps/s; gamma = sum of weights.
child_cell builds one child at a time, so a walk down the tree builds only
the cells it enters; build_hcs builds whole trees from it.

A cover tiles a rectangular support with root cells as half-open boxes, so
every point belongs to exactly one root (overlap mass zero). root_indices
locates a whole array of points in one numpy pass, and descend extends the
tiling into the subdivision tree, one per-level child index per point in
the mixed radix determined by the split counts (axis 0 least significant).
Both take the float operations of the per-point arithmetic in the same
order, so every index is the one a point-by-point loop would give;
locate_root and locate_path are their one-point calls.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as bnd
from . import dynamics as dyn
from .errors import (CellNotContained, ConfigError, NonIntegerGamma,
                     OutOfSupport)

# per-axis box weights and the base half-width constants (units of eps at
# c_pi = 1); scaled_euclidean2 shrinks by its minimum speed factor
_BOX_TABLE = {
    "euclidean2": ((1, 1), (0.5, 0.5)),
    "scaled_euclidean2": ((1, 1), (0.5, 0.5)),
    "euclidean3": ((1, 1, 1), (0.5, 0.5, 0.5)),
    "reeds_shepp": ((1, 2), (0.5, 1.0 / 16.0)),
}


def box_weights(model):
    """Per-axis subdivision weights; their sum is gamma."""
    if model.model_id not in _BOX_TABLE:
        raise NonIntegerGamma(
            f"no adapted box table for model {model.model_id!r}")
    return _BOX_TABLE[model.model_id][0]


def model_gamma(model):
    return sum(box_weights(model))


def half_widths(model, eps):
    """Adapted-frame half-widths of a radius-eps cell."""
    weights, consts = _BOX_TABLE[model.model_id]
    scale = model.c_pi
    if model.model_id == "scaled_euclidean2":
        scale *= dyn.sigma_range(model)[0]
    if model.model_id == "reeds_shepp":
        # lateral reach shrinks with the turning radius
        return (consts[0] * scale * eps,
                consts[1] * scale ** 2 * eps ** 2 / model.r_min)
    return tuple(c * scale * eps ** w for c, w in zip(consts, weights))


@dataclass(frozen=True)
class Cell:
    anchor: tuple          # full configuration
    eps: float
    half: tuple            # adapted-frame half-widths
    depth: int
    heading: float = 0.0   # frame rotation; 0 for euclidean models
    children: tuple = ()

    @property
    def workspace_dim(self):
        return len(self.half)

    def volume(self):
        v = 1.0
        for h in self.half:
            v *= 2.0 * h
        return v

    def to_adapted(self, x):
        """Workspace point -> offsets in the cell's adapted frame."""
        if self.workspace_dim == 2:
            dx = float(x[0]) - self.anchor[0]
            dy = float(x[1]) - self.anchor[1]
            c, s = math.cos(self.heading), math.sin(self.heading)
            return (dx * c + dy * s, -dx * s + dy * c)
        return tuple(float(x[i]) - self.anchor[i] for i in range(3))

    def to_workspace(self, u):
        if self.workspace_dim == 2:
            c, s = math.cos(self.heading), math.sin(self.heading)
            return (self.anchor[0] + u[0] * c - u[1] * s,
                    self.anchor[1] + u[0] * s + u[1] * c)
        return tuple(self.anchor[i] + u[i] for i in range(3))

    def contains(self, x):
        """Half-open membership: -h <= u < h per adapted axis."""
        u = self.to_adapted(x)
        return all(-h <= ui < h for ui, h in zip(u, self.half))

    def sample_points(self, n, rng):
        d = self.workspace_dim
        u = rng.uniform(-1.0, 1.0, size=(int(n), d)) * np.asarray(self.half)
        return [self.to_workspace(tuple(row)) for row in u]


def _child_radices(model, s):
    return tuple(s ** w for w in box_weights(model))


def make_cell(model, anchor, eps, depth=0):
    """Childless cell of radius eps at anchor, in the frame of the anchor's
    heading."""
    heading = float(anchor[2]) if model.config_dim > model.workspace_dim \
        else 0.0
    return Cell(anchor=tuple(float(a) for a in anchor), eps=eps,
                half=half_widths(model, eps), depth=depth, heading=heading)


def child_cell(model, parent, index, s):
    """Child of parent at a mixed-radix index (axis 0 least significant):
    its box is one of the s^gamma equal parts of the parent's box, anchored
    at the part's center with the parent's heading."""
    offsets = []
    rem = index
    for h, r in zip(parent.half, _child_radices(model, s)):
        t = rem % r
        rem //= r
        width = 2.0 * h / r
        offsets.append(-h + (t + 0.5) * width)
    anchor = parent.to_workspace(tuple(offsets))
    if model.config_dim > model.workspace_dim:
        anchor += (parent.heading,)
    return make_cell(model, anchor, parent.eps / s, parent.depth + 1)


def _with_subtree(model, cell, depth, s):
    if depth == 0:
        return cell
    count = math.prod(_child_radices(model, s))
    return replace(cell, children=tuple(
        _with_subtree(model, child_cell(model, cell, i, s), depth - 1, s)
        for i in range(count)))


def build_hcs(model, anchor, eps0, depth, s=2):
    """Cell tree of the given depth rooted at anchor with radius eps0."""
    if eps0 <= 0.0:
        raise ValueError("eps0 must be positive")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if s < 2:
        raise ValueError("subdivision factor must be at least 2")
    gamma = model_gamma(model)  # raises NonIntegerGamma for unsupported models
    if model.config_dim > model.workspace_dim and len(anchor) < 3:
        raise ValueError("anchor must carry a heading for this model")
    assert gamma == int(gamma)
    return _with_subtree(model, make_cell(model, anchor, eps0), depth, s)


@dataclass(frozen=True)
class HcsCover:
    model_id: str
    roots: tuple
    eps0: float
    rho: float
    s: int
    gamma: int
    mins: tuple
    maxs: tuple
    sides: tuple   # tile side per axis
    counts: tuple  # tile count per axis

    @property
    def m(self):
        return len(self.roots)


def build_cover(model, support, eps0, rho=0.0, s=2):
    """Tile a rectangular support with half-open root cells.

    support is (mins, maxs). The tiling is exact (every point in exactly one
    tile), so the realized overlap mass is zero for any density, satisfying
    any rho >= 0.
    """
    if eps0 <= 0.0:
        raise ValueError("eps0 must be positive")
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    gamma = model_gamma(model)
    mins, maxs = (tuple(float(v) for v in support[0]),
                  tuple(float(v) for v in support[1]))
    if len(mins) != model.workspace_dim:
        raise ValueError("support rank does not match the model workspace")
    if any(b <= a for a, b in zip(mins, maxs)):
        raise ValueError("support must have positive extent")
    sides = tuple(2.0 * h for h in half_widths(model, eps0))
    counts = tuple(max(1, math.ceil((b - a) / w - 1e-12))
                   for a, b, w in zip(mins, maxs, sides))
    heading = 0.0  # long axis of the box is axis 0, aligned with +x
    roots = []
    for flat in range(int(np.prod(counts))):
        rem = flat
        idx = []
        for c in counts:
            idx.append(rem % c)
            rem //= c
        center = tuple(mins[i] + (idx[i] + 0.5) * sides[i]
                       for i in range(len(counts)))
        anchor = center + ((heading,) if
                           model.config_dim > model.workspace_dim else ())
        roots.append(make_cell(model, anchor, eps0))
    return HcsCover(model_id=model.model_id, roots=tuple(roots), eps0=eps0,
                    rho=rho, s=int(s), gamma=int(gamma), mins=mins,
                    maxs=maxs, sides=sides, counts=counts)


def root_indices(cover, points):
    """Flat index of the root holding each row of an (n, d) float array:
    per-axis tile indices in mixed radix, axis 0 least significant.

    A point on an interior tile plane belongs to the upper tile, and the
    support's top edge folds into its boundary tile. A point outside the
    support or not finite raises OutOfSupport for its first such
    coordinate; the error's row is the index of the first such point.
    """
    d = len(cover.counts)
    x = points[:, :d]
    inside = (np.asarray(cover.mins) <= x) & (x <= np.asarray(cover.maxs))
    if not inside.all():
        row = int(np.argmin(inside.all(axis=1)))
        err = OutOfSupport(f"coordinate {int(np.argmin(inside[row]))} "
                           "outside the covered support")
        err.row = row
        raise err
    tiles = np.floor((x - np.asarray(cover.mins)) / np.asarray(cover.sides))
    tiles = np.minimum(tiles.astype(np.int64), np.asarray(cover.counts) - 1)
    flat = np.zeros(len(x), dtype=np.int64)
    for i in reversed(range(d)):
        flat = flat * cover.counts[i] + tiles[:, i]
    return flat


def descend(cover, roots, points, depth):
    """Per-level child indices, an (n, depth) int64 array, of the cell chain
    below root roots[k] that holds point points[k]; roots[k] must be the
    root that holds it.

    Child indices are mixed radix over the per-axis sub-interval indices,
    axis 0 least significant. Each point's offset is taken in its root's
    frame, whose cos and sin come from math once per root, and every level
    scales the position inside the cell by the split count per axis.
    """
    radices = tuple(cover.s ** w for w in _BOX_TABLE[cover.model_id][0])
    d = len(cover.counts)
    held, inverse = np.unique(roots, return_inverse=True)
    cells = [cover.roots[r] for r in held.tolist()]
    anchor = np.array([c.anchor[:d] for c in cells], dtype=float)
    half = np.array([c.half for c in cells], dtype=float)[inverse]
    u = points[:, :d] - anchor.reshape(-1, d)[inverse]
    if d == 2:
        cos = np.array([math.cos(c.heading) for c in cells])[inverse]
        sin = np.array([math.sin(c.heading) for c in cells])[inverse]
        dx, dy = u[:, 0], u[:, 1]
        u = np.stack([dx * cos + dy * sin, -dx * sin + dy * cos], axis=1)
    # normalized position in [0, 1) per axis inside the root box
    taus = np.minimum(np.maximum((u + half) / (2.0 * half), 0.0),
                      1.0 - 1e-15)
    digits = np.zeros((len(u), depth), dtype=np.int64)
    for level in range(depth):
        scale = 1
        for axis, r in enumerate(radices):
            scaled = taus[:, axis] * r
            t = np.minimum(scaled.astype(np.int64), r - 1)
            digits[:, level] += t * scale
            scale *= r
            taus[:, axis] = scaled - t
    return digits


def _one_point(cover, x):
    return np.array([[float(x[i]) for i in range(len(cover.counts))]])


def locate_root(cover, x):
    """Flat index of the root that holds x."""
    return int(root_indices(cover, _one_point(cover, x))[0])


def locate_path(cover, x, depth):
    """(root_index, per-level child indices) for the cell chain holding x."""
    pts = _one_point(cover, x)
    roots = root_indices(cover, pts)
    return int(roots[0]), tuple(descend(cover, roots, pts, depth)[0].tolist())


def measure_alpha(cell, model, g_hat, n_samples, rng, tol=1e-9):
    """Box volume over g_hat * eps^gamma, with a statistical containment
    audit: at least 99% of sampled box points must be reachable from the
    anchor within eps (via admissible steering, so the audit is
    conservative)."""
    if g_hat <= 0.0:
        raise ValueError("g_hat must be positive")
    gamma = model_gamma(model)
    reachable = 0
    pts = cell.sample_points(n_samples, rng)
    for p in pts:
        if dyn.reaches_within(model, cell.anchor, p, cell.eps * (1.0 + tol)):
            reachable += 1
    frac = reachable / len(pts)
    if frac < 0.99:
        raise CellNotContained(
            f"only {frac:.3f} of box samples reachable within eps")
    return cell.volume() / (g_hat * cell.eps ** gamma)


def default_zeta(g_field):
    """Regularization scale tied to the smallest agility value."""
    g_min = float(np.min(np.asarray(g_field.values)))
    if g_min <= 0.0:
        raise ValueError("agility field must be positive")
    return 0.05 * g_min


def regularize_agility(g_field, zeta=None):
    """Lower envelope of the agility field at the default scale."""
    if zeta is None:
        zeta = default_zeta(g_field)
    return bnd.lower_reg(g_field, zeta)


def cover_to_json(cover):
    return {
        "eps0": cover.eps0,
        "s": cover.s,
        "gamma": cover.gamma,
        "model": cover.model_id,
        "rho": cover.rho,
        "support": [list(cover.mins), list(cover.maxs)],
        "roots": [{"anchor": list(c.anchor),
                   "box": [[-h, h] for h in c.half]}
                  for c in cover.roots],
    }


def cover_from_json(obj):
    """Inverse of cover_to_json; ConfigError for a cover without roots or a
    root without its anchor and box."""
    mins = tuple(obj["support"][0])
    maxs = tuple(obj["support"][1])
    if not obj["roots"]:
        raise ConfigError("cover JSON: 'roots' must not be empty")
    roots = []
    for k, r in enumerate(obj["roots"]):
        if "anchor" not in r or "box" not in r:
            raise ConfigError(f"cover JSON: root {k} needs 'anchor' and 'box'")
        anchor = tuple(r["anchor"])
        half = tuple(hi for _, hi in r["box"])
        heading = anchor[2] if len(anchor) > len(half) else 0.0
        roots.append(Cell(anchor=anchor, eps=float(obj["eps0"]), half=half,
                          depth=0, heading=heading))
    sides = tuple(2.0 * h for h in roots[0].half)
    counts = tuple(max(1, math.ceil((b - a) / w - 1e-12))
                   for a, b, w in zip(mins, maxs, sides))
    return HcsCover(model_id=obj["model"], roots=tuple(roots),
                    eps0=float(obj["eps0"]), rho=float(obj["rho"]),
                    s=int(obj["s"]), gamma=int(obj["gamma"]),
                    mins=mins, maxs=maxs, sides=sides, counts=counts)
