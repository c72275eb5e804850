"""Gridded scalar fields and the bound-constant toolbox.

A GridField is a rectangular grid of cells with one value per cell; all
quadrature is the midpoint rule (cell value times cell volume). On top of it
this module provides:

  * Lipschitz envelopes: upper_reg lifts a field to the smallest
    (1/zeta)-Lipschitz field above max(h, zeta); lower_reg is the dual with
    ceiling 1/zeta. Both are exact max-plus (min-plus) convolutions with a
    cone kernel, cut off where its drop exceeds the field's range.
  * interaction_integral: the density/agility coupling integral
    J = integral of f^(1-1/gamma) * g^(-1/gamma) over the support of f.
  * beta_constant and bound_report: closed-form constants for lower/upper
    tour-length bounds and their adversarial variants.
  * worst_case_density: the density proportional to 1/g that maximizes J,
    with holder_gap measuring how far a given density falls short.
  * cost_field: regularized cost surface (f_hat * g_hat)^(1/gamma), floored
    at zeta^(2/gamma).
  * sample_density: iid points drawn from a gridded density.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AlphaOutOfRange, GridMismatch, NonpositiveZeta,
                     ZeroMass)


@dataclass(frozen=True, eq=False)
class GridField:
    origin: tuple
    cell_size: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != len(self.origin):
            raise ValueError("values rank must match origin length")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        if self.cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))

    @property
    def dims(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def cell_volume(self):
        return self.cell_size ** self.ndim

    def with_values(self, values):
        return GridField(self.origin, self.cell_size, values)

    def cell_centers(self):
        """(ncells, ndim) array of cell centers, row-major cell order."""
        axes = [self.origin[i] + (np.arange(self.dims[i]) + 0.5) * self.cell_size
                for i in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def integral(self):
        return float(self.values.sum()) * self.cell_volume

    def cell_index(self, point):
        """Index of the cell containing a point (half-open cells)."""
        idx = []
        for i in range(self.ndim):
            k = math.floor((float(point[i]) - self.origin[i]) / self.cell_size)
            k = min(max(k, 0), self.dims[i] - 1)
            idx.append(k)
        return tuple(idx)

    def value_at(self, point):
        return float(self.values[self.cell_index(point)])


def uniform_density(origin, cell_size, dims):
    """Constant density integrating to 1 over the grid."""
    total = cell_size ** len(dims) * int(np.prod(dims))
    vals = np.full(dims, 1.0 / total)
    return GridField(tuple(origin), float(cell_size), vals)


def unit_square_grid(dims=(128, 128), values=None):
    """Grid over [0,1]^2; values default to the uniform density."""
    cell = 1.0 / dims[0]
    if dims[1] != dims[0]:
        raise ValueError("unit square grid must be square")
    if values is None:
        return uniform_density((0.0, 0.0), cell, dims)
    return GridField((0.0, 0.0), cell, values)


def same_grid(a, b, tol=1e-12):
    return (a.dims == b.dims
            and abs(a.cell_size - b.cell_size) <= tol
            and all(abs(x - y) <= tol for x, y in zip(a.origin, b.origin)))


def _require_same_grid(a, b):
    if not same_grid(a, b):
        raise GridMismatch("fields live on different grids")


def is_density(field, tol=1e-9):
    vals = field.values
    return bool(np.all(vals >= 0.0)) and abs(field.integral() - 1.0) <= tol


def normalize_density(field):
    """Scale a nonnegative field so it integrates to exactly 1."""
    vals = np.asarray(field.values, dtype=float)
    if np.any(vals < 0.0):
        raise ValueError("density values must be nonnegative")
    total = vals.sum() * field.cell_volume
    if total <= 0.0:
        raise ZeroMass("field has no mass to normalize")
    return field.with_values(vals / total)


# --- file format: one JSON header line, then row-major text floats ------

def field_to_file(field, path):
    header = {"origin": list(field.origin),
              "cell_size": field.cell_size,
              "dims": list(field.dims)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        flat = field.values.reshape(field.dims[0], -1)
        for row in flat:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def field_from_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        vals = np.loadtxt(fh, dtype=float, ndmin=2)
    dims = tuple(int(d) for d in header["dims"])
    return GridField(tuple(header["origin"]), float(header["cell_size"]),
                     vals.reshape(dims))


# --- Lipschitz envelopes -------------------------------------------------

def _envelope(field, zeta, upper):
    if zeta <= 0.0:
        raise NonpositiveZeta("zeta must be positive")
    slope = 1.0 / zeta
    if upper:
        base, pick, sign = np.maximum(field.values, zeta), np.maximum, -1.0
    else:
        base, pick, sign = np.minimum(field.values, slope), np.minimum, 1.0
    out = base.copy()
    # On a regular grid two cells at integer offset k lie h * |k| apart, so
    # a partner at offset k offers base -/+ slope * h * |k|. Once that drop
    # exceeds spread = max(base) - min(base), the offer cannot beat any
    # cell's own value, which out starts from: the cone kernel is truncated
    # at that radius, and each offset inside it is one sliced extremum over
    # the whole grid.
    h = field.cell_size
    spread = float(base.max() - base.min())
    radii = [int(min(n - 1, spread / (slope * h))) for n in field.dims]
    for k in itertools.product(*(range(-r, r + 1) for r in radii)):
        drop = slope * (h * math.sqrt(sum(c * c for c in k)))
        if drop > spread or not any(k):
            continue
        dst = tuple(slice(max(0, -c), n - max(0, c))
                    for c, n in zip(k, field.dims))
        src = tuple(slice(max(0, c), n - max(0, -c))
                    for c, n in zip(k, field.dims))
        pick(out[dst], base[src] + sign * drop, out=out[dst])
    return field.with_values(out)


def upper_reg(field, zeta):
    """Smallest (1/zeta)-Lipschitz field above max(h, zeta) on the grid."""
    return _envelope(field, zeta, upper=True)


def lower_reg(field, zeta):
    """Largest (1/zeta)-Lipschitz field below min(h, 1/zeta) on the grid."""
    return _envelope(field, zeta, upper=False)


# --- interaction integral and bound constants ---------------------------

def interaction_integral(f, g, gamma):
    """Quadrature of f^(1-1/gamma) * g^(-1/gamma) over the support of f."""
    _require_same_grid(f, g)
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    gv = np.asarray(g.values, dtype=float)
    if np.any(gv <= 0.0):
        raise ValueError("agility field must be strictly positive")
    fv = np.asarray(f.values, dtype=float)
    support = fv > 0.0
    term = np.zeros_like(fv)
    term[support] = fv[support] ** (1.0 - 1.0 / gamma) \
        * gv[support] ** (-1.0 / gamma)
    return float(term.sum()) * f.cell_volume


def inverse_agility_integral(g, region=None):
    """Quadrature of 1/g, optionally restricted to a boolean cell mask."""
    gv = np.asarray(g.values, dtype=float)
    if np.any(gv <= 0.0):
        raise ValueError("agility field must be strictly positive")
    inv = 1.0 / gv
    if region is not None:
        inv = np.where(region, inv, 0.0)
    return float(inv.sum()) * g.cell_volume


def beta_constant(b, gamma, symmetric):
    """Lower-bound constant: beta = (1 + xi) * r^gamma.

    r = 3/2 for symmetric dynamics, 2 otherwise; xi switches between a
    linear and a square-root dependence on ln(b) / r^gamma at their
    crossing point ln(b) = r^gamma (both give xi = 3 there).
    """
    if b < 2:
        raise ValueError("branching factor must be at least 2")
    r = 1.5 if symmetric else 2.0
    r_pow = r ** gamma
    ln_b = math.log(b)
    if ln_b > r_pow:
        xi = 3.0 * ln_b / r_pow
    else:
        xi = 3.0 * math.sqrt(ln_b / r_pow)
    return xi, (1.0 + xi) * r_pow


@dataclass(frozen=True)
class BoundReport:
    n: int
    gamma: float
    beta: float
    s: int
    alpha: float
    J: float
    delta: float
    lower: float
    upper: float
    adversarial_lower: float
    adversarial_upper: float


def bound_report(n, delta, beta, s, alpha, gamma, J, int_g_inv):
    """Lower/upper tour-length bounds and their adversarial counterparts.

    int_g_inv is the raw integral of 1/g; the adversarial bounds use its
    1/gamma power in place of J.
    """
    if not 0.0 < alpha <= 1.0:
        raise AlphaOutOfRange("alpha must lie in (0, 1]")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if beta <= 0.0 or s < 2 or gamma <= 1.0 or J < 0.0 or int_g_inv < 0.0:
        raise ValueError("bound inputs out of range")
    scale = n ** (1.0 - 1.0 / gamma) if n > 0 else 0.0
    adv_J = int_g_inv ** (1.0 / gamma)
    lower = (1.0 - delta) / beta * scale * J
    upper = (1.0 + delta) * 12.0 * s * alpha ** (-1.0 / gamma) * scale * J
    adv_lower = (1.0 - delta) / beta * scale * adv_J
    adv_upper = (1.0 + delta) * 6.0 * s * alpha ** (-1.0 / gamma) * scale * adv_J
    return BoundReport(n=int(n), gamma=float(gamma), beta=float(beta),
                       s=int(s), alpha=float(alpha), J=float(J),
                       delta=float(delta), lower=lower, upper=upper,
                       adversarial_lower=adv_lower, adversarial_upper=adv_upper)


# --- worst-case density and Holder gap -----------------------------------

def worst_case_density(g, region=None):
    """Density proportional to 1/g (restricted to region), integrating to 1."""
    gv = np.asarray(g.values, dtype=float)
    if np.any(gv <= 0.0):
        raise ValueError("agility field must be strictly positive")
    inv = 1.0 / gv
    if region is not None:
        inv = np.where(region, inv, 0.0)
    total = inv.sum() * g.cell_volume
    if total <= 0.0:
        raise ZeroMass("region carries no mass")
    return g.with_values(inv / total)


def holder_gap(f, g, gamma, region=None):
    """(integral of 1/g)^(1/gamma) minus J(f, g, gamma); nonnegative."""
    _require_same_grid(f, g)
    if region is None:
        region = np.asarray(f.values) > 0.0
    bound = inverse_agility_integral(g, region) ** (1.0 / gamma)
    return bound - interaction_integral(f, g, gamma)


# --- regularized cost field ----------------------------------------------

def lucrativity(f, g, gamma):
    """Unregularized cost surface (f*g)^(1/gamma), zero where f is zero."""
    _require_same_grid(f, g)
    prod = np.asarray(f.values) * np.asarray(g.values)
    return f.with_values(np.maximum(prod, 0.0) ** (1.0 / gamma))


def cost_field(f, g, zeta, gamma):
    """Regularized cost surface (f_hat * g_hat)^(1/gamma).

    Both factors are lifted by upper_reg, so the result is at least
    zeta^(2/gamma) everywhere and dominates the unregularized surface.
    """
    if zeta <= 0.0:
        raise NonpositiveZeta("zeta must be positive")
    _require_same_grid(f, g)
    fh = upper_reg(f, zeta)
    gh = upper_reg(g, zeta)
    vals = (np.asarray(fh.values) * np.asarray(gh.values)) ** (1.0 / gamma)
    return f.with_values(vals)


# --- sampling -------------------------------------------------------------

def sample_density(f, n, rng):
    """n iid points from a gridded density: cell by cumulative-mass
    inversion, uniform position within the cell."""
    vals = np.asarray(f.values, dtype=float)
    if np.any(vals < 0.0):
        raise ValueError("density values must be nonnegative")
    masses = vals.ravel()
    total = masses.sum()
    if total <= 0.0:
        raise ZeroMass("density has zero total mass")
    cum = np.cumsum(masses / total)
    cum[-1] = 1.0
    picks = np.searchsorted(cum, rng.random(int(n)), side="right")
    idx = np.unravel_index(picks, f.dims)
    d = f.ndim
    pts = np.empty((int(n), d))
    offsets = rng.random((int(n), d))
    for i in range(d):
        pts[:, i] = f.origin[i] + (idx[i] + offsets[:, i]) * f.cell_size
    return pts
