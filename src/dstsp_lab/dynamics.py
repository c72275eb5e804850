"""Symmetric vehicle models with exact closed-form kinematics.

Five models share one interface: integrate a control for a duration, project
configurations to workspace points, steer between configurations, reverse a
trajectory, and sample the time-eps reachable set. All integration is closed
form (lines and circular arcs), so there is no ODE-solver error anywhere.

Models
    euclidean2, euclidean3   velocity = c * u, ||u|| <= 1
    scaled_euclidean2        velocity = c * sigma(x) * u, sigma piecewise
                             constant on a grid (or a plain constant)
    reeds_shepp              unit-speed car, |curvature| <= 1/r_min, drives
                             forwards and backwards; control = (gear, steer)
    diff_drive               unicycle; control = (v, w), speed c*v, spin
                             rate omega_max*w

Controls are normalized to [-1, 1] per component (euclidean controls to the
unit ball); the model's limits scale them to physical rates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ControlOutOfRange, NotSymmetric
from . import reeds_shepp as rs

_TWO_PI = 2.0 * math.pi
_CTRL_TOL = 1e-9
# cell-marching guard for the scaled model; generous for any sane field
_MAX_MARCH_STEPS = 100_000

MODEL_IDS = ("euclidean2", "euclidean3", "scaled_euclidean2",
             "reeds_shepp", "diff_drive")

_CONFIG_DIMS = {"euclidean2": 2, "euclidean3": 3, "scaled_euclidean2": 2,
                "reeds_shepp": 3, "diff_drive": 3}
_WORKSPACE_DIMS = {"euclidean2": 2, "euclidean3": 3, "scaled_euclidean2": 2,
                   "reeds_shepp": 2, "diff_drive": 2}


def norm_angle(theta):
    """Normalize an angle to [0, 2*pi)."""
    theta = theta % _TWO_PI
    if theta < 0.0:
        theta += _TWO_PI
    return theta


def angle_dist(a, b):
    """Smallest absolute circular difference between two angles."""
    d = (a - b) % _TWO_PI
    return min(d, _TWO_PI - d)


@dataclass(frozen=True)
class DynamicsModel:
    model_id: str
    c_pi: float = 1.0
    r_min: float = 1.0
    omega_max: float = 1.0
    sigma: object = None
    symmetric: bool = True

    @property
    def config_dim(self):
        return _CONFIG_DIMS[self.model_id]

    @property
    def workspace_dim(self):
        return _WORKSPACE_DIMS[self.model_id]

    def speed_limit(self):
        """Largest attainable workspace speed."""
        if self.model_id == "scaled_euclidean2":
            return self.c_pi * sigma_range(self)[1]
        return self.c_pi


def make_model(spec):
    """Build a model from a config mapping like {"model": "euclidean2"}."""
    if "model" not in spec:
        raise ConfigError("model spec needs a 'model' key")
    model_id = spec["model"]
    if model_id not in MODEL_IDS:
        raise ConfigError(f"unknown model {model_id!r}")
    c_pi = float(spec.get("c_pi", 1.0))
    if c_pi <= 0.0:
        raise ConfigError("c_pi must be positive")
    r_min = float(spec.get("r_min", 1.0))
    if r_min <= 0.0:
        raise ConfigError("r_min must be positive")
    omega_max = float(spec.get("omega_max", 1.0))
    if omega_max <= 0.0:
        raise ConfigError("omega_max must be positive")
    sigma = spec.get("sigma", None)
    if model_id == "scaled_euclidean2":
        if sigma is None:
            sigma = 1.0
        lo, _ = sigma_range(DynamicsModel(model_id, c_pi, sigma=sigma))
        if lo <= 0.0:
            raise ConfigError("sigma must be positive everywhere")
    return DynamicsModel(model_id=model_id, c_pi=c_pi, r_min=r_min,
                         omega_max=omega_max, sigma=sigma)


def _is_grid(sigma):
    return hasattr(sigma, "origin") and hasattr(sigma, "values")


def sigma_range(model):
    """(min, max) of the scale field; (1, 1) for unscaled models."""
    s = model.sigma
    if s is None:
        return 1.0, 1.0
    if _is_grid(s):
        vals = np.asarray(s.values, dtype=float)
        return float(vals.min()), float(vals.max())
    s = float(s)
    return s, s


def _grid_cell_index(grid, pos, vel):
    """Cell index for the marching step, biased so that a point sitting on a
    boundary while moving toward lower coordinates belongs to the lower cell."""
    origin = grid.origin
    h = grid.cell_size
    idx = []
    for i in range(len(pos)):
        k = math.floor((pos[i] - origin[i]) / h)
        if vel[i] < 0.0 and pos[i] <= origin[i] + k * h:
            k -= 1
        idx.append(k)
    return idx


def _grid_sigma_at(grid, idx):
    vals = np.asarray(grid.values, dtype=float)
    dims = vals.shape
    # clamp: the field extends past its bounds by its edge cells
    cl = tuple(min(max(k, 0), dims[i] - 1) for i, k in enumerate(idx))
    return float(vals[cl])


def _march_scaled(model, q, u, dt):
    """Exact integration of q' = c*sigma(x)*u across grid cells."""
    grid = model.sigma
    pos = [float(v) for v in q]
    remaining = float(dt)
    h = grid.cell_size
    origin = grid.origin
    for _ in range(_MAX_MARCH_STEPS):
        if remaining <= 0.0:
            return tuple(pos)
        idx = _grid_cell_index(grid, pos, u)
        speed = model.c_pi * _grid_sigma_at(grid, idx)
        vel = [speed * ui for ui in u]
        t_exit = math.inf
        exit_axis = -1
        exit_bound = 0.0
        for i, vi in enumerate(vel):
            if vi > 0.0:
                bound = origin[i] + (idx[i] + 1) * h
            elif vi < 0.0:
                bound = origin[i] + idx[i] * h
            else:
                continue
            ti = (bound - pos[i]) / vi
            if ti < t_exit:
                t_exit, exit_axis, exit_bound = ti, i, bound
        if t_exit >= remaining:
            return tuple(p + v * remaining for p, v in zip(pos, vel))
        pos = [p + v * t_exit for p, v in zip(pos, vel)]
        pos[exit_axis] = exit_bound  # land exactly on the crossing plane
        remaining -= t_exit
    raise RuntimeError("cell marching did not terminate; field too fine?")


def _check_ball_control(u, dim):
    if len(u) != dim:
        raise ControlOutOfRange(f"expected a {dim}-component control")
    if math.fsum(float(c) * float(c) for c in u) > 1.0 + _CTRL_TOL:
        raise ControlOutOfRange("control magnitude exceeds 1")


def _check_box_control(u, names):
    if len(u) != len(names):
        raise ControlOutOfRange(f"expected controls {names}")
    for name, c in zip(names, u):
        if abs(float(c)) > 1.0 + _CTRL_TOL:
            raise ControlOutOfRange(f"{name} outside [-1, 1]")


def _arc_step(x, y, theta, speed, omega, dt):
    """Closed-form unicycle step: constant speed and turn rate."""
    if abs(omega) < 1e-12:
        return (x + speed * math.cos(theta) * dt,
                y + speed * math.sin(theta) * dt,
                theta)
    radius = speed / omega
    th1 = theta + omega * dt
    return (x + radius * (math.sin(th1) - math.sin(theta)),
            y - radius * (math.cos(th1) - math.cos(theta)),
            th1)


def integrate(model, q, control, dt):
    """Advance configuration q under a constant control for dt seconds."""
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    mid = model.model_id
    if mid in ("euclidean2", "euclidean3"):
        _check_ball_control(control, model.config_dim)
        return tuple(float(p) + model.c_pi * float(c) * dt
                     for p, c in zip(q, control))
    if mid == "scaled_euclidean2":
        _check_ball_control(control, 2)
        if _is_grid(model.sigma):
            return _march_scaled(model, q, control, dt)
        s = 1.0 if model.sigma is None else float(model.sigma)
        return tuple(float(p) + model.c_pi * s * float(c) * dt
                     for p, c in zip(q, control))
    if mid == "reeds_shepp":
        _check_box_control(control, ("gear", "steer"))
        gear, steer = float(control[0]), float(control[1])
        speed = model.c_pi * gear
        omega = speed * steer / model.r_min
        x, y, theta = _arc_step(q[0], q[1], q[2], speed, omega, dt)
        return (x, y, norm_angle(theta))
    if mid == "diff_drive":
        _check_box_control(control, ("v", "w"))
        v, w = float(control[0]), float(control[1])
        x, y, theta = _arc_step(q[0], q[1], q[2],
                                model.c_pi * v, model.omega_max * w, dt)
        return (x, y, norm_angle(theta))
    raise ConfigError(f"unknown model {mid!r}")


def project(model, q):
    """Workspace point of a configuration (drops heading if present)."""
    return tuple(float(v) for v in q[:model.workspace_dim])


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant-control trajectory; duration is its length."""
    model: DynamicsModel
    start: tuple
    segments: tuple  # ((control, duration), ...)

    @property
    def duration(self):
        return math.fsum(d for _, d in self.segments)

    def endpoint(self):
        q = self.start
        for control, dt in self.segments:
            q = integrate(self.model, q, control, dt)
        return q

    def configuration_at(self, t):
        """Configuration at absolute time t (clamped to the end)."""
        q = self.start
        left = t
        for control, dt in self.segments:
            if left <= dt:
                return integrate(self.model, q, control, max(left, 0.0))
            q = integrate(self.model, q, control, dt)
            left -= dt
        return q


def closed_form_speed(model):
    """Workspace speed of models that steer along one straight leg at a
    constant speed, so that steering time is distance / speed; None for the
    others."""
    if model.model_id in ("euclidean2", "euclidean3"):
        return model.c_pi
    if model.model_id == "scaled_euclidean2" and not _is_grid(model.sigma):
        return model.c_pi * (1.0 if model.sigma is None
                             else float(model.sigma))
    return None


def _steer_euclidean(model, q0, q1, scale=1.0):
    delta = [float(b) - float(a) for a, b in zip(q0, q1)]
    dist = math.hypot(*delta)
    if dist == 0.0:
        return Trajectory(model, tuple(map(float, q0)), ())
    u = tuple(d / dist for d in delta)
    return Trajectory(model, tuple(map(float, q0)),
                      ((u, dist / (model.c_pi * scale)),))


def _steer_scaled_grid(model, q0, q1):
    # straight workspace line; time integrates 1/(c*sigma) cell by cell
    grid = model.sigma
    p0 = [float(v) for v in q0]
    p1 = [float(v) for v in q1]
    delta = [b - a for a, b in zip(p0, p1)]
    dist = math.hypot(*delta)
    if dist == 0.0:
        return Trajectory(model, tuple(p0), ())
    u = tuple(d / dist for d in delta)
    h = grid.cell_size
    origin = grid.origin
    segments = []
    pos = p0[:]
    left = dist
    for _ in range(_MAX_MARCH_STEPS):
        if left <= 0.0:
            break
        idx = _grid_cell_index(grid, pos, u)
        sig = _grid_sigma_at(grid, idx)
        s_exit = math.inf
        exit_axis, exit_bound = -1, 0.0
        for i, ui in enumerate(u):
            if ui > 0.0:
                bound = origin[i] + (idx[i] + 1) * h
            elif ui < 0.0:
                bound = origin[i] + idx[i] * h
            else:
                continue
            si = (bound - pos[i]) / ui
            if si < s_exit:
                s_exit, exit_axis, exit_bound = si, i, bound
        step = min(s_exit, left)
        segments.append((u, step / (model.c_pi * sig)))
        if s_exit >= left:
            break
        pos = [p + ui * s_exit for p, ui in zip(pos, u)]
        pos[exit_axis] = exit_bound
        left -= s_exit
    else:
        raise RuntimeError("cell marching did not terminate")
    return Trajectory(model, tuple(p0), tuple(segments))


def _steer_reeds_shepp(model, q0, q1):
    # canonical frame: origin at q0 facing +x, lengths in turning radii
    th0 = float(q0[2])
    dx = float(q1[0]) - float(q0[0])
    dy = float(q1[1]) - float(q0[1])
    x = (dx * math.cos(th0) + dy * math.sin(th0)) / model.r_min
    y = (-dx * math.sin(th0) + dy * math.cos(th0)) / model.r_min
    phi = rs.wrap_pi(float(q1[2]) - th0)
    word = rs.shortest_word(x, y, phi)
    unit = model.r_min / model.c_pi
    segments = tuple(((float(gear), float(steer)), param * unit)
                     for param, steer, gear in word)
    start = (float(q0[0]), float(q0[1]), norm_angle(th0))
    return Trajectory(model, start, segments)


def _rotation_segment(dtheta, omega_max):
    w = 1.0 if dtheta >= 0.0 else -1.0
    return ((0.0, w), abs(dtheta) / omega_max)


def _steer_diff_drive(model, q0, q1, final_heading=True):
    # rotate toward the goal point, translate, optionally rotate again;
    # driven forwards or backwards, whichever is quicker
    x0, y0, th0 = float(q0[0]), float(q0[1]), float(q0[2])
    x1, y1 = float(q1[0]), float(q1[1])
    dist = math.hypot(x1 - x0, y1 - y0)
    start = (x0, y0, norm_angle(th0))
    best = None
    if dist == 0.0:
        segments = ()
        if final_heading:
            d = rs.wrap_pi(float(q1[2]) - th0)
            if d != 0.0:
                segments = (_rotation_segment(d, model.omega_max),)
        return Trajectory(model, start, segments)
    bearing = math.atan2(y1 - y0, x1 - x0)
    for gear in (1.0, -1.0):
        face = bearing if gear > 0.0 else bearing + math.pi
        rot1 = rs.wrap_pi(face - th0)
        segments = []
        if rot1 != 0.0:
            segments.append(_rotation_segment(rot1, model.omega_max))
        segments.append(((gear, 0.0), dist / model.c_pi))
        if final_heading:
            rot2 = rs.wrap_pi(float(q1[2]) - (th0 + rot1))
            if rot2 != 0.0:
                segments.append(_rotation_segment(rot2, model.omega_max))
        traj = Trajectory(model, start, tuple(segments))
        if best is None or traj.duration < best.duration:
            best = traj
    return best


def steer(model, q0, q1):
    """Trajectory from q0 to q1; optimal for every model except the scaled
    one, where the straight line is an admissible upper bound."""
    mid = model.model_id
    if mid in ("euclidean2", "euclidean3"):
        return _steer_euclidean(model, q0, q1)
    if mid == "scaled_euclidean2":
        if _is_grid(model.sigma):
            return _steer_scaled_grid(model, q0, q1)
        s = 1.0 if model.sigma is None else float(model.sigma)
        return _steer_euclidean(model, q0, q1, scale=s)
    if mid == "reeds_shepp":
        return _steer_reeds_shepp(model, q0, q1)
    if mid == "diff_drive":
        return _steer_diff_drive(model, q0, q1)
    raise ConfigError(f"unknown model {mid!r}")


def steer_to_point(model, q0, point, headings=16):
    """Trajectory from q0 to a workspace point, final heading free.

    Heading-free steering for reeds_shepp minimizes over a heading grid plus
    the start heading, so it is an admissible upper bound within the grid
    resolution; the other models are exact.
    """
    mid = model.model_id
    if mid in ("euclidean2", "euclidean3", "scaled_euclidean2"):
        return steer(model, q0, point)
    if mid == "diff_drive":
        return _steer_diff_drive(model, q0, (point[0], point[1], 0.0),
                                 final_heading=False)
    if mid == "reeds_shepp":
        best = None
        candidates = [float(q0[2])]
        candidates.extend(_TWO_PI * k / headings for k in range(headings))
        for h in candidates:
            traj = steer(model, q0, (point[0], point[1], h))
            if best is None or traj.duration < best.duration:
                best = traj
        return best
    raise ConfigError(f"unknown model {mid!r}")


def _reverse_control(model, control):
    mid = model.model_id
    if mid in ("euclidean2", "euclidean3", "scaled_euclidean2"):
        return tuple(-float(c) for c in control)
    if mid == "reeds_shepp":
        return (-float(control[0]), float(control[1]))
    if mid == "diff_drive":
        return (-float(control[0]), -float(control[1]))
    raise ConfigError(f"unknown model {mid!r}")


def reverse_trajectory(traj):
    """Same workspace curve traversed backwards; duration unchanged."""
    if not traj.model.symmetric:
        raise NotSymmetric("model does not admit trajectory reversal")
    segments = tuple((_reverse_control(traj.model, c), d)
                     for c, d in reversed(traj.segments))
    return Trajectory(traj.model, traj.endpoint(), segments)


def _simplex_durations(rng, counts, eps):
    """Random piecewise durations: counts[i] parts summing to eps."""
    n = len(counts)
    out = np.zeros((n, int(counts.max(initial=1))), dtype=float)
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        if k == 1:
            out[rows, 0] = eps
            continue
        cuts = np.sort(rng.random((rows.size, k - 1)), axis=1) * eps
        padded = np.concatenate(
            [np.zeros((rows.size, 1)), cuts, np.full((rows.size, 1), eps)],
            axis=1)
        out[rows, :k] = np.diff(padded, axis=1)
    return out


def sample_reachable(model, q, eps, n_samples, rng):
    """Endpoints of n_samples random bang-bang trajectories of length eps.

    Every returned workspace point is reachable from q within time eps by
    construction. Controls are piecewise constant with 1 to 4 pieces.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    mid = model.model_id
    counts = rng.integers(1, 5, size=n_samples)
    durs = _simplex_durations(rng, counts, eps)
    kmax = durs.shape[1]

    if mid in ("euclidean2", "euclidean3") or (
            mid == "scaled_euclidean2" and not _is_grid(model.sigma)):
        d = model.workspace_dim
        scale = model.c_pi
        if mid == "scaled_euclidean2":
            scale *= 1.0 if model.sigma is None else float(model.sigma)
        dirs = rng.normal(size=(n_samples, kmax, d))
        norms = np.linalg.norm(dirs, axis=2, keepdims=True)
        norms[norms == 0.0] = 1.0
        dirs /= norms
        steps = dirs * durs[:, :, None] * scale
        pts = np.asarray(q, dtype=float)[None, :] + steps.sum(axis=1)
        return [tuple(p) for p in pts]

    if mid == "scaled_euclidean2":
        pts = []
        for i in range(n_samples):
            qq = tuple(map(float, q))
            for j in range(int(counts[i])):
                ang = rng.random() * _TWO_PI
                u = (math.cos(ang), math.sin(ang))
                qq = integrate(model, qq, u, durs[i, j])
            pts.append(qq)
        return pts

    if mid in ("reeds_shepp", "diff_drive"):
        if mid == "reeds_shepp":
            speeds = rng.choice([-1.0, 1.0], size=(n_samples, kmax))
            turns = rng.choice([-1.0, 0.0, 1.0], size=(n_samples, kmax))
            omega = model.c_pi * speeds * turns / model.r_min
        else:
            pairs = np.array([(1.0, -1.0), (1.0, 0.0), (1.0, 1.0),
                              (-1.0, -1.0), (-1.0, 0.0), (-1.0, 1.0),
                              (0.0, 1.0), (0.0, -1.0)])
            pick = rng.integers(0, len(pairs), size=(n_samples, kmax))
            speeds = pairs[pick, 0]
            omega = model.omega_max * pairs[pick, 1]
        speeds = model.c_pi * speeds
        x = np.full(n_samples, float(q[0]))
        y = np.full(n_samples, float(q[1]))
        th = np.full(n_samples, float(q[2]))
        for j in range(kmax):
            dt = durs[:, j]
            v = speeds[:, j]
            w = omega[:, j]
            straight = np.abs(w) < 1e-12
            th1 = th + w * dt
            with np.errstate(divide="ignore", invalid="ignore"):
                radius = np.where(straight, 0.0, v / np.where(straight, 1.0, w))
            x = np.where(straight, x + v * np.cos(th) * dt,
                         x + radius * (np.sin(th1) - np.sin(th)))
            y = np.where(straight, y + v * np.sin(th) * dt,
                         y - radius * (np.cos(th1) - np.cos(th)))
            th = th1
        return [(float(xi), float(yi)) for xi, yi in zip(x, y)]

    raise ConfigError(f"unknown model {mid!r}")
