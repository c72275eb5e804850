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

make_model resolves sigma once, to a float or a GridField, and everything
else reads model.sigma as it is. On a gridded field, steer and integrate
share one walk over the cells a line crosses (_cells_along).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bounds import GridField
from .errors import ConfigError, ControlOutOfRange, NotSymmetric
from . import reeds_shepp as rs

_TWO_PI = 2.0 * math.pi
_CTRL_TOL = 1e-9
# cell-walk guard for the scaled model; generous for any sane field
_MAX_MARCH_STEPS = 100_000
# final headings a heading-free car steer tries, besides the start heading
_HEADINGS = 16

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
    """Build a model from a config mapping like {"model": "euclidean2"}.

    This is the one place that decides what sigma is: for
    scaled_euclidean2 a finite positive float (default 1.0) or a 2-D
    GridField copied from anything with origin, cell_size and values, with
    a positive minimum; None for every other model.
    """
    if "model" not in spec:
        raise ConfigError("model spec needs a 'model' key")
    model_id = spec["model"]
    if model_id not in MODEL_IDS:
        raise ConfigError(f"unknown model {model_id!r}")
    sigma = None
    if model_id == "scaled_euclidean2":
        sigma = _speed_field(spec.get("sigma", 1.0))
    limits = {key: _positive(key, spec.get(key, 1.0))
              for key in ("c_pi", "r_min", "omega_max")}
    return DynamicsModel(model_id=model_id, sigma=sigma, **limits)


def _positive(key, val):
    if isinstance(val, numbers.Real) and math.isfinite(val) and val > 0.0:
        return float(val)
    raise ConfigError(f"field 'model.{key}': must be a finite positive "
                      f"number, got {val!r}")


def _speed_field(sigma):
    if not all(hasattr(sigma, a) for a in ("origin", "cell_size", "values")):
        return _positive("sigma", sigma)
    try:
        grid = GridField(tuple(sigma.origin), float(sigma.cell_size),
                         sigma.values)
        if grid.ndim != 2 or not (math.isfinite(grid.cell_size)
                                  and all(map(math.isfinite, grid.origin))
                                  and grid.values.min() > 0.0):
            raise ValueError("need a finite 2-D grid, positive everywhere")
    except (TypeError, ValueError) as err:
        raise ConfigError(f"field 'model.sigma': {err}") from err
    return grid


def sigma_range(model):
    """(min, max) of a scaled model's speed factor sigma."""
    s = model.sigma
    if isinstance(s, GridField):
        return float(s.values.min()), float(s.values.max())
    return s, s


def _cells_along(grid, p, u):
    """The cells that the line p + s*u, s >= 0, crosses, in order (the voxel
    traversal of Amanatides and Woo, 1987).

    Yields (sigma, start, s_exit) per cell: its value, the point where the
    line enters it and the parameter, counted from that point, at which the
    line leaves it (inf if it never does). Each next start lands exactly on
    the exit plane. The field extends past its bounds by its edge cells, so
    outside them sigma is constant along an axis: there the next plane on
    that axis is the field's edge, or none when the line moves away.
    """
    origin, h, vals = grid.origin, grid.cell_size, grid.values
    top = [n - 1 for n in vals.shape]
    pos = [float(v) for v in p]
    for _ in range(_MAX_MARCH_STEPS):
        cell = []
        s_exit, axis, plane = math.inf, -1, 0.0
        for i, ui in enumerate(u):
            k = math.floor((pos[i] - origin[i]) / h)
            # a point on a cell plane belongs to the cell the line moves
            # into, whichever way the division rounded. ahead indexes the
            # next plane on this axis: a cell plane or edge of the field,
            # none of the clamped planes outside it
            ahead = None
            if ui > 0.0:
                if pos[i] >= origin[i] + (k + 1) * h:
                    k += 1
                if k <= top[i]:
                    ahead = max(k, -1) + 1
            elif ui < 0.0:
                if pos[i] <= origin[i] + k * h:
                    k -= 1
                if k >= 0:
                    ahead = min(k, top[i] + 1)
            cell.append(min(max(k, 0), top[i]))
            if ahead is not None:
                bound = origin[i] + ahead * h
                si = (bound - pos[i]) / ui
                if si < s_exit:
                    s_exit, axis, plane = si, i, bound
        yield vals.item(*cell), pos, s_exit
        pos = [x + ui * s_exit for x, ui in zip(pos, u)]
        pos[axis] = plane
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
    speed = closed_form_speed(model)
    if speed is not None:
        _check_ball_control(control, model.config_dim)
        return tuple(float(p) + speed * float(c) * dt
                     for p, c in zip(q, control))
    if mid == "scaled_euclidean2":
        _check_ball_control(control, 2)
        left = float(dt)
        for sigma, pos, s_exit in _cells_along(model.sigma, q, control):
            speed = model.c_pi * sigma
            t_exit = s_exit / speed
            if t_exit >= left:
                return tuple(x + speed * ui * left
                             for x, ui in zip(pos, control))
            left -= t_exit
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
    if (model.model_id == "scaled_euclidean2"
            and not isinstance(model.sigma, GridField)):
        return model.c_pi * model.sigma
    return None


def _steer_straight(model, q0, q1):
    # straight workspace line at the closed-form speed, or through the
    # gridded speed field with one segment per cell crossed
    speed = closed_form_speed(model)
    p0 = tuple(float(v) for v in q0)
    delta = [float(b) - a for a, b in zip(p0, q1)]
    dist = math.hypot(*delta)
    if dist == 0.0:
        return Trajectory(model, p0, ())
    u = tuple(d / dist for d in delta)
    if speed is not None:
        return Trajectory(model, p0, ((u, dist / speed),))
    segments = []
    left = dist
    for sigma, _, s_exit in _cells_along(model.sigma, p0, u):
        segments.append((u, min(s_exit, left) / (model.c_pi * sigma)))
        if s_exit >= left:
            break
        left -= s_exit
    return Trajectory(model, p0, tuple(segments))


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
    if mid in ("euclidean2", "euclidean3", "scaled_euclidean2"):
        return _steer_straight(model, q0, q1)
    if mid == "reeds_shepp":
        return _steer_reeds_shepp(model, q0, q1)
    if mid == "diff_drive":
        return _steer_diff_drive(model, q0, q1)
    raise ConfigError(f"unknown model {mid!r}")


def steer_to_point(model, q0, point, headings=_HEADINGS):
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
        for h in _free_headings(q0, headings):
            traj = steer(model, q0, (point[0], point[1], h))
            if best is None or traj.duration < best.duration:
                best = traj
        return best
    raise ConfigError(f"unknown model {mid!r}")


def _free_headings(q0, headings):
    # the start heading, then the grid
    yield float(q0[2])
    for k in range(headings):
        yield _TWO_PI * k / headings


def reaches_within(model, q0, point, limit):
    """Whether steer_to_point(model, q0, point) takes at most limit.

    For reeds_shepp the first final heading that steers within the limit
    decides, so the remaining headings are never steered.
    """
    if model.model_id == "reeds_shepp":
        return any(steer(model, q0, (point[0], point[1], h)).duration <= limit
                   for h in _free_headings(q0, _HEADINGS))
    return steer_to_point(model, q0, point).duration <= limit


def _reverse_control(model, control):
    mid = model.model_id
    if mid in ("euclidean2", "euclidean3", "scaled_euclidean2"):
        return tuple(-float(c) for c in control)
    if mid == "reeds_shepp":
        return (-float(control[0]), float(control[1]))
    if mid == "diff_drive":
        return (-float(control[0]), -float(control[1]))
    raise ConfigError(f"unknown model {mid!r}")


def reversed_segments(model, segments):
    """The segments that trace the same workspace curve backwards."""
    return [(_reverse_control(model, c), d) for c, d in reversed(segments)]


def reverse_trajectory(traj):
    """Same workspace curve traversed backwards; duration unchanged."""
    if not traj.model.symmetric:
        raise NotSymmetric("model does not admit trajectory reversal")
    return Trajectory(traj.model, traj.endpoint(),
                      tuple(reversed_segments(traj.model, traj.segments)))


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
    """Endpoints of n_samples random bang-bang trajectories of length eps,
    as one (n_samples, workspace_dim) float64 array.

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

    speed = closed_form_speed(model)
    if speed is not None:
        dirs = rng.normal(size=(n_samples, kmax, model.workspace_dim))
        norms = np.linalg.norm(dirs, axis=2, keepdims=True)
        norms[norms == 0.0] = 1.0
        dirs /= norms
        steps = dirs * durs[:, :, None] * speed
        return np.asarray(q, dtype=float)[None, :] + steps.sum(axis=1)

    if mid == "scaled_euclidean2":
        # one angle per piece, in sample-then-piece order
        angles = iter((rng.random(int(counts.sum())) * _TWO_PI).tolist())
        start = tuple(map(float, q))
        pts = np.empty((n_samples, 2))
        for i in range(n_samples):
            qq = start
            for j in range(int(counts[i])):
                ang = next(angles)
                u = (math.cos(ang), math.sin(ang))
                qq = integrate(model, qq, u, durs[i, j])
            pts[i] = qq
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
        return np.stack([x, y], axis=1)

    raise ConfigError(f"unknown model {mid!r}")
