"""The one grid walk against the two frozen marching loops it replaced.

reference_march_scaled and reference_steer_scaled are dynamics'
integrate and steer for a gridded speed field as they were before both
went through one cell walk. On lines inside the field steer must keep
the old segments bit for bit (the tour reports sum them). Past the field's
edge the old loops stepped through the clamped edge cells one at a time and
the walk crosses them in one step, so on lines that leave the field steer
agrees with them in duration and endpoint, to rounding. integrate advances
in arc length instead of time, so it agrees to rounding, not bit for bit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstsp_lab import bounds as bnd
from dstsp_lab import dynamics as dyn

# The old loops gave up after 100 000 cells. No walk drawn here crosses more
# than a few hundred, so a lower guard only makes a stall fail sooner.
_MAX_MARCH_STEPS = 2_000


def _reference_cell_index(grid, pos, vel):
    origin = grid.origin
    h = grid.cell_size
    idx = []
    for i in range(len(pos)):
        k = math.floor((pos[i] - origin[i]) / h)
        if vel[i] < 0.0 and pos[i] <= origin[i] + k * h:
            k -= 1
        idx.append(k)
    return idx


def _reference_sigma_at(grid, idx):
    vals = np.asarray(grid.values, dtype=float)
    dims = vals.shape
    cl = tuple(min(max(k, 0), dims[i] - 1) for i, k in enumerate(idx))
    return float(vals[cl])


def reference_march_scaled(model, q, u, dt):
    grid = model.sigma
    pos = [float(v) for v in q]
    remaining = float(dt)
    h = grid.cell_size
    origin = grid.origin
    for _ in range(_MAX_MARCH_STEPS):
        if remaining <= 0.0:
            return tuple(pos)
        idx = _reference_cell_index(grid, pos, u)
        speed = model.c_pi * _reference_sigma_at(grid, idx)
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
        pos[exit_axis] = exit_bound
        remaining -= t_exit
    raise RuntimeError("cell marching did not terminate; field too fine?")


def reference_steer_scaled(model, q0, q1):
    """(start, segments) of the old grid steer."""
    grid = model.sigma
    p0 = [float(v) for v in q0]
    p1 = [float(v) for v in q1]
    delta = [b - a for a, b in zip(p0, p1)]
    dist = math.hypot(*delta)
    if dist == 0.0:
        return tuple(p0), ()
    u = tuple(d / dist for d in delta)
    h = grid.cell_size
    origin = grid.origin
    segments = []
    pos = p0[:]
    left = dist
    for _ in range(_MAX_MARCH_STEPS):
        if left <= 0.0:
            break
        idx = _reference_cell_index(grid, pos, u)
        sig = _reference_sigma_at(grid, idx)
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
    return tuple(p0), tuple(segments)


def reference_or_stall(reference, *args):
    """The reference's result, or None where it stalls: a line moving up
    onto a cell plane whose (plane - origin) / h rounds down gets a zero
    exit distance forever, and the old loops raised at their step guard."""
    try:
        return reference(*args)
    except RuntimeError:
        return None


# --- strategies -------------------------------------------------------------

@st.composite
def speed_models(draw):
    nx = draw(st.integers(1, 6))
    ny = draw(st.integers(1, 6))
    values = draw(st.lists(st.floats(0.25, 4.0), min_size=nx * ny,
                           max_size=nx * ny))
    grid = bnd.GridField((draw(st.floats(-3.0, 3.0)),
                          draw(st.floats(-3.0, 3.0))),
                         draw(st.floats(0.2, 2.0)),
                         np.array(values).reshape(nx, ny))
    return dyn.make_model({"model": "scaled_euclidean2", "sigma": grid,
                           "c_pi": draw(st.floats(0.5, 2.0))})


@st.composite
def points(draw, grid):
    """A point inside, near or outside the field, each coordinate possibly
    exactly on a cell plane."""
    out = []
    for i, n in enumerate(grid.dims):
        if draw(st.booleans()):
            k = draw(st.integers(-2, n + 2))
            out.append(grid.origin[i] + k * grid.cell_size)
        else:
            span = (n + 4) * grid.cell_size
            out.append(grid.origin[i] - 2 * grid.cell_size
                       + draw(st.floats(0.0, 1.0)) * span)
    return tuple(out)


def directions(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0),
                                     (0.0, -1.0)]))
    ang = draw(st.floats(0.0, 2.0 * math.pi))
    return (math.cos(ang), math.sin(ang))


@st.composite
def walks(draw):
    model = draw(speed_models())
    q0 = draw(points(model.sigma))
    if draw(st.booleans()):
        q1 = draw(points(model.sigma))
    else:
        u = directions(draw)
        length = draw(st.floats(0.0, 8.0))
        q1 = (q0[0] + length * u[0], q0[1] + length * u[1])
    u = directions(draw)
    scale = draw(st.sampled_from([1.0, 0.5, 0.0])) if draw(st.booleans()) \
        else draw(st.floats(0.0, 1.0))
    control = (scale * u[0], scale * u[1])
    return model, q0, q1, control, draw(st.floats(0.0, 4.0))


def in_field(grid, q):
    """q in the closed box the field's cells cover."""
    return all(o <= x <= o + n * grid.cell_size
               for o, x, n in zip(grid.origin, q, grid.dims))


def leading_cells_in_field(model, q0, q1, count):
    """How many of the first count cells that the steer from q0 to q1
    crosses lie in the field: cells entered at a point of its closed box,
    other than an edge the line moves out through."""
    if count == 0:
        return 0
    grid = model.sigma
    delta = [float(b) - float(a) for a, b in zip(q0, q1)]
    dist = math.hypot(*delta)
    u = tuple(d / dist for d in delta)
    walk = itertools.islice(dyn._cells_along(grid, q0, u), count)
    for k, (_, pos, _) in enumerate(walk):
        for o, x, n, ui in zip(grid.origin, pos, grid.dims, u):
            far = o + n * grid.cell_size
            if not o <= x <= far or (x == far and ui > 0.0) \
                    or (x == o and ui < 0.0):
                return k
    return count


def assert_same_steer(model, q0, q1, traj, want):
    """traj as the reference steer want: bit for bit on lines inside the
    field, and on lines that leave it up to the first cell outside; from
    there on in duration, to rounding."""
    if in_field(model.sigma, q0) and in_field(model.sigma, q1):
        assert (traj.start, traj.segments) == want
    else:
        assert traj.start == want[0]
        m = leading_cells_in_field(model, q0, q1, len(traj.segments))
        assert traj.segments[:m] == want[1][:m]
        assert traj.duration == pytest.approx(
            math.fsum(d for _, d in want[1]), rel=1e-12, abs=1e-15)


# --- properties -------------------------------------------------------------

@settings(max_examples=300)
@given(walks())
def test_grid_walk_matches_the_frozen_loops(walk):
    model, q0, q1, control, dt = walk
    traj = dyn.steer(model, q0, q1)
    want = reference_or_stall(reference_steer_scaled, model, q0, q1)
    if want is not None:
        assert_same_steer(model, q0, q1, traj, want)
    got = dyn.integrate(model, q0, control, dt)
    want = reference_or_stall(reference_march_scaled, model, q0, control, dt)
    if want is not None:
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
    assert all(d >= 0.0 for _, d in traj.segments)
    end = traj.configuration_at(math.inf)
    assert max(abs(a - b) for a, b in zip(end, q1)) <= 1e-9


def test_grid_walk_crosses_planes_that_round_down():
    # origin 0.05, cell 0.125: (0.175 - 0.05) / 0.125 rounds below 1, so
    # the old loops stalled on x = 0.175 (run-adversarial with this
    # extras.sigma_grid ended in a RuntimeError)
    model = dyn.make_model({"model": "scaled_euclidean2", "sigma": bnd.GridField(
        (0.05, 0.05), 0.125, np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 2.0]]))})
    assert reference_or_stall(reference_steer_scaled, model, (0.1, 0.1),
                              (0.3, 0.1)) is None
    traj = dyn.steer(model, (0.1, 0.1), (0.3, 0.1))
    assert [d for _, d in traj.segments] == pytest.approx([0.075, 0.0625])
    assert traj.configuration_at(math.inf) == pytest.approx((0.3, 0.1),
                                                         abs=1e-12)
    end = dyn.integrate(model, (0.1, 0.1), (1.0, 0.0), 0.075 + 0.0625)
    assert end == pytest.approx((0.3, 0.1), abs=1e-12)


def test_grid_walk_on_cell_corners_and_planes():
    model = dyn.make_model({"model": "scaled_euclidean2", "sigma": bnd.GridField(
        (0.0, 0.0), 0.5, np.array([[1.0, 2.0], [3.0, 4.0]]))})
    for q0, q1 in [((0.0, 0.0), (1.0, 1.0)), ((0.5, 0.5), (-0.5, -0.5)),
                   ((0.5, -1.0), (0.5, 2.0)), ((1.5, 0.5), (-1.0, 0.5)),
                   ((0.25, 0.25), (0.25, 0.25))]:
        traj = dyn.steer(model, q0, q1)
        assert_same_steer(model, q0, q1, traj,
                          reference_steer_scaled(model, q0, q1))
        assert traj.configuration_at(math.inf) == pytest.approx(
            q1, abs=1e-12)
        for control in [(1.0, 0.0), (0.0, -1.0), (-0.6, 0.8), (0.0, 0.0)]:
            got = dyn.integrate(model, q0, control, 0.7)
            want = reference_march_scaled(model, q0, control, 0.7)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


def test_grid_walk_crosses_the_outside_of_a_fine_field_in_one_step():
    # a 2 x 2 field of 1e-6 cells at the origin: lines in the unit square
    # lie about 10^6 clamped cells away from it, which the old loops (and
    # run-adversarial with this extras.sigma_grid) gave up on
    grid = bnd.GridField((0.0, 0.0), 1e-6, np.array([[1.0, 2.0],
                                                     [2.0, 0.5]]))
    model = dyn.make_model({"model": "scaled_euclidean2", "sigma": grid,
                            "c_pi": 1.5})
    for q0, q1, sigma in [((0.2, 0.3), (0.9, 0.7), 0.5),
                          ((0.9, 0.7), (0.2, 0.3), 0.5),
                          ((0.5, 0.1), (0.5, 0.8), 0.5),
                          ((-0.5, 0.3), (-0.2, 0.9), 2.0),
                          ((-0.25, -0.75), (-0.5, -0.1), 1.0)]:
        traj = dyn.steer(model, q0, q1)
        assert len(traj.segments) == 1
        assert traj.duration == pytest.approx(
            math.dist(q0, q1) / (1.5 * sigma), rel=1e-12)
        assert traj.configuration_at(math.inf) == pytest.approx(
            q1, abs=1e-12)
    end = dyn.integrate(model, (0.5, 0.5), (0.6, -0.8), 0.5)
    assert end == pytest.approx((0.725, 0.2), abs=1e-12)
    # lines moving away from a coarse field, starting outside it
    coarse = dyn.make_model({"model": "scaled_euclidean2",
                             "sigma": bnd.GridField((0.0, 0.0), 0.5, np.array(
                                 [[1.0, 2.0], [3.0, 4.0]]))})
    for q0, q1 in [((-0.75, 0.25), (-3.0, 0.25)), ((1.75, 1.6), (4.0, 3.0)),
                   ((0.25, -1.5), (0.3, -4.0))]:
        assert len(dyn.steer(coarse, q0, q1).segments) == 1
    # a line through the field: one step to its edge, the cells, one step out
    traj = dyn.steer(model, (-1.0, -1.0), (1.0, 1.0))
    assert len(traj.segments) <= 8
    assert traj.configuration_at(math.inf) == pytest.approx((1.0, 1.0),
                                                         abs=1e-12)
