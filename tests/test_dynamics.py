import dataclasses
import math

import numpy as np
import pytest

from dstsp_lab import bounds as bnd
from dstsp_lab import dynamics as dyn
from dstsp_lab.errors import ConfigError, ControlOutOfRange, NotSymmetric
from dstsp_lab.seeding import make_rng

TWO_PI = 2.0 * math.pi


def euclid2():
    return dyn.make_model({"model": "euclidean2"})

def euclid3():
    return dyn.make_model({"model": "euclidean3"})

def reeds(r_min=1.0):
    return dyn.make_model({"model": "reeds_shepp", "r_min": r_min})

def diffdrive():
    return dyn.make_model({"model": "diff_drive"})


class FakeGrid:
    """Minimal stand-in for a gridded scale field."""
    def __init__(self, origin, cell_size, values):
        self.origin = origin
        self.cell_size = cell_size
        self.values = np.asarray(values, dtype=float)


def two_speed_field():
    # sigma = 1 for x in [0,1), sigma = 2 for x in [1,2); one row in y
    return FakeGrid((0.0, 0.0), 1.0, [[1.0], [2.0]])


def scaled(sigma):
    return dyn.make_model({"model": "scaled_euclidean2", "sigma": sigma})


def euler_endpoint(model, q, control, dt, steps=200_000):
    # blunt first-order integrator, used only as an oracle
    if model.model_id == "reeds_shepp":
        gear, steer = control
        v = model.c_pi * gear
        w = v * steer / model.r_min
    else:
        v = model.c_pi * control[0]
        w = model.omega_max * control[1]
    x, y, th = float(q[0]), float(q[1]), float(q[2])
    h = dt / steps
    for _ in range(steps):
        x += v * math.cos(th) * h
        y += v * math.sin(th) * h
        th += w * h
    return x, y, th % TWO_PI


def random_config(model, rng, span=3.0):
    coords = [float(c) for c in rng.uniform(-span, span, size=2)]
    if model.config_dim == 3:
        coords.append(float(rng.uniform(0.0, TWO_PI)))
    elif model.model_id == "euclidean3":
        coords.append(float(rng.uniform(-span, span)))
    return tuple(coords)


def random_bang_bang(model, q0, rng, budget):
    """Random admissible trajectory of total duration `budget`."""
    k = int(rng.integers(1, 5))
    cuts = np.sort(rng.random(k - 1)) * budget
    durs = np.diff(np.concatenate([[0.0], cuts, [budget]]))
    segments = []
    for d in durs:
        if model.model_id == "reeds_shepp":
            c = (float(rng.choice([-1.0, 1.0])),
                 float(rng.choice([-1.0, 0.0, 1.0])))
        elif model.model_id == "diff_drive":
            c = (float(rng.choice([-1.0, 0.0, 1.0])),
                 float(rng.choice([-1.0, 0.0, 1.0])))
        else:
            ang = rng.uniform(0.0, TWO_PI)
            c = (math.cos(ang), math.sin(ang))
            if model.config_dim == 3:
                v = rng.normal(size=3)
                v /= np.linalg.norm(v)
                c = tuple(v)
        segments.append((c, float(d)))
    return dyn.Trajectory(model, q0, tuple(segments))


def assert_config_close(model, qa, qb, tol=1e-9):
    for i in range(model.workspace_dim):
        assert abs(qa[i] - qb[i]) <= tol
    if model.config_dim == 3 and model.model_id != "euclidean3":
        assert dyn.angle_dist(qa[2], qb[2]) <= tol


# --- integrate ---------------------------------------------------------

def test_integrate_euclidean_straight():
    q = dyn.integrate(euclid2(), (0.0, 0.0), (1.0, 0.0), 2.0)
    assert q == (2.0, 0.0)


def test_integrate_reeds_shepp_quarter_turn():
    q = dyn.integrate(reeds(), (0.0, 0.0, 0.0), (1.0, 1.0), math.pi / 2)
    assert abs(q[0] - 1.0) <= 1e-12
    assert abs(q[1] - 1.0) <= 1e-12
    assert dyn.angle_dist(q[2], math.pi / 2) <= 1e-12


def test_integrate_diff_drive_spin():
    q = dyn.integrate(diffdrive(), (0.0, 0.0, 0.0), (0.0, 1.0), math.pi)
    assert abs(q[0]) <= 1e-12 and abs(q[1]) <= 1e-12
    assert dyn.angle_dist(q[2], math.pi) <= 1e-12


def test_integrate_arc_matches_numeric_oracle():
    rng = make_rng(20260819, 1)
    for model in (reeds(), reeds(0.5), diffdrive()):
        for _ in range(5):
            q = random_config(model, rng)
            if model.model_id == "reeds_shepp":
                c = (float(rng.choice([-1.0, 1.0])),
                     float(rng.uniform(-1.0, 1.0)))
            else:
                c = (float(rng.uniform(-1.0, 1.0)),
                     float(rng.uniform(-1.0, 1.0)))
            dt = float(rng.uniform(0.1, 2.0))
            exact = dyn.integrate(model, q, c, dt)
            approx = euler_endpoint(model, q, c, dt)
            assert abs(exact[0] - approx[0]) <= 1e-4
            assert abs(exact[1] - approx[1]) <= 1e-4
            assert dyn.angle_dist(exact[2], approx[2]) <= 1e-4


def test_integrate_scaled_constant_doubles_speed():
    q = dyn.integrate(scaled(2.0), (0.0, 0.0), (1.0, 0.0), 1.0)
    assert q == (2.0, 0.0)


def test_integrate_scaled_grid_crossing():
    model = scaled(two_speed_field())
    # 0.5s at speed 1 reaches the interface, then 0.25s at speed 2
    q = dyn.integrate(model, (0.5, 0.25), (1.0, 0.0), 0.75)
    assert abs(q[0] - 1.5) <= 1e-12
    assert abs(q[1] - 0.25) <= 1e-12


def test_integrate_scaled_grid_leftward_from_boundary():
    model = scaled(two_speed_field())
    # starting exactly on the interface moving left uses the slow cell
    q = dyn.integrate(model, (1.0, 0.5), (-1.0, 0.0), 0.5)
    assert abs(q[0] - 0.5) <= 1e-12


def test_integrate_control_out_of_range():
    with pytest.raises(ControlOutOfRange):
        dyn.integrate(euclid2(), (0.0, 0.0), (1.0, 0.5), 1.0)
    with pytest.raises(ControlOutOfRange):
        dyn.integrate(reeds(), (0.0, 0.0, 0.0), (1.5, 0.0), 1.0)
    with pytest.raises(ControlOutOfRange):
        dyn.integrate(diffdrive(), (0.0, 0.0, 0.0), (0.0, -1.2), 1.0)


def test_integrate_normalizes_heading():
    q = dyn.integrate(diffdrive(), (0.0, 0.0, 5.0), (0.0, 1.0), 4.0)
    assert 0.0 <= q[2] < TWO_PI


# --- project -----------------------------------------------------------

def test_project():
    assert dyn.project(euclid2(), (3.0, 4.0)) == (3.0, 4.0)
    assert dyn.project(reeds(), (1.0, 2.0, 0.5)) == (1.0, 2.0)
    assert dyn.project(diffdrive(), (0.0, 0.0, math.pi)) == (0.0, 0.0)


# --- steer: pinned values ---------------------------------------------

def test_steer_euclidean_distance():
    traj = dyn.steer(euclid2(), (0.0, 0.0), (3.0, 4.0))
    assert abs(traj.duration - 5.0) <= 1e-12
    assert_config_close(euclid2(), traj.configuration_at(math.inf),
                        (3.0, 4.0))


def test_steer_reeds_shepp_straight():
    model = reeds()
    for d in (0.7, 2.0, 5.0):
        traj = dyn.steer(model, (0.0, 0.0, 0.0), (d, 0.0, 0.0))
        assert abs(traj.duration - d) <= 1e-9


def test_steer_reeds_shepp_quarter_arc():
    traj = dyn.steer(reeds(), (0.0, 0.0, 0.0), (1.0, 1.0, math.pi / 2))
    assert abs(traj.duration - math.pi / 2) <= 1e-9


def test_steer_to_point_diff_drive_rotate_translate():
    traj = dyn.steer_to_point(diffdrive(), (0.0, 0.0, 0.0), (1.0, 1.0))
    assert abs(traj.duration - (math.pi / 4 + math.sqrt(2.0))) <= 1e-9
    end = traj.configuration_at(math.inf)
    assert abs(end[0] - 1.0) <= 1e-9 and abs(end[1] - 1.0) <= 1e-9


def test_steer_scaled_grid_time():
    model = scaled(two_speed_field())
    traj = dyn.steer(model, (0.5, 0.25), (1.5, 0.25))
    assert abs(traj.duration - 0.75) <= 1e-12
    assert_config_close(model, traj.configuration_at(math.inf), (1.5, 0.25),
                        tol=1e-9)


def test_steer_zero_distance():
    traj = dyn.steer(euclid2(), (1.0, 1.0), (1.0, 1.0))
    assert traj.duration == 0.0 and traj.segments == ()


# --- steer: properties -------------------------------------------------

def all_models():
    return [euclid2(), euclid3(), scaled(2.0),
            scaled(FakeGrid((-4.0, -4.0), 2.0,
                            [[0.5, 1.0, 2.0, 1.5],
                             [1.0, 0.5, 1.0, 2.0],
                             [2.0, 1.0, 0.5, 1.0],
                             [1.5, 2.0, 1.0, 0.5]])),
            reeds(), reeds(0.6), diffdrive()]


def test_steer_endpoint_reaches_goal():
    rng = make_rng(20260819, 2)
    for model in all_models():
        for _ in range(25):
            q0 = random_config(model, rng)
            q1 = random_config(model, rng)
            traj = dyn.steer(model, q0, q1)
            assert_config_close(model, traj.configuration_at(math.inf), q1)


def test_steer_symmetry():
    rng = make_rng(20260819, 3)
    for model in all_models():
        for _ in range(15):
            q0 = random_config(model, rng)
            q1 = random_config(model, rng)
            fwd = dyn.steer(model, q0, q1).duration
            bwd = dyn.steer(model, q1, q0).duration
            assert abs(fwd - bwd) <= 1e-9


def test_steer_reeds_shepp_not_longer_than_random_trajectories():
    # analytic steering must beat every sampled admissible trajectory
    model = reeds()
    rng = make_rng(20260819, 4)
    for _ in range(200):
        q0 = random_config(model, rng)
        budget = float(rng.uniform(0.3, 6.0))
        traj = random_bang_bang(model, q0, rng, budget)
        q1 = traj.configuration_at(math.inf)
        best = dyn.steer(model, q0, q1)
        assert best.duration <= budget + 1e-9
        assert_config_close(model, best.configuration_at(math.inf), q1)


def test_steer_reeds_shepp_at_least_euclidean():
    model = reeds()
    rng = make_rng(20260819, 5)
    for _ in range(50):
        q0 = random_config(model, rng)
        q1 = random_config(model, rng)
        d = math.hypot(q1[0] - q0[0], q1[1] - q0[1])
        assert dyn.steer(model, q0, q1).duration >= d - 1e-9


def test_reaches_within_matches_steer_to_point():
    # reaches_within stops at the first heading that makes the limit; the
    # answer must be steer_to_point's, limits at its duration included
    rng = make_rng(20260819, 9)
    models = all_models() + [dyn.make_model(
        {"model": "reeds_shepp", "r_min": 2.0, "c_pi": 0.7})]
    for model in models:
        for _ in range(12):
            q0 = random_config(model, rng)
            point = random_config(model, rng, span=1.5)[:model.workspace_dim]
            t = dyn.steer_to_point(model, q0, point).duration
            for limit in (0.0, 0.5 * t, math.nextafter(t, 0.0), t,
                          math.nextafter(t, math.inf), 2.0 * t, 1e-3,
                          float(rng.uniform(0.0, 6.0))):
                assert dyn.reaches_within(model, q0, point, limit) == \
                    (t <= limit)
        # a point at the start
        q0 = random_config(model, rng)
        point = q0[:model.workspace_dim]
        assert dyn.reaches_within(model, q0, point, 0.0) == \
            (dyn.steer_to_point(model, q0, point).duration <= 0.0)


def test_speed_limit_along_trajectories():
    rng = make_rng(20260819, 6)
    for model in all_models():
        limit = model.speed_limit()
        for _ in range(10):
            q0 = random_config(model, rng)
            traj = random_bang_bang(model, q0, rng, float(rng.uniform(0.5, 3.0)))
            times = sorted(rng.uniform(0.0, traj.duration, size=4))
            for ta, tb in zip(times, times[1:]):
                xa = dyn.project(model, traj.configuration_at(ta))
                xb = dyn.project(model, traj.configuration_at(tb))
                disp = math.dist(xa, xb)
                assert disp <= limit * (tb - ta) + 1e-9


# --- reversal -----------------------------------------------------------

def test_reverse_straight_segment():
    traj = dyn.steer(euclid2(), (0.0, 0.0), (1.0, 0.0))
    rev = dyn.reverse_trajectory(traj)
    assert rev.start == (1.0, 0.0)
    assert_config_close(euclid2(), rev.configuration_at(math.inf), (0.0, 0.0))
    assert abs(rev.duration - traj.duration) <= 1e-12


def test_reverse_is_involution():
    rng = make_rng(20260819, 7)
    for model in all_models():
        q0 = random_config(model, rng)
        traj = random_bang_bang(model, q0, rng, 1.5)
        back = dyn.reverse_trajectory(dyn.reverse_trajectory(traj))
        assert back.segments == traj.segments
        assert_config_close(model, back.start, traj.start)


def test_reverse_reeds_shepp_arc():
    model = reeds()
    traj = dyn.Trajectory(model, (0.0, 0.0, 0.0), (((1.0, 1.0), 0.8),))
    rev = dyn.reverse_trajectory(traj)
    assert rev.segments[0][0] == (-1.0, 1.0)
    assert abs(rev.duration - 0.8) <= 1e-12
    assert_config_close(model, rev.configuration_at(math.inf), (0.0, 0.0, 0.0))


def test_reverse_retraces_curve():
    rng = make_rng(20260819, 8)
    for model in all_models():
        q0 = random_config(model, rng)
        traj = random_bang_bang(model, q0, rng, 2.0)
        rev = dyn.reverse_trajectory(traj)
        total = traj.duration
        for t in rng.uniform(0.0, total, size=5):
            a = dyn.project(model, traj.configuration_at(float(t)))
            b = dyn.project(model, rev.configuration_at(total - float(t)))
            assert math.dist(a, b) <= 1e-7


def test_reverse_requires_symmetry():
    model = dataclasses.replace(euclid2(), symmetric=False)
    traj = dyn.Trajectory(model, (0.0, 0.0), (((1.0, 0.0), 1.0),))
    with pytest.raises(NotSymmetric):
        dyn.reverse_trajectory(traj)


# --- sample_reachable ---------------------------------------------------

def test_sample_reachable_euclidean_containment():
    model = euclid2()
    rng = make_rng(20260819, 9)
    pts = dyn.sample_reachable(model, (1.0, -2.0), 0.5, 500, rng)
    assert len(pts) == 500
    for p in pts:
        assert math.dist(p, (1.0, -2.0)) <= 0.5 + 1e-9


def test_sample_reachable_all_models_containment():
    rng = make_rng(20260819, 10)
    for model in all_models():
        q = random_config(model, rng, span=1.0)
        eps = 0.3
        pts = dyn.sample_reachable(model, q, eps, 200, rng)
        r_max = model.speed_limit() * eps + 1e-9
        base = dyn.project(model, q)
        for p in pts:
            assert math.dist(p, base) <= r_max


def test_sample_reachable_rejects_empty():
    with pytest.raises(ValueError):
        dyn.sample_reachable(euclid2(), (0.0, 0.0), 0.1, 0, make_rng(1))
    with pytest.raises(ValueError):
        dyn.sample_reachable(euclid2(), (0.0, 0.0), 0.0, 5, make_rng(1))


def test_sample_reachable_reeds_shepp_lateral_bound():
    model = reeds()
    rng = make_rng(20260819, 11)
    eps = 0.1
    pts = dyn.sample_reachable(model, (0.0, 0.0, 0.0), eps, 2000, rng)
    bound = eps * eps / 2.0 * (1.0 + 1e-6)
    for p in pts:
        assert abs(p[1]) <= bound


def test_sample_reachable_deterministic():
    model = reeds()
    a = dyn.sample_reachable(model, (0.0, 0.0, 0.0), 0.4, 64,
                             make_rng(77, 5))
    b = dyn.sample_reachable(model, (0.0, 0.0, 0.0), 0.4, 64,
                             make_rng(77, 5))
    assert a.shape == (64, 2)
    assert np.array_equal(a, b)


# --- configuration ------------------------------------------------------

def test_make_model_validation():
    with pytest.raises(ConfigError):
        dyn.make_model({"model": "dubins"})
    with pytest.raises(ConfigError):
        dyn.make_model({})
    with pytest.raises(ConfigError):
        dyn.make_model({"model": "euclidean2", "c_pi": 0.0})
    with pytest.raises(ConfigError):
        dyn.make_model({"model": "reeds_shepp", "r_min": -1.0})


@pytest.mark.parametrize("key, bad", [
    ("sigma", [1, 2]), ("sigma", "2.0"), ("sigma", math.nan),
    ("sigma", math.inf), ("sigma", -math.inf), ("sigma", 0.0),
    ("sigma", -1.0), ("sigma", FakeGrid((0.0, 0.0), 1.0, [[1.0, 0.0]])),
    ("sigma", FakeGrid((0.0,), 1.0, [1.0, 2.0])),
    ("c_pi", "fast"), ("c_pi", math.nan), ("r_min", math.inf),
    ("omega_max", None), ("omega_max", [1.0]),
])
def test_malformed_model_spec_is_config_error_naming_the_field(key, bad):
    with pytest.raises(ConfigError, match=key):
        dyn.make_model({"model": "scaled_euclidean2", key: bad})


def test_make_model_resolves_sigma_once():
    assert scaled(2).sigma == 2.0 and isinstance(scaled(2).sigma, float)
    assert dyn.make_model({"model": "scaled_euclidean2"}).sigma == 1.0
    assert dyn.make_model({"model": "euclidean2", "sigma": 3.0}).sigma is None
    grid = scaled(two_speed_field()).sigma
    assert isinstance(grid, bnd.GridField)
    assert grid.values.tolist() == [[1.0], [2.0]]


def test_model_dims():
    assert euclid2().config_dim == 2 and euclid2().workspace_dim == 2
    assert euclid3().config_dim == 3 and euclid3().workspace_dim == 3
    assert reeds().config_dim == 3 and reeds().workspace_dim == 2
    assert diffdrive().config_dim == 3 and diffdrive().workspace_dim == 2
    for model in all_models():
        assert model.symmetric
