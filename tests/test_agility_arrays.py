"""The array sampler and the lexsort box count against their frozen forms.

reference_sample_reachable is dynamics.sample_reachable as it was when it
returned a list of tuples, drawing the gridded model's piece angles one
scalar at a time; reference_grid_volume is agility.grid_volume as it was
when it counted boxes with np.unique(axis=0). The array forms must give the
same points bit for bit and the same volumes exactly, so every agility
estimate and report keeps its value. reference_exact_binom_zeta_diff is the
binomial sum before its loop stopped recomputing lgamma(n + 1) and each
power twice.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstsp_lab import agility as agl
from dstsp_lab import bounds as bnd
from dstsp_lab import dynamics as dyn
from dstsp_lab import stats
from dstsp_lab.errors import EmptyPointSet, OutOfSupport
from dstsp_lab.seeding import make_rng

_TWO_PI = 2.0 * math.pi


def reference_sample_reachable(model, q, eps, n_samples, rng):
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    mid = model.model_id
    counts = rng.integers(1, 5, size=n_samples)
    durs = dyn._simplex_durations(rng, counts, eps)
    kmax = durs.shape[1]

    speed = dyn.closed_form_speed(model)
    if speed is not None:
        dirs = rng.normal(size=(n_samples, kmax, model.workspace_dim))
        norms = np.linalg.norm(dirs, axis=2, keepdims=True)
        norms[norms == 0.0] = 1.0
        dirs /= norms
        steps = dirs * durs[:, :, None] * speed
        pts = np.asarray(q, dtype=float)[None, :] + steps.sum(axis=1)
        return [tuple(p) for p in pts]

    if mid == "scaled_euclidean2":
        pts = []
        for i in range(n_samples):
            qq = tuple(map(float, q))
            for j in range(int(counts[i])):
                ang = rng.random() * _TWO_PI
                u = (math.cos(ang), math.sin(ang))
                qq = dyn.integrate(model, qq, u, durs[i, j])
            pts.append(qq)
        return pts

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


def reference_grid_volume(points, resolution):
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyPointSet("no points to measure")
    if pts.ndim == 1:
        pts = pts[:, None]
    boxes = np.unique(np.floor(pts / resolution).astype(np.int64), axis=0)
    return float(boxes.shape[0]) * resolution ** pts.shape[1]


def reference_exact_binom_zeta_diff(n, p, zeta_exp):
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 0 and p in [0, 1]")
    if not 0.0 < zeta_exp < 1.0:
        raise ValueError("exponent must lie in (0, 1)")
    if n == 0 or p == 0.0:
        return 1.0
    if p == 1.0:
        return stats._pow_zeta(n + 1, zeta_exp) - stats._pow_zeta(n, zeta_exp)
    log_p, log_q = math.log(p), math.log(1.0 - p)
    total = 0.0
    for k in range(n + 1):
        log_w = (math.lgamma(n + 1) - math.lgamma(k + 1)
                 - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
        total += math.exp(log_w) * (stats._pow_zeta(k + 1, zeta_exp)
                                    - stats._pow_zeta(k, zeta_exp))
    return total


# --- sample_reachable -----------------------------------------------------

def gridded(cell_size=0.05, c_pi=1.0):
    """An 8x8 field of speeds 0.5..3.5 whose cells are much smaller than
    the eps drawn below, so one sampled walk crosses several of them."""
    values = 0.5 + (np.arange(64, dtype=float).reshape(8, 8) * 7 % 13) / 4.0
    field = bnd.GridField((-0.2, -0.2), cell_size, values)
    return dyn.make_model({"model": "scaled_euclidean2", "sigma": field,
                           "c_pi": c_pi})


limits = st.floats(0.25, 4.0)


@st.composite
def models(draw):
    kind = draw(st.sampled_from(("euclidean2", "euclidean3", "scaled",
                                 "gridded", "reeds_shepp", "diff_drive")))
    if kind == "gridded":
        return gridded(draw(st.sampled_from((0.02, 0.05, 0.1))),
                       draw(limits))
    if kind == "scaled":
        return dyn.make_model({"model": "scaled_euclidean2",
                               "sigma": draw(limits), "c_pi": draw(limits)})
    return dyn.make_model({"model": kind, "c_pi": draw(limits),
                           "r_min": draw(limits),
                           "omega_max": draw(limits)})


@st.composite
def configurations(draw, model):
    q = [draw(st.floats(-0.5, 0.5)) for _ in range(model.workspace_dim)]
    if model.config_dim > model.workspace_dim:
        q.append(draw(st.floats(0.0, _TWO_PI, exclude_max=True)))
    return tuple(q)


def assert_same_samples(model, q, eps, n, seed):
    got = dyn.sample_reachable(model, q, eps, n, make_rng(seed, 1))
    ref = reference_sample_reachable(model, q, eps, n, make_rng(seed, 1))
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == (n, model.workspace_dim)
    assert np.array_equal(got, np.asarray(ref))
    return got


@settings(max_examples=200)
@given(st.data(), models(), st.floats(1e-3, 1.0), st.integers(1, 300),
       st.integers(0, 2 ** 32))
def test_sample_reachable_matches_the_frozen_tuple_sampler(data, model, eps,
                                                           n, seed):
    q = data.draw(configurations(model))
    assert_same_samples(model, q, eps, n, seed)


@pytest.mark.parametrize("model_id", dyn.MODEL_IDS)
def test_sample_reachable_matches_on_every_model(model_id):
    model = (gridded() if model_id == "scaled_euclidean2"
             else dyn.make_model({"model": model_id}))
    q = (0.1, 0.2, 0.3)[:model.config_dim]
    pts = assert_same_samples(model, q, 0.4, 2000, 7)
    if model_id == "scaled_euclidean2":
        # the walks cross several cells of the field
        reach = np.hypot(*(pts - q[:2]).T).max()
        assert reach > 5 * model.sigma.cell_size


# --- grid_volume ----------------------------------------------------------

@st.composite
def clouds(draw):
    """Point clouds with duplicates, points on box planes and negative
    coordinates, in 1 to 3 dimensions, as (n, d) or 1-D arrays or lists."""
    dim = draw(st.integers(1, 3))
    res = draw(st.sampled_from((0.25, 0.1, 1.0 / 3.0, 0.01, 2.0)))
    on_plane = st.integers(-20, 20).map(lambda k: k * res)
    coord = st.one_of(on_plane, st.floats(-5.0, 5.0))
    pool = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=20))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    if dim == 1 and draw(st.booleans()):
        picks = [p[0] for p in picks]
    return (np.array(picks) if draw(st.booleans()) else picks), res


@settings(max_examples=400)
@given(clouds())
def test_grid_volume_matches_the_frozen_unique_count(cloud):
    pts, res = cloud
    assert agl.grid_volume(pts, res) == reference_grid_volume(pts, res)


def test_grid_volume_matches_on_sampled_sets():
    for model in (dyn.make_model({"model": "euclidean3"}),
                  dyn.make_model({"model": "reeds_shepp"})):
        q = (0.0, 0.0, 0.0)
        pts = dyn.sample_reachable(model, q, 0.05, 20_000, make_rng(3, 2))
        for res in (0.05 / 20.0, 0.05 ** 2 / 8.0):
            assert agl.grid_volume(pts, res) == reference_grid_volume(pts,
                                                                      res)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_volume_rejects_non_finite_points(bad):
    with pytest.raises(OutOfSupport):
        agl.grid_volume([(bad, 0.0), (0.1, 0.1)], 0.5)
    with pytest.raises(OutOfSupport):
        agl.grid_volume(np.array([0.0, bad]), 0.5)


def test_grid_volume_rejects_box_indices_beyond_int64():
    with pytest.raises(OutOfSupport):
        agl.grid_volume([(1e300, 0.0)], 1e-3)


@pytest.mark.parametrize("res", [math.nan, math.inf, -math.inf, -1.0])
def test_grid_volume_rejects_bad_resolution(res):
    with pytest.raises(ValueError):
        agl.grid_volume([(0.0, 0.0)], res)


# --- exact_binom_zeta_diff ------------------------------------------------

@settings(max_examples=300)
@given(st.integers(0, 300),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_exact_binom_matches_the_frozen_loop(n, p, z):
    assert (stats.exact_binom_zeta_diff(n, p, z)
            == reference_exact_binom_zeta_diff(n, p, z))
