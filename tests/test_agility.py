import math

import numpy as np
import pytest

from dstsp_lab import agility as agl
from dstsp_lab import bounds as B
from dstsp_lab import dynamics as dyn
from dstsp_lab.errors import DegenerateFit, EmptyPointSet
from dstsp_lab.seeding import make_rng


def euclid2():
    return dyn.make_model({"model": "euclidean2"})


def scaled_const(s):
    return dyn.make_model({"model": "scaled_euclidean2", "sigma": s})


def reeds():
    return dyn.make_model({"model": "reeds_shepp"})


RS_RES = lambda e: e * e / 8.0  # lateral extent of the set is O(eps^2)


# --- grid_volume ----------------------------------------------------------

def test_grid_volume_single_point():
    assert agl.grid_volume([(0.3, 0.7)], 0.25) == 0.25 ** 2
    assert agl.grid_volume([(0.1, 0.2, 0.3)], 0.5) == 0.5 ** 3


def test_grid_volume_counts_distinct_boxes():
    pts = [(0.1, 0.1), (0.11, 0.12), (0.9, 0.9)]
    assert agl.grid_volume(pts, 0.5) == 2 * 0.25


def test_grid_volume_empty():
    with pytest.raises(EmptyPointSet):
        agl.grid_volume([], 0.1)
    with pytest.raises(ValueError):
        agl.grid_volume([(0.0, 0.0)], 0.0)


def test_grid_volume_unit_square():
    rng = make_rng(20260819, 50)
    pts = rng.random((1_000_000, 2))
    vol = agl.grid_volume(pts, 0.01)
    assert abs(vol - 1.0) <= 0.03


def test_grid_volume_unit_disk():
    rng = make_rng(20260819, 51)
    # uniform points in the unit disk via rejection-free polar sampling
    r = np.sqrt(rng.random(1_000_000))
    th = rng.random(1_000_000) * 2.0 * math.pi
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    vol = agl.grid_volume(pts, 0.01)
    assert abs(vol - math.pi) <= 0.03 * math.pi


def test_grid_volume_monotone_in_eps():
    model = euclid2()
    rng_seed = 20260819
    vols = []
    for eps in (0.1, 0.2, 0.4):
        pts = dyn.sample_reachable(model, (0.0, 0.0), eps, 2000,
                                   make_rng(rng_seed, 52))
        vols.append(agl.grid_volume(pts, eps / 20.0))
    assert vols[0] < vols[1] < vols[2]


def test_grid_volume_monotone_reeds_shepp():
    model = reeds()
    vols = []
    for eps in (0.25, 0.5, 1.0):
        pts = dyn.sample_reachable(model, (0.0, 0.0, 0.0), eps, 4000,
                                   make_rng(20260819, 53))
        vols.append(agl.grid_volume(pts, RS_RES(eps)))
    assert vols[0] < vols[1] < vols[2]


# --- estimate_gamma --------------------------------------------------------

def test_estimate_gamma_euclidean2():
    est = agl.estimate_gamma(euclid2(), (0.3, 0.4), agl.eps_ladder(0.4),
                             10_000, make_rng(20260819, 54))
    assert 1.9 <= est.gamma_hat <= 2.1
    assert abs(est.g_hat - math.pi) <= 0.1 * math.pi
    assert est.fit_r2 >= 0.99
    assert len(est.epsilons) == 5
    assert all(a > b for a, b in zip(est.epsilons, est.epsilons[1:]))
    assert all(v > 0 for v in est.volumes)


def test_estimate_gamma_scaled_doubles():
    # radius doubles, so the default eps/20 boxes need more samples to fill
    est = agl.estimate_gamma(scaled_const(2.0), (0.0, 0.0),
                             agl.eps_ladder(0.4), 20_000,
                             make_rng(20260819, 55))
    assert abs(est.g_hat - 4.0 * math.pi) <= 0.1 * 4.0 * math.pi


def test_estimate_gamma_reeds_shepp():
    est = agl.estimate_gamma(reeds(), (0.0, 0.0, 0.0), agl.eps_ladder(0.4),
                             50_000, make_rng(20260819, 56),
                             resolution_fn=RS_RES)
    assert abs(est.gamma_hat - 3.0) <= 0.2


def test_estimate_gamma_at_least_two():
    # every model moves at bounded speed, so volume scales at least
    # quadratically in a planar workspace
    for model, q in ((euclid2(), (0.0, 0.0)),
                     (scaled_const(1.5), (0.0, 0.0)),
                     (reeds(), (0.0, 0.0, 0.0))):
        res_fn = RS_RES if model.model_id == "reeds_shepp" else None
        est = agl.estimate_gamma(model, q, agl.eps_ladder(0.4), 20_000,
                                 make_rng(20260819, 57),
                                 resolution_fn=res_fn)
        assert est.gamma_hat >= 1.9


def test_estimate_gamma_uniform_convergence():
    # Vol(eps)/eps^2 stays within 10% of g for every eps <= 0.1
    est = agl.estimate_gamma(euclid2(), (0.0, 0.0), agl.eps_ladder(0.1),
                             20_000, make_rng(20260819, 58))
    for e, v in zip(est.epsilons, est.volumes):
        ratio = v / (e ** 2) / math.pi
        assert 0.9 <= ratio <= 1.1


def test_estimate_gamma_validation():
    with pytest.raises(ValueError):
        agl.estimate_gamma(euclid2(), (0.0, 0.0), [0.4, 0.2, 0.1],
                           100, make_rng(1))


def test_estimate_gamma_degenerate_fit():
    # a fixed coarse resolution makes every rung report the same volume
    with pytest.raises(DegenerateFit):
        agl.estimate_gamma(euclid2(), (0.0, 0.0),
                           agl.eps_ladder(0.01), 50, make_rng(20260819, 59),
                           resolution_fn=lambda e: 1.0)


def test_eps_ladder():
    lad = agl.eps_ladder(0.4)
    assert lad == [0.4, 0.2, 0.1, 0.05, 0.025]


# --- agility_field ----------------------------------------------------------

def unit_square_geometry(m):
    return B.GridField((0.0, 0.0), 1.0 / m, np.zeros((m, m)))


def test_agility_field_euclidean_constant():
    field, records = agl.agility_field(euclid2(), unit_square_geometry(2),
                                       0.1, 6000, make_rng(20260819, 60))
    assert field.dims == (2, 2)
    assert np.all(np.abs(field.values - math.pi) <= 0.1 * math.pi)
    assert len(records) == 4 * 5
    assert set(records[0]) == {"model", "x", "y", "eps", "volume",
                               "gamma_hat", "g_hat", "r2"}


def test_agility_field_two_half_sigma():
    sigma = B.GridField((0.0, 0.0), 0.5, np.array([[1.0, 1.0], [2.0, 2.0]]))
    model = dyn.make_model({"model": "scaled_euclidean2", "sigma": sigma})
    field, _ = agl.agility_field(model, unit_square_geometry(2), 0.05, 8000,
                                 make_rng(20260819, 61),
                                 resolution_fn=lambda e: e / 10.0)
    # g = pi sigma^2 per half: pi on the left column, 4 pi on the right
    for j in range(2):
        assert abs(field.values[0, j] - math.pi) <= 0.1 * math.pi
        assert abs(field.values[1, j] - 4 * math.pi) <= 0.4 * math.pi


def test_agility_field_deterministic_across_calls():
    a, ra = agl.agility_field(euclid2(), unit_square_geometry(2), 0.1, 2000,
                              make_rng(99, 7))
    b, rb = agl.agility_field(euclid2(), unit_square_geometry(2), 0.1, 2000,
                              make_rng(99, 7))
    assert np.array_equal(a.values, b.values)
    assert ra == rb


def test_cell_agility_supremum_over_headings():
    best, per_heading = agl.cell_agility(
        reeds(), (0.0, 0.0), 0.4, 8000, 123456, (0, 0),
        resolution_fn=RS_RES, headings=4)
    assert len(per_heading) == 4
    assert all(best.g_hat >= est.g_hat for est in per_heading)


def test_cell_agility_single_anchor_for_heading_free():
    _, per_heading = agl.cell_agility(euclid2(), (0.5, 0.5), 0.2, 2000,
                                      7, (1, 1))
    assert len(per_heading) == 1
