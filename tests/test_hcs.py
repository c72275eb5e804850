"""Cell structures: subdivision, covers, locate, and volume fractions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstsp_lab import bounds as bnd
from dstsp_lab import dynamics as dyn
from dstsp_lab import hcs
from dstsp_lab.errors import (CellNotContained, ConfigError,
                              NonIntegerGamma, OutOfSupport)


def unit_rng(seed=0):
    return np.random.default_rng(seed)


E2 = dyn.make_model({"model": "euclidean2"})
E3 = dyn.make_model({"model": "euclidean3"})
RS = dyn.make_model({"model": "reeds_shepp"})
SC = dyn.make_model({"model": "scaled_euclidean2", "sigma": 2.0})


# ---------------------------------------------------------------- subdivision

def test_quadtree_split_counts():
    root = hcs.build_hcs(E2, (0.5, 0.5), 0.4, depth=2)
    assert len(root.children) == 4
    for ch in root.children:
        assert len(ch.children) == 4
        assert ch.eps == pytest.approx(0.2)
        assert ch.depth == 1
        assert ch.half == pytest.approx((0.1, 0.1))
    assert root.half == pytest.approx((0.2, 0.2))
    assert root.depth == 0


def test_octree_split_euclidean3():
    root = hcs.build_hcs(E3, (0.0, 0.0, 0.0), 0.2, depth=1)
    assert len(root.children) == 8
    assert root.children[0].half == pytest.approx((0.05, 0.05, 0.05))


def test_bidirectional_car_split():
    root = hcs.build_hcs(RS, (0.0, 0.0, 0.0), 0.2, depth=1)
    assert len(root.children) == 8
    assert root.half[0] == pytest.approx(0.1)
    assert root.half[1] == pytest.approx(0.2 ** 2 / 16.0)
    for ch in root.children:
        # heading axis halves, lateral axis quarters
        assert ch.half[0] == pytest.approx(root.half[0] / 2.0)
        assert ch.half[1] == pytest.approx(root.half[1] / 4.0)
        assert ch.anchor[2] == pytest.approx(root.anchor[2])


def test_gamma_table():
    assert hcs.model_gamma(E2) == 2
    assert hcs.model_gamma(SC) == 2
    assert hcs.model_gamma(E3) == 3
    assert hcs.model_gamma(RS) == 3


def test_unsupported_model_rejected():
    dd = dyn.make_model({"model": "diff_drive"})
    with pytest.raises(NonIntegerGamma):
        hcs.build_hcs(dd, (0.0, 0.0, 0.0), 0.2, depth=1)


def test_build_validation():
    with pytest.raises(ValueError):
        hcs.build_hcs(E2, (0.0, 0.0), 0.0, depth=1)
    with pytest.raises(ValueError):
        hcs.build_hcs(E2, (0.0, 0.0), 0.2, depth=-1)
    with pytest.raises(ValueError):
        hcs.build_hcs(E2, (0.0, 0.0), 0.2, depth=1, s=1)


@pytest.mark.parametrize("model,anchor", [
    (E2, (0.3, 0.4)),
    (RS, (0.3, 0.4, 0.9)),
])
def test_children_partition_parent(model, anchor):
    root = hcs.build_hcs(model, anchor, 0.3, depth=1)
    rng = unit_rng(11)
    for p in root.sample_points(2000, rng):
        owners = [i for i, ch in enumerate(root.children) if ch.contains(p)]
        assert len(owners) == 1
    # child boxes jointly exhaust the parent volume
    total = sum(ch.volume() for ch in root.children)
    assert total == pytest.approx(root.volume())


@pytest.mark.parametrize("model,anchor", [
    (E2, (0.5, 0.5)),
    (SC, (0.5, 0.5)),
    (RS, (0.5, 0.5, 1.2)),
])
def test_child_anchor_within_parent_radius(model, anchor):
    root = hcs.build_hcs(model, anchor, 0.25, depth=1)
    for ch in root.children:
        d = dyn.steer(model, root.anchor, ch.anchor).duration
        assert d <= root.eps * (1.0 + 1e-6)


def test_descendant_chain_within_three_radii():
    eps0 = 0.4
    root = hcs.build_hcs(E2, (0.5, 0.5), eps0, depth=3)
    rng = unit_rng(5)
    for _ in range(20):
        node, total = root, 0.0
        while node.children:
            nxt = node.children[int(rng.integers(len(node.children)))]
            total += dyn.steer(E2, node.anchor, nxt.anchor).duration
            node = nxt
        assert total <= 3.0 * eps0


# --------------------------------------------------------------------- covers

def test_cover_unit_square_counts():
    cov = hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)), 0.25)
    assert cov.m == 16
    assert cov.counts == (4, 4)
    assert cov.rho == 0.0
    anchors = {c.anchor for c in cov.roots}
    assert (0.125, 0.125) in anchors
    assert (0.875, 0.875) in anchors


def test_cover_bidirectional_car_counts():
    cov = hcs.build_cover(RS, ((0.0, 0.0), (1.0, 1.0)), 0.2)
    assert cov.counts == (5, 200)
    assert cov.m == 1000
    # anchor heading lies along the box's long axis (axis 0)
    for c in cov.roots[:5]:
        assert c.anchor[2] == 0.0
        assert c.half[0] > c.half[1]


def test_cover_validation():
    with pytest.raises(ValueError):
        hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)), -0.1)
    with pytest.raises(ValueError):
        hcs.build_cover(E2, ((0.0, 0.0), (0.0, 1.0)), 0.2)
    with pytest.raises(ValueError):
        hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)), 0.2, rho=-0.5)


def _membership_counts(cov, pts):
    """Vectorized per-point count of containing roots (heading-0 boxes)."""
    counts = np.zeros(len(pts), dtype=int)
    xs, ys = pts[:, 0], pts[:, 1]
    for c in cov.roots:
        hx, hy = c.half
        inside = ((xs - c.anchor[0] >= -hx) & (xs - c.anchor[0] < hx) &
                  (ys - c.anchor[1] >= -hy) & (ys - c.anchor[1] < hy))
        counts += inside
    return counts


def test_cover_overlap_mass_zero():
    cov = hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)), 0.25)
    rng = unit_rng(42)
    pts = rng.uniform(0.0, 1.0, size=(100_000, 2))
    counts = _membership_counts(cov, pts)
    assert np.all(counts == 1)


def test_cover_bidirectional_car_partition_audit():
    cov = hcs.build_cover(RS, ((0.0, 0.0), (1.0, 1.0)), 0.2)
    rng = unit_rng(9)
    pts = rng.uniform(0.0, 1.0, size=(10_000, 2))
    counts = _membership_counts(cov, pts)
    assert np.all(counts == 1)


# --------------------------------------------------------------------- locate

def test_locate_path_example():
    cov = hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)), 1.0)
    assert cov.m == 1
    assert hcs.locate_path(cov, (0.3, 0.7), 2) == (0, (2, 1))


def test_locate_path_depth_zero():
    cov = hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)), 1.0)
    assert hcs.locate_path(cov, (0.3, 0.7), 0) == (0, ())


def test_locate_boundary_goes_upper():
    cov = hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)), 1.0)
    # dead center sits on both child boundaries: upper side on both axes
    _, path = hcs.locate_path(cov, (0.5, 0.5), 1)
    assert path == (3,)
    # x boundary only
    _, path = hcs.locate_path(cov, (0.5, 0.2), 1)
    assert path == (1,)


def test_locate_root_tiling():
    cov = hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)), 0.25)
    # tile (2, 1), axis 0 least significant in the flat index
    assert hcs.locate_root(cov, (0.6, 0.3)) == 2 + 4 * 1
    # interior tile boundary assigns the upper tile
    assert hcs.locate_root(cov, (0.25, 0.0)) == 1
    # global top edge folds into the boundary tile
    assert hcs.locate_root(cov, (1.0, 1.0)) == 15


def test_locate_out_of_support():
    cov = hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)), 0.25)
    with pytest.raises(OutOfSupport):
        hcs.locate_path(cov, (1.5, 0.5), 1)
    with pytest.raises(OutOfSupport):
        hcs.locate_path(cov, (0.5, -0.01), 1)
    for bad in [(math.nan, 0.5), (0.5, math.nan)]:
        with pytest.raises(OutOfSupport):
            hcs.locate_root(cov, bad)


@pytest.mark.parametrize("model,support,eps0", [
    (E2, ((0.0, 0.0), (1.0, 1.0)), 0.25),
    (RS, ((0.0, 0.0), (1.0, 1.0)), 0.2),
])
def test_locate_path_matches_built_tree(model, support, eps0):
    """Arithmetic locate agrees with geometric membership in the built tree."""
    cov = hcs.build_cover(model, support, eps0)
    rng = unit_rng(17)
    depth = 3
    for _ in range(50):
        x = tuple(rng.uniform(0.0, 1.0, size=2))
        ri, path = hcs.locate_path(cov, x, depth)
        node = hcs.build_hcs(model, cov.roots[ri].anchor, eps0, depth)
        assert node.contains(x)
        for idx in path:
            node = node.children[idx]
            assert node.contains(x)


# ------------------------------------------------------------ alpha estimates

def test_alpha_conservative_square():
    cell = hcs.Cell(anchor=(0.0, 0.0), eps=0.1, half=(0.05, 0.05), depth=0)
    a = hcs.measure_alpha(cell, E2, g_hat=math.pi, n_samples=2000,
                          rng=unit_rng(1))
    assert a == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_alpha_inscribed_square():
    h = 0.1 * math.sqrt(2) / 2.0
    cell = hcs.Cell(anchor=(0.0, 0.0), eps=0.1, half=(h, h), depth=0)
    a = hcs.measure_alpha(cell, E2, g_hat=math.pi, n_samples=2000,
                          rng=unit_rng(2))
    assert a == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_alpha_default_boxes_below_one():
    for model, anchor in [(E2, (0.2, 0.3)), (SC, (0.2, 0.3)),
                          (RS, (0.2, 0.3, 0.5))]:
        root = hcs.build_hcs(model, anchor, 0.2, depth=0)
        g = {"euclidean2": math.pi,
             "scaled_euclidean2": math.pi * 4.0,
             "reeds_shepp": 1.0}[model.model_id]
        a = hcs.measure_alpha(root, model, g_hat=g, n_samples=500,
                              rng=unit_rng(3))
        assert 0.0 < a <= 1.0 + 1e-9


def test_alpha_oversized_box_rejected():
    # square of side 2*eps sticks far outside the radius-eps disk
    cell = hcs.Cell(anchor=(0.0, 0.0), eps=0.1, half=(0.1, 0.1), depth=0)
    with pytest.raises(CellNotContained):
        hcs.measure_alpha(cell, E2, g_hat=math.pi, n_samples=2000,
                          rng=unit_rng(4))


def test_alpha_requires_positive_g():
    cell = hcs.Cell(anchor=(0.0, 0.0), eps=0.1, half=(0.05, 0.05), depth=0)
    with pytest.raises(ValueError):
        hcs.measure_alpha(cell, E2, g_hat=0.0, n_samples=100, rng=unit_rng(5))


def test_alpha_scaled_model():
    # sigma doubles reach, so the box side doubles and alpha is unchanged
    cell = hcs.build_hcs(SC, (0.5, 0.5), 0.1, depth=0)
    assert cell.half == pytest.approx((0.1, 0.1))
    a = hcs.measure_alpha(cell, SC, g_hat=4.0 * math.pi, n_samples=1000,
                          rng=unit_rng(6))
    assert a == pytest.approx(1.0 / math.pi, rel=1e-12)


# ------------------------------------------------------- regularization hook

def test_default_zeta_and_regularization():
    g = bnd.GridField((0.0, 0.0), 1.0 / 64, np.ones((64, 64)))
    vals = np.asarray(g.values).copy()
    vals[:, 32:] = 4.0
    g = g.with_values(vals)
    assert hcs.default_zeta(g) == pytest.approx(0.05)
    reg = hcs.regularize_agility(g)
    rv = np.asarray(reg.values)
    assert np.all(rv <= vals + 1e-12)
    assert np.all(rv > 0.0)
    # far from the jump the floor is inactive
    assert rv[0, 0] == pytest.approx(1.0)
    assert rv[0, -1] == pytest.approx(4.0)


# -------------------------------------------------------------- serialization

def test_cover_json_roundtrip():
    cov = hcs.build_cover(RS, ((0.0, 0.0), (1.0, 1.0)), 0.2)
    obj = hcs.cover_to_json(cov)
    assert obj["eps0"] == 0.2
    assert obj["s"] == 2
    assert obj["gamma"] == 3
    assert len(obj["roots"]) == cov.m
    back = hcs.cover_from_json(obj)
    assert back.m == cov.m
    assert back.counts == cov.counts
    rng = unit_rng(33)
    for _ in range(20):
        x = tuple(rng.uniform(0.0, 1.0, size=2))
        assert hcs.locate_path(back, x, 2) == hcs.locate_path(cov, x, 2)


def test_cover_json_without_roots_is_config_error():
    obj = hcs.cover_to_json(hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)),
                                            0.5))
    with pytest.raises(ConfigError, match="roots"):
        hcs.cover_from_json(dict(obj, roots=[]))
    for key in ("anchor", "box"):
        roots = [dict(r) for r in obj["roots"]]
        del roots[1][key]
        with pytest.raises(ConfigError, match="root 1"):
            hcs.cover_from_json(dict(obj, roots=roots))


@pytest.mark.parametrize("mutate, field", [
    (lambda o: o.pop("support"), "support"),
    (lambda o: o.pop("eps0"), "eps0"),
    (lambda o: o.pop("model"), "model"),
    (lambda o: o.pop("s"), "'s'"),
    (lambda o: o.pop("gamma"), "gamma"),
    (lambda o: o.pop("rho"), "rho"),
    (lambda o: o.update(eps0="0.5"), "eps0"),
    (lambda o: o.update(eps0=math.inf), "eps0"),
    (lambda o: o.update(rho=math.nan), "rho"),
    (lambda o: o.update(s=2.5), "'s'"),
    (lambda o: o.update(gamma=True), "gamma"),
    (lambda o: o.update(model="diff_drive"), "model"),
    (lambda o: o.update(support=[[0.0, 0.0]]), "support"),
    (lambda o: o.update(support=[[0.0, 0.0], [1.0, "1"]]), "support"),
    (lambda o: o.update(support=[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
     "support"),
    (lambda o: o["roots"][1].update(anchor=[0.5, math.inf]), "root 1"),
    (lambda o: o["roots"][1].update(anchor=[0.5, 0.5, 0.0]), "root 1"),
    (lambda o: o["roots"][1].update(box=[[-0.1, 0.1]]), "root 1 'box'"),
    (lambda o: o["roots"][1].update(box=[[-0.1, 0.1]] * 3),
     "root 1 'box'"),
    (lambda o: o["roots"][1].update(box=[[-0.1, "0.1"], [-0.1, 0.1]]),
     "root 1 'box'"),
    (lambda o: o["roots"][1].update(box=[[-0.1], [-0.1, 0.1]]),
     "root 1 'box'"),
])
def test_malformed_cover_json_is_config_error_naming_the_field(mutate,
                                                                field):
    obj = hcs.cover_to_json(hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)),
                                            0.5))
    mutate(obj)
    with pytest.raises(ConfigError, match=field):
        hcs.cover_from_json(obj)


def test_cover_json_checks_the_car_anchor_and_its_workspace_box():
    obj = hcs.cover_to_json(hcs.build_cover(RS, ((0.0, 0.0), (1.0, 1.0)),
                                            0.3))
    assert len(obj["roots"][0]["anchor"]) == 3
    assert len(obj["roots"][0]["box"]) == 2
    hcs.cover_from_json(obj)
    obj["roots"][2]["anchor"] = obj["roots"][2]["anchor"][:2]
    with pytest.raises(ConfigError, match="root 2 'anchor'"):
        hcs.cover_from_json(obj)
    with pytest.raises(ConfigError, match="object"):
        hcs.cover_from_json([])


# ----------------------------------------------- lattice roots vs eager roots

def reference_build_cover_roots(model, support, eps0):
    """The root cells hcs.build_cover built eagerly before TileRoots."""
    mins, maxs = (tuple(float(v) for v in support[0]),
                  tuple(float(v) for v in support[1]))
    sides = tuple(2.0 * h for h in hcs.half_widths(model, eps0))
    counts = tuple(max(1, math.ceil((b - a) / w - 1e-12))
                   for a, b, w in zip(mins, maxs, sides))
    heading = 0.0
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
        roots.append(hcs.make_cell(model, anchor, eps0))
    return tuple(roots)


@pytest.mark.parametrize("model, support, eps0", [
    (E2, ((0.0, 0.0), (1.0, 1.0)), 0.037),
    (E2, ((-1.5, 0.25), (2.0, 0.9)), 0.11),
    (SC, ((0.0, 0.0), (1.0, 1.0)), 0.07),
    (E3, ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 0.09),
    (E3, ((-0.3, 0.0, 2.0), (0.4, 1.0, 2.5)), 0.05),
    (RS, ((0.0, 0.0), (1.0, 1.0)), 0.21),
    (RS, ((-2.0, -0.5), (3.0, 0.5)), 0.4),
])
def test_lattice_roots_match_the_eager_cells(model, support, eps0):
    cover = hcs.build_cover(model, support, eps0)
    want = reference_build_cover_roots(model, support, eps0)
    roots = cover.roots
    assert isinstance(roots, hcs.TileRoots)
    assert len(roots) == cover.m == len(want)
    assert len(want) > 20
    for i, cell in enumerate(want):
        assert roots[i] == cell
        assert all(type(v) is float for v in roots[i].anchor)
    assert list(roots) == list(want)
    for i in (-1, -2, -len(want)):
        assert roots[i] == want[i]
    assert roots[3:11:2] == want[3:11:2]
    assert roots[-3:] == want[-3:]
    for bad in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            roots[bad]
    # the anchors of many roots at once, with the same float operations
    flat = np.array([0, 5, len(want) - 1, 7, 5])
    assert hcs.root_anchors(cover, flat).tolist() == \
        [list(want[k].anchor) for k in flat.tolist()]
    # and the JSON of the lazy cover is the JSON of the eager one
    eager = dataclasses.replace(cover, roots=want)
    assert hcs.cover_to_json(cover) == hcs.cover_to_json(eager)


def test_cover_from_json_keeps_its_roots_as_cells():
    cover = hcs.build_cover(RS, ((0.0, 0.0), (1.0, 1.0)), 0.3)
    back = hcs.cover_from_json(hcs.cover_to_json(cover))
    assert isinstance(back.roots, tuple)
    assert back.roots == tuple(cover.roots)
    flat = np.arange(back.m)[::-1].copy()
    assert hcs.root_anchors(back, flat).tolist() == \
        hcs.root_anchors(cover, flat).tolist()


def test_child_anchors_match_child_cells():
    for model, anchor in ((E2, (0.3, 0.6)), (E3, (0.3, 0.6, 0.1)),
                          (SC, (0.5, 0.5)), (RS, (0.3, 0.6, 1.1))):
        child = hcs.ChildAnchors(model, 0.4, 2)
        cells = [hcs.make_cell(model, anchor, 0.4)]
        rng = unit_rng(len(anchor))
        for depth in range(5):
            index = int(rng.integers(0, 2 ** hcs.model_gamma(model)))
            got = child(cells[-1].anchor, depth, index)
            cells.append(hcs.child_cell(model, cells[-1], index, 2))
            assert got == cells[-1].anchor


# ------------------------------------------- one-pass location vs frozen loops
#
# reference_tile_index, reference_locate_root and reference_path_in_root are
# the per-point loops that hcs.root_indices and hcs.descend replaced. The
# array versions must agree with them exactly: a digit that differs moves a
# target to another cell and changes the tour.

def reference_tile_index(cover, x):
    idx = []
    for i in range(len(cover.counts)):
        xi = float(x[i])
        if not cover.mins[i] <= xi <= cover.maxs[i]:  # NaN fails too
            raise OutOfSupport(f"coordinate {i} outside the covered support")
        k = math.floor((xi - cover.mins[i]) / cover.sides[i])
        # the support's top edge folds into its boundary tile
        k = min(k, cover.counts[i] - 1)
        idx.append(k)
    return idx


def reference_locate_root(cover, x):
    idx = reference_tile_index(cover, x)
    flat = 0
    for i in reversed(range(len(idx))):
        flat = flat * cover.counts[i] + idx[i]
    return flat


def reference_path_in_root(cover, root_idx, x, depth):
    radices = tuple(cover.s ** w for w in hcs._BOX_TABLE[cover.model_id][0])
    root = cover.roots[root_idx]
    u = root.to_adapted(x)
    # normalized position in [0, 1) per axis inside the root box
    taus = [min(max((ui + h) / (2.0 * h), 0.0), 1.0 - 1e-15)
            for ui, h in zip(u, root.half)]
    path = []
    for _ in range(int(depth)):
        index = 0
        scale = 1
        new_taus = []
        for tau, r in zip(taus, radices):
            t = min(int(tau * r), r - 1)
            index += t * scale
            scale *= r
            new_taus.append(tau * r - t)
        path.append(index)
        taus = new_taus
    return tuple(path)


def _assert_located_as_reference(cover, points, depth):
    pts = np.asarray(points, dtype=float)
    roots = hcs.root_indices(cover, pts)
    digits = hcs.descend(cover, roots, pts, depth)
    assert digits.shape == (len(pts), depth)
    for k, x in enumerate(points):
        ri = reference_locate_root(cover, x)
        path = reference_path_in_root(cover, ri, x, depth)
        assert int(roots[k]) == ri
        assert tuple(digits[k].tolist()) == path
        assert hcs.locate_root(cover, x) == ri
        assert hcs.locate_path(cover, x, depth) == (ri, path)


_CAR_COVER = hcs.build_cover(RS, ((0.0, 0.0), (1.0, 1.0)), 0.3)


def _turned_car_cover():
    """The car cover read back from JSON with every root heading turned:
    the descent then runs in rotated frames, and points may fall outside
    their root's turned box (their positions clip to its edge)."""
    obj = hcs.cover_to_json(_CAR_COVER)
    for k, root in enumerate(obj["roots"]):
        root["anchor"][2] = 0.3 + 0.7 * k
    return hcs.cover_from_json(obj)


LOCATE_COVERS = {
    "euclidean2": hcs.build_cover(E2, ((0.0, 0.0), (1.0, 1.0)), 0.1),
    "euclidean2_shifted": hcs.build_cover(E2, ((-0.3, 0.2), (0.71, 1.9)),
                                          0.13),
    "euclidean3": hcs.build_cover(E3, ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
                                  0.3),
    "scaled": hcs.build_cover(SC, ((0.0, 0.0), (1.0, 1.0)), 0.07),
    "reeds_shepp": _CAR_COVER,
    "reeds_shepp_turned": _turned_car_cover(),
}


@st.composite
def located_points(draw):
    """A cover and points anywhere in its support, on its tile planes, on
    or one ulp beside its cell planes below the roots, and on its top
    edges."""
    name = draw(st.sampled_from(sorted(LOCATE_COVERS)))
    cover = LOCATE_COVERS[name]
    d = len(cover.counts)
    coords = []
    for i in range(d):
        lo, hi, side = cover.mins[i], cover.maxs[i], cover.sides[i]
        anywhere = st.floats(lo, hi)
        tile_plane = st.integers(0, cover.counts[i]).map(
            lambda k, lo=lo, side=side, hi=hi: min(lo + k * side, hi))
        cell_plane = st.integers(0, 8 * cover.counts[i]).map(
            lambda k, lo=lo, side=side, hi=hi: min(lo + k * side / 8, hi))
        near_plane = st.tuples(cell_plane, st.sampled_from([-1, 1])).map(
            lambda v, lo=lo, hi=hi: min(max(math.nextafter(
                v[0], v[1] * math.inf), lo), hi))
        edge = st.sampled_from([lo, hi, math.nextafter(hi, lo)])
        coords.append(st.one_of(anywhere, tile_plane, cell_plane,
                                near_plane, edge))
    points = draw(st.lists(st.tuples(*coords), min_size=1, max_size=30))
    return cover, points, draw(st.integers(0, 5))


@settings(max_examples=300)
@given(located_points())
def test_one_pass_location_matches_the_frozen_loops(case):
    _assert_located_as_reference(*case)


@pytest.mark.parametrize("name", sorted(LOCATE_COVERS))
def test_one_pass_location_matches_the_frozen_loops_on_samples(name):
    cover = LOCATE_COVERS[name]
    rng = unit_rng(23)
    pts = rng.uniform(cover.mins, cover.maxs,
                      size=(2000, len(cover.counts)))
    _assert_located_as_reference(cover, [tuple(p) for p in pts], 4)


def test_one_pass_location_names_the_first_point_outside():
    cover = LOCATE_COVERS["euclidean2"]
    pts = np.full((50, 2), 0.5)
    pts[7] = (0.5, 1.5)
    pts[31] = (math.nan, math.nan)
    with pytest.raises(OutOfSupport, match="^coordinate 1 outside") as err:
        hcs.root_indices(cover, pts)
    assert err.value.row == 7
    with pytest.raises(OutOfSupport) as err:
        hcs.root_indices(cover, pts[8:])
    assert err.value.row == 23 and str(err.value).startswith("coordinate 0")
