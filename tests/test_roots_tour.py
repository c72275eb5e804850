"""Root ordering, cells and realization against frozen reference versions.

reference_roots_tour and reference_build_hcs are the straightforward
implementations that planner.roots_tour and hcs.child_cell replaced: a full
nearest-neighbour scan with numpy norms (closed-form models) or one steer per
remaining anchor (others), a 2-opt on numpy norms, and an eagerly built cell
tree. reference_two_opt is planner._two_opt before its numpy screen: the
same checks on every row of every pass. reference_nearest_neighbour_order is
planner._nearest_neighbour_order before neighbour lists: a ring search of
Python buckets at every step. reference_realize_root is
planner._realize_root before it stopped building cells. The fast versions
must agree with them exactly, not approximately: tours are reported bit for
bit.
"""

import itertools

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstsp_lab import bounds as bnd
from dstsp_lab import dynamics as dyn
from dstsp_lab import hcp
from dstsp_lab import hcs
from dstsp_lab import planner

SQ = ((0.0, 0.0), (1.0, 1.0))
CUBE = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def _speed_field():
    vals = np.ones((16, 16))
    vals[8:, :] = 2.0
    return bnd.GridField((0.0, 0.0), 1.0 / 16, vals)


MODELS = {
    "euclidean2": dyn.make_model({"model": "euclidean2"}),
    "euclidean3": dyn.make_model({"model": "euclidean3", "c_pi": 1.5}),
    "scaled_constant": dyn.make_model({"model": "scaled_euclidean2",
                                       "sigma": 2.0}),
    "scaled_grid": dyn.make_model({"model": "scaled_euclidean2",
                                   "sigma": _speed_field()}),
    "reeds_shepp": dyn.make_model({"model": "reeds_shepp"}),
    "reeds_shepp_wide": dyn.make_model({"model": "reeds_shepp",
                                        "r_min": 2.0, "c_pi": 0.8}),
    "reeds_shepp_tight": dyn.make_model({"model": "reeds_shepp",
                                         "r_min": 0.5, "c_pi": 1.5}),
}


def reference_roots_tour(model, anchors):
    """planner.roots_tour as it was before buckets and plain floats."""
    m = len(anchors)
    if m == 0:
        raise ValueError("at least one anchor required")
    if m == 1:
        return [anchors[0]]
    speed = None
    if model.model_id in ("euclidean2", "euclidean3"):
        speed = model.c_pi
    elif model.model_id == "scaled_euclidean2" and not hasattr(
            model.sigma, "values"):
        speed = model.c_pi * float(model.sigma)
    if speed is not None:
        pts = np.asarray([a[:model.workspace_dim] for a in anchors])
        live = np.ones(m, dtype=bool)
        order = [0]
        live[0] = False
        while len(order) < m:
            d = np.linalg.norm(pts - pts[order[-1]], axis=1)
            d[~live] = np.inf
            nxt = int(np.argmin(d))
            order.append(nxt)
            live[nxt] = False

        def dist(i, j):
            return float(np.linalg.norm(pts[i] - pts[j])) / speed
    else:
        cache = {}

        def dist(i, j):
            key = (i, j) if i <= j else (j, i)
            if key not in cache:
                cache[key] = dyn.steer(model, anchors[key[0]],
                                       anchors[key[1]]).duration
            return cache[key]

        order = [0]
        remaining = set(range(1, m))
        while remaining:
            last = order[-1]
            nxt = min(remaining, key=lambda j: (dist(last, j), j))
            order.append(nxt)
            remaining.discard(nxt)

    window = 10
    for _ in range(4):
        improved = False
        for i in range(m - 1):
            for j in range(i + 1, min(i + window, m - 1)):
                before = dist(order[i], order[i + 1])
                after = dist(order[i], order[j])
                if j + 1 < m:
                    before += dist(order[j], order[j + 1])
                    after += dist(order[i + 1], order[j + 1])
                if after < before - 1e-15:
                    order[i + 1:j + 1] = reversed(order[i + 1:j + 1])
                    improved = True
        if not improved:
            break
    return [anchors[i] for i in order]


def reference_two_opt(order, leg, exact=None, lower=None):
    """planner._two_opt as it was before the numpy screen; returns the
    edges it keeps up to date."""
    m = len(order)
    edge = [leg(order[k], order[k + 1]) for k in range(m - 1)]
    for _ in range(4):
        improved = False
        for i in range(m - 1):
            a = order[i]
            for j in range(i + 2, min(i + 10, m - 1)):
                # the reversal swaps edges (i, i+1), (j, j+1) for (i, j),
                # (i+1, j+1)
                b, c, d = order[i + 1], order[j], order[j + 1]
                before = edge[i] + edge[j]
                if lower is not None and lower(a, c) + lower(b, d) >= before:
                    continue
                ac = leg(a, c)
                bd = leg(b, d)
                after = ac + bd
                better = after < before - 1e-15
                if exact is not None and abs(after - before + 1e-15) \
                        <= 1e-14 * (before + after):
                    better = exact(a, c) + exact(b, d) < \
                        exact(a, b) + exact(c, d) - 1e-15
                if better:
                    order[i + 1:j + 1] = reversed(order[i + 1:j + 1])
                    edge[i + 1:j] = reversed(edge[i + 1:j])
                    edge[i], edge[j] = ac, bd
                    improved = True
        if not improved:
            break
    return edge


def reference_build_hcs(model, anchor, eps, depth, s, level=0):
    """hcs.build_hcs as it was before cells were built one child at a time."""
    heading = float(anchor[2]) if model.config_dim > model.workspace_dim \
        else 0.0
    kwargs = dict(anchor=tuple(float(a) for a in anchor), eps=eps,
                  half=hcs.half_widths(model, eps), depth=level,
                  heading=heading)
    base = hcs.Cell(**kwargs)
    if depth == 0:
        return base
    radices = tuple(s ** w for w in hcs.box_weights(model))
    children = []
    for index in range(math.prod(radices)):
        rem = index
        offsets = []
        for axis, r in enumerate(radices):
            t = rem % r
            rem //= r
            width = 2.0 * kwargs["half"][axis] / r
            offsets.append(-kwargs["half"][axis] + (t + 0.5) * width)
        center = base.to_workspace(tuple(offsets))
        child_anchor = tuple(center) + (
            (heading,) if model.config_dim > model.workspace_dim else ())
        children.append(reference_build_hcs(model, child_anchor, eps / s,
                                            depth - 1, s, level + 1))
    return hcs.Cell(children=tuple(children), **kwargs)


def _assert_same_tour(model, anchors):
    order = planner.roots_tour(model, anchors)
    want = reference_roots_tour(model, anchors)
    assert [anchors[i] for i in order] == want


def _lattice_anchors(model, eps0, fraction, seed):
    """Anchors of a random share of a cover's roots, in root order, as
    solve_dstsp passes them."""
    support = CUBE if model.workspace_dim == 3 else SQ
    cover = hcs.build_cover(model, support, eps0)
    rng = np.random.default_rng(seed)
    keep = np.flatnonzero(rng.random(cover.m) < fraction)
    return [cover.roots[int(k)].anchor for k in keep]


def _random_anchors(model, m, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(m, model.workspace_dim))
    if model.config_dim > model.workspace_dim:
        heads = rng.uniform(0.0, 2.0 * math.pi, size=(m, 1))
        pts = np.hstack([pts, heads])
    return [tuple(float(v) for v in p) for p in pts]


# (eps0, share of roots kept) per model: a few hundred lattice anchors at most
_LATTICES = {
    "euclidean2": [(0.05, 0.6), (0.02, 0.3), (0.3, 1.0)],
    "euclidean3": [(0.15, 0.5), (0.4, 1.0)],
    "scaled_constant": [(0.1, 0.6), (0.04, 0.3)],
    "scaled_grid": [(0.1, 0.5), (0.2, 1.0)],
    "reeds_shepp": [(0.4, 0.5), (0.5, 1.0)],
    "reeds_shepp_wide": [(0.5, 0.5), (0.8, 1.0)],
    "reeds_shepp_tight": [(0.2, 0.6), (0.3, 1.0)],
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_roots_tour_matches_reference_on_cover_lattices(name):
    model = MODELS[name]
    for k, (eps0, share) in enumerate(_LATTICES[name]):
        anchors = _lattice_anchors(model, eps0, share, seed=k)
        assert len(anchors) >= 2
        _assert_same_tour(model, anchors)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_roots_tour_matches_reference_on_random_anchors(name):
    model = MODELS[name]
    steered = name == "scaled_grid" or name.startswith("reeds_shepp")
    sizes = (40, 80) if steered else (60, 400)
    for seed, m in enumerate(sizes):
        _assert_same_tour(model, _random_anchors(model, m, seed))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_roots_tour_matches_reference_on_one_to_three_anchors(name):
    model = MODELS[name]
    for m in (1, 2, 3):
        for seed in range(3):
            _assert_same_tour(model, _random_anchors(model, m, 10 * m + seed))


def test_roots_tour_matches_reference_on_collinear_and_repeated_anchors():
    model = MODELS["euclidean2"]
    line = [(0.1 * i, 0.5) for i in (3, 0, 7, 1, 9, 2)]
    _assert_same_tour(model, line)
    _assert_same_tour(model, [(0.5, 0.5)] * 4 + [(0.25, 0.5)])


def test_roots_tour_matches_reference_on_coarse_lattice_ties():
    # long legs with exactly equal 2-opt alternatives: plain-float legs
    # alone decide these reversals differently from numpy's legs
    model = MODELS["euclidean2"]
    for h, cells in [
            (7.9, [(0, 0), (3, 5), (6, 6), (1, 1), (5, 3)]),
            (11.3, [(2, 6), (2, 4), (1, 5), (4, 6), (0, 5)]),
            (5.3, [(4, 3), (5, 6), (1, 5), (4, 5), (4, 2), (0, 4)])]:
        _assert_same_tour(model, [(i * h, j * h) for i, j in cells])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                min_size=1, max_size=40, unique=True),
       st.sampled_from([0.05, 0.1, 1.0 / 3.0, 7.9]))
def test_roots_tour_order_matches_reference_property(cells, h):
    # small lattices, where equal distances are the rule
    model = MODELS["euclidean2"]
    anchors = [((i + 0.5) * h, (j + 0.5) * h) for i, j in cells]
    _assert_same_tour(model, anchors)


@st.composite
def car_moves(draw):
    """A car, a start and a goal: anywhere, a turn on the spot, a pure
    lateral offset or a move straight ahead or back."""
    model = dyn.make_model({"model": "reeds_shepp",
                            "r_min": draw(st.sampled_from([0.5, 1.0, 2.0])),
                            "c_pi": draw(st.sampled_from([0.7, 1.5]))})
    coord = st.floats(-3.0, 3.0)
    heading = st.floats(0.0, 2.0 * math.pi)
    x, y, th = draw(coord), draw(coord), draw(heading)
    kind = draw(st.sampled_from(["any", "turn", "lateral", "ahead"]))
    if kind == "any":
        goal = (draw(coord), draw(coord), draw(heading))
    elif kind == "turn":
        goal = (x, y, draw(heading))
    else:
        d = draw(st.one_of(st.floats(-4.0, 4.0), st.floats(-1e-3, 1e-3)))
        ux, uy = (-math.sin(th), math.cos(th)) if kind == "lateral" \
            else (math.cos(th), math.sin(th))
        goal = (x + d * ux, y + d * uy, th)
    return model, (x, y, th), goal


@settings(max_examples=400)
@given(car_moves())
def test_curvature_bound_never_exceeds_the_steer_time(move):
    model, q0, q1 = move
    lower = planner._curvature_bound(model, [q0, q1])
    assert lower(0, 1) <= dyn.steer(model, q0, q1).duration
    assert lower(1, 0) <= dyn.steer(model, q1, q0).duration


def test_curvature_bound_beats_the_euclidean_bound_on_turns_and_offsets():
    model = MODELS["reeds_shepp_wide"]
    for q1 in [(0.0, 0.0, 1.0), (0.0, 0.05, 0.0), (0.01, -0.3, 0.0)]:
        lower = planner._curvature_bound(model, [(0.0, 0.0, 0.0), q1])
        euclid = math.hypot(q1[0], q1[1]) / model.c_pi
        t = dyn.steer(model, (0.0, 0.0, 0.0), q1).duration
        assert euclid < 0.5 * lower(0, 1) and lower(0, 1) <= t
    # straight ahead it is the distance itself, less the slack
    lower = planner._curvature_bound(model, [(0.0, 0.0, 0.0), (0.7, 0.0, 0.0)])
    assert lower(0, 1) == pytest.approx(0.7 / model.c_pi, rel=1e-8)


def _same_cells(a, b):
    assert (a.anchor, a.half, a.depth, a.eps, a.heading) == \
        (b.anchor, b.half, b.depth, b.eps, b.heading)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_child_cell_matches_reference_tree_at_depth_three(name):
    model = MODELS[name]
    anchor = (0.4, 0.55, 0.3)[:model.config_dim]
    depth = 3
    ref = reference_build_hcs(model, anchor, 0.3, depth, 2)
    built = hcs.build_hcs(model, anchor, 0.3, depth)

    def walk(want, got, lazy):
        _same_cells(want, got)
        _same_cells(want, lazy)
        assert len(got.children) == len(want.children)
        for i, child in enumerate(want.children):
            walk(child, got.children[i], hcs.child_cell(model, lazy, i, 2))

    walk(ref, built, hcs.make_cell(model, anchor, 0.3))


# --------------------------------------------- screened 2-opt vs its oracle

def _two_opt_moves(model, anchors, shuffle=None):
    """Run roots_tour with its 2-opt checked against reference_two_opt on
    the same start order and the same leg, exact and lower functions: the
    orders and the edges must be equal. shuffle, a seed, first permutes the
    nearest-neighbour order past its first anchor, which leaves the 2-opt
    many reversals to make. Returns the moves the 2-opt reported."""
    fast = planner._two_opt
    moves = []

    def checked(order, leg, *screen, exact=None, lower=None):
        if shuffle is not None:
            rest = order[1:]
            np.random.default_rng(shuffle).shuffle(rest)
            order[1:] = rest
        want = list(order)
        want_edges = reference_two_opt(want, leg, exact, lower)
        moves.append(fast(order, leg, *screen, exact=exact, lower=lower))
        assert order == want
        assert [leg(order[k], order[k + 1])
                for k in range(len(order) - 1)] == want_edges
        return moves[-1]

    with mock.patch.object(planner, "_two_opt", checked):
        planner.roots_tour(model, anchors)
    return sum(moves)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_screened_two_opt_matches_reference_on_cover_lattices(name):
    model = MODELS[name]
    moved = 0
    for k, (eps0, share) in enumerate(_LATTICES[name]):
        anchors = _lattice_anchors(model, eps0, share, seed=k)
        moved += _two_opt_moves(model, anchors)
        moved += _two_opt_moves(model, anchors, shuffle=k)
    assert moved > 0


@settings(max_examples=60)
@given(st.sampled_from(sorted(MODELS)), st.integers(2, 12),
       st.integers(0, 2 ** 16), st.booleans())
def test_screened_two_opt_matches_reference_on_short_paths(name, m, seed,
                                                           shuffled):
    # m <= 12: windows cut short by the end of the path
    _two_opt_moves(MODELS[name], _random_anchors(MODELS[name], m, seed),
                   shuffle=seed if shuffled else None)


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=2, max_size=40, unique=True),
       st.sampled_from([0.05, 1.0 / 3.0, 5.3, 7.9, 11.3]),
       st.integers(0, 2 ** 16))
def test_screened_two_opt_matches_reference_on_coarse_lattice_ties(cells, h,
                                                                   seed):
    # equal alternatives everywhere: the near-tie exact check decides
    for name in ("euclidean2", "scaled_constant"):
        anchors = [(i * h, j * h) for i, j in cells]
        _two_opt_moves(MODELS[name], anchors, shuffle=seed)


@pytest.mark.parametrize("name", [n for n in sorted(MODELS)
                                  if n.startswith("reeds_shepp")])
@pytest.mark.parametrize("step", [1e-9, 2e-9, 4e-9, 1e-8, 1e-7])
def test_screened_two_opt_matches_reference_on_car_anchors_a_tolerance_apart(
        name, step):
    # steers this short land within reeds_shepp's tolerance of their goal,
    # which decides their times, and the screen's distances go negative:
    # anchors spaced a few steps along their common heading, or anywhere
    # near one configuration
    th = 1.1
    for seed in range(60):
        rng = np.random.default_rng(seed)
        m = 12 - seed % 4
        if seed % 3 < 2:
            run = np.cumsum(rng.uniform(0.0, step, m)) if seed % 3 \
                else rng.uniform(0.0, 2.0 * step, m)
            anchors = [(0.4 + r * math.cos(th), 0.6 + r * math.sin(th), th)
                       for r in run]
        else:
            anchors = [(0.4 + float(dx), 0.6 + float(dy), th + float(dth))
                       for dx, dy, dth in rng.uniform(-step, step, (m, 3))]
        _two_opt_moves(MODELS[name], anchors, shuffle=seed)


def test_screened_two_opt_reports_its_moves():
    model = MODELS["euclidean2"]
    anchors = _random_anchors(model, 300, 4)
    assert _two_opt_moves(model, anchors, shuffle=1) > 100
    counters = {}
    planner.roots_tour(model, anchors, counters)
    assert counters["two_opt_moves"] == _two_opt_moves(model, anchors)


# ------------------------------------- neighbour-list walk vs its ring oracle

class ReferenceBuckets:
    """planner._Buckets before numpy: a dict of Python lists per bucket."""

    def __init__(self, pts, members):
        members = list(members)
        dim = len(pts[0])
        self.lo = [min(pts[i][a] for i in members) for a in range(dim)]
        ext = [max(pts[i][a] for i in members) - self.lo[a]
               for a in range(dim)]
        top = max(ext)
        self.side = top / len(members) ** (1.0 / dim) if top > 0.0 else 1.0
        self.counts = [int(e / self.side) + 1 for e in ext]
        self.size = len(members)
        self.cells = {}
        self.home = {}
        for i in members:
            key = self.key(pts[i])
            self.cells.setdefault(key, []).append(i)
            self.home[i] = key

    def key(self, p):
        return tuple(math.floor((x - lo) / self.side)
                     for x, lo in zip(p, self.lo))

    def remove(self, i):
        self.cells[self.home.pop(i)].remove(i)

    def ring(self, center, r):
        if r == 0:
            return self.cells.get(center, ())
        if all(k - r < 0 and k + r >= n for k, n in zip(center, self.counts)):
            return None
        out = []
        for axis in range(len(center)):
            ranges = []
            for a, (k, n) in enumerate(zip(center, self.counts)):
                if a == axis:
                    ranges.append([v for v in (k - r, k + r) if 0 <= v < n])
                else:
                    w = r - 1 if a < axis else r
                    ranges.append(range(max(k - w, 0), min(k + w, n - 1) + 1))
            for key in itertools.product(*ranges):
                out.extend(self.cells.get(key, ()))
        return out


def reference_nearest_neighbour_order(pts, norm, per_length, cost=None,
                                      lower=None):
    """planner._nearest_neighbour_order before neighbour lists; pts is a
    list of points."""
    slack = planner._BOUND_SLACK
    m = len(pts)
    order = [0]
    grid = ReferenceBuckets(pts, range(1, m))
    while len(order) < m:
        if 4 * (m - len(order)) <= grid.size:
            grid = ReferenceBuckets(pts, grid.home)
        last = order[-1]
        center = grid.key(pts[last])
        best = (math.inf, m)
        for r in itertools.count():
            reach = best[0] * (1.0 + slack)
            if (r - 1) * grid.side * per_length > reach:
                break
            found = grid.ring(center, r)
            if found is None:
                break
            for j in found:
                if cost is None:
                    c = norm(last, j)
                elif lower(last, j) > reach:
                    continue
                else:
                    c = cost(last, j)
                if (c, j) < best:
                    best = (c, j)
                    reach = c * (1.0 + slack)
        grid.remove(best[1])
        order.append(best[1])
    return order


def _assert_same_walk(points, k=planner._NEAR, chunk=2048):
    """The neighbour-list walk of points (an (m, d) array) gives the
    reference order; returns its ring searches."""
    arr = np.asarray(points, dtype=float)
    norm = planner._norm_function(arr)
    want = reference_nearest_neighbour_order(arr.tolist(), norm, 1.0)
    near = planner._neighbour_lists(arr, k, chunk)
    got, searches = planner._nearest_neighbour_order(arr, norm, 1.0,
                                                     near=near)
    assert got == want
    return searches


@st.composite
def walk_points(draw):
    """Lattices (cover anchors, most distances tied), the same shuffled,
    random points, points with repeats, and fewer points than a list
    holds; in two or three dimensions."""
    dim = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["lattice", "shuffled", "random",
                                 "repeats", "few"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if kind in ("lattice", "shuffled"):
        side = draw(st.integers(2, 14 if dim == 2 else 6))
        h = draw(st.sampled_from([0.05, 1.0 / 3.0, 7.9]))
        cells = np.array(list(itertools.product(range(side), repeat=dim)))
        cells = cells[rng.random(len(cells)) < draw(st.sampled_from(
            [0.3, 0.7, 1.0]))]
        if kind == "shuffled":
            rng.shuffle(cells)
        pts = (cells + 0.5) * h
    else:
        m = draw(st.integers(2, 9)) if kind == "few" \
            else draw(st.integers(2, 300))
        pts = rng.uniform(-2.0, 3.0, size=(m, dim))
        if kind == "repeats":
            pts = pts[rng.integers(0, max(m // 3, 1), size=m)]
    return pts


@settings(max_examples=120, deadline=None)
@given(walk_points(), st.sampled_from([1, 2, 4, planner._NEAR]),
       st.sampled_from([1, 7, 2048]))
def test_neighbour_list_walk_matches_reference(points, k, chunk):
    if len(points) >= 2:
        _assert_same_walk(points, k, chunk)


def test_neighbour_list_walk_matches_reference_on_collinear_points():
    line = [(0.1 * i, 0.5) for i in (3, 0, 7, 1, 9, 2, 8, 8, 4)]
    _assert_same_walk(line)
    _assert_same_walk([(0.5, 0.5)] * 14 + [(0.25, 0.5)])
    # a far outlier stretches the buckets over empty space
    _assert_same_walk([(0.001 * i, 0.0) for i in range(40)] + [(9.0, 9.0)])


def test_crowded_buckets_leave_their_anchors_to_the_ring_search():
    # a cluster with one far outlier puts hundreds of anchors in a bucket
    rng = np.random.default_rng(9)
    pts = np.vstack([rng.uniform(0.0, 0.01, size=(600, 2)),
                     [(5.0, 5.0), (5.0, 4.0)]])
    near = planner._neighbour_lists(pts)
    crowded = (near == len(pts)).all(axis=1)
    assert crowded.sum() >= 600
    assert _assert_same_walk(pts) >= 600
    rng.shuffle(pts)
    _assert_same_walk(pts)


def test_neighbour_lists_hold_nearest_anchors_in_order():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(500, 2))
    near = planner._neighbour_lists(pts)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    held = 0
    for i, row in enumerate(near.tolist()):
        row = [j for j in row if j < len(pts)]
        held += len(row)
        # the nearest anchors, by (distance, index)
        want = sorted(range(len(pts)), key=lambda j: (dist[i, j], j))
        assert row == want[:len(row)]
    assert held > 5 * len(pts)


@pytest.mark.parametrize("name", ["scaled_grid", "reeds_shepp"])
def test_ring_search_makes_the_reference_steers(name):
    # models without a closed form keep the ring search at every step, and
    # it prices the same pairs in the same order as before
    model = MODELS[name]
    anchors = _random_anchors(model, 60, 3)
    arr = np.array([a[:2] for a in anchors])
    norm = planner._norm_function(arr)
    lower = planner._curvature_bound(model, anchors) \
        if name == "reeds_shepp" else (lambda i, j: 0.0)

    def cost(calls):
        def steer_time(i, j):
            calls.append((i, j))
            return dyn.steer(model, anchors[i], anchors[j]).duration
        return steer_time

    want_calls, got_calls = [], []
    want = reference_nearest_neighbour_order(arr.tolist(), norm, 0.0,
                                             cost(want_calls), lower)
    got, searches = planner._nearest_neighbour_order(
        arr, norm, 0.0, cost(got_calls), lower)
    assert got == want and got_calls == want_calls
    assert searches == len(anchors) - 1


def test_uniform_tour_at_65536_targets_matches_the_references():
    # one uniform draw at the north star's scale: the nearest-neighbour
    # order against its oracle, and the tour time against the value the
    # eager implementation (cells for every root, a ring search per step, a
    # norm per leg) gave
    model = MODELS["euclidean2"]
    n = 65536
    cover = hcs.build_cover(model, SQ, planner.default_eps0(n, 2))
    pts = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, 2))
    occupied = np.unique(hcs.root_indices(cover, pts))
    arr = hcs.root_anchors(cover, occupied)
    assert _assert_same_walk(arr) < len(arr) // 10
    assert planner.solve_dstsp(model, cover, pts).total_time \
        == 400.5340490201034


# --------------------------------------------- lean realization vs oracle

def reference_reversed_segments(model, segments):
    """dynamics.reversed_segments as it was: one dispatch per segment."""
    def flip(control):
        if model.model_id == "reeds_shepp":
            return (-float(control[0]), float(control[1]))
        return tuple(-float(c) for c in control)
    return [(flip(c), d) for c, d in reversed(segments)]


def reference_realize_root(model, cover, root_idx, groups, point, plans):
    """planner._realize_root as it was: a cell per level the plan enters
    and a configuration tuple per target."""
    paths = tuple(sorted(groups))
    plan = plans.get(paths)
    if plan is None:
        params = hcp.HcpParams(branch_factor=cover.s ** cover.gamma,
                               scale=cover.s)
        plan = plans[paths] = hcp.construct_optimal_plan(
            hcp.HcpInstance(params, paths))
    stack = [hcs.make_cell(model, cover.roots[root_idx].anchor, cover.eps0)]
    segments = []
    visits = []
    t = 0.0

    def push(traj):
        nonlocal t
        segments.extend(traj.segments)
        t += traj.duration

    for action in plan:
        if action[0] == "down":
            child = hcs.child_cell(model, stack[-1], action[1], cover.s)
            push(dyn.steer(model, stack[-1].anchor, child.anchor))
            stack.append(child)
        elif action[0] == "up":
            parent = stack[-2]
            push(dyn.steer(model, stack[-1].anchor, parent.anchor))
            stack.pop()
        else:
            for tid in groups[paths[action[1]]]:
                p = point(tid)
                if model.config_dim > model.workspace_dim:
                    cfg = (float(p[0]), float(p[1]), stack[-1].anchor[2])
                else:
                    cfg = tuple(float(v) for v in p)
                out = dyn.steer(model, stack[-1].anchor, cfg)
                d = out.duration
                segments.extend(out.segments)
                t += d
                visits.append((tid, t))
                segments.extend(reference_reversed_segments(model,
                                                            out.segments))
                t += d
    assert len(stack) == 1
    return segments, visits, t, plan


def _reference_groups(cover, pts):
    """Per occupied root, its canonical paths' target ids, as solve_dstsp
    grouped them before path codes."""
    roots = hcs.root_indices(cover, pts)
    occupied, inverse, counts = np.unique(roots, return_inverse=True,
                                          return_counts=True)
    b_bar = cover.s ** cover.gamma
    depths = [1 + (math.ceil(math.log(c, b_bar) - 1e-12) if c > 1 else 0)
              for c in counts.tolist()]
    digits = hcs.descend(cover, roots, pts, max(depths)).tolist()
    out = {}
    for tid, (k, row) in enumerate(zip(inverse.tolist(), digits)):
        path = row[:depths[k]]
        while path and path[-1] == 0:
            path.pop()
        out.setdefault(int(occupied[k]), {}).setdefault(
            tuple(path), []).append(tid)
    return out


def _turned(cover, heading):
    obj = hcs.cover_to_json(cover)
    for r in obj["roots"]:
        r["anchor"][2] = heading
    return hcs.cover_from_json(obj)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_lean_realization_matches_reference(name):
    model = MODELS[name]
    support = CUBE if model.workspace_dim == 3 else SQ
    rng = np.random.default_rng(len(name))
    for n, eps0 in ((40, 0.45), (300, 0.3), (2000, 0.5)):
        cover = hcs.build_cover(model, support, eps0)
        covers = [cover]
        if model.config_dim > model.workspace_dim:
            covers.append(_turned(cover, 0.7))
        pts = rng.uniform(0.0, 1.0, size=(n, model.workspace_dim))
        width = pts.shape[1]
        coords = pts.ravel().tolist()

        def point(tid):
            return coords[tid * width:(tid + 1) * width]

        config = planner._visit_configs(model, pts)
        for cov in covers:
            child = hcs.ChildAnchors(model, cov.eps0, cov.s)
            plans = {}
            # one word memo for the cover's roots, as solve_dstsp shares it
            words = {}
            for root, groups in _reference_groups(cov, pts).items():
                segs, visits, dur, plan = reference_realize_root(
                    model, cov, root, groups, point, plans)
                got_segs, got_visits = [], []
                got = planner._realize_root(
                    model, child, cov.roots[root].anchor, plan,
                    [groups[p] for p in sorted(groups)], config, 0.0,
                    got_segs, got_visits, words)
                assert (got_segs, got_visits, got) == (segs, visits, dur)
