"""Root ordering and lazily built cells against frozen reference versions.

reference_roots_tour and reference_build_hcs are the straightforward
implementations that planner.roots_tour and hcs.child_cell replaced: a full
nearest-neighbour scan with numpy norms (closed-form models) or one steer per
remaining anchor (others), a 2-opt on numpy norms, and an eagerly built cell
tree. reference_two_opt is planner._two_opt before its numpy screen: the
same checks on every row of every pass. The fast versions must agree with
them exactly, not approximately: tours are reported bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstsp_lab import bounds as bnd
from dstsp_lab import dynamics as dyn
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
        return [anchors[0]], 0.0
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
    time = sum(dist(order[k], order[k + 1]) for k in range(m - 1))
    return [anchors[i] for i in order], float(time)


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
    got = planner.roots_tour(model, anchors)
    want = reference_roots_tour(model, anchors)
    assert got[0] == want[0]
    assert got[1] == want[1]


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
