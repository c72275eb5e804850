"""End-to-end collection tours: cover the support, plan per cell, link cells.

solve_dstsp locates every target in a cover root, runs the tree collection
solver inside each occupied root (target addresses come from hcs.descend),
realizes the abstract plan as steering between cell anchors plus out-and-back
visits, and stitches the per-root tours along a nearest-neighbor-plus-2-opt
path through the occupied anchors. The tour is an open path: it starts at the
first root's anchor and ends at the last one's, with no closing leg. Exact
small-instance search (one subset dynamic program, shared with cbo) and a
linear whole-support bound give the two ends every run can be checked against.
"""

import bisect
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import hcp
from . import hcs
from . import reeds_shepp as rs
from .errors import NotSymmetric, OutOfSupport, TargetOutsideCover, TooLarge
from .seeding import make_rng


@dataclass(frozen=True)
class Tour:
    trajectory: dyn.Trajectory
    visited: tuple     # (target id, arrival time) pairs
    total_time: float


def default_eps0(n, gamma, c0=1.0, eps_min=1e-6, eps_max=1.0):
    """Root-cell radius for n targets: n^(-1/gamma), clamped at the ends."""
    if n <= 1:
        return eps_max
    return min(max(c0 * n ** (-1.0 / gamma), eps_min), eps_max)


def _steer_time(model, a, b, speed=None):
    if speed is not None:
        d = math.dist(a[:model.workspace_dim], b[:model.workspace_dim])
        return d / speed
    return dyn.steer(model, a, b).duration


def _norm_function(pts):
    """norm(i, j), the Euclidean distance between pts[i] and pts[j] (two or
    three coordinates), rounded as numpy's row-wise norm rounds it: squares
    summed in axis order, then one square root.

    math.dist and math.hypot round differently; so does numpy's norm of a
    single vector, which takes a BLAS dot with fused multiply-adds.
    """
    cols = [list(c) for c in zip(*pts)]
    if len(cols) == 2:
        xs, ys = cols

        def norm(i, j):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            return math.sqrt(dx * dx + dy * dy)
    else:
        xs, ys, zs = cols

        def norm(i, j):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            dz = zs[i] - zs[j]
            return math.sqrt(dx * dx + dy * dy + dz * dz)
    return norm


# relative slack on lower bounds, far above the rounding of the distances
_BOUND_SLACK = 1e-9


class _Buckets:
    """Anchor indices in a uniform grid of cubic buckets, about one anchor
    per bucket, for the fixed-radius near-neighbour search of Bentley, "Fast
    algorithms for geometric traveling salesman problems" (1992)."""

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
        """Members of the buckets at Chebyshev distance r from center, or
        None when no bucket lies that far."""
        if r == 0:
            return self.cells.get(center, ())
        if all(k - r < 0 and k + r >= n for k, n in zip(center, self.counts)):
            return None
        out = []
        for axis in range(len(center)):
            # shell part whose first axis at offset +-r is this one
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


def _curvature_bound(model, anchors):
    """lower(i, j), a lower bound on the car's steer time between anchors i
    and j, slack included.

    A path of length L with curvature at most 1/r turns its heading by at
    most L/r, and while L <= pi*r/2 its lateral offset in the start frame is
    at most r*(1 - cos(L/r)). So L >= r*|dtheta| and
    L >= r*acos(1 - min(|y|/r, 1)), computed here as 2*r*asin(sqrt(v/2)),
    v = min(|y|/r, 1), which keeps its precision for small offsets (Dubins,
    Amer. J. Math. 1957; Reeds and Shepp, Pacific J. Math. 1990). The
    optimal path reversed is a path back, so y may be taken in either
    endpoint's frame. A steer may end up to rs._EPS radii and radians off
    its goal, so distance, offset and turn are first reduced by that much.
    """
    r = model.r_min
    per_length = (1.0 - _BOUND_SLACK) / model.c_pi
    xs = [float(a[0]) for a in anchors]
    ys = [float(a[1]) for a in anchors]
    ths = [float(a[2]) for a in anchors]
    coss = [math.cos(th) for th in ths]
    sins = [math.sin(th) for th in ths]

    def lower(i, j):
        dx = xs[j] - xs[i]
        dy = ys[j] - ys[i]
        d = math.sqrt(dx * dx + dy * dy)
        # an end rs._EPS radii off moves d and y by up to twice that, a
        # heading rs._EPS off moves the goal frame's y by up to d * rs._EPS
        lateral = max(abs(dy * coss[i] - dx * sins[i]),
                      abs(dy * coss[j] - dx * sins[j]))
        lateral = max(lateral - rs._EPS * (2.0 * r + d), 0.0)
        turn = max(abs(rs.wrap_pi(ths[j] - ths[i])) - 2.0 * rs._EPS, 0.0)
        offset = 2.0 * math.asin(math.sqrt(min(lateral / r, 1.0) / 2.0))
        return max(d - 2.0 * rs._EPS * r, r * max(turn, offset)) * per_length
    return lower


def _nearest_neighbour_order(pts, norm, per_length, cost=None, lower=None):
    """Greedy open path from anchor 0: the cheapest remaining anchor next,
    ties to the lower index.

    cost(i, j) is the exact cost, or None when the cost is norm(i, j)
    itself; per_length * norm(i, j) never exceeds it. lower(i, j), given
    with cost, never exceeds cost either and is checked before cost is
    called. Buckets are searched ring by ring until the unseen rings, so
    bounded, cannot beat the best cost. The grid is rebuilt when the
    remaining anchors fall to a quarter of those it was built on, so late
    searches do not walk empty buckets.
    """
    m = len(pts)
    order = [0]
    grid = _Buckets(pts, range(1, m))
    while len(order) < m:
        if 4 * (m - len(order)) <= grid.size:
            grid = _Buckets(pts, grid.home)
        last = order[-1]
        center = grid.key(pts[last])
        best = (math.inf, m)
        for r in itertools.count():
            # buckets of ring r or beyond lie (r - 1) sides away or more
            reach = best[0] * (1.0 + _BOUND_SLACK)
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
                    reach = c * (1.0 + _BOUND_SLACK)
        grid.remove(best[1])
        order.append(best[1])
    return order


def _screen(pts, order, edge, per_length, shrink):
    """Rows i of the open path that may hold an improving reversal: some
    j in the window with bound(a, c) + bound(b, d) < edge[i] + edge[j],
    where bound(p, q) = (|p - q| - shrink) * per_length.

    One window offset at a time, so the temporaries stay O(m). The
    distances round as _norm_function's: squares summed in axis order,
    then one square root.
    """
    m = len(order)
    path = pts[order]
    edge = np.asarray(edge)
    rows = np.zeros(m - 1, dtype=bool)
    for w in range(2, min(10, m - 1)):
        k = m - 1 - w    # rows i with j = i + w <= m - 2
        total = np.zeros(k)
        for p, q in ((path[:k], path[w:w + k]),
                     (path[1:k + 1], path[w + 1:w + 1 + k])):
            diff = p - q
            sq = diff[:, 0] * diff[:, 0]
            for axis in range(1, diff.shape[1]):
                sq += diff[:, axis] * diff[:, axis]
            total += (np.sqrt(sq) - shrink) * per_length
        rows[:k] |= total < edge[:k] + edge[w:w + k]
    return rows


def _two_opt(order, leg, pts, per_length, shrink=0.0, exact=None,
             lower=None):
    """Windowed 2-opt on the open path, in place: up to four passes over
    the reversals of order[i+1 .. j], j < i + 10, first improvement taken.
    Returns the number of reversals made.

    exact(i, j), where given, decides the comparisons that leg's rounding
    leaves too close to call. lower(i, j), where given, never exceeds
    leg(i, j): a reversal whose new edges cost no less than the old ones
    by their bounds alone is passed over without calling leg.

    (|pts[i] - pts[j]| - shrink) * per_length never exceeds lower(i, j),
    or leg(i, j) less its near-tie margin where lower is not given. Each
    pass starts with a numpy screen by that bound (_screen), and the loop
    scans only the rows it marks, plus every row up to the largest j of
    the pass's reversals so far: rows past it are as the screen saw them.
    So the loop makes the moves of a scan of every row, in the same order.
    """
    m = len(order)
    edge = [leg(order[k], order[k + 1]) for k in range(m - 1)]
    moves = 0
    for _ in range(4):
        marked = np.flatnonzero(_screen(pts, order, edge, per_length,
                                        shrink)).tolist()
        improved = False
        changed = -1    # rows up to here may differ from the screen's view
        i = marked[0] if marked else m - 1
        while i < m - 1:
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
                    moves += 1
                    changed = max(changed, j)
            i += 1
            if i > changed:
                k = bisect.bisect_left(marked, i)
                i = marked[k] if k < len(marked) else m - 1
        if not improved:
            break
    return moves


def roots_tour(model, anchors, counters=None):
    """(ordered anchors, realized path time): nearest neighbor then 2-opt.

    The realized time upper-bounds the optimal open tour through the anchors,
    which is all the cover-level term of the time bound needs. Models with a
    closed-form distance order by Euclidean norm and report legs as numpy's
    vector norm / speed; the others use steer times. counters, where given,
    is a dict that gets the number of 2-opt moves as "two_opt_moves".
    """
    m = len(anchors)
    if m == 0:
        raise ValueError("at least one anchor required")
    if m == 1:
        return [anchors[0]], 0.0
    pts = [tuple(float(v) for v in a[:model.workspace_dim]) for a in anchors]
    norm = _norm_function(pts)
    arr = np.asarray(pts)
    speed = dyn.closed_form_speed(model)
    if speed is not None:
        def leg(i, j):
            return norm(i, j) / speed

        def exact(i, j):
            # the legs reported; plain-float legs can differ from them by a
            # few units in the last place, which at near ties is enough to
            # flip a 2-opt comparison
            return float(np.linalg.norm(arr[i] - arr[j])) / speed

        order = _nearest_neighbour_order(pts, norm, 1.0)
        moves = _two_opt(order, leg, arr, (1.0 - _BOUND_SLACK) / speed,
                         exact=exact)
    else:
        cache = {}

        def leg(i, j):
            key = (i, j) if i <= j else (j, i)
            t = cache.get(key)
            if t is None:
                t = cache[key] = dyn.steer(model, anchors[key[0]],
                                           anchors[key[1]]).duration
            return t

        exact = leg
        per_length = 1.0 / model.speed_limit()
        if model.model_id == "reeds_shepp":
            lower = _curvature_bound(model, anchors)
            # the distance term of _curvature_bound, rounded as it rounds
            screen = ((1.0 - _BOUND_SLACK) / model.c_pi,
                      2.0 * rs._EPS * model.r_min)
        else:
            screen = (per_length * (1.0 - _BOUND_SLACK), 0.0)

            def lower(i, j):
                return norm(i, j) * screen[0]
        order = _nearest_neighbour_order(pts, norm, per_length, leg, lower)
        moves = _two_opt(order, leg, arr, *screen, lower=lower)
    if counters is not None:
        counters["two_opt_moves"] = moves
    total = sum(exact(order[k], order[k + 1]) for k in range(m - 1))
    return [anchors[i] for i in order], float(total)


def _target_config(model, cell, point):
    """Configuration the vehicle occupies while visiting a workspace point."""
    if model.config_dim > model.workspace_dim:
        return (float(point[0]), float(point[1]), cell.anchor[2])
    return tuple(float(v) for v in point)


def _realize_root(model, cover, root_idx, groups, point, plans):
    """Plan and realize one root's collection tour.

    groups maps each canonical path in the root to its target ids, and
    point(tid) gives a target's coordinates. Roots with the same set of
    paths share one plan: plans caches them by the sorted path tuple.

    Returns (segments, visits, duration); the piece starts and ends at the
    root anchor, visit times are relative to the piece start.
    """
    paths = tuple(sorted(groups))
    plan = plans.get(paths)
    if plan is None:
        params = hcp.HcpParams(branch_factor=cover.s ** cover.gamma,
                               scale=cover.s)
        plan = plans[paths] = hcp.construct_optimal_plan(
            hcp.HcpInstance(params, paths))

    # cells are built as the plan enters them
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
                cfg = _target_config(model, stack[-1], point(tid))
                out = dyn.steer(model, stack[-1].anchor, cfg)
                # out and back the same way: fsum rounds correctly, so the
                # way back takes out's duration again
                d = out.duration
                segments.extend(out.segments)
                t += d
                visits.append((tid, t))
                segments.extend(dyn.reversed_segments(model, out.segments))
                t += d
    if len(stack) != 1:
        raise RuntimeError("plan did not return to the root")
    return segments, visits, t


# the stages of solve_dstsp that with_info times
_STAGES = ("locate", "roots_tour", "realize")


def solve_dstsp(model, cover, targets, with_info=False):
    """Tour visiting every target, assembled from per-root collection plans.

    The tour is an open path through the occupied roots in root_order: its
    trajectory starts at the anchor of the first root and ends at the anchor
    of the last, and total_time has no leg back to the start.

    Targets are located and addressed in one numpy pass (hcs.root_indices
    and hcs.descend). with_info adds an info dict, which also holds the
    perf_counter seconds of the three stages ("timings": locate, roots_tour,
    realize) and "counters": occupied roots, plans built (one per distinct
    set of paths in a root) and 2-opt moves.
    """
    if not model.symmetric:
        raise NotSymmetric("tour realization reverses steers")
    pts = np.asarray(targets, dtype=float)
    if len(pts) == 0:
        start = cover.roots[0].anchor
        tour = Tour(dyn.Trajectory(model, start, ()), (), 0.0)
        if with_info:
            return tour, {"c_eps0": 0.0, "roots": {}, "depths": {},
                          "timings": dict.fromkeys(_STAGES, 0.0),
                          "counters": {"occupied_roots": 0, "plans_built": 0,
                                       "two_opt_moves": 0}}
        return tour
    if with_info:
        clock = [time.perf_counter()]

    try:
        roots = hcs.root_indices(cover, pts)
    except OutOfSupport as err:
        raise TargetOutsideCover(f"target {err.row}: {err}") from err
    occupied, inverse, counts = np.unique(roots, return_inverse=True,
                                          return_counts=True)
    b_bar = cover.s ** cover.gamma

    def ceil_log(nj):
        k, p = 0, 1
        while p < nj:
            p *= b_bar
            k += 1
        return k

    # per-root tree depth: one level past the count's logarithm
    counts = counts.tolist()
    depths = [ceil_log(nj) + 1 if nj > 1 else 1 for nj in counts]
    digits = hcs.descend(cover, roots, pts, max(depths))
    # canonical paths: the digits down to each target's root depth,
    # trailing zeros stripped
    levels = np.arange(1, digits.shape[1] + 1)
    kept = (digits != 0) & (levels <= np.array(depths)[inverse, None])
    lengths = (levels * kept).max(axis=1).tolist()
    # flat Python lists: no object per target
    depth = digits.shape[1]
    digits = digits.ravel().tolist()
    ids = np.argsort(inverse, kind="stable").tolist()
    ends = np.cumsum(counts).tolist()
    occupied = occupied.tolist()
    if with_info:
        clock.append(time.perf_counter())

    anchors = [cover.roots[ri].anchor for ri in occupied]
    counters = {"two_opt_moves": 0} if with_info else None
    ordered, c_eps0 = roots_tour(model, anchors, counters)
    slot_of = {a: k for k, a in enumerate(anchors)}
    slots = [slot_of[a] for a in ordered]
    if with_info:
        clock.append(time.perf_counter())

    width = pts.shape[1]
    coords = pts.ravel().tolist()

    def point(tid):
        return coords[tid * width:(tid + 1) * width]

    plans = {}
    segments = []
    visited = []
    t = 0.0
    prev_anchor = None
    for k in slots:
        anchor = anchors[k]
        if prev_anchor is not None:
            leg = dyn.steer(model, prev_anchor, anchor)
            segments.extend(leg.segments)
            t += leg.duration
        groups = {}
        for tid in ids[ends[k] - counts[k]:ends[k]]:
            at = tid * depth
            groups.setdefault(tuple(digits[at:at + lengths[tid]]),
                              []).append(tid)
        seg, visits, dur = _realize_root(model, cover, occupied[k], groups,
                                         point, plans)
        segments.extend(seg)
        visited.extend((tid, t + vt) for tid, vt in visits)
        t += dur
        prev_anchor = anchor

    tour = Tour(dyn.Trajectory(model, anchors[slots[0]], tuple(segments)),
                tuple(visited), float(t))
    if with_info:
        clock.append(time.perf_counter())
        counters.update(occupied_roots=len(occupied), plans_built=len(plans))
        info = {"c_eps0": c_eps0,
                "roots": dict(zip(occupied, counts)),
                "depths": dict(zip(occupied, depths)),
                "root_order": [occupied[k] for k in slots],
                "timings": {name: b - a for name, a, b
                            in zip(_STAGES, clock, clock[1:])},
                "counters": counters}
        return tour, info
    return tour


def tour_visits_all(tour, targets, tol=1e-6):
    """Every target reached: workspace distance at its visit time <= tol.

    One forward pass over the segments, visits taken in time order.
    """
    traj = tour.trajectory
    segments = traj.segments
    q, t0, k = traj.start, 0.0, 0   # q: configuration at time t0, segment k
    seen = set()
    for tid, vt in sorted(tour.visited, key=lambda v: v[1]):
        while k < len(segments) and vt - t0 > segments[k][1]:
            q = dyn.integrate(traj.model, q, *segments[k])
            t0 += segments[k][1]
            k += 1
        cfg = q if k == len(segments) else dyn.integrate(
            traj.model, q, segments[k][0], max(vt - t0, 0.0))
        d = math.dist(cfg[:len(targets[tid])], targets[tid])
        if d > tol:
            return False
        seen.add(tid)
    return len(seen) == len(targets)


def subset_layers(owner, cost, budget=math.inf):
    """Cheapest open paths over subsets of targets, one layer per size.

    Node v stands for target owner[v] (a target may have several nodes, one
    per heading); a path enters each target through one of its nodes and
    cost[v][w] prices the leg from node v to node w. Layer k maps (mask of
    the k targets visited, last node) to the cheapest cost of a path ending
    there; paths start anywhere for free. A leg that takes a path past the
    budget is dropped, and the layers stop at the first empty one.
    """
    nodes = range(len(owner))
    limit = budget + 1e-12
    layers = []
    layer = {(1 << owner[v], v): 0.0 for v in nodes}
    while layer:
        layers.append(layer)
        nxt = {}
        for (mask, v), spent in layer.items():
            row = cost[v]
            for w in nodes:
                bit = 1 << owner[w]
                if mask & bit:
                    continue
                c = spent + row[w]
                if c > limit:
                    continue
                key = (mask | bit, w)
                if c < nxt.get(key, math.inf):
                    nxt[key] = c
        layer = nxt
    return layers


def exact_small_tsp(model, targets, headings=1):
    """Optimal open collection tour by dynamic programming over subsets.

    Nodes are (target, heading index) pairs; edges come from steering.
    Exact for models without a heading degree of freedom (headings
    collapses to 1); otherwise exact within the heading grid.
    """
    n = len(targets)
    if n == 0:
        return 0.0
    if n > 8:
        raise TooLarge(f"exact search capped at 8 targets, got {n}")
    if headings > 8:
        raise TooLarge(f"heading grid capped at 8, got {headings}")
    if headings < 1:
        raise ValueError("headings must be at least 1")
    with_heading = model.config_dim > model.workspace_dim
    h_count = headings if with_heading else 1
    angles = [2.0 * math.pi * k / h_count for k in range(h_count)]
    configs = []
    owner = []
    for i, p in enumerate(targets):
        p = tuple(float(v) for v in p)
        for h in range(h_count):
            configs.append(p + (angles[h],) if with_heading else p)
            owner.append(i)
    speed = dyn.closed_form_speed(model)
    cost = [[_steer_time(model, a, b, speed) if owner[v] != owner[w] else 0.0
             for w, b in enumerate(configs)]
            for v, a in enumerate(configs)]
    return min(subset_layers(owner, cost)[-1].values())


def trivial_bound(n, model, support, seed=0):
    """Linear bound C*n, C an inflated max steer time over support samples.

    512 configurations are sampled; models with a closed-form point-to-point
    time take the exact pairwise max, others estimate it over 2048 sampled
    pairs. The 1.2 inflation absorbs the sampling gap.
    """
    if n == 0:
        return 0.0
    rng = make_rng(seed, "trivial-bound")
    mins = np.asarray(support[0], dtype=float)
    maxs = np.asarray(support[1], dtype=float)
    pts = rng.uniform(mins, maxs, size=(512, len(mins)))
    speed = dyn.closed_form_speed(model)
    if speed is not None:
        diff = pts[:, None, :] - pts[None, :, :]
        c = float(np.linalg.norm(diff, axis=2).max()) / speed
    elif model.model_id == "scaled_euclidean2":
        # straight-line time at the slowest speed bounds the grid steer
        diff = pts[:, None, :] - pts[None, :, :]
        c = float(np.linalg.norm(diff, axis=2).max()) / (
            model.c_pi * dyn.sigma_range(model)[0])
    else:
        angles = rng.uniform(0.0, 2.0 * math.pi, size=512)
        configs = [tuple(p) + (float(a),) for p, a in zip(pts, angles)]
        c = 0.0
        for _ in range(2048):
            i, j = rng.integers(512, size=2)
            if i == j:
                continue
            c = max(c, _steer_time(model, configs[int(i)], configs[int(j)]))
    return 1.2 * c * n
