"""End-to-end collection tours: cover the support, plan per cell, link cells.

solve_dstsp locates every target in a cover root, runs the tree collection
solver inside each occupied root (target addresses come from hcs.path_in_root),
realizes the abstract plan as steering between cell anchors plus out-and-back
visits, and stitches the per-root tours along a nearest-neighbor-plus-2-opt
path through the occupied anchors. The tour is an open path: it starts at the
first root's anchor and ends at the last one's, with no closing leg. Exact
small-instance search (one subset dynamic program, shared with cbo) and a
linear whole-support bound give the two ends every run can be checked against.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import hcp
from . import hcs
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


def _nearest_neighbour_order(pts, norm, cost, per_length):
    """Greedy open path from anchor 0: the cheapest remaining anchor next,
    ties to the lower index.

    cost(i, j) is the exact cost, or None when the cost is norm(i, j)
    itself; per_length * norm(i, j) never exceeds it. Buckets are searched
    ring by ring until the unseen rings, so bounded, cannot beat the best
    cost. The grid is rebuilt when the remaining anchors fall to a quarter
    of those it was built on, so late searches do not walk empty buckets.
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
                c = norm(last, j)
                if cost is not None:
                    if c * per_length > reach:
                        continue
                    c = cost(last, j)
                if (c, j) < best:
                    best = (c, j)
                    reach = c * (1.0 + _BOUND_SLACK)
        grid.remove(best[1])
        order.append(best[1])
    return order


def _two_opt(order, leg, exact=None):
    """Windowed 2-opt on the open path, in place: up to four passes over
    the reversals of order[i+1 .. j], j < i + 10, first improvement taken.

    exact(i, j), where given, decides the comparisons that leg's rounding
    leaves too close to call.
    """
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


def roots_tour(model, anchors):
    """(ordered anchors, realized path time): nearest neighbor then 2-opt.

    The realized time upper-bounds the optimal open tour through the anchors,
    which is all the cover-level term of the time bound needs. Models with a
    closed-form distance order by Euclidean norm and report legs as numpy's
    vector norm / speed; the others use steer times.
    """
    m = len(anchors)
    if m == 0:
        raise ValueError("at least one anchor required")
    if m == 1:
        return [anchors[0]], 0.0
    pts = [tuple(float(v) for v in a[:model.workspace_dim]) for a in anchors]
    norm = _norm_function(pts)
    speed = dyn.closed_form_speed(model)
    if speed is not None:
        arr = np.asarray(pts)

        def leg(i, j):
            return norm(i, j) / speed

        def exact(i, j):
            # the legs reported; plain-float legs can differ from them by a
            # few units in the last place, which at near ties is enough to
            # flip a 2-opt comparison
            return float(np.linalg.norm(arr[i] - arr[j])) / speed

        order = _nearest_neighbour_order(pts, norm, None, 1.0)
        _two_opt(order, leg, exact)
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
        order = _nearest_neighbour_order(pts, norm, leg,
                                         1.0 / model.speed_limit())
        _two_opt(order, leg)
    time = sum(exact(order[k], order[k + 1]) for k in range(m - 1))
    return [anchors[i] for i in order], float(time)


def _target_config(model, cell, point):
    """Configuration the vehicle occupies while visiting a workspace point."""
    if model.config_dim > model.workspace_dim:
        return (float(point[0]), float(point[1]), cell.anchor[2])
    return tuple(float(v) for v in point)


def _realize_root(model, cover, root_idx, ids_points, depth):
    """Plan and realize one root's collection tour.

    Returns (segments, visits, duration); the piece starts and ends at the
    root anchor, visit times are relative to the piece start.
    """
    root_anchor = cover.roots[root_idx].anchor
    groups = {}   # canonical path -> list of original target ids
    for tid, point in ids_points:
        path = hcs.path_in_root(cover, root_idx, point, depth)
        groups.setdefault(hcp.canonical_path(path), []).append(tid)
    paths = sorted(groups)
    params = hcp.HcpParams(branch_factor=cover.s ** cover.gamma,
                           scale=cover.s)
    plan = hcp.construct_optimal_plan(hcp.HcpInstance(params, tuple(paths)))

    by_id = dict(ids_points)
    # cells are built as the plan enters them
    stack = [hcs.make_cell(model, root_anchor, cover.eps0)]
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
                cfg = _target_config(model, stack[-1], by_id[tid])
                out = dyn.steer(model, stack[-1].anchor, cfg)
                push(out)
                visits.append((tid, t))
                push(dyn.reverse_trajectory(out))
    if len(stack) != 1:
        raise RuntimeError("plan did not return to the root")
    return segments, visits, t


def solve_dstsp(model, cover, targets, with_info=False):
    """Tour visiting every target, assembled from per-root collection plans.

    The tour is an open path through the occupied roots in root_order: its
    trajectory starts at the anchor of the first root and ends at the anchor
    of the last, and total_time has no leg back to the start.
    """
    if not model.symmetric:
        raise NotSymmetric("tour realization reverses steers")
    targets = [tuple(float(v) for v in p) for p in targets]
    if not targets:
        start = cover.roots[0].anchor
        tour = Tour(dyn.Trajectory(model, start, ()), (), 0.0)
        if with_info:
            return tour, {"c_eps0": 0.0, "roots": {}, "depths": {}}
        return tour

    by_root = {}
    for tid, p in enumerate(targets):
        try:
            ri = hcs.locate_root(cover, p)
        except OutOfSupport as err:
            raise TargetOutsideCover(f"target {tid}: {err}") from err
        by_root.setdefault(ri, []).append((tid, p))

    b_bar = cover.s ** cover.gamma

    def ceil_log(nj):
        k, p = 0, 1
        while p < nj:
            p *= b_bar
            k += 1
        return k

    # per-root tree depth: one level past the count's logarithm
    depths = {ri: ceil_log(len(pts)) + 1 if len(pts) > 1 else 1
              for ri, pts in by_root.items()}

    occupied = sorted(by_root)
    anchors = [cover.roots[ri].anchor for ri in occupied]
    ordered, c_eps0 = roots_tour(model, anchors)
    anchor_to_root = {cover.roots[ri].anchor: ri for ri in occupied}
    root_order = [anchor_to_root[a] for a in ordered]

    segments = []
    visited = []
    t = 0.0
    prev_anchor = None
    for ri in root_order:
        anchor = cover.roots[ri].anchor
        if prev_anchor is not None:
            leg = dyn.steer(model, prev_anchor, anchor)
            segments.extend(leg.segments)
            t += leg.duration
        seg, visits, dur = _realize_root(model, cover, ri, by_root[ri],
                                         depths[ri])
        segments.extend(seg)
        visited.extend((tid, t + vt) for tid, vt in visits)
        t += dur
        prev_anchor = anchor

    start = cover.roots[root_order[0]].anchor
    tour = Tour(dyn.Trajectory(model, start, tuple(segments)),
                tuple(visited), float(t))
    if with_info:
        info = {"c_eps0": c_eps0,
                "roots": {ri: len(by_root[ri]) for ri in occupied},
                "depths": depths,
                "root_order": root_order}
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
