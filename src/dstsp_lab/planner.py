"""End-to-end collection tours: cover the support, plan per cell, link cells.

solve_dstsp locates every target in a cover root, runs the tree collection
solver inside each occupied root (target addresses come from hcs.descend),
realizes the abstract plan as steering between cell anchors plus out-and-back
visits, and stitches the per-root tours along a nearest-neighbor-plus-2-opt
path through the occupied anchors. For closed-form models the nearest-
neighbour walk reads numpy neighbour lists and falls back to a ring search
of buckets only where a list runs out. The tour is an open path: it starts
at the first root's anchor and ends at the last one's, with no closing leg.
Exact small-instance search (one subset dynamic program, shared with cbo) and
a linear whole-support bound give the two ends every run can be checked
against.
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
    """norm(i, j), the Euclidean distance between rows i and j of the float
    array pts (two or three columns), rounded as numpy's row-wise norm
    rounds it: squares summed in axis order, then one square root.

    math.dist and math.hypot round differently; so does numpy's norm of a
    single vector, which takes a BLAS dot with fused multiply-adds.
    """
    cols = pts.T.tolist()
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
    """Anchor indices in a uniform grid of cubic buckets, about load anchors
    per bucket, for the fixed-radius near-neighbour search of Bentley, "Fast
    algorithms for geometric traveling salesman problems" (1992).

    pts is an (m, d) float array and members an ascending index array.
    self.members holds them bucket by bucket, ascending within a bucket,
    bucket f holding members[starts[f]:starts[f + 1]]; flat bucket indices
    are mixed radix, axis 0 least significant. ids and bounds are the same
    two arrays as Python lists, for the ring search. keys holds each
    member's bucket, in the order members were given; key(p) is the same
    floor for one point.
    """

    def __init__(self, pts, members, load=1):
        dim = pts.shape[1]
        sub = pts[members]
        lo = sub.min(axis=0)
        ext = (sub.max(axis=0) - lo).tolist()
        top = max(ext)
        self.lo = lo.tolist()
        self.side = top / (len(members) / load) ** (1.0 / dim) \
            if top > 0.0 else 1.0
        self.counts = [int(e / self.side) + 1 for e in ext]
        self.strides = [math.prod(self.counts[:a]) for a in range(dim)]
        self.size = len(members)
        self.keys = np.floor((sub - lo) / self.side).astype(np.int64)
        flat = self.keys @ np.array(self.strides, dtype=np.int64)
        held = np.argsort(flat, kind="stable")
        self.members = np.asarray(members)[held]
        self.starts = np.searchsorted(flat[held],
                                      np.arange(math.prod(self.counts) + 1))
        self.ids = self.members.tolist()
        self.bounds = self.starts.tolist()

    def key(self, p):
        return tuple(math.floor((x - lo) / self.side)
                     for x, lo in zip(p, self.lo))

    def ring(self, center, r):
        """Members of the buckets at Chebyshev distance r from center, or
        None when no bucket lies that far."""
        ids, bounds = self.ids, self.bounds
        if r == 0:
            if all(0 <= k < n for k, n in zip(center, self.counts)):
                f = sum(k * st for k, st in zip(center, self.strides))
                return ids[bounds[f]:bounds[f + 1]]
            return ()
        if all(k - r < 0 and k + r >= n for k, n in zip(center, self.counts)):
            return None
        out = []
        for axis in range(len(center)):
            # shell part whose first axis at offset +-r is this one; each
            # range holds the axis's flat offsets
            ranges = []
            for a, (k, n, st) in enumerate(zip(center, self.counts,
                                               self.strides)):
                if a == axis:
                    ranges.append([v * st for v in (k - r, k + r)
                                   if 0 <= v < n])
                else:
                    w = r - 1 if a < axis else r
                    ranges.append(range(max(k - w, 0) * st,
                                        (min(k + w, n - 1) + 1) * st, st))
            for key in itertools.product(*ranges):
                f = sum(key)
                out.extend(ids[bounds[f]:bounds[f + 1]])
        return out


# neighbour-list length of the closed-form nearest-neighbour walk, the
# anchors per bucket of the grid the lists are drawn from, and the most
# candidates a list reads from one run of buckets
_NEAR = 10
_NEAR_LOAD = 3
_NEAR_RUN = 48


def _neighbour_lists(pts, k=_NEAR, chunk=2048):
    """Each anchor's nearest anchors, for _nearest_neighbour_order: an
    (m, k) int64 array whose row i holds anchors j != i in increasing
    (|pts[i] - pts[j]|, j) order, distances rounded as _norm_function's.

    Candidates are the anchors of i's block of 3^d buckets (_Buckets, about
    _NEAR_LOAD anchors each). A row keeps the candidates strictly closer
    than its k-th nearest candidate and than i's margin, the distance from
    pts[i] to the nearest bucket outside the block, less a slack for the
    rounding of bucket keys; the rest of the row is m. Every anchor
    missing from a row is at least as far as the row's bound, so the first
    unvisited anchor of a row, where there is one, is the nearest
    unvisited anchor, ties to the lower index (Bentley 1992; Johnson and
    McGeoch, "The traveling salesman problem: a case study in local
    optimization", 1997). Ties at the bound are why it is strict: on a
    lattice a tied anchor of lower index may lie outside the row.

    A row whose block holds a run of more than _NEAR_RUN candidates along
    axis 0 is all m, so clustered anchors cost O(m) memory and time here;
    the walk takes the ring search from those anchors.
    """
    m, dim = pts.shape
    grid = _Buckets(pts, np.arange(m), load=_NEAR_LOAD)
    keys, side = grid.keys, grid.side
    counts = np.array(grid.counts)
    lo = np.array(grid.lo)
    below = np.where(keys > 1, pts - (lo + (keys - 1) * side), np.inf)
    above = np.where(keys + 2 < counts, (lo + (keys + 2) * side) - pts,
                     np.inf)
    margin = np.minimum(below, above).min(axis=1) \
        - _BOUND_SLACK * (side + float(np.abs(pts).max()))
    # coordinates padded with a point at infinity for the padding index m
    cols = [np.append(pts[:, a], np.inf) for a in range(dim)]
    out = np.empty((m, k), dtype=np.int64)
    for first in range(0, m, chunk):
        rows = np.arange(first, min(first + chunk, m))
        kr = keys[rows]
        # the block is one run of up to three buckets along axis 0 per
        # offset of the other axes
        start = np.maximum(kr[:, 0] - 1, 0)
        stop = np.minimum(kr[:, 0] + 1, grid.counts[0] - 1) + 1
        blocks = []
        crowded = np.zeros(len(rows), dtype=bool)
        for off in itertools.product((-1, 0, 1), repeat=dim - 1):
            base = np.zeros(len(rows), dtype=np.int64)
            inside = np.ones(len(rows), dtype=bool)
            for a, o in enumerate(off, start=1):
                ka = kr[:, a] + o
                inside &= (ka >= 0) & (ka < grid.counts[a])
                base += ka * grid.strides[a]
            base = np.where(inside, base, 0)
            s = grid.starts[base + start]
            length = np.where(inside, grid.starts[base + stop] - s, 0)
            crowded |= length > _NEAR_RUN
            length = np.minimum(length, _NEAR_RUN)
            span = np.arange(max(int(length.max()), 1))
            idx = np.minimum(s[:, None] + span, m - 1)
            blocks.append(np.where(span < length[:, None],
                                   grid.members[idx], m))
        if sum(b.shape[1] for b in blocks) < k:
            blocks.append(np.full((len(rows), k), m))
        cand = np.concatenate(blocks, axis=1)
        sq = None
        for col in cols:
            diff = col[rows][:, None] - col[cand]
            sq = diff * diff if sq is None else sq + diff * diff
        dist = np.sqrt(sq)
        dist[cand == rows[:, None]] = np.inf
        part = np.argpartition(dist, k - 1, axis=1)[:, :k]
        dist = np.take_along_axis(dist, part, axis=1)
        cand = np.take_along_axis(cand, part, axis=1)
        ranked = np.lexsort((cand, dist), axis=1)
        dist = np.take_along_axis(dist, ranked, axis=1)
        cand = np.take_along_axis(cand, ranked, axis=1)
        bound = np.minimum(dist[:, -1], margin[rows])
        cand[dist >= bound[:, None]] = m
        cand[crowded] = m
        out[rows] = cand
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


def _nearest_neighbour_order(pts, norm, per_length, cost=None, lower=None,
                             near=None):
    """Greedy open path from anchor 0: the cheapest remaining anchor next,
    ties to the lower index. Returns (order, ring searches made).

    pts is the (m, d) float array of anchor points. cost(i, j) is the exact
    cost, or None when the cost is norm(i, j) itself; per_length *
    norm(i, j) never exceeds it. lower(i, j), given with cost, never
    exceeds cost either and is checked before cost is called. near, given
    without cost, is _neighbour_lists(pts): a step takes the first
    unvisited anchor of the last anchor's row. Other steps search buckets
    ring by ring until the unseen rings, so bounded, cannot beat the best
    cost; the buckets skip visited anchors, and are rebuilt on the
    remaining ones when those fall to a quarter of the ones they were built
    on, so late searches do not walk empty buckets.
    """
    m = len(pts)
    seen = bytearray(m + 1)
    seen[0] = seen[m] = 1    # m pads the rows of near
    width = 0 if near is None else near.shape[1]
    rows = memoryview(near.ravel()) if width else None
    order = [0]
    grid = None
    searches = 0
    last = 0
    for left in range(m - 1, 0, -1):
        nxt = m
        if width:
            for nxt in rows[last * width:(last + 1) * width]:
                if not seen[nxt]:
                    break
        if seen[nxt]:
            searches += 1
            if grid is None or 4 * left <= grid.size:
                grid = _Buckets(pts, np.flatnonzero(
                    np.frombuffer(seen, dtype=np.uint8)[:m] == 0),
                    load=1 if near is None else _NEAR_LOAD)
            center = grid.key(pts[last].tolist())
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
                    if seen[j]:
                        continue
                    if cost is None:
                        c = norm(last, j)
                    elif lower(last, j) > reach:
                        continue
                    else:
                        c = cost(last, j)
                    if (c, j) < best:
                        best = (c, j)
                        reach = c * (1.0 + _BOUND_SLACK)
            nxt = best[1]
        seen[nxt] = 1
        order.append(nxt)
        last = nxt
    return order, searches


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


def roots_tour(model, anchors, counters=None, timings=None, words=None):
    """Open path through the anchors, nearest neighbor then 2-opt, as a
    list of indices into anchors.

    Models with a closed-form distance order by Euclidean norm, with near
    ties decided by numpy's vector norm / speed; the others use steer
    times. anchors is a sequence of configurations or a float array of one
    per row.

    counters, where given, is a dict that gets the number of 2-opt moves as
    "two_opt_moves", the nearest-neighbour steps decided by a ring search
    as "nn_fallbacks" (every step, for models without a closed form) and
    the steer calls as "steers". timings, where given, is a dict that gets
    the perf_counter seconds of "nn_order" and "two_opt". words is the
    car's word memo that dyn.steer fills; a call without one gets its own.
    """
    m = len(anchors)
    if m == 0:
        raise ValueError("at least one anchor required")
    clock = []

    def tick():
        if timings is not None:
            clock.append(time.perf_counter())

    tick()
    arr = np.asarray(anchors, dtype=float)[:, :model.workspace_dim]
    norm = _norm_function(arr)
    speed = dyn.closed_form_speed(model)
    if speed is not None:
        def leg(i, j):
            return norm(i, j) / speed

        def exact(i, j):
            # plain-float legs can differ from numpy's norm by a few units
            # in the last place, which at near ties is enough to flip a
            # 2-opt comparison; numpy's norm decides those, which keeps the
            # orders behind the recorded report digests
            return float(np.linalg.norm(arr[i] - arr[j])) / speed

        order, searches = _nearest_neighbour_order(
            arr, norm, 1.0, near=_neighbour_lists(arr))
        tick()
        moves = _two_opt(order, leg, arr, (1.0 - _BOUND_SLACK) / speed,
                         exact=exact)
        steers = 0
    else:
        if isinstance(anchors, np.ndarray):
            anchors = list(map(tuple, anchors.tolist()))
        cache = {}
        if words is None:
            words = {}

        def leg(i, j):
            key = (i, j) if i <= j else (j, i)
            t = cache.get(key)
            if t is None:
                t = cache[key] = dyn.steer(model, anchors[key[0]],
                                           anchors[key[1]], words).duration
            return t

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
        order, searches = _nearest_neighbour_order(arr, norm, per_length,
                                                   leg, lower)
        tick()
        moves = _two_opt(order, leg, arr, *screen, lower=lower)
        steers = len(cache)
    tick()
    if counters is not None:
        counters.update(two_opt_moves=moves, nn_fallbacks=searches,
                        steers=steers)
    if timings is not None:
        timings.update(zip(_ROOTS_TOUR_STAGES, np.diff(clock).tolist()))
    return order


def _realize_root(model, child, anchor, plan, leaves, config, t0, segments,
                  visited, words):
    """Realize one root's collection plan from the root's anchor, starting
    at time t0; returns the piece's duration. The piece starts and ends at
    the root anchor.

    child is an hcs.ChildAnchors, leaves[k] the target ids at the plan's
    k-th path and config(tid, at) the configuration that visits target tid
    from the cell anchored at at. Cells are anchors only, built as the plan
    enters them. The segments go onto segments and (tid, t0 + visit time
    in the piece) onto visited. words is the car's word memo.
    """
    steer = dyn.steer
    stack = [anchor]
    t = 0.0
    for action in plan:
        at = stack[-1]
        if action[0] == "down":
            nxt = child(at, len(stack) - 1, action[1])
            stack.append(nxt)
        elif action[0] == "up":
            stack.pop()
            nxt = stack[-1]
        else:
            for tid in leaves[action[1]]:
                out = steer(model, at, config(tid, at), words)
                # out and back the same way: fsum rounds correctly, so the
                # way back takes out's duration again
                d = out.duration
                segments.extend(out.segments)
                t += d
                visited.append((tid, t0 + t))
                segments.extend(dyn.reversed_segments(model, out.segments))
                t += d
            continue
        traj = steer(model, at, nxt, words)
        segments.extend(traj.segments)
        t += traj.duration
    if len(stack) != 1:
        raise RuntimeError("plan did not return to the root")
    return t


def _visit_configs(model, pts):
    """config(tid, at): the configuration that visits target tid, row tid
    of the float array pts, from the cell anchored at at. The coordinates
    are read from one flat view: no object per target."""
    width = pts.shape[1]
    coords = memoryview(np.ascontiguousarray(pts).ravel())
    if model.config_dim > model.workspace_dim:
        def config(tid, at):
            # the car visits at the cell's heading
            return (coords[tid * width], coords[tid * width + 1], at[2])
    else:
        def config(tid, at):
            return tuple(coords[tid * width:(tid + 1) * width])
    return config


# the stages of solve_dstsp that with_info times, in order, and the stages
# of roots_tour it times inside its own
_STAGES = ("locate", "roots_tour", "plan", "realize")
_ROOTS_TOUR_STAGES = ("nn_order", "two_opt")


def solve_dstsp(model, cover, targets, with_info=False):
    """Tour visiting every target, assembled from per-root collection plans.

    The tour is an open path through the occupied roots in root_order: its
    trajectory starts at the anchor of the first root and ends at the anchor
    of the last, and total_time has no leg back to the start.

    Targets are located and addressed in one numpy pass (hcs.root_indices
    and hcs.descend). with_info adds an info dict: "c_eps0", the summed
    durations of the legs between roots as the tour drives them; per
    occupied root its target count ("roots") and tree depth ("depths");
    "root_order"; "timings", the perf_counter seconds of the stages: locate,
    roots_tour (with its nn_order and two_opt inside it), plan (building the
    collection plans) and realize (the rest of the per-root loop); and
    "counters": occupied roots, plans built (one per distinct set of paths
    in a root), 2-opt moves, nn_fallbacks (nearest-neighbour steps decided
    by a ring search), steers (steer calls) and words (the distinct car
    words priced, 0 for the other models).

    The car's steers share one word memo (dyn.steer's words), which lives
    as long as the call: the roots tour, the legs between roots and the
    realization of each root price each canonical goal once.
    """
    if not model.symmetric:
        raise NotSymmetric("tour realization reverses steers")
    pts = np.asarray(targets, dtype=float)
    if len(pts) == 0:
        start = cover.roots[0].anchor
        tour = Tour(dyn.Trajectory(model, start, ()), (), 0.0)
        if with_info:
            return tour, {"c_eps0": 0.0, "roots": {}, "depths": {},
                          "timings": dict.fromkeys(
                              _STAGES + _ROOTS_TOUR_STAGES, 0.0),
                          "counters": {"occupied_roots": 0, "plans_built": 0,
                                       "two_opt_moves": 0, "nn_fallbacks": 0,
                                       "steers": 0, "words": 0}}
        return tour
    if with_info:
        clock = [time.perf_counter()]
    occupied, counts, depths, groups, path = _address(cover, pts)
    # one-dimensional int64 views: a root's groups are groups[0][k] up to
    # groups[0][k + 1], group g's code is groups[1][g] and its target ids
    # are groups[3][groups[2][g]:groups[2][g + 1]]
    root_groups, codes, bounds, ids = map(memoryview, groups)
    anchors = hcs.root_anchors(cover, occupied)
    if with_info:
        clock.append(time.perf_counter())

    counters = {} if with_info else None
    timings = {} if with_info else None
    words = {}
    order = roots_tour(model, anchors, counters, timings, words)
    config_dim = anchors.shape[1]
    anchors = memoryview(anchors.ravel())
    if with_info:
        clock.append(time.perf_counter())

    config = _visit_configs(model, pts)
    params = hcp.HcpParams(branch_factor=cover.s ** cover.gamma,
                           scale=cover.s)
    child = hcs.ChildAnchors(model, cover.eps0, cover.s)
    plans = {}
    uses = {}    # roots per plan, counted for with_info
    plan_s = 0.0
    segments = []
    visited = []
    t = 0.0
    c_eps0 = 0.0
    prev_anchor = None
    for k in order:
        anchor = tuple(anchors[k * config_dim:(k + 1) * config_dim])
        if prev_anchor is not None:
            leg = dyn.steer(model, prev_anchor, anchor, words)
            segments.extend(leg.segments)
            t += leg.duration
            c_eps0 += leg.duration
        else:
            start = anchor
        first, stop = root_groups[k], root_groups[k + 1]
        # roots with the same set of paths share one plan
        key = tuple(codes[first:stop])
        plan = plans.get(key)
        if plan is None:
            if with_info:
                began = time.perf_counter()
            plan = plans[key] = hcp.construct_optimal_plan(
                hcp.HcpInstance(params, tuple(map(path, key))))
            if with_info:
                plan_s += time.perf_counter() - began
        if with_info:
            uses[key] = uses.get(key, 0) + 1
        leaves = [ids[bounds[g]:bounds[g + 1]] for g in range(first, stop)]
        t += _realize_root(model, child, anchor, plan, leaves, config, t,
                           segments, visited, words)
        prev_anchor = anchor

    tour = Tour(dyn.Trajectory(model, start, tuple(segments)),
                tuple(visited), float(t))
    if with_info:
        clock.append(time.perf_counter())
        moves = sum(n * sum(1 for a in plans[p] if a[0] != "collect")
                    for p, n in uses.items())
        counters.update(occupied_roots=len(occupied), plans_built=len(plans),
                        steers=counters["steers"] + len(order) - 1
                        + len(pts) + moves, words=len(words))
        loop = clock[3] - clock[2]
        timings.update(locate=clock[1] - clock[0],
                       roots_tour=clock[2] - clock[1],
                       plan=plan_s, realize=loop - plan_s)
        occupied = occupied.tolist()
        info = {"c_eps0": c_eps0,
                "roots": dict(zip(occupied, counts)),
                "depths": dict(zip(occupied, depths)),
                "root_order": [occupied[k] for k in order],
                "timings": timings,
                "counters": counters}
        return tour, info
    return tour


def _address(cover, pts):
    """Locate and address every target in one numpy pass.

    Returns (occupied roots, an int64 array; target counts and tree depths
    per occupied root, lists; groups; path). groups holds four int64
    arrays: per occupied root the index of its first group, and one past
    the last root's; per group its path code and the index of its first
    target, and one past the last group's; and the target ids, by root,
    then path, then id, so that a group is a run of one path in one root.
    path(code) is the path a code stands for.
    """
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
    # trailing zeros stripped. A path's code holds digit + 1 per level in
    # radix b_bar + 1, zero past its end, so codes order as paths do
    depth = digits.shape[1]
    radix = b_bar + 1
    if radix ** depth >= 2 ** 63:
        raise TooLarge(f"paths of depth {depth} overflow their int64 codes")
    levels = np.arange(1, depth + 1)
    kept = (digits != 0) & (levels <= np.array(depths)[inverse, None])
    lengths = (levels * kept).max(axis=1)
    codes = np.where(levels <= lengths[:, None], digits + 1, 0) \
        @ radix ** np.arange(depth - 1, -1, -1, dtype=np.int64)

    def path(code):
        digits = (code // radix ** (depth - 1 - level) % radix
                  for level in range(depth))
        return tuple(v - 1 for v in digits if v)

    ids = np.lexsort((codes, inverse))
    key = np.stack([inverse[ids], codes[ids]])
    firsts = np.flatnonzero(np.append(True, (key[:, 1:] != key[:, :-1])
                                      .any(axis=0)))
    groups = (np.searchsorted(key[0, firsts], np.arange(len(counts) + 1)),
              key[1, firsts], np.append(firsts, len(ids)), ids)
    return occupied, counts, depths, groups, path


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
