"""Cost-budgeted collection: how many targets fit under a cost budget.

Trajectories are priced by integrating a grid cost field along them. A greedy
heuristic chains cheapest-next-target steers under the budget; a dynamic
program over visit orders gives the exact optimum for tiny instances; the
closed-form ceiling says no trajectory of cost budget lambda can visit more
than (1+delta)*beta*lambda*n^(1/gamma) of n well-spread targets.
"""

import math

import numpy as np

from . import dynamics as dyn
from .errors import OutOfGrid, TooLarge


def _grid_values_at(field, pts):
    idx = []
    for i in range(field.ndim):
        k = np.floor((pts[:, i] - field.origin[i]) / field.cell_size)
        idx.append(np.clip(k, 0, field.dims[i] - 1).astype(int))
    return np.asarray(field.values)[tuple(idx)]


def _straight_cost(model, start, goal, field, speed):
    """Vectorized midpoint quadrature along a single straight leg."""
    wd = model.workspace_dim
    a = np.asarray(start[:wd], dtype=float)
    b = np.asarray(goal[:wd], dtype=float)
    dist = float(np.linalg.norm(b - a))
    if dist == 0.0:
        return 0.0
    duration = dist / speed
    dt_max = field.cell_size / (4.0 * model.speed_limit())
    k = max(2, math.ceil(duration / dt_max))
    k += k % 2
    fracs = (np.arange(k) + 0.5) / k
    mids = a[None, :] + fracs[:, None] * (b - a)[None, :]
    lo = np.asarray(field.origin)
    hi = lo + np.asarray(field.dims) * field.cell_size
    if np.any(mids < lo - 1e-12) or np.any(mids > hi + 1e-12):
        raise OutOfGrid("leg leaves the cost grid")
    return float(_grid_values_at(field, mids).sum() * (duration / k))


def _leg_cost(model, start, goal, field):
    speed = dyn.closed_form_speed(model)
    if speed is not None:
        return _straight_cost(model, start, goal, field, speed)
    return cost_length(dyn.steer(model, start, goal), field)


def _require_inside(field, point):
    for i in range(field.ndim):
        lo = field.origin[i]
        hi = lo + field.dims[i] * field.cell_size
        if not (lo - 1e-12 <= point[i] <= hi + 1e-12):
            raise OutOfGrid(f"point {point} outside the cost grid")


def cost_length(traj, cost_field):
    """Integral of the cost field along the trajectory.

    Composite midpoint rule per control segment, time step at most
    cell_size / (4 * top speed) so each substep moves at most a quarter
    cell. Substep counts are kept even, which resolves a cost interface
    crossed at a segment's midpoint exactly.
    """
    model = traj.model
    dt_max = cost_field.cell_size / (4.0 * model.speed_limit())
    total = 0.0
    cfg = traj.start
    wd = model.workspace_dim
    for control, duration in traj.segments:
        if duration <= 0.0:
            continue
        k = max(2, math.ceil(duration / dt_max))
        k += k % 2
        h = duration / k
        for _ in range(k):
            mid = dyn.integrate(model, cfg, control, h / 2.0)
            _require_inside(cost_field, mid[:wd])
            total += cost_field.value_at(mid[:wd]) * h
            cfg = dyn.integrate(model, mid, control, h / 2.0)
    return total


def greedy_orienteering(model, cost_field, targets, budget, rng):
    """Targets visited by the cheapest-next-step heuristic under the budget.

    Starts at a random target (visiting it for free: the zero-length
    trajectory), then repeatedly steers to the unvisited target with the
    smallest incremental cost while the budget lasts.
    """
    if budget < 0.0:
        raise ValueError("budget must be nonnegative")
    n = len(targets)
    if n == 0:
        return 0
    current = int(rng.integers(n))
    visited = {current}
    spent = 0.0
    floor = float(np.min(np.asarray(cost_field.values)))
    speed = model.speed_limit()
    wd = model.workspace_dim
    while len(visited) < n:
        # cost >= floor * distance / speed prunes the candidate scan
        order = sorted((j for j in range(n) if j not in visited),
                       key=lambda j: math.dist(targets[current][:wd],
                                               targets[j][:wd]))
        best = None
        for j in order:
            d = math.dist(targets[current][:wd], targets[j][:wd])
            if best is not None and floor * d / speed > best[0]:
                break
            c = _leg_cost(model, targets[current], targets[j], cost_field)
            if best is None or (c, j) < best:
                best = (c, j)
        if spent + best[0] > budget + 1e-12:
            break
        spent += best[0]
        current = best[1]
        visited.add(current)
    return len(visited)


def brute_cbo_small(model, cost_field, targets, budget):
    """Exact maximum target count under the budget, over all visit orders.

    Dynamic program on (visited subset, last target) holding the cheapest
    cost achieving that state; start configuration free, so singletons cost
    zero. Exact within the steering class used for the legs.
    """
    if budget < 0.0:
        raise ValueError("budget must be nonnegative")
    n = len(targets)
    if n == 0:
        return 0
    if n > 8:
        raise TooLarge(f"exhaustive search capped at 8 targets, got {n}")
    cost = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                cost[i, j] = _leg_cost(model, targets[i], targets[j],
                                       cost_field)
    dp = {(1 << i, i): 0.0 for i in range(n)}
    best = 1
    frontier = dict(dp)
    while frontier:
        new = {}
        for (mask, last), spent in frontier.items():
            for j in range(n):
                if mask & (1 << j):
                    continue
                c = spent + cost[last, j]
                if c > budget + 1e-12:
                    continue
                key = (mask | (1 << j), j)
                if c < new.get(key, math.inf) and c < dp.get(key, math.inf):
                    new[key] = c
        for key, val in new.items():
            if val < dp.get(key, math.inf):
                dp[key] = val
                best = max(best, bin(key[0]).count("1"))
        frontier = new
    return best


def cbo_bound(beta, budget, n, gamma, delta):
    """Ceiling (1+delta) * beta * budget * n^(1/gamma) on the visit count."""
    if n == 0:
        return 0.0
    if beta <= 0.0 or gamma < 1.0:
        raise ValueError("beta must be positive and gamma at least 1")
    if budget < 0.0 or delta < 0.0 or n < 0:
        raise ValueError("budget, delta, and n must be nonnegative")
    return (1.0 + delta) * beta * budget * n ** (1.0 / gamma)


def cost_ball_count(model, cost_field, anchor, targets, radius):
    """Targets whose steer-in cost from the anchor is within the radius.

    Steer cost is an upper bound on the true cost-distance, so the count is
    a lower bound on the cost-ball occupancy; adequate for checking
    upper-bound claims on ball masses. Candidates farther than the cost
    floor allows are skipped without integrating.
    """
    floor = float(np.min(np.asarray(cost_field.values)))
    speed = model.speed_limit()
    wd = model.workspace_dim
    reach = math.inf if floor == 0.0 else radius * speed / floor
    count = 0
    for t in targets:
        if math.dist(anchor[:wd], t[:wd]) > reach + 1e-12:
            continue
        c = _leg_cost(model, anchor, t, cost_field)
        if c <= radius + 1e-12:
            count += 1
    return count
