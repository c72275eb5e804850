"""Output checks made apart from the program.

Each check recomputes what a program call should have produced, with the
benchmark's own code, or tests a property the method must have. None compares
against a stored copy of earlier output. Every check returns a list of
problems; an empty list means the output passed.
"""

import itertools
import math

import numpy as np

# Experiment constants of the paper's sandwich: covers split cells in s = 2
# per axis, tours are symmetric, and the CLI's default delta is 0.1.
SPLIT = 2
DELTA = 0.1
TIME_TOL = 1e-9
VISIT_TOL = 1e-6


def _close(a, b, rel=1e-9, abs_tol=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# --- tours ----------------------------------------------------------------

def _cell_index(x, origin, h, u):
    # a point on a cell face that moves toward lower coordinates belongs to
    # the lower cell
    k = math.floor((x - origin) / h)
    if u < 0.0 and x <= origin + k * h:
        k -= 1
    return k


def _march(sigma, c, pos, u, dt):
    """Straight motion at speed c*sigma(x) for dt, cell by cell."""
    vals = np.asarray(sigma.values, dtype=float)
    h = sigma.cell_size
    pos = list(pos)
    left = dt
    for _ in range(1_000_000):
        if left <= 0.0:
            return pos
        idx = [_cell_index(pos[i], sigma.origin[i], h, u[i]) for i in (0, 1)]
        clamped = tuple(min(max(k, 0), vals.shape[i] - 1)
                        for i, k in enumerate(idx))
        speed = c * vals[clamped]
        t_exit, axis, face = math.inf, -1, 0.0
        for i in (0, 1):
            if u[i] == 0.0:
                continue
            bound = sigma.origin[i] + (idx[i] + (1 if u[i] > 0.0 else 0)) * h
            t = (bound - pos[i]) / (speed * u[i])
            if t < t_exit:
                t_exit, axis, face = t, i, bound
        if t_exit >= left:
            return [p + speed * ui * left for p, ui in zip(pos, u)]
        pos = [p + speed * ui * t_exit for p, ui in zip(pos, u)]
        pos[axis] = face
        left -= t_exit
    raise RuntimeError("marching did not leave the cell chain")


def advance(model, q, control, dt):
    """Configuration after dt under a constant control: a line for
    euclidean2, cell marching for the gridded speed field, a circular arc
    for the car."""
    mid = model.model_id
    if mid == "euclidean2":
        return (q[0] + model.c_pi * control[0] * dt,
                q[1] + model.c_pi * control[1] * dt)
    if mid == "scaled_euclidean2":
        return tuple(_march(model.sigma, model.c_pi, q, control, dt))
    if mid == "reeds_shepp":
        gear, steering = control
        speed = model.c_pi * gear
        omega = speed * steering / model.r_min
        x, y, th = q
        if omega == 0.0:
            return (x + speed * math.cos(th) * dt,
                    y + speed * math.sin(th) * dt, th)
        th1 = th + omega * dt
        r = speed / omega
        return (x + r * (math.sin(th1) - math.sin(th)),
                y - r * (math.cos(th1) - math.cos(th)), th1)
    raise ValueError(f"no kinematics for model {mid!r}")


def root_center(cover, point):
    """Center of the cover tile holding a point: tiles are half-open boxes
    of the cover's side lengths from its lower corner, the top edge folded
    into the last tile."""
    out = []
    for x, lo, side, count in zip(point, cover.mins, cover.sides,
                                  cover.counts):
        k = min(math.floor((x - lo) / side), count - 1)
        out.append(lo + (k + 0.5) * side)
    return tuple(out)


def check_tour(model, cover, tour, targets):
    """Every target visited once, in time order, where the trajectory is.

    Positions come from one forward pass over the segments with advance().
    The tour is an open path through the occupied roots, each root's piece
    starting and ending at its anchor: so the trajectory must start at the
    root of the first visit and end at the root of the last. Its summed
    segment durations must equal the reported total time.
    """
    problems = []
    n = len(targets)
    traj = tour.trajectory
    total = tour.total_time
    durations = [d for _, d in traj.segments]
    if not _close(math.fsum(durations), total, rel=TIME_TOL):
        problems.append(f"segment durations sum to {math.fsum(durations)!r}, "
                        f"total_time is {total!r}")
    ids = [tid for tid, _ in tour.visited]
    if sorted(ids) != list(range(n)):
        problems.append(f"{len(ids)} visits for {n} targets, "
                        f"{len(set(ids))} distinct")
    times = [vt for _, vt in tour.visited]
    slack = TIME_TOL * max(1.0, total)
    if any(b < a for a, b in zip(times, times[1:])):
        problems.append("visit times decrease")
    if times and (times[0] < -slack or times[-1] > total + slack):
        problems.append("visit time outside [0, total_time]")
    if problems:
        return problems

    wd = len(targets[0])
    q = tuple(float(v) for v in traj.start)
    t = 0.0
    k = 0
    segments = traj.segments
    for tid, vt in tour.visited:
        while k < len(segments) and t + segments[k][1] <= vt:
            q = advance(model, q, segments[k][0], segments[k][1])
            t += segments[k][1]
            k += 1
        at = q
        if k < len(segments) and vt > t:
            at = advance(model, q, segments[k][0], vt - t)
        gap = math.dist(at[:wd], targets[tid][:wd])
        if gap > VISIT_TOL:
            problems.append(f"target {tid} is {gap:.3e} from the vehicle at "
                            f"its visit time {vt!r}")
            if len(problems) >= 5:
                return problems
    for control, dt in segments[k:]:
        q = advance(model, q, control, dt)
    visits = tour.visited
    for label, at, tid in (("starts", traj.start, visits[0][0]),
                           ("ends", q, visits[-1][0])):
        gap = math.dist(at[:wd], root_center(cover, targets[tid]))
        if gap > VISIT_TOL:
            problems.append(f"trajectory {label} {gap:.3e} from the anchor "
                            f"of target {tid}'s root")
    return problems


def beta_constant(gamma):
    """Lower-bound constant (1 + xi) r^gamma for symmetric dynamics, b =
    SPLIT^gamma: r = 3/2, xi = 3 ln b / r^gamma past ln b = r^gamma, else
    3 sqrt(ln b / r^gamma)."""
    r_pow = 1.5 ** gamma
    ln_b = gamma * math.log(SPLIT)
    xi = 3.0 * ln_b / r_pow if ln_b > r_pow else 3.0 * math.sqrt(ln_b / r_pow)
    return (1.0 + xi) * r_pow


def sandwich(gamma, alpha):
    """[lower, upper] of the tour ratio from the paper's constants."""
    lo = (1.0 - DELTA) / beta_constant(gamma)
    hi = (1.0 + DELTA) * 12.0 * SPLIT * alpha ** (-1.0 / gamma)
    return lo, hi


def interaction(f, g, gamma, cell):
    """Midpoint quadrature of f^(1-1/gamma) g^(-1/gamma) where f > 0."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    mask = f > 0.0
    vals = f[mask] ** (1.0 - 1.0 / gamma) * g[mask] ** (-1.0 / gamma)
    return math.fsum(vals.ravel()) * cell ** 2


def check_rows(rows, tours, expected_j, gamma, alpha=None):
    """CSV rows against the captured tours and the benchmark's own J.

    rows: CSV dicts; tours: (tour, n) pairs; expected_j: density -> J.
    alpha: the closed-form cell fraction, or None to take the row's own.
    """
    problems = []
    if len(rows) != len(tours):
        problems.append(f"{len(rows)} CSV rows for {len(tours)} tours")
    unmatched = list(tours)
    for row in rows:
        n = int(row["n"])
        t = float(row["tour_time"])
        hit = next((i for i, (tour, tn) in enumerate(unmatched)
                    if tn == n and tour.total_time == t), None)
        if hit is None:
            problems.append(f"row n={n} tour_time={t!r} matches no tour")
        else:
            unmatched.pop(hit)
        j_row = float(row["J"])
        j_own = expected_j[row["density"]]
        if not _close(j_row, j_own, rel=1e-9):
            problems.append(f"J {j_row!r} for {row['density']}, own "
                            f"quadrature gives {j_own!r}")
        ratio = float(row["ratio"])
        if not _close(ratio, t / (n ** (1.0 - 1.0 / gamma) * j_own),
                      rel=1e-9):
            problems.append(f"ratio {ratio!r} is not tour_time / scale")
        a = float(row["alpha_hat"])
        if alpha is not None and not _close(a, alpha, rel=1e-12):
            problems.append(f"alpha_hat {a!r}, closed form {alpha!r}")
        if not 0.0 < a <= 1.0:
            problems.append(f"alpha_hat {a!r} outside (0, 1]")
            continue
        lo, hi = sandwich(gamma, a)
        if not lo <= ratio <= hi:
            problems.append(f"ratio {ratio:.4f} outside [{lo:.4f}, "
                            f"{hi:.4f}] at n={n}")
    return problems


# --- collection trees -----------------------------------------------------

def tree_cost(digits, b, s):
    """Optimal collection cost by counting prefixes level by level.

    digits is an (n, depth) array of child indices, zero padded (the
    implicit continuation). A vertex is entered iff count*(s-1) > s; counts
    never grow along a path, so each target is collected at the deepest
    entered vertex on it. Entering a level-k vertex crosses its edge twice
    (2 s^-(k-1)); collecting at level k costs 2 s^-k.
    """
    digits = np.asarray(digits, dtype=np.int64)
    n, depth = digits.shape
    code = np.zeros(n, dtype=np.int64)
    level = np.zeros(n, dtype=np.int64)
    total = 0.0
    for k in range(1, depth + 1):
        code = code * b + digits[:, k - 1]
        _, inverse, counts = np.unique(code, return_inverse=True,
                                       return_counts=True)
        entered = counts * (s - 1) > s
        total += 2.0 * float(s) ** -(k - 1) * int(entered.sum())
        level = np.where(entered[inverse.ravel()], k, level)
    return total + float(np.sum(2.0 * float(s) ** -level.astype(float)))


def walk_plan(plan, digits, b, s):
    """(cost, problems) from walking a plan over targets given as rows.

    The walk must collect every target once, on its own path, cross each
    edge 0 or 2 times and end at the root. The cursor is not kept as a
    stack: the vertex it holds at level L after action i is the last "down"
    up to i that reached level L, a running maximum per level.
    """
    kinds = {"down": 0, "up": 1, "collect": 2}
    if any(a[0] not in kinds for a in plan):
        return 0.0, ["unknown action in the plan"]
    op = np.array([kinds[a[0]] for a in plan], dtype=np.int64)
    arg = np.array([a[1] if len(a) > 1 else 0 for a in plan], dtype=np.int64)
    digits = np.asarray(digits, dtype=np.int64)
    n, width = digits.shape
    down, up, coll = op == 0, op == 1, op == 2
    after = np.cumsum(down.astype(np.int64) - up)
    if after.size and after.min() < 0:
        return 0.0, ["the plan moves up from the root"]
    problems = []
    if after.size and after[-1] != 0:
        problems.append("the plan does not return to the root")
    if np.any(down & ((arg < 0) | (arg >= b))):
        problems.append("a down move leaves [0, b)")
    tid = arg[coll]
    if np.any((tid < 0) | (tid >= n)) or \
            np.any(np.bincount(tid, minlength=n) != 1):
        problems.append("targets are not each collected exactly once")
    if problems:
        return 0.0, problems

    s = float(s)
    before = after - down + up
    cost = float(np.sum(s ** -before[down]) + np.sum(s ** -after[up])
                 + 2.0 * np.sum(s ** -after[coll]))
    idx = np.arange(len(plan))
    levels = np.array([np.maximum.accumulate(
        np.where(down & (after == lvl), idx, -1))
        for lvl in range(1, int(after.max(initial=0)) + 1)]
        or np.empty((0, len(plan)), dtype=np.int64))
    # an edge is entered once iff (parent vertex, child) repeats nowhere
    d_lvl = after[down]
    parent = np.where(d_lvl > 1, levels[np.maximum(d_lvl - 2, 0), idx[down]],
                      -1)
    key = (parent + 1) * b + arg[down]
    if np.unique(key).size != key.size:
        problems.append("an edge is crossed more than twice")
    for lvl in range(1, levels.shape[0] + 1):
        sel = coll & (after >= lvl)
        held = arg[levels[lvl - 1, sel]]
        want = digits[arg[sel], lvl - 1] if lvl <= width else 0
        if np.any(held != want):
            problems.append("a target is collected off its path")
            break
    return cost, problems


def check_tree(digits, b, s, fast_cost, plan, plan_cost):
    """Solver outputs on one instance against the prefix count and a walk."""
    problems = []
    own = tree_cost(digits, b, s)
    for label, value in (("optimal_cost_fast", fast_cost),
                         ("plan_cost", plan_cost)):
        if not _close(value, own, rel=1e-9):
            problems.append(f"{label} {value!r}, prefix count {own!r}")
    walked, walk_problems = walk_plan(plan, digits, b, s)
    problems.extend(walk_problems)
    if not walk_problems and not _close(walked, own, rel=1e-9):
        problems.append(f"walked plan costs {walked!r}, prefix count {own!r}")
    n = len(digits)
    gamma = math.log(b) / math.log(s)
    ceiling = 6.0 * s * n ** (1.0 - 1.0 / gamma)
    if own > ceiling * (1.0 + 1e-12):
        problems.append(f"cost {own!r} above 6 s n^(1-1/gamma) = {ceiling!r}")
    return problems


# --- analysis layers ------------------------------------------------------

def cell_centers(shape, h):
    """(cells, 2) centers of a grid over [0, shape*h), in row-major order."""
    ii, jj = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]),
                         indexing="ij")
    return np.stack([(ii.ravel() + 0.5) * h, (jj.ravel() + 0.5) * h], axis=1)


def check_envelope(field_vals, centers, out_vals, zeta, upper, cells, pairs):
    """An envelope against direct extrema at sampled cells.

    upper: smallest (1/zeta)-Lipschitz field above max(h, zeta); otherwise
    the largest one below min(h, 1/zeta). cells are sampled cell indices;
    pairs are sampled (i, j) index pairs for the Lipschitz test.
    """
    problems = []
    h = np.asarray(field_vals, dtype=float).ravel()
    out = np.asarray(out_vals, dtype=float).ravel()
    base = np.maximum(h, zeta) if upper else np.minimum(h, 1.0 / zeta)
    if upper and np.any(out < base - 1e-12):
        problems.append("upper envelope below max(h, zeta)")
    if not upper and np.any(out > base + 1e-12):
        problems.append("lower envelope above min(h, 1/zeta)")
    for i in cells:
        d = np.hypot(centers[:, 0] - centers[i, 0],
                     centers[:, 1] - centers[i, 1])
        if upper:
            direct = max(float(np.max(base - d / zeta)), float(base[i]))
        else:
            direct = min(float(np.min(base + d / zeta)), float(base[i]))
        if not _close(out[i], direct, rel=1e-9, abs_tol=1e-9):
            problems.append(f"envelope {out[i]!r} at cell {i}, direct "
                            f"{'max' if upper else 'min'} {direct!r}")
            break
    i, j = pairs[:, 0], pairs[:, 1]
    d = np.hypot(centers[i, 0] - centers[j, 0], centers[i, 1] - centers[j, 1])
    if np.any(np.abs(out[i] - out[j]) > d / zeta + 1e-9):
        problems.append("envelope is not 1/zeta-Lipschitz on sampled pairs")
    return problems


def permutations(n):
    """Every ordering of range(n), one per row."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def open_path_optimum(points, perms):
    """Shortest open path through all points, over every row of perms."""
    pts = np.asarray(points, dtype=float)
    d = np.hypot(pts[:, None, 0] - pts[None, :, 0],
                 pts[:, None, 1] - pts[None, :, 1])
    lengths = d[perms[:, :-1], perms[:, 1:]].sum(axis=1)
    return float(lengths.min())


def binom_zeta_diff(n, p, z):
    """E[(W+1)^z] - E[W^z] for W ~ Binomial(n, p), by vectorized weights."""
    k = np.arange(n + 1, dtype=float)
    log_w = (math.lgamma(n + 1) - np.array([math.lgamma(v + 1) for v in k])
             - np.array([math.lgamma(n - v + 1) for v in k])
             + k * math.log(p) + (n - k) * math.log1p(-p))
    return float(np.sum(np.exp(log_w) * ((k + 1.0) ** z - k ** z)))
