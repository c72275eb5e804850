"""Collection tours on a uniform branching tree.

The player starts at the root of an infinite b-ary tree whose edges shrink by
a factor s per level (an edge below a level-k vertex costs s^-k to cross).
Each target is an infinite root path, stored to finite depth with implicit
child-0 continuation. Collecting a target while standing on a vertex of its
path costs twice the local edge scale. A plan walks down/up edges, collects
every target exactly once, and returns to the root; we want the cheapest one.

The optimum enters a vertex iff count*(s-1) > s, where count is the number of
targets whose path passes through it. Counts never grow going down a path,
so the entered vertices form a subtree and each target is collected at the
deepest entered vertex on its path. With V_k entered vertices at depth k and
C_k targets collected at depth k, the optimal cost is
sum_k 2 (V_(k+1) + C_k) s^-k; optimal_cost_fast sums it exactly in integers
and rounds once.

Instances of at least _LEVELS_MIN = 128 targets are held as one zero-padded
digit array sorted in lexicographic order. The targets under a depth-k
vertex are then one run of rows, and each level's runs start where
neighbouring rows first differ within their first k digits. The instance
check, the optimal plan and the plan check run as numpy passes over that
array. Smaller instances, where numpy's per-call overhead costs more than it
saves, use the per-target loops. optimal_cost_fast counts levels at every n.
"""

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from dstsp_lab.errors import (ConfigError, HypothesisViolated, InvalidPlan,
                              SearchSpaceTooLarge)

BRUTE_MAX_TARGETS = 6
BRUTE_MAX_DEPTH = 4
BRUTE_MAX_BRANCH = 4

# Instances with at least this many targets are checked, planned and priced
# level by level. The two ways break even near 110 targets (instance, plan
# and plan check together; 2 cores, Python 3.11, numpy 2.4); at 128 the
# level passes take 0.9 of the loops' time, at 1024 0.37.
_LEVELS_MIN = 128


@dataclass(frozen=True)
class HcpParams:
    branch_factor: int
    scale: int

    def __post_init__(self):
        if self.branch_factor < 2 or self.scale < 2:
            raise ValueError("branch_factor and scale must be integers >= 2")

    @property
    def gamma(self):
        return math.log(self.branch_factor) / math.log(self.scale)

    def integer_gamma(self):
        """Exact integer k with scale**k == branch_factor, or None."""
        k, power = 0, 1
        while power < self.branch_factor:
            power *= self.scale
            k += 1
        return k if power == self.branch_factor else None


def canonical_path(path):
    """Strip trailing zeros: the stored form of the implicit continuation."""
    end = len(path)
    while end > 0 and path[end - 1] == 0:
        end -= 1
    return tuple(path[:end])


def child_at(path, level):
    return path[level] if level < len(path) else 0


def path_passes(path, prefix):
    return all(child_at(path, k) == c for k, c in enumerate(prefix))


def _check_paths(targets, b):
    """Raise ValueError naming the first path with an index outside
    0 .. b-1 or equal, up to trailing zeros, to an earlier path."""
    children = set(range(b))
    seen = set()
    for path in targets:
        if not children.issuperset(path):
            raise ValueError(
                f"target path {path} has an index not in 0 .. {b - 1}")
        key = canonical_path(path)
        if key in seen:
            raise ValueError(f"duplicate target path {path}")
        seen.add(key)


@dataclass(frozen=True)
class _SortedPaths:
    """Target paths as one zero-padded digit array in lexicographic order.

    rows[i] is the path of target order[i]. shared[i] is the number of
    leading digits rows[i] shares with rows[i - 1] (shared[0] = 0), so the
    runs of rows under the depth-k vertices start where shared < k.
    """
    rows: np.ndarray
    order: np.ndarray
    shared: np.ndarray


def _sort_paths(targets, b):
    """_SortedPaths of the targets, or None if a path has an index outside
    0 .. b-1 or two paths are equal up to trailing zeros."""
    n = len(targets)
    # c is a valid index iff it equals one of 0 .. b-1, as in _check_paths;
    # b stands for "no index"
    index = dict(zip(range(b), range(b)))
    dtype = np.min_scalar_type(b)
    lengths = np.fromiter(map(len, targets), np.intp, n)
    # at least one digit column (the implicit 0), so lexsort has a key
    width = int(lengths.max(initial=1))
    flat = np.fromiter(map(index.get, chain.from_iterable(targets), repeat(b)),
                       dtype, int(lengths.sum()))
    if np.any(flat == b):
        return None
    rows = np.zeros((n, width), dtype)
    rows[np.arange(width) < lengths[:, None]] = flat
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    differ = rows[1:] != rows[:-1]
    if not differ.any(axis=1).all():
        return None
    shared = np.zeros(n, np.intp)
    shared[1:] = differ.argmax(axis=1)
    return _SortedPaths(rows, order, shared)


def _collection_tree(paths, s):
    """The optimal plan's vertices, level by level over sorted paths.

    Returns (entered, depth, home). entered[k - 1] holds (lo, hi), the row
    runs of the entered depth-k vertices; row i is collected at the entered
    vertex of depth depth[i] whose run starts at row home[i].
    """
    n, width = paths.rows.shape
    depth = np.zeros(n, np.intp)
    home = np.zeros(n, np.intp)
    entered = []
    for level in range(1, width + 1):
        lo = np.flatnonzero(paths.shared < level)
        size = np.diff(lo, append=n)
        keep = size * (s - 1) > s
        if not keep.any():
            break
        inside = np.repeat(keep, size)
        depth[inside] = level
        home[inside] = np.repeat(lo, size)[inside]
        entered.append((lo[keep], lo[keep] + size[keep]))
    return entered, depth, home


def _exact_sum(counts, s):
    """sum_k counts[k] s^-k as a Fraction."""
    top = len(counts) - 1
    return Fraction(sum(int(c) * s ** (top - k) for k, c in enumerate(counts)),
                    s ** top)


@dataclass(frozen=True)
class HcpInstance:
    params: HcpParams
    targets: tuple

    def __post_init__(self):
        if self.n >= _LEVELS_MIN:
            self._paths     # builds the digit array, which checks the paths
        else:
            _check_paths(self.targets, self.params.branch_factor)

    @property
    def n(self):
        return len(self.targets)

    @cached_property
    def _paths(self):
        paths = _sort_paths(self.targets, self.params.branch_factor)
        if paths is None:   # raises, naming the first bad or repeated path
            _check_paths(self.targets, self.params.branch_factor)
        return paths

    @cached_property
    def _tree(self):
        return _collection_tree(self._paths, self.params.scale)

    @cached_property
    def _actions(self):
        """Every action a plan can take: the down moves, the collects in
        target order, then the up move."""
        return ([("down", c) for c in range(self.params.branch_factor)]
                + list(zip(repeat("collect"), range(self.n))) + [("up",)])


def plan_cost(plan, instance, exact=False):
    """Total cost of a plan, validating it against the instance.

    Raises InvalidPlan on cursor underflow, off-path or double collection,
    a missed target, or a cursor that does not end at the root. With
    exact=True the cost is a Fraction (s^-k is not binary-exact for s=3).
    From _LEVELS_MIN targets a valid plan of plain actions is checked and
    priced in one numpy pass; any other plan is walked action by action,
    which raises for its earliest faulty action.
    """
    if instance.n >= _LEVELS_MIN:
        cost = _plan_cost_levels(plan, instance, exact)
        if cost is not None:
            return cost
    s = instance.params.scale
    b = instance.params.branch_factor
    one = Fraction(1) if exact else 1.0
    cost = one * 0
    cursor = []
    collected = set()
    for action in plan:
        op = action[0]
        if op == "down":
            child = action[1]
            if not (0 <= child < b):
                raise InvalidPlan(f"down to child {child} outside [0, {b})")
            cost += one / s ** len(cursor)
            cursor.append(child)
        elif op == "up":
            if not cursor:
                raise InvalidPlan("cursor underflows the root")
            cursor.pop()
            cost += one / s ** len(cursor)
        elif op == "collect":
            tid = action[1]
            if not (0 <= tid < instance.n):
                raise InvalidPlan(f"unknown target id {tid}")
            if tid in collected:
                raise InvalidPlan(f"target {tid} collected twice")
            if not path_passes(instance.targets[tid], cursor):
                raise InvalidPlan(f"target {tid} collected off its path at {cursor}")
            collected.add(tid)
            cost += 2 * one / s ** len(cursor)
        else:
            raise InvalidPlan(f"unknown action {action!r}")
    if cursor:
        raise InvalidPlan("plan must end at the root")
    if len(collected) != instance.n:
        raise InvalidPlan(f"collected {len(collected)} of {instance.n} targets")
    return cost


def _plan_cost_levels(plan, instance, exact):
    """plan_cost of a valid plan of ("down", int), ("up",) and
    ("collect", int) actions in one numpy pass; None for any other plan.

    The cursor's digit at level L is the child of the last down move to
    depth L. The float cost is the cumulative sum of the per-action costs in
    plan order, which rounds exactly like plan_cost's loop.
    """
    n, b, s = instance.n, instance.params.branch_factor, instance.params.scale
    table = instance._actions
    index = dict(zip(table, range(len(table))))
    try:
        code = np.fromiter(map(index.get, plan, repeat(-1)), np.intp,
                           len(plan))
    except TypeError:       # an unhashable action
        return None
    # ("collect", 1.0) finds an entry too, but the loop cannot index by it
    if code.size == 0 or code.min() < 0 or \
            not {int, str}.issuperset(map(type, map(itemgetter(-1), plan))):
        return None
    down, up = code < b, code == b + n
    coll = ~(down | up)
    after = np.cumsum(down.astype(np.int8) - up)    # cursor depth
    tid = code[coll] - b
    if after.min() < 0 or after[-1] != 0 or tid.size != n or \
            np.bincount(tid).max() > 1:
        return None

    paths = instance._paths
    rank = np.empty(n, np.intp)
    rank[paths.order] = np.arange(n)
    at = np.flatnonzero(coll)
    held = after[at]
    for level in range(1, int(held.max()) + 1):
        moves = np.flatnonzero(down & (after == level))
        sel = held >= level
        last = moves[np.searchsorted(moves, at[sel]) - 1]
        want = paths.rows[rank[tid[sel]], level - 1] \
            if level <= paths.rows.shape[1] else 0
        if np.any(code[last] != want):
            return None

    level = after - down        # depth each action is priced at
    top = int(level.max())
    if exact:
        counts = np.bincount(level, minlength=top + 1) \
            + np.bincount(level[coll], minlength=top + 1)
        return _exact_sum(counts, s)
    unit = np.array([1.0 / s ** k for k in range(top + 1)])
    twice = np.array([2.0 / s ** k for k in range(top + 1)])
    return float(np.cumsum(np.where(coll, twice[level], unit[level]))[-1])


def targets_through(instance, vertex_path):
    """Number of targets whose path passes through the given vertex."""
    return sum(1 for t in instance.targets if path_passes(t, vertex_path))


def construct_optimal_plan(instance):
    """Cheapest plan: depth-first tour of the vertices holding enough targets.

    Descends into a child only when strictly more than s/(s-1) targets pass
    through it (an exact tie costs the same either way; staying enters fewer
    vertices). Every other target is collected at the deepest vertex entered
    on its path. Children are visited in ascending index order; local
    collections happen before any descent, in ascending target id.
    """
    if instance.n >= _LEVELS_MIN:
        return _plan_by_levels(instance)
    s = instance.params.scale
    if instance.n == 0:
        return []
    group = [(canonical_path(t), tid) for tid, t in enumerate(instance.targets)]
    plan = []

    # iterative DFS; frames are (depth, group) generators of pending work
    def emit(depth, group):
        buckets = defaultdict(list)
        for path, tid in group:
            buckets[child_at(path, depth)].append((path, tid))
        local = []
        descents = []
        for child in sorted(buckets):
            sub = buckets[child]
            if len(sub) * (s - 1) > s:
                descents.append((child, sub))
            else:
                local.extend(tid for _, tid in sub)
        for tid in sorted(local):
            plan.append(("collect", tid))
        for child, sub in descents:
            plan.append(("down", child))
            emit(depth + 1, sub)
            plan.append(("up",))

    emit(0, group)
    return plan


def _plan_by_levels(instance):
    """construct_optimal_plan as one sort of its actions over sorted rows.

    Each action is keyed by (row, depth): a down move into a vertex by the
    first row of its run and its depth, a collect by the same key of the
    vertex it happens at, an up move out of a vertex by the row after its
    run and minus its depth, so that it comes before any move into the next
    run and deeper vertices are left first. The stable sort keeps a vertex's
    down move before its collects, and those in target order.
    """
    n = instance.n
    paths = instance._paths
    entered, depth, home = instance._tree
    levels = np.repeat(np.arange(1, len(entered) + 1),
                       [len(lo) for lo, _ in entered])
    lo = np.concatenate([lo for lo, _ in entered] + [[]]).astype(np.intp)
    hi = np.concatenate([hi for _, hi in entered] + [[]]).astype(np.intp)
    row, at = np.empty(n, np.intp), np.empty(n, np.intp)
    row[paths.order], at[paths.order] = home, depth
    span = 2 * len(entered) + 1
    key = np.concatenate((lo * span + levels, row * span + at,
                          hi * span - levels))
    b = instance.params.branch_factor
    # indices into instance._actions: down moves, collects, the up move
    code = np.concatenate((paths.rows[lo, levels - 1], b + np.arange(n),
                           np.full(len(hi), b + n)))
    return list(map(instance._actions.__getitem__,
                    code[np.argsort(key, kind="stable")].tolist()))


def optimal_cost_fast(instance):
    """Cost of construct_optimal_plan(instance) without materializing it:
    sum_k 2 (V_(k+1) + C_k) s^-k from the counts per level, rounded once."""
    if instance.n == 0:
        return 0.0
    entered, depth, _ = instance._tree
    counts = np.bincount(depth, minlength=len(entered) + 1)
    for k, (lo, _) in enumerate(entered):
        counts[k] += len(lo)
    return float(_exact_sum(2 * counts, instance.params.scale))


def brute_force_optimal(instance, depth_limit):
    """Exhaustive minimum-cost plan within the given depth, by shortest path
    over (cursor, collected-set) states.

    Costs are integer multiples of s^-depth_limit, so the search is exact;
    among cost ties the plan with the fewest descents (= fewest vertices
    entered) wins. Moves into subtrees holding no targets are pruned: such
    excursions are strictly dominated. Guards: n <= 6, depth_limit <= 4,
    branch factor <= 4.
    """
    b = instance.params.branch_factor
    s = instance.params.scale
    n = instance.n
    if n > BRUTE_MAX_TARGETS or depth_limit > BRUTE_MAX_DEPTH or b > BRUTE_MAX_BRANCH:
        raise SearchSpaceTooLarge(
            f"guards: n <= {BRUTE_MAX_TARGETS}, depth <= {BRUTE_MAX_DEPTH}, "
            f"b <= {BRUTE_MAX_BRANCH} (got n={n}, depth={depth_limit}, b={b})"
        )
    if n == 0:
        return [], 0.0

    unit = s ** depth_limit  # all costs in integer units of s^-depth_limit
    paths = [canonical_path(t) for t in instance.targets]
    full = (1 << n) - 1

    def down_cost(depth):
        return unit // s ** depth

    start = ((), 0)
    best = {start: (0, 0)}
    parent = {start: None}
    heap = [(0, 0, start)]
    goal = None
    while heap:
        cost, downs, state = heapq.heappop(heap)
        if best.get(state, (-1, -1)) != (cost, downs):
            continue
        cursor, collected = state
        if collected == full and not cursor:
            goal = state
            break
        depth = len(cursor)
        moves = []
        if depth < depth_limit:
            for child in range(b):
                prefix = cursor + (child,)
                if any(
                    collected >> tid & 1 == 0 and path_passes(paths[tid], prefix)
                    for tid in range(n)
                ):
                    moves.append(
                        (cost + down_cost(depth), downs + 1, (prefix, collected),
                         ("down", child))
                    )
        if cursor:
            moves.append(
                (cost + down_cost(depth - 1), downs, (cursor[:-1], collected),
                 ("up",))
            )
        for tid in range(n):
            if collected >> tid & 1 == 0 and path_passes(paths[tid], cursor):
                moves.append(
                    (cost + 2 * down_cost(depth), downs,
                     (cursor, collected | 1 << tid), ("collect", tid))
                )
        for new_cost, new_downs, new_state, action in moves:
            key = (new_cost, new_downs)
            if new_state not in best or key < best[new_state]:
                best[new_state] = key
                parent[new_state] = (state, action)
                heapq.heappush(heap, (new_cost, new_downs, new_state))

    if goal is None:
        raise SearchSpaceTooLarge("no plan within depth limit reaches every target")
    plan = []
    node = goal
    while parent[node] is not None:
        node, action = parent[node]
        plan.append(action)
    plan.reverse()
    return plan, best[goal][0] / unit


def level_k_plan(instance, k_star):
    """Depth-first tour of every level-k_star vertex, collecting each target
    at its level-k_star vertex. Costly but matches a closed form: movement
    2*sum_{k<k_star} b^{k+1} s^-k, collection 2 n s^-k_star."""
    if k_star < 0:
        raise ValueError("k_star must be >= 0")
    b = instance.params.branch_factor
    group = [(canonical_path(t), tid) for tid, t in enumerate(instance.targets)]
    plan = []

    def visit(depth, members):
        if depth == k_star:
            for _, tid in sorted(members, key=lambda item: item[1]):
                plan.append(("collect", tid))
            return
        buckets = defaultdict(list)
        for path, tid in members:
            buckets[child_at(path, depth)].append((path, tid))
        for child in range(b):
            plan.append(("down", child))
            visit(depth + 1, buckets.get(child, []))
            plan.append(("up",))

    visit(0, group)
    return plan


def hcp_star_bound(n, params):
    """Worst-case optimal collection cost: 6 s n^(1-1/gamma)."""
    gamma = params.gamma
    if params.scale < 2 or gamma < 2 - 1e-12:
        raise HypothesisViolated(
            f"bound needs s >= 2 and gamma >= 2 (got s={params.scale}, "
            f"gamma={gamma:.6f})"
        )
    if n == 0:
        return 0.0
    return 6.0 * params.scale * n ** (1.0 - 1.0 / gamma)


# ------------------------------------------------------------ serialization

def instance_to_json(instance):
    return {
        "b": instance.params.branch_factor,
        "s": instance.params.scale,
        "targets": [list(t) for t in instance.targets],
    }


def _integral(value):
    return type(value) is int or (type(value) is float and value.is_integer())


def instance_from_json(obj):
    """Instance from {"b": ..., "s": ..., "targets": [[...], ...]}; a value
    that is not an integer is a ConfigError naming its field."""
    for field in ("b", "s"):
        if not _integral(obj[field]):
            raise ConfigError(f"field '{field}': {obj[field]!r} is not an "
                              f"integer")
    for i, path in enumerate(obj["targets"]):
        for k, c in enumerate(path):
            if not _integral(c):
                raise ConfigError(f"field 'targets[{i}][{k}]': {c!r} is not "
                                  f"an integer")
    params = HcpParams(branch_factor=int(obj["b"]), scale=int(obj["s"]))
    return HcpInstance(params,
                       tuple(tuple(map(int, t)) for t in obj["targets"]))


def plan_to_json(plan):
    out = []
    for action in plan:
        if action[0] == "up":
            out.append({"op": "up"})
        else:
            out.append({"op": action[0], "arg": action[1]})
    return out


def plan_from_json(obj):
    plan = []
    for item in obj:
        if item["op"] == "up":
            plan.append(("up",))
        else:
            plan.append((item["op"], int(item["arg"])))
    return plan
