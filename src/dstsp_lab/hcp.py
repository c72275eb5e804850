"""Collection tours on a uniform branching tree.

The player starts at the root of an infinite b-ary tree whose edges shrink by
a factor s per level (an edge below a level-k vertex costs s^-k to cross).
Each target is an infinite root path, stored to finite depth with implicit
child-0 continuation. Collecting a target while standing on a vertex of its
path costs twice the local edge scale. A plan walks down/up edges, collects
every target exactly once, and returns to the root; we want the cheapest one.
"""

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from dstsp_lab.errors import HypothesisViolated, InvalidPlan, SearchSpaceTooLarge

BRUTE_MAX_TARGETS = 6
BRUTE_MAX_DEPTH = 4
BRUTE_MAX_BRANCH = 4


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


@dataclass(frozen=True)
class HcpInstance:
    params: HcpParams
    targets: tuple

    def __post_init__(self):
        b = self.params.branch_factor
        children = set(range(b))
        seen = set()
        for path in self.targets:
            if not children.issuperset(path):
                raise ValueError(
                    f"target path {path} has an index not in 0 .. {b - 1}")
            key = canonical_path(path)
            if key in seen:
                raise ValueError(f"duplicate target path {path}")
            seen.add(key)

    @property
    def n(self):
        return len(self.targets)


def plan_cost(plan, instance, exact=False):
    """Total cost of a plan, validating it against the instance.

    Raises InvalidPlan on cursor underflow, off-path or double collection,
    a missed target, or a cursor that does not end at the root. With
    exact=True the cost is a Fraction (s^-k is not binary-exact for s=3).
    """
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


def optimal_cost_fast(instance):
    """Cost of construct_optimal_plan(instance) without materializing it."""
    s = instance.params.scale
    if instance.n == 0:
        return 0.0
    total = 0.0

    def walk(depth, group):
        nonlocal total
        buckets = defaultdict(list)
        for path in group:
            buckets[path[depth] if depth < len(path) else 0].append(path)
        scale = s ** (-depth)
        for sub in buckets.values():
            if len(sub) * (s - 1) > s:
                total += 2 * scale
                walk(depth + 1, sub)
            else:
                total += 2 * scale * len(sub)

    walk(0, [canonical_path(t) for t in instance.targets])
    return total


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


def instance_from_json(obj):
    params = HcpParams(branch_factor=int(obj["b"]), scale=int(obj["s"]))
    return HcpInstance(params, tuple(tuple(int(c) for c in t) for t in obj["targets"]))


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
