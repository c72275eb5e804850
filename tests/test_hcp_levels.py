"""Level-wise tree collection against the per-target loops it replaced.

reference_construct_optimal_plan, reference_optimal_cost_fast and
reference_plan_cost are hcp's recursion, recursive cost and plan walk as
they were before instances of _LEVELS_MIN targets or more went through one
sorted digit array. The level-wise plan must equal the recursion's, and the
level-wise plan check must price a valid plan to the same float bit for bit
and leave every faulty one to the walk, which names its first fault. The
cost now sums the level counts exactly and rounds once, so it agrees with
the recursion to rounding only.
"""

import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dstsp_lab import hcp
from dstsp_lab.errors import InvalidPlan

# ---------------------------------------------------------------- references


def reference_plan_cost(plan, instance, exact=False):
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
            if not hcp.path_passes(instance.targets[tid], cursor):
                raise InvalidPlan(
                    f"target {tid} collected off its path at {cursor}")
            collected.add(tid)
            cost += 2 * one / s ** len(cursor)
        else:
            raise InvalidPlan(f"unknown action {action!r}")
    if cursor:
        raise InvalidPlan("plan must end at the root")
    if len(collected) != instance.n:
        raise InvalidPlan(f"collected {len(collected)} of {instance.n} targets")
    return cost


def reference_construct_optimal_plan(instance):
    s = instance.params.scale
    if instance.n == 0:
        return []
    group = [(hcp.canonical_path(t), tid)
             for tid, t in enumerate(instance.targets)]
    plan = []

    def emit(depth, group):
        buckets = defaultdict(list)
        for path, tid in group:
            buckets[hcp.child_at(path, depth)].append((path, tid))
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


def reference_optimal_cost_fast(instance):
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

    walk(0, [hcp.canonical_path(t) for t in instance.targets])
    return total


def reference_check_paths(targets, b):
    children = set(range(b))
    seen = set()
    for path in targets:
        if not children.issuperset(path):
            raise ValueError(
                f"target path {path} has an index not in 0 .. {b - 1}")
        key = hcp.canonical_path(path)
        if key in seen:
            raise ValueError(f"duplicate target path {path}")
        seen.add(key)


# ----------------------------------------------------------------- instances

def random_paths(rng, b, n, depth):
    """Up to n distinct ragged paths; most extend a prefix of an earlier
    one, so that deep vertices hold many targets, and some carry explicit
    trailing zeros."""
    seen, paths = set(), []
    for _ in range(20 * n):
        if len(paths) == n:
            break
        if paths and rng.random() < 0.7:
            base = rng.choice(paths)
            path = list(base[:rng.randint(0, len(base))])
        else:
            path = []
        while len(path) < depth and rng.random() < 0.8:
            path.append(rng.randrange(b))
        key = hcp.canonical_path(path)
        if key in seen:
            continue
        seen.add(key)
        if rng.random() < 0.2:
            path += [0] * rng.randint(1, 2)
        paths.append(tuple(path))
    return tuple(paths)


@st.composite
def instances(draw):
    b = draw(st.integers(2, 27))
    s = draw(st.integers(2, 4))
    n = draw(st.one_of(st.integers(0, 300),
                       st.integers(hcp._LEVELS_MIN - 2, hcp._LEVELS_MIN + 2)))
    depth = 1
    while b ** depth < 2 * n + 2:
        depth += 1
    depth += draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return hcp.HcpInstance(hcp.HcpParams(b, s),
                           random_paths(rng, b, n, depth)), rng


@st.composite
def deep_instances(draw):
    """Instances above the crossover whose targets all share one long
    prefix, so that the entered vertices reach depth 64 and more, drawn with
    b = 2 or 3 (rows of 64 and more digits) or b >= 256 (digits wider than
    one byte)."""
    b = draw(st.sampled_from([2, 3, 256, 300]))
    s = draw(st.integers(2, 4))
    n = draw(st.integers(hcp._LEVELS_MIN, hcp._LEVELS_MIN + 80))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    prefix = tuple(rng.randrange(b) for _ in range(draw(st.integers(64, 80))))
    depth = 1
    while b ** depth < 2 * n + 2:
        depth += 1
    tails = random_paths(rng, b, n, depth + 2)
    assume(len(tails) >= hcp._LEVELS_MIN)
    return hcp.HcpInstance(hcp.HcpParams(b, s),
                           tuple(prefix + tail for tail in tails)), rng


def raised(call, *args):
    """(type, message) of what call(*args) raises, or None."""
    try:
        call(*args)
    except Exception as err:   # the type is part of what is compared
        return type(err), str(err)
    return None


# ------------------------------------------------------------------- checks

def check_plan(inst):
    want = reference_construct_optimal_plan(inst)
    assert hcp._plan_by_levels(inst) == want
    assert hcp.construct_optimal_plan(inst) == want


def check_cost(inst):
    exact = reference_plan_cost(reference_construct_optimal_plan(inst), inst,
                                exact=True)
    cost = hcp.optimal_cost_fast(inst)
    assert cost == float(exact)
    if inst.n:
        assert abs(Fraction(cost) - exact) <= Fraction(1, 10 ** 15) * exact
    assert cost == pytest.approx(reference_optimal_cost_fast(inst),
                                 rel=1e-11, abs=0.0)


def check_plan_cost(inst):
    plan = reference_construct_optimal_plan(inst)
    want = reference_plan_cost(plan, inst)
    assert hcp.plan_cost(plan, inst) == want
    assert hcp.plan_cost(plan, inst, exact=True) == \
        reference_plan_cost(plan, inst, exact=True)
    if inst.n:
        assert hcp._plan_cost_levels(plan, inst, False) == want
        assert hcp._plan_cost_levels(plan, inst, True) == \
            reference_plan_cost(plan, inst, exact=True)


def corruptions(plan, inst, rng):
    """Faulty variants of a valid plan, each with its kind."""
    b, n = inst.params.branch_factor, inst.n
    at = {op: [i for i, a in enumerate(plan) if a[0] == op]
          for op in ("down", "up", "collect")}
    out = [("underflow", [("up",)] + plan),
           ("no return", plan + [("down", 0)]),
           ("unknown op", plan[:1] + [("jump", 0)] + plan[1:]),
           ("child out of range", [("down", b), ("up",)] + plan),
           ("unknown target", plan + [("collect", n)])]
    if n:
        i = rng.choice(at["collect"])
        out.append(("missed", plan[:i] + plan[i + 1:]))
        out.append(("double", plan[:i + 1] + plan[i:]))
        j = rng.choice(at["collect"])
        if j != i:      # as many collects as targets, one of them twice
            twice = plan[:i + 1] + plan[i:]
            twice.remove(plan[j])
            out.append(("double for missed", twice))
        # collecting below the root, on a child its path avoids
        tid = plan[i][1]
        other = (hcp.child_at(inst.targets[tid], 0) + 1) % b
        out.append(("off path", [("down", other), plan[i], ("up",)]
                    + plan[:i] + plan[i + 1:]))
        out.append(("float target", plan[:i] + [("collect", float(tid))]
                    + plan[i + 1:]))
    if at["down"]:
        i = rng.choice(at["down"])
        child = plan[i][1]
        out.append(("other child", plan[:i] + [("down", (child + 1) % b)]
                    + plan[i + 1:]))
        out.append(("last up dropped", plan[:at["up"][-1]]
                    + plan[at["up"][-1] + 1:]))
    for _ in range(3 if plan else 0):
        i, j = rng.randrange(len(plan)), rng.randrange(len(plan))
        swapped = list(plan)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        out.append(("swap", swapped))
    return out


def check_faulty_plans(inst, rng):
    plan = reference_construct_optimal_plan(inst)
    for kind, bad in corruptions(plan, inst, rng):
        want = raised(reference_plan_cost, bad, inst)
        assert raised(hcp.plan_cost, bad, inst) == want, kind
        if want is None:        # a swap can keep a plan valid
            assert hcp._plan_cost_levels(bad, inst, False) == \
                reference_plan_cost(bad, inst)
        elif inst.n:
            assert hcp._plan_cost_levels(bad, inst, False) is None, kind


BAD_ENTRIES = [1.5, -1, "a", float("nan"), True, 1.0, "dup", "dup0"]


def check_instance_check(inst, rng, entry):
    b = inst.params.branch_factor
    targets = list(inst.targets)
    if not targets:
        return
    i = rng.randrange(len(targets))
    if entry == "dup":
        targets.append(targets[i])
    elif entry == "dup0":
        targets.append(tuple(targets[i]) + (0,))
    else:
        path = list(targets[i]) + [0]
        path[rng.randrange(len(path))] = entry
        targets[i] = tuple(path)
    targets.insert(rng.randrange(len(targets) + 1), (b,) * rng.randint(0, 1))
    for case in (targets, targets[:-1]):
        case = tuple(case)
        want = raised(reference_check_paths, case, b)
        assert raised(hcp.HcpInstance, inst.params, case) == want


# --------------------------------------------------------------------- tests

@settings(max_examples=150)
@given(instances())
def test_level_plan_equals_the_recursion(drawn):
    check_plan(drawn[0])


@settings(max_examples=150)
@given(instances())
def test_level_cost_is_the_exact_sum_rounded_once(drawn):
    check_cost(drawn[0])


@settings(max_examples=150)
@given(instances())
def test_level_plan_check_prices_like_the_walk(drawn):
    check_plan_cost(drawn[0])


@settings(max_examples=150)
@given(instances())
def test_faulty_plans_raise_like_the_walk(drawn):
    check_faulty_plans(*drawn)


@settings(max_examples=100)
@given(instances(), st.sampled_from(BAD_ENTRIES))
def test_instance_check_accepts_and_rejects_like_the_loop(drawn, entry):
    check_instance_check(*drawn, entry)


@settings(max_examples=40)
@given(deep_instances(), st.sampled_from(BAD_ENTRIES))
def test_deep_paths_and_wide_indices_match_the_references(drawn, entry):
    inst, rng = drawn
    rows = inst._paths.rows
    assert rows.shape[1] >= 64 or rows.dtype.itemsize > 1
    check_plan(inst)
    check_cost(inst)
    check_plan_cost(inst)
    check_faulty_plans(inst, rng)
    check_instance_check(inst, rng, entry)
