"""Reeds-Shepp words: shortest_word against the frozen search it replaced,
the families' words, the symmetries of the shortest length and the steer
word memo.

Everything from _clamped_acos to reference_shortest_word is the module's
search as it was before pricing went through raw parameters: twelve family
functions, each computing its frame, building element tuples for every
candidate, then validating the candidates shortest first. shortest_word
must return the same word, compared whole with ==, not just one as short.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from dstsp_lab import dynamics as dyn
from dstsp_lab import reeds_shepp as rs


# --- the frozen search ------------------------------------------------------

def _clamped_acos(v):
    return math.acos(min(1.0, max(-1.0, v)))


def _clamped_asin(v):
    return math.asin(min(1.0, max(-1.0, v)))


def _el(param, steering, gear):
    # negative params flip gear, matching the source formulas' convention
    if param < 0:
        return (-param, steering, -gear)
    return (param, steering, gear)


# Each family returns a list of elements or None when the goal is outside its
# validity region. L = steering +1, R = -1, S = 0; F = gear +1, B = -1.

def _csc_same(x, y, phi):
    u, t = rs.polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    v = rs.wrap_pi(phi - t)
    return [_el(t, 1, 1), _el(u, 0, 1), _el(v, 1, 1)]


def _csc_opposite(x, y, phi):
    rho, t1 = rs.polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho * rho < 4.0:
        return None
    u = math.sqrt(rho * rho - 4.0)
    t = rs.wrap_pi(t1 + math.atan2(2.0, u))
    v = rs.wrap_pi(t - phi)
    return [_el(t, 1, 1), _el(u, 0, 1), _el(v, -1, 1)]


def _c_c_c(x, y, phi):
    rho, theta = rs.polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if rho > 4.0:
        return None
    a = _clamped_acos(rho / 4.0)
    t = rs.wrap_pi(theta + math.pi / 2.0 + a)
    u = rs.wrap_pi(math.pi - 2.0 * a)
    v = rs.wrap_pi(phi - t - u)
    return [_el(t, 1, 1), _el(u, -1, -1), _el(v, 1, 1)]


def _c_cc(x, y, phi):
    rho, theta = rs.polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if rho > 4.0:
        return None
    a = _clamped_acos(rho / 4.0)
    t = rs.wrap_pi(theta + math.pi / 2.0 + a)
    u = rs.wrap_pi(math.pi - 2.0 * a)
    v = rs.wrap_pi(t + u - phi)
    return [_el(t, 1, 1), _el(u, -1, -1), _el(v, 1, -1)]


def _cc_c(x, y, phi):
    rho, theta = rs.polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if rho > 4.0:
        return None
    u = _clamped_acos(1.0 - rho * rho / 8.0)
    if rho < rs._EPS:
        return None
    a = _clamped_asin(2.0 * math.sin(u) / rho)
    t = rs.wrap_pi(theta + math.pi / 2.0 - a)
    v = rs.wrap_pi(t - u - phi)
    return [_el(t, 1, 1), _el(u, -1, 1), _el(v, 1, -1)]


def _ccu_cuc(x, y, phi):
    rho, theta = rs.polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho > 4.0:
        return None
    if rho <= 2.0:
        a = _clamped_acos((rho + 2.0) / 4.0)
        t = rs.wrap_pi(theta + math.pi / 2.0 + a)
        u = rs.wrap_pi(a)
    else:
        a = _clamped_acos((rho - 2.0) / 4.0)
        t = rs.wrap_pi(theta + math.pi / 2.0 - a)
        u = rs.wrap_pi(math.pi - a)
    v = rs.wrap_pi(phi - t + 2.0 * u)
    return [_el(t, 1, 1), _el(u, -1, 1), _el(u, 1, -1), _el(v, -1, -1)]


def _c_cucu_c(x, y, phi):
    rho, theta = rs.polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho > 6.0:
        return None
    u1 = (20.0 - rho * rho) / 16.0
    if u1 < 0.0 or u1 > 1.0:
        return None
    u = _clamped_acos(u1)
    if rho < rs._EPS:
        return None
    a = _clamped_asin(2.0 * math.sin(u) / rho)
    t = rs.wrap_pi(theta + math.pi / 2.0 + a)
    v = rs.wrap_pi(t - phi)
    return [_el(t, 1, 1), _el(u, -1, -1), _el(u, 1, -1), _el(v, -1, 1)]


def _c_chalfpi_sc(x, y, phi):
    rho, theta = rs.polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if rho < 2.0:
        return None
    u = math.sqrt(rho * rho - 4.0) - 2.0
    a = math.atan2(2.0, u + 2.0)
    t = rs.wrap_pi(theta + math.pi / 2.0 + a)
    v = rs.wrap_pi(t - phi + math.pi / 2.0)
    return [
        _el(t, 1, 1),
        _el(math.pi / 2.0, -1, -1),
        _el(u, 0, -1),
        _el(v, 1, -1),
    ]


def _cs_chalfpi_c(x, y, phi):
    rho, theta = rs.polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if rho < 2.0:
        return None
    u = math.sqrt(rho * rho - 4.0) - 2.0
    a = math.atan2(u + 2.0, 2.0)
    t = rs.wrap_pi(theta + math.pi / 2.0 - a)
    v = rs.wrap_pi(t - phi - math.pi / 2.0)
    return [
        _el(t, 1, 1),
        _el(u, 0, 1),
        _el(math.pi / 2.0, -1, 1),
        _el(v, 1, -1),
    ]


def _c_chalfpi_sc2(x, y, phi):
    rho, theta = rs.polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho < 2.0:
        return None
    t = rs.wrap_pi(theta + math.pi / 2.0)
    u = rho - 2.0
    v = rs.wrap_pi(phi - t - math.pi / 2.0)
    return [
        _el(t, 1, 1),
        _el(math.pi / 2.0, -1, -1),
        _el(u, 0, -1),
        _el(v, -1, -1),
    ]


def _cs_chalfpi_c2(x, y, phi):
    rho, theta = rs.polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho < 2.0:
        return None
    t = rs.wrap_pi(theta)
    u = rho - 2.0
    v = rs.wrap_pi(phi - t - math.pi / 2.0)
    return [
        _el(t, 1, 1),
        _el(u, 0, 1),
        _el(math.pi / 2.0, 1, 1),
        _el(v, -1, -1),
    ]


def _c_chalfpi_s_chalfpi_c(x, y, phi):
    rho, theta = rs.polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho < 4.0:
        return None
    u = math.sqrt(rho * rho - 4.0) - 4.0
    a = math.atan2(2.0, u + 4.0)
    t = rs.wrap_pi(theta + math.pi / 2.0 + a)
    v = rs.wrap_pi(t - phi)
    return [
        _el(t, 1, 1),
        _el(math.pi / 2.0, -1, -1),
        _el(u, 0, -1),
        _el(math.pi / 2.0, 1, -1),
        _el(v, -1, 1),
    ]


_FAMILIES = (
    _csc_same,
    _csc_opposite,
    _c_c_c,
    _c_cc,
    _cc_c,
    _ccu_cuc,
    _c_cucu_c,
    _c_chalfpi_sc,
    _cs_chalfpi_c,
    _c_chalfpi_sc2,
    _cs_chalfpi_c2,
    _c_chalfpi_s_chalfpi_c,
)


def _timeflip(word):
    return [(p, st, -g) for p, st, g in word]


def _reflect(word):
    return [(p, -st, g) for p, st, g in word]


def _lands_on(word, x, y, phi):
    ex, ey, eth = rs.integrate_word(word)
    return (abs(ex - x) <= rs._EPS and abs(ey - y) <= rs._EPS
            and abs(rs.wrap_pi(eth - phi)) <= rs._EPS)


def _variants(x, y, phi):
    return ((x, y, phi, False, False),
            (-x, y, -phi, True, False),     # timeflip
            (x, -y, -phi, False, True),     # reflect
            (-x, -y, phi, True, True))      # both


def reference_shortest_word(x, y, phi):
    candidates = []
    for family in _FAMILIES:
        for vx, vy, vphi, flip, mirror in _variants(x, y, phi):
            word = family(vx, vy, vphi)
            if word is None:
                continue
            # word_length of the word without its elements of at most _EPS
            length = sum([p for p, _, _ in word if p > rs._EPS])
            candidates.append((length, len(candidates), word, flip, mirror))
    candidates.sort()   # by (length, generation index), which are unique
    for _, _, word, flip, mirror in candidates:
        word = [e for e in word if e[0] > rs._EPS]
        if flip:
            word = _timeflip(word)
        if mirror:
            word = _reflect(word)
        if _lands_on(word, x, y, phi):
            return word
    raise RuntimeError("no valid word")


# --- goals ------------------------------------------------------------------

HEADINGS = st.one_of(
    st.floats(-math.pi, math.pi, exclude_max=True),
    st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, -math.pi]))
COORDS = st.floats(-8.0, 8.0)
TINY = st.floats(-1e-6, 1e-6)

RANDOM_GOALS = st.tuples(COORDS, COORDS, HEADINGS)
# lateral offsets of at most 1e-3 radii, where arcs nearly cancel
NEAR_LATERAL_GOALS = st.tuples(COORDS, st.floats(-1e-3, 1e-3), HEADINGS)
AXIS_GOALS = st.one_of(st.tuples(COORDS, st.just(0.0), HEADINGS),
                       st.tuples(st.just(0.0), COORDS, HEADINGS))
TINY_GOALS = st.tuples(TINY, TINY, st.one_of(TINY, HEADINGS))
GOALS = st.one_of(RANDOM_GOALS, NEAR_LATERAL_GOALS, AXIS_GOALS, TINY_GOALS)
# the values where frames and validity regions meet: their circles'
# centres and radii 2, 4 and 6 apart
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0, math.pi / 2,
           -math.pi / 2, math.pi, -math.pi, 1e-12, -1e-12]


def _assert_same_as_reference(goal):
    assert rs.shortest_word(*goal) == reference_shortest_word(*goal), goal


@settings(max_examples=400)
@given(RANDOM_GOALS)
def test_shortest_word_matches_the_frozen_search_on_random_goals(goal):
    _assert_same_as_reference(goal)


@settings(max_examples=400)
@given(NEAR_LATERAL_GOALS)
def test_shortest_word_matches_the_frozen_search_on_near_lateral_goals(goal):
    _assert_same_as_reference(goal)


@settings(max_examples=300)
@given(AXIS_GOALS)
def test_shortest_word_matches_the_frozen_search_on_axis_goals(goal):
    _assert_same_as_reference(goal)


@settings(max_examples=300)
@given(TINY_GOALS)
def test_shortest_word_matches_the_frozen_search_on_tiny_goals(goal):
    _assert_same_as_reference(goal)


def test_shortest_word_matches_the_frozen_search_on_a_goal_grid():
    # exact grid points, where equal-length words are common
    for i in range(-6, 7):
        for j in range(-6, 7):
            for k in range(-4, 4):
                _assert_same_as_reference((0.5 * i, 0.5 * j,
                                           math.pi * k / 4))


def test_shortest_word_matches_the_frozen_search_on_signed_zeros():
    # a zero of either sign in each component, the others from the values
    # where the families' frames and validity regions meet
    for a in SPECIAL:
        for b in SPECIAL:
            for zero in (0.0, -0.0):
                for goal in [(zero, a, b), (a, zero, b), (a, b, zero)]:
                    _assert_same_as_reference(goal)


def test_shortest_word_of_the_origin_is_empty():
    assert rs.shortest_word(0.0, 0.0, 0.0) == []


def test_shortest_word_without_a_valid_word_raises():
    nan = float("nan")
    for goal in [(nan, 0.0, 0.0), (0.0, nan, 0.0), (1.0, 1.0, nan)]:
        try:
            rs.shortest_word(*goal)
        except RuntimeError as err:
            assert "no valid word" in str(err)
        else:
            raise AssertionError(f"no error for {goal}")


def _cc_c_degenerate(x, y, phi):
    # C C|C takes asin(2 sin(u) / rho) near 1 as its rho -> 0, so its word
    # misses the goal there; shortest_word's validation drops such words
    return math.hypot(x - math.sin(phi), y - 1.0 + math.cos(phi)) < 1e-3


def _unfiltered_word(family, params, flip, mirror):
    # the family's word with its elements of at most _EPS kept
    word = []
    for param, (steering, gear) in zip(params, rs._SHAPES[family]):
        if param < 0:
            param, gear = -param, -gear
        word.append((param, -steering if mirror else steering,
                     -gear if flip else gear))
    return word


@settings(max_examples=300)
@given(GOALS)
def test_every_family_word_lands_on_its_goal(goal):
    # the words as the families give them: dropping the elements of at most
    # _EPS, as shortest_word does, can move the end by more than _EPS, and
    # shortest_word validates the words after that
    x, y, phi = goal
    for vx, vy, vphi, flip, mirror in _variants(x, y, phi):
        for family, params in rs._family_params(vx, vy, vphi):
            if family == 4 and _cc_c_degenerate(vx, vy, vphi):
                continue
            word = _unfiltered_word(family, params, flip, mirror)
            assert rs._lands_on(word, x, y, phi), (family, flip, mirror)


def _clear_of_tolerance(goal):
    # components within 1e-6 of zero set to zero: a goal within _EPS of
    # its mirror image (such as heading 1e-9) may land on one side only
    return tuple(v if abs(v) >= 1e-6 else 0.0 for v in goal)


@settings(max_examples=300)
@given(GOALS.map(_clear_of_tolerance))
def test_shortest_length_is_invariant_under_timeflip_and_reflect(goal):
    x, y, phi = goal
    word = rs.shortest_word(x, y, phi)
    assert rs._lands_on(word, x, y, phi)
    for image in [(-x, y, -phi), (x, -y, -phi), (-x, -y, phi)]:
        assert math.isclose(rs.word_length(rs.shortest_word(*image)),
                            rs.word_length(word), rel_tol=1e-12,
                            abs_tol=1e-12), image


# --- the steer word memo ----------------------------------------------------

CAR = dyn.make_model({"model": "reeds_shepp", "r_min": 0.5, "c_pi": 1.5})


def test_memoized_steer_keeps_goals_apart_by_the_sign_of_a_zero():
    # from the origin facing +x, these goals' canonical frames differ only
    # in the sign of a zero: y is dy - dx * 0.0, x is dx + dy * 0.0
    start = (0.0, 0.0, 0.0)
    goals = [(1.0, 0.0, 0.5), (1.0, -0.0, 0.5),
             (0.0, -1.0, 0.5), (-0.0, -1.0, 0.5)]
    words = {}
    for goal in goals + goals:
        memo = dyn.steer(CAR, start, goal, words)
        assert memo.segments == dyn.steer(CAR, start, goal).segments
        assert memo.start == dyn.steer(CAR, start, goal).start
    assert len(words) == len(goals)


@settings(max_examples=200)
@given(st.tuples(COORDS, COORDS, HEADINGS), st.tuples(COORDS, COORDS,
                                                       HEADINGS))
def test_memoized_steer_matches_steer(q0, q1):
    words = {}
    first = dyn.steer(CAR, q0, q1, words)
    again = dyn.steer(CAR, q0, q1, words)
    plain = dyn.steer(CAR, q0, q1)
    assert first == again == plain
    assert len(words) == 1
