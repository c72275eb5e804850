"""Shortest bidirectional-car words between planar configurations.

Classic closed-form families for a unit-turning-radius car that drives both
forwards and backwards at unit speed (Reeds and Shepp, 1990). Each family is
produced in a canonical frame (start at the origin facing +x, goal scaled by
the turning radius) and expanded through the timeflip/reflect symmetries
into the full word set.

shortest_word works in two passes. Pricing: per symmetry variant it
computes the goal's two circle frames once, each with its polar coordinates,
and every family's raw parameters from them (families that share terms
compute them once); a candidate's length is the sum of its parameters of
magnitude above _EPS, and no word is built. Validation: shortest first, ties
to the earlier family then variant, it builds each candidate's word,
re-integrates it in closed form and returns the first that lands on the
goal. So a formula glitch can never corrupt the minimum, and the words
longer than the answer are never built. Within one tour solve,
dynamics.steer memoizes the words by their canonical goal, so each distinct
goal is priced here once.

A word element is (param, steering, gear): param >= 0 is the arc angle (turns)
or normalized length (straights), steering is +1 left / 0 straight / -1 right,
gear is +1 forward / -1 backward.
"""

import heapq
import math

_TWO_PI = 2.0 * math.pi
_HALF_PI = math.pi / 2.0
_EPS = 1e-9


def wrap_pi(theta):
    """Reduce an angle to [-pi, pi)."""
    theta = theta % _TWO_PI
    if theta >= math.pi:
        theta -= _TWO_PI
    return theta


def polar(x, y):
    return math.hypot(x, y), math.atan2(y, x)


def _clamped_acos(v):
    return math.acos(min(1.0, max(-1.0, v)))


def _clamped_asin(v):
    return math.asin(min(1.0, max(-1.0, v)))


# The families, in tie-break order, by the (steering, gear) of their
# elements: L = steering +1, R = -1, S = 0; F = gear +1, B = -1. A negative
# raw parameter flips its element's gear.
_SHAPES = (
    ((1, 1), (0, 1), (1, 1)),                           # C S C, same turns
    ((1, 1), (0, 1), (-1, 1)),                          # C S C, opposite
    ((1, 1), (-1, -1), (1, 1)),                         # C|C|C
    ((1, 1), (-1, -1), (1, -1)),                        # C|C C
    ((1, 1), (-1, 1), (1, -1)),                         # C C|C
    ((1, 1), (-1, 1), (1, -1), (-1, -1)),               # C Cu|Cu C
    ((1, 1), (-1, -1), (1, -1), (-1, 1)),               # C|Cu Cu|C
    ((1, 1), (-1, -1), (0, -1), (1, -1)),               # C|C(pi/2) S C
    ((1, 1), (0, 1), (-1, 1), (1, -1)),                 # C S C(pi/2)|C
    ((1, 1), (-1, -1), (0, -1), (-1, -1)),              # C|C(pi/2) S C
    ((1, 1), (0, 1), (1, 1), (-1, -1)),                 # C S C(pi/2)|C
    ((1, 1), (-1, -1), (0, -1), (1, -1), (-1, 1)),      # C|C(pi/2) S C(pi/2)|C
)
_VARIANTS = 4    # as is, timeflip, reflect, both
# whether a parameter's magnitude counts towards a candidate's length
_ABOVE_EPS = _EPS.__lt__


def _family_params(x, y, phi):
    """(family, raw parameters) of every family valid at the goal
    (x, y, phi), the parameters in _SHAPES order. Families that share a
    term compute it once."""
    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)
    found = []
    # from the centre of the start's left turning circle, (0, 1), to the
    # centre of the goal's left one
    rho, theta = polar(x - sin_phi, y - 1.0 + cos_phi)
    found.append((0, (theta, rho, wrap_pi(phi - theta))))
    if rho <= 4.0:
        a = _clamped_acos(rho / 4.0)
        t = wrap_pi(theta + _HALF_PI + a)
        u = wrap_pi(math.pi - 2.0 * a)
        found.append((2, (t, u, wrap_pi(phi - t - u))))
        found.append((3, (t, u, wrap_pi(t + u - phi))))
        u = _clamped_acos(1.0 - rho * rho / 8.0)
        if rho >= _EPS:
            a = _clamped_asin(2.0 * math.sin(u) / rho)
            t = wrap_pi(theta + _HALF_PI - a)
            found.append((4, (t, u, wrap_pi(t - u - phi))))
    if rho >= 2.0:
        u = math.sqrt(rho * rho - 4.0) - 2.0
        a = math.atan2(2.0, u + 2.0)
        t = wrap_pi(theta + _HALF_PI + a)
        found.append((7, (t, _HALF_PI, u, wrap_pi(t - phi + _HALF_PI))))
        a = math.atan2(u + 2.0, 2.0)
        t = wrap_pi(theta + _HALF_PI - a)
        found.append((8, (t, u, _HALF_PI, wrap_pi(t - phi - _HALF_PI))))
    # ... and to the centre of the goal's right one
    rho, theta = polar(x + sin_phi, y - 1.0 - cos_phi)
    if rho * rho >= 4.0:
        root = math.sqrt(rho * rho - 4.0)
        t = wrap_pi(theta + math.atan2(2.0, root))
        found.append((1, (t, root, wrap_pi(t - phi))))
        if rho >= 4.0:
            u = root - 4.0
            a = math.atan2(2.0, u + 4.0)
            t = wrap_pi(theta + _HALF_PI + a)
            found.append((11, (t, _HALF_PI, u, _HALF_PI, wrap_pi(t - phi))))
    if rho <= 4.0:
        if rho <= 2.0:
            a = _clamped_acos((rho + 2.0) / 4.0)
            t = wrap_pi(theta + _HALF_PI + a)
            u = wrap_pi(a)
        else:
            a = _clamped_acos((rho - 2.0) / 4.0)
            t = wrap_pi(theta + _HALF_PI - a)
            u = wrap_pi(math.pi - a)
        found.append((5, (t, u, u, wrap_pi(phi - t + 2.0 * u))))
    if rho <= 6.0:
        u1 = (20.0 - rho * rho) / 16.0
        if 0.0 <= u1 <= 1.0 and rho >= _EPS:
            u = _clamped_acos(u1)
            a = _clamped_asin(2.0 * math.sin(u) / rho)
            t = wrap_pi(theta + _HALF_PI + a)
            found.append((6, (t, u, u, wrap_pi(t - phi))))
    if rho >= 2.0:
        u = rho - 2.0
        t = wrap_pi(theta + _HALF_PI)
        found.append((9, (t, _HALF_PI, u, wrap_pi(phi - t - _HALF_PI))))
        t = wrap_pi(theta)
        found.append((10, (t, u, _HALF_PI, wrap_pi(phi - t - _HALF_PI))))
    return found


def _word(key, params):
    """The word of a priced candidate: its elements above _EPS, gears
    flipped where a parameter is negative and for the timeflip variants,
    steering mirrored for the reflect variants."""
    family, variant = divmod(key, _VARIANTS)
    flip = -1 if variant & 1 else 1
    mirror = -1 if variant & 2 else 1
    word = []
    for param, (steering, gear) in zip(params, _SHAPES[family]):
        if param < 0:
            param, gear = -param, -gear
        if param > _EPS:
            word.append((param, mirror * steering, flip * gear))
    return word


def integrate_word(word, x=0.0, y=0.0, theta=0.0):
    """Closed-form endpoint of a word from (x, y, theta), unit radius/speed."""
    for param, steering, gear in word:
        if steering == 0:
            x += gear * param * math.cos(theta)
            y += gear * param * math.sin(theta)
        else:
            dth = gear * steering * param
            x += (math.sin(theta + dth) - math.sin(theta)) / steering
            y -= (math.cos(theta + dth) - math.cos(theta)) / steering
            theta += dth
    return x, y, theta


def _lands_on(word, x, y, phi):
    ex, ey, eth = integrate_word(word)
    return (
        abs(ex - x) <= _EPS
        and abs(ey - y) <= _EPS
        and abs(wrap_pi(eth - phi)) <= _EPS
    )


def word_length(word):
    return sum(p for p, _, _ in word)


def shortest_word(x, y, phi):
    """Minimum-length validated word to (x, y, phi) in the canonical frame.

    Ties go to the first word in family-then-variant order. Every candidate
    is priced first; they are validated shortest first, and the first that
    lands is the answer.
    """
    goals = ((x, y, phi), (-x, y, -phi), (x, -y, -phi), (-x, -y, phi))
    candidates = [
        (sum(filter(_ABOVE_EPS, map(abs, params))),
         family * _VARIANTS + variant, params)
        for variant, goal in enumerate(goals)
        for family, params in _family_params(*goal)]
    heapq.heapify(candidates)   # by (length, tie key), which are unique
    while candidates:
        _, key, params = heapq.heappop(candidates)
        word = _word(key, params)
        if _lands_on(word, x, y, phi):
            return word
    raise RuntimeError(
        f"no valid word found for goal ({x}, {y}, {phi}); "
        "this should be unreachable for the full family set"
    )
