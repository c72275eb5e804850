"""Shortest bidirectional-car words between planar configurations.

Classic closed-form families for a unit-turning-radius car that drives both
forwards and backwards at unit speed. Each family is produced in a canonical
frame (start at the origin facing +x, goal scaled by the turning radius) and
expanded through the timeflip/reflect symmetries into the full word set.
shortest_word prices every candidate, then re-integrates them in closed form,
shortest first, and returns the first that lands on the goal: a formula glitch
can never corrupt the minimum, and the words longer than the answer are never
integrated.

A word element is (param, steering, gear): param >= 0 is the arc angle (turns)
or normalized length (straights), steering is +1 left / 0 straight / -1 right,
gear is +1 forward / -1 backward.
"""

import math

_TWO_PI = 2.0 * math.pi
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


def _el(param, steering, gear):
    # negative params flip gear, matching the source formulas' convention
    if param < 0:
        return (-param, steering, -gear)
    return (param, steering, gear)


# Each family returns a list of elements or None when the goal is outside its
# validity region. L = steering +1, R = -1, S = 0; F = gear +1, B = -1.

def _csc_same(x, y, phi):
    u, t = polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    v = wrap_pi(phi - t)
    return [_el(t, 1, 1), _el(u, 0, 1), _el(v, 1, 1)]


def _csc_opposite(x, y, phi):
    rho, t1 = polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho * rho < 4.0:
        return None
    u = math.sqrt(rho * rho - 4.0)
    t = wrap_pi(t1 + math.atan2(2.0, u))
    v = wrap_pi(t - phi)
    return [_el(t, 1, 1), _el(u, 0, 1), _el(v, -1, 1)]


def _c_c_c(x, y, phi):
    rho, theta = polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if rho > 4.0:
        return None
    a = _clamped_acos(rho / 4.0)
    t = wrap_pi(theta + math.pi / 2.0 + a)
    u = wrap_pi(math.pi - 2.0 * a)
    v = wrap_pi(phi - t - u)
    return [_el(t, 1, 1), _el(u, -1, -1), _el(v, 1, 1)]


def _c_cc(x, y, phi):
    rho, theta = polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if rho > 4.0:
        return None
    a = _clamped_acos(rho / 4.0)
    t = wrap_pi(theta + math.pi / 2.0 + a)
    u = wrap_pi(math.pi - 2.0 * a)
    v = wrap_pi(t + u - phi)
    return [_el(t, 1, 1), _el(u, -1, -1), _el(v, 1, -1)]


def _cc_c(x, y, phi):
    rho, theta = polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if rho > 4.0:
        return None
    u = _clamped_acos(1.0 - rho * rho / 8.0)
    if rho < _EPS:
        return None
    a = _clamped_asin(2.0 * math.sin(u) / rho)
    t = wrap_pi(theta + math.pi / 2.0 - a)
    v = wrap_pi(t - u - phi)
    return [_el(t, 1, 1), _el(u, -1, 1), _el(v, 1, -1)]


def _ccu_cuc(x, y, phi):
    rho, theta = polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho > 4.0:
        return None
    if rho <= 2.0:
        a = _clamped_acos((rho + 2.0) / 4.0)
        t = wrap_pi(theta + math.pi / 2.0 + a)
        u = wrap_pi(a)
    else:
        a = _clamped_acos((rho - 2.0) / 4.0)
        t = wrap_pi(theta + math.pi / 2.0 - a)
        u = wrap_pi(math.pi - a)
    v = wrap_pi(phi - t + 2.0 * u)
    return [_el(t, 1, 1), _el(u, -1, 1), _el(u, 1, -1), _el(v, -1, -1)]


def _c_cucu_c(x, y, phi):
    rho, theta = polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho > 6.0:
        return None
    u1 = (20.0 - rho * rho) / 16.0
    if u1 < 0.0 or u1 > 1.0:
        return None
    u = _clamped_acos(u1)
    if rho < _EPS:
        return None
    a = _clamped_asin(2.0 * math.sin(u) / rho)
    t = wrap_pi(theta + math.pi / 2.0 + a)
    v = wrap_pi(t - phi)
    return [_el(t, 1, 1), _el(u, -1, -1), _el(u, 1, -1), _el(v, -1, 1)]


def _c_chalfpi_sc(x, y, phi):
    rho, theta = polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if rho < 2.0:
        return None
    u = math.sqrt(rho * rho - 4.0) - 2.0
    a = math.atan2(2.0, u + 2.0)
    t = wrap_pi(theta + math.pi / 2.0 + a)
    v = wrap_pi(t - phi + math.pi / 2.0)
    return [
        _el(t, 1, 1),
        _el(math.pi / 2.0, -1, -1),
        _el(u, 0, -1),
        _el(v, 1, -1),
    ]


def _cs_chalfpi_c(x, y, phi):
    rho, theta = polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if rho < 2.0:
        return None
    u = math.sqrt(rho * rho - 4.0) - 2.0
    a = math.atan2(u + 2.0, 2.0)
    t = wrap_pi(theta + math.pi / 2.0 - a)
    v = wrap_pi(t - phi - math.pi / 2.0)
    return [
        _el(t, 1, 1),
        _el(u, 0, 1),
        _el(math.pi / 2.0, -1, 1),
        _el(v, 1, -1),
    ]


def _c_chalfpi_sc2(x, y, phi):
    rho, theta = polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho < 2.0:
        return None
    t = wrap_pi(theta + math.pi / 2.0)
    u = rho - 2.0
    v = wrap_pi(phi - t - math.pi / 2.0)
    return [
        _el(t, 1, 1),
        _el(math.pi / 2.0, -1, -1),
        _el(u, 0, -1),
        _el(v, -1, -1),
    ]


def _cs_chalfpi_c2(x, y, phi):
    rho, theta = polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho < 2.0:
        return None
    t = wrap_pi(theta)
    u = rho - 2.0
    v = wrap_pi(phi - t - math.pi / 2.0)
    return [
        _el(t, 1, 1),
        _el(u, 0, 1),
        _el(math.pi / 2.0, 1, 1),
        _el(v, -1, -1),
    ]


def _c_chalfpi_s_chalfpi_c(x, y, phi):
    rho, theta = polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho < 4.0:
        return None
    u = math.sqrt(rho * rho - 4.0) - 4.0
    a = math.atan2(2.0, u + 4.0)
    t = wrap_pi(theta + math.pi / 2.0 + a)
    v = wrap_pi(t - phi)
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
    variants = (
        (x, y, phi, False, False),
        (-x, y, -phi, True, False),     # timeflip
        (x, -y, -phi, False, True),     # reflect
        (-x, -y, phi, True, True),      # both
    )
    candidates = []
    for family in _FAMILIES:
        for vx, vy, vphi, flip, mirror in variants:
            word = family(vx, vy, vphi)
            if word is None:
                continue
            # word_length of the word without its elements of at most _EPS
            length = sum([p for p, _, _ in word if p > _EPS])
            candidates.append((length, len(candidates), word, flip, mirror))
    candidates.sort()   # by (length, generation index), which are unique
    for _, _, word, flip, mirror in candidates:
        word = [e for e in word if e[0] > _EPS]
        if flip:
            word = _timeflip(word)
        if mirror:
            word = _reflect(word)
        if _lands_on(word, x, y, phi):
            return word
    raise RuntimeError(
        f"no valid word found for goal ({x}, {y}, {phi}); "
        "this should be unreachable for the full family set"
    )
