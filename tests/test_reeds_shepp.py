"""Reeds-Shepp words: the lazy shortest_word against the eager one it
replaced, the families' words and the symmetries of the shortest length.

reference_candidate_words and reference_shortest_word are the module as it
was before shortest_word validated its candidates lazily: every family and
variant integrated, then the first word of least length taken. The lazy
version must return the same word, not just one as short.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from dstsp_lab import reeds_shepp as rs


def reference_candidate_words(x, y, phi):
    variants = (
        (x, y, phi, None),
        (-x, y, -phi, "timeflip"),
        (x, -y, -phi, "reflect"),
        (-x, -y, phi, "both"),
    )
    words = []
    for family in rs._FAMILIES:
        for vx, vy, vphi, transform in variants:
            word = family(vx, vy, vphi)
            if word is None:
                continue
            if transform in ("timeflip", "both"):
                word = rs._timeflip(word)
            if transform in ("reflect", "both"):
                word = rs._reflect(word)
            word = [e for e in word if e[0] > rs._EPS]
            if rs._lands_on(word, x, y, phi):
                words.append(word)
    return words


def reference_shortest_word(x, y, phi):
    words = reference_candidate_words(x, y, phi)
    if not words:
        raise RuntimeError("no valid word")
    return min(words, key=rs.word_length)


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


def _assert_same_as_reference(goal):
    got = rs.shortest_word(*goal)
    want = reference_shortest_word(*goal)
    assert got == want
    assert rs.word_length(got) == rs.word_length(want)


@settings(max_examples=400)
@given(RANDOM_GOALS)
def test_lazy_shortest_word_matches_eager_on_random_goals(goal):
    _assert_same_as_reference(goal)


@settings(max_examples=400)
@given(NEAR_LATERAL_GOALS)
def test_lazy_shortest_word_matches_eager_on_near_lateral_goals(goal):
    _assert_same_as_reference(goal)


@settings(max_examples=300)
@given(AXIS_GOALS)
def test_lazy_shortest_word_matches_eager_on_axis_goals(goal):
    _assert_same_as_reference(goal)


@settings(max_examples=300)
@given(TINY_GOALS)
def test_lazy_shortest_word_matches_eager_on_tiny_goals(goal):
    _assert_same_as_reference(goal)


def test_lazy_shortest_word_matches_eager_on_a_goal_grid():
    # exact grid points, where equal-length words are common
    for i in range(-6, 7):
        for j in range(-6, 7):
            for k in range(-4, 4):
                _assert_same_as_reference((0.5 * i, 0.5 * j,
                                           math.pi * k / 4))


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
    # _cc_c takes asin(2 sin(u) / rho) near 1 as its rho -> 0, so its word
    # misses the goal there; shortest_word's validation drops such words
    return math.hypot(x - math.sin(phi), y - 1.0 + math.cos(phi)) < 1e-3


@settings(max_examples=300)
@given(GOALS)
def test_every_family_word_lands_on_its_goal(goal):
    # the words as the families give them: dropping the elements of at most
    # _EPS, as shortest_word does, can move the end by more than _EPS, and
    # shortest_word validates the words after that
    x, y, phi = goal
    variants = ((x, y, phi, False, False), (-x, y, -phi, True, False),
                (x, -y, -phi, False, True), (-x, -y, phi, True, True))
    for family in rs._FAMILIES:
        for vx, vy, vphi, flip, mirror in variants:
            word = family(vx, vy, vphi)
            if word is None or (family is rs._cc_c
                                and _cc_c_degenerate(vx, vy, vphi)):
                continue
            if flip:
                word = rs._timeflip(word)
            if mirror:
                word = rs._reflect(word)
            assert rs._lands_on(word, x, y, phi), (family.__name__, flip,
                                                   mirror)


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
