"""Identities the mathematics guarantees, checked on d = 1 intervals with N <= 8.

Each property compares Grams built from different region splits, so a
quadrature that depended on where a set is cut would break it.  Examples are
derandomized, so the suite is deterministic.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from hermspec import BasisIndexSet, Region, SensorSet, gram_over_set, spectral_constant
from hermspec.geometry import fullspace_window

examples = settings(derandomize=True, database=None, deadline=None, max_examples=20)
degrees = st.integers(min_value=0, max_value=8)
points = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)


def gram(N, *intervals):
    S = SensorSet(tuple(Region.interval(a, b) for a, b in intervals))
    return gram_over_set(BasisIndexSet(1, N), S).entries


@examples
@given(N=degrees, cuts=st.lists(points, min_size=3, max_size=3, unique=True))
def test_grams_add_over_a_split(N, cuts):
    a, c, b = sorted(cuts)
    assume(min(c - a, b - c) > 1e-3)
    split = gram(N, (a, c)) + gram(N, (c, b))
    assert np.max(np.abs(gram(N, (a, b)) - split)) <= 1e-11


@examples
@given(N=degrees, cuts=st.lists(points, min_size=2, max_size=2, unique=True))
def test_three_pieces_of_the_window_sum_to_identity(N, cuts):
    a, b = sorted(cuts)
    assume(b - a > 1e-3)
    W = fullspace_window(1, N).regions[0].half_sides[0]
    total = gram(N, (-W, a)) + gram(N, (a, b)) + gram(N, (b, W))
    assert np.max(np.abs(total - np.eye(N + 1))) <= 1e-10


@examples
@given(N=degrees, cuts=st.lists(points, min_size=4, max_size=4, unique=True))
def test_lam_min_is_monotone_under_inclusion(N, cuts):
    outer_a, a, b, outer_b = sorted(cuts)
    assume(b - a > 1e-3)
    basis = BasisIndexSet(1, N)
    inner, _ = spectral_constant(gram_over_set(basis, SensorSet((Region.interval(a, b),))))
    outer, _ = spectral_constant(
        gram_over_set(basis, SensorSet((Region.interval(outer_a, outer_b),))))
    assert inner <= outer + 1e-14


@examples
@given(N=degrees, center=points, radius=st.floats(min_value=1e-3, max_value=6.0))
def test_1d_ball_gram_is_its_interval_gram(N, center, radius):
    basis = BasisIndexSet(1, N)
    ball = gram_over_set(basis, SensorSet((Region.ball((center,), radius),)))
    box = gram_over_set(basis, SensorSet((Region.box((center,), (radius,)),)))
    assert ball.entries.tobytes() == box.entries.tobytes()
