"""Identities the mathematics guarantees, on d = 1 intervals with N <= 20, d = 1, 2, 3 box
unions, d = 2 disc unions and d = 3 balls.

Most d = 1 properties compare Grams built from different region splits, so a
quadrature that depended on where a set is cut would break it; one bounds
lam_min to (0, 1], which must hold however far below machine epsilon the
constant falls.  Box unions in d = 1, 2 and 3 are checked for symmetry,
PSD-ness and lam_min in (0, 1], and to 1e-13 against closed-form moments
built from scipy's erf; disc unions the same way against a polar-coordinate
rule about each disc's own center, and 3-D balls for symmetry, PSD-ness and
lam_min.  Examples are derandomized, so the suite is deterministic.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from scipy.special import erf

from hermspec import BasisIndexSet, Region, SensorSet, gram_over_set, spectral_constant
from hermspec.geometry import fullspace_window
from test_gram import polar_disc_gram

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
@given(N=st.integers(min_value=0, max_value=20),
       cuts=st.lists(points, min_size=2, max_size=6, unique=True))
def test_lam_min_lies_in_the_unit_interval(N, cuts):
    # consecutive pairs of sorted cuts are the intervals of a disjoint union
    cuts = sorted(cuts)[: len(cuts) // 2 * 2]
    assume(min(b - a for a, b in zip(cuts, cuts[1:])) > 1e-3)
    S = SensorSet(tuple(Region.interval(a, b) for a, b in zip(cuts[::2], cuts[1::2])))
    lam, _ = spectral_constant(gram_over_set(BasisIndexSet(1, N), S))
    assert 0.0 < lam <= 1.0 + 1e-12


@examples
@given(N=degrees, center=points, radius=st.floats(min_value=1e-3, max_value=6.0))
def test_1d_ball_gram_is_its_interval_gram(N, center, radius):
    basis = BasisIndexSet(1, N)
    ball = gram_over_set(basis, SensorSet((Region.ball((center,), radius),)))
    box = gram_over_set(basis, SensorSet((Region.box((center,), (radius,)),)))
    assert ball.entries.tobytes() == box.entries.tobytes()


def _phi_and_slope(kmax, t):
    """phi_0..phi_kmax at t and their derivatives sqrt(k/2) phi_{k-1} - sqrt((k+1)/2) phi_{k+1}."""
    p = np.empty(kmax + 2)
    p[0] = math.pi ** -0.25 * math.exp(-0.5 * t * t)
    p[1] = math.sqrt(2.0) * t * p[0]
    for k in range(1, kmax + 1):
        p[k + 1] = math.sqrt(2.0 / (k + 1)) * t * p[k] - math.sqrt(k / (k + 1.0)) * p[k - 1]
    k = np.arange(kmax + 1)
    dp = -np.sqrt((k + 1) / 2.0) * p[1:]
    dp[1:] += np.sqrt(k[1:] / 2.0) * p[:kmax]
    return p[:kmax + 1], dp


def erf_moments(kmax, a, b):
    """int_a^b phi_m phi_n in closed form, 0 <= m, n <= kmax.

    The diagonal starts from int phi_0^2 = (erf b - erf a) / 2 and steps by the
    ladder identity; off the diagonal, phi_k'' = (t^2 - 2k - 1) phi_k turns the
    integral into the Wronskian [phi_m' phi_n - phi_m phi_n'] / (2 (n - m)).
    """
    pa, da = _phi_and_slope(kmax, a)
    pb, db = _phi_and_slope(kmax, b)
    W = (np.outer(db, pb) - np.outer(pb, db)) - (np.outer(da, pa) - np.outer(pa, da))
    k = np.arange(kmax + 1)
    diff = 2.0 * (k[None, :] - k[:, None])
    M = np.where(diff != 0, W / np.where(diff != 0, diff, 1.0), 0.0)
    M[0, 0] = 0.5 * (erf(b) - erf(a))
    for n in range(1, kmax + 1):
        M[n, n] = M[n - 1, n - 1] - (pb[n - 1] * pb[n] - pa[n - 1] * pa[n]) / math.sqrt(2.0 * n)
    return M


@st.composite
def box_unions(draw, d):
    """1-4 boxes in [-4, 4]^d, one per slab of axis 0, so they are disjoint."""
    k = draw(st.integers(min_value=1, max_value=4))
    edges = np.linspace(-4.0, 4.0, k + 1)
    boxes = []
    for i in range(k):
        spans = [sorted(draw(st.lists(st.floats(min_value=lo, max_value=hi), min_size=2,
                                      max_size=2, unique=True)))
                 for lo, hi in [(edges[i], edges[i + 1])] + [(-4.0, 4.0)] * (d - 1)]
        assume(min(b - a for a, b in spans) > 1e-2)
        boxes.append(Region.box([(a + b) / 2.0 for a, b in spans],
                                [(b - a) / 2.0 for a, b in spans]))
    return SensorSet(tuple(boxes))


def _box_union_cases(d, n_max):
    return given(N=st.integers(min_value=0, max_value=n_max), S=box_unions(d))


@examples
@_box_union_cases(1, 20)
def test_box_union_gram_1d(N, S):
    _check_box_union(N, S)


@examples
@_box_union_cases(2, 8)
def test_box_union_gram_2d(N, S):
    _check_box_union(N, S)


@examples
@_box_union_cases(3, 5)
def test_box_union_gram_3d(N, S):
    _check_box_union(N, S)


def _check_symmetric_psd_unit_lam(G):
    assert np.array_equal(G.entries, G.entries.T)
    assert np.linalg.eigvalsh(G.entries)[0] >= -1e-14 * np.max(np.abs(G.entries))
    lam, _ = spectral_constant(G)
    assert 0.0 < lam <= 1.0 + 1e-12


def _check_box_union(N, S):
    basis = BasisIndexSet(S.dimension, N)
    G = gram_over_set(basis, S)
    _check_symmetric_psd_unit_lam(G)
    alph = np.asarray(basis.indices)
    oracle = np.zeros_like(G.entries)
    for box in S.regions:
        part = np.ones_like(oracle)
        for j, (c, h) in enumerate(zip(box.center, box.half_sides)):
            part *= erf_moments(N, c - h, c + h)[np.ix_(alph[:, j], alph[:, j])]
        oracle += part
    assert np.max(np.abs(G.entries - oracle)) <= 1e-13


@st.composite
def disc_unions(draw):
    """One disc in [-2.5, 2.5]^2, or two whose gap is at least 0.05."""
    coord = st.floats(min_value=-2.5, max_value=2.5)
    radius = st.floats(min_value=0.2, max_value=1.5)
    discs = [Region.ball((draw(coord), draw(coord)), draw(radius))]
    if draw(st.booleans()):
        r, angle = draw(radius), draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        dist = discs[0].radius + r + draw(st.floats(min_value=0.05, max_value=1.0))
        c = discs[0].center
        discs.append(Region.ball((c[0] + dist * math.cos(angle), c[1] + dist * math.sin(angle)), r))
    return SensorSet(tuple(discs))


@examples
@given(N=st.integers(min_value=0, max_value=4), S=disc_unions())
def test_disc_union_gram_2d(N, S):
    basis = BasisIndexSet(2, N)
    G = gram_over_set(basis, S)
    _check_symmetric_psd_unit_lam(G)
    oracle = sum(polar_disc_gram(basis, disc.center, disc.radius) for disc in S.regions)
    assert np.max(np.abs(G.entries - oracle)) <= 1e-12


@settings(examples, max_examples=10)  # a 3-D ball Gram takes about 0.06 s
@given(N=st.integers(min_value=0, max_value=3),
       center=st.tuples(*[st.floats(min_value=-1.5, max_value=1.5)] * 3),
       radius=st.floats(min_value=0.2, max_value=1.5))
def test_ball_gram_3d(N, center, radius):
    G = gram_over_set(BasisIndexSet(3, N), SensorSet((Region.ball(center, radius),)))
    _check_symmetric_psd_unit_lam(G)
