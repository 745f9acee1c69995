import math
import tracemalloc
from functools import partial

import mpmath
import numpy as np
import pytest

from hermspec import (
    BasisIndexSet,
    CubeDensitySpec,
    GramMatrix,
    HermiteVector,
    InputError,
    Region,
    SensorSet,
    eval_phi_table,
    example_finite_measure_set,
    gram_fullspace_weighted,
    gram_over_set,
    scaling_identity_check,
    spectral_constant,
)
from hermspec.geometry import halfline_window
from hermspec import gram
from hermspec.gram import (MAX_PANELS, MAX_RULE_POINTS, PANEL_MAX, QR_BLOCK_ROWS,
                           _ball_chords, _ball_rows, _hermgauss, _interval_moments, _leggauss,
                           _set_factor, region_quadrature, region_triangles)
from hermspec.rng import SplitMix64
from mpmath_reference import mpmath_gram
from reference_loops import ball_points_loop, ball_rows_loop, joined, set_factor_loop


def gram_entry_oracle(a, b, lo, hi):
    """High-precision 1D Gram entry over [lo, hi] via adaptive quadrature."""
    with mpmath.workdps(40):
        def phi(k, t):
            h = mpmath.hermite(k, t)
            norm = mpmath.sqrt(2 ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
            return h / norm * mpmath.e ** (-t ** 2 / 2)

        return float(mpmath.quad(lambda t: phi(a, t) * phi(b, t), [lo, hi]))


def test_interval_gram_against_mpmath():
    basis = BasisIndexSet(1, 5)
    S = SensorSet((Region.interval(-0.7, 1.9),))
    G = gram_over_set(basis, S)
    for a in range(6):
        for b in range(a, 6):
            assert G.entries[a, b] == pytest.approx(
                gram_entry_oracle(a, b, -0.7, 1.9), abs=1e-12
            )


@pytest.mark.parametrize("a, b, N, rows", [
    (-0.7, 1.9, 40, None), (0.3, 2.0, 40, None), (-3.0, -1.0, 40, None), (30.0, 40.0, 40, None),
    (0.5, 0.5 + 1e-6, 40, None), (-7.0, 2.5, 160, [160])])
def test_interval_moments_against_mpmath(a, b, N, rows):
    # straddling 0, a >= 0, b <= 0, far out, a width of 1e-6, and the last row at N = 160
    M = _interval_moments(N, np.array([a]), np.array([b]))[0]
    with mpmath.workdps(250):
        exact = np.array(mpmath_gram([(a, b)], N, rows).tolist(), dtype=float)
    assert np.max(np.abs((M if rows is None else M[rows]) - exact)) <= 1e-13


def test_gram_union_is_sum_of_pieces():
    basis = BasisIndexSet(1, 4)
    A = SensorSet((Region.interval(-2, -1),))
    B = SensorSet((Region.interval(0.5, 3.0),))
    AB = SensorSet((Region.interval(-2, -1), Region.interval(0.5, 3.0)))
    G = gram_over_set(basis, AB)
    assert G.entries == pytest.approx(
        gram_over_set(basis, A).entries + gram_over_set(basis, B).entries
    )


def test_box_gram_tensor_factorization_2d():
    # compare the separable fast path against a brute-force 2D tensor quadrature
    basis = BasisIndexSet(2, 3)
    S = SensorSet((Region.box((0.3, -0.2), (1.1, 0.8)),))
    G = gram_over_set(basis, S)
    x, w = np.polynomial.legendre.leggauss(80)
    gx = 0.3 + 1.1 * x
    gy = -0.2 + 0.8 * x
    wx, wy = 1.1 * w, 0.8 * w
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    W = np.outer(wx, wy)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    table = np.ones((pts.shape[0], basis.size))
    for i, alpha in enumerate(basis.indices):
        col = np.ones(pts.shape[0])
        for j in range(2):
            col *= eval_phi_table(alpha[j], pts[:, j])[:, alpha[j]]
        table[:, i] = col
    brute = table.T @ (W.ravel()[:, None] * table)
    assert G.entries == pytest.approx(brute, abs=1e-12)


def test_ball_gram_ground_state_2d():
    # int_{|x|<r} phi_0(x)^2 dx = 1 - exp(-r^2) in two dimensions
    basis = BasisIndexSet(2, 0)
    for r in (0.5, 1.5, 3.0):
        S = SensorSet((Region.ball((0.0, 0.0), r),))
        G = gram_over_set(basis, S)
        assert G.entries[0, 0] == pytest.approx(1.0 - math.exp(-r * r), abs=1e-12)


def test_ball_gram_ground_state_3d():
    # int_{|x|<r} phi_0(x)^2 dx = erf(r) - (2 r / sqrt(pi)) exp(-r^2) in three dimensions
    basis = BasisIndexSet(3, 0)
    for r in (0.5, 2.0):
        S = SensorSet((Region.ball((0.0, 0.0, 0.0), r),))
        G = gram_over_set(basis, S)
        exact = math.erf(r) - 2.0 * r / math.sqrt(math.pi) * math.exp(-r * r)
        assert G.entries[0, 0] == pytest.approx(exact, abs=1e-12)


def polar_disc_gram(basis, center, r, radial=64, angular=128):
    """Disc Gram by polar coordinates about the disc's own center.

    Gauss-Legendre in the radius and the trapezoid rule in the angle, which is
    spectrally accurate for a smooth periodic integrand.
    """
    x, w = np.polynomial.legendre.leggauss(radial)
    rho, wr = 0.5 * r * (x + 1.0), 0.5 * r * w
    phi = 2.0 * math.pi * np.arange(angular) / angular
    R, P = np.meshgrid(rho, phi, indexing="ij")
    pts = np.column_stack([(center[0] + R * np.cos(P)).ravel(),
                           (center[1] + R * np.sin(P)).ravel()])
    wts = (np.outer(wr * rho, np.full(angular, 2.0 * math.pi / angular))).ravel()
    table = np.ones((pts.shape[0], basis.size))
    for i, alpha in enumerate(basis.indices):
        for j in range(2):
            table[:, i] *= eval_phi_table(alpha[j], pts[:, j])[:, alpha[j]]
    return table.T @ (wts[:, None] * table)


def test_ball_gram_offcenter_2d_against_polar_oracle():
    basis = BasisIndexSet(2, 2)
    for center, r in (((0.7, -0.4), 1.1), ((-1.3, 0.9), 0.45), ((0.2, 1.6), 2.5)):
        G = gram_over_set(basis, SensorSet((Region.ball(center, r),)))
        assert np.max(np.abs(G.entries - polar_disc_gram(basis, center, r))) < 1e-12


def test_ball_quadrature_1d_is_interval_quadrature():
    for nodes in (64, 7, 48):
        pb, wb = region_quadrature(Region.ball((1.2,), 0.7), nodes)
        pi, wi = region_quadrature(Region.box((1.2,), (0.7,)), nodes)
        assert pb.shape == pi.shape and pb.tobytes() == pi.tobytes()
        assert wb.tobytes() == wi.tobytes()


@pytest.mark.parametrize("center, r", [
    ((1.2,), 0.7), ((0.3, -0.4), 1.3), ((0.0, 0.5), 9.0), ((0.1, 0.2, -0.3), 0.7),
    ((0.0, 1.0, 2.0), 5.5)])
def test_ball_quadrature_is_the_recursive_chord_rule(center, r):
    # the chords' points and weights, bit for bit, in d = 1, 2 and 3
    for nodes in (7, 48, 64):
        p, w = region_quadrature(Region.ball(center, r), nodes)
        p_ref, w_ref = joined(ball_points_loop(center, r, nodes))
        assert p.shape == p_ref.shape and p.tobytes() == p_ref.tobytes()
        assert w.tobytes() == w_ref.tobytes()


def test_ball_gram_offcenter_1d():
    # a 1D "ball" is the interval (c - r, c + r)
    basis = BasisIndexSet(1, 3)
    Gball = gram_over_set(basis, SensorSet((Region.ball((1.2,), 0.7),)))
    Gbox = gram_over_set(basis, SensorSet((Region.interval(0.5, 1.9),)))
    assert Gball.entries == pytest.approx(Gbox.entries, abs=1e-12)


def test_fullspace_gram_is_identity():
    basis = BasisIndexSet(2, 4)
    S = SensorSet((Region.box((0.0, 0.0), (20.0, 20.0)),))
    G = gram_over_set(basis, S)
    assert np.max(np.abs(G.entries - np.eye(basis.size))) < 1e-12


def test_empty_set_gram_is_zero():
    basis = BasisIndexSet(1, 3)
    G = gram_over_set(basis, SensorSet(()))
    assert np.all(G.entries == 0.0)


def test_gram_psd_and_symmetric():
    basis = BasisIndexSet(2, 3)
    S = SensorSet((Region.ball((0.5, 0.5), 1.0), Region.box((3.0, 0.0), (0.5, 0.5))))
    G = gram_over_set(basis, S)
    assert np.array_equal(G.entries, G.entries.T)
    vals = np.linalg.eigvalsh(G.entries)
    assert vals[0] > -1e-13


def test_weighted_gram_against_mpmath():
    # entries of int phi_a phi_b exp(2 w t^2) dt, from exact Hermite coefficients
    # and the Gaussian moments int t^k exp(-(1 - 2w) t^2) dt = Gamma((k+1)/2) (1-2w)^(-(k+1)/2)
    w = 1.0 / 64.0
    basis = BasisIndexSet(1, 4)
    Gw = gram_fullspace_weighted(basis, w)
    with mpmath.workdps(40):
        def coeffs(n):  # t^i coefficients of phi_n(t) exp(t^2 / 2)
            norm = mpmath.sqrt(2 ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
            c = [mpmath.mpf(0)] * (n + 1)
            for m in range(n // 2 + 1):
                c[n - 2 * m] = ((-1) ** m * mpmath.factorial(n) * 2 ** (n - 2 * m)
                                / (mpmath.factorial(m) * mpmath.factorial(n - 2 * m) * norm))
            return c

        s = 1 - 2 * mpmath.mpf(w)
        moment = [mpmath.gamma(mpmath.mpf(k + 1) / 2) * s ** (-mpmath.mpf(k + 1) / 2)
                  if k % 2 == 0 else 0 for k in range(9)]
        for a in range(5):
            for b in range(a, 5):
                oracle = float(sum(ca * cb * moment[i + j]
                                   for i, ca in enumerate(coeffs(a))
                                   for j, cb in enumerate(coeffs(b))))
                assert Gw.entries[a, b] == pytest.approx(oracle, abs=1e-12)


def test_weighted_gram_rejects_large_weight():
    with pytest.raises(InputError):
        gram_fullspace_weighted(BasisIndexSet(1, 2), 0.5)


def test_scaling_identity():
    basis = BasisIndexSet(1, 4)
    rng = SplitMix64(29)
    f = HermiteVector(basis, rng.unit_coeffs(basis.size))
    S = SensorSet((Region.interval(-0.5, 1.5),))
    for t in (0.3, 1.0, 7.5):
        lhs, rhs, diff = scaling_identity_check(f, S, t)
        assert diff < 1e-10
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_scaling_identity_rejects_non_finite_t():
    basis = BasisIndexSet(1, 2)
    f = HermiteVector(basis, np.ones(basis.size))
    S = SensorSet((Region.interval(-0.5, 1.5),))
    for t in (math.nan, math.inf, 0.0):
        with pytest.raises(InputError):
            scaling_identity_check(f, S, t)


def test_cached_gauss_rules_are_read_only():
    for rule in (_leggauss(100), _hermgauss(7)):
        for a in rule:
            with pytest.raises(ValueError):
                a[0] = 0.0
            with pytest.raises(ValueError):
                a *= 2.0
    x, w = _leggauss(100)
    assert np.array_equal(x, np.polynomial.legendre.leggauss(100)[0])
    assert w.sum() == pytest.approx(2.0, rel=1e-14)


def _lattice_169():
    """The d = 2 finite-measure set with |k|_inf <= 6: 169 shrunken unit cubes."""
    S = example_finite_measure_set(CubeDensitySpec(0.6, 0.5, 1.0, 2), 10, 6.5)
    return S


FACTOR_CASES = {
    "d1_intervals": lambda: (BasisIndexSet(1, 12), SensorSet((
        Region.interval(-3.0, -0.5), Region.interval(0.2, 1.1), Region.interval(1.5, 4.0)))),
    "d2_boxes": lambda: (BasisIndexSet(2, 8), SensorSet((
        Region.box((-1.0, 0.2), (0.8, 1.5)), Region.box((1.2, -0.3), (0.4, 2.0))))),
    "d3_boxes": lambda: (BasisIndexSet(3, 5), SensorSet((
        Region.box((0.0, 0.0, 0.0), (1.0, 1.5, 0.7)), Region.box((2.0, 0.5, 0.0), (0.5, 0.5, 2.0)),
        Region.box((-2.1, 0.0, 0.3), (0.9, 1.2, 1.8))))),
    "halfline_N19": lambda: (BasisIndexSet(1, 19), halfline_window(19)),
    "lattice_169_N10": lambda: (BasisIndexSet(2, 10), _lattice_169()),
    "box_beside_disc": lambda: (BasisIndexSet(2, 4), SensorSet((
        Region.ball((0.3, -0.2), 0.9), Region.box((1.9, 0.1), (0.7, 0.5))))),
    "ten_boxes_N10": lambda: (BasisIndexSet(2, 10), SensorSet(tuple(
        Region.box((-3.6 + 0.8 * i, 0.5), (0.35, 1.5)) for i in range(10)))),
}


@pytest.mark.parametrize("case", sorted(FACTOR_CASES))
def test_batched_box_factor_matches_per_box_loop(case):
    basis, S = FACTOR_CASES[case]()
    for nodes in (64, 128):
        R = _set_factor(basis, S.regions, nodes)
        R_ref = set_factor_loop(basis, S, nodes)
        G, G_ref = R.T @ R, R_ref.T @ R_ref
        assert np.max(np.abs(G - G_ref)) <= 1e-14 * np.max(np.abs(G_ref))
        lam, _ = spectral_constant(GramMatrix(basis, G, R))
        lam_ref, _ = spectral_constant(GramMatrix(basis, G_ref, R_ref))
        assert lam == pytest.approx(lam_ref, rel=1e-12)


def test_factor_cases_reach_the_block_edges():
    # the halfline's axis table is taller than one QR block, and ten boxes of
    # n = 66 fill one chunk of QR_BLOCK_ROWS // n = 7 boxes and part of another
    basis, S = FACTOR_CASES["halfline_N19"]()
    (length,) = S.regions[0].side_lengths()
    assert math.ceil(length / PANEL_MAX) * 64 > QR_BLOCK_ROWS
    basis, S = FACTOR_CASES["ten_boxes_N10"]()
    assert len(S.regions) % (QR_BLOCK_ROWS // basis.size) != 0


BALL_CASES = {
    "d2_disc": lambda: (BasisIndexSet(2, 6), Region.ball((0.3, -0.2), 1.1)),
    "d2_two_panel_chords": lambda: (BasisIndexSet(2, 4), Region.ball((-0.5, 1.0), 3.0)),
    "d3_ball": lambda: (BasisIndexSet(3, 3), Region.ball((0.2, -0.1, 0.3), 0.8)),
    "d3_two_panel_chords": lambda: (BasisIndexSet(3, 2), Region.ball((0.0, 0.4, -0.2), 2.5)),
}


@pytest.mark.parametrize("nodes, chords", [(7, 5), (64, 15)])
@pytest.mark.parametrize("case", sorted(BALL_CASES))
def test_chord_factor_matches_point_rows(case, nodes, chords, monkeypatch):
    # N + 1 rows per chord against one row per rule point, at the default chunk
    # budget and at `chords` single-panel chords a chunk, which no chord count
    # here (7, 49, 64, 4096) fills evenly.  The point rows are summed in extended
    # precision: folded by QR, they carry 1.6e-14 of their own at d = 3 and 64 nodes.
    basis, ball = BALL_CASES[case]()
    wide = [F.astype(np.longdouble) for F in ball_rows_loop(basis, ball, nodes)]
    G_ref = sum(F.T @ F for F in wide).astype(float)
    for budget in (gram.CHORD_POINTS, chords * nodes):
        monkeypatch.setattr(gram, "CHORD_POINTS", budget)
        R = _set_factor(basis, [ball], nodes)
        assert np.max(np.abs(R.T @ R - G_ref)) <= 1e-14 * np.max(np.abs(G_ref))


def test_chord_chunks_are_bounded_by_rule_points():
    # the wide disc's 64 chords, some of two panels, hold more rule points than
    # one chunk; no chunk holds more than CHORD_POINTS plus one chord's points
    basis, ball = BALL_CASES["d2_two_panel_chords"]()
    m = basis.max_degree + 1
    _, _, a, b = _ball_chords(ball.center, ball.radius, 64)
    points = 64 * np.ceil((b - a) / PANEL_MAX)
    counts = [len(F) // m for F in _ball_rows(basis, ball, 64)]
    assert len(counts) > 1 and sum(counts) == 64 and points.max() == 128
    edges = np.cumsum([0] + counts)
    for s, e in zip(edges[:-1], edges[1:]):
        assert points[s:e].sum() <= gram.CHORD_POINTS + points.max()


def test_1d_ball_rows_are_its_interval_triangle():
    basis = BasisIndexSet(1, 5)
    (F,) = _ball_rows(basis, Region.ball((1.2,), 0.7), 64)
    (B,) = next(gram._box_products(basis, [Region.box((1.2,), (0.7,))],
                                   partial(gram._axis_triangles, nodes=64)))
    assert F.tobytes() == B.tobytes()


@pytest.mark.parametrize("region", [
    Region.ball((0.0,), 1e15), Region.box((0.0,), (1e15,)), Region.ball((0.0, 0.0), 1e15),
    Region.box((0.0, 3.0), (1.0, 1e15)), Region.box((0.0,), (1e308,)),
    Region.ball((0.0, 0.0), (MAX_PANELS * PANEL_MAX + 1.0) / 2.0),
])
def test_huge_region_is_refused_before_allocation(region):
    # the Gram, the cell triangles and the point rule all refuse it, holding under 1 MB meanwhile
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=rf"^{region.kind} \(.*panels per axis"):
            gram_over_set(BasisIndexSet(region.dimension, 2), SensorSet((region,)))
        with pytest.raises(InputError, match=rf"^{region.kind} \(.*panels per axis"):
            region_triangles(BasisIndexSet(region.dimension, 2), [region], 64)
        with pytest.raises(InputError, match=rf"^{region.kind} \(.*panels per axis"):
            region_quadrature(region, 64)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_region_quadrature_refuses_too_many_points():
    # 500 panels a side is inside the panel cap, but 64^2 * 500^2 points are not
    box = Region.box((0.0, 0.0), (1000.0, 1000.0))
    with pytest.raises(InputError, match=rf"cap of {MAX_RULE_POINTS} points"):
        region_quadrature(box, 64)
    x, _ = region_quadrature(Region.interval(0.0, MAX_PANELS * PANEL_MAX), 64)  # at the panel cap
    assert x.shape == (MAX_PANELS * 64, 1)
    # box-queries' longest box, the half-line window at N = 20, has 74 panels
    (length,) = halfline_window(20).regions[0].side_lengths()
    assert math.ceil(length / PANEL_MAX) == 74 and 74 * 10 < MAX_PANELS


def _gram_peak(basis, S):
    gram_over_set(basis, S)  # warm the cached rules and index maps
    tracemalloc.start()
    try:
        gram_over_set(basis, S)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_box_gram_memory_stays_off_whole_tables():
    # The per-box path peaked at 3.2 MB on the halfline (its whole 9,216-row
    # axis table at 128 nodes) and at 0.34 MB on the lattice.  Streaming 512
    # rows at a time keeps the halfline near 0.5 MB; the lattice holds one
    # chunk of 7 boxes' triangles (about 0.8 MB), where all 169 at once would
    # hold 5.9 MB.
    assert _gram_peak(BasisIndexSet(1, 19), halfline_window(19)) < 2 ** 20
    assert _gram_peak(BasisIndexSet(2, 10), _lattice_169()) < 1.5 * 2 ** 20


def test_ball_gram_memory_is_bounded_by_chunks():
    # The point-row path peaked at 15.4 MB on the 3-D ball and 3.06 MB on the
    # wide disc; chunks of CHORD_POINTS rule points keep both well below.
    assert _gram_peak(BasisIndexSet(3, 4), SensorSet((Region.ball((0.0,) * 3, 0.7),))) < 4 * 2 ** 20
    assert _gram_peak(BasisIndexSet(2, 4), SensorSet((Region.ball((0.0,) * 2, 25.0),))) \
        < 3.1 * 2 ** 20
