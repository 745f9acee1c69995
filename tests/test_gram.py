import math

import mpmath
import numpy as np
import pytest

from hermspec import (
    BasisIndexSet,
    GramMatrix,
    HermiteVector,
    InputError,
    QuadratureRule,
    Region,
    SensorSet,
    eval_phi,
    gram_fullspace_weighted,
    gram_over_set,
    norm2_over_set,
    scaling_identity_check,
)
from hermspec.gram import MAX_NODES, region_quadrature
from hermspec.rng import SplitMix64


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
            col *= np.array([eval_phi(alpha[j], t) for t in pts[:, j]])
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
            table[:, i] *= eval_phi(alpha[j], pts[:, j])
    return table.T @ (wts[:, None] * table)


def test_ball_gram_offcenter_2d_against_polar_oracle():
    basis = BasisIndexSet(2, 2)
    for center, r in (((0.7, -0.4), 1.1), ((-1.3, 0.9), 0.45), ((0.2, 1.6), 2.5)):
        G = gram_over_set(basis, SensorSet((Region.ball(center, r),)))
        assert np.max(np.abs(G.entries - polar_disc_gram(basis, center, r))) < 1e-12


def test_ball_quadrature_1d_is_interval_quadrature():
    for rule in (QuadratureRule(), QuadratureRule(nodes=7), QuadratureRule(nodes=48)):
        pb, wb = region_quadrature(Region.ball((1.2,), 0.7), rule)
        pi, wi = region_quadrature(Region.box((1.2,), (0.7,)), rule)
        assert pb.shape == pi.shape and pb.tobytes() == pi.tobytes()
        assert wb.tobytes() == wi.tobytes()


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
    assert G.symmetry_defect() == 0.0
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


def test_gram_csv_round_trip():
    basis = BasisIndexSet(1, 3)
    G = gram_over_set(basis, SensorSet((Region.interval(0, 1),)))
    back = GramMatrix.from_csv(G.to_csv(), basis)
    assert np.array_equal(back.entries, G.entries)


def test_norm2_over_set_matches_quadratic_form():
    basis = BasisIndexSet(1, 6)
    rng = SplitMix64(23)
    f = HermiteVector(basis, rng.unit_coeffs(basis.size))
    S = SensorSet((Region.interval(-1.0, 2.0),))
    G = gram_over_set(basis, S)
    assert norm2_over_set(f, S) == pytest.approx(G.quadratic_form(f.coeffs), rel=1e-12)


def test_scaling_identity():
    basis = BasisIndexSet(1, 4)
    rng = SplitMix64(29)
    f = HermiteVector(basis, rng.unit_coeffs(basis.size))
    S = SensorSet((Region.interval(-0.5, 1.5),))
    for t in (0.3, 1.0, 7.5):
        lhs, rhs, diff = scaling_identity_check(f, S, t)
        assert diff < 1e-10
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_quadrature_rule_validation():
    with pytest.raises(InputError):
        QuadratureRule(nodes=0)
    with pytest.raises(InputError):
        QuadratureRule(nodes=MAX_NODES + 1)
    QuadratureRule(nodes=MAX_NODES)
    with pytest.raises(InputError):
        QuadratureRule(tol=-1.0)
