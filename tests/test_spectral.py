import math

import mpmath
import numpy as np
import pytest
from scipy import special

from hermspec import (
    BasisIndexSet,
    GramMatrix,
    HermiteVector,
    InputError,
    Region,
    SensorSet,
    VerificationError,
    classify_cells,
    counterexample_growth,
    derivative_columns,
    derivative_multi,
    estimate_Mk,
    good_cell_Mk_bound_log,
    gram_over_set,
    jacobi_eigh,
    lattice_covering,
    mass_intersection_check,
    spectral_constant,
    spectral_report,
)
from hermspec.bounds import bernstein_CB_log, delta_choice
from hermspec.rng import SplitMix64


def test_jacobi_against_numpy_eigh():
    rng = SplitMix64(41)
    for n in (2, 5, 12, 30):
        M = np.array(rng.uniform_symmetric(n * n)).reshape(n, n)
        A = (M + M.T) / 2.0
        vals, vecs = jacobi_eigh(A)
        ref = np.linalg.eigvalsh(A)
        assert vals == pytest.approx(ref, abs=1e-11)
        # eigenvectors: orthonormal and diagonalizing
        assert vecs.T @ vecs == pytest.approx(np.eye(n), abs=1e-12)
        assert vecs.T @ A @ vecs == pytest.approx(np.diag(vals), abs=1e-10)
        # fixed signs: each vector's largest-magnitude entry is positive
        assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)] > 0)


def test_jacobi_ascending_order():
    A = np.diag([3.0, -1.0, 2.0])
    vals, _ = jacobi_eigh(A)
    assert vals.tolist() == [-1.0, 2.0, 3.0]


def mpmath_lam_min(intervals, N, dps=80):
    """lam_min of a d = 1 interval union by exact Hankel moments in mpmath.

    G = C H C^T with C the monomial coefficients of the normalized Hermite
    polynomials and H[i, j] = int_S t^(i+j) exp(-t^2) dt, each moment a
    lower incomplete gamma function.
    """
    with mpmath.workdps(dps):
        C = mpmath.zeros(N + 1, N + 1)
        for n in range(N + 1):
            norm = mpmath.sqrt(2 ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
            for m in range(n // 2 + 1):
                C[n, n - 2 * m] = ((-1) ** m * mpmath.factorial(n) * 2 ** (n - 2 * m)
                                   / (mpmath.factorial(m) * mpmath.factorial(n - 2 * m) * norm))

        def primitive(x, k):  # int_0^x t^k exp(-t^2) dt
            x = mpmath.mpf(x)
            return mpmath.sign(x) ** (k + 1) * mpmath.gammainc((k + 1) / mpmath.mpf(2), 0, x * x) / 2

        mu = [sum(primitive(b, k) - primitive(a, k) for a, b in intervals)
              for k in range(2 * N + 1)]
        H = mpmath.matrix(N + 1, N + 1)
        for i in range(N + 1):
            for j in range(N + 1):
                H[i, j] = mu[i + j]
        return float(min(mpmath.eigsy(C * H * C.T, eigvals_only=True)))


def test_lam_min_below_machine_epsilon_against_mpmath():
    S = SensorSet((Region.interval(-0.89, 0.62),))
    lam, _ = spectral_constant(gram_over_set(BasisIndexSet(1, 12), S))
    ref = mpmath_lam_min([(-0.89, 0.62)], 12)
    assert abs(lam - ref) <= 1e-5 * ref  # ref is about 8e-19


@pytest.mark.parametrize("d, N, region", [
    (1, 20, Region.interval(-0.89, 0.62)),
    (1, 30, Region.interval(-0.89, 0.62)),
    (2, 10, Region.box((0.5, -0.125), (0.4, 0.475))),  # [0.1, 0.9] x [-0.6, 0.35]
])
def test_lam_min_stays_positive_far_below_epsilon(d, N, region):
    lam, v = spectral_constant(gram_over_set(BasisIndexSet(d, N), SensorSet((region,))))
    assert lam > 0.0
    assert abs(np.linalg.norm(v) - 1.0) < 1e-13


def test_factor_and_entries_paths_agree():
    S = SensorSet((Region.interval(-2.0, 3.0), Region.interval(4.0, 6.0)))
    G = gram_over_set(BasisIndexSet(1, 5), S)
    assert np.max(np.abs(G.factor.T @ G.factor - G.entries)) <= 1e-15
    lam_f, v_f = spectral_constant(G)
    lam_e, v_e = spectral_constant(GramMatrix(G.basis, G.entries))
    assert lam_f > 1e-3
    assert abs(lam_f - lam_e) <= 1e-13
    assert np.max(np.abs(v_f - v_e)) <= 1e-13


def test_spectral_constant_analytic_2x2():
    # symmetric 2x2 with known smallest eigenvalue a - |b|
    a, b = 0.5, 1.0 / math.sqrt(2.0 * math.pi)
    G = GramMatrix(BasisIndexSet(1, 1), np.array([[a, b], [b, a]]))
    lam, v = spectral_constant(G)
    assert lam == pytest.approx(a - b, rel=1e-14)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-13


def test_spectral_constant_halfline_window():
    S = SensorSet((Region.interval(0.0, 64.0 * math.sqrt(2.0)),))
    G = gram_over_set(BasisIndexSet(1, 1), S)
    lam, _ = spectral_constant(G)
    assert lam == pytest.approx(0.5 - 1.0 / math.sqrt(2.0 * math.pi), abs=1e-10)


def test_spectral_report_fields():
    S = SensorSet((Region.interval(-1.0, 1.0),))
    rep = spectral_report(BasisIndexSet(1, 2), S)
    assert rep.N == 2 and rep.d == 1
    assert 0.0 < rep.lam_min < 1.0
    assert len(rep.set_hash) == 16
    # identical set text gives identical hash
    rep2 = spectral_report(BasisIndexSet(1, 2), SensorSet.from_text(S.to_text()))
    assert rep2.set_hash == rep.set_hash


def test_derivative_columns_norms():
    basis = BasisIndexSet(2, 3)
    rng = SplitMix64(43)
    f = HermiteVector(basis, rng.unit_coeffs(basis.size))
    columns, group = derivative_columns(f, 2)
    assert columns.shape[1] == 1 + 2 + 3  # orders 0, 1, 2 in d = 2
    assert float(np.sum(columns[:, 0] ** 2)) == pytest.approx(f.norm2())
    # 1/alpha! scaling against explicit multi-derivatives
    idx = 1
    for m in (1, 2):
        from hermspec.basis import multi_indices

        for alpha in multi_indices(2, m):
            if sum(alpha) != m:
                continue
            g = derivative_multi(f, alpha)
            fact = math.prod(math.factorial(a) for a in alpha)
            assert float(np.sum(columns[:, idx] ** 2)) == pytest.approx(
                g.norm2() / fact, rel=1e-12
            )
            idx += 1


def test_classify_cells_lattice():
    basis = BasisIndexSet(1, 6)
    cov = lattice_covering(1.0, 1, 6, kappa=1)
    rng = SplitMix64(47)
    f = HermiteVector(basis, rng.unit_coeffs(basis.size))
    cls = classify_cells(f, cov, m_max=3)
    # disjoint lattice cells covering the window capture the whole mass
    assert cls.coverage_sum == pytest.approx(cls.total_norm2, rel=1e-10)
    assert cls.delta == pytest.approx(delta_choice(1.0, 6, 1.0))
    assert 0.0 <= cls.bad_mass_fraction <= 1.0
    assert cls.far_mass_fraction <= 0.25 + 1e-8
    check = mass_intersection_check(f, cls)
    assert check.ratio >= 0.25 - 1e-8
    assert not check.degenerate


def test_classify_zero_function_degenerate():
    basis = BasisIndexSet(1, 2)
    cov = lattice_covering(1.0, 1, 2, kappa=1)
    f = HermiteVector(basis, np.zeros(basis.size))
    cls = classify_cells(f, cov, m_max=2)
    assert cls.bad_mass_fraction == 0.0
    check = mass_intersection_check(f, cls)
    assert check.degenerate


def test_mass_intersection_raises_on_empty():
    basis = BasisIndexSet(1, 2)
    cov = lattice_covering(1.0, 1, 2, kappa=1)
    f = HermiteVector(basis, np.array([1.0, 0.0, 0.0]))
    cls = classify_cells(f, cov, m_max=2)
    doctored = type(cls)(
        cls.covering, cls.local_mass, np.zeros_like(cls.good), cls.first_bad_m,
        cls.in_central, cls.total_norm2, cls.coverage_sum,
        cls.bad_mass_fraction, cls.far_mass_fraction, cls.m_max, cls.delta,
    )
    with pytest.raises(VerificationError):
        mass_intersection_check(f, doctored)


def test_estimate_Mk_ground_state():
    basis = BasisIndexSet(1, 0)
    f = HermiteVector(basis, np.array([1.0]))
    cell = Region.interval(-0.5, 0.5)
    Mk = estimate_Mk(f, cell, (1.0,))
    # the sampled sup includes x = 0, so M_k >= phi_0(0) sqrt(|Q|) / ||phi_0||_Q
    assert Mk >= math.pi ** -0.25 / math.sqrt(math.erf(0.5))
    assert math.isfinite(Mk)


def test_estimate_Mk_zero_function():
    basis = BasisIndexSet(1, 2)
    f = HermiteVector(basis, np.zeros(basis.size))
    with pytest.raises(InputError):
        estimate_Mk(f, Region.interval(0, 1), (1.0,))


def test_estimate_Mk_dominated_by_good_cell_bound():
    # local estimate chain: M_k for a good cell stays below the explicit series bound
    basis = BasisIndexSet(1, 6)
    rng = SplitMix64(53)
    f = HermiteVector(basis, rng.unit_coeffs(basis.size))
    cell = Region.interval(-0.5, 0.5)
    delta = delta_choice(1.0, 6, 1.0)
    Mk = estimate_Mk(f, cell, (1.0,))
    log_bound = good_cell_Mk_bound_log(6, 1, 1.0, 1.0, delta)
    assert math.log(Mk) < log_bound


def test_good_cell_bound_against_mpmath_series():
    # the proof's delta keeps the series geometric with ratio 1/2
    N, d, kappa, l1 = 6, 1, 1.0, 1.0
    delta = 1.0 / 40.0
    with mpmath.workdps(1500):
        s = mpmath.mpf(0)
        for m in range(0, 250):
            log_cb = bernstein_CB_log(m, N, d, delta)
            s += mpmath.e ** (mpmath.mpf(log_cb) / 2) * mpmath.mpf(10 * l1) ** m / mpmath.factorial(m)
        oracle = float(mpmath.log(2 * mpmath.sqrt(kappa) * s))
    assert good_cell_Mk_bound_log(N, d, kappa, l1, delta) == pytest.approx(oracle, rel=1e-10)


def test_good_cell_bound_divergence_guard():
    with pytest.raises(InputError):
        good_cell_Mk_bound_log(6, 1, 1.0, 1.0, 0.5)


def test_counterexample_against_gammainc():
    M = 2.0
    rows, fitted_c = counterexample_growth(M, [10, 20, 30])
    for r in rows:
        # restricted norm = gamma(N + 1/2) * P(N + 1/2, M^2), regularized lower
        oracle = math.lgamma(r.N + 0.5) + math.log(special.gammainc(r.N + 0.5, M * M))
        assert r.log_norm_restricted == pytest.approx(oracle, abs=1e-10)
        assert r.log_norm_full == pytest.approx(math.lgamma(r.N + 0.5))
    assert rows[0].log_ratio < rows[1].log_ratio < rows[2].log_ratio
    assert fitted_c > 0.0


def test_counterexample_rejects_bad_window():
    with pytest.raises(InputError):
        counterexample_growth(0.0, [10])


@pytest.mark.parametrize("N_list", [[], [1], [0, 1]])
def test_counterexample_needs_a_degree_of_at_least_two(N_list):
    with pytest.raises(InputError, match="N >= 2"):
        counterexample_growth(2.0, N_list)
