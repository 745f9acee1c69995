import math

import mpmath
import numpy as np
import pytest

from hermspec import (
    BasisIndexSet,
    HermiteVector,
    InputError,
    derivative_operator,
    eval_phi,
    eval_phi_table,
    multi_indices,
)
from hermspec.rng import SplitMix64
from reference_loops import derivative_multi, derivative_operator_loop, embedded_loop, eval_Phi


def phi_oracle(k, t):
    """High-precision oscillator eigenfunction via the physicists' Hermite polynomial."""
    with mpmath.workdps(50):
        h = mpmath.hermite(k, mpmath.mpf(t))
        norm = mpmath.sqrt(2 ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
        return float(h / norm * mpmath.e ** (-mpmath.mpf(t) ** 2 / 2))


def test_multi_index_count():
    for d in (1, 2, 3):
        for N in (0, 1, 4, 7):
            assert len(multi_indices(d, N)) == math.comb(N + d, d)


def test_multi_index_graded_order():
    idx = multi_indices(2, 3)
    degrees = [sum(a) for a in idx]
    assert degrees == sorted(degrees)
    assert idx[0] == (0, 0)
    # within a degree block, lexicographic
    block = [a for a in idx if sum(a) == 2]
    assert block == sorted(block)


def test_position_round_trip():
    basis = BasisIndexSet(3, 5)
    for i, alpha in enumerate(basis.indices):
        assert basis.position(alpha) == i


def test_eval_phi_against_oracle():
    for k in (0, 1, 2, 5, 17, 40):
        for t in (-3.7, -1.0, 0.0, 0.5, 2.25, 6.0):
            assert eval_phi(k, t) == pytest.approx(phi_oracle(k, t), abs=1e-13)


def test_eval_phi_table_matches_single():
    t = np.linspace(-4, 4, 17)
    table = eval_phi_table(10, t)
    for k in range(11):
        for i, ti in enumerate(t):
            assert table[i, k] == pytest.approx(eval_phi(k, ti), rel=1e-14, abs=1e-15)


def test_eval_phi_rejects_nonfinite():
    with pytest.raises(InputError):
        eval_phi_table(3, np.array([0.0, np.inf]))


def test_complex_continuation_agrees_on_real_axis():
    z = np.array([0.3 + 0.0j, -1.1 + 0.0j])
    table = eval_phi_table(6, z)
    for k in range(7):
        assert table[0, k].imag == 0.0
        assert table[0, k].real == pytest.approx(eval_phi(k, 0.3), rel=1e-14)


def test_complex_entire_value():
    # phi_0(i) = pi^(-1/4) exp(1/2)
    val = eval_phi_table(0, np.array([1j]))[0, 0]
    assert val == pytest.approx(math.pi ** -0.25 * math.exp(0.5))


def test_tensor_eval():
    alpha = (2, 1)
    x = np.array([[0.4, -1.2], [1.0, 0.0]])
    vals = eval_Phi(alpha, x)
    expected = [eval_phi(2, xi[0]) * eval_phi(1, xi[1]) for xi in x]
    assert vals == pytest.approx(expected)


def test_hermite_vector_evaluate_matches_sum():
    basis = BasisIndexSet(2, 3)
    rng = SplitMix64(11)
    f = HermiteVector(basis, rng.unit_coeffs(basis.size))
    x = np.array([[0.2, -0.7], [1.5, 0.3], [0.0, 0.0]])
    direct = np.zeros(3)
    for c, alpha in zip(f.coeffs, basis.indices):
        direct += c * eval_Phi(alpha, x)
    assert f.evaluate(x) == pytest.approx(direct, rel=1e-13)


def test_derivative_ladder_against_finite_difference():
    basis = BasisIndexSet(1, 6)
    rng = SplitMix64(13)
    f = HermiteVector(basis, rng.unit_coeffs(basis.size))
    df = derivative_operator(f, 0)
    h = 1e-6
    for t in (-1.3, 0.0, 0.9, 2.4):
        x = np.array([[t + h], [t - h]])
        fd = (f.evaluate(x)[0] - f.evaluate(x)[1]) / (2 * h)
        assert df.evaluate(np.array([[t]]))[0] == pytest.approx(fd, abs=1e-7)


def test_derivative_degree_raises_by_one():
    basis = BasisIndexSet(2, 4)
    f = HermiteVector(basis, np.eye(basis.size)[basis.position((4, 0))])
    df = derivative_operator(f, 0)
    assert df.basis.max_degree == 5
    # d/dx phi_4 = sqrt(2) phi_3 - sqrt(5/2) phi_5
    c3 = df.coeffs[df.basis.position((3, 0))]
    c5 = df.coeffs[df.basis.position((5, 0))]
    assert c3 == pytest.approx(math.sqrt(2.0))
    assert c5 == pytest.approx(-math.sqrt(2.5))


def _coeffs_with_zeros(basis, seed):
    """Seeded coefficients with about a third set to +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.size)
    zeros = rng.random(basis.size) < 1 / 3
    c[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return HermiteVector(basis, c)


@pytest.mark.parametrize("d, N", [(1, 0), (1, 12), (2, 0), (2, 7), (3, 5)])
def test_derivative_operator_matches_the_coefficient_loop_bitwise(d, N):
    for seed in range(4):
        f = _coeffs_with_zeros(BasisIndexSet(d, N), seed)
        for axis in range(d):
            got = derivative_operator(f, axis)
            ref = derivative_operator_loop(f, axis)
            assert got.basis == ref.basis
            assert got.coeffs.tobytes() == ref.coeffs.tobytes()


@pytest.mark.parametrize("d, N", [(1, 3), (2, 4), (3, 2)])
def test_embedded_matches_the_coefficient_loop_bitwise(d, N):
    f = _coeffs_with_zeros(BasisIndexSet(d, N), 11)
    for M in (N, N + 1, N + 4):
        assert f.embedded(M).coeffs.tobytes() == embedded_loop(f, M).coeffs.tobytes()


def test_basis_index_sets_share_one_enumeration():
    a, b = BasisIndexSet(3, 6), BasisIndexSet(3, 6)
    assert a.indices is b.indices and a == b and hash(a) == hash(b)
    assert a != BasisIndexSet(3, 5)
    # graded order: each degree's enumeration is a prefix of the next one's
    assert BasisIndexSet(3, 7).indices[:a.size] == a.indices
    # the cached enumeration is not handed out for mutation
    idx = multi_indices(2, 2)
    idx.append((9, 9))
    assert multi_indices(2, 2) == list(BasisIndexSet(2, 2).indices)


def test_derivative_multi_order():
    basis = BasisIndexSet(2, 3)
    rng = SplitMix64(17)
    f = HermiteVector(basis, rng.unit_coeffs(basis.size))
    g = derivative_multi(f, (1, 2))
    h = derivative_operator(derivative_operator(derivative_operator(f, 0), 1), 1)
    assert g.coeffs == pytest.approx(h.coeffs)


def test_semigroup_eigenvalues():
    basis = BasisIndexSet(2, 2)
    lam = basis.semigroup_eigenvalues()
    assert lam[basis.position((0, 0))] == 2
    assert lam[basis.position((1, 1))] == 6


def test_norm2_is_coefficient_norm():
    basis = BasisIndexSet(1, 4)
    f = HermiteVector(basis, np.array([3.0, 0.0, 4.0, 0.0, 0.0]))
    assert f.norm2() == pytest.approx(25.0)


def test_embedded_preserves_values():
    basis = BasisIndexSet(2, 2)
    rng = SplitMix64(19)
    f = HermiteVector(basis, rng.unit_coeffs(basis.size))
    g = f.embedded(5)
    x = np.array([[0.1, -0.4]])
    assert g.evaluate(x) == pytest.approx(f.evaluate(x))
