import math

import numpy as np
import pytest

from hermspec import (
    BasisIndexSet,
    ControlProblem,
    GramMatrix,
    HermiteVector,
    InputError,
    NonControllableError,
    NonObservableError,
    Region,
    SensorSet,
    gram_over_set,
    hum_control,
    observability_gramian,
)
from hermspec.rng import SplitMix64
from mpmath_reference import mpmath_c_obs
from reference_loops import observability_gramian_quadrature


def make_system(N=6, window=True):
    basis = BasisIndexSet(1, N)
    if window:
        S = SensorSet((Region.interval(-20.0, 20.0),))
    else:
        S = SensorSet((Region.interval(0.5, 1.5), Region.interval(-2.0, -1.0)))
    return basis, gram_over_set(basis, S)


def test_gramian_scalar_case():
    # N = 0, d = 1: B = G (1 - exp(-2T)) / 2
    basis = BasisIndexSet(1, 0)
    G = GramMatrix(basis, np.array([[0.7]]))
    B = observability_gramian(G, basis, 2.0)
    assert B.entries[0, 0] == pytest.approx(0.7 * (1.0 - math.exp(-4.0)) / 2.0)


def test_gramian_closed_form_vs_quadrature():
    basis, G = make_system(8, window=False)
    B = observability_gramian(G, basis, 1.0)
    Bq = observability_gramian_quadrature(G, basis, 1.0, nodes=100)
    assert np.max(np.abs(B.entries - Bq.entries)) < 1e-12


def test_gramian_requires_positive_horizon():
    basis, G = make_system(2)
    with pytest.raises(InputError):
        observability_gramian(G, basis, 0.0)
    with pytest.raises(InputError):
        ControlProblem(basis, G, 0.0)


def test_problem_needs_the_set_factor():
    basis = BasisIndexSet(1, 0)
    with pytest.raises(InputError, match="factor"):
        ControlProblem(basis, GramMatrix(basis, np.array([[0.7]])), 1.0)


def test_nonobservable_empty_set():
    basis = BasisIndexSet(1, 3)
    G = gram_over_set(basis, SensorSet(()))
    problem = ControlProblem(basis, G, 1.0)
    with pytest.raises(NonObservableError):
        problem.observability_constant()
    with pytest.raises(NonObservableError):
        problem.worst_case_initial_state()


def test_noncontrollable_empty_set():
    basis = BasisIndexSet(1, 3)
    G = gram_over_set(basis, SensorSet(()))
    phi0 = HermiteVector(basis, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(NonControllableError):
        hum_control(ControlProblem(basis, G, 1.0), phi0)


def test_hum_drives_state_to_zero():
    basis, G = make_system(6, window=False)
    rng = SplitMix64(61)
    phi0 = HermiteVector(basis, rng.unit_coeffs(basis.size))
    res = hum_control(ControlProblem(basis, G, 1.0), phi0)
    assert res.terminal_residual < 1e-10
    assert res.simulated_residual < 1e-10
    assert res.cost > 0.0


def test_hum_cost_identity():
    # minimal-norm cost^2 equals -<eta, exp(-TH) phi0>
    basis, G = make_system(5, window=False)
    rng = SplitMix64(67)
    phi0 = HermiteVector(basis, rng.unit_coeffs(basis.size))
    T = 0.8
    res = hum_control(ControlProblem(basis, G, T), phi0)
    lam = basis.semigroup_eigenvalues()
    g = np.exp(-lam * T) * phi0.coeffs
    assert res.cost ** 2 == pytest.approx(-float(res.eta @ g), rel=1e-10)


def test_hum_trajectory_running_cost_converges_to_total():
    basis, G = make_system(4, window=False)
    rng = SplitMix64(71)
    phi0 = HermiteVector(basis, rng.unit_coeffs(basis.size))
    res = hum_control(ControlProblem(basis, G, 1.0), phi0, with_trajectory=True)
    final_running = res.trajectory[-1][-1]
    assert final_running == pytest.approx(res.cost, rel=1e-4)
    csv = res.trajectory_csv()
    assert csv.splitlines()[0].startswith("t,phi_0")
    assert len(csv.splitlines()) == 1 + len(res.trajectory)


def test_zero_initial_state_costs_nothing():
    basis, G = make_system(3)
    phi0 = HermiteVector(basis, np.zeros(basis.size))
    res = hum_control(ControlProblem(basis, G, 1.0), phi0)
    assert res.cost == 0.0
    assert res.terminal_residual == 0.0


def test_cost_bounded_by_observability_constant():
    basis, G = make_system(6, window=False)
    problem = ControlProblem(basis, G, 1.0)
    c_obs = problem.observability_constant()
    rng = SplitMix64(73)
    for _ in range(10):
        phi0 = HermiteVector(basis, rng.unit_coeffs(basis.size))
        res = hum_control(problem, phi0)
        assert res.cost <= c_obs * (1.0 + 1e-10)


def test_worst_case_duality():
    basis, G = make_system(6, window=False)
    problem = ControlProblem(basis, G, 1.0)
    c_obs = problem.observability_constant()
    phi0 = problem.worst_case_initial_state()
    assert np.linalg.norm(phi0.coeffs) == pytest.approx(1.0)
    res = hum_control(problem, phi0)
    assert res.cost == pytest.approx(c_obs, rel=1e-8)


def test_observability_constant_brute_force():
    # direct maximization of ||exp(-TH) phi|| / sqrt(phi^T B phi) over random phi
    basis, G = make_system(4, window=False)
    T = 1.0
    problem = ControlProblem(basis, G, T)
    B = problem.B
    c_obs = problem.observability_constant()
    lam = basis.semigroup_eigenvalues()
    rng = SplitMix64(79)
    best = 0.0
    for _ in range(2000):
        phi = rng.unit_coeffs(basis.size)
        num = float(np.linalg.norm(np.exp(-lam * T) * phi))
        den = math.sqrt(float(phi @ B.entries @ phi))
        best = max(best, num / den)
    assert best <= c_obs * (1.0 + 1e-12)
    assert best > 0.8 * c_obs  # random search comes close in low dimension


def test_full_window_control_is_cheapest():
    basis = BasisIndexSet(1, 4)
    G_full = gram_over_set(basis, SensorSet((Region.interval(-20, 20),)))
    G_small = gram_over_set(basis, SensorSet((Region.interval(0.0, 1.0),)))
    T = 1.0
    c_full = ControlProblem(basis, G_full, T).observability_constant()
    c_small = ControlProblem(basis, G_small, T).observability_constant()
    assert c_full < c_small


def test_problem_factors_gramian_once(monkeypatch):
    # one QR at construction and one SVD on first use, however many controls follow
    basis, G = make_system(6, window=False)
    calls = []
    for name in ("qr", "svd"):
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    problem = ControlProblem(basis, G, 1.0)
    assert calls == ["qr"]
    rng = SplitMix64(83)
    for _ in range(50):
        hum_control(problem, HermiteVector(basis, rng.unit_coeffs(basis.size)))
    c_obs = problem.observability_constant()
    res = hum_control(problem, problem.worst_case_initial_state())
    assert res.cost == pytest.approx(c_obs, rel=1e-8)
    assert calls == ["qr", "svd"]


@pytest.mark.parametrize("interval, N, T", [
    ((-2.0, 2.0), 20, 0.25),  # the eigensolve of B read 1.7e-6 off
    ((-2.0, 2.0), 20, 0.05),  # refused: B's smallest eigenvalue fell below 1e-14
    ((-0.89, 0.62), 20, 0.5),  # refused likewise
])
def test_observability_constant_against_mpmath(interval, N, T):
    basis = BasisIndexSet(1, N)
    G = gram_over_set(basis, SensorSet((Region.interval(*interval),)))
    c_obs = ControlProblem(basis, G, T).observability_constant()
    ref = mpmath_c_obs([interval], N, T)
    assert abs(c_obs - ref) <= 1e-10 * ref


@pytest.mark.parametrize("d, N, region", [
    (2, 6, Region.box((0.5, -0.125), (0.4, 0.475))),
    (3, 3, Region.box((0.2, -0.1, 0.3), (0.5, 0.6, 0.4))),
])
def test_gramian_factor_matches_closed_form(d, N, region):
    # N + ceil(d/2) Gauss nodes in s = exp(-2t) are exact; one node fewer is off
    # by 1e-8 or more at T = 1 and 5 in d = 2 and 3
    basis = BasisIndexSet(d, N)
    G = gram_over_set(basis, SensorSet((region,)))
    for T in (0.05, 1.0, 5.0):
        R_B = ControlProblem(basis, G, T).R_B
        B = observability_gramian(G, basis, T).entries
        assert np.max(np.abs(R_B.T @ R_B - B)) <= 1e-14 * np.max(np.abs(B))


def test_simulation_step_matches_duhamel_integral():
    # one exact step from phi0: phi(h) - e^(-Lam h) phi0 = int_0^h e^(-Lam(h-s)) G e^(-Lam(T-s)) eta ds
    from scipy.integrate import quad_vec

    basis, G = make_system(5, window=False)
    T, steps = 0.6, 7
    h = T / steps
    rng = SplitMix64(89)
    phi0 = HermiteVector(basis, rng.unit_coeffs(basis.size))
    res = hum_control(ControlProblem(basis, G, T), phi0, time_nodes=steps, with_trajectory=True)
    lam = basis.semigroup_eigenvalues()
    duhamel, _ = quad_vec(
        lambda s: np.exp(-lam * (h - s)) * (G.entries @ (np.exp(-lam * (T - s)) * res.eta)),
        0.0, h, epsabs=1e-16, epsrel=1e-14,
    )
    phi_h = np.asarray(res.trajectory[1][1:1 + basis.size])
    assert np.max(np.abs(phi_h - np.exp(-lam * h) * phi0.coeffs - duhamel)) <= 1e-13
