import math

import pytest

from hermspec import (
    BoundParams,
    InputError,
    bernstein_CB_log,
    cobs_bound_log,
    concentration_radius,
    delta_choice,
    thm_balls_bound,
    thm_cubes_bound,
    thm_general_bound,
)


def test_concentration_radius():
    assert concentration_radius(1, 1.0) == pytest.approx(32.0)
    assert concentration_radius(2, 1.0) == pytest.approx(64.0)
    k = math.exp(4.0)
    assert concentration_radius(1, k) == pytest.approx(32.0 * 3.0)
    with pytest.raises(InputError):
        concentration_radius(1, 0.5)


def test_delta_choice():
    assert delta_choice(1.0, 10, 1.0) == pytest.approx(1.0 / 40.0)
    assert delta_choice(2.0, 4, 0.0) == pytest.approx(1.0 / 160.0)


def test_bernstein_CB_log_formula():
    m, N, d, delta = 3, 10, 1, 1.0 / 40.0
    expected = (
        2 * m * math.log(2 * delta)
        + math.e / delta ** 2
        + 2 * math.log(math.factorial(m))
        + 2 * math.sqrt(2 * N + d) / delta
    )
    assert bernstein_CB_log(m, N, d, delta) == pytest.approx(expected, rel=1e-15)
    # eventually monotone in m (the 2 log m! term dominates once 2 log m > -2 log(2 delta))
    vals = [bernstein_CB_log(m, N, d, delta) for m in range(20, 30)]
    assert vals == sorted(vals)


def test_general_bound_formula():
    p = BoundParams(d=1, N=4, gamma=0.5, eta=1.0, D=1.0, kappa=1.0, eps=1.0, alpha=0.5)
    b = thm_general_bound(p)
    factor = 7.0 * (800.0 * math.e * 1.0 * (1.0 + 1.0) + math.log(4.0))
    exponent = factor * 4 ** (1.0 - 0.25)
    base = 0.5 / 48.0
    assert b.exponent == pytest.approx(exponent)
    assert b.log_value == pytest.approx(math.log(3.0) + exponent * math.log(base))
    assert b.value == 0.0  # far below double underflow
    assert b.efficient  # alpha < eps


def test_general_bound_monotone_in_N():
    vals = [
        thm_general_bound(BoundParams(d=1, N=N, gamma=0.5, eta=1.0, D=1.0)).log_value
        for N in range(1, 9)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_general_bound_rejects_bad_gamma():
    with pytest.raises(InputError):
        thm_general_bound(BoundParams(d=1, N=1, gamma=1.5, eta=1.0, D=1.0))
    with pytest.raises(InputError):
        thm_general_bound(BoundParams(d=1, N=1, gamma=0.5, eta=10.0, D=1.0))


def test_cubes_bound_formula():
    p = BoundParams(d=1, N=4, gamma=0.5, beta=0.5, rho=1.0, K=16)
    b = thm_cubes_bound(p)
    exponent = 16.0 * 1.0 * 4.0 * 4 ** 0.75
    assert b.exponent == pytest.approx(exponent)
    assert b.log_value == pytest.approx(math.log(3.0) + exponent * math.log(0.5 / 16.0))
    # the derivation path records the effective density after the C-dilation
    assert b.extras["log_gamma_effective"] == pytest.approx(
        2.0 * 8.0 * math.log(0.5)
    )
    assert b.n_exponent == pytest.approx(0.75)
    assert b.efficient  # beta < 1


def test_balls_bound_formula():
    p = BoundParams(d=1, N=4, gamma=0.5, alpha=0.5, R=1.0, eps=1.0, K=16)
    b = thm_balls_bound(p)
    exponent = 16.0 ** 1.5 * 1.0 * 4.0 * 4 ** 0.75
    assert b.exponent == pytest.approx(exponent)
    assert b.log_value == pytest.approx(math.log(3.0) + exponent * math.log(0.5 / 16.0))
    assert b.efficient  # alpha < eps


def test_cobs_bound_formula():
    d0, d1, zeta, T = 1.0, 2.0, 0.5, 0.25
    v = cobs_bound_log(d0, d1, zeta, T)
    expected = math.log(d0 / T) + math.log(3.0) + (d1 / T ** zeta) ** 2.0
    assert v == pytest.approx(expected)
    with pytest.raises(InputError):
        cobs_bound_log(d0, d1, 1.5, T)
    with pytest.raises(InputError):
        cobs_bound_log(-1.0, d1, zeta, T)


def test_cobs_blows_up_as_T_shrinks():
    vals = [cobs_bound_log(1.0, 1.0, 0.5, T) for T in (1.0, 0.1, 0.01)]
    assert vals[0] < vals[1] < vals[2]
