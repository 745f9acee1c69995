"""Closed-form theoretical constants, evaluated in log space.

The headline lower bounds are astronomically small (exponents of order 1e4 and
beyond), so every bound is carried as its natural logarithm together with a
(base, exponent) decomposition.  The universal constant K and the three
horizon-dependent constants C1, C2, C3 are configuration inputs; they are
reported, never asserted against.
"""

import math
from dataclasses import dataclass

from .errors import InputError


def unit_ball_volume(d):
    """Lebesgue measure tau_d of the Euclidean unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def concentration_radius(d, kappa):
    """Radius coefficient C = 32 d (1 + sqrt(log kappa)) of the concentration ball."""
    if kappa < 1:
        raise InputError("kappa must be at least 1")
    return 32.0 * d * (1.0 + math.sqrt(math.log(kappa)))


def delta_choice(D, N, eps=1.0):
    """The proof's choice delta = (40 D N^((1-eps)/2))^(-1)."""
    if D <= 0 or N < 1:
        raise InputError("need D > 0 and N >= 1")
    return 1.0 / (40.0 * D * N ** ((1.0 - eps) / 2.0))


def bernstein_CB_log(m, N, d, delta):
    """log C_B(m, N) = 2m log(2 delta) + e/delta^2 + 2 log m! + 2 sqrt(2N+d)/delta."""
    if delta <= 0:
        raise InputError("delta must be positive")
    if m < 0:
        raise InputError("m must be non-negative")
    return (
        2.0 * m * math.log(2.0 * delta)
        + math.e / delta ** 2
        + 2.0 * math.lgamma(m + 1)
        + 2.0 * math.sqrt(2.0 * N + d) / delta
    )


@dataclass(frozen=True)
class BoundValue:
    """A lower bound carried as log(value) = log(prefactor) + exponent * log(base)."""

    log_value: float
    base: float
    exponent: float
    provenance: str
    n_exponent: float
    efficient: bool
    extras: dict = None

    @property
    def value(self):
        """Linear-scale value; underflows to 0.0 for the typical parameter ranges."""
        return math.exp(self.log_value) if self.log_value > -745 else 0.0


@dataclass(frozen=True)
class BoundParams:
    """Parameter bundle for the bound evaluators; unused fields may stay None."""

    d: int
    N: int
    gamma: float = None
    beta: float = None
    alpha: float = None
    rho: float = None
    R: float = None
    eps: float = 1.0
    kappa: float = 1.0
    eta: float = None
    D: float = None
    K: float = 16.0
    zeta: float = None
    d0: float = None
    d1: float = None
    T: float = None
    C1: float = 1.0
    C2: float = 1.0
    C3: float = 1.0


def thm_general_bound(params):
    """Log of (3/kappa) (eta gamma / 24 d tau_d)^(7(800e sqrt(d) D(D+1) + log(4 sqrt(kappa))) N^(1-(eps-alpha)/2))."""
    d, N = params.d, params.N
    gamma, eta, D = params.gamma, params.eta, params.D
    kappa, eps = params.kappa, params.eps
    alpha = params.alpha if params.alpha is not None else 0.0
    if not 0.0 < gamma < 1.0:
        raise InputError("gamma must lie in (0, 1)")
    tau_d = unit_ball_volume(d)
    if eta > d * tau_d + 1e-12:
        raise InputError("eta exceeds the cap d * tau_d")
    n_exp = 1.0 - (eps - alpha) / 2.0
    factor = 7.0 * (800.0 * math.e * math.sqrt(d) * D * (D + 1.0) + math.log(4.0 * math.sqrt(kappa)))
    exponent = factor * N ** n_exp
    base = eta * gamma / (24.0 * d * tau_d)
    log_value = math.log(3.0 / kappa) + exponent * math.log(base)
    return BoundValue(log_value, base, exponent, "general", n_exp, alpha < eps)


def thm_cubes_bound(params):
    """Log of 3 (gamma/K^d)^(K d^(5/2+beta) (1+rho)^2 N^((1+beta)/2)) plus the derivation path."""
    d, N = params.d, params.N
    gamma, beta, rho, K = params.gamma, params.beta, params.rho, params.K
    if K < 1:
        raise InputError("K must be at least 1")
    if not 0.0 < gamma < 1.0:
        raise InputError("gamma must lie in (0, 1)")
    n_exp = (1.0 + beta) / 2.0
    exponent = K * d ** (2.5 + beta) * (1.0 + rho) ** 2 * N ** n_exp
    base = gamma / K ** d
    log_value = math.log(3.0) + exponent * math.log(base)
    C = concentration_radius(d, 1.0)
    extras = {
        # cube derivation: alpha = beta, eps = 1, gamma -> gamma^(2 (2C)^beta)
        "log_gamma_effective": 2.0 * (2.0 * C) ** beta * math.log(gamma),
        "C": C,
    }
    return BoundValue(log_value, base, exponent, "cubes", n_exp, beta < 1.0, extras)


def thm_balls_bound(params):
    """Log of 3 (gamma/K^d)^(K^(1+alpha) d^((11+3 alpha)/2) (1+R)^2 N^(1-(eps-alpha)/2))."""
    d, N = params.d, params.N
    gamma, alpha, R, eps, K = params.gamma, params.alpha, params.R, params.eps, params.K
    if K < 1:
        raise InputError("K must be at least 1")
    if not 0.0 < gamma < 1.0:
        raise InputError("gamma must lie in (0, 1)")
    n_exp = 1.0 - (eps - alpha) / 2.0
    exponent = K ** (1.0 + alpha) * d ** ((11.0 + 3.0 * alpha) / 2.0) * (1.0 + R) ** 2 * N ** n_exp
    base = gamma / K ** d
    log_value = math.log(3.0) + exponent * math.log(base)
    C = concentration_radius(d, K ** d)
    extras = {
        # ball derivation: gamma -> gamma^(1 + C^alpha) with kappa = K^d
        "log_gamma_effective": (1.0 + C ** alpha) * math.log(gamma),
        "C": C,
    }
    return BoundValue(log_value, base, exponent, "balls", n_exp, alpha < eps, extras)


def cobs_bound_log(d0, d1, zeta, T, C1=1.0, C2=1.0, C3=1.0):
    """log C_obs^2 = log(C1 d0 / T) + C2 log(2 d0 + 1) + C3 (d1/T^zeta)^(1/(1-zeta))."""
    if not 0.0 < zeta < 1.0:
        raise InputError("zeta must lie in (0, 1)")
    if T <= 0 or d0 <= 0 or d1 < 0:
        raise InputError("need T > 0, d0 > 0, d1 >= 0")
    if min(C1, C2, C3) <= 0:
        raise InputError("C1, C2, C3 must be positive")
    K1 = 2.0 * d0 + 1.0
    return (
        math.log(C1 * d0 / T)
        + C2 * math.log(K1)
        + C3 * (d1 / T ** zeta) ** (1.0 / (1.0 - zeta))
    )
