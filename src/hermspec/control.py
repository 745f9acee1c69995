"""Finite-dimensional observability and HUM null-control for the Hermite semigroup.

Everything lives inside E_N (Galerkin truncation): the semigroup acts
diagonally with eigenvalues 2|alpha| + d, the observability Gramian has the
closed form B[a,b] = G_S[a,b] (1 - exp(-(lam_a+lam_b) T)) / (lam_a+lam_b), and
the minimal-norm control is u(t) = 1_S exp(-(T-t)H) eta with B eta =
-exp(-TH) phi_0.  A ControlProblem factors B = R_B^T R_B once, by one QR that
a Gauss rule in s = exp(-2t) makes exact; every HUM control, the observability
constant and the worst-case initial state of that system reuse R_B through
solves with it.  A singular or non-finite solve surfaces as a typed signal
(NonObservableError, NonControllableError) instead of a blow-up.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import HermiteVector
from .errors import InputError, NonControllableError, NonObservableError
from .gram import GramMatrix, _leggauss
from .spectral import _positive_lead
# unused here; the benchmark harness asserts control.jacobi_eigh is spectral.jacobi_eigh
from .spectral import jacobi_eigh  # noqa: F401


def observability_gramian(G_S, basis, T):
    """Closed-form B[a,b] = G_S[a,b] (1 - exp(-(lam_a + lam_b) T)) / (lam_a + lam_b)."""
    if T <= 0:
        raise InputError("T must be positive")
    lam = basis.semigroup_eigenvalues()
    lsum = lam[:, None] + lam[None, :]
    return GramMatrix(basis, G_S.entries * (1.0 - np.exp(-lsum * T)) / lsum)


def observability_gramian_quadrature(G_S, basis, T, nodes=100):
    """Time-quadrature oracle for the Gramian (Gauss-Legendre in t)."""
    x, w = _leggauss(nodes)
    t = 0.5 * T * (x + 1.0)
    w = 0.5 * T * w
    lam = basis.semigroup_eigenvalues()
    lsum = lam[:, None] + lam[None, :]
    B = np.zeros_like(G_S.entries)
    for ti, wi in zip(t, w):
        B += wi * np.exp(-lsum * ti)
    return GramMatrix(basis, G_S.entries * B)


def _solve(A, b, error):
    """A^(-1) b, raising error if A is singular or the solution is not finite."""
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:  # an exact zero pivot
        x = np.nan
    if not np.all(np.isfinite(x)):
        raise error("the observability Gramian is numerically singular: "
                    "a solve with its factor R_B is not finite")
    return x


class ControlProblem:
    """The E_N control system of one sensor Gram G_S and horizon T.

    B = R_B^T R_B is factored once, at construction, from G_S = R_S^T R_S.
    With s = exp(-2t), exp(-t lam_a) = s^(lam_a / 2) and dt = ds / (2s), so
    B[a,b] = (1/2) G_S[a,b] int_{exp(-2T)}^1 s^(|a|+|b|+d-1) ds: a polynomial
    of degree 2N+d-1, which m = N + ceil(d/2) Gauss-Legendre nodes s_k integrate
    exactly.  One QR of the stacked rows sqrt(w_k/2) R_S diag(s_k^((lam-1)/2))
    gives R_B.  The observability constant and worst-case state share one SVD
    of R_B^(-T) exp(-TH); hum_control solves with R_B, so one problem serves any
    number of controls.
    """

    def __init__(self, basis, G_S, T):
        self.basis = basis
        self.G_S = G_S
        self.T = T
        self.B = observability_gramian(G_S, basis, T)  # closed form, for residuals
        if G_S.factor is None:
            raise InputError("ControlProblem needs G_S with its factor R_S (from gram_over_set)")
        self.lam = basis.semigroup_eigenvalues()
        x, w = _leggauss(basis.max_degree + math.ceil(basis.dimension / 2))
        half = -0.5 * math.expm1(-2.0 * T)  # half the length of [exp(-2T), 1]
        s = 1.0 - half * (1.0 - x)
        rows = (np.sqrt(0.5 * half * w)[:, None, None] * G_S.factor
                * s[:, None, None] ** (0.5 * (self.lam - 1.0)))
        self.R_B = np.linalg.qr(rows.reshape(-1, basis.size), mode="r")

    @cached_property
    def _top(self):
        M = _solve(self.R_B.T, np.diag(np.exp(-self.lam * self.T)), NonObservableError)
        _, sv, Vt = np.linalg.svd(M)
        return float(sv[0]), _positive_lead(Vt[:1].T)[:, 0]

    def observability_constant(self):
        """Numeric observability constant C = max_phi ||exp(-TH) phi|| / sqrt(phi^T B phi).

        C = sigma_max(R_B^(-T) exp(-TH)), from one solve with R_B^T: no
        exp(+lam T) factor is formed.
        """
        return self._top[0]

    def worst_case_initial_state(self):
        """Unit phi0 maximizing the HUM cost; its cost/||phi0|| equals C_obs,num."""
        return HermiteVector(self.basis, self._top[1])


@dataclass
class ControlResult:
    eta: np.ndarray
    cost: float
    terminal_residual: float
    simulated_residual: float
    trajectory: list = field(default_factory=list)

    def trajectory_csv(self):
        """CSV rows (t, phi coefficients, projected control coefficients, running cost)."""
        if not self.trajectory:
            return ""
        n = (len(self.trajectory[0]) - 2) // 2
        header = (
            ["t"]
            + [f"phi_{i}" for i in range(n)]
            + [f"u_{i}" for i in range(n)]
            + ["running_cost"]
        )
        lines = [",".join(header)]
        for row in self.trajectory:
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"


def hum_control(problem, phi0, time_nodes=256, with_trajectory=False):
    """Minimal-norm null control of phi0 within E_N by the Hilbert Uniqueness Method.

    Solves B eta = -exp(-TH) phi0 with the problem's factor B = R_B^T R_B:
    y = R_B^(-T) exp(-TH) phi0, eta = -R_B^(-1) y and cost = ||y||, raising
    NonControllableError if a solve is not finite.  It then simulates the
    controlled trajectory by exact exponential integration on a uniform time
    grid.  With the adjoint state a(t) = exp(Lam (t - T)) eta, the Duhamel
    integral over a step [t - h, t] equals P a(t) with
    P[a,b] = G[a,b] (1 - exp(-(lam_a + lam_b) h)) / (lam_a + lam_b),
    so one matrix P serves every step.
    """
    T, lam = problem.T, problem.lam
    phi0 = phi0.coeffs
    g = np.exp(-lam * T) * phi0  # exp(-TH) phi0

    if float(np.linalg.norm(phi0)) == 0.0:
        return ControlResult(np.zeros_like(phi0), 0.0, 0.0, 0.0)

    y = _solve(problem.R_B.T, g, NonControllableError)
    eta = -_solve(problem.R_B, y, NonControllableError)
    cost = float(np.linalg.norm(y))  # cost^2 = eta^T B eta = ||R_B eta||^2
    terminal_residual = float(np.linalg.norm(g + problem.B.entries @ eta))

    G = problem.G_S.entries
    h = T / time_nodes
    t = h * np.arange(time_nodes + 1)
    a = np.exp(lam[None, :] * (t[:, None] - T)) * eta  # row k: a(t_k)
    lsum = lam[:, None] + lam[None, :]
    drive = a[1:] @ (G * (-np.expm1(-lsum * h) / lsum)).T
    decay = np.exp(-lam * h)
    phis = [phi0]
    for f in drive:
        phis.append(decay * phis[-1] + f)
    simulated_residual = float(np.linalg.norm(phis[-1]))

    trajectory = []
    if with_trajectory:
        u = a @ G  # u(t) = G a(t); G is symmetric
        # running cost: ||u(t)||^2 = a(t)^T G a(t), trapezoid on the step ends
        q = np.sum(u * a, axis=1)
        running2 = np.concatenate(([0.0], np.cumsum(0.5 * h * (q[:-1] + q[1:]))))
        running = np.sqrt(np.maximum(running2, 0.0))
        trajectory = [[t[k], *phis[k], *u[k], running[k]] for k in range(time_nodes + 1)]

    return ControlResult(eta, cost, terminal_residual, simulated_residual, trajectory)
