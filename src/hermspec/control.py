"""Finite-dimensional observability and HUM null-control for the Hermite semigroup.

Everything lives inside E_N (Galerkin truncation): the semigroup acts
diagonally with eigenvalues 2|alpha| + d, the observability Gramian has the
closed form B[a,b] = G_S[a,b] (1 - exp(-(lam_a+lam_b) T)) / (lam_a+lam_b), and
the minimal-norm control is u(t) = 1_S exp(-(T-t)H) eta with B eta =
-exp(-TH) phi_0.  A ControlProblem forms B for one (G_S, T) and factors it
once by LAPACK's symmetric eigendecomposition (numpy.linalg.eigh); every HUM
control, the observability constant and the worst-case initial state of that
system reuse the factors.
An eigenvalue floor guards every solve, so severely non-observable sets
surface as typed signals instead of blow-ups.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import HermiteVector
from .errors import InputError, NonControllableError, NonObservableError
from .gram import GramMatrix, _leggauss
from .spectral import jacobi_eigh


def semigroup_apply(f, t):
    """exp(-tH) f: coefficient alpha scaled by exp(-(2|alpha|+d) t)."""
    if t < 0:
        raise InputError("t must be non-negative")
    lam = f.basis.semigroup_eigenvalues()
    return HermiteVector(f.basis, f.coeffs * np.exp(-lam * t))


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


EIG_FLOOR = 1e-14


class ControlProblem:
    """The E_N control system of one sensor Gram G_S and horizon T.

    B is formed and factored as B = V Lam V^T once, at construction.  The
    observability operator A = Lam^(-1/2) V^T exp(-TH) and the top eigenpair
    of A A^T are built on first use and shared by observability_constant()
    and worst_case_initial_state(); hum_control reads the same factorization,
    so one problem serves any number of controls.
    """

    def __init__(self, basis, G_S, T):
        self.basis = basis
        self.G_S = G_S
        self.T = T
        self.B = observability_gramian(G_S, basis, T)
        self.lam = basis.semigroup_eigenvalues()
        self.vals, self.vecs = jacobi_eigh(self.B.entries)

    def _require_floor(self, error):
        if float(self.vals[0]) <= EIG_FLOOR:
            raise error(
                f"Gramian smallest eigenvalue {float(self.vals[0])} at or below floor {EIG_FLOOR}"
            )

    @cached_property
    def _top(self):
        self._require_floor(NonObservableError)
        E_half = np.exp(-self.lam * self.T)
        A = (self.vecs * (1.0 / np.sqrt(self.vals))[None, :]).T * E_half[None, :]
        mvals, mvecs = jacobi_eigh(A @ A.T)
        return A, float(mvals[-1]), mvecs[:, -1]

    def observability_constant(self):
        """Numeric observability constant: C^2 = max_phi (phi^T E phi)/(phi^T B phi).

        E = diag(exp(-2 lam T)).  C^2 is the top eigenvalue of A A^T, which
        has the same spectrum as the textbook E^(-1/2) B E^(-1/2) formulation
        but avoids forming exp(+2 lam T) factors.
        """
        return math.sqrt(self._top[1])

    def worst_case_initial_state(self):
        """Unit phi0 maximizing the HUM cost; its cost/||phi0|| equals C_obs,num."""
        A, _, u = self._top
        phi0 = A.T @ u
        return HermiteVector(self.basis, phi0 / np.linalg.norm(phi0))


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

    Solves B eta = -exp(-TH) phi0 with the problem's factorization of B (floor
    1e-14), then simulates the controlled trajectory by exact exponential
    integration on a uniform time grid.  With the adjoint state
    a(t) = exp(Lam (t - T)) eta, the Duhamel integral over a step [t - h, t]
    equals P a(t) with P[a,b] = G[a,b] (1 - exp(-(lam_a + lam_b) h)) / (lam_a + lam_b),
    so one matrix P serves every step.
    """
    T, lam = problem.T, problem.lam
    vals, vecs = problem.vals, problem.vecs
    phi0 = phi0.coeffs
    g = np.exp(-lam * T) * phi0  # exp(-TH) phi0

    if float(np.linalg.norm(phi0)) == 0.0:
        return ControlResult(np.zeros_like(phi0), 0.0, 0.0, 0.0)

    problem._require_floor(NonControllableError)
    y = vecs.T @ g
    eta = -vecs @ (y / vals)
    # cost^2 = eta^T B eta = || Lam^(-1/2) V^T g ||^2, evaluated without cancellation
    cost = float(np.linalg.norm(y / np.sqrt(vals)))
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
