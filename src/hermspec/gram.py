"""Quadrature engine: Gram matrices of Hermite basis functions over sensor sets.

Boxes are integrated by tensor Gauss-Legendre with per-axis panel splitting
(long boxes are cut into panels of bounded length so that the fixed node count
resolves the Gaussian factor); the tensor structure lets each box contribute a
product of one-dimensional moment matrices.  Balls use the chord rule: the
first coordinate is x_1 = c_1 + r sin(theta) with Gauss-Legendre nodes in
theta, and each node carries the (d-1)-ball of radius r cos(theta), down to
a paneled interval in one dimension; the substitution removes the square-root
ends of the chords, so the integrand is smooth in theta.  All weights are
positive, so every Gram is PSD by construction.  Full-space weighted Grams
use scaled Gauss-Hermite nodes with the Gaussian weight absorbed
analytically, which is exact for the polynomial factors.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisIndexSet, eval_phi_table
from .errors import InputError, QuadratureError


# Node doubling stops here: Gauss-Legendre nodes come from an n x n eigenproblem
# (numpy leggauss takes about 0.7 s at 2048 nodes and 4.5 s at 4096).
MAX_NODES = 2048


@dataclass(frozen=True)
class QuadratureRule:
    nodes: int = 64
    tol: float = 1e-11
    panel_max: float = 4.0

    def __post_init__(self):
        if not 1 <= self.nodes <= MAX_NODES:
            raise InputError(f"nodes must be between 1 and {MAX_NODES}")
        if self.tol <= 0:
            raise InputError("tol must be positive")
        if self.panel_max <= 0:
            raise InputError("invalid quadrature rule parameters")


DEFAULT_RULE = QuadratureRule()


@lru_cache(maxsize=64)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=64)
def _hermgauss(n):
    return np.polynomial.hermite.hermgauss(n)


def axis_panels(a, b, panel_max):
    """Split [a, b] into equal panels of length at most panel_max."""
    npan = max(1, int(math.ceil((b - a) / panel_max)))
    edges = np.linspace(a, b, npan + 1)
    return list(zip(edges[:-1], edges[1:]))


def axis_quadrature(a, b, nodes, panel_max):
    """Paneled Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(nodes)
    xs, ws = [], []
    for lo, hi in axis_panels(a, b, panel_max):
        half = (hi - lo) / 2.0
        xs.append(half * x + (hi + lo) / 2.0)
        ws.append(half * w)
    return np.concatenate(xs), np.concatenate(ws)


def _ball_points(center, r, nodes, panel_max):
    """Chord-rule points (n, d) and weights on the ball |x - center| <= r.

    Yields one (points, weights) slice per Gauss-Legendre node in theta, so a
    caller can accumulate over slices without holding the whole point set.
    For d >= 2 the slice at theta is the (d-1)-ball of radius r cos(theta)
    about center[1:], lifted to x_1 = c_1 + r sin(theta), with its weights
    scaled by (pi/2) w r cos(theta).  For d = 1 the single slice is the
    paneled interval rule of axis_quadrature.
    """
    if len(center) == 1:
        x, w = axis_quadrature(center[0] - r, center[0] + r, nodes, panel_max)
        yield x[:, None], w
        return
    t, wt = _leggauss(nodes)
    for tk, wk in zip(t, wt):
        theta = 0.5 * math.pi * tk
        rho = r * math.cos(theta)
        p, q = _joined(_ball_points(center[1:], rho, nodes, panel_max))
        x1 = np.full((p.shape[0], 1), center[0] + r * math.sin(theta))
        yield np.hstack([x1, p]), (0.5 * math.pi * wk * rho) * q


def _joined(slices):
    """Concatenate (points, weights) slices into one point set."""
    slices = list(slices)
    return np.concatenate([p for p, _ in slices]), np.concatenate([w for _, w in slices])


def region_quadrature(region, rule=DEFAULT_RULE):
    """Full point/weight set for integrating a generic integrand over a region."""
    if region.kind == "ball":
        return _joined(_ball_points(region.center, region.radius, rule.nodes, rule.panel_max))
    axes = [axis_quadrature(c - h, c + h, rule.nodes, rule.panel_max)
            for c, h in zip(region.center, region.half_sides)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    p = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    w = np.ones(p.shape[0])
    for g in wgrids:
        w = w * g.ravel()
    return p, w


@dataclass
class GramMatrix:
    """Symmetric PSD matrix of pairwise L^2(S) inner products of basis functions."""

    basis: BasisIndexSet
    entries: np.ndarray

    def quadratic_form(self, coeffs):
        coeffs = np.asarray(coeffs)
        return float(coeffs @ self.entries @ coeffs)

    def symmetry_defect(self):
        return float(np.max(np.abs(self.entries - self.entries.T)))

    def to_csv(self):
        """CSV with a header row of flat indices; 17 significant digits."""
        n = self.basis.size
        lines = [",".join(str(i) for i in range(n))]
        for row in self.entries:
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text, basis):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        rows = [[float(t) for t in ln.split(",")] for ln in lines[1:]]
        return GramMatrix(basis, np.asarray(rows))


def _alpha_matrix(basis):
    return np.asarray(basis.indices, dtype=int)


def _box_gram(basis, center, half, nodes, panel_max):
    """Tensor-factorized Gram contribution of a box region."""
    d = basis.dimension
    half = np.broadcast_to(np.asarray(half, dtype=float), (d,))
    alph = _alpha_matrix(basis)
    G = np.ones((basis.size, basis.size))
    for j in range(d):
        xj, wj = axis_quadrature(center[j] - half[j], center[j] + half[j], nodes, panel_max)
        P = eval_phi_table(basis.max_degree, xj)
        A = P.T @ (wj[:, None] * P)
        idx = alph[:, j]
        G *= A[np.ix_(idx, idx)]
    return G


def _basis_table(basis, points):
    """Matrix of Phi_alpha(x_i) values at (npoints, d) points, shape (npoints, basis.size)."""
    alph = _alpha_matrix(basis)
    out = np.ones((points.shape[0], basis.size))
    for j in range(basis.dimension):
        out *= eval_phi_table(basis.max_degree, points[:, j])[:, alph[:, j]]
    return out


def _region_gram(basis, region, nodes, rule):
    if region.kind == "box":
        return _box_gram(basis, np.asarray(region.center, dtype=float),
                         region.half_sides, nodes, rule.panel_max)
    # one theta slice at a time: a 3-D ball at 128^3 points would need a GB table
    G = np.zeros((basis.size, basis.size))
    for pts, w in _ball_points(region.center, region.radius, nodes, rule.panel_max):
        T = _basis_table(basis, pts)
        G += T.T @ (w[:, None] * T)
    return G


def gram_over_set(basis, S, rule=DEFAULT_RULE):
    """Gram matrix over a sensor set, adaptively refined by node doubling up to MAX_NODES."""
    if not S.regions:
        return GramMatrix(basis, np.zeros((basis.size, basis.size)))
    nodes = rule.nodes
    prev = cur = sum(_region_gram(basis, r, nodes, rule) for r in S.regions)
    while 2 * nodes <= MAX_NODES:
        nodes *= 2
        cur = sum(_region_gram(basis, r, nodes, rule) for r in S.regions)
        scale = max(1.0, float(np.max(np.abs(cur))))
        if np.max(np.abs(cur - prev)) <= rule.tol * scale:
            cur = 0.5 * (cur + cur.T)  # symmetrize roundoff
            return GramMatrix(basis, cur)
        prev = cur
    raise QuadratureError(
        f"no convergence at {nodes} nodes (doubling stops at {MAX_NODES})",
        previous=prev, current=cur
    )


def _weighted_axis_matrix(max_degree, w):
    """One-dimensional matrix of integrals of exp(2 w t^2) phi_a(t) phi_b(t) dt.

    Substituting u = sqrt(1 - 2w) t absorbs the effective Gaussian weight; the
    remaining integrand is the polynomial part of phi_a phi_b, so scaled
    Gauss-Hermite with max_degree + 2 nodes is exact.
    """
    s = math.sqrt(1.0 - 2.0 * w)
    u, wu = _hermgauss(max_degree + 2)
    t = u / s
    # polynomial part H~_k(t) = phi_k(t) exp(t^2 / 2), by the same recurrence
    H = np.empty((t.size, max_degree + 1))
    H[:, 0] = math.pi ** -0.25
    if max_degree >= 1:
        H[:, 1] = math.sqrt(2.0) * t * H[:, 0]
    for k in range(1, max_degree):
        H[:, k + 1] = math.sqrt(2.0 / (k + 1)) * t * H[:, k] - math.sqrt(k / (k + 1.0)) * H[:, k - 1]
    return (H.T @ (wu[:, None] * H)) / s


def gram_fullspace_weighted(basis, w):
    """Entries integral of exp(2 w |x|^2) Phi_alpha Phi_beta over R^d (w = 0 gives the identity)."""
    if 2.0 * w >= 1.0:
        raise InputError("divergent weight: need 2 w < 1")
    F = _weighted_axis_matrix(basis.max_degree, w)
    alph = _alpha_matrix(basis)
    G = np.ones((basis.size, basis.size))
    for j in range(basis.dimension):
        idx = alph[:, j]
        G *= F[np.ix_(idx, idx)]
    return GramMatrix(basis, G)


def norm2_over_set(f, S, rule=DEFAULT_RULE):
    """Squared L^2(S) norm of a HermiteVector by direct quadrature."""
    total = 0.0
    for region in S.regions:
        pts, wts = region_quadrature(region, rule)
        vals = f.evaluate(pts)
        total += float(wts @ (vals * vals))
    return total


def scaling_identity_check(f, S, t, rule=DEFAULT_RULE):
    """Both sides of ||f||_(L2(S))^2 = integral over t^(1/4) S of t^(-d/4) f(t^(-1/4) x)^2 dx."""
    if t <= 0:
        raise InputError("t must be positive")
    d = f.basis.dimension
    G = gram_over_set(f.basis, S, rule)
    lhs = G.quadratic_form(f.coeffs)
    scale = t ** 0.25
    rhs = 0.0
    for region in S.regions:
        sregion = region.scaled(scale)
        pts, wts = region_quadrature(sregion, rule)
        vals = f.evaluate(pts / scale)
        rhs += float(wts @ (vals * vals)) * t ** (-d / 4.0)
    return lhs, rhs, abs(lhs - rhs)
