"""Quadrature engine: Gram matrices of Hermite basis functions over sensor sets.

Boxes are integrated by tensor Gauss-Legendre with per-axis panel splitting
(long boxes are cut into panels of bounded length so that the fixed node count
resolves the Gaussian factor).  Balls use the chord rule: the first coordinate
is x_1 = c_1 + r sin(theta) with Gauss-Legendre nodes in theta, and each node
carries the (d-1)-ball of radius r cos(theta), down to a paneled interval in
one dimension; the substitution removes the square-root ends of the chords,
so the integrand is smooth in theta.

Every region yields rows F with F^T F equal to its Gram: sqrt(w) times the
basis table for a batch of ball slices, and for a box the Hadamard product of
the per-axis triangles qr(sqrt(w) phi(x)).  Boxes are batched: per axis, one
Hermite table and one stacked QR serve a chunk of QR_BLOCK_ROWS // n boxes,
and the chunk's triangles are folded pairwise into one.  Householder QR
compresses all rows of a set into one n x n upper triangle R_S with
G_S = R_S^T R_S, so every Gram is PSD by construction and its smallest
eigenvalue is sigma_min(R_S)^2.
Full-space weighted Grams use scaled Gauss-Hermite nodes with the Gaussian
weight absorbed analytically, which is exact for the polynomial factors.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisIndexSet, _frozen, eval_phi_table
from .errors import InputError, QuadratureError


# Node doubling stops here: Gauss-Legendre nodes come from an n x n eigenproblem
# (numpy leggauss takes about 0.7 s at 2048 nodes and 4.5 s at 4096).
MAX_NODES = 2048
# Longest panel of an axis rule: the fixed node count then resolves the Gaussian.
PANEL_MAX = 4.0
# Rows per Householder QR update; larger blocks raise peak memory.
QR_BLOCK_ROWS = 512


@dataclass(frozen=True)
class QuadratureRule:
    nodes: int = 64
    tol: float = 1e-11

    def __post_init__(self):
        if not 1 <= self.nodes <= MAX_NODES:
            raise InputError(f"nodes must be between 1 and {MAX_NODES}")
        if self.tol <= 0:
            raise InputError("tol must be positive")


DEFAULT_RULE = QuadratureRule()


@lru_cache(maxsize=64)
def _leggauss(n):
    return _frozen(np.polynomial.legendre.leggauss(n))


@lru_cache(maxsize=64)
def _hermgauss(n):
    return _frozen(np.polynomial.hermite.hermgauss(n))


def _panel_rule(a, b, panels, nodes):
    """Gauss-Legendre nodes and weights on [a, b] cut into equal panels.

    a and b may be arrays of k intervals; the rule then has shape (k, panels * nodes).
    """
    x, w = _leggauss(nodes)
    edges = np.linspace(a, b, panels + 1).T  # axis=-1 would cost a moveaxis per chord
    half = ((edges[..., 1:] - edges[..., :-1]) / 2.0)[..., None]
    mid = ((edges[..., 1:] + edges[..., :-1]) / 2.0)[..., None]
    shape = np.shape(a) + (-1,)
    return (half * x + mid).reshape(shape), (half * w).reshape(shape)


def axis_quadrature(a, b, nodes):
    """Gauss-Legendre nodes and weights on [a, b], cut into equal panels of at most PANEL_MAX."""
    return _panel_rule(a, b, max(1, math.ceil((b - a) / PANEL_MAX)), nodes)


def _ball_points(center, r, nodes):
    """Chord-rule points (n, d) and weights on the ball |x - center| <= r.

    Yields (points, weights) batches of whole theta slices, each batch but the
    last at least QR_BLOCK_ROWS points, so a caller can accumulate over them
    without holding the whole point set.  For d >= 2 the slice at a
    Gauss-Legendre node theta is the (d-1)-ball of radius r cos(theta) about
    center[1:], lifted to x_1 = c_1 + r sin(theta), with its weights scaled by
    (pi/2) w r cos(theta).  For d = 1 the single slice is the paneled interval
    rule of axis_quadrature.
    """
    if len(center) == 1:
        x, w = axis_quadrature(center[0] - r, center[0] + r, nodes)
        yield x[:, None], w
        return
    t, wt = _leggauss(nodes)
    batch = []
    for tk, wk in zip(t, wt):
        theta = 0.5 * math.pi * tk
        rho = r * math.cos(theta)
        p, q = _joined(_ball_points(center[1:], rho, nodes))
        x1 = np.full((p.shape[0], 1), center[0] + r * math.sin(theta))
        batch.append((np.hstack([x1, p]), (0.5 * math.pi * wk * rho) * q))
        if sum(len(w) for _, w in batch) >= QR_BLOCK_ROWS:
            yield _joined(batch)
            batch = []
    if batch:
        yield _joined(batch)


def _joined(slices):
    """Concatenate (points, weights) slices into one point set."""
    slices = list(slices)
    return np.concatenate([p for p, _ in slices]), np.concatenate([w for _, w in slices])


def region_quadrature(region, rule=DEFAULT_RULE):
    """Full point/weight set for integrating a generic integrand over a region."""
    if region.kind == "ball":
        return _joined(_ball_points(region.center, region.radius, rule.nodes))
    x, w = zip(*(axis_quadrature(c - h, c + h, rule.nodes)
                 for c, h in zip(region.center, region.half_sides)))
    p = np.stack([g.ravel() for g in np.meshgrid(*x, indexing="ij")], axis=1)
    return p, np.prod(np.meshgrid(*w, indexing="ij"), axis=0).ravel()


@dataclass
class GramMatrix:
    """Symmetric PSD matrix of pairwise L^2(S) inner products of basis functions.

    factor, when known, is an upper triangle R with entries = R^T R.
    """

    basis: BasisIndexSet
    entries: np.ndarray
    factor: np.ndarray = None

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


def _basis_table(basis, points):
    """Matrix of Phi_alpha(x_i) values at (npoints, d) points, shape (npoints, basis.size)."""
    alph = _alpha_matrix(basis)
    out = np.ones((points.shape[0], basis.size))
    for j in range(basis.dimension):
        out *= eval_phi_table(basis.max_degree, points[:, j])[:, alph[:, j]]
    return out


def _triangle(R, rows):
    """Upper triangle T with T^T T = R^T R + rows^T rows, by blockwise Householder QR."""
    for i in range(0, rows.shape[0], QR_BLOCK_ROWS):
        R = np.linalg.qr(np.vstack([R, rows[i:i + QR_BLOCK_ROWS]]), mode="r")
    return R


def _square(R):
    """Pad a k x n upper trapezoid (k <= n) with zero rows to an n x n triangle."""
    return np.vstack([R, np.zeros((R.shape[1] - R.shape[0], R.shape[1]))])


def _ball_rows(basis, region, nodes):
    """Row blocks F of a ball whose F^T F sum to its Gram, a batch of theta slices at a time."""
    # a batch at a time: a 3-D ball at 128^3 points would need a GB table
    for pts, w in _ball_points(region.center, region.radius, nodes):
        yield np.sqrt(w)[:, None] * _basis_table(basis, pts)


def _axis_triangles(max_degree, a, b, nodes):
    """Stacked upper triangles R_i, shape (k, m, m), with R_i^T R_i = int_{a_i}^{b_i} phi phi^T.

    The intervals are grouped by panel count; each group's rows sqrt(w) phi(x)
    go through one stacked Householder QR, QR_BLOCK_ROWS rows per interval at a
    time, so a tall multi-panel axis is never held whole.
    """
    m = max_degree + 1
    out = np.zeros((len(a), m, m))
    panels = np.maximum(1, np.ceil((b - a) / PANEL_MAX)).astype(int)
    for p in sorted(set(panels.tolist())):  # np.unique: 10 ms and 0.6 MB on first call
        sel = panels == p
        pts, w = _panel_rule(a[sel], b[sel], p, nodes)
        sw = np.sqrt(w)
        R = np.empty((len(pts), 0, m))
        for i in range(0, pts.shape[1], QR_BLOCK_ROWS):
            rows = sw[:, i:i + QR_BLOCK_ROWS, None] * eval_phi_table(
                max_degree, pts[:, i:i + QR_BLOCK_ROWS])
            R = np.linalg.qr(np.concatenate([R, rows], axis=1), mode="r")
        out[sel, :R.shape[1]] = R  # fewer rows than m leave a trapezoid
    return out


def _fold(F):
    """Upper triangle T with T^T T = sum_i F_i^T F_i over a stack F of (k, n, n) triangles.

    Pairs are merged by one stacked QR per level, so every QR stays 2n x n:
    OpenBLAS runs taller ones on several threads, which on two cores made
    one QR over all of a chunk's rows slower per box than box-by-box QRs.
    """
    n = F.shape[-1]
    while len(F) > 1:
        even = len(F) - len(F) % 2
        F = np.concatenate([np.linalg.qr(F[:even].reshape(-1, 2 * n, n), mode="r"), F[even:]])
    return F[0]


def _box_rows(basis, boxes, nodes):
    """Row blocks F of a list of boxes whose F^T F sum to their Gram.

    A box Gram is the Hadamard product of per-axis moment matrices A_j = R_j^T R_j;
    R_j is upper triangular and the basis graded, so the Hadamard product of the
    R_j[alpha_j, beta_j] is an n x n upper triangle whose Gram is that product.
    The triangles of QR_BLOCK_ROWS // n boxes at a time are built together and
    folded into one.
    """
    n, m = basis.size, basis.max_degree + 1
    alph = _alpha_matrix(basis)
    flat = [(alph[:, j, None] * m + alph[:, j]).ravel() for j in range(basis.dimension)]
    step = max(1, QR_BLOCK_ROWS // n)
    for s in range(0, len(boxes), step):
        c = np.array([box.center for box in boxes[s:s + step]])
        h = np.array([box.half_sides for box in boxes[s:s + step]])
        F = np.ones((len(c), n * n))
        for j in range(basis.dimension):
            R = _axis_triangles(basis.max_degree, c[:, j] - h[:, j], c[:, j] + h[:, j], nodes)
            F *= R.reshape(len(c), m * m)[:, flat[j]]
        yield _fold(F.reshape(len(c), n, n))


def _set_factor(basis, S, nodes):
    """n x n upper triangle R_S with R_S^T R_S the Gram of S at this node count."""
    R = np.empty((0, basis.size))
    for F in _box_rows(basis, [r for r in S.regions if r.kind == "box"], nodes):
        R = _triangle(R, F)
    for region in S.regions:
        if region.kind == "ball":
            for F in _ball_rows(basis, region, nodes):
                R = _triangle(R, F)
    return _square(R)


def gram_over_set(basis, S, rule=DEFAULT_RULE):
    """Gram matrix over a sensor set and its factor, refined by node doubling up to MAX_NODES."""
    nodes = rule.nodes
    R = _set_factor(basis, S, nodes)
    prev = cur = R.T @ R
    while 2 * nodes <= MAX_NODES:
        nodes *= 2
        R = _set_factor(basis, S, nodes)
        cur = R.T @ R
        scale = max(1.0, float(np.max(np.abs(cur))))
        if np.max(np.abs(cur - prev)) <= rule.tol * scale:
            return GramMatrix(basis, 0.5 * (cur + cur.T), R)  # symmetrize roundoff
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
    H = eval_phi_table(max_degree, t) * np.exp(0.5 * t * t)[:, None]  # polynomial parts
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
    if not 0 < t < math.inf:
        raise InputError("t must be positive and finite")
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
