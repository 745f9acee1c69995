"""Loop forms of the array code in hermspec, for the tests to compare against.

The ladder identity and the embedding into a larger basis must match their
loops bit for bit, and so must the chord rule of a ball against its recursive
point form.  The per-cell quadrature tables, the set factor built box by box
and point row by point row, and the pairwise disjointness test are the forms
the per-cell Gram triangles, the batched Gram, the chord triangles and the
array overlap check replaced; the tests hold those to stated tolerances and to
the same accept/reject decisions.  The covering's broadcast ball marking must
match the lean marking that replaced it bit for bit.  The pointwise tensor
function, the iterated derivative, the covering's overlap count and the
time-quadrature observability Gramian are oracles only the tests use.
"""

import math

import numpy as np

from hermspec.basis import BasisIndexSet, HermiteVector
from hermspec.basis import derivative_operator, eval_phi_table
from hermspec import gram
from hermspec.gram import (QR_BLOCK_ROWS, GramMatrix, _alpha_matrix, _basis_table, _leggauss,
                           _square, _triangle, axis_quadrature, region_quadrature,
                           region_triangles)


def _positions(basis):
    return {alpha: i for i, alpha in enumerate(basis.indices)}


def derivative_operator_loop(f, axis):
    """d/dx_axis f, one coefficient at a time, zeros skipped."""
    d = f.basis.dimension
    target = BasisIndexSet(d, f.basis.max_degree + 1)
    pos = _positions(target)
    out = np.zeros(target.size)
    for coef, alpha in zip(f.coeffs, f.basis.indices):
        if coef == 0.0:
            continue
        k = alpha[axis]
        if k > 0:
            down = alpha[:axis] + (k - 1,) + alpha[axis + 1:]
            out[pos[down]] += coef * math.sqrt(k / 2.0)
        up = alpha[:axis] + (k + 1,) + alpha[axis + 1:]
        out[pos[up]] -= coef * math.sqrt((k + 1) / 2.0)
    return HermiteVector(target, out)


def eval_Phi(alpha, x):
    """Tensor Hermite function Phi_alpha at the (n, d) points x, one axis factor at a time."""
    out = np.ones(x.shape[0])
    for j, aj in enumerate(alpha):
        out = out * eval_phi_table(aj, x[:, j])[:, aj]
    return out


def observability_gramian_quadrature(G_S, basis, T, nodes=100):
    """The observability Gramian G_S[a,b] int_0^T exp(-(lam_a + lam_b) t) dt by Gauss-Legendre in t."""
    x, w = _leggauss(nodes)
    t = 0.5 * T * (x + 1.0)
    w = 0.5 * T * w
    lam = basis.semigroup_eigenvalues()
    lsum = lam[:, None] + lam[None, :]
    B = np.zeros_like(G_S.entries)
    for ti, wi in zip(t, w):
        B += wi * np.exp(-lsum * ti)
    return GramMatrix(basis, G_S.entries * B)


def derivative_multi(f, alpha):
    """Iterated exact derivative d^alpha f, one ladder step at a time."""
    for axis, reps in enumerate(alpha):
        for _ in range(reps):
            f = derivative_operator(f, axis)
    return f


def overlap_at(covering, points):
    """Number of covering elements containing each of the (n, d) points."""
    return sum(r.contains(points).astype(int) for r in covering.elements)


def embedded_loop(f, max_degree):
    """f in the basis of degree max_degree, one coefficient at a time."""
    target = BasisIndexSet(f.basis.dimension, max_degree)
    pos = _positions(target)
    c = np.zeros(target.size)
    for coef, alpha in zip(f.coeffs, f.basis.indices):
        c[pos[alpha]] = coef
    return HermiteVector(target, c)


class LoopCellContext:
    """Each cell's own quadrature (at gram.CELL_NODES) and basis table; one product per cell."""

    def __init__(self, covering, d, eval_degree):
        self.covering = covering
        self.eval_basis = BasisIndexSet(d, eval_degree)
        self.cells = []
        for region in covering.elements:
            pts, wts = region_quadrature(region, gram.CELL_NODES)
            self.cells.append((wts, _basis_table(self.eval_basis, pts)))

    def cell_norms2(self, columns):
        out = np.empty((len(self.cells), columns.shape[1]))
        for k, (wts, table) in enumerate(self.cells):
            vals = table @ columns
            out[k] = wts @ (vals * vals)
        return out


class TriangleLoopCellContext:
    """Each cell's Gram triangle at gram.CELL_NODES, built cells_per_call cells at a time.

    Norms are taken one cell at a time.
    """

    def __init__(self, covering, d, eval_degree, cells_per_call=1):
        basis, cells, nodes = BasisIndexSet(d, eval_degree), covering.elements, gram.CELL_NODES
        self.triangles = [T for s in range(0, len(cells), cells_per_call)
                          for T in region_triangles(basis, cells[s:s + cells_per_call], nodes)]

    def cell_norms2(self, columns):
        out = np.empty((len(self.triangles), columns.shape[1]))
        for k, T in enumerate(self.triangles):
            vals = T @ columns
            out[k] = np.einsum("ij,ij->j", vals, vals)
        return out


def box_triangle_loop(basis, region, nodes):
    """n x n upper triangle of one box: the Hadamard product of its axis triangles."""
    alph = _alpha_matrix(basis)
    F = np.ones((basis.size, basis.size))
    for j, (c, h) in enumerate(zip(region.center, region.half_sides)):
        x, w = axis_quadrature(c - h, c + h, nodes)
        P = np.sqrt(w)[:, None] * eval_phi_table(basis.max_degree, x)
        idx = alph[:, j]
        F *= _square(_triangle(np.empty((0, P.shape[1])), P))[np.ix_(idx, idx)]
    return F


def ball_points_loop(center, r, nodes):
    """Chord-rule points (n, d) and weights on the ball |x - center| <= r, by recursion.

    Yields (points, weights) batches of whole theta slices, each batch but the
    last at least QR_BLOCK_ROWS points.  For d >= 2 the slice at a
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
        p, q = joined(ball_points_loop(center[1:], rho, nodes))
        x1 = np.full((p.shape[0], 1), center[0] + r * math.sin(theta))
        batch.append((np.hstack([x1, p]), (0.5 * math.pi * wk * rho) * q))
        if sum(len(w) for _, w in batch) >= QR_BLOCK_ROWS:
            yield joined(batch)
            batch = []
    if batch:
        yield joined(batch)


def joined(slices):
    """Concatenate (points, weights) slices into one point set."""
    slices = list(slices)
    return np.concatenate([p for p, _ in slices]), np.concatenate([w for _, w in slices])


def ball_rows_loop(basis, region, nodes):
    """Row blocks of a ball, one row sqrt(w) Phi(x) per rule point, a batch of slices at a time."""
    for pts, w in ball_points_loop(region.center, region.radius, nodes):
        yield np.sqrt(w)[:, None] * _basis_table(basis, pts)


def set_factor_loop(basis, S, nodes):
    """R_S folded one region at a time, in set order: one QR per box, a row per ball point."""
    R = np.empty((0, basis.size))
    for region in S.regions:
        blocks = ([box_triangle_loop(basis, region, nodes)] if region.kind == "box"
                  else ball_rows_loop(basis, region, nodes))
        for F in blocks:
            R = _triangle(R, F)
    return _square(R)


def interiors_disjoint(a, b):
    """True if the interiors of the two regions can be certified disjoint.

    Box/box and ball/ball are exact; box/ball uses the exact distance from the
    box to the ball center.
    """
    ca, cb = np.asarray(a.center), np.asarray(b.center)
    if a.kind == "box" and b.kind == "box":
        gap = np.abs(ca - cb) - (np.asarray(a.half_sides) + np.asarray(b.half_sides))
        return bool(np.any(gap >= -1e-12))
    if a.kind == "ball" and b.kind == "ball":
        return float(np.linalg.norm(ca - cb)) >= a.radius + b.radius - 1e-12
    box, ball = (a, b) if a.kind == "box" else (b, a)
    delta = np.maximum(np.abs(np.asarray(ball.center) - np.asarray(box.center))
                       - np.asarray(box.half_sides), 0.0)
    return float(np.linalg.norm(delta)) >= ball.radius - 1e-12


def first_overlap_loop(regions):
    """First pair (i, j), i < j, that interiors_disjoint cannot certify, or None."""
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if not interiors_disjoint(regions[i], regions[j]):
                return i, j
    return None


def mark_ball_broadcast(overlap, center, radius, h, n):
    """Bump the overlap count of the grid points within the ball, bounds and offsets as arrays."""
    d = len(center)
    lo = np.maximum(np.floor((center - radius) / h).astype(np.int64), -n)
    hi = np.minimum(np.ceil((center + radius) / h).astype(np.int64), n)
    box = tuple(slice(a + n, b + n + 1) for a, b in zip(lo, hi))
    dist2 = sum((np.arange(lo[j], hi[j] + 1) * h - center[j]).reshape(
        [-1 if k == j else 1 for k in range(d)]) ** 2 for j in range(d))
    overlap[box] += dist2 <= radius ** 2
