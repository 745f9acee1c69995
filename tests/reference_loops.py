"""Loop forms of the array code in hermspec, for the tests to compare against.

The ladder identity, the embedding into a larger basis and the local cell
norms must match their loops bit for bit.  The set factor built box by box and
the pairwise disjointness test are the forms the batched Gram and the array
overlap check replaced; the tests hold those to stated tolerances and to the
same accept/reject decisions.
"""

import math

import numpy as np

from hermspec.basis import BasisIndexSet, HermiteVector
from hermspec.basis import eval_phi_table
from hermspec.gram import (DEFAULT_RULE, _alpha_matrix, _ball_rows, _basis_table, _square,
                           _triangle, axis_quadrature, region_quadrature)


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


def embedded_loop(f, max_degree):
    """f in the basis of degree max_degree, one coefficient at a time."""
    target = BasisIndexSet(f.basis.dimension, max_degree)
    pos = _positions(target)
    c = np.zeros(target.size)
    for coef, alpha in zip(f.coeffs, f.basis.indices):
        c[pos[alpha]] = coef
    return HermiteVector(target, c)


class LoopCellContext:
    """Each cell's own quadrature and basis table; norms by one product per cell."""

    def __init__(self, covering, d, eval_degree, rule=DEFAULT_RULE):
        self.covering = covering
        self.eval_basis = BasisIndexSet(d, eval_degree)
        self.cells = []
        for region in covering.elements:
            pts, wts = region_quadrature(region, rule)
            self.cells.append((wts, _basis_table(self.eval_basis, pts)))

    def cell_norms2(self, columns):
        out = np.empty((len(self.cells), columns.shape[1]))
        for k, (wts, table) in enumerate(self.cells):
            vals = table @ columns
            out[k] = wts @ (vals * vals)
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


def set_factor_loop(basis, S, nodes):
    """R_S folded one region at a time, in the set's order, one QR per box."""
    R = np.empty((0, basis.size))
    for region in S.regions:
        blocks = ([box_triangle_loop(basis, region, nodes)] if region.kind == "box"
                  else _ball_rows(basis, region, nodes))
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
