"""Per-coefficient and per-cell loops that the array code in hermspec must match bit for bit.

They are the straightforward forms of the ladder identity, of the embedding
into a larger basis and of the local cell norms; the tests compare the
library's results with them by their bytes.
"""

import math

import numpy as np

from hermspec.basis import BasisIndexSet, HermiteVector
from hermspec.gram import DEFAULT_RULE, _basis_table, region_quadrature


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
