"""Tensor Hermite basis on R^d: enumeration, evaluation, derivatives, eigenvalues.

The one-dimensional functions phi_k are the orthonormal eigenfunctions of
-d^2/dt^2 + t^2 with eigenvalue 2k+1.  They are evaluated with the stable
forward recurrence

    phi_0(t)     = pi^(-1/4) exp(-t^2/2)
    phi_{k+1}(t) = sqrt(2/(k+1)) t phi_k(t) - sqrt(k/(k+1)) phi_{k-1}(t),

which also provides the entire extension for complex arguments.  The tensor
basis Phi_alpha(x) = prod_j phi_{alpha_j}(x_j) is indexed by multi-indices of
total degree at most N, enumerated in graded lexicographic order.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError

_PI_QUARTER = math.pi ** -0.25


@lru_cache(maxsize=None)
def _index_tuple(d, max_degree):
    """All alpha in N_0^d with |alpha| <= max_degree in graded lex order, built once per (d, N).

    Graded order makes the degree-N enumeration a prefix of every larger one.
    """
    if d < 1 or max_degree < 0:
        raise InputError(f"need d >= 1 and max_degree >= 0, got d={d}, N={max_degree}")
    out = []
    for n in range(max_degree + 1):
        out.extend(_compositions(n, d))
    return tuple(out)


@lru_cache(maxsize=None)
def _position_map(d, max_degree):
    """alpha -> its position in the degree-N enumeration."""
    return {alpha: i for i, alpha in enumerate(_index_tuple(d, max_degree))}


def _compositions(n, d):
    """Weak compositions of n into d parts, lexicographically increasing."""
    if d == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        out.extend((first,) + rest for rest in _compositions(n - first, d - 1))
    return out


@dataclass(frozen=True)
class BasisIndexSet:
    """Ordered enumeration of the multi-indices spanning degree <= N in dimension d."""

    dimension: int
    max_degree: int
    # fixed by (dimension, max_degree), so it takes no part in equality or hashing
    indices: tuple = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "indices", _index_tuple(self.dimension, self.max_degree))

    @property
    def size(self):
        return len(self.indices)

    def position(self, alpha):
        return _position_map(self.dimension, self.max_degree)[tuple(alpha)]

    def degrees(self):
        return np.array([sum(a) for a in self.indices])

    def semigroup_eigenvalues(self):
        """Eigenvalues 2|alpha| + d of -Delta + |x|^2 in enumeration order."""
        return 2.0 * self.degrees() + self.dimension


def eval_phi_table(kmax, t):
    """Values of phi_0..phi_kmax at the points t; shape t.shape + (kmax+1,)."""
    t = np.asarray(t)
    if not np.all(np.isfinite(t)):
        raise InputError("non-finite evaluation point")
    dtype = complex if np.iscomplexobj(t) else float
    out = np.empty(t.shape + (kmax + 1,), dtype=dtype)
    out[..., 0] = _PI_QUARTER * np.exp(-0.5 * t * t)
    if kmax >= 1:
        out[..., 1] = math.sqrt(2.0) * t * out[..., 0]
    for k in range(1, kmax):
        out[..., k + 1] = (
            math.sqrt(2.0 / (k + 1)) * t * out[..., k]
            - math.sqrt(k / (k + 1.0)) * out[..., k - 1]
        )
    return out


@dataclass
class HermiteVector:
    """An element of E_N given by its coefficients in the orthonormal tensor basis."""

    basis: BasisIndexSet
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.size,):
            raise InputError(
                f"coefficient vector has length {self.coeffs.shape}, basis has {self.basis.size}"
            )

    def norm2(self):
        """Squared L^2(R^d) norm (orthonormality)."""
        return float(self.coeffs @ self.coeffs)

    def evaluate(self, points):
        """Evaluate at an (n, d) array of real or complex points (or (n,) for d=1)."""
        points = np.asarray(points)
        if self.basis.dimension == 1 and points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2 or points.shape[1] != self.basis.dimension:
            raise InputError("points must have shape (n, d)")
        tables = [
            eval_phi_table(self.basis.max_degree, points[:, j])
            for j in range(self.basis.dimension)
        ]
        out = np.zeros(points.shape[0], dtype=tables[0].dtype)
        for c, alpha in zip(self.coeffs, self.basis.indices):
            if c == 0.0:
                continue
            term = np.full(points.shape[0], c, dtype=out.dtype)
            for j, aj in enumerate(alpha):
                term = term * tables[j][:, aj]
            out += term
        return out

    def embedded(self, max_degree):
        """Same function viewed in the basis of degree max_degree >= self degree."""
        if max_degree < self.basis.max_degree:
            raise InputError("cannot embed into a smaller basis")
        target = BasisIndexSet(self.basis.dimension, max_degree)
        # graded order: the smaller basis is a prefix of the larger one
        c = np.zeros(target.size)
        c[:self.basis.size] = self.coeffs
        return HermiteVector(target, c)


def derivative_operator(f, axis):
    """Exact partial derivative d/dx_axis of f, as a HermiteVector of degree N+1.

    Uses the ladder identity phi_k' = sqrt(k/2) phi_{k-1} - sqrt((k+1)/2) phi_{k+1}
    coordinate-wise; axis is 0-based.  Output entry beta gets at most two
    terms, summed in this order: -c sqrt((k+1)/2) from the earlier index
    beta - e_axis, then c sqrt(k/2) from the later index beta + e_axis.
    """
    d = f.basis.dimension
    if not 0 <= axis < d:
        raise InputError(f"axis {axis} outside 0..{d - 1}")
    N = f.basis.max_degree
    up, up_factor, has_down, down, down_factor = _ladder_maps(d, N, axis)
    target = BasisIndexSet(d, N + 1)
    out = np.zeros(target.size)
    out[up] -= f.coeffs * up_factor
    out[down] += f.coeffs[has_down] * down_factor
    return HermiteVector(target, out)


@lru_cache(maxsize=None)
def _ladder_maps(d, max_degree, axis):
    """Target positions and factors of the ladder identity from degree N to N + 1.

    up[i] is the position of alpha_i + e_axis, with factor sqrt((k+1)/2);
    has_down selects the alpha_i with k = alpha_i[axis] > 0, and down holds
    the position of alpha_i - e_axis, with factor sqrt(k/2).  Both position
    maps are injective.
    """
    target = _position_map(d, max_degree + 1)
    alphas = np.array(_index_tuple(d, max_degree), dtype=np.int64).reshape(-1, d)
    k = alphas[:, axis]
    step = np.zeros(d, dtype=np.int64)
    step[axis] = 1
    up = np.array([target[tuple(a)] for a in (alphas + step).tolist()], dtype=np.int64)
    has_down = k > 0
    down = np.array([target[tuple(a)] for a in (alphas[has_down] - step).tolist()],
                    dtype=np.int64)
    return _frozen((up, np.sqrt((k + 1) / 2.0), has_down, down, np.sqrt(k[has_down] / 2.0)))


def _frozen(arrays):
    """The arrays, made read-only: a cached table is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays
