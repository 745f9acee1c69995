"""Quadrature engine: Gram matrices of Hermite basis functions over sensor sets.

Boxes are integrated by tensor Gauss-Legendre, each axis cut into panels of at
most PANEL_MAX so that the fixed node count resolves the Gaussian.  Balls use
the chord rule: x_1 = c_1 + r sin(theta) at Gauss-Legendre nodes in theta leaves
the (d-1)-ball of radius r cos(theta), down to nodes^(d-1) chords along x_d; the
substitution removes the square-root ends, so the integrand is smooth in theta.

Every region yields rows F with F^T F equal to its Gram.  A box gives the n x n
Hadamard product of its per-axis triangles qr(sqrt(w) phi(x)), QR_BLOCK_ROWS // n
boxes at a time folded pairwise.  A chord gives N + 1 rows: its weight and basis
values in x' times its interval's axis triangle.  Householder QR compresses a
set's rows into one triangle R_S, G_S = R_S^T R_S, so each Gram is PSD and
lam_min = sigma_min(R_S)^2.  region_triangles keeps one such triangle per region
instead, for the local masses of covering cells.

This module owns every node count and tolerance.  A set's factor is built at
NODES and checked to QUAD_TOL against closed-form moments int_a^b phi_p phi_q:
exact for boxes, the chord rule on two panels of the theta rule with exact
chords for balls; on a failed check the node count doubles, up to MAX_NODES.
Cell triangles are built at CELL_NODES and not checked.  Full-space weighted
Grams use scaled Gauss-Hermite nodes, exact for polynomials.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .basis import BasisIndexSet, _frozen, eval_phi_table
from .errors import InputError, QuadratureError


# A set's factor starts at NODES Gauss-Legendre nodes per panel and must meet its
# reference to QUAD_TOL * max(1, max|ref|).
NODES, QUAD_TOL = 64, 1e-11
# Node doubling stops here: Gauss-Legendre nodes come from an n x n eigenproblem
# (numpy leggauss takes about 0.7 s at 2048 nodes and 4.5 s at 4096).
MAX_NODES = 2048
# Nodes per panel of a covering cell's Gram triangle, which nothing checks.
CELL_NODES = 48
# Longest panel of an axis rule: the fixed node count then resolves the Gaussian.
PANEL_MAX = 4.0
# Rows per Householder QR update; larger blocks raise peak memory.
QR_BLOCK_ROWS = 512
# Rule points behind one chunk of ball chords, and (N + 1) times the chords in
# one chunk of a ball's reference; larger chunks raise peak memory.
CHORD_POINTS = 2048
# Caps on the panels of an axis rule (the half-line window has 74) and region_quadrature points.
MAX_PANELS, MAX_RULE_POINTS = 1024, 2 ** 24


@lru_cache(maxsize=64)
def _leggauss(n):
    return _frozen(np.polynomial.legendre.leggauss(n))


@lru_cache(maxsize=64)
def _hermgauss(n):
    return _frozen(np.polynomial.hermite.hermgauss(n))


def _panel_rule(a, b, panels, nodes):
    """Gauss-Legendre rule on [a, b] in equal panels; k intervals give shape (k, panels * nodes)."""
    x, w = _leggauss(nodes)
    edges = np.linspace(a, b, panels + 1).T  # axis=-1 would cost a moveaxis per chord
    half = ((edges[..., 1:] - edges[..., :-1]) / 2.0)[..., None]
    mid = ((edges[..., 1:] + edges[..., :-1]) / 2.0)[..., None]
    shape = np.shape(a) + (-1,)
    return (half * x + mid).reshape(shape), (half * w).reshape(shape)


def axis_quadrature(a, b, nodes):
    """Gauss-Legendre nodes and weights on [a, b], cut into equal panels of at most PANEL_MAX."""
    return _panel_rule(a, b, max(1, math.ceil((b - a) / PANEL_MAX)), nodes)


def _ball_chords(center, r, nodes, panels=1):
    """The (panels * nodes)^(d-1) chords of the chord rule on |x - center| <= r: x', factors, a, b.

    Level j sets x_j = c_j + rho sin(theta) at theta = (pi/2) t for the Gauss-Legendre
    nodes t of `panels` equal panels of [-1, 1], leaving radius rho cos(theta) and a
    weight factor (pi/2) w rho cos(theta); a chord's d-1 factors (outermost first)
    multiply to its weight.  A 1-D ball is one chord.
    """
    t, w = _panel_rule(-1.0, 1.0, panels, nodes)
    theta, w = 0.5 * math.pi * t, 0.5 * math.pi * w  # math.sin, as the recursion: same bits
    sin, cos = (np.array([fn(v) for v in theta]) for fn in (math.sin, math.cos))
    rho, x, f = np.array([float(r)]), np.empty((1, 0)), np.empty((1, 0))
    for c in center[:-1]:
        x = np.column_stack([np.repeat(x, len(t), axis=0), (c + np.outer(rho, sin)).ravel()])
        rho = np.outer(rho, cos).ravel()
        f = np.column_stack([np.repeat(f, len(t), axis=0), np.tile(w, len(f)) * rho])
    return x, f, center[-1] - rho, center[-1] + rho


def _check_size(regions, nodes, max_points=math.inf):
    """Raise InputError if the longest region's rule passes MAX_PANELS on an axis or max_points.

    The panel cap binds first on the longest side; the error names that
    region and carries its index.
    """
    if not regions:
        return
    k = max(range(len(regions)), key=lambda i: max(regions[i].bounding_halfwidths()))
    region = regions[k]
    sides = region.side_lengths()  # a ball has nodes^(d-1) chords, none longer than its diameter
    panels = [max(1, math.ceil(min(s, PANEL_MAX * (MAX_PANELS + 1)) / PANEL_MAX)) for s in sides]
    points = nodes ** len(sides) * (panels[0] if region.kind == "ball" else math.prod(panels))
    if max(panels) > MAX_PANELS or points > max_points:
        cap = f"{max_points} points" if points > max_points else f"{MAX_PANELS} panels per axis"
        raise InputError(f"{region.kind} {region.center} {region.radius or region.half_sides}: "
                         f"its quadrature rule at {nodes} nodes passes the cap of {cap}", (k,))


def region_quadrature(region, nodes):
    """Points and weights at nodes per panel for integrating a generic integrand over a region."""
    _check_size([region], nodes, MAX_RULE_POINTS)
    if region.dimension == 1:  # an interval, be it a box or a ball
        (c,), (h,) = region.center, region.bounding_halfwidths()
        x, w = axis_quadrature(c - h, c + h, nodes)
        return x[:, None], w
    if region.kind == "ball":
        x, f, a, b = _ball_chords(region.center, region.radius, nodes)
        pts, wts = [], []
        for xk, fk, ak, bk in zip(x, f, a, b):
            t, w = axis_quadrature(ak, bk, nodes)
            for fj in fk[::-1]:  # innermost level first, as the recursive rule did
                w = fj * w
            pts.append(np.column_stack([np.tile(xk, (len(t), 1)), t]))
            wts.append(w)
        return np.concatenate(pts), np.concatenate(wts)
    x, w = zip(*(axis_quadrature(c - h, c + h, nodes)
                 for c, h in zip(region.center, region.half_sides)))
    p = np.stack([g.ravel() for g in np.meshgrid(*x, indexing="ij")], axis=1)
    return p, np.prod(np.meshgrid(*w, indexing="ij"), axis=0).ravel()


@dataclass
class GramMatrix:
    """Symmetric PSD matrix of L^2(S) inner products of basis functions; factor: R^T R = entries."""

    basis: BasisIndexSet
    entries: np.ndarray
    factor: np.ndarray = None

    def quadratic_form(self, coeffs):
        return float(np.asarray(coeffs) @ self.entries @ np.asarray(coeffs))

    def symmetry_defect(self):
        return float(np.max(np.abs(self.entries - self.entries.T)))


def _alpha_matrix(basis):
    return np.asarray(basis.indices, dtype=int)


def _basis_table(basis, points):
    """Table (npoints, basis.size) of prod_j phi_(alpha_j)(x_ij) over the k <= d columns of x."""
    alph = _alpha_matrix(basis)
    out = np.ones((points.shape[0], basis.size))
    for j in range(points.shape[1]):
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
    """Row blocks F of a ball whose F^T F sum to its Gram, N + 1 rows per chord.

    Chord k adds W_k phi(x'_k) phi(x'_k)^T o R_k^T R_k to the Gram, with R_k
    the axis triangle of its last coordinate on [a_k, b_k]; its rows are
    sqrt(W_k) prod_{j<d} phi_{alpha_j}(x'_kj) R_k[:, alpha_d].  Chunks of
    chords behind about CHORD_POINTS rule points are built at a time.
    """
    x, f, a, b = _ball_chords(region.center, region.radius, nodes)
    ends = np.cumsum(np.maximum(1, np.ceil((b - a) / PANEL_MAX))) * nodes
    cuts = [0, *(np.flatnonzero(np.diff((ends - 1) // CHORD_POINTS)) + 1), len(a)]
    for s, e in zip(cuts[:-1], cuts[1:]):
        u = np.sqrt(np.prod(f[s:e], axis=1))[:, None] * _basis_table(basis, x[s:e])
        R = _axis_triangles(basis.max_degree, a[s:e], b[s:e], nodes)
        yield (u[:, None, :] * R[:, :, _alpha_matrix(basis)[:, -1]]).reshape(-1, basis.size)


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


def _interval_moments(max_degree, a, b):
    """Exact matrices M_i[p, q] = int_{a_i}^{b_i} phi_p phi_q, shape (k, m, m).

    Off the diagonal, Green's identity for -phi'' + t^2 phi = (2k+1) phi gives
    [phi_p' phi_q - phi_p phi_q']_a^b / (2 (q - p)), with phi_k' = sqrt(k/2)
    phi_(k-1) - sqrt((k+1)/2) phi_(k+1); the diagonal steps from (erf b - erf a) / 2,
    by erfc in the tails, by the ladder identity
    int phi_q^2 = int phi_(q-1)^2 - [phi_(q-1) phi_q]_a^b / sqrt(2q).
    """
    m = max_degree + 1
    k = np.arange(m)
    P = eval_phi_table(m, np.stack([a, b]))
    dP = -np.sqrt((k + 1) / 2.0) * P[..., 1:]
    dP[..., 1:] += np.sqrt(k[1:] / 2.0) * P[..., :-2]
    X = dP[1, :, :, None] * P[1, :, None, :m] - dP[0, :, :, None] * P[0, :, None, :m]
    diff = 2.0 * (k[None, :] - k[:, None])
    M = (X - X.transpose(0, 2, 1)) / np.where(diff != 0, diff, 1.0)
    M[:, 0, 0] = 0.5 * np.array([
        math.erfc(x) - math.erfc(y) if x >= 0.0 else
        math.erfc(-y) - math.erfc(-x) if y <= 0.0 else math.erf(y) - math.erf(x)
        for x, y in zip(a.tolist(), b.tolist())])
    for q in range(1, m):
        jump = P[1, :, q - 1] * P[1, :, q] - P[0, :, q - 1] * P[0, :, q]
        M[:, q, q] = M[:, q - 1, q - 1] - jump / math.sqrt(2.0 * q)
    return M


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


def _box_products(basis, boxes, axis):
    """Stacked n x n products F_i[b, a] = prod_j A_ij[b_j, a_j], QR_BLOCK_ROWS // n boxes at a time.

    axis(N, a, b) gives the (k, m, m) matrices A_ij of k intervals on axis j.
    Given axis triangles R_j, F_i is an n x n upper triangle whose Gram is the
    Hadamard product of the R_j^T R_j, box i's Gram (R_j is upper triangular and
    the basis graded); given exact interval moments, F_i is box i's Gram itself.
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
            A = axis(basis.max_degree, c[:, j] - h[:, j], c[:, j] + h[:, j])
            F *= A.reshape(len(c), m * m)[:, flat[j]]
        yield F.reshape(len(c), n, n)


def region_triangles(basis, regions, nodes):
    """Stacked n x n upper triangles T_k, shape (k, n, n), with T_k^T T_k the Gram of region k.

    Boxes are built as for a set; a ball's chord rows go through Householder QR
    into its own triangle.  The squared L^2 norm of c over region k is |T_k c|^2.
    """
    _check_size(regions, nodes)
    out = np.empty((len(regions), basis.size, basis.size))
    boxes, done = [k for k, region in enumerate(regions) if region.kind == "box"], 0
    for F in _box_products(basis, [regions[k] for k in boxes],
                           partial(_axis_triangles, nodes=nodes)):
        out[boxes[done:done + len(F)]] = F
        done += len(F)
    for k, region in enumerate(regions):
        if region.kind == "ball":
            out[k] = _set_factor(basis, [region], nodes)
    return out


def _set_factor(basis, regions, nodes):
    """n x n upper triangle R_S with R_S^T R_S the Gram of the regions' union at this node count."""
    R = np.empty((0, basis.size))
    boxes = [r for r in regions if r.kind == "box"]
    for F in _box_products(basis, boxes, partial(_axis_triangles, nodes=nodes)):
        R = _triangle(R, _fold(F))
    for region in regions:
        if region.kind == "ball":
            for F in _ball_rows(basis, region, nodes):
                R = _triangle(R, F)
    return _square(R)


def _reference_gram(basis, regions, nodes):
    """The Gram of the regions' union from exact interval moments, to check a factor at nodes.

    A box's Gram is the Hadamard product of its exact axis moment matrices, in
    the factor's chunks of boxes.  A ball's is its chord rule at 2 * nodes theta
    nodes, two panels of the factor's rule (no new Gauss-Legendre eigenproblem),
    chord k adding W_k phi(x'_k) phi(x'_k)^T o M_k[alpha_d, beta_d] with M_k the
    exact moments on [a_k, b_k], CHORD_POINTS // (N + 1) chords at a time.
    """
    N = basis.max_degree
    G = np.zeros((basis.size, basis.size))
    for F in _box_products(basis, [r for r in regions if r.kind == "box"], _interval_moments):
        G += F.sum(axis=0)
    last = _alpha_matrix(basis)[:, -1]
    step = max(1, CHORD_POINTS // (N + 1))
    for region in regions:
        if region.kind == "ball":
            x, f, a, b = _ball_chords(region.center, region.radius, nodes, panels=2)
            for s in range(0, len(a), step):
                u = np.sqrt(np.prod(f[s:s + step], axis=1))[:, None] * _basis_table(
                    basis, x[s:s + step])
                M = _interval_moments(N, a[s:s + step], b[s:s + step])
                for q in range(N + 1):
                    G[:, last == q] += (u * M[:, last, q]).T @ u[:, last == q]
    return G


def gram_over_set(basis, S):
    """Gram matrix over a sensor set and its factor R_S at NODES, checked against a reference.

    Every entry of R_S^T R_S must lie within QUAD_TOL * max(1, max|ref|) of
    _reference_gram; on failure the node count doubles, up to MAX_NODES.
    """
    _check_size(S.regions, NODES)
    nodes = NODES
    while True:
        R = _set_factor(basis, S.regions, nodes)
        G, ref = R.T @ R, _reference_gram(basis, S.regions, nodes)
        if np.max(np.abs(G - ref)) <= QUAD_TOL * max(1.0, float(np.max(np.abs(ref)))):
            return GramMatrix(basis, 0.5 * (G + G.T), R)  # symmetrize roundoff
        if 2 * nodes > MAX_NODES:
            raise QuadratureError(f"no convergence at {nodes} nodes "
                                  f"(doubling stops at {MAX_NODES})")
        nodes *= 2


def _weighted_axis_matrix(max_degree, w):
    """One-dimensional matrix of integrals of exp(2 w t^2) phi_a(t) phi_b(t) dt.

    u = sqrt(1 - 2w) t absorbs the Gaussian weight, leaving the polynomial part
    of phi_a phi_b, for which max_degree + 2 Gauss-Hermite nodes are exact.
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
        G *= F[np.ix_(alph[:, j], alph[:, j])]
    return GramMatrix(basis, G)


def _norm2_over_region(f, region, scale):
    """Integral of f(x / scale)^2 over a region by direct quadrature at NODES."""
    pts, wts = region_quadrature(region, NODES)
    vals = f.evaluate(pts / scale)
    return float(wts @ (vals * vals))


def scaling_identity_check(f, S, t):
    """Both sides of ||f||_(L2(S))^2 = integral over t^(1/4) S of t^(-d/4) f(t^(-1/4) x)^2 dx."""
    if not 0 < t < math.inf:
        raise InputError("t must be positive and finite")
    lhs = gram_over_set(f.basis, S).quadratic_form(f.coeffs)
    scale, d = t ** 0.25, f.basis.dimension
    rhs = sum((_norm2_over_region(f, region.scaled(scale), scale) * t ** (-d / 4.0)
              for region in S.regions), 0.0)
    return lhs, rhs, abs(lhs - rhs)
