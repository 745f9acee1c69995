"""Sharp spectral constants, good/bad cell classification, and growth checks.

The sharp constant c in ||f||^2_(L2(S)) >= c ||f||^2 on E_N is the smallest
eigenvalue of the restricted Gram matrix; it is computed with a cyclic Jacobi
sweep.  lam_min keeps this solver over LAPACK: on sets whose true constant is
below 1e-16 it is rounding noise, and numpy.linalg.eigh (or Cholesky + SVD)
turned more of those into failed positivity checks (box-queries, seed 7: 13
of 368 failed with Jacobi, 20 with eigh, 21 with Cholesky + SVD).  Cell
classification localizes the Bernstein inequality on a covering; all
comparisons against C_B happen in log space because C_B overflows double
precision for the proof's delta.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisIndexSet, derivative_operator, _compositions
from .bounds import bernstein_CB_log, delta_choice
from .errors import InputError, VerificationError
from .gram import DEFAULT_RULE, _basis_table, gram_over_set, region_quadrature


def jacobi_eigh(A, max_sweeps=100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise InputError("matrix must be square")
    V = np.eye(n)
    scale = max(1.0, float(np.max(np.abs(A))))
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(np.tril(A, -1) ** 2)))
        if off <= 1e-15 * n * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    else:
        raise VerificationError(f"Jacobi did not converge in {max_sweeps} sweeps")
    vals = np.diag(A).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], V[:, order]


def spectral_constant(G):
    """Smallest eigenvalue and unit eigenvector of a Gram matrix."""
    vals, vecs = jacobi_eigh(G.entries)
    lam = float(vals[0])
    v = vecs[:, 0]
    residual = float(np.linalg.norm(G.entries @ v - lam * v))
    if residual > 1e-10 * max(1.0, float(np.max(np.abs(G.entries)))):
        raise VerificationError(f"eigenpair residual {residual} exceeds tolerance")
    return lam, v


@dataclass
class SpectralReport:
    N: int
    d: int
    set_hash: str
    lam_min: float
    minimizer: np.ndarray


def spectral_report(basis, S, rule=DEFAULT_RULE):
    """Sharp constant for the set S on E_N."""
    G = gram_over_set(basis, S, rule)
    lam, v = spectral_constant(G)
    set_hash = hashlib.sha256(S.to_text().encode()).hexdigest()[:16]
    return SpectralReport(basis.max_degree, basis.dimension, set_hash, lam, v)


class CellContext:
    """Cached per-cell quadrature and basis tables for repeated classification."""

    def __init__(self, covering, d, eval_degree, rule=DEFAULT_RULE):
        self.covering = covering
        self.eval_basis = BasisIndexSet(d, eval_degree)
        self.cells = []
        for region in covering.elements:
            pts, wts = region_quadrature(region, rule)
            tables = _basis_table(self.eval_basis, pts)
            self.cells.append((wts, tables))

    def cell_norms2(self, columns):
        """Squared local L^2(Q_k) norms of each column vector, per cell."""
        out = np.empty((len(self.cells), columns.shape[1]))
        for k, (wts, table) in enumerate(self.cells):
            vals = table @ columns
            out[k] = wts @ (vals * vals)
        return out


def derivative_columns(f, m_max):
    """Columns 1/sqrt(alpha!) d^alpha f for |alpha| <= m_max, embedded in degree N+m_max.

    Returns (matrix, group) where group[i] is the derivative order of column i;
    column 0 is f itself.
    """
    d = f.basis.dimension
    N = f.basis.max_degree
    target = BasisIndexSet(d, N + m_max)
    # build iteratively: level[alpha] holds d^alpha f
    level = {(0,) * d: f}
    columns = [f.embedded(N + m_max).coeffs]
    group = [0]
    for m in range(1, m_max + 1):
        new_level = {}
        for alpha in _compositions(m, d):
            # differentiate along the first nonzero axis from a known parent
            axis = next(j for j, a in enumerate(alpha) if a > 0)
            parent = alpha[:axis] + (alpha[axis] - 1,) + alpha[axis + 1:]
            new_level[alpha] = derivative_operator(level[parent], axis)
            fact = math.prod(math.factorial(a) for a in alpha)
            columns.append(new_level[alpha].embedded(N + m_max).coeffs / math.sqrt(fact))
            group.append(m)
        level = new_level
    return np.stack(columns, axis=1), np.asarray(group)


@dataclass
class CellClassification:
    covering: object
    local_mass: np.ndarray
    good: np.ndarray
    first_bad_m: np.ndarray
    in_central: np.ndarray
    total_norm2: float
    coverage_sum: float
    bad_mass_fraction: float
    far_mass_fraction: float
    m_max: int
    delta: float

    @property
    def max_flip_m(self):
        """Largest m at which any cell turned bad (0 when all cells are good)."""
        flips = self.first_bad_m[self.first_bad_m > 0]
        return int(flips.max()) if flips.size else 0


def classify_cells(f, covering, m_max=6, delta=None, rule=DEFAULT_RULE, ctx=None):
    """Good/bad classification of covering cells for f, with mass fractions.

    A cell is good (up to m_max) when the localized Bernstein inequality
    holds for every 1 <= m <= m_max; comparisons run in log space.
    """
    if m_max < 1:
        raise InputError("m_max must be at least 1")
    N = f.basis.max_degree
    d = f.basis.dimension
    if delta is None:
        delta = delta_choice(covering.D, max(N, 1), covering.eps)
    if ctx is None:
        ctx = CellContext(covering, d, N + m_max, rule)
    columns, group = derivative_columns(f, m_max)
    norms = ctx.cell_norms2(columns)  # (ncells, ncols)
    ncells = norms.shape[0]
    mass = norms[:, group == 0].sum(axis=1)
    total = f.norm2()

    kappa = covering.kappa
    good = np.ones(ncells, dtype=bool)
    first_bad = np.zeros(ncells, dtype=int)
    with np.errstate(divide="ignore"):
        log_mass = np.where(mass > 0, np.log(np.maximum(mass, 1e-320)), -np.inf)
    for m in range(1, m_max + 1):
        lhs = norms[:, group == m].sum(axis=1)
        with np.errstate(divide="ignore"):
            log_lhs = np.where(lhs > 0, np.log(np.maximum(lhs, 1e-320)), -np.inf)
        log_rhs = (
            (m + 1) * math.log(2.0)
            + math.log(kappa)
            + bernstein_CB_log(m, N, d, delta)
            - math.lgamma(m + 1)
            + log_mass
        )
        bad_now = log_lhs > log_rhs
        newly = bad_now & good
        first_bad[newly] = m
        good &= ~bad_now
    in_central = np.zeros(ncells, dtype=bool)
    in_central[list(covering.central)] = True
    bad_fraction = float(mass[~good].sum() / total) if total > 0 else 0.0
    far_fraction = float(mass[~in_central].sum() / total) if total > 0 else 0.0
    return CellClassification(
        covering, mass, good, first_bad, in_central,
        total_norm2=total, coverage_sum=float(mass.sum()),
        bad_mass_fraction=bad_fraction, far_mass_fraction=far_fraction,
        m_max=m_max, delta=delta,
    )


@dataclass
class MassIntersection:
    mass: float
    ratio: float
    count: int
    degenerate: bool


def mass_intersection_check(f, classification):
    """Mass captured by central-and-good cells; must reach 1/4 of the total."""
    total = classification.total_norm2
    sel = classification.good & classification.in_central
    mass = float(classification.local_mass[sel].sum())
    if total <= 0:
        return MassIntersection(0.0, float("nan"), int(sel.sum()), True)
    ratio = mass / total
    if not sel.any():
        raise VerificationError("no central good cell for a nonzero f", ledger=classification)
    if ratio < 0.25 - 1e-8:
        raise VerificationError(f"central good mass ratio {ratio} below 1/4", ledger=classification)
    return MassIntersection(mass, ratio, int(sel.sum()), False)


def estimate_Mk(f, region, l, sample_density=9, phases=33, radii=(0.5, 1.0),
                rule=DEFAULT_RULE):
    """Sampled lower bound for the normalized polydisc supremum of f on a cell.

    Samples z = x + w with x on a real grid over the closed cell and complex
    offsets w_j on circles of radius 4 l_j (two radius levels, fixed phase
    count), so refinement with nested grids is monotone non-decreasing.
    """
    pts, wts = region_quadrature(region, rule)
    vals = f.evaluate(pts)
    local2 = float(wts @ (vals * vals))
    if local2 <= 0:
        raise InputError("degenerate cell: zero local norm")
    d = region.dimension
    l = np.broadcast_to(np.asarray(l, dtype=float), (d,))
    halves = np.asarray(region.bounding_halfwidths())
    center = np.asarray(region.center)
    axes = [np.linspace(center[j] - halves[j], center[j] + halves[j], sample_density)
            for j in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)
    if region.kind == "ball":
        keep = region.contains(x)
        x = x[keep]
    offs_1d = [np.array([0.0 + 0.0j])] * d
    for j in range(d):
        ph = np.exp(2j * math.pi * np.arange(phases) / phases)
        circle = np.concatenate([[0.0 + 0.0j]] + [r * 4.0 * l[j] * ph for r in radii])
        offs_1d[j] = circle
    grids_w = np.meshgrid(*offs_1d, indexing="ij")
    w = np.stack([g.ravel() for g in grids_w], axis=1)
    best = 0.0
    for off in w:
        z = x.astype(complex) + off[None, :]
        best = max(best, float(np.max(np.abs(f.evaluate(z)))))
    return best * math.sqrt(region.measure()) / math.sqrt(local2)


def good_cell_Mk_bound_log(N, d, kappa, l1, delta, term_tol=1e-16):
    """Log of 2 sqrt(kappa) sum_m C_B(m,N)^(1/2) (10 ||l||_1)^m / m!, truncated.

    Since C_B(m, N)^(1/2) / m! grows like (2 delta)^m, the series is geometric
    with ratio 20 delta ||l||_1 and diverges unless that ratio is below one.
    """
    if 20.0 * delta * l1 >= 1.0:
        raise InputError("series diverges: need 20 delta ||l||_1 < 1")
    log_terms = []
    m = 0
    log_x = math.log(10.0 * l1) if l1 > 0 else float("-inf")
    while True:
        lt = 0.5 * bernstein_CB_log(m, N, d, delta) + m * log_x - math.lgamma(m + 1)
        log_terms.append(lt)
        peak = max(log_terms)
        if m > 2 and lt < peak + math.log(term_tol):
            break
        m += 1
        if m > 500:
            break
    peak = max(log_terms)
    s = sum(math.exp(t - peak) for t in log_terms)
    return math.log(2.0 * math.sqrt(kappa)) + peak + math.log(s)


@dataclass
class GrowthRow:
    N: int
    log_norm_full: float
    log_norm_restricted: float
    log_ratio: float


def counterexample_growth(M, N_list, nodes=500):
    """Norm-ratio growth of f_N(x) = x^N exp(-x^2/2) against the window [-M, M].

    All arithmetic in log space: the full-space norm is Gamma(N + 1/2), the
    restricted norm is quadrature of exp(2 N log x - x^2) with max-shift.
    Returns the table and the fitted c = max_N (N log N - logratio)/N.
    """
    if M <= 0:
        raise InputError("M must be positive")
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * M * (x + 1.0)
    w = 0.5 * M * w
    rows = []
    for N in N_list:
        g = 2.0 * N * np.log(x) - x * x
        gmax = float(np.max(g))
        log_restricted = math.log(2.0) + gmax + math.log(float(w @ np.exp(g - gmax)))
        log_full = math.lgamma(N + 0.5)
        rows.append(GrowthRow(N, log_full, log_restricted, log_full - log_restricted))
    fits = [(r.N * math.log(r.N) - r.log_ratio) / r.N for r in rows if r.N >= 2]
    if not fits:
        raise InputError("N_list needs a degree N >= 2 to fit c")
    return rows, max(fits)
