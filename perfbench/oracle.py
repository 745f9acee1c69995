"""Reference Gram matrices and sharp constants, independent of hermspec.

Nothing here calls the package's quadrature.  Box Grams use closed-form 1-D
moments of the Hermite functions:

    int_a^b phi_0^2     = (erf b - erf a) / 2
    int_a^b phi_n^2     = int_a^b phi_{n-1}^2 - [phi_{n-1} phi_n]_a^b / sqrt(2n)
    int_a^b phi_m phi_n = [phi_m' phi_n - phi_m phi_n']_a^b / (2 (n - m))   (m != n)

(the ladder identity and Green's identity for -phi'' + t^2 phi = (2k+1) phi),
so a box Gram is an exact Hadamard product of per-axis moment matrices.  Discs
use a polar rule: Gauss-Legendre in the radius times the trapezoid rule in the
angle, which converges spectrally because the integrand is smooth and periodic
in the angle.  Sharp constants are numpy.linalg.eigvalsh of the reference
Gram; by Weyl's inequality an entrywise Gram error e moves an eigenvalue of an
n x n matrix by at most n e.

Regions are plain tuples: ("box", center, half_sides) or ("ball", center, r).
"""

import math

import numpy as np

EPS = np.finfo(float).eps
# Error bound used for a closed-form box moment matrix (cancellation in the
# Wronskian and the ladder recurrence stays within a few ulps per step).
BOX_ORACLE_ERR = 1e-13
# README: "box integrals ... adaptively doubled to a relative tolerance of 1e-11".
BOX_DOC_TOL = 1e-11
# README: ball accuracy "about 2^-12 times the surface measure".
BALL_DOC_FACTOR = 2.0 ** -12


def phi_table(kmax, t):
    """phi_0..phi_kmax at points t by the three-term recurrence; shape t.shape + (kmax+1,)."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (kmax + 1,))
    out[..., 0] = math.pi ** -0.25 * np.exp(-0.5 * t * t)
    if kmax >= 1:
        out[..., 1] = math.sqrt(2.0) * t * out[..., 0]
    for k in range(1, kmax):
        out[..., k + 1] = (math.sqrt(2.0 / (k + 1)) * t * out[..., k]
                           - math.sqrt(k / (k + 1.0)) * out[..., k - 1])
    return out


def _phi_and_derivative(kmax, t):
    """phi_k(t) and phi_k'(t) = sqrt(k/2) phi_{k-1} - sqrt((k+1)/2) phi_{k+1}."""
    p = phi_table(kmax + 1, np.array([t]))[0]
    k = np.arange(kmax + 1)
    dp = -np.sqrt((k + 1) / 2.0) * p[1:]
    dp[1:] += np.sqrt(k[1:] / 2.0) * p[:kmax]
    return p[:kmax + 1], dp


def _gauss_mass(a, b):
    """int_a^b phi_0^2 = (erf b - erf a)/2, written with erfc in the tails."""
    if a >= 0.0:
        return 0.5 * (math.erfc(a) - math.erfc(b))
    if b <= 0.0:
        return 0.5 * (math.erfc(-b) - math.erfc(-a))
    return 0.5 * (math.erf(b) - math.erf(a))


def interval_moments(kmax, a, b):
    """Exact matrix of int_a^b phi_m phi_n for 0 <= m, n <= kmax."""
    pa, da = _phi_and_derivative(kmax, a)
    pb, db = _phi_and_derivative(kmax, b)
    # Wronskian W[m, n] = phi_m' phi_n - phi_m phi_n' evaluated at b minus at a
    W = (np.outer(db, pb) - np.outer(pb, db)) - (np.outer(da, pa) - np.outer(pa, da))
    k = np.arange(kmax + 1)
    diff = 2.0 * (k[None, :] - k[:, None])
    M = np.where(diff != 0, W / np.where(diff != 0, diff, 1.0), 0.0)
    diag = np.empty(kmax + 1)
    diag[0] = _gauss_mass(a, b)
    for n in range(1, kmax + 1):
        jump = pb[n - 1] * pb[n] - pa[n - 1] * pa[n]
        diag[n] = diag[n - 1] - jump / math.sqrt(2.0 * n)
    M[k, k] = diag
    return 0.5 * (M + M.T)


def multi_indices(d, N):
    """Graded lexicographic multi-indices of total degree <= N (the package's order)."""
    def comps(n, d):
        if d == 1:
            return [(n,)]
        return [(f,) + rest for f in range(n + 1) for rest in comps(n - f, d - 1)]
    return [a for n in range(N + 1) for a in comps(n, d)]


def _box_gram(idx, N, center, half):
    G = np.ones((idx.shape[0], idx.shape[0]))
    for j, (c, h) in enumerate(zip(center, half)):
        A = interval_moments(N, c - h, c + h)
        G *= A[np.ix_(idx[:, j], idx[:, j])]
    return G


def _disc_gram(idx, N, center, r, n_r, n_theta):
    x, w = np.polynomial.legendre.leggauss(n_r)
    rho = 0.5 * r * (x + 1.0)
    w_rho = 0.5 * r * w * rho
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    X = (center[0] + np.outer(rho, np.cos(theta))).ravel()
    Y = (center[1] + np.outer(rho, np.sin(theta))).ravel()
    wts = np.repeat(w_rho * (2.0 * math.pi / n_theta), n_theta)
    T = phi_table(N, X)[:, idx[:, 0]] * phi_table(N, Y)[:, idx[:, 1]]
    return T.T @ (wts[:, None] * T)


def reference_gram(regions, d, N):
    """(G, err): the reference Gram over a disjoint union of regions and a bound on its error.

    Disc errors are estimated by halving the polar rule in both directions.
    """
    idx = np.asarray(multi_indices(d, N), dtype=int)
    n = idx.shape[0]
    G = np.zeros((n, n))
    err = 0.0
    for kind, center, size in regions:
        if kind == "box":
            G += _box_gram(idx, N, center, size)
            err += BOX_ORACLE_ERR
            continue
        if d != 2:
            raise ValueError("the polar reference rule handles discs (d = 2) only")
        fine = _disc_gram(idx, N, center, size, 96, 192)
        coarse = _disc_gram(idx, N, center, size, 48, 96)
        G += fine
        err += float(np.max(np.abs(fine - coarse))) + 16 * EPS
    return 0.5 * (G + G.T), err


def documented_tolerance(regions, d):
    """Entrywise Gram accuracy the README documents for this set's region kinds.

    Node doubling stops at a relative change of 1e-11 over the whole Gram
    (whose scale is 1 here); each ball adds 2^-12 times its surface measure
    times the bound pi^(-d/2) on |Phi_a Phi_b|.
    """
    tol = BOX_DOC_TOL
    for kind, _, size in regions:
        if kind == "ball":
            surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0) * size ** (d - 1)
            tol += BALL_DOC_FACTOR * surface * math.pi ** (-d / 2.0)
    return tol


def reference_lam_min(G):
    return float(np.linalg.eigvalsh(G)[0])


def lam_tolerance(n, entry_tol, oracle_err):
    """Weyl bound n * (entry error) plus a backward-stable eigensolver's n * eps."""
    return n * (entry_tol + oracle_err) + 16.0 * n * EPS
