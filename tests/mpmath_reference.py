"""High-precision references built from exact Hankel moments in mpmath.

For a d = 1 interval union S, the Gram of E_N over S is G = C H C^T, with C
the monomial coefficients of the normalized Hermite polynomials and
H[i, j] = int_S t^(i+j) exp(-t^2) dt, each moment a lower incomplete gamma
function.  The sharp constant and the observability constant of the control
system on S are both read from that G, and the window norm of the
counterexample x^N exp(-x^2/2) is one such moment.
"""

import mpmath


def mpmath_gram(intervals, N, rows=None):
    """G over a d = 1 interval union at the working precision, as an mpmath matrix.

    rows, a list of degrees, keeps only those rows of G: C[rows] H C^T.
    """
    C = mpmath.zeros(N + 1, N + 1)
    for n in range(N + 1):
        norm = mpmath.sqrt(2 ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
        for m in range(n // 2 + 1):
            C[n, n - 2 * m] = ((-1) ** m * mpmath.factorial(n) * 2 ** (n - 2 * m)
                               / (mpmath.factorial(m) * mpmath.factorial(n - 2 * m) * norm))

    def primitive(x, k):  # int_0^x t^k exp(-t^2) dt
        x = mpmath.mpf(x)
        return mpmath.sign(x) ** (k + 1) * mpmath.gammainc((k + 1) / mpmath.mpf(2), 0, x * x) / 2

    mu = [sum(primitive(b, k) - primitive(a, k) for a, b in intervals)
          for k in range(2 * N + 1)]
    H = mpmath.matrix(N + 1, N + 1)
    for i in range(N + 1):
        for j in range(N + 1):
            H[i, j] = mu[i + j]
    if rows is None:
        return C * H * C.T
    Cr = mpmath.matrix(len(rows), N + 1)
    for i, n in enumerate(rows):
        for j in range(N + 1):
            Cr[i, j] = C[n, j]
    return Cr * H * C.T


def mpmath_lam_min(intervals, N, dps=80):
    """lam_min of a d = 1 interval union."""
    with mpmath.workdps(dps):
        return float(min(mpmath.eigsy(mpmath_gram(intervals, N), eigvals_only=True)))


def mpmath_c_obs(intervals, N, T, dps=100):
    """Observability constant sigma_max(L^(-1) E) of a d = 1 interval union.

    B[a,b] = G[a,b] (1 - exp(-(lam_a + lam_b) T)) / (lam_a + lam_b) in closed
    form, B = L L^T by Cholesky, and E = diag(exp(-lam T)) with lam_a = 2a + 1.
    """
    with mpmath.workdps(dps):
        G = mpmath_gram(intervals, N)
        lam = [2 * a + 1 for a in range(N + 1)]
        B = mpmath.matrix(N + 1, N + 1)
        for a in range(N + 1):
            for b in range(N + 1):
                lsum = lam[a] + lam[b]
                B[a, b] = G[a, b] * -mpmath.expm1(-lsum * mpmath.mpf(T)) / lsum
        E = mpmath.diag([mpmath.exp(-la * mpmath.mpf(T)) for la in lam])
        M = mpmath.cholesky(B) ** -1 * E
        return float(mpmath.sqrt(max(mpmath.eigsy(M.T * M, eigvals_only=True))))


def mpmath_log_window_norm(N, M, dps=40):
    """log int_{-M}^{M} x^(2N) exp(-x^2) dx = log gamma(N + 1/2, M^2)."""
    with mpmath.workdps(dps):
        return float(mpmath.log(mpmath.gammainc(N + mpmath.mpf(1) / 2, 0, mpmath.mpf(M) ** 2)))
