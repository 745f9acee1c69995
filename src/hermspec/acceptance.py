"""The acceptance suite: one function per criterion, shared by CLI and tests.

Each criterion returns a CriterionResult with a pass/fail flag, a
representative worst-case value, and the pinned tolerance.  Everything is
seeded and ordered deterministically so that two runs serialize to identical
bytes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisIndexSet, HermiteVector, derivative_operator, eval_phi_table
from .bounds import BoundParams, thm_general_bound, delta_choice, bernstein_CB_log
from .control import (
    ControlProblem,
    hum_control,
    observability_gramian,
    observability_gramian_quadrature,
)
from .errors import VerificationError
from .geometry import (
    BallDensitySpec,
    CubeDensitySpec,
    Region,
    SensorSet,
    besicovitch_covering,
    example_finite_measure_set,
    fullspace_window,
    halfline_window,
    lattice_covering,
)
from .gram import (
    GramMatrix,
    _hermgauss,
    gram_over_set,
    gram_fullspace_weighted,
    scaling_identity_check,
)
from .rng import SplitMix64
from .spectral import (
    CellContext,
    classify_cells,
    counterexample_growth,
    derivative_columns,
    mass_intersection_check,
    spectral_constant,
)

DEFAULT_SEED = 12345


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    value: float
    tolerance: float
    details: str = ""

    def manifest_line(self):
        """`label status value tolerance`: label Cnn, or the name of a cid-0 (CLI) check."""
        label = f"C{self.cid:02d}" if self.cid else self.name
        status = "pass" if self.passed else "FAIL"
        return f"{label} {status} {format(self.value, '.17g')} {format(self.tolerance, '.17g')}"

    def csv_row(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.cid},{self.name},{status},"
            f"{format(self.value, '.17g')},{format(self.tolerance, '.17g')},{self.details}"
        )


def _finite_measure_example(window_radius=16):
    spec = CubeDensitySpec(gamma=0.5, beta=0.5, rho=1.0, d=1)
    return example_finite_measure_set(spec, window_radius)


def _derivative_norm2(f):
    """||d/dx_0 f||^2 over R^d without the ladder: phi_k' = sqrt(2k) phi_(k-1) - x phi_k
    (from H_k' = 2k H_(k-1)) by N + 2 Gauss-Hermite nodes, exact; other axes are orthonormal.
    """
    N, alph = f.basis.max_degree, np.asarray(f.basis.indices)
    u, w = _hermgauss(N + 2)
    P = eval_phi_table(N, u) * np.exp(0.5 * u * u)[:, None]  # polynomial parts
    dP = np.sqrt(2.0 * np.arange(N + 1)) * np.pad(P[:, :-1], ((0, 0), (1, 0))) - u[:, None] * P
    D = ((dP.T * w) @ dP)[np.ix_(alph[:, 0], alph[:, 0])]
    D *= np.all(alph[:, None, 1:] == alph[None, :, 1:], axis=-1)
    return float(f.coeffs @ D @ f.coeffs)


def criterion_01():
    """Full-space Gram equals the identity for d=1 (N=20) and d=2 (N=10)."""
    worst = 0.0
    for d, N in ((1, 20), (2, 10)):
        basis = BasisIndexSet(d, N)
        G = gram_over_set(basis, fullspace_window(d, N))
        worst = max(worst, float(np.max(np.abs(G.entries - np.eye(basis.size)))))
    return CriterionResult(1, "orthonormality", worst <= 1e-10, worst, 1e-10)


def criterion_02(seed=DEFAULT_SEED):
    """Weighted decay ratio stays below 2^(2(d+1)+N); analytic phi_0 case."""
    d = 1
    rng = SplitMix64(seed + 2)
    basis15 = BasisIndexSet(d, 15)
    Gw = gram_fullspace_weighted(basis15, 1.0 / (64.0 * d))
    worst_margin = float("inf")
    ok = True
    for i in range(100):
        N = (i % 15) + 1
        c = np.zeros(basis15.size)
        c[: N + 1] = rng.unit_coeffs(N + 1)
        ratio = float(c @ Gw.entries @ c)
        bound = 2.0 ** (2 * (d + 1) + N)
        worst_margin = min(worst_margin, bound - ratio)
        ok &= ratio <= bound - 1e-6
    analytic = float(Gw.entries[0, 0])
    ok &= abs(analytic - math.sqrt(32.0 / 31.0)) <= 1e-9
    return CriterionResult(
        2, "weighted_decay", bool(ok), worst_margin, 1e-6,
        details=f"phi0_ratio={format(analytic, '.17g')}",
    )


def _lattice_suite(seed):
    """Shared classification suite: 100 seeded f in E_10, unit lattice, m_max=5."""
    d, N, m_max = 1, 10, 5
    cov = lattice_covering(1.0, d, N, kappa=1)
    basis = BasisIndexSet(d, N)
    ctx = CellContext(cov, d, N + m_max)
    rng = SplitMix64(seed + 3)
    out = []
    for _ in range(100):
        f = HermiteVector(basis, rng.unit_coeffs(basis.size))
        out.append((f, classify_cells(f, cov, m_max=m_max, ctx=ctx)))
    return out


_SUITE_CACHE = {}


def lattice_suite(seed=DEFAULT_SEED):
    if seed not in _SUITE_CACHE:
        _SUITE_CACHE[seed] = _lattice_suite(seed)
    return _SUITE_CACHE[seed]


def criterion_03(seed=DEFAULT_SEED):
    """Far-mass fraction outside the concentration cells stays below 1/4."""
    worst = max(cls.far_mass_fraction for _, cls in lattice_suite(seed))
    return CriterionResult(3, "concentration", worst <= 0.25 + 1e-8, worst, 0.25 + 1e-8)


def criterion_04(seed=DEFAULT_SEED):
    """Global Bernstein inequality via exact ladder-coefficient norms."""
    d, N, m_max = 1, 10, 5
    basis = BasisIndexSet(d, N)
    delta = delta_choice(1.0, N, 1.0)
    rng = SplitMix64(seed + 4)
    worst = float("-inf")
    ok = True
    quad_defect = 0.0
    for i in range(100):
        f = HermiteVector(basis, rng.unit_coeffs(basis.size))
        columns, group = derivative_columns(f, m_max)
        total = f.norm2()
        for m in range(1, m_max + 1):
            lhs = float(np.sum(columns[:, group == m] ** 2))
            log_lhs = math.log(lhs) if lhs > 0 else float("-inf")
            log_rhs = bernstein_CB_log(m, N, d, delta) - math.lgamma(m + 1) + math.log(total)
            worst = max(worst, log_lhs - log_rhs)
            ok &= log_lhs <= log_rhs
        if i < 5:
            # ladder norms against the exact Gauss-Hermite oracle
            quad_defect = max(quad_defect, abs(derivative_operator(f, 0).norm2()
                                               - _derivative_norm2(f)))
            ok &= quad_defect <= 1e-10
    return CriterionResult(
        4, "bernstein", bool(ok), worst, 0.0,
        details=f"quad_defect={format(quad_defect, '.17g')}",
    )


def criterion_05(seed=DEFAULT_SEED):
    """Bad-mass fraction below 1/2 and central-good mass at least 1/4."""
    worst_bad = 0.0
    worst_ratio = float("inf")
    ok = True
    for f, cls in lattice_suite(seed):
        worst_bad = max(worst_bad, cls.bad_mass_fraction)
        try:
            check = mass_intersection_check(f, cls)
            worst_ratio = min(worst_ratio, check.ratio)
        except VerificationError:
            ok = False
    ok &= worst_bad <= 0.5 + 1e-8 and worst_ratio >= 0.25 - 1e-8
    return CriterionResult(
        5, "bad_mass_and_intersection", bool(ok), worst_bad, 0.5 + 1e-8,
        details=f"min_central_good_ratio={format(worst_ratio, '.17g')}",
    )


def criterion_06():
    """Sharp constant for the half-line window matches the 2x2 analytic value."""
    S1 = halfline_window(1)
    lam1, _ = spectral_constant(gram_over_set(BasisIndexSet(1, 1), S1))
    expected1 = 0.5 - 1.0 / math.sqrt(2.0 * math.pi)
    S0 = halfline_window(0)
    lam0, _ = spectral_constant(gram_over_set(BasisIndexSet(1, 0), S0))
    ok = abs(lam1 - expected1) <= 1e-8 and abs(lam0 - 0.5) <= 1e-10
    return CriterionResult(
        6, "sharp_constant_halfline", bool(ok), abs(lam1 - expected1), 1e-8,
        details=f"lam_N0={format(lam0, '.17g')}",
    )


def criterion_07():
    """Sharp constant dominates the general lower bound (log-space comparison)."""
    S = _finite_measure_example(window_radius=16)
    basis8 = BasisIndexSet(1, 8)
    G = gram_over_set(basis8, S)
    C = 32.0  # cube covering: d=1, kappa=1
    gamma_eff = 0.5 ** (2.0 * (2.0 * C) ** 0.5)
    worst = float("inf")
    ok = True
    for N in range(1, 9):
        k = N + 1  # R is upper triangular: its leading block factors G's leading block
        lam, _ = spectral_constant(
            GramMatrix(BasisIndexSet(1, N), G.entries[:k, :k], G.factor[:k, :k]))
        bound = thm_general_bound(BoundParams(
            d=1, N=N, gamma=gamma_eff, eta=1.0, D=1.0, kappa=1.0, eps=1.0, alpha=0.5,
        ))
        margin = math.log(lam) - bound.log_value if lam > 0 else float("-inf")
        worst = min(worst, margin)
        ok &= margin >= 0
    return CriterionResult(7, "bound_direction", bool(ok), worst, 0.0)


def criterion_08():
    """Counterexample growth: log-ratio grows like N log N, window norm capped."""
    M = 2.0
    rows, fitted_c = counterexample_growth(M, list(range(10, 41)))
    cap_ok = all(
        r.log_norm_restricted <= 0.5 * math.log(math.pi) + 2.0 * r.N * math.log(M)
        for r in rows
    )
    c_star = 1.0 + 2.0 * math.log(M)
    band = min(
        (r.log_ratio - (r.N * math.log(r.N) - c_star * r.N)) / math.log(r.N) for r in rows
    )
    floor = min(r.log_ratio - r.N * math.log(r.N) + fitted_c * r.N for r in rows)
    ok = cap_ok and band >= -4.0 and floor >= -1e-9 and fitted_c <= c_star + 1.0
    return CriterionResult(
        8, "counterexample_growth", bool(ok), fitted_c, c_star + 1.0,
        details=f"band={format(band, '.17g')}",
    )


def criterion_09():
    """Observability Gramian closed form matches 100-node time quadrature."""
    basis = BasisIndexSet(1, 12)
    T = 1.0
    worst = 0.0
    sets = (
        fullspace_window(1, 12),
        halfline_window(12),
        _finite_measure_example(window_radius=16),
    )
    for S in sets:
        G = gram_over_set(basis, S)
        B = observability_gramian(G, basis, T)
        Bq = observability_gramian_quadrature(G, basis, T, nodes=100)
        worst = max(worst, float(np.max(np.abs(B.entries - Bq.entries))))
    return CriterionResult(9, "observability_gramian", worst <= 1e-8, worst, 1e-8)


def criterion_10(seed=DEFAULT_SEED):
    """HUM control: terminal residual, cost bound, and worst-case duality."""
    basis = BasisIndexSet(1, 12)
    T = 1.0
    S = _finite_measure_example(window_radius=16)
    problem = ControlProblem(basis, gram_over_set(basis, S), T)
    c_obs = problem.observability_constant()
    rng = SplitMix64(seed + 10)
    worst_resid = 0.0
    ok = True
    for _ in range(50):
        phi0 = HermiteVector(basis, rng.unit_coeffs(basis.size))
        res = hum_control(problem, phi0)
        worst_resid = max(worst_resid, res.terminal_residual, res.simulated_residual)
        ok &= res.terminal_residual <= 1e-8 and res.cost <= c_obs * (1.0 + 1e-8)
    res = hum_control(problem, problem.worst_case_initial_state())
    rel = abs(res.cost - c_obs) / c_obs
    ok &= rel <= 1e-6 and worst_resid <= 1e-8
    return CriterionResult(
        10, "hum_control", bool(ok), rel, 1e-6,
        details=f"c_obs={format(c_obs, '.17g')},max_residual={format(worst_resid, '.17g')}",
    )


def criterion_11():
    """Besicovitch covering: complete grid coverage, bounded overlap, radius cap."""
    ok = True
    worst_overlap_ratio = 0.0
    cases = [(1, N) for N in range(1, 10)] + [(2, 1)]
    for d, N in cases:
        spec = BallDensitySpec(gamma=0.5, alpha=0.0, eps=0.5, R=1.0, profile="power")
        cov = besicovitch_covering(spec, d, N, K=16)
        kappa_meas = cov.meta["kappa_measured"]
        worst_overlap_ratio = max(worst_overlap_ratio, kappa_meas / 16.0 ** d)
        ok &= kappa_meas <= 16 ** d
        C = cov.meta["C"]
        cap = 2.0 * spec.R * C * N ** ((1.0 - spec.eps) / 2.0)
        ok &= all(r.radius <= cap * (1 + 1e-12) for r in cov.elements)
        cov.validate(N)
    return CriterionResult(
        11, "besicovitch_covering", bool(ok), worst_overlap_ratio, 1.0,
    )


def criterion_12(seed=DEFAULT_SEED):
    """Scaling identity for 20 seeded (f, S, t) triples."""
    rng = SplitMix64(seed + 12)
    basis = BasisIndexSet(1, 5)
    worst = 0.0
    for _ in range(20):
        f = HermiteVector(basis, rng.unit_coeffs(basis.size))
        a = -3.0 + 3.0 * rng.uniform()
        b = a + 0.5 + 2.5 * rng.uniform()
        S = SensorSet((Region.interval(a, b),))
        t = 0.5 + 15.5 * rng.uniform()
        _, _, diff = scaling_identity_check(f, S, t)
        worst = max(worst, diff)
    return CriterionResult(12, "scaling_identity", worst <= 1e-9, worst, 1e-9)


CRITERIA = {
    1: criterion_01,
    2: criterion_02,
    3: criterion_03,
    4: criterion_04,
    5: criterion_05,
    6: criterion_06,
    7: criterion_07,
    8: criterion_08,
    9: criterion_09,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}


def run_criteria(seed=DEFAULT_SEED, ids=None):
    """Run the requested criteria (1..12) in order."""
    _SUITE_CACHE.clear()
    results = []
    for cid in sorted(ids or CRITERIA):
        fn = CRITERIA[cid]
        if fn.__code__.co_argcount:
            results.append(fn(seed))
        else:
            results.append(fn())
    return results


def results_csv(results):
    lines = ["criterion_id,name,status,value,tolerance,details"]
    lines.extend(r.csv_row() for r in results)
    return "\n".join(lines) + "\n"


def criterion_13(seed, results):
    """Determinism: a report's own criteria pass (results) and one fresh pass
    serialize to byte-identical CSV.  run_criteria clears the suite cache, so
    the two passes are independent.
    """
    a = results_csv(results)
    b = results_csv(run_criteria(seed))
    return CriterionResult(13, "determinism", a == b, float(a == b), 1.0)
