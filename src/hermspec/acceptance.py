"""The acceptance suite: one function per criterion, shared by CLI and tests.

Each criterion returns a CriterionResult with a pass/fail flag, a
representative worst-case value, and the pinned tolerance.  Everything is
seeded and ordered deterministically so that two runs serialize to identical
bytes.  The checks that criteria share with CLI subcommands are defined here
once; the subcommands run them on their configs, the criteria at pinned
parameters.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisIndexSet, HermiteVector, derivative_operator, eval_phi_table
from .bounds import BoundParams, thm_general_bound, delta_choice, bernstein_CB_log
from .control import ControlProblem, hum_control, observability_gramian
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

# C07, C09 and C10's finite-measure set, at its default window (16 for N <= 12)
_FINITE_MEASURE = CubeDensitySpec(gamma=0.5, beta=0.5, rho=1.0, d=1)


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


def check(name, value, tolerance, passed=None):
    """A named check (cid 0), passing when value <= tolerance unless passed says otherwise."""
    if passed is None:
        passed = value <= tolerance
    return CriterionResult(0, name, bool(passed), float(value), float(tolerance))


def unit_samples(basis, seed, count):
    """count unit-norm HermiteVectors on basis from the splitmix64 stream of seed."""
    rng = SplitMix64(seed)
    return [HermiteVector(basis, rng.unit_coeffs(basis.size)) for _ in range(count)]


def orthonormality_check(d, N):
    """max |G - I| of E_N's Gram over the full-space window, to 1e-10."""
    basis = BasisIndexSet(d, N)
    G = gram_over_set(basis, fullspace_window(d, N))
    return check("orthonormality", np.max(np.abs(G.entries - np.eye(basis.size))), 1e-10)


def bernstein_check(fs, m_max, delta):
    """Global Bernstein inequality sum_(|alpha|=m) ||d^alpha f||^2/alpha! <= C_B(m)||f||^2/m!
    for 1 <= m <= m_max, in logs: the largest log_lhs - log_rhs, at most 0, and the
    rows (sample, m, log_lhs, log_rhs).
    """
    rows = []
    for i, f in enumerate(fs):
        d, N = f.basis.dimension, f.basis.max_degree
        columns, group = derivative_columns(f, m_max)
        for m in range(1, m_max + 1):
            lhs = float(np.sum(columns[:, group == m] ** 2))
            log_lhs = math.log(lhs) if lhs > 0 else float("-inf")
            log_rhs = (bernstein_CB_log(m, N, d, delta) - math.lgamma(m + 1)
                       + math.log(f.norm2()))
            rows.append((i, m, log_lhs, log_rhs))
    worst = max(log_lhs - log_rhs for _, _, log_lhs, log_rhs in rows)
    return check("bernstein-margin", worst, 0.0), rows


def classification_checks(fs, covering, m_max, delta=None):
    """Largest bad-mass (<= 1/2) and far-mass (<= 1/4) fractions over fs, and the
    classifications, all cells of covering in one CellContext.
    """
    basis = fs[0].basis
    ctx = CellContext(covering, basis.dimension, basis.max_degree + m_max)
    classes = [classify_cells(f, covering, m_max=m_max, delta=delta, ctx=ctx) for f in fs]
    bad = max(c.bad_mass_fraction for c in classes)
    far = max(c.far_mass_fraction for c in classes)
    return [check("bad-mass", bad, 0.5 + 1e-8), check("far-mass", far, 0.25 + 1e-8)], classes


def window_cap_check(M, rows):
    """counterexample_growth's window norms, each at most log sqrt(pi) + 2N log M."""
    log_sqrt_pi = 0.5 * math.log(math.pi)
    ok = all(r.log_norm_restricted <= log_sqrt_pi + 2.0 * r.N * math.log(M) for r in rows)
    return check("window-cap", float(ok), 1.0, passed=ok)


def control_checks(problem, phi0s, trajectory=False):
    """Largest terminal or simulated residual of the phi0s' HUM controls (<= 1e-8),
    the worst-case state's |cost - c_obs| / c_obs (<= 1e-6), and the controls;
    with trajectory the first keeps its trajectory.
    """
    c_obs = problem.observability_constant()
    results = [hum_control(problem, phi0, with_trajectory=trajectory and i == 0)
               for i, phi0 in enumerate(phi0s)]
    resid = max(max(r.terminal_residual, r.simulated_residual) for r in results)
    duality = abs(hum_control(problem, problem.worst_case_initial_state()).cost - c_obs) / c_obs
    return [check("terminal-residual", resid, 1e-8),
            check("worst-case-duality", duality, 1e-6)], results


def covering_checks(spec, cov):
    """Besicovitch overlap against kappa = K^d, largest radius against 2 R C N^((1-eps)/2)."""
    cap = 2.0 * spec.R * cov.meta["C"] * cov.meta["N"] ** ((1.0 - spec.eps) / 2.0)
    max_r = max(r.radius for r in cov.elements)
    return [
        check("overlap", cov.meta["kappa_measured"], cov.kappa),
        check("radius-cap", max_r, cap, passed=max_r <= cap * (1 + 1e-12)),
    ]


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
    worst = max((orthonormality_check(d, N) for d, N in ((1, 20), (2, 10))),
                key=lambda c: c.value)
    return replace(worst, cid=1)


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


_SUITE_CACHE = {}


def lattice_suite(seed=DEFAULT_SEED):
    """C03 and C05's classification of 100 seeded f in E_10 on the unit lattice, m_max = 5.

    Returns ((bad-mass, far-mass), fs, classifications), cached per seed.
    """
    if seed not in _SUITE_CACHE:
        d, N = 1, 10
        fs = unit_samples(BasisIndexSet(d, N), seed + 3, 100)
        checks, classes = classification_checks(fs, lattice_covering(1.0, d, N, kappa=1), 5)
        _SUITE_CACHE[seed] = checks, fs, classes
    return _SUITE_CACHE[seed]


def criterion_03(seed=DEFAULT_SEED):
    """Far-mass fraction outside the concentration cells stays below 1/4."""
    (_, far), _, _ = lattice_suite(seed)
    return replace(far, cid=3, name="concentration")


def criterion_04(seed=DEFAULT_SEED):
    """Global Bernstein inequality via exact ladder-coefficient norms."""
    N = 10
    fs = unit_samples(BasisIndexSet(1, N), seed + 4, 100)
    margin, _ = bernstein_check(fs, 5, delta_choice(1.0, N, 1.0))
    # ladder norms against the exact Gauss-Hermite oracle
    quad_defect = max(abs(derivative_operator(f, 0).norm2() - _derivative_norm2(f))
                      for f in fs[:5])
    return replace(
        margin, cid=4, name="bernstein", passed=margin.passed and quad_defect <= 1e-10,
        details=f"quad_defect={format(quad_defect, '.17g')}",
    )


def criterion_05(seed=DEFAULT_SEED):
    """Bad-mass fraction below 1/2 and central-good mass at least 1/4."""
    (bad, _), fs, classes = lattice_suite(seed)
    worst_ratio = float("inf")
    ok = bad.passed
    for f, cls in zip(fs, classes):
        try:
            worst_ratio = min(worst_ratio, mass_intersection_check(f, cls).ratio)
        except VerificationError:
            ok = False
    ok &= worst_ratio >= 0.25 - 1e-8
    return replace(
        bad, cid=5, name="bad_mass_and_intersection", passed=ok,
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
    basis8 = BasisIndexSet(1, 8)
    G = gram_over_set(basis8, example_finite_measure_set(_FINITE_MEASURE, 8))
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
    c_star = 1.0 + 2.0 * math.log(M)
    band = min(
        (r.log_ratio - (r.N * math.log(r.N) - c_star * r.N)) / math.log(r.N) for r in rows
    )
    floor = min(r.log_ratio - r.N * math.log(r.N) + fitted_c * r.N for r in rows)
    ok = (window_cap_check(M, rows).passed and band >= -4.0 and floor >= -1e-9
          and fitted_c <= c_star + 1.0)
    return CriterionResult(
        8, "counterexample_growth", bool(ok), fitted_c, c_star + 1.0,
        details=f"band={format(band, '.17g')}",
    )


def criterion_09():
    """ControlProblem's factor: R_B^T R_B matches the closed-form Gramian at T = 1 and 0.05."""
    basis = BasisIndexSet(1, 12)
    worst = 0.0
    sets = (
        fullspace_window(1, 12),
        halfline_window(12),
        example_finite_measure_set(_FINITE_MEASURE, 12),
    )
    for S in sets:
        G = gram_over_set(basis, S)
        for T in (1.0, 0.05):
            R_B = ControlProblem(basis, G, T).R_B
            B = observability_gramian(G, basis, T)
            worst = max(worst, float(np.max(np.abs(R_B.T @ R_B - B.entries))))
    return CriterionResult(9, "observability_gramian", worst <= 1e-8, worst, 1e-8)


def criterion_10(seed=DEFAULT_SEED):
    """HUM control: terminal residual, cost bound, and worst-case duality."""
    basis = BasisIndexSet(1, 12)
    S = example_finite_measure_set(_FINITE_MEASURE, 12)
    problem = ControlProblem(basis, gram_over_set(basis, S), 1.0)
    c_obs = problem.observability_constant()
    (resid, duality), results = control_checks(problem, unit_samples(basis, seed + 10, 50))
    ok = resid.passed and duality.passed and all(r.cost <= c_obs * (1.0 + 1e-8) for r in results)
    return replace(
        duality, cid=10, name="hum_control", passed=ok,
        details=f"c_obs={format(c_obs, '.17g')},max_residual={format(resid.value, '.17g')}",
    )


def criterion_11():
    """Besicovitch covering: complete grid coverage, bounded overlap, radius cap."""
    spec = BallDensitySpec(gamma=0.5, alpha=0.0, eps=0.5, R=1.0, profile="power")
    ok = True
    worst_overlap_ratio = 0.0
    for d, N in [(1, N) for N in range(1, 10)] + [(2, 1)]:
        overlap, radius = covering_checks(spec, besicovitch_covering(spec, d, N, K=16))
        ok &= overlap.passed and radius.passed
        worst_overlap_ratio = max(worst_overlap_ratio, overlap.value / overlap.tolerance)
    return CriterionResult(11, "besicovitch_covering", ok, worst_overlap_ratio, 1.0)


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
