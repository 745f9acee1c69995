"""Config-driven batch front-end.

Usage: hermspec <subcommand> --config <path> [--set key=value]...

Config files are flat `key = value` lines with `#` comments; `region` may
repeat to describe an inline sensor set.  Every subcommand writes
`<out_dir>/<subcommand>.csv` plus `<out_dir>/manifest.txt` with one
`check status value tolerance` line per asserted check.  Exit code 0
iff every asserted check passes, 1 on a numerical verification failure, 2 on
a config error (a parse error, or a parameter the computation rejects).
"""

import argparse
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import acceptance, gram
from .acceptance import (
    _derivative_norm2, bernstein_check, check, classification_checks, control_checks,
    covering_checks, criterion_13, orthonormality_check, results_csv, run_criteria,
    unit_samples, window_cap_check,
)
from .basis import BasisIndexSet, derivative_operator
from .bounds import (
    BoundParams,
    cobs_bound_log,
    delta_choice,
    thm_balls_bound,
    thm_cubes_bound,
    thm_general_bound,
)
from .control import ControlProblem
from .errors import (
    ConfigError,
    InputError,
    NonControllableError,
    NonObservableError,
    QuadratureError,
    ResolutionError,
    VerificationError,
)
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
from .gram import gram_over_set, gram_fullspace_weighted
from .rng import SplitMix64
from .spectral import counterexample_growth, spectral_report


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _at_least(low):
    def convert(text):
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value
    return convert


# `region` repeats; every other key takes its last value
_SCHEMA = {
    "seed": int,
    **dict.fromkeys(("degree_max", "N_min", "N_max"), _at_least(0)),
    **dict.fromkeys(("dimension", "K", "samples", "m_max"), _at_least(1)),
    **dict.fromkeys((
        "delta", "T", "C1", "C2", "C3", "gamma", "beta", "alpha", "rho", "R", "eps",
        "kappa", "eta", "D", "zeta", "d0", "d1", "M", "weight", "window_radius",
    ), _finite),
    **dict.fromkeys(("set", "covering", "profile", "out_dir", "region"), str),
}

_DEFAULTS = {
    "seed": acceptance.DEFAULT_SEED,
    "samples": 20,
    "m_max": 5,
    "T": 1.0,
    "K": 16,
    "C1": 1.0,
    "C2": 1.0,
    "C3": 1.0,
    "out_dir": "out",
    "covering": "lattice",
    "set": "inline",
}


def _assign(cfg, item, where, line=None):
    """Store one `key = value` item in cfg, converted by _SCHEMA.

    where ("line 7" or "--set 'T=0.5'") starts each error message and is kept
    with each region entry; line is the config line number (None for --set).
    """
    if "=" not in item:
        raise ConfigError(f"{where}: expected 'key = value'", line)
    key, value = (s.strip() for s in item.split("=", 1))
    if key not in _SCHEMA:
        raise ConfigError(f"{where}: unknown key '{key}'", line)
    if key == "region":
        cfg["region"].append((where, value))
        return
    try:
        cfg[key] = _SCHEMA[key](value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for '{key}': {value!r} ({exc})", line) from None


def parse_config(text, overrides=()):
    """Parse flat `key = value` config text, then apply `key=value` overrides.

    Text after `#` is a comment.  Config lines and overrides go through one
    conversion: integers (`dimension`, `K`, `samples` and `m_max` at least 1;
    `degree_max`, `N_min` and `N_max` at least 0), finite floats (no nan or
    inf), strings.  A later value of a key replaces an earlier one,
    except `region`, which accumulates as (where, text) entries.  Raises
    ConfigError naming the key, the value and the config line or override.
    """
    cfg = {"region": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            _assign(cfg, line, f"line {lineno}", lineno)
    for item in overrides:
        _assign(cfg, item, f"--set {item!r}")
    return cfg


class _MissingKey(ConfigError):
    """A required key is absent; main names the subcommand that needs it."""


def _get(cfg, key):
    if key in cfg:
        return cfg[key]
    if key in _DEFAULTS:
        return _DEFAULTS[key]
    raise _MissingKey(key)


def _ball_spec(cfg):
    return BallDensitySpec(
        gamma=_get(cfg, "gamma"), alpha=cfg.get("alpha", 0.0),
        eps=cfg.get("eps", 0.5), R=cfg.get("R", 1.0),
        profile=cfg.get("profile", "power"),
    )


def _sensor_set(cfg):
    kind = _get(cfg, "set")
    d = _get(cfg, "dimension")
    N = _get(cfg, "degree_max")
    if kind == "inline":
        if not cfg["region"]:
            raise ConfigError("set=inline needs region lines")
        parsed = []
        for where, line in cfg["region"]:
            try:
                parsed.append(Region.from_line(line, d))
            except InputError as exc:
                raise ConfigError(f"{where}: region {line!r}: {exc}") from None
        return SensorSet(tuple(parsed))
    if kind == "fullspace_window":
        return fullspace_window(d, N, cfg.get("window_radius"))
    if kind == "halfline_window":
        if d != 1:
            raise ConfigError("set=halfline_window requires dimension=1")
        return halfline_window(N)
    if kind == "finite_measure":
        spec = CubeDensitySpec(
            gamma=_get(cfg, "gamma"), beta=_get(cfg, "beta"),
            rho=cfg.get("rho", 1.0), d=d,
        )
        return example_finite_measure_set(spec, N, cfg.get("window_radius"))
    raise ConfigError(f"unknown set kind '{kind}'")


@contextmanager
def _inline_lines(cfg):
    """Re-raise an InputError about inline regions as a ConfigError naming their lines."""
    try:
        yield
    except InputError as exc:
        if not exc.regions or _get(cfg, "set") != "inline":
            raise
        named = " and ".join("%s: region %r" % cfg["region"][i] for i in exc.regions)
        raise ConfigError(f"{exc} ({named})") from None


def _write(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _emit(cfg, sub, header, rows, checks):
    """Write <sub>.csv and manifest.txt; return the failing checks."""
    outdir = _get(cfg, "out_dir")
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else format(float(v), ".17g") for v in row
        ))
    _write(outdir, f"{sub}.csv", "\n".join(lines) + "\n")
    _write(outdir, "manifest.txt", "".join(c.manifest_line() + "\n" for c in checks))
    return [c for c in checks if not c.passed]


def cmd_basis_check(cfg):
    d = _get(cfg, "dimension")
    N = _get(cfg, "degree_max")
    basis = BasisIndexSet(d, N)
    size_ok = basis.size == math.comb(N + d, d)
    ortho = orthonormality_check(d, N)
    (f,) = unit_samples(basis, _get(cfg, "seed"), 1)
    df = derivative_operator(f, 0)
    ladder = abs(df.norm2() - _derivative_norm2(f)) / df.norm2()
    rows = [
        ("size", basis.size, float(size_ok)),
        ("gram_deviation", ortho.value, ortho.tolerance),
        ("ladder_norm", ladder, 1e-10),
    ]
    checks = [
        check("basis-size", basis.size, 0.0, passed=size_ok),
        ortho,
        check("ladder-norm", ladder, 1e-10),
    ]
    return _emit(cfg, "basis-check", ("check", "value", "tolerance"), rows, checks)


def cmd_decay(cfg):
    d = _get(cfg, "dimension")
    N = _get(cfg, "degree_max")
    w = cfg.get("weight", 1.0 / (64.0 * d))
    samples = _get(cfg, "samples")
    basis = BasisIndexSet(d, N)
    Gw = gram_fullspace_weighted(basis, w)
    bound = 2.0 ** (2 * (d + 1) + N)
    rng = SplitMix64(_get(cfg, "seed"))
    rows = []
    worst = 0.0
    # sample 0 is the pure ground state (analytic reference case)
    for i in range(samples):
        c = np.zeros(basis.size)
        if i == 0:
            c[0] = 1.0
        else:
            c = rng.unit_coeffs(basis.size)
        ratio = float(c @ Gw.entries @ c)
        worst = max(worst, ratio)
        rows.append((i, ratio, bound))
    checks = [check("decay-ratio", worst, bound, passed=worst <= bound - 1e-6)]
    return _emit(cfg, "decay", ("sample", "ratio", "bound"), rows, checks)


def cmd_bernstein(cfg):
    d = _get(cfg, "dimension")
    N = _get(cfg, "degree_max")
    m_max = _get(cfg, "m_max")
    samples = _get(cfg, "samples")
    delta = cfg.get("delta", delta_choice(cfg.get("D", 1.0), N, cfg.get("eps", 1.0)))
    fs = unit_samples(BasisIndexSet(d, N), _get(cfg, "seed"), samples)
    margin, rows = bernstein_check(fs, m_max, delta)
    return _emit(cfg, "bernstein", ("sample", "m", "log_lhs", "log_rhs"), rows, [margin])


def cmd_gram(cfg):
    d = _get(cfg, "dimension")
    N = _get(cfg, "degree_max")
    basis = BasisIndexSet(d, N)
    with _inline_lines(cfg):
        G = gram_over_set(basis, _sensor_set(cfg))
    gap = G.reference_gap
    checks = [check("gram-reference", gap, gram.QUAD_TOL)]
    header = [str(i) for i in range(basis.size)]
    return _emit(cfg, "gram", header, G.entries, checks)


def cmd_spectral(cfg):
    d = _get(cfg, "dimension")
    N = _get(cfg, "degree_max")
    basis = BasisIndexSet(d, N)
    with _inline_lines(cfg):
        report = spectral_report(basis, _sensor_set(cfg))
    rows = [(report.N, report.d, report.set_hash, report.lam_min)]
    checks = [check("spectral-positive", report.lam_min, 0.0, passed=report.lam_min > 0)]
    return _emit(cfg, "spectral", ("N", "d", "set_hash", "lam_min"), rows, checks)


def cmd_classify(cfg):
    d = _get(cfg, "dimension")
    N = _get(cfg, "degree_max")
    m_max = _get(cfg, "m_max")
    samples = _get(cfg, "samples")
    basis = BasisIndexSet(d, N)
    covering = _get(cfg, "covering")
    if covering == "besicovitch":
        cov = besicovitch_covering(_ball_spec(cfg), d, N, K=_get(cfg, "K"))
    elif covering == "lattice":
        kappa = cfg.get("kappa", 1.0)
        if kappa != int(kappa):
            raise ConfigError(f"bad value for 'kappa': {kappa!r} (classify needs an integer)")
        cov = lattice_covering(cfg.get("rho", 1.0), d, N, kappa=int(kappa))
    else:
        raise ConfigError(f"unknown covering '{covering}'")
    fs = unit_samples(basis, _get(cfg, "seed"), samples)
    checks, classes = classification_checks(fs, cov, m_max, cfg.get("delta"))
    rows = [(i, c.bad_mass_fraction, c.far_mass_fraction, int(np.sum(c.good)), c.max_flip_m)
            for i, c in enumerate(classes)]
    return _emit(cfg, "classify",
                 ("sample", "bad_mass_fraction", "far_mass_fraction",
                  "good_cells", "max_flip_m"), rows, checks)


def cmd_besicovitch(cfg):
    d = _get(cfg, "dimension")
    N = _get(cfg, "degree_max")
    spec = _ball_spec(cfg)
    cov = besicovitch_covering(spec, d, N, K=_get(cfg, "K"))
    rows = [
        (k, *r.center, r.radius, int(k in cov.central))
        for k, r in enumerate(cov.elements)
    ]
    header = ("index", *(f"c{j}" for j in range(d)), "radius", "central")
    return _emit(cfg, "besicovitch", header, rows, covering_checks(spec, cov))


def cmd_bounds(cfg):
    d = _get(cfg, "dimension")
    N = _get(cfg, "degree_max")
    rows = []
    params = BoundParams(
        d=d, N=N, gamma=_get(cfg, "gamma"),
        beta=cfg.get("beta"), alpha=cfg.get("alpha"),
        rho=cfg.get("rho"), R=cfg.get("R"),
        eps=cfg.get("eps", 1.0), kappa=cfg.get("kappa", 1.0),
        eta=cfg.get("eta", 1.0), D=cfg.get("D", 1.0), K=_get(cfg, "K"),
    )
    rows.append(("general", thm_general_bound(params).log_value))
    if params.beta is not None and params.rho is not None:
        rows.append(("cubes", thm_cubes_bound(params).log_value))
    if params.alpha is not None and params.R is not None:
        rows.append(("balls", thm_balls_bound(params).log_value))
    if "zeta" in cfg:
        rows.append(("cobs", cobs_bound_log(
            _get(cfg, "d0"), _get(cfg, "d1"), cfg["zeta"],
            _get(cfg, "T"), _get(cfg, "C1"),
            _get(cfg, "C2"), _get(cfg, "C3"),
        )))
    finite = all(math.isfinite(v) for _, v in rows)
    checks = [check("bounds-finite", float(finite), 1.0, passed=finite)]
    return _emit(cfg, "bounds", ("bound", "log_value"), rows, checks)


def cmd_counterexample(cfg):
    M = _get(cfg, "M")
    n0 = cfg.get("N_min", 10)
    n1 = cfg.get("N_max", 40)
    if n1 < n0 + 2:
        # the check takes second differences of the log ratios
        raise ConfigError(f"counterexample needs N_max >= N_min + 2, got {n0}..{n1}")
    rows_data, fitted_c = counterexample_growth(M, list(range(n0, n1 + 1)))
    rows = [(r.N, r.log_norm_full, r.log_norm_restricted, r.log_ratio)
            for r in rows_data]
    diffs = [b.log_ratio - a.log_ratio for a, b in zip(rows_data, rows_data[1:])]
    super_linear = all(d > 0 for d in diffs) and all(
        d2 > d1 for d1, d2 in zip(diffs, diffs[1:])
    )
    checks = [
        check("growth-monotone-superlinear", fitted_c, 0.0, passed=super_linear),
        window_cap_check(M, rows_data),
    ]
    return _emit(cfg, "counterexample",
                 ("N", "log_norm_full", "log_norm_restricted", "log_ratio"),
                 rows, checks)


def cmd_control(cfg):
    d = _get(cfg, "dimension")
    N = _get(cfg, "degree_max")
    T = _get(cfg, "T")
    samples = _get(cfg, "samples")
    basis = BasisIndexSet(d, N)
    with _inline_lines(cfg):
        G_S = gram_over_set(basis, _sensor_set(cfg))
    problem = ControlProblem(basis, G_S, T)
    phi0s = unit_samples(basis, _get(cfg, "seed"), samples)
    checks, results = control_checks(problem, phi0s, trajectory=True)
    _write(_get(cfg, "out_dir"), "trajectory.csv", results[0].trajectory_csv())
    cobs = problem.observability_constant()
    rows = [(i, r.cost, r.terminal_residual, r.simulated_residual, cobs)
            for i, r in enumerate(results)]
    return _emit(cfg, "control",
                 ("sample", "cost", "terminal_residual", "simulated_residual",
                  "c_obs_num"), rows, checks)


def cmd_report(cfg):
    seed = _get(cfg, "seed")
    results = run_criteria(seed)
    results.append(criterion_13(seed, results))
    outdir = _get(cfg, "out_dir")
    _write(outdir, "report.csv", results_csv(results))
    _write(outdir, "manifest.txt",
           "".join(r.manifest_line() + "\n" for r in results))
    return [r for r in results if not r.passed]


_COMMANDS = {
    "basis-check": cmd_basis_check,
    "decay": cmd_decay,
    "bernstein": cmd_bernstein,
    "gram": cmd_gram,
    "spectral": cmd_spectral,
    "classify": cmd_classify,
    "besicovitch": cmd_besicovitch,
    "bounds": cmd_bounds,
    "counterexample": cmd_counterexample,
    "control": cmd_control,
    "report": cmd_report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="hermspec", description=__doc__)
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="key=value")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read(), args.overrides)
        failures = _COMMANDS[args.subcommand](cfg)
    except _MissingKey as exc:
        print(f"config error: missing required key '{exc}' for subcommand "
              f"'{args.subcommand}'", file=sys.stderr)
        return 2
    except (ConfigError, OSError, InputError, ResolutionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        if exc.ledger:
            print(exc.ledger, file=sys.stderr)
        return 1
    except (QuadratureError, NonObservableError, NonControllableError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    if failures:
        for c in failures:
            print(f"verification failure: {c.manifest_line()}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
