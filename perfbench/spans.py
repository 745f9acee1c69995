"""Outside-in span tracing of hermspec's public functions.

install() wraps every public function defined in the traced modules, plus the
constructors of SensorSet and CellContext, and rebinds each wrapper wherever
an hermspec module binds the original: module globals (for example both
hermspec.spectral.jacobi_eigh and hermspec.control.jacobi_eigh) and
module-level dicts such as the CLI's command table and acceptance.CRITERIA.
Spans (name, tag, start, end, parent id, job id, counters) stay in memory;
layer metrics are computed from them after the run.
"""

import functools
import importlib
import inspect
import math
import resource
import sys
import time

MODULES = ("basis", "geometry", "gram", "spectral", "bounds", "control", "acceptance", "cli")
_NO_ARG = object()


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, tag, start, end, parent, job, counters]
        self.stack = []
        self.job = -1
        self.gram_calls = []  # (regions, d, N, entries) of every gram_over_set call

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, "", time.perf_counter(), 0.0, parent, self.job, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, counters=None, track_rss=False):
        """Wrapper recording a span.

        counters(tracer, span, args, kwargs, result) runs after the call; with
        track_rss the rise of ru_maxrss across the call is added as rss_mb.
        """
        tracer = self

        def call(args, kwargs):
            rss0 = _maxrss_mb() if track_rss else 0.0
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if counters is not None:
                counters(tracer, span, args, kwargs, result)
            if track_rss:
                span[6] = dict(span[6] or {}, rss_mb=_maxrss_mb() - rss0)
            return result

        # keep a leading positional parameter visible: acceptance.run_criteria
        # passes the seed only to criteria whose __code__.co_argcount is nonzero
        if fn.__code__.co_argcount:
            def wrapper(first=_NO_ARG, *args, **kwargs):
                return call(args if first is _NO_ARG else (first,) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(args, kwargs)
        functools.update_wrapper(wrapper, fn)
        return wrapper


def _regions_of(S):
    out = []
    for r in S.regions:
        size = tuple(r.half_sides) if r.kind == "box" else r.radius
        out.append((r.kind, tuple(r.center), size))
    return out


def _gram_counters(tracer, span, args, kwargs, G):
    basis = args[0] if args else kwargs["basis"]
    S = args[1] if len(args) > 1 else kwargs["S"]
    span[1] = "ball" if any(r.kind == "ball" for r in S.regions) else "box"
    if S.regions:
        tracer.gram_calls.append((_regions_of(S), basis.dimension, basis.max_degree,
                                  G.entries))


def _points_counter(tracer, span, args, kwargs, result):
    span[6] = {"points": int(result[1].shape[0])}


def _evals_counter(tracer, span, args, kwargs, result):
    span[6] = {"evals": int(result.size)}


def _n3_counter(tracer, span, args, kwargs, result):
    n = int(result[0].shape[0])
    span[6] = {"n3": n ** 3}


def _cells_counter(tracer, span, args, kwargs, cov):
    span[6] = {"cells": len(cov.elements)}


def _besicovitch_counters(tracer, span, args, kwargs, cov):
    d = args[1] if len(args) > 1 else kwargs["d"]
    side = 2 * math.ceil(cov.meta["A_radius"] / cov.meta["resolution"]) + 1
    span[6] = {"balls": len(cov.elements), "grid_points": side ** d}


def _context_counters(tracer, span, args, kwargs, result):
    span[6] = {"points": sum(int(w.shape[0]) for w, _ in args[0].cells)}


def _sensor_counters(tracer, span, args, kwargs, result):
    r = len(args[0].regions)
    span[6] = {"region_pairs": r * (r - 1) // 2}


def install(tracer):
    """Wrap hermspec's public functions and two constructors in place."""
    mods = {m: importlib.import_module(f"hermspec.{m}") for m in MODULES}
    special = {
        "gram.gram_over_set": _gram_counters,
        "gram.region_quadrature": _points_counter,
        "basis.eval_phi_table": _evals_counter,
        "spectral.jacobi_eigh": _n3_counter,
        "geometry.lattice_covering": _cells_counter,
        "geometry.besicovitch_covering": _besicovitch_counters,
    }
    originals = {}
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            originals[fn] = tracer.wrap(name, fn, special.get(name),
                                        track_rss=name == "geometry.besicovitch_covering")

    SensorSet, CellContext = mods["geometry"].SensorSet, mods["spectral"].CellContext
    SensorSet.__post_init__ = tracer.wrap("geometry.SensorSet", SensorSet.__post_init__,
                                          _sensor_counters)
    CellContext.__init__ = tracer.wrap("spectral.CellContext", CellContext.__init__,
                                       _context_counters, track_rss=True)

    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "hermspec" or modname.startswith("hermspec.")):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in originals:
                setattr(mod, attr, originals[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in originals:
                        value[key] = originals[item]


# (metric, unit) in report order; sums are per traced round
PER_LAYER = [
    ("spectral.jacobi_eigh.calls", "count"), ("spectral.jacobi_eigh.self_s", "s"),
    ("spectral.eig_n3", "count"), ("spectral.eig_n3_per_s", "1/s"),
    ("spectral.spectral_constant.calls", "count"), ("spectral.spectral_constant.self_s", "s"),
    ("gram.gram_over_set.ball.calls", "count"), ("gram.gram_over_set.ball.self_s", "s"),
    ("gram.ref_err_max.ball", "1"),
    ("gram.gram_over_set.box.calls", "count"), ("gram.gram_over_set.box.self_s", "s"),
    ("gram.ref_err_max.box", "1"),
    ("gram.region_quadrature.calls", "count"), ("gram.region_quadrature.self_s", "s"),
    ("gram.region_quadrature.points", "count"),
    ("gram.gram_fullspace_weighted.calls", "count"),
    ("gram.gram_fullspace_weighted.self_s", "s"),
    ("basis.eval_phi_table.calls", "count"), ("basis.eval_phi_table.self_s", "s"),
    ("basis.eval_phi_table.evals", "count"),
    ("basis.derivative_operator.calls", "count"), ("basis.derivative_operator.self_s", "s"),
    ("geometry.SensorSet.calls", "count"), ("geometry.SensorSet.self_s", "s"),
    ("geometry.region_pairs", "count"),
    ("geometry.besicovitch_covering.calls", "count"),
    ("geometry.besicovitch_covering.self_s", "s"),
    ("geometry.besicovitch_covering.balls", "count"),
    ("geometry.besicovitch_covering.grid_points", "count"),
    ("geometry.besicovitch_covering.rss_mb", "MB"),
    ("geometry.lattice_covering.calls", "count"), ("geometry.lattice_covering.self_s", "s"),
    ("geometry.lattice_covering.cells", "count"),
    ("geometry.example_finite_measure_set.self_s", "s"),
    ("spectral.CellContext.calls", "count"), ("spectral.CellContext.self_s", "s"),
    ("spectral.CellContext.points", "count"), ("spectral.CellContext.rss_mb", "MB"),
    ("spectral.classify_cells.calls", "count"), ("spectral.classify_cells.self_s", "s"),
    ("spectral.derivative_columns.calls", "count"),
    ("spectral.derivative_columns.self_s", "s"),
    ("control.hum_control.calls", "count"), ("control.hum_control.self_s", "s"),
    ("control.eigh_per_solve", "count"),
    ("control.worst_case_initial_state.calls", "count"),
    ("control.worst_case_initial_state.self_s", "s"),
    ("control.observability_gramian.calls", "count"),
    ("control.observability_gramian.self_s", "s"),
    ("control.observability_gramian_quadrature.calls", "count"),
    ("control.observability_gramian_quadrature.self_s", "s"),
    ("acceptance.run_criteria.calls", "count"),
    *[(f"acceptance.C{i:02d}.s", "s") for i in range(1, 14)],
    ("bounds.calls", "count"),
    ("cli.main.self_s", "s"), ("cli.out_bytes", "bytes"),
    ("trace.overhead_frac", "1"),
]


def layer_metrics(tracer, rounds, gram_errors, out_bytes):
    """Per-layer metrics from the spans of `rounds` traced rounds.

    Counts, self times and byte counts are per round; ratios, maxima and
    the memory rises are over the whole traced run.  trace.overhead_frac
    needs the untraced run and is filled in by the caller.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, tag, t0, t1, parent, job, counts in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_s, inclusive, counters, rss = {}, {}, {}, {}, {}
    jacobi_in_hum = 0
    bounds_calls = 0
    cli_self = 0.0
    for i, (name, tag, t0, t1, parent, job, counts) in enumerate(spans):
        key = f"{name}.{tag}" if tag else name
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + (t1 - t0) - child[i]
        inclusive[key] = inclusive.get(key, 0.0) + (t1 - t0)
        if name.startswith("bounds."):
            bounds_calls += 1
        if name.startswith("cli."):
            cli_self += (t1 - t0) - child[i]
        for cname, value in (counts or {}).items():
            ckey = f"{name}.{cname}"
            if cname == "rss_mb":
                rss[ckey] = max(rss.get(ckey, 0.0), value)
            else:
                counters[ckey] = counters.get(ckey, 0) + value
        if name == "spectral.jacobi_eigh":
            p = parent
            while p >= 0 and spans[p][0] != "control.hum_control":
                p = spans[p][4]
            jacobi_in_hum += p >= 0

    n3 = counters.get("spectral.jacobi_eigh.n3", 0)
    jac_s = self_s.get("spectral.jacobi_eigh", 0.0)
    hum = calls.get("control.hum_control", 0)
    special = {
        "spectral.eig_n3": n3 / rounds,
        "spectral.eig_n3_per_s": n3 / jac_s if jac_s > 0 else 0.0,
        "gram.ref_err_max.ball": gram_errors.get("ball", 0.0),
        "gram.ref_err_max.box": gram_errors.get("box", 0.0),
        "geometry.region_pairs": counters.get("geometry.SensorSet.region_pairs", 0) / rounds,
        "control.eigh_per_solve": jacobi_in_hum / hum if hum else 0.0,
        "bounds.calls": bounds_calls / rounds,
        "cli.main.self_s": cli_self / rounds,
        "cli.out_bytes": out_bytes / rounds,
    }
    for i in range(1, 14):
        special[f"acceptance.C{i:02d}.s"] = (
            inclusive.get(f"acceptance.criterion_{i:02d}", 0.0) / rounds)
    out = {}
    for metric, _ in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if metric == "trace.overhead_frac":
            continue
        if metric in special:
            out[metric] = special[metric]
        elif field == "calls":
            out[metric] = calls.get(base, 0) / rounds
        elif field == "self_s":
            out[metric] = self_s.get(base, 0.0) / rounds
        elif field == "rss_mb":
            out[metric] = rss.get(metric, 0.0)
        else:
            out[metric] = counters.get(metric, 0) / rounds
    return out
