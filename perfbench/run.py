"""hermspec benchmark: end-to-end CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

W = all runs the four workloads one after another, each in its own processes.

Workloads (see workloads.py for the generators):
  certify       `hermspec report` with seed = S, two reports per run
  box-queries   spectral and gram jobs on box-only sets, d = 1, 2, 3
  disc-queries  spectral jobs on d = 2 sets with one or two discs, N <= 4
  classify      d = 1 lattice and Besicovitch classifications, one coarse d = 2 lattice

BENCHMARK.json gates the first three.  classify is left out of it because its
short d = 1 jobs sit in a few seconds of each run, so its median latency
follows the host's speed drift more than the code; its layers (CellContext,
classify_cells, coverings) also run inside certify's report.

Each run times set-up (import hermspec plus a d=1, N=1 spectral job) in
eight fresh processes, half before and half after the measured rounds so
that their median spans the run.  It measures in one fresh worker process
that runs a fixed number of whole rounds of jobs in-process through
hermspec.cli.main: as many as take about T seconds on a 2-core host
(workloads.rounds_for), so that a seed and T fix the job list.  With --trace 1 the same rounds run
again in a second worker with spans around every public hermspec function,
and the last line carries the per-layer metrics instead of the end-to-end
ones.

Outputs are checked after the timed runs, against references computed here
and not by hermspec (oracle.py); certify checks its 13 pass lines and that
report.csv is byte-identical across the run's reports.  A job fails on a
nonzero exit, an exception, a FAIL manifest line or an oracle mismatch;
`correct` is false when an output disagrees with its reference by more than
the README's documented accuracy or when certify's reports differ.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Scratch files go under .perfbench_work/ in the checkout.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_round, rounds_for  # noqa: E402

SETUP_PROBES = 8
# one workload's run, workers included, must end within 180 s
DEADLINE_S = 175.0
# ref_digits cannot exceed what a double resolves against the reference
ERR_FLOOR = 1e-17


def _worker(workload, seed, work, extra, start):
    """Run worker.py in a fresh process and return its result dict."""
    os.makedirs(work, exist_ok=True)
    result = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--work", work,
           "--result", result, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(extra)} ran past the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker {' '.join(extra)} exited with {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    return [ln.split(",") for ln in lines]


def _manifest_failed(out_dir):
    path = os.path.join(out_dir, "manifest.txt")
    if not os.path.exists(path):
        return False
    with open(path) as fh:
        return any(ln.split()[1:2] == ["FAIL"] for ln in fh if ln.strip())


def _check_value(job, out_dir):
    """(error, tolerance) of a spectral or gram job's output against the oracle."""
    import numpy as np
    import oracle

    d, N, regions = job["d"], job["N"], job["regions"]
    ref, oracle_err = oracle.reference_gram(regions, d, N)
    entry_tol = oracle.documented_tolerance(regions, d)
    if job["sub"] == "spectral":
        lam = float(_read_csv(os.path.join(out_dir, "spectral.csv"))[1][3])
        err = abs(lam - oracle.reference_lam_min(ref))
        return err, oracle.lam_tolerance(ref.shape[0], entry_tol, oracle_err)
    G = np.array([[float(v) for v in row] for row in _read_csv(
        os.path.join(out_dir, "gram.csv"))[1:]])
    return float(np.max(np.abs(G - ref))), entry_tol + oracle_err


def check_jobs(workload, seed, result):
    """Per-job failure flags, the worst oracle error, and whether outputs are correct."""
    failed = []
    correct = True
    worst_err = None
    notes = []
    rounds = [make_round(workload, seed, i) for i in range(result["rounds"])]
    for rec in result["jobs"]:
        job = rounds[rec["round"]][rec["index"]]
        bad = rec["rc"] != 0 or rec["error"] is not None or _manifest_failed(rec["out_dir"])
        if rec["error"] is not None:
            notes.append(f"r{rec['round']}j{rec['index']}: {rec['error']}")
        if job["regions"] is not None and rec["error"] is None:
            try:
                err, tol = _check_value(job, rec["out_dir"])
            except (OSError, IndexError, ValueError) as exc:
                # a job that exits 1 may legitimately leave no output
                if rec["rc"] == 0:
                    notes.append(f"r{rec['round']}j{rec['index']}: unreadable output ({exc})")
                    correct = False
                bad = True
            else:
                worst_err = err if worst_err is None else max(worst_err, err)
                if not err <= tol:
                    notes.append(f"r{rec['round']}j{rec['index']}: error {err:.3g} > {tol:.3g}")
                    correct = False
                    bad = True
        failed.append(bad)
    if workload == "certify":
        reports = []
        for i, rec in enumerate(result["jobs"]):
            path = os.path.join(rec["out_dir"], "report.csv")
            manifest = os.path.join(rec["out_dir"], "manifest.txt")
            if not (os.path.exists(path) and os.path.exists(manifest)):
                correct = False
                continue
            with open(path, "rb") as fh:
                reports.append(fh.read())
            with open(manifest) as fh:
                passes = sum(1 for ln in fh if ln.split()[1:2] == ["pass"])
            if passes != 13:
                notes.append(f"report r{rec['round']}: {passes} of 13 criteria pass")
                failed[i] = True
        if len(reports) < 2 or any(r != reports[0] for r in reports):
            notes.append("report.csv differs between the run's reports")
            correct = False
    return failed, worst_err, correct, notes


def _calibration_s():
    """Time of a fixed pure-Python loop: a probe of host speed, not gated."""
    def loop():
        t0 = time.perf_counter()
        acc = 0
        for i in range(300000):
            acc = (acc + i * i) % 1000003
        return time.perf_counter() - t0
    return statistics.median(loop() for _ in range(3))


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded (None if unknown)."""
    import ctypes
    import re

    try:
        with open("/proc/self/maps") as fh:
            libs = {m.group(1) for m in (re.search(r"(/\S*openblas\S*\.so\S*)", ln)
                                         for ln in fh) if m}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha():
    """HEAD's commit read from the checkout's own .git (None outside a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_record(workload, seed, seconds):
    import numpy as np

    src_lines = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "git_sha": _git_sha(),
        "src_lines": src_lines, "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": _calibration_s(),
    }


def run_workload(workload, seed, seconds, trace):
    """Run one workload, print its metrics, and end with the JSON result line."""
    start = time.monotonic()
    work = os.path.join(ROOT, ".perfbench_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    record = run_record(workload, seed, seconds)

    def setup_s(i):
        return _worker(workload, seed, os.path.join(work, f"setup{i}"), ["--setup-only"],
                       start)["setup_s"]

    setups = [setup_s(i) for i in range(SETUP_PROBES // 2)]
    rounds = ["--rounds", str(rounds_for(workload, seconds))]
    res = _worker(workload, seed, os.path.join(work, "run"), rounds, start)
    setups += [setup_s(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    traced = None
    if trace:
        traced = _worker(workload, seed, os.path.join(work, "traced"),
                         rounds + ["--trace"], start)
    record["calibration_end_s"] = _calibration_s()

    failed, worst_err, correct, notes = check_jobs(workload, seed, res)
    if traced is not None:
        _, _, t_correct, t_notes = check_jobs(workload, seed, traced)
        correct = correct and t_correct
        notes += [f"traced {n}" for n in t_notes]
    latencies = [j["latency"] for j in res["jobs"]]
    n = len(latencies)
    metrics = {
        "jobs_per_s": (n / sum(latencies), "1/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["maxrss_mb"], "MB"),
    }
    extra = {"fail_frac": (sum(failed) / n, "1")}
    if n >= 100:
        extra["job_p90_s"] = (statistics.quantiles(latencies, n=10)[-1], "s")
    if worst_err is not None:
        extra["ref_digits"] = (-math.log10(max(worst_err, ERR_FLOOR)), "digits")

    print(f"# run record: {json.dumps(record, sort_keys=True)}")
    print(f"# {workload} seed={seed}: {res['rounds']} rounds, {n} jobs, "
          f"{sum(failed)} failed; setup probes n={len(setups)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        samples = len(setups) if name == "setup_s" else n
        print(f"{name:<14} {value:.6g} {unit} (n={samples})")
    for note in notes[:20]:
        print(f"# {note}")

    if traced is not None:
        layers = traced["layers"]
        layers["trace.overhead_frac"] = sum(traced["round_walls"]) / sum(res["round_walls"]) - 1.0
        from spans import PER_LAYER
        units = dict(PER_LAYER)
        for name, value in layers.items():
            print(f"{name:<48} {value:.6g} {units[name]}")
        out = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        out = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print(json.dumps({"correct": bool(correct), "attempted": n, "failed": sum(failed),
                      "metrics": out}), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "hermspec", "__init__.py")):
        sys.exit("perfbench: no hermspec sources under src/ in this checkout")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
