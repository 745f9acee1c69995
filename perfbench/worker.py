"""One measured hermspec process: set-up, then whole rounds of CLI jobs in-process.

    python3 perfbench/worker.py --root R --workload W --seed S --work DIR
        --result FILE [--rounds K] [--trace] [--setup-only]

Set-up is `import hermspec` plus one tiny spectral job (a d=1, N=1
interval), timed from before the import.  Then K whole rounds run.  Each
job is `hermspec.cli.main([...])` on a config written before its timer
starts.  With --trace, spans are recorded around every public hermspec
function and the per-layer metrics go into the result file.
"""

import argparse
import json
import os
import resource
import sys
import time


def _write_config(path, text, out_dir):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + f"out_dir = {out_dir}\n")


def _dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def _setup(root, work):
    cfg = os.path.join(work, "warmup.cfg")
    _write_config(cfg, "dimension = 1\ndegree_max = 1\nregion = box 0.5 0.5\n",
                  os.path.join(work, "warmup"))
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import hermspec  # noqa: F401
    from hermspec.cli import main
    rc = main(["spectral", "--config", cfg])
    setup_s = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"warm-up job exited with {rc}")
    return setup_s


def _run_job(sub, cfg):
    from hermspec.cli import main
    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        rc = main([sub, "--config", cfg])
    except SystemExit as exc:
        error = f"SystemExit: {exc.code}"
    except Exception as exc:  # a job that escapes the CLI counts as failed
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, error


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    setup_s = _setup(args.root, args.work)
    result = {"setup_s": setup_s}
    tracer = None
    if not args.setup_only:
        if args.trace:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        result.update(_run(args, tracer))
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = spans.layer_metrics(
            tracer, result["rounds"], _gram_errors(tracer), result["out_bytes"])
        with open(os.path.join(args.work, "spans.json"), "w") as fh:
            json.dump({"fields": ["name", "tag", "start", "end", "parent", "job", "counters"],
                       "spans": tracer.spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def _gram_errors(tracer):
    """Largest entry error of every traced gram_over_set result against the oracle."""
    import numpy as np
    import oracle

    worst = {}
    for regions, d, N, entries in tracer.gram_calls:
        tag = "ball" if any(r[0] == "ball" for r in regions) else "box"
        ref, _ = oracle.reference_gram(regions, d, N)
        worst[tag] = max(worst.get(tag, 0.0), float(np.max(np.abs(entries - ref))))
    return worst


def _run(args, tracer):
    from workloads import make_round

    jobs, walls = [], []
    out_bytes = 0
    for index in range(args.rounds):
        wall = 0.0
        for j, job in enumerate(make_round(args.workload, args.seed, index)):
            out_dir = os.path.join(args.work, f"r{index}", f"j{j}")
            cfg = out_dir + ".cfg"
            _write_config(cfg, job["config"], out_dir)
            if tracer is not None:
                tracer.job = len(jobs)
            latency, rc, error = _run_job(job["sub"], cfg)
            if tracer is not None:
                tracer.job = -1
                out_bytes += _dir_bytes(out_dir)
            wall += latency
            jobs.append({"round": index, "index": j, "latency": latency, "rc": rc,
                         "error": error, "out_dir": out_dir})
        walls.append(wall)
    return {"rounds": args.rounds, "round_walls": walls, "jobs": jobs, "out_bytes": out_bytes}


if __name__ == "__main__":
    main()
