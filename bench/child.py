"""One pass over a workload, in its own process.

    python3 bench/child.py --workload NAME --seed N --out DIR --spawned-at T
                           [--trace | --setup-only] [--held-out]

Imports numpy and wavelab from the checkout's ``src``, generates the
workload's configs, runs them back to back through
``wavelab.cli.run_experiment``, checks every output and writes
``DIR/result.json``.  ``run.py`` starts this process with the BLAS and
OpenMP thread counts pinned to 1 and ``WAVELAB_THREADS`` unset; ``T`` is
its ``time.monotonic()`` just before the start, so set-up time covers the
interpreter, the imports and config generation.  With ``--setup-only``
the process stops there and reports only its set-up time and the gauge.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [SRC, BENCH]

import numpy as np  # noqa: E402

# run.py's host-speed gauge ends here: interpreter start-up and the numpy
# import, which no change to wavelab can speed up or slow down.
GAUGE_END = time.monotonic()

import wavelab  # noqa: E402
import wavelab.cli  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import check, make_jobs  # noqa: E402


def csv_digest(out_dir) -> str:
    """SHA-256 over the job's CSV outputs, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(out_dir, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def blas_build() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--held-out", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.abspath(wavelab.__file__).startswith(SRC + os.sep):
        print(f"wavelab imported from {wavelab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    jobs = make_jobs(args.workload, args.seed, held_out=args.held_out)
    paths = []
    for i, job in enumerate(jobs):
        job_dir = os.path.join(args.out, f"job{i}")
        os.makedirs(job_dir, exist_ok=True)
        config_path = os.path.join(job_dir, "config.json")
        with open(config_path, "w") as f:
            json.dump(job.config, f, indent=1)
        paths.append((config_path, job_dir))

    first_job_at = time.monotonic()
    if args.setup_only:
        with open(os.path.join(args.out, "result.json"), "w") as f:
            json.dump({"setup_s": first_job_at - args.spawned_at,
                       "gauge_s": GAUGE_END - args.spawned_at}, f)
        return 0

    tracer = Tracer() if args.trace else None
    errors = [None] * len(jobs)
    run_s = 0.0
    with tracer or contextlib.nullcontext():
        for i, (config_path, job_dir) in enumerate(paths):
            started = time.perf_counter()
            try:
                # Looked up at call time, so the tracer's wrapper is used.
                wavelab.cli.run_experiment(config_path, job_dir)
            except Exception as exc:  # a failing job fails its operations
                errors[i] = f"{type(exc).__name__}: {exc}"
            run_s += time.perf_counter() - started

    operations = []
    digests = []
    for job, error, (_, job_dir) in zip(jobs, errors, paths):
        if error is None:
            results = check(job, job_dir)
        else:
            results = [(f"op{i}", error) for i in range(job.operations)]
        operations.append(results)
        digests.append(csv_digest(job_dir))

    result = {
        "setup_s": first_job_at - args.spawned_at,
        "gauge_s": GAUGE_END - args.spawned_at,
        "run_s": run_s,
        "bits": sum(j.bits for j in jobs),
        "trials": sum(j.trials for j in jobs),
        "operations": operations,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_build(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "wavelab_threads": os.environ.get("WAVELAB_THREADS"),
        },
    }
    if tracer:
        result["traced_run_s"] = tracer.root_time()
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        tracer.write(os.path.join(args.out, "spans.jsonl"))
    with open(os.path.join(args.out, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
