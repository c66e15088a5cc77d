"""wavelab benchmark: Monte Carlo workloads through the public CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--held-out]

Runs the workload in fresh single-threaded processes, one after another
(a closed loop with one client), for about S seconds and at least a few
passes.  Each pass generates the configs from the seed, runs them through
``wavelab.cli.run_experiment`` and checks every output.  Every metric is
printed by name with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: times and rates over all
the timed passes together, and the median set-up time.  On the
interpreter-bound workloads the times and rates are scaled by the host's
measured speed (see GAUGED); the unscaled figures are printed too.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, medians over the traced passes, plus the tracing
overhead.  ``--held-out`` draws the inputs from a second seed stream that
is never used for tuning.  Outputs go to ``.bench_out/`` in the checkout.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracer import OVERHEAD_FRAC, metric_units  # noqa: E402

WORKLOADS = ("papr_mc", "ber_ddam_stream", "ber_dd_grid", "ber_ofdm")
MIN_PASSES = 3          # untraced passes per run, whatever --seconds says
SETUP_SAMPLES = 12      # set-up times per untraced run, paced over --seconds
PASS_TIMEOUT_S = 120.0  # one pass never takes this long on a healthy build

# papr_mc and ber_ofdm spend their time in the interpreter, on per-trial and
# per-symbol Python calls.  On a shared host, interpreter-bound code slows by
# up to 1.5x for minutes at a time, longer than a run.  The time a fresh
# process takes to start the interpreter and import numpy (the gauge) slows
# alike and does not depend on wavelab, so these workloads' times are scaled
# by it.  On the array-bound workloads the gauge added as much noise as it
# removed, so they are not scaled (bench/README.md has the figures).
GAUGED = ("papr_mc", "ber_ofdm")
# Median gauge of 75 samples on a 2-vCPU x86-64 host (Python 3.11, numpy
# 2.4).  Scaled times are seconds at that host's median speed.
GAUGE_REFERENCE_S = 0.126
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "trials_per_s": "1/s",
    "bits_per_s": "bit/s",
    "peak_rss_mb": "MiB",
}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("WAVELAB_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_pass(args, out_dir, mode=None) -> dict:
    """One workload pass in a fresh process; returns its result record.

    mode is None for a timed pass, "--trace" for a traced one and
    "--setup-only" for a process that stops before the first job.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--out", out_dir]
    if mode:
        cmd.append(mode)
    if args.held_out:
        cmd.append("--held-out")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], env=pinned_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"a {args.workload} pass took over {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{stdout}{stderr}")
    with open(os.path.join(out_dir, "result.json")) as f:
        result = json.load(f)
    result["wall_s"] = time.monotonic() - spawned_at
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wavelab", "cli.py")):
        print(f"no wavelab sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    stream = "held-out" if args.held_out else "tuning"
    base = os.path.join(ROOT, ".bench_out", f"{args.workload}-{stream}-{args.seed}")
    shutil.rmtree(base, ignore_errors=True)

    # Passes run until the next one, predicted from the median so far, would
    # end after --seconds; a traced run alternates untraced and traced ones.
    # Set-up-only processes follow an untraced pass while the set-up samples
    # lag SETUP_SAMPLES spread evenly over --seconds, so that set-up time is
    # sampled across the whole run whatever a pass takes.
    passes = []
    setups = []
    gauges = []
    walls = []
    started = time.monotonic()
    while True:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        if index >= (2 if args.trace else MIN_PASSES):
            predicted = statistics.median(walls)
            if time.monotonic() - started + predicted > args.seconds:
                break
        step_started = time.monotonic()
        result = run_pass(args, os.path.join(base, f"pass{index}"),
                          "--trace" if traced else None)
        result["traced"] = traced
        passes.append(result)
        if not args.trace:
            setups.append(result["setup_s"])
            gauges.append(result["gauge_s"])
            while len(setups) < SETUP_SAMPLES * (time.monotonic() - started) / args.seconds:
                setup = run_pass(args, os.path.join(base, f"setup{len(setups)}"),
                                 "--setup-only")
                setups.append(setup["setup_s"])
                gauges.append(setup["gauge_s"])
        walls.append(time.monotonic() - step_started)

    # An operation counts as correct only if it passed its checks and every
    # pass of this seed, traced or not, wrote byte-identical CSVs.
    failures = []
    attempted = 0
    for job, digests in enumerate(zip(*(p["digests"] for p in passes))):
        deterministic = len(set(digests)) == 1
        for p in passes:
            for op, problem in p["operations"][job]:
                attempted += 1
                if problem is None and not deterministic:
                    problem = "CSV digests differ between passes of one seed"
                if problem is not None:
                    failures.append(f"job{job} {op}: {problem}")
    failed = len(failures)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    env = dict(plain[0]["environment"], nproc=os.cpu_count(), commit=git_commit(),
               platform=platform.platform(), passes=len(plain), traced_passes=len(traced))

    def median(key, records=plain):
        return statistics.median(r[key] for r in records)

    if args.trace:
        units = metric_units()
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in units if name != OVERHEAD_FRAC}
        untraced_run_s = median("run_s")
        metrics[OVERHEAD_FRAC] = (median("traced_run_s", traced) - untraced_run_s) / untraced_run_s
        missing = sorted(set().union(*(p["missing"] for p in traced)))
    else:
        # The host's speed drifts over seconds, so every timed second of the
        # run counts alike: run_s is the mean pass and the rates are totals
        # over total time.  A median of a few passes would follow whichever
        # spell most of them fell in.
        timed_s = sum(p["run_s"] for p in plain)
        gauge_s = statistics.median(gauges)
        scale = gauge_s / GAUGE_REFERENCE_S if args.workload in GAUGED else 1.0
        env.update(gauge_s=gauge_s, time_scale=scale,
                   unscaled_run_s=timed_s / len(plain))
        units = END_TO_END
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": timed_s / len(plain) / scale,
            "trials_per_s": sum(p["trials"] for p in plain) / timed_s * scale,
            "bits_per_s": sum(p["bits"] for p in plain) / timed_s * scale,
            "peak_rss_mb": median("peak_rss_mb"),
        }
        missing = []

    report = {"workload": args.workload, "seed": args.seed, "stream": stream,
              "environment": env, "attempted": attempted, "failed": failed,
              "failures": failures, "missing_functions": missing,
              "metrics": metrics, "passes": [
                  {k: v for k, v in p.items() if k not in ("layers", "operations")}
                  for p in passes]}
    with open(os.path.join(base, "report.json"), "w") as f:
        json.dump(report, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed} ({stream})  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    for key, value in env.items():
        print(f"env {key}: {value}")
    for name in missing:
        print(f"missing function (reported as 0 calls): {name}")
    for line in failures:
        print(f"FAILED {line}")
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
