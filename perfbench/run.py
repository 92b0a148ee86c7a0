#!/usr/bin/env python3
"""The graphport benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--workload all runs every workload in turn and prints each metric by
name, value and unit, with the failed and attempted operation counts.

Builds perfbench/ (and the library modules it links) in
.bench_build/perfbench, then runs one workload as two processes: the
study phase (sweep -> index -> portfolio -> Advisor over the paper's
universe, checked against pinned digests), which writes the index
snapshot, and the serve phase (an Advisor loaded from that snapshot
answering a query stream generated from --seed, every answer checked
against the reference oracle). Each process reports its own peak
resident set.

With --trace 0 the last line of stdout carries the end-to-end metrics
of BENCHMARK.json; with --trace 1 the per-layer ones. The full record
(with toolchain, seeds and sample counts) is appended to --results,
which compare.py reads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# After the build, a run ends within this many seconds, or is stopped.
RUN_LIMIT_S = 170

# reps: untraced pipeline runs (a fixed count, so both commits of a
# comparison do the same work); serve_share: share of --seconds the
# serve phase measures for. "main" names the phase whose peak memory
# and tracing overhead the workload reports.
WORKLOADS = {
    "study-legacy": dict(space="legacy", mix="mixed", reps=5,
                         serve_share=0.5, main="study"),
    "study-extended": dict(space="extended", mix="mixed", reps=3,
                           serve_share=0.5, main="study"),
    "serve-mixed": dict(space="legacy", mix="mixed", reps=3,
                        serve_share=1.0, main="serve"),
    "serve-known": dict(space="legacy", mix="known", reps=3,
                        serve_share=1.0, main="serve"),
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(jobs):
    """Configure and build (both no-ops when current) to stderr."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs)],
                   stdout=sys.stderr, check=True)


def run_phase(args, deadline):
    out = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    if out.returncode != 0:
        fail("phase '%s' exited with %d" % (args[0], out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def metric_names(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[key]]


def run_workload(name, a):
    """Run one workload; return its result and its full record."""
    w = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--threads", str(a.threads), "--trace", str(a.trace)]
    run_dir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        gpi = os.path.join(run_dir, "index.gpi")
        study = run_phase(["study", "--space", w["space"],
                           "--reps", str(w["reps"]),
                           "--gpi-out", gpi] + common, deadline)
        serve = run_phase(["serve", "--gpi", gpi, "--mix", w["mix"],
                           "--seed", str(a.seed),
                           "--seconds",
                           str(w["serve_share"] * a.seconds)] + common,
                          deadline)
    except subprocess.TimeoutExpired as e:
        fail("phase timed out: %s" % e)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    phases = {"study": study, "serve": serve}
    main_phase = phases[w["main"]]
    # Metrics both phases report come from the workload's main phase,
    # except set-up, which is the sum of both phases' set-up.
    metrics = {}
    for phase in (study, serve, main_phase):
        metrics.update(phase["metrics"])
    if not a.trace:
        metrics["setup_s"] = {
            "value": study["metrics"]["setup_s"]["value"] +
            serve["metrics"]["setup_s"]["value"],
            "unit": "s"}
    wanted = metric_names("per_layer" if a.trace else "end_to_end")
    missing = [m for m in wanted if m not in metrics]
    if missing:
        fail("phases did not report: " + ", ".join(missing))
    metrics = {m: metrics[m] for m in wanted}

    attempted = study["attempted"] + serve["attempted"]
    failed = study["failed"] + serve["failed"]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=name, seed=a.seed,
                  seconds=a.seconds, trace=a.trace,
                  info={"study": study["info"], "serve": serve["info"]})
    return result, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int,
                    default=len(os.sched_getaffinity(0)),
                    help="client and sweep threads (default: nproc)")
    ap.add_argument("--results",
                    default=os.path.join(BUILD, "results.jsonl"),
                    help="append the full record of each run here")
    a = ap.parse_args()
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= a.threads <= nproc:
        fail("refusing --threads %d on %d usable CPUs (nproc)"
             % (a.threads, nproc))
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        build(nproc)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    names = list(WORKLOADS) if a.workload == "all" else [a.workload]
    results = []
    for name in names:
        result, record = run_workload(name, a)
        os.makedirs(os.path.dirname(os.path.abspath(a.results)),
                    exist_ok=True)
        with open(a.results, "a") as f:
            f.write(json.dumps(record) + "\n")
        results.append(result)
        if a.workload == "all":
            for metric, m in result["metrics"].items():
                print("%-15s %-30s %14.6g %s"
                      % (name, metric, m["value"], m["unit"]))
            print("%-15s %d of %d operations failed"
                  % (name, result["failed"], result["attempted"]))
    if a.workload != "all":
        print(json.dumps(results[0]))


if __name__ == "__main__":
    main()
