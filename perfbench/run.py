#!/usr/bin/env python3
"""The repository's benchmark.

    python3 perfbench/run.py --workload search|serve|fleet-jobs \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the harness and the automc_serve
daemon from source (CMake, into $CARGO_TARGET_DIR or .bench_build), runs
one workload with inputs derived from --seed, checks the program's
outputs, and prints one JSON object as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics. The line before it carries the detail: the machine and
config stamp, each workload's own metric names with sample counts, and the
ladder. perfbench/README.md documents the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("search", "serve", "fleet-jobs")
# Pool threads per process on a 4-core box: the search runs 4 and the
# fleet 2 workers x 2; the serve daemon keeps the product default (pool
# sized to the core count).
THREADS = {"search": "4", "serve": None, "fleet-jobs": "2"}
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then (re)builds the harness and the daemon."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no AutoMC source tree at " + ROOT)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "perfbench_harness", "automc_serve"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return (os.path.join(build_dir, "perfbench_harness"),
            os.path.join(build_dir, "automc", "examples", "automc_serve"))


def harness_env(workload):
    """Product defaults: no AUTOMC_* knob leaks in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AUTOMC_")}
    if THREADS[workload] is not None:
        env["AUTOMC_THREADS"] = THREADS[workload]
    return env


def run_harness(harness, serve_bin, args, workdir, log_path):
    cmd = [harness, args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--serve-bin",
           serve_bin, "--workdir", workdir]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                env=harness_env(args.workload), text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, 9)
            proc.communicate()
            fail("harness timed out")
    if proc.returncode != 0 or not out.strip():
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("harness exited with %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not (benchlib.valid_metric_name(metric["name"])
                and benchlib.valid_unit(metric["unit"])):
            fail("bad metric name or unit in BENCHMARK.json: %r" % metric)
    return spec


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    harness, serve_bin = build(build_dir)

    workdir = os.path.join(build_dir, "run-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        raw = run_harness(harness, serve_bin, args, workdir,
                          os.path.join(build_dir, "harness-%s.log" % args.workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, detail = benchlib.E2E[args.workload](raw)
    if args.trace:
        layers = benchlib.LAYERS[args.workload](raw)
        declared = spec["per_layer"]
        # A layer off this workload's path did no work on it: 0.
        values = {m["name"]: layers.get(m["name"], 0.0) for m in declared}
        detail["layers_off_path"] = sorted(m["name"] for m in declared
                                           if m["name"] not in layers)
        spans = raw.get("spans")
        if spans:
            trace_path = os.path.join(build_dir, "trace-%s-%d.json" % (args.workload, args.seed))
            with open(trace_path, "w") as f:
                json.dump({"spans": spans}, f)
            detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        declared = spec["end_to_end"]
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    checks = raw["checks"]
    attempted, failed = benchlib.operations(args.workload, raw)
    detail.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "stamp": raw["stamp"],
                   "check_failures": checks["failures"]})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
