#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

    python3 perfbench/run.py --workload arena|mega|fleet_observed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --pin     # re-pin the result fingerprints

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) in Release under $CARGO_TARGET_DIR
(default .bench_build)/perfbench; later calls only re-check the build.

An untraced run (--trace 0) prints the end-to-end metrics. set-up is
measured in SETUP_REPEATS separate processes (set-up-only runs plus the
measured run) and reported as their median. A traced run (--trace 1)
prints the per-layer metrics. Either way the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The full
record, with the host's thread count and the build type, is appended
to <build dir>/results.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("arena", "mega", "fleet_observed")
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170
END_TO_END = ("setup_s", "queries_per_s", "run_ms.p50", "peak_rss_mb")
PER_LAYER = (
    "sim.events_per_query", "sim.ns_per_event", "sim.windows",
    "sim.window_sync_us", "sim.shard_speedup", "app.allocs_per_query",
    "app.bytes_per_query", "core.intervals", "core.rank_us",
    "core.select_us", "obs.tax", "obs.artifact_ms", "obs.artifact_bytes",
    "exp.cache_key_us", "exp.cache_store_us", "workloads.profile_ms",
    "cluster.rebalances", "cluster.reports_dropped", "rpc.retries",
    "faults.bus_dropped", "trace.overhead",
)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure once, then (re)build the benchmark binary."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            status = subprocess.call(step, stdout=log,
                                     stderr=subprocess.STDOUT)
            if status != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(bdir, "perfbench")


def run_binary(binary, args, deadline):
    """Run the binary; return (stdout lines before the result, result)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before running " + " ".join(args))
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("exit code %d: %s" % (proc.returncode, " ".join(args)))
    try:
        return lines[:-1], json.loads(lines[-1])
    except ValueError:
        fail("no result line from: " + " ".join(args))


def pin(binary):
    pins = {}
    for workload in WORKLOADS:
        work = os.path.join(build_dir(), "work", "pin-" + workload)
        _, pins[workload] = run_binary(
            binary, ["--workload", workload, "--pin", "--work-dir", work],
            time.monotonic() + 3600)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + PINS)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.pin:
        pin(binary)
        return
    if not args.workload:
        parser.error("--workload is required")

    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--pins", PINS]
    work = os.path.join(build_dir(), "work",
                        "%s-%d" % (args.workload, os.getpid()))

    setups = []
    attempted = failed = 0
    if not args.trace:
        for i in range(SETUP_REPEATS - 1):
            _, res = run_binary(binary, common + [
                "--setup-only", "--work-dir", "%s-setup%d" % (work, i)],
                deadline)
            setups.append(res["info"]["setup_s"])
            attempted += res["attempted"]
            failed += res["failed"]

    lines, res = run_binary(binary, common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work], deadline)
    attempted += res["attempted"]
    failed += res["failed"]
    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["info"]["setup_s"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        res["info"]["setup_s_samples"] = setups

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if name not in metrics]
    for line in lines:
        print(line)
    for name in missing:
        print("  %-24s %14s (A/B fingerprints differ)" % (name, "FAILED"))
    info = res["info"]
    if not args.trace:
        print("setup_s median of %d set-ups: %.4f s; %d runs in %d passes"
              % (len(setups), metrics["setup_s"]["value"], info["runs"],
                 info["passes"]))
        if "run_ms.p90" in info:
            print("run_ms.p90 %.4f ms (not a BENCHMARK.json metric)"
                  % info["run_ms.p90"])
    result = {
        "correct": bool(res["correct"]) and failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in wanted
                    if name in metrics},
    }
    with open(os.path.join(build_dir(), "results.jsonl"), "a") as f:
        f.write(json.dumps(dict(result, info=info)) + "\n")
    print("failed_frac %.4f (%d of %d runs), nproc %d, %s build"
          % (failed / attempted, failed, attempted, info["nproc"],
             info["build_type"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
