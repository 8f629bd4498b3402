#!/usr/bin/env python3
"""GENAS benchmark: builds genas_bench (Release) and runs its workloads.

One workload (the form BENCHMARK.json's "command" takes):

    python3 benchsuite/run.py --workload W --seed N --seconds S --trace 0|1

prints the workload's metrics, one "workload metric value unit" line each,
and as the last line of stdout one JSON object with the keys correct,
attempted, failed and metrics. A traced run (--trace 1) reports the
per-layer metrics and writes a Chrome trace to
.bench_build/results/trace-W.json.

All five workloads, each in its own process with its own seed:

    python3 benchsuite/run.py [--quick] [--trace] [--seed N] [--out DIR]

prints every metric of every workload and writes DIR/results.json (default
.bench_build/results/) with each value's window median, quartiles and
sample count plus a host fingerprint. Exits non-zero when any delivery or
composite firing disagrees with the reference.

Everything the script builds or writes stays under .bench_build/ in the
checkout. See benchsuite/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SUITE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "genas_bench")
RESULTS = os.path.join(BUILD, "results")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds genas_bench; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SUITE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    command = ["cmake", "--build", BUILD, "--target", "genas_bench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, quick, detail, capture):
    """Runs one genas_bench process; returns (exit code, stdout text)."""
    os.makedirs(RESULTS, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--detail", detail]
    if trace:
        command += ["--trace-file", os.path.join(RESULTS, "trace-%s.json" % workload)]
    if quick:
        command.append("--quick")
    if not capture:
        return subprocess.run(command).returncode, ""
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def host_fingerprint(seed, compiler):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            rev = done.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model, "compiler": compiler,
            "seed": seed, "git_rev": rev}


def run_all(args, spec):
    seconds = 1 if args.quick else spec["run_seconds"]
    out_dir = os.path.abspath(args.out or RESULTS)
    os.makedirs(out_dir, exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    results = {}
    healthy = True
    compiler = "unknown"
    for i, workload in enumerate(names):
        detail = os.path.join(out_dir, "%s.json" % workload)
        code, stdout = run_workload(workload, args.seed + i, seconds, args.trace,
                                    args.quick, detail, capture=True)
        lines = stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        try:
            summary = json.loads(lines[-1])
            with open(detail) as f:
                results[workload] = json.load(f)
        except (IndexError, ValueError, OSError):
            log("%s: no result (exit code %d)" % (workload, code))
            healthy = False
            continue
        compiler = results[workload].get("compiler", compiler)
        if set(summary["metrics"]) != expected:
            log("%s: metrics differ from BENCHMARK.json: %s" % (
                workload, sorted(set(summary["metrics"]) ^ expected)))
            healthy = False
        if code != 0 or not summary["correct"] or summary["failed"] > 0:
            log("%s: %d of %d checked deliveries/firings failed" % (
                workload, summary["failed"], summary["attempted"]))
            healthy = False
        print("%s failed_frac %.17g ratio" % (
            workload, summary["failed"] / max(1, summary["attempted"])), flush=True)
    report = {"host": host_fingerprint(args.seed, compiler), "seconds": seconds,
              "trace": args.trace, "quick": args.quick, "workloads": results}
    with open(os.path.join(out_dir, "results.json"), "w") as f:
        json.dump(report, f, indent=1)
    log("wrote %s" % os.path.join(out_dir, "results.json"))
    return 0 if healthy else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    args.trace = args.trace == "1"

    if not build():
        log("build failed")
        return 2
    spec = benchmark_spec()
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %s" % args.workload)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    detail = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, int(args.trace)))
    code, _ = run_workload(args.workload, args.seed, seconds, args.trace,
                           args.quick, detail, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
