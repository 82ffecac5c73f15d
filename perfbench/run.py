#!/usr/bin/env python3
"""SpinStreams benchmark runner.

Builds the benchmark binary (perfbench/CMakeLists.txt, Release) from the
sources of this checkout, runs one workload and prints its metrics, then one
JSON result line as the last line of standard output.

    python3 perfbench/run.py --workload fanin_pool --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from a separate traced run).  Without --workload, every
workload (those of BENCHMARK.json and the report-only ones below) runs
untraced and traced, the coordinated-omission self-test runs, and the
combined results go to <build dir>/results.json.

Run it from the root of the checkout.  The build directory is
$CARGO_TARGET_DIR when set, else .bench_build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# One ssbench run takes about its --seconds plus set-up, planner top-up and
# drain; a traced run adds its probes.  Past twice that plus this allowance
# it is taken to hang.
RUN_TIMEOUT_ALLOWANCE_S = 120
# Workloads the one command runs and checks but BENCHMARK.json does not
# gate: chain_threads (the only workload on the blocking thread-per-actor
# driver) swings with the host's speed by more than the bounds allow; see
# perfbench/README.md, "Steadiness".
REPORT_ONLY_WORKLOADS = ["chain_threads"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build(out_dir):
    """Configures and builds ssbench; returns its path (raises on failure)."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", jobs],
    ]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(cmake_dir, "ssbench")


def git_commit():
    if shutil.which("git") is None:
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run_binary(binary, args, work_dir, seconds):
    """Runs ssbench, echoes its report, returns its parsed JSON line."""
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.run([binary] + args + ["--workdir", work_dir], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=2 * seconds + RUN_TIMEOUT_ALLOWANCE_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("ssbench printed no result (exit %d)" % proc.returncode)
    return json.loads(lines[-1])


def contract_line(result, names):
    """The result line: exactly correct/attempted/failed/metrics, metrics
    restricted to `names` (every one must be present)."""
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            raise RuntimeError("ssbench did not report metric " + name)
        metrics[name] = result["metrics"][name]
    return {"correct": bool(result["correct"]), "attempted": max(int(result["attempted"]), 1),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]] + REPORT_ONLY_WORKLOADS
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads)))

    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.join(out_dir, "work")
    print("commit: %s" % git_commit())

    if args.workload is not None:
        result = run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                     "--seconds", repr(seconds), "--trace", str(args.trace)],
                            work_dir, seconds)
        line = contract_line(result, per_layer if args.trace else end_to_end)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    # One command for everything: each workload untraced and traced, then
    # the coordinated-omission self-test of the open-loop generator.
    combined = {"commit": git_commit(), "seed": args.seed, "seconds": seconds, "workloads": {}}
    correct = True
    for name in workloads:
        entry = {}
        for trace, names in ((0, end_to_end), (1, per_layer)):
            print("== %s (trace %d)" % (name, trace))
            result = run_binary(binary, ["--workload", name, "--seed", str(args.seed),
                                         "--seconds", repr(seconds), "--trace", str(trace)],
                                work_dir, seconds)
            entry["traced" if trace else "untraced"] = result
            correct = correct and contract_line(result, names)["correct"]
        combined["workloads"][name] = entry
    print("== coordinated-omission self-test")
    selftest = run_binary(binary, ["--selftest", "coordinated_omission", "--seed", str(args.seed)],
                          work_dir, 0)
    combined["selftest"] = selftest
    correct = correct and bool(selftest["correct"])
    path = os.path.join(out_dir, "results.json")
    with open(path, "w") as f:
        json.dump(combined, f, indent=1)
    print("results: %s" % path)
    attempted = sum(e[k]["attempted"] for e in combined["workloads"].values()
                    for k in ("untraced", "traced"))
    failed = sum(e[k]["failed"] for e in combined["workloads"].values()
                 for k in ("untraced", "traced"))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
