#!/usr/bin/env python3
"""Dispatch-decision benchmark: builds the library and the decision_bench
binary from source, runs one workload in its own process and prints the
result.

    python3 decision_bench/run.py --workload fig7_stddgn --seed 7 --trace 0

Run it from the repository root. BENCHMARK.json lists the workloads and
the metrics. With --trace 0 the last stdout line is one JSON object with
the end-to-end metrics; setup_s is the median of the timed process's
set-up and those of SETUP_PROCESSES more processes that only set up, so
every set-up is taken in a fresh process. With --trace 1 the workload runs
twice, each time in a fresh process: once untraced, then once traced. The
traced process records spans around the public calls and writes a Chrome
trace. The last line then carries the per-layer metrics. Earlier lines
give the provenance, the effective config, every metric by name with its
unit, the output checks and, when traced, a self-time table of the spans.

Exit codes: 0 all checks passed; 1 an output check failed (the result line
says correct: false); 2 bad arguments or no library sources; 3 the build
failed; 4 a workload process crashed or timed out.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "decision_bench")
BINARY = os.path.join(BUILD_DIR, "decision_bench")
# One workload process must finish well inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 150
# Set-up-only processes of an untraced run, besides the timed process.
SETUP_PROCESSES = 2


def fail(code, message):
    print("decision_bench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read %s: %s" % (path, e))


def run_quiet(cmd, timeout):
    """Runs a build step; returns (ok, combined output)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired as e:
        return False, "timed out after %d s\n%s" % (timeout, e.output or "")
    return proc.returncode == 0, proc.stdout


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "library sources (src/CMakeLists.txt) not found under " + ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            ok, out = run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                                 "-DCMAKE_BUILD_TYPE=Release"], 300)
            if not ok:
                fail(3, "configure failed:\n" + out[-4000:])
        ok, out = run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                             "decision_bench", "-j", jobs], 850)
        if not ok:
            fail(3, "build failed:\n" + out[-4000:])


def child_env():
    """The workload process inherits no DPDP_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DPDP_")}


def run_workload(args, trace, trace_file=None, setup_only=False):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(trace),
           "--setup-only", "1" if setup_only else "0"]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, "workload process timed out after %d s" % PROCESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(4, "workload process exited %d without a result:\n%s"
             % (proc.returncode, proc.stderr[-4000:]))
    if proc.returncode not in (0, 1):
        fail(4, "workload process exited %d:\n%s"
             % (proc.returncode, proc.stderr[-4000:]))
    return result


def provenance():
    sha = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True,
                                 timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def span_table(trace_file):
    """Per span name: count, total and self seconds. A span's self time is
    its duration minus the spans nested directly inside it on its thread.
    Request hops (serve.hop.*) mark a request's lane, not what a thread was
    doing: the hops of one batch share an interval and queue hops overlap,
    so they get no self time and take no part in the nesting."""
    with open(trace_file) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    table = defaultdict(lambda: [0, 0.0, None])
    by_tid = defaultdict(list)
    for e in events:
        if e["name"].startswith("serve.hop."):
            row = table[e["name"]]
            row[0] += 1
            row[1] += e["dur"] * 1e-6
        else:
            by_tid[e["tid"]].append(e)
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        child_us = [0.0] * len(spans)
        stack = []
        for i, e in enumerate(spans):
            end = e["ts"] + e["dur"]
            while stack and spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"] \
                    < end - 1e-3:
                stack.pop()
            if stack:
                child_us[stack[-1]] += e["dur"]
            stack.append(i)
        for e, child in zip(spans, child_us):
            row = table[e["name"]]
            row[0] += 1
            row[1] += e["dur"] * 1e-6
            row[2] = (row[2] or 0.0) + max(0.0, e["dur"] - child) * 1e-6
    return table


def print_result(label, result):
    print("[%s] workload=%s seed=%s seconds=%s build_type=%s compiler=%s "
          "nproc=%s" % (label, result["workload"], result["seed"],
                        result["seconds"], result["build_type"],
                        result["compiler"], result["nproc"]))
    print("[%s] config %s" % (label, json.dumps(result["config"],
                                                sort_keys=True)))
    for check in result["checks"]:
        print("[%s] check %-30s %s  %s" % (label, check["name"],
                                           "ok" if check["ok"] else "FAILED",
                                           check["detail"]))
    print("[%s] attempted=%d failed=%d" % (label, result["attempted"],
                                           result["failed"]))
    for name, m in result["metrics"].items():
        print("[%s] %-30s %.6g %s" % (label, name, m["value"], m["unit"]))


def select(names, available, spec_units):
    out = {}
    for name in names:
        if name not in available:
            fail(4, "metric %s was not produced" % name)
        out[name] = {"value": available[name]["value"],
                     "unit": spec_units[name]}
    return out


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    build()
    sha, digest = provenance()
    print("provenance git_sha=%s source_sha256=%s" % (sha, digest))

    untraced = run_workload(args, 0)
    print_result("untraced", untraced)
    correct = bool(untraced["correct"])
    attempted, failed = untraced["attempted"], untraced["failed"]
    e2e = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    if not args.trace:
        setups = [untraced["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_PROCESSES):
            setups.append(run_workload(args, 0, setup_only=True)
                          ["metrics"]["setup_s"]["value"])
        print("[setup] setup_s of each process: %s" %
              " ".join("%.6f" % v for v in setups))
        untraced["metrics"]["setup_s"]["value"] = statistics.median(setups)
        metrics = select(e2e, untraced["metrics"], units)
    else:
        trace_file = os.path.join(os.path.dirname(BUILD_DIR), "traces",
                                  args.workload + ".json")
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        traced = run_workload(args, 1, trace_file)
        print_result("traced", traced)
        correct = correct and bool(traced["correct"])
        attempted += traced["attempted"]
        failed += traced["failed"]
        same_tc = (traced["metrics"]["total_cost"]["value"] ==
                   untraced["metrics"]["total_cost"]["value"])
        print("check traced_total_cost_equals_untraced %s" %
              ("ok" if same_tc else "FAILED"))
        correct = correct and same_tc

        table = span_table(trace_file)
        print("spans (%s): name count total_s self_s" % trace_file)
        for name, (count, total, self_s) in sorted(
                table.items(), key=lambda kv: -(kv[1][2] or 0.0)):
            print("  %-28s %9d %12.6f %12s" % (
                name, count, total,
                "-" if self_s is None else "%.6f" % self_s))
        available = dict(traced["metrics"])
        forward = table.get("nn.forward", [0, 0.0, None])
        available["nn.forward_calls"] = {"value": forward[0]}
        available["nn.forward_s"] = {"value": forward[1]}
        available["obs.trace_overhead_frac"] = {
            "value": 1.0 - traced["metrics"]["decisions_per_s"]["value"] /
            untraced["metrics"]["decisions_per_s"]["value"]}
        metrics = select([m["name"] for m in spec["per_layer"]], available,
                         units)
        for name in ("nn.forward_calls", "nn.forward_s",
                     "obs.trace_overhead_frac"):
            print("[traced] %-30s %.6g %s" % (name, metrics[name]["value"],
                                              units[name]))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
