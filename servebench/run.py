#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --selftest

Run from the root of a source checkout. The first run builds the program
(its own CMakeLists.txt, Release) and the benchmark (servebench/
CMakeLists.txt) under .bench_build/; later runs only check the build is
current. A run boots real `proximity_cli` processes, drives them over the
wire protocol and checks every answer (see servebench/README.md).

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics, from the same wire-level run plus a separate in-process traced
run. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Raw per-request samples,
the host fingerprint and the traced run's spans go to .bench_out/.
"""
import argparse
import ctypes
import fcntl
import gzip
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170  # for all of one run's tools together


def die(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        return subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT,
                               cwd=ROOT)


def build():
    """Builds proximity_cli and the benchmark binaries; returns their dir."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        die("no CMakeLists.txt at %s: not a source checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    repo = os.path.join(BUILD, "repo")
    bench = os.path.join(BUILD, "bench")
    log = os.path.join(BUILD, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    # Concurrent runs in one checkout share one build.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(repo, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", repo] + gen +
                         ["-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", repo, "--target", "proximity_cli",
                      "-j", jobs])
        if not os.path.exists(os.path.join(bench, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bench] + gen +
                         ["-DCMAKE_BUILD_TYPE=Release",
                          "-DPROXIMITY_SOURCE_DIR=" + ROOT,
                          "-DPROXIMITY_BUILD_DIR=" + repo])
        steps.append(["cmake", "--build", bench, "-j", jobs])
        for cmd in steps:
            if run_logged(cmd, log) != 0:
                with open(log) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed (log: %s)" % log)
    return repo, bench


def fingerprint(cli, repo, workload, seed):
    info = subprocess.run([cli, "info", "storage=sq8"], capture_output=True,
                          text=True, timeout=30).stdout
    fields = {}
    for line in info.splitlines():
        if ":" in line:
            k, v = line.split(":", 1)
            fields[k.strip()] = v.strip()
    cache = {}
    with open(os.path.join(repo, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                k, v = line.rstrip("\n").split("=", 1)
                cache[k.split(":")[0]] = v
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "simd": fields.get("simd", "unknown"),
        "quant_kernels": fields.get("storage", "unknown"),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_sha": sha or "unknown (not a git checkout)",
        "workload": workload,
        "seed": seed,
    }


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


def die_with_parent():
    """Child-side: get SIGKILL if this script dies (PR_SET_PDEATHSIG)."""
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def run_tool(cmd, out_dir, name, deadline):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              cwd=ROOT, preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        die("%s timed out" % name)
    with open(os.path.join(out_dir, name + ".stdout"), "w") as f:
        f.write(proc.stdout)
    with open(os.path.join(out_dir, name + ".stderr"), "w") as f:
        f.write(proc.stderr)
    result = last_json(proc.stdout) if proc.returncode == 0 else None
    if result is None:
        sys.stderr.write(proc.stderr[-3000:])
        die("%s failed with code %d (output in %s)" %
            (name, proc.returncode, out_dir))
    return result


def compress(out_dir):
    """Gzips the bulky raw outputs (per-request samples, spans)."""
    for d, _, files in os.walk(out_dir):
        for name in files:
            if name.endswith((".csv", ".jsonl")):
                path = os.path.join(d, name)
                with open(path, "rb") as src, gzip.open(path + ".gz",
                                                        "wb") as dst:
                    shutil.copyfileobj(src, dst)
                os.remove(path)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        die("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def selftest(bench):
    code = subprocess.call([os.path.join(bench, "sb_selftest")], cwd=ROOT)
    sys.path.insert(0, HERE)
    sys.dont_write_bytecode = True
    import compare
    ok = compare.selftest()
    print("compare.py self-test: %s" % ("ok" if ok else "FAILED"))
    return 0 if code == 0 and ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    repo, bench = build()
    if args.selftest:
        return selftest(bench)
    # sb_run rejects unknown names; mmlu_churn and mmlu_routed run too,
    # though they are not in BENCHMARK.json (README "Workloads").
    if not args.workload:
        die("--workload is required (workloads: servebench/README.md)")
    cli = os.path.join(repo, "tools", "proximity_cli")
    out_dir = os.path.join(OUT, "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    os.makedirs(out_dir, exist_ok=True)
    host = fingerprint(cli, repo, args.workload, args.seed)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--cli", cli]
    wire = run_tool([os.path.join(bench, "sb_run")] + common +
                    ["--out", os.path.join(out_dir, "wire")], out_dir,
                    "sb_run", deadline)
    record = {"host": host, "wire": wire}
    correct = bool(wire["correct"])
    if args.trace:
        traced = run_tool([os.path.join(bench, "sb_traced")] + common +
                          ["--out", os.path.join(out_dir, "traced")],
                          out_dir, "sb_traced", deadline)
        record["traced"] = traced
        correct = correct and bool(traced["correct"])
        values = dict(wire["layer"])
        values.update(traced["layer"])
        # Index bytes per search (wire run counters) over the traced run's
        # search time per query.
        us = values.get("index.search_us_per_query", 0)
        values["vecmath.scan_gbps"] = (
            values.get("vecmath.index_bytes_per_search", 0) / (us * 1e3)
            if us > 0 else 0.0)
        wanted = spec["per_layer"]
    else:
        values = wire["e2e"]
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            die("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": correct, "attempted": int(wire["attempted"]),
              "failed": int(wire["failed"]), "metrics": metrics}
    record["result"] = result
    with open(os.path.join(out_dir, "run.json"), "w") as f:
        json.dump(record, f, indent=1)
    compress(out_dir)
    for e in wire.get("errors", []):
        print("check failed: " + e)
    print("host: " + json.dumps(host, sort_keys=True))
    print("output: " + os.path.relpath(out_dir, ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
