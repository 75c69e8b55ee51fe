#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload,
checks its outputs and prints the result.

    python3 perfbench/run.py --workload sweep_default|sweep_residue|store_scale
                             --seed N --seconds S --trace 0|1

Run from the repository root. The last stdout line is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}} with
the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1). The line before it carries provenance and the error
rate; the full record (every metric, check and span file) is written to
<build>/results/. The build directory is $CARGO_TARGET_DIR when set,
else .bench_build.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("sweep_default", "sweep_residue", "store_scale")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    """Configures (once) and builds perfbench; the log goes to a file."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed, see " + log_path)


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def provenance(build_dir, info):
    """Which build produced this result."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    src = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            src.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                src.update(f.read())
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = info.get("compiler", "")
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "compiler": version,
        "build_type": info.get("build_type", ""),
        "msa_enable_simd": info.get("msa_enable_simd", ""),
        "nproc": os.cpu_count(),
        "worker_threads": int(info.get("worker_threads", "1")),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) next to perfbench/", 2)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    with open(os.path.join(BENCH, "reference.json")) as f:
        reference = json.load(f)

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    build(build_dir)
    out_dir = os.path.join(root, "runs")
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", out_dir],
            stdout=subprocess.PIPE, text=True, timeout=4 * args.seconds + 90)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"workload exited with code {proc.returncode}")
    run = json.loads(proc.stdout.strip().splitlines()[-1])

    checks = dict(run["checks"])
    attempted, failed = run["attempted"], run["failed"]
    if args.workload in reference:
        # Under the default trial salt, the 4-thread report and every
        # trial's full outcome must match the digests recorded when the
        # benchmark was defined: an attack outcome that changes fails the run.
        for name, output in (("report", "reference.csv"), ("outcomes", "outcomes.bin")):
            with open(os.path.join(out_dir, args.workload, output), "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            ok = digest == reference[args.workload][name + "_sha256"]
            checks[f"reference_{name}_digest_matches"] = ok
            attempted += 1
            failed += 0 if ok else 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in run["metrics"]:
            fail(f"workload did not measure {m['name']}")
        metrics[m["name"]] = run["metrics"][m["name"]]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(build_dir, run["info"]),
        "error_rate": failed / attempted,
        "checks": checks,
        "info": run["info"],
        "metrics": run["metrics"],
    }
    results = os.path.join(root, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    failed_checks = sorted(name for name, ok in checks.items() if not ok)
    if failed_checks:
        print("perfbench: failed checks: " + ", ".join(failed_checks), file=sys.stderr)
    print(json.dumps({"seed": args.seed, "error_rate": record["error_rate"],
                      "provenance": record["provenance"], "record": path}))
    print(json.dumps({"correct": failed == 0 and not failed_checks,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
