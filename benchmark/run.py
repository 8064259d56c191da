#!/usr/bin/env python3
"""Build the benchmark driver and run one workload.

usage: python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                [--save DIR]

Run from the root of a checkout. The first run configures and builds
benchmark/ (a CMake project that pulls in the repository's libraries) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs reuse the
build. ld_bench's output ends with one JSON line: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics of BENCHMARK.json, or the
per-layer ones for --trace 1 (whose spans go to
.bench_out/trace-<workload>-<seed>.json). --save DIR also stores that line in
DIR for benchmark/compare.py. The exit code is ld_bench's: non-zero when an
output check failed, or when the repository sources are missing.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700  # the first run, which builds, must end within 900 s
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build ld_bench incrementally; output to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are not next to benchmark/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(build_dir, ".build.lock"), "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "ld_bench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=max(1.0, deadline - time.monotonic()),
                                      check=False)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "ld_bench")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="DIR", help="also store the result line in DIR")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    spec = load_json(spec_path)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; expected one of {', '.join(workloads)}")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    exe = build(build_dir)

    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", work]
    if args.trace:
        cmd += ["--trace", os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")]
    baseline = load_json(os.path.join(HERE, "baseline.json"))
    reference = baseline.get("tune_offline_mape_pct", {}).get(str(args.seed))
    if args.workload == "tune_offline" and reference and not args.trace:
        cmd += ["--tune-reference", ",".join(repr(v) for v in reference)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(done.stdout)
        fail(f"ld_bench exited {done.returncode} without a result line", done.returncode or 4)
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        fail("ld_bench's metric names differ from BENCHMARK.json", 5)
    for line in lines[:-1]:
        print(line)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
        with open(os.path.join(args.save, name), "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "result": result}, f)
            f.write("\n")
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
