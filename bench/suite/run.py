#!/usr/bin/env python3
"""Build blap_bench from this checkout and run it.

Run from the repository root; every argument is passed to blap_bench:

    python3 bench/suite/run.py --workload table2_sweep --seed 1 --seconds 20 --trace 0

The Release build goes to $CARGO_TARGET_DIR (default: .bench_build), and
so do the scratch inputs (tmp/) and host-clock span files (traces/), so a
run reads and writes nothing outside the checkout. Build output goes to
stderr; the last line of stdout is blap_bench's JSON result.

Before running, the metric names, units, directions and bounds compiled
into blap_bench are compared with BENCHMARK.json; any drift is an error.
"""
import json
import os
import subprocess
import sys


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    return code


def registry_matches(binary, benchmark_path):
    with open(benchmark_path) as f:
        spec = json.load(f)
    listed = json.loads(
        subprocess.run([binary, "--list-metrics"], check=True, capture_output=True,
                       text=True).stdout)
    problems = []
    if [w["name"] for w in spec["workloads"]] != listed["workloads"]:
        problems.append("workload names differ")
    for key in ("end_to_end", "per_layer"):
        want = {m["name"]: m for m in spec[key]}
        have = {m["name"]: m for m in listed[key]}
        if list(want) != list(have):
            problems.append(f"{key} metric names or order differ")
            continue
        for name, m in want.items():
            for field in ("unit", "better", "bound"):
                if m.get(field) != have[name].get(field):
                    problems.append(f"{key}.{name}.{field}: BENCHMARK.json has "
                                    f"{m.get(field)!r}, blap_bench has {have[name].get(field)!r}")
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    return not problems


def main():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile(os.path.join("bench", "suite", "CMakeLists.txt"))):
        return fail("run from the root of a full checkout (CMakeLists.txt, src/ and "
                    "bench/suite/ are required)")
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(out_root, "blap_bench")
    binary = os.path.join(build, "blap_bench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build, "--target", "blap_bench", "-j", jobs]]
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join("bench", "suite"), "-B", build,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return fail("build failed: " + " ".join(step), 1)
    if os.path.isfile("BENCHMARK.json") and not registry_matches(binary, "BENCHMARK.json"):
        return fail("BENCHMARK.json and blap_bench disagree on the metrics", 3)

    args = sys.argv[1:]
    if "--tmpdir" not in args:
        args += ["--tmpdir", os.path.join(out_root, "tmp")]
    if "--trace-out" not in args and "--trace" in args and \
            args[args.index("--trace") + 1:args.index("--trace") + 2] == ["1"]:
        traces = os.path.join(out_root, "traces")
        os.makedirs(traces, exist_ok=True)
        workload = args[args.index("--workload") + 1] if "--workload" in args else "suite"
        args += ["--trace-out", os.path.join(traces, workload + ".json")]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main())
