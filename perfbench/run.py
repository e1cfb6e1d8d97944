#!/usr/bin/env python3
"""The repository's benchmark: builds switchd and the load generator from
source (Release), runs one workload and prints its metrics.

    python3 perfbench/run.py --workload fwd_min --seed 1 --seconds 10 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones in
BENCHMARK.json, with --trace 1 the per-layer ones. The exit code is non-zero
on any oracle mismatch, failed RPC or invalid run. METRICS.md explains every
metric and workload.

Noise-floor mode runs the same build in interleaved sets and prints each
metric's median and quartiles per set:

    python3 perfbench/run.py --noise-floor --workload fwd_min --sets 2 --runs 5
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fwd_min", "update_under_load", "reload_pbm", "fib_churn")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    for need in ("src/daemon/switchd.cc", "tools/switchd.cc", "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("missing %s: run from a checkout of the repository" % need)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release" not in f.read():
            fail("the build directory is not a Release build")
    return bdir


def source_id():
    """The commit, or a hash of the sources when there is no git metadata."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def run_once(bdir, workload, seed, seconds, trace, commit):
    records = os.path.join(bdir, "runs")
    os.makedirs(records, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench_load"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--switchd", os.path.join(bdir, "switchd"),
           "--record-dir", records, "--commit", commit]
    # A session of its own, so a timeout also stops the switchd it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s seed %d timed out" % (workload, seed))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def parse_record(out):
    """The run record: the load generator's last stdout line."""
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        record = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    if not isinstance(record, dict) or "metrics" not in record:
        return None
    return record


def result_line(record, trace):
    """The result object: the BENCHMARK.json metrics for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        fail("not measured: " + ", ".join(missing), 1)
    return {
        "correct": bool(record["correct"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n]["value"],
                        "unit": record["metrics"][n]["unit"]} for n in names},
    }


def noise_floor(bdir, args, commit):
    """Interleaved sets of runs of one build: the spread between a set's own
    runs is the noise floor the bounds in BENCHMARK.json must clear."""
    sets = [dict() for _ in range(args.sets)]
    seed = args.seed
    for r in range(args.runs):
        order = list(range(args.sets))
        if r % 2:
            order.reverse()
        for s in order:
            code, out = run_once(bdir, args.workload, seed, args.seconds,
                                 args.trace, commit)
            seed += 1
            record = parse_record(out)
            if code != 0 or record is None:
                fail("%s seed %d failed (exit %d)" % (args.workload, seed - 1, code))
            for name, m in result_line(record, args.trace)["metrics"].items():
                sets[s].setdefault(name, []).append(m["value"])
    print("%-30s %4s %14s %14s %14s %8s" % ("metric", "set", "median", "q1", "q3",
                                          "iqr/med"))
    for name in sorted(sets[0]):
        for s, values in enumerate(sets):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            print("%-30s %4d %14.6g %14.6g %14.6g %7.2f%%" % (name, s, med, q1, q3,
                                                            100 * spread))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--noise-floor", action="store_true")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=5)
    args = p.parse_args()

    bdir = build()
    commit = source_id()
    if args.noise_floor:
        noise_floor(bdir, args, commit)
        return 0
    code, out = run_once(bdir, args.workload, args.seed, args.seconds,
                         args.trace, commit)
    sys.stdout.write(out)
    record = parse_record(out)
    # Exit code 3 marks an invalid run, and setup failures print no record:
    # neither is reported.
    if code not in (0, 1) or record is None:
        fail("no result (exit %d)" % code, code or 1)
    print(json.dumps(result_line(record, args.trace)))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
