#!/usr/bin/env python3
"""End-to-end benchmark of the balanced-clique library and mbc_serve.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bscl_hub --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (the library, mbc_serve and
the mbc_perfbench program) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset. Each run prints one JSON object as the
last line of stdout: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bscl_hub", "community_dense", "serve_mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds perfbench; returns the build directory."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))))
    log = os.path.join(out, "build.log")
    with open(log, "w") as sink:
        for cmd in (["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "-j", jobs,
                     "--target", "mbc_perfbench"]):
            if subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write("perfbench: build failed, see %s\n" % log)
                return None
    return out


def run_workload(out, workload, seed, seconds, trace, small=False,
                 corrupt=False):
    """Runs one workload; returns (exit code, stdout)."""
    work = os.path.join(build_dir(), "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "mbc_perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work,
           "--serve-binary", os.path.join(out, "mbc", "tools", "mbc_serve")]
    if trace:
        cmd += ["--trace-out",
                os.path.join(work, "trace-%s-%d.jsonl" % (workload, seed))]
    if small:
        cmd += ["--small", "1"]
    if corrupt:
        cmd += ["--corrupt", "1"]
    # Its own process group, so that whatever it leaves running (an
    # mbc_serve, after a timeout or a crash) is stopped with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        stop_group(proc.pid)
        proc.communicate()
        return 1, ""
    stop_group(proc.pid)
    return proc.returncode, stdout


def stop_group(pgid):
    """Kills every process left in the group and waits until none is."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(out):
    """Short runs on tiny graphs: every metric named in BENCHMARK.json is
    printed with its unit, and a corrupted answer is counted as failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            code, stdout = run_workload(out, workload, 1, 2, trace,
                                        small=True)
            result = last_json(stdout) if code == 0 else None
            if result is None:
                problems.append("%s trace=%d: exit %d" % (workload, trace,
                                                          code))
                continue
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append("%s: result keys %s" % (workload,
                                                        sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace=%d: failed answers" % (workload,
                                                                 trace))
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if want != got:
                problems.append("%s trace=%d: metrics differ: missing %s, "
                                "extra or wrong unit %s" % (
                                    workload, trace,
                                    sorted(set(want) - set(got)),
                                    sorted(k for k in got
                                           if want.get(k) != got[k])))
        code, stdout = run_workload(out, workload, 1, 2, False, small=True,
                                    corrupt=True)
        result = last_json(stdout) if code == 0 else None
        if result is None or result["failed"] == 0 or result["correct"]:
            problems.append("%s: a corrupted answer was not counted as "
                            "failed" % workload)
    for problem in problems:
        sys.stderr.write("self-test: %s\n" % problem)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    out = build()
    if out is None:
        return 1
    if args.self_test:
        return self_test(out)
    code, stdout = run_workload(out, args.workload, args.seed, args.seconds,
                                args.trace == 1)
    if code != 0 or last_json(stdout) is None:
        sys.stderr.write("perfbench: %s exited with %d\n" % (args.workload,
                                                             code))
        return code or 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
