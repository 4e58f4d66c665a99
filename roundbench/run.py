#!/usr/bin/env python3
"""The round-engine benchmark: one command, three workloads.

    python3 roundbench/run.py --workload conv_cached --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the library, the daemons and the
harness from source into .bench_build/ (a no-op once built), runs the
harness, checks that it reported no failed round, prints every metric by
name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and a
traced window and reports the per-layer metrics (report.py) instead.
Exits nonzero if the build fails, the harness fails, or any output check
fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import report  # noqa: E402  (sits beside this file)

WORKLOADS = ("conv_cached", "conv_dh", "fleet_tcp")
HARNESS_TIMEOUT_S = 170
SUBWINDOWS = 10
TRIM = 2  # sub-windows dropped at each end


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "4"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("roundbench: build failed: " + " ".join(cmd))
            return None
    # A fresh build leaves hundreds of MB of dirty pages; write them back now
    # rather than during the timed window.
    os.sync()
    return os.path.join(out, "roundbench")


def tail_latency(latencies):
    """The latency at the highest percentile with at least ten rounds beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def subwindows(w):
    """Splits the window into SUBWINDOWS runs of consecutive conversation rounds.

    Sub-window g spans from the completion of the round before it to the
    completion of its last round, so dialing rounds and downloads are charged
    to the sub-window they fall in, and pipeline fill to none. Returns one
    dict of rates and medians per sub-window.
    """
    done, msgs, cpu = w["conv_done"], w["conv_messages"], w["conv_cpu"]
    loadgen_us_per_msg = w["loadgen_cpu"] / w["messages"] * 1e6
    n = len(done)
    bounds = [round(i * (n - 1) / SUBWINDOWS) for i in range(SUBWINDOWS + 1)]
    out = []
    for a, b in zip(bounds, bounds[1:]):
        lo, hi = done[a], done[b]
        sent = sum(msgs[a + 1:b + 1])
        out.append({
            "msgs_per_sec": sent / (hi - lo),
            "round_latency_p50_s": statistics.median(w["conv_latency"][a + 1:b + 1]),
            "cpu_us_per_msg": (cpu[b] - cpu[a]) / sent * 1e6 - loadgen_us_per_msg,
        })
    return out


def middle_mean(values):
    """Mean of the values left after dropping the TRIM lowest and highest."""
    xs = sorted(values)
    return statistics.mean(xs[TRIM:len(xs) - TRIM])


def end_to_end(facts):
    """The end-to-end metrics of the untraced window.

    msgs_per_sec, cpu_us_per_msg and round_latency_p50_s are middle means
    over sub-windows: a few seconds of interference from outside the program
    (the benchmark may share its machine) move them less than they move a
    whole-window figure.
    """
    w = facts["windows"][0]
    tail, pct, n = tail_latency(w["conv_latency"])
    log("round_latency_tail_s is p%.1f of %d conversation rounds; %d dialing rounds"
        % (pct, n, len(w["dial_latency"])))
    parts = subwindows(w)

    def mid(name):
        return middle_mean(p[name] for p in parts)

    return {
        "setup_s": (statistics.median(facts["setup_s"]), "s"),
        "msgs_per_sec": (mid("msgs_per_sec"), "1/s"),
        "round_latency_p50_s": (mid("round_latency_p50_s"), "s"),
        "round_latency_tail_s": (tail, "s"),
        "dial_latency_p50_s": (statistics.median(w["dial_latency"]), "s"),
        "bucket_fetches_per_sec": (w["fetches"] / w["wall"], "1/s"),
        "cpu_us_per_msg": (mid("cpu_us_per_msg"), "us"),
        "peak_rss_mb": (w["peak_rss_mb"], "MB"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    # Spans and the harness's raw facts of each run land here.
    trace_dir = os.path.join(build_dir(), "runs")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--cache",
           os.path.join(HERE, ".cache"), "--trace-dir", trace_dir]
    # Its own session, so a timeout takes the daemons down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("roundbench: harness timed out")
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("roundbench: harness exited with %d" % proc.returncode)
        return 1
    facts = json.loads(lines[-1])

    windows = facts["windows"]
    attempted = sum(w["conv_rounds"] + w["dial_rounds"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    for w in windows:
        for err in w["errors"]:
            log("roundbench: check failed: " + err)
        if w["ran_out"]:
            log("roundbench: pre-generated rounds ran out %.2f s into the window" % w["wall"])
    correct = failed == 0 and facts["clean_exit"] and attempted > 0
    if not facts["clean_exit"]:
        log("roundbench: a daemon did not shut down cleanly")

    os.makedirs(trace_dir, exist_ok=True)
    facts_path = os.path.join(trace_dir, "%s-%d-trace%d.facts.json"
                              % (args.workload, args.seed, args.trace))
    with open(facts_path, "w") as f:
        json.dump(facts, f)
    metrics = report.per_layer(facts) if args.trace else end_to_end(facts)
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
