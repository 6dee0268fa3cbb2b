#!/usr/bin/env python3
"""Build the benchmark driver from this checkout and run one workload.

    python3 perfbench/run.py --workload screen_auto --seed 1 --seconds 50 --trace 0

Run from the root of the repository. The first call configures and builds
the scidock libraries and perfbench_driver into .bench_build/ (Release);
later calls rebuild only what changed. Build output goes to stderr.

Each repetition of the workload runs in a fresh driver process, as a
scidock_cli invocation does, as many as fit in --seconds. The repetitions
cycle through SEEDS_PER_RUN driver seeds derived from --seed; untraced
runs make at least one of each. query_set_s is the fastest query set of
the run; every other metric is the median over the repetitions. The last
line of stdout is the JSON result. Exits non-zero, without a result, when
the build or a repetition fails to run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
# Driver seeds per run. The campaign's simulator cost moves by up to 30%
# with its fault and duration seed, so a run covers six of them.
SEEDS_PER_RUN = {"screen_auto": 1, "campaign_prov": 6}
# Each repetition reports its fastest query set: a set is short enough to
# fall between the bursts of the host's other tenants, and the fastest set
# of the run is the cost without them. The median over repetitions
# followed their load (twice the spread).
FASTEST = "query_set_s"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DIGEST = "result digest: "


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def repetition(args, seed):
    """One driver process: (stdout lines, parsed result) or None."""
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(seed),
           "--trace", args.trace]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=120)
    except subprocess.TimeoutExpired:
        print("run.py: a repetition did not finish in time", file=sys.stderr)
        return None
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (run.returncode != 0 or not isinstance(result, dict)
            or set(result) != RESULT_KEYS):
        sys.stderr.write(run.stdout)
        print(f"run.py: the driver exited with {run.returncode} and no result",
              file=sys.stderr)
        return None
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=SEEDS_PER_RUN)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    k = SEEDS_PER_RUN[args.workload]
    seeds = [args.seed * k + j for j in range(k)]
    # Untraced runs cover every driver seed; traced runs, three times as
    # long, report medians of whatever fits.
    least = k if args.trace == "0" else 1
    start = time.monotonic()
    durations, outputs = [], {seed: [] for seed in seeds}
    # Start another repetition only while half a typical one still fits,
    # so the run ends near --seconds.
    while len(durations) < least or (time.monotonic() - start
                                     + 0.5 * statistics.median(durations)
                                     <= args.seconds):
        seed = seeds[len(durations) % k]
        t0 = time.monotonic()
        output = repetition(args, seed)
        if output is None:
            return 1
        outputs[seed].append(output)
        durations.append(time.monotonic() - t0)

    seeds = [seed for seed in seeds if outputs[seed]]
    correct = True
    for seed in seeds:
        runs = outputs[seed]
        digests = {line for lines, _ in runs for line in lines
                   if line.startswith(DIGEST)}
        correct = correct and all(r["correct"] for _, r in runs)
        print(f"driver seed {seed}:")
        for line in runs[0][0][:-1]:
            print(line)
        if len(digests) != 1:
            correct = False
            print("CHECK FAILED: repetitions disagree on the per-pair results: "
                  + ", ".join(sorted(digests)))
    results = [r for seed in seeds for _, r in outputs[seed]]
    print(f"repetitions: {len(results)} processes over driver seeds "
          + " ".join(map(str, seeds)))
    metrics = {}
    for name, entry in results[0]["metrics"].items():
        groups = [[r["metrics"][name]["value"] for _, r in outputs[seed]]
                  for seed in seeds]
        values = [v for group in groups for v in group]
        value = min(values) if name == FASTEST else statistics.median(values)
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"{name} by repetition: " + " | ".join(
            " ".join(f"{v:.6g}" for v in group) for group in groups))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
