#!/usr/bin/env python3
"""Collects and summarises sets of benchmark runs (bench/e2e/README.md).

One run per seed, per workload (the contract's ten-seed set):

    python3 bench/e2e/baseline/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --out bench/e2e/baseline/seeds_1-10.a.json

Whole-suite runs (`run.py` without --workload, four interleaved rounds),
one per listed seed:

    python3 bench/e2e/baseline/collect.py --suite --seeds 1 1 1 1 1 \
        --out bench/e2e/baseline/suite_seed1.a.json

Markdown table of per-metric median and quartiles for each set, and how far
the second set's median moved from the first's against the metric's bound:

    python3 bench/e2e/baseline/collect.py --summary A.json B.json
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def spec():
    with open(REPO_ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def collect(seeds, suite, seconds, out):
    runs = []
    workloads = [w["name"] for w in spec()["workloads"]]
    for seed in seeds:
        if suite:
            with tempfile.TemporaryDirectory() as tmp:
                result = pathlib.Path(tmp) / "results.json"
                subprocess.run(RUN + ["--seed", str(seed), "--seconds",
                                      str(seconds), "--out", str(result)],
                               check=True, cwd=REPO_ROOT,
                               stdout=subprocess.DEVNULL)
                per_workload = json.loads(result.read_text())["workloads"]
            for workload, r in per_workload.items():
                runs.append({"seed": seed, "workload": workload,
                             "correct": r["failed"] == 0,
                             "metrics": r["metrics"]})
        else:
            for workload in workloads:
                proc = subprocess.run(
                    RUN + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                    check=True, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                    text=True)
                r = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.append({"seed": seed, "workload": workload,
                             "correct": r["correct"],
                             "metrics": r["metrics"]})
        with open(out, "w") as f:
            json.dump({"suite": suite, "seconds": seconds, "runs": runs}, f,
                      indent=1)


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summary(paths):
    metrics = spec()["end_to_end"]
    sets = [json.loads(pathlib.Path(p).read_text())["runs"] for p in paths]
    names = [pathlib.Path(p).name for p in paths]
    print("| workload | metric | " +
          " | ".join(f"{n}: median [q1, q3] (iqr/median)" for n in names) +
          (" | median moved / bound |" if len(sets) > 1 else " |"))
    print("|---|---|" + "---|" * len(sets) + ("---|" if len(sets) > 1 else ""))
    for workload in [w["name"] for w in spec()["workloads"]]:
        for metric in metrics:
            cells, medians = [], []
            for runs in sets:
                values = [r["metrics"][metric["name"]]["value"]
                          for r in runs if r["workload"] == workload]
                median, q1, q3 = stats(values)
                medians.append(median)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] "
                             f"({(q3 - q1) / median:.3f}, n={len(values)})")
            row = f"| {workload} | {metric['name']} | " + " | ".join(cells)
            if len(sets) > 1:
                moved = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    moved = -moved
                row += f" | {moved:+.3f} / {metric['bound']}"
            print(row + " |")
    every = [r["correct"] for runs in sets for r in runs]
    print(f"\nAll {len(every)} runs correct: {all(every)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--suite", action="store_true",
                        help="whole-suite runs instead of one per workload")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--out")
    parser.add_argument("--summary", nargs="+", metavar="SET")
    args = parser.parse_args()
    if args.summary:
        summary(args.summary)
        return 0
    if not args.seeds or not args.out:
        parser.error("--seeds and --out are required to collect")
    collect(args.seeds, args.suite, args.seconds or spec()["run_seconds"],
            args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
