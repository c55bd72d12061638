#!/usr/bin/env python3
"""End-to-end benchmark for memagg (bench/e2e/README.md).

Builds bench_e2e from this checkout's sources, runs workloads as a closed
loop with one client, checks every query result against a reference, and
prints every metric BENCHMARK.json names.

One workload (the last stdout line is the JSON result):

    python3 bench/e2e/run.py --workload tpch_q1 --seed 1 --seconds 10 --trace 0

All four workloads in four interleaved rounds, one `workload metric value
unit` line per metric, optionally saved as JSON:

    python3 bench/e2e/run.py --build-dir build --seed 1 [--out results.json]

--trace 1 reports the per-layer metrics instead of the end-to-end ones and
writes the spans to <build-dir>/e2e/bench_e2e_trace.json. Exits non-zero if
any query result fails its check, or if the build or a run fails.
"""

import argparse
import ctypes
import json
import math
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
# Interleaving rounds spreads slow drifts in machine load over every
# workload instead of letting one drift episode land on a single workload.
ALL_MODE_ROUNDS = 4
RUN_TIMEOUT_S = 170
# personality(2) flag: fixed mmap and heap addresses make the simulated
# cache counts repeat exactly, and take address-layout luck out of timings.
ADDR_NO_RANDOMIZE = 0x0040000


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns the binary path."""
    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no memagg sources at {REPO_ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j4", "--target",
                    "bench_e2e"], check=True, stdout=sys.stderr)
    return build_dir / "bench_e2e"


def disable_aslr():
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_binary(binary, workload, seed, seconds, trace, trace_out):
    """Runs one bench_e2e process and returns its parsed JSON record."""
    command = [str(binary), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={int(trace)}",
               f"--trace-out={trace_out}"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, preexec_fn=disable_aslr)
    lines = proc.stdout.strip().splitlines()
    # Exit code 1 with a record means some results failed their check; the
    # record counts them. Anything else is a crash or a bad invocation.
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    if record["failed"] > 0:
        print(f"run.py: {workload}: {record['failed']} of "
              f"{record['attempted']} queries failed their check",
              file=sys.stderr)
    return record


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def metrics_of(records, catalogue, trace):
    """Pools the records of one workload into the catalogue's metrics."""
    latencies = [ms for r in records for ms in r["latency_ms"]]
    p50 = statistics.median(latencies)
    values = {
        "latency_p50_ms": p50,
        "throughput_mrows_s": records[0]["input_rows"] / (p50 * 1e3),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "setup_s": statistics.median(s for r in records for s in r["setup_s"]),
        "tail.latency_p90_ms": percentile(latencies, 0.9),
    }
    if trace:
        for name in catalogue["per_layer"]:
            if name in records[0].get("layers", {}):
                values[name] = statistics.median(
                    r["layers"][name] for r in records)
    wanted = catalogue["per_layer" if trace else "end_to_end"]
    missing = [name for name in wanted if name not in values]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in wanted.items()}


def load_spec():
    """BENCHMARK.json: workload names, run length and the metric catalogue
    (name -> unit)."""
    with open(REPO_ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    catalogue = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer")}
    return [w["name"] for w in spec["workloads"]], spec["run_seconds"], catalogue


def main():
    workloads, run_seconds, catalogue = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload (default: all, in rounds)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed: 1 for development, 2 held out")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-dir", default=".bench_build",
                        help="build tree root; bench_e2e builds in <dir>/e2e")
    parser.add_argument("--out", help="also write the metrics to this file")
    args = parser.parse_args()

    seconds = args.seconds or run_seconds
    build_dir = (REPO_ROOT / args.build_dir / "e2e").resolve()
    binary = build(build_dir)
    trace_out = build_dir / "bench_e2e_trace.json"

    if args.workload:
        records = {args.workload: [run_binary(
            binary, args.workload, args.seed, seconds, args.trace,
            trace_out)]}
    else:
        # A traced run needs one round per workload; timings come from
        # untraced runs.
        rounds = 1 if args.trace else ALL_MODE_ROUNDS
        records = {w: [] for w in workloads}
        spans = []
        for _ in range(rounds):
            for workload in workloads:
                part = build_dir / f"bench_e2e_trace.{workload}.json"
                records[workload].append(run_binary(
                    binary, workload, args.seed, seconds / rounds,
                    args.trace, part))
                if args.trace:
                    spans += json.loads(part.read_text())["spans"]
                    part.unlink()
        if args.trace:
            trace_out.write_text(json.dumps({"spans": spans}))

    results = {}
    for workload, runs in records.items():
        metrics = metrics_of(runs, catalogue, args.trace)
        results[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, metric in metrics.items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"run.py: spans written to {trace_out}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "trace": args.trace, "workloads": results}, f,
                      indent=2)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        only = results[args.workload]
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": only["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
