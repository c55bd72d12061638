#!/usr/bin/env python3
"""Compare two BENCH_*.json reports and fail on performance regressions.

The bench binaries (bench/bench_common.h, class BenchReport) write one JSON
report per run:

    {"bench": "<name>",
     "params": {"records": "4000000", ...},
     "rows": [{"series": "Rseq/Hash_LP", "x": 1000,
               "cycles": 12345, "millis": 1.25,
               "stats": {"phases": {...}, "counters": {...}}}, ...]}

Rows may carry an optional "meta" object (string -> string) with decision
provenance — e.g. the resolved algorithm label behind an "auto" run and the
adaptive operator's switch trace.

Usage:
    bench_compare.py --self-check BENCH_vector_q1.json
        Validate that a report conforms to the schema (used by CI).

    bench_compare.py baseline.json candidate.json [--threshold 10]
        Match rows by (series, x) and fail (exit 1) if any candidate row is
        more than --threshold percent slower than its baseline row on the
        chosen --metric (default: millis). Rows present on only one side are
        reported but never fail the comparison. Matched rows whose
        meta.algorithm or meta.switch_trace differ are reported as decision
        changes (informational, never failing).

    bench_compare.py --adaptive-gate BENCH_adaptive.json \
        [--adaptive-series Adaptive] [--threshold 10]
        For every x in the report, compare the adaptive series against the
        best and worst fixed series at that x. Fails (exit 1) if the
        adaptive row is more than --threshold percent slower than the best
        fixed strategy anywhere.

    bench_compare.py --speedup-gate BENCH_simd.json \
        --baseline-series tag_probe16/scalar \
        --candidate-series tag_probe16/sse2 [--min-speedup 1.5]
        Within ONE report, require candidate to be at least --min-speedup
        times faster than baseline at every shared x (ratio =
        baseline/candidate on --metric, default cycles for this mode).
        A missing baseline series is an error; a missing candidate series
        warns loudly and passes, so the gate is portable to builds
        without the vector lane (a build without SSE2 compiles only the
        scalar lane, and bench_simd writes only its series).
"""

import argparse
import json
import sys

REQUIRED_TOP_KEYS = {"bench", "params", "rows"}
REQUIRED_ROW_KEYS = {"series", "x", "cycles", "millis"}


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"error: cannot read {path}: {e}")


def validate(report, path):
    """Returns a list of schema-violation messages (empty = valid)."""
    problems = []
    if not isinstance(report, dict):
        return [f"{path}: top level is not a JSON object"]
    missing = REQUIRED_TOP_KEYS - report.keys()
    if missing:
        problems.append(f"{path}: missing top-level keys: {sorted(missing)}")
    if not isinstance(report.get("bench"), str) or not report.get("bench"):
        problems.append(f"{path}: 'bench' must be a non-empty string")
    if not isinstance(report.get("params"), dict):
        problems.append(f"{path}: 'params' must be an object")
    rows = report.get("rows")
    if not isinstance(rows, list):
        problems.append(f"{path}: 'rows' must be an array")
        return problems
    seen = set()
    for i, row in enumerate(rows):
        where = f"{path}: rows[{i}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        missing = REQUIRED_ROW_KEYS - row.keys()
        if missing:
            problems.append(f"{where}: missing keys: {sorted(missing)}")
            continue
        if not isinstance(row["series"], str) or not row["series"]:
            problems.append(f"{where}: 'series' must be a non-empty string")
        if not isinstance(row["x"], int) or row["x"] < 0:
            problems.append(f"{where}: 'x' must be a non-negative integer")
        if not isinstance(row["cycles"], int) or row["cycles"] < 0:
            problems.append(f"{where}: 'cycles' must be a non-negative integer")
        if not isinstance(row["millis"], (int, float)) or row["millis"] < 0:
            problems.append(f"{where}: 'millis' must be a non-negative number")
        if "stats" in row:
            stats = row["stats"]
            if not isinstance(stats, dict):
                problems.append(f"{where}: 'stats' must be an object")
            else:
                for section in ("phases", "counters"):
                    if section in stats and not isinstance(
                            stats[section], dict):
                        problems.append(
                            f"{where}: stats.{section} must be an object")
        if "meta" in row:
            meta = row["meta"]
            if not isinstance(meta, dict):
                problems.append(f"{where}: 'meta' must be an object")
            else:
                for k, v in meta.items():
                    if not isinstance(k, str) or not isinstance(v, str):
                        problems.append(
                            f"{where}: meta entries must be string->string")
                        break
        key = (row.get("series"), row.get("x"))
        if key in seen:
            problems.append(f"{where}: duplicate (series, x) pair {key}")
        seen.add(key)
    return problems


def self_check(path):
    report = load_report(path)
    problems = validate(report, path)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    print(f"{path}: OK ({report['bench']}, {len(report['rows'])} rows)")
    return 0


def index_rows(report):
    return {(row["series"], row["x"]): row for row in report["rows"]}


def compare(baseline_path, candidate_path, metric, threshold_pct):
    baseline = load_report(baseline_path)
    candidate = load_report(candidate_path)
    for report, path in ((baseline, baseline_path),
                         (candidate, candidate_path)):
        problems = validate(report, path)
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            return 1

    base_rows = index_rows(baseline)
    cand_rows = index_rows(candidate)
    common = sorted(base_rows.keys() & cand_rows.keys())
    only_base = sorted(base_rows.keys() - cand_rows.keys())
    only_cand = sorted(cand_rows.keys() - base_rows.keys())

    regressions = []
    improvements = 0
    for key in common:
        base = base_rows[key][metric]
        cand = cand_rows[key][metric]
        if base <= 0:
            continue  # Cannot compute a ratio against a zero baseline.
        delta_pct = 100.0 * (cand - base) / base
        if delta_pct > threshold_pct:
            regressions.append((key, base, cand, delta_pct))
        elif delta_pct < 0:
            improvements += 1

    decision_changes = []
    for key in common:
        base_meta = base_rows[key].get("meta", {})
        cand_meta = cand_rows[key].get("meta", {})
        for field in ("algorithm", "switch_trace"):
            if base_meta.get(field) != cand_meta.get(field) and (
                    field in base_meta or field in cand_meta):
                decision_changes.append(
                    (key, field, base_meta.get(field, "-"),
                     cand_meta.get(field, "-")))

    print(f"compared {len(common)} rows on '{metric}' "
          f"(threshold {threshold_pct:.1f}%): "
          f"{len(regressions)} regression(s), {improvements} improvement(s)")
    for (series, x), base, cand, delta_pct in regressions:
        print(f"  REGRESSION {series} @ x={x}: "
              f"{base:g} -> {cand:g} ({delta_pct:+.1f}%)")
    for (series, x), field, base, cand in decision_changes:
        print(f"  DECISION {series} @ x={x} {field}: {base} -> {cand}")
    if only_base:
        print(f"  note: {len(only_base)} row(s) only in baseline "
              f"(e.g. {only_base[0]})")
    if only_cand:
        print(f"  note: {len(only_cand)} row(s) only in candidate "
              f"(e.g. {only_cand[0]})")
    return 1 if regressions else 0


def adaptive_gate(path, adaptive_series, metric, threshold_pct):
    """At every (workload, x): adaptive within threshold of the best fixed.

    Series may be workload-prefixed ("Zipf/Adaptive", "Zipf/Hash_PRadix");
    rows are grouped by (prefix, x) so multi-workload reports gate each
    workload independently.
    """
    report = load_report(path)
    problems = validate(report, path)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1

    groups = {}
    for row in report["rows"]:
        workload, _, algo = row["series"].rpartition("/")
        groups.setdefault((workload, row["x"]), []).append((algo, row))

    failures = []
    checked = 0
    for (workload, x) in sorted(groups):
        rows = groups[(workload, x)]
        adaptive = [r for algo, r in rows if algo == adaptive_series]
        fixed = [r for algo, r in rows
                 if algo != adaptive_series and r[metric] > 0]
        if not adaptive or not fixed:
            continue
        checked += 1
        where = f"{workload or 'default'} x={x}"
        ada = adaptive[0][metric]
        best = min(fixed, key=lambda r: r[metric])
        worst = max(fixed, key=lambda r: r[metric])
        delta_pct = 100.0 * (ada - best[metric]) / best[metric]
        speedup_vs_worst = (worst[metric] / ada) if ada > 0 else float("inf")
        trace = adaptive[0].get("meta", {}).get("switch_trace", "-")
        verdict = "FAIL" if delta_pct > threshold_pct else "ok"
        print(f"  {verdict} {where}: adaptive {ada:g} vs best "
              f"{best['series']} {best[metric]:g} ({delta_pct:+.1f}%), "
              f"{speedup_vs_worst:.2f}x over worst {worst['series']} "
              f"[{trace}]")
        if delta_pct > threshold_pct:
            failures.append((where, best["series"], delta_pct))

    if checked == 0:
        print(f"error: no group with both '{adaptive_series}' and fixed "
              f"series", file=sys.stderr)
        return 1
    print(f"adaptive gate: {checked} sweep point(s), "
          f"{len(failures)} failure(s) (threshold {threshold_pct:.1f}% "
          f"over best fixed)")
    return 1 if failures else 0


def speedup_gate(path, baseline_series, candidate_series, metric,
                 min_speedup):
    """Candidate must beat baseline by >= min_speedup at every shared x."""
    report = load_report(path)
    problems = validate(report, path)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1

    by_series = {}
    for row in report["rows"]:
        by_series.setdefault(row["series"], {})[row["x"]] = row
    base = by_series.get(baseline_series)
    cand = by_series.get(candidate_series)
    if not base:
        print(f"error: baseline series '{baseline_series}' not in {path} "
              "(the scalar lane always runs — its absence means the bench "
              "is broken)", file=sys.stderr)
        return 1
    if not cand:
        # A build without the vector lane writes no series for it, so a
        # missing candidate is a capability gap, not a regression.
        print(f"WARNING: candidate series '{candidate_series}' not in "
              f"{path} — lane not compiled into the bench, speedup gate "
              "SKIPPED (not enforced)")
        return 0

    shared = sorted(base.keys() & cand.keys())
    if not shared:
        print(f"error: '{baseline_series}' and '{candidate_series}' share "
              "no x values", file=sys.stderr)
        return 1
    failures = 0
    for x in shared:
        b, c = base[x][metric], cand[x][metric]
        if c <= 0:
            print(f"  SKIP x={x}: candidate {metric} is zero")
            continue
        ratio = b / c
        verdict = "ok" if ratio >= min_speedup else "FAIL"
        print(f"  {verdict} x={x}: {candidate_series} {c:g} vs "
              f"{baseline_series} {b:g} -> {ratio:.2f}x "
              f"(need >= {min_speedup:g}x)")
        if ratio < min_speedup:
            failures += 1
    print(f"speedup gate: {len(shared)} point(s), {failures} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="one file with --self-check, else "
                             "BASELINE CANDIDATE")
    parser.add_argument("--self-check", action="store_true",
                        help="validate schema of a single report")
    parser.add_argument("--adaptive-gate", action="store_true",
                        help="check the adaptive series against the best "
                             "fixed series at every x of one report")
    parser.add_argument("--adaptive-series", default="Adaptive",
                        help="series name of the adaptive rows "
                             "(default: Adaptive)")
    parser.add_argument("--speedup-gate", action="store_true",
                        help="require --candidate-series to beat "
                             "--baseline-series by --min-speedup within "
                             "one report")
    parser.add_argument("--baseline-series",
                        help="series the speedup is measured against")
    parser.add_argument("--candidate-series",
                        help="series that must be faster")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="minimum baseline/candidate ratio "
                             "(default: 1.5)")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="fail if a row regresses by more than this "
                             "percentage (default: 10)")
    parser.add_argument("--metric", choices=("millis", "cycles"),
                        default=None,
                        help="row field to compare (default: millis; "
                             "--speedup-gate defaults to cycles because "
                             "lane kernels finish in microseconds, where "
                             "wall-clock quantization dominates)")
    args = parser.parse_args()
    metric = args.metric or ("cycles" if args.speedup_gate else "millis")

    if args.self_check:
        if len(args.files) != 1:
            parser.error("--self-check takes exactly one file")
        return self_check(args.files[0])
    if args.adaptive_gate:
        if len(args.files) != 1:
            parser.error("--adaptive-gate takes exactly one file")
        return adaptive_gate(args.files[0], args.adaptive_series,
                             metric, args.threshold)
    if args.speedup_gate:
        if len(args.files) != 1:
            parser.error("--speedup-gate takes exactly one file")
        if not args.baseline_series or not args.candidate_series:
            parser.error("--speedup-gate requires --baseline-series and "
                         "--candidate-series")
        return speedup_gate(args.files[0], args.baseline_series,
                            args.candidate_series, metric,
                            args.min_speedup)
    if len(args.files) != 2:
        parser.error("comparison takes exactly two files "
                     "(baseline candidate)")
    return compare(args.files[0], args.files[1], metric, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
