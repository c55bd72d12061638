#!/usr/bin/env python3
"""astlint: the repo's lint engine, over compile_commands.json or raw text.

Two rule families share one waiver syntax and one stale-waiver check.

Model rules run over a per-file model extracted by one of two frontends:

  lock-order                    repo-wide acquires-while-holding graph must
                                be cycle-free and rank-consistent (ranks
                                from src/util/lock_rank.h; same-rank only
                                where the enum sanctions a protocol)
  blocking-in-morsel-body       no parking lock, Wait(), allocating `new`,
                                or I/O inside a `const Morsel&` lambda
  stats-in-morsel-body          no per-morsel stats recording
                                (StatCounter::, PhaseTimer, AddPhase,
                                WorkerShard) inside a `const Morsel&` lambda
  fixed-aggregator-construction src/, bench/, and examples/ construct no
                                fixed aggregator (heap or stack): operator
                                choice flows through MakeVectorAggregator /
                                AdaptiveAggregator; the label registry and
                                the family headers are exempt
  arena-escape                  Tier 6: no pointer allocated from a
                                function-local Arena/WorkerArenas may
                                outlive the arena (return, member store,
                                unjoined task capture, use-after-Reset)
  morsel-capture                Tier 6: no bare [&] in a lambda handed to
                                Submit()/Schedule(); named by-reference
                                captures need a dominating Wait() in the
                                same scope (or a requires-join summary met
                                at call sites)
  packed-shift                  Tier 6: every shift in the packed-key
                                scope is symbolically bounded below the
                                operand width (see dataflow.py)

The Tier-6 rules share one intraprocedural-with-call-summaries engine
(dataflow.py) whose facts are linked repo-wide after extraction; both
frontends feed it the same lexical facts, so Tier 6 has frontend parity
by construction. --parity-test verifies the Tier 4-5 extraction agrees
across frontends over every fixture.

Text rules (text_rules.py: raw-thread, libc-rand, unguarded-global,
include-guard, raw-node-alloc, raw-simd-intrinsic, raw-key-type,
unconstrained-typename, include-layering) read the stripped source of every
file under src/, bench/, examples/ and tests/. This script runs them outside
either frontend, so they are the same code in every mode.

Frontends (--mode):
  ast   libclang over compile_commands.json (CI: apt install clang
        python3-clang). Skips LOUDLY with exit 0 when unavailable, so the
        ast-analyze job never silently greenwashes. Pass
        --require-frontend=ast to turn that skip into a hard failure
        (what the ast-dataflow CI job does).
  lex   self-contained lexical fallback, no third-party deps; what local
        ctest runs.
  auto  ast if available, else lex with a printed notice (default).

Waivers: `// astlint:allow(rule): reason` on the offending line or the
line above. A lock-order waiver suppresses the acquisition *edge*, so
waiving one edge of a cycle breaks the cycle. A waiver whose rule has no
raw fact or text hit on its own or the next line is itself reported
(stale-waiver), so waivers cannot outlive the code they excuse.

Artifacts: --graph-out writes the acquires-while-holding graph;
--dataflow-out writes astlint_dataflow.json (every arena escape, task
capture, and audited shift site — including the clean ones).

Self-test: --self-test replays the planted-violation fixtures under
tools/astlint/fixtures/ through the active frontend — each must fire its
rule exactly as expected, fire nothing else, and go clean when every
reported line is waived — and checks that text_rules.MODULE_DEPS is a DAG.
Registered in ctest as astlint_selftest.
"""

import argparse
import copy
import functools
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dataflow
import lex_frontend
import model
import text_rules

REPO = model.REPO
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
WAIVER_RE = re.compile(r"//\s*astlint:allow\(([a-z-]+)\)")
# Meta-rule: a waiver whose rule has no raw fact at the covered lines.
STALE_RULE = "stale-waiver"

# (fixture file, pretend repo path, rule that must fire, expected). A rule of
# None asserts the fixture is clean. `expected` is a count, or, for the text
# rules, whose lines cannot differ between frontends, the lines that fire.
FIXTURES = (
    ("lock_cycle.cc", "src/exec/lock_cycle_fixture.cc",
     model.RULE_LOCK_ORDER, 1),
    ("rank_inversion.cc", "src/exec/rank_inversion_fixture.cc",
     model.RULE_LOCK_ORDER, 1),
    ("same_rank.cc", "src/exec/same_rank_fixture.cc",
     model.RULE_LOCK_ORDER, 1),
    ("blocking_in_morsel.cc", "src/exec/blocking_fixture.cc",
     model.RULE_BLOCKING, 4),
    ("stats_in_morsel.cc", "src/exec/stats_fixture.cc",
     model.RULE_STATS, 1),
    ("fixed_aggregator.cc", "src/exec/fixed_agg_fixture.cc",
     model.RULE_FIXED_AGG, 2),
    ("clean_ok.cc", "src/exec/clean_fixture.cc", None, 0),
    ("arena_escape.cc", "src/exec/arena_escape_fixture.cc",
     model.RULE_ARENA_ESCAPE, 5),
    ("morsel_capture.cc", "src/exec/morsel_capture_fixture.cc",
     model.RULE_TASK_CAPTURE, 4),
    ("packed_shift.cc", "src/data/key_codec_fixture.cc",
     model.RULE_PACKED_SHIFT, 3),
    ("fixed_point_shift.cc", "src/data/lineitem_fixture.cc",
     model.RULE_PACKED_SHIFT, 1),
    ("stale_waiver.cc", "src/exec/stale_waiver_fixture.cc",
     "stale-waiver", 1),
    ("clean_dataflow.cc", "src/exec/clean_dataflow_fixture.cc", None, 0),
    # Text rules: each bad snippet, its good twin, the exempt paths, and the
    # scan's reach into tests/ (threads allowed there, rand not) and bench/.
    ("raw_thread.cc", "src/core/widget.cc", "raw-thread", (1,)),
    ("raw_thread_ok.cc", "src/core/widget.cc", None, 0),
    ("raw_thread.cc", "src/exec/thread_pool.cc", None, 0),
    ("raw_thread.cc", "tests/widget_test.cc", None, 0),
    ("libc_rand.cc", "bench/micro.cc", "libc-rand", (1,)),
    ("libc_rand.cc", "tests/widget_test.cc", "libc-rand", (1,)),
    ("libc_rand_ok.cc", "bench/micro.cc", None, 0),
    ("unguarded_global.cc", "src/core/widget.cc", "unguarded-global", (1,)),
    ("unguarded_global_ok.cc", "src/core/widget.cc", None, 0),
    ("raw_node_alloc.cc", "src/hash/widget.h", "raw-node-alloc", (3,)),
    ("raw_node_alloc_ok.cc", "src/hash/widget.h", None, 0),
    ("raw_node_alloc_exempt.cc", "src/core/widget.cc", None, 0),
    ("raw_simd_intrinsic.cc", "src/hash/widget.h", "raw-simd-intrinsic",
     (4,)),
    ("raw_simd_intrinsic_ok.cc", "src/hash/widget.h", None, 0),
    ("raw_simd_intrinsic_exempt.cc", "src/util/simd_widen.h", None, 0),
    ("include_guard.cc", "src/core/widget.h", "include-guard", (1,)),
    ("include_guard_ok.cc", "src/core/widget.h", None, 0),
    ("raw_key_type.cc", "src/core/widget.h", "raw-key-type", (3,)),
    ("raw_key_type.cc", "bench/micro.cc", "raw-key-type", (3,)),
    ("raw_key_type_ok.cc", "src/core/widget.h", None, 0),
    ("raw_key_type_exempt.cc", "src/data/widget.h", None, 0),
    ("unconstrained_typename.cc", "src/core/widget.h",
     "unconstrained-typename", (3,)),
    ("unconstrained_typename_ok.cc", "src/core/widget.h", None, 0),
    ("unconstrained_typename_concepts.cc", "src/core/concepts.h", None, 0),
    ("unconstrained_typename_hash.cc", "src/hash/widget.h", None, 0),
    ("include_layering.cc", "src/hash/bad_map.h", "include-layering", (4,)),
    ("include_layering_ok.cc", "src/core/fine.h", None, 0),
    ("stale_text_waiver.cc", "src/core/widget.cc", "stale-waiver", (1,)),
    ("stale_text_waiver_ok.cc", "src/core/widget.cc", None, 0),
    ("stripping.cc", "src/core/widget.cc", None, 0),
)


def waiver_sites(text):
    """(1-based line, rule) of every waiver comment in `text`."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in WAIVER_RE.finditer(line):
            yield lineno, match.group(1)


def collect_waivers(text):
    """Maps 1-based line number -> set of waived rules. A waiver covers its
    own line and the next line."""
    waived = {}
    for lineno, rule in waiver_sites(text):
        waived.setdefault(lineno, set()).add(rule)
        waived.setdefault(lineno + 1, set()).add(rule)
    return waived


def apply_waivers(file_model, waived):
    def live(rule, line):
        return rule not in waived.get(line, ())

    file_model.edges = [
        e for e in file_model.edges if live(model.RULE_LOCK_ORDER, e.line)]
    file_model.morsel_flags = [
        f for f in file_model.morsel_flags
        if live(model.RULE_STATS if f.kind == "stats" else model.RULE_BLOCKING,
                f.line)]
    file_model.aggregator_constructions = [
        c for c in file_model.aggregator_constructions
        if live(model.RULE_FIXED_AGG, c.line)]
    file_model.arena_escapes = [
        e for e in file_model.arena_escapes
        if live(model.RULE_ARENA_ESCAPE, e.line)]
    file_model.task_captures = [
        c for c in file_model.task_captures
        if live(model.RULE_TASK_CAPTURE, c.line)]
    file_model.shift_sites = [
        s for s in file_model.shift_sites
        if s.ok or live(model.RULE_PACKED_SHIFT, s.line)]
    return file_model


def raw_fact_lines(file_model, text_hits):
    """rule -> lines carrying a raw (pre-waiver) model fact or text-rule hit
    of that rule. This is what keeps a waiver alive: lock-order liveness is
    'an edge exists here', not 'the edge still violates'."""
    lines = {}

    def add(rule, line):
        lines.setdefault(rule, set()).add(line)

    for line, rule, _ in text_hits:
        add(rule, line)
    if file_model is None:
        return lines
    for e in file_model.edges:
        add(model.RULE_LOCK_ORDER, e.line)
    for f in file_model.morsel_flags:
        add(model.RULE_STATS if f.kind == "stats" else model.RULE_BLOCKING,
            f.line)
    for c in file_model.aggregator_constructions:
        add(model.RULE_FIXED_AGG, c.line)
    for e in file_model.arena_escapes:
        add(model.RULE_ARENA_ESCAPE, e.line)
    for c in file_model.task_captures:
        add(model.RULE_TASK_CAPTURE, c.line)
    for s in file_model.shift_sites:
        if not s.ok:
            add(model.RULE_PACKED_SHIFT, s.line)
    return lines


def stale_waiver_violations(path, text, facts, waived):
    """Waivers whose rule has no raw fact on the covered lines. Suppressed
    by astlint:allow(stale-waiver) on the same line; stale-waiver waivers
    themselves are exempt from staleness (they have no fact to match)."""
    out = []
    for lineno, rule in waiver_sites(text):
        if rule == STALE_RULE:
            continue
        if facts.get(rule, set()) & {lineno, lineno + 1}:
            continue
        if STALE_RULE in waived.get(lineno, ()):
            continue
        out.append(model.Violation(
            path, lineno, STALE_RULE,
            f"astlint:allow({rule}) matches no {rule} fact on this or the "
            "next line — the waived code is gone; remove the waiver"))
    return out


def link_and_waive(models, texts):
    """The repo-wide phase. Tier-6 linking must see raw (unwaived) facts,
    and staleness must be judged on them and on the raw text-rule hits, so
    extraction, link, text rules, stale scan, and waiver application run in
    that order. `texts` maps every scanned path to its source, a superset
    of the model paths. Returns the text-rule and stale-waiver violations;
    the model rules then run over the waived models."""
    dataflow.link(models)
    by_path = {file_model.path: file_model for file_model in models}
    found = []
    for path, text in texts.items():
        hits = text_rules.scan(path, text)
        file_model = by_path.get(path)
        waived = collect_waivers(text)
        found.extend(stale_waiver_violations(
            path, text, raw_fact_lines(file_model, hits), waived))
        found.extend(model.Violation(path, line, rule, message)
                     for line, rule, message in hits
                     if rule not in waived.get(line, ()))
        if file_model is not None:
            apply_waivers(file_model, waived)
    return found


def repo_texts():
    """Source text of every file of the repo walk (text_rules.SCAN_DIRS)."""
    texts = {}
    for top in text_rules.SCAN_DIRS:
        for path in sorted((REPO / top).rglob("*")):
            if path.suffix in (".h", ".cc"):
                rel = path.relative_to(REPO).as_posix()
                texts[rel] = path.read_text(encoding="utf-8")
    return texts


def gather_lex():
    texts = repo_texts()
    models = [lex_frontend.extract(rel, text) for rel, text in texts.items()
              if rel.startswith(model.LINTED_PREFIXES)
              and rel not in model.SKIP_FILES]
    return models, texts, link_and_waive(models, texts)


def gather_ast(build_dir):
    import ast_frontend
    models = ast_frontend.extract_repo(REPO, build_dir, log=print)
    texts = repo_texts()
    return models, texts, link_and_waive(models, texts)


# --- Self-test ---------------------------------------------------------------

@functools.cache
def repo_ranks():
    """The repo's rank table, parsed once for every fixture run."""
    return model.RankTable.load(REPO)


def run_fixture(extract, pretend, text):
    file_model = extract(pretend, text)
    found = link_and_waive([file_model], {pretend: text})
    ranks = copy.deepcopy(repo_ranks())
    ranks.parse_decls(Path(pretend).name, text)
    return sorted(model.run_rules([file_model], ranks) + found,
                  key=lambda v: (v.file, v.line, v.rule))


def self_test(extract, frontend_name):
    failures = []
    for fixture, pretend, rule, expected in FIXTURES:
        text = (FIXTURE_DIR / fixture).read_text(encoding="utf-8")
        violations = run_fixture(extract, pretend, text)
        hits = [v for v in violations if v.rule == rule]
        others = [v for v in violations if v.rule != rule]
        hit_lines = tuple(v.line for v in hits)
        fired = hit_lines if isinstance(expected, tuple) else len(hit_lines)
        if fired != expected:
            failures.append(
                f"{fixture} @ {pretend}: expected {expected} {rule} "
                f"violation(s), got {fired}: {hits}")
        if others:
            failures.append(
                f"{fixture} @ {pretend}: unexpected violations: {others}")
        if rule is not None and hits and fired == expected:
            lines = text.splitlines()
            for violation in hits:
                lines[violation.line - 1] += (
                    f"  // astlint:allow({rule}): fixture self-test")
            waived = run_fixture(extract, pretend, "\n".join(lines) + "\n")
            if waived:
                failures.append(
                    f"{fixture} @ {pretend}: waivers did not suppress: "
                    f"{waived}")
        status = "FAIL" if any(f.startswith(f"{fixture} @ {pretend}:")
                               for f in failures) else "ok"
        print(f"astlint self-test [{frontend_name}] {fixture} @ {pretend}: "
              f"{status}")
    unordered = text_rules.unordered_modules()
    if unordered:
        failures.append(f"MODULE_DEPS is not a DAG: {unordered} sit on or "
                        "above a cycle")
    for failure in failures:
        print(f"astlint self-test FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


# --- Frontend parity ---------------------------------------------------------

def parity_test():
    """Runs every fixture through BOTH frontends and diffs the normalized
    findings (line, rule). Divergence is a frontend bug: the fixtures are
    the shared semantics contract. Skips loudly (exit 0) when the AST
    frontend is unavailable — CI pairs this with --require-frontend=ast."""
    import ast_frontend
    ok, reason = ast_frontend.available()
    if not ok:
        print("=" * 72)
        print(f"astlint: parity test SKIPPED — AST frontend unavailable: "
              f"{reason}")
        print("astlint: the lexical self-test still covers the fixtures; "
              "CI runs the parity diff with both frontends present.")
        print("=" * 72)
        return 0
    failures = []
    for fixture, pretend, _rule, _expected in FIXTURES:
        text = (FIXTURE_DIR / fixture).read_text(encoding="utf-8")
        lex_found = {(v.line, v.rule)
                     for v in run_fixture(lex_frontend.extract, pretend, text)}
        ast_found = {(v.line, v.rule)
                     for v in run_fixture(ast_frontend.extract_text, pretend,
                                          text)}
        if lex_found != ast_found:
            failures.append(
                f"{fixture}: lex-only={sorted(lex_found - ast_found)} "
                f"ast-only={sorted(ast_found - lex_found)}")
            print(f"astlint parity {fixture}: FAIL")
        else:
            print(f"astlint parity {fixture}: ok "
                  f"({len(lex_found)} finding(s) agree)")
    for failure in failures:
        print(f"astlint parity FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


# --- CLI ---------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        description="memagg's lint engine: lock order, morsel bodies, "
                    "dataflow, and the text rules")
    parser.add_argument("--mode", choices=("auto", "ast", "lex"),
                        default="auto")
    parser.add_argument("-p", "--build-dir", default=str(REPO / "build"),
                        help="directory containing compile_commands.json "
                             "(ast mode)")
    parser.add_argument("--graph-out", metavar="PATH",
                        help="write the acquires-while-holding graph JSON")
    parser.add_argument("--dataflow-out", metavar="PATH",
                        help="write the Tier-6 dataflow facts JSON "
                             "(astlint_dataflow.json CI artifact)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the planted-violation fixtures")
    parser.add_argument("--parity-test", action="store_true",
                        help="diff normalized fixture findings across both "
                             "frontends")
    parser.add_argument("--require-frontend", choices=("ast",),
                        help="hard-fail (exit 2) instead of skipping when "
                             "this frontend is unavailable (CI guard)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in model.ALL_RULES + tuple(r for r, _, _ in text_rules.RULES):
            print(rule)
        print(STALE_RULE)
        return 0

    if args.require_frontend == "ast":
        import ast_frontend
        ok, reason = ast_frontend.available()
        if not ok:
            print(f"astlint: error: --require-frontend=ast but the AST "
                  f"frontend is unavailable: {reason}", file=sys.stderr)
            print("astlint: this is a hard failure (CI must not greenwash "
                  "by silently skipping the AST analysis)", file=sys.stderr)
            return 2

    if args.parity_test:
        return parity_test()

    frontend = "lex"
    if args.mode in ("auto", "ast"):
        import ast_frontend
        ok, reason = ast_frontend.available()
        if ok:
            frontend = "ast"
        elif args.mode == "ast":
            print("=" * 72)
            print(f"astlint: SKIPPED — AST frontend unavailable: {reason}")
            print("astlint: install clang + python3-clang to run the "
                  "AST-grounded analysis; the lexical fallback still runs "
                  "under ctest.")
            print("=" * 72)
            return 0
        else:
            print(f"astlint: AST frontend unavailable ({reason}); "
                  "falling back to the lexical frontend")

    if args.self_test:
        if frontend == "ast":
            import ast_frontend
            extract = ast_frontend.extract_text
        else:
            extract = lex_frontend.extract
        return self_test(extract, frontend)

    if frontend == "ast":
        build_dir = Path(args.build_dir)
        if not (build_dir / "compile_commands.json").is_file():
            if args.mode == "ast":
                print(f"astlint: error: no compile_commands.json in "
                      f"{build_dir} (configure with "
                      f"-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)",
                      file=sys.stderr)
                return 2
            print(f"astlint: no compile_commands.json in {build_dir}; "
                  "falling back to the lexical frontend")
            frontend = "lex"

    if frontend == "ast":
        models, texts, found = gather_ast(args.build_dir)
    else:
        models, texts, found = gather_lex()

    ranks = model.RankTable.load(REPO)
    violations = sorted(model.run_rules(models, ranks) + found,
                        key=lambda v: (v.file, v.line, v.rule))

    if args.graph_out:
        Path(args.graph_out).write_text(model.graph_json(models, ranks),
                                        encoding="utf-8")
        print(f"astlint: wrote lock graph to {args.graph_out}")
    if args.dataflow_out:
        Path(args.dataflow_out).write_text(model.dataflow_json(models),
                                           encoding="utf-8")
        print(f"astlint: wrote dataflow facts to {args.dataflow_out}")

    for violation in violations:
        print(f"{violation.file}:{violation.line}: [{violation.rule}] "
              f"{violation.message}")
    edge_count = sum(len(m.edges) for m in models)
    func_count = sum(len(m.functions) for m in models)
    shift_count = sum(len(m.shift_sites) for m in models)
    print(f"astlint [{frontend}]: {len(texts)} file(s) scanned, "
          f"{len(models)} modelled, {edge_count} acquires-while-holding "
          f"edge(s), {func_count} function(s), {shift_count} audited "
          f"shift(s), {len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
