"""Common analysis model shared by the astlint frontends.

A frontend (ast_frontend.py over libclang, lex_frontend.py over raw text)
reduces each source file to a FileModel — acquires-while-holding edges,
flagged calls inside morsel bodies, and aggregator constructions. The rules
in this module run over FileModels only, so both frontends are checked by
the same fixtures and report identical violation shapes.

Lock identity: a lock is named by the member (or variable) it is declared
as, with array indexes collapsed (`locks_[s1]` -> `locks_[]`) and access
paths dropped (`state_->mutex` -> `mutex`), qualified by the file that
declares its rank when known. Ranks are read from src/util/lock_rank.h (the
enum is the single source of truth; `lockrank:same-rank` comments mark
address-ordered families) and from rank declarations in the source —
`Mutex m{LockRank::kX}`, `SpinLock s(LockRank::kX)`, `x[i].SetRank(
LockRank::kX)` — which are declarative text, so rank extraction is lexical
in both modes.
"""

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent

# The locking primitives themselves: their internals (mu_.lock() inside
# Mutex::Lock) are the mechanism, not a protocol to analyze.
SKIP_FILES = (
    "src/util/mutex.h",
    "src/util/spinlock.h",
    "src/util/lock_rank.h",
    "src/util/thread_annotations.h",
)

# Lock-expression aliases for locks reached through pointers whose names
# differ from the declared member. CuckooMap::StripePair caches SpinLock*
# into its two stripe slots; both point into the locks_ array.
LOCK_ALIASES = {
    "cuckoo_map.h": {"first_": "locks_[]", "second_": "locks_[]"},
}

# Guard classes that acquire on construction, and whether the acquisition is
# shared. StripePair is repo-specific: it acquires (up to) two entries of
# CuckooMap::locks_ in index order.
GUARD_CLASSES = {
    "MutexLock": False,
    "WriterMutexLock": False,
    "ReaderMutexLock": True,
    "SpinLockGuard": False,
    "lock_guard": False,
    "unique_lock": False,
    "scoped_lock": False,
    "shared_lock": True,
}
STRIPE_GUARD = "StripePair"

# Fixed-aggregator rule scoping: the label registry is where the engine's
# operators are constructed (the family headers, src/core/*_aggregator.h,
# compose their own sub-operators and are exempt by pattern).
FIXED_AGG_EXEMPT_FILES = (
    "src/core/label_registry.h",
)


def canon_lock(expr, file_name):
    """Canonical lock name for a source expression: `state_->mutex` ->
    `mutex`, `this->locks_[s1]` -> `locks_[]`, `*first_` -> `first_`."""
    expr = expr.strip()
    expr = re.sub(r"\[[^\]]*\]", "[]", expr)
    parts = re.split(r"->|\.", expr)
    name = parts[-1].strip().lstrip("*&").strip()
    name = LOCK_ALIASES.get(file_name, {}).get(name, name)
    return name


@dataclass(frozen=True)
class AcquireEdge:
    """`acquired` was acquired while `held` was held (both canonical names,
    unqualified — qualification happens against the rank table)."""
    held: str
    acquired: str
    file: str  # repo-relative path of the acquisition site
    line: int


@dataclass(frozen=True)
class MorselFlag:
    """A flagged construct inside a ParallelFor/morsel lambda body."""
    kind: str  # blocking-lock | wait | global-new | io | stats
    detail: str
    file: str
    line: int


@dataclass(frozen=True)
class AggregatorConstruction:
    name: str
    file: str
    line: int


@dataclass(frozen=True)
class ArenaEscape:
    """A pointer allocated from a function-local arena outliving it (Tier 6,
    produced by dataflow.link)."""
    kind: str      # return | store | task-capture | use-after-reset
    pointer: str   # the escaping variable ("<temporary>" for bare returns)
    arena: str     # the owning local arena variable
    function: str
    file: str
    line: int
    detail: str


@dataclass(frozen=True)
class TaskCapture:
    """A by-reference capture handed to an unjoined scheduled task, or an
    unmet requires-join obligation at a call site (Tier 6)."""
    variable: str  # "&local", "[&]", or the unjoined group at a call site
    receiver: str  # normalized Submit/Schedule receiver chain
    function: str
    file: str
    line: int
    detail: str


@dataclass(frozen=True)
class ShiftSite:
    """One shift expression in the packed-key scope, with the symbolic
    amount interval and inferred operand width (Tier 6)."""
    op: str            # "<<" or ">>"
    operand: str
    operand_bits: int
    amount: str
    amount_min: int
    amount_max: int    # dataflow.UNKNOWN when no width fact applies
    ok: bool
    file: str
    line: int


@dataclass
class FileModel:
    path: str  # repo-relative (or pretend path, for fixtures)
    edges: list = field(default_factory=list)
    morsel_flags: list = field(default_factory=list)
    aggregator_constructions: list = field(default_factory=list)
    # Tier-6 dataflow facts. `functions` (FuncModels) is filled per-file by
    # dataflow.extract_into; the finding lists are filled repo-wide by
    # dataflow.link once call summaries reach a fixpoint.
    functions: list = field(default_factory=list)
    arena_escapes: list = field(default_factory=list)
    task_captures: list = field(default_factory=list)
    shift_sites: list = field(default_factory=list)


# --- Rank table --------------------------------------------------------------

ENUM_ENTRY_RE = re.compile(r"\bk(\w+)\s*=\s*(\d+)\s*,?(.*)")
# Declarations may carry thread-safety annotations between the name and the
# rank initializer: `Mutex eviction_mutex_ ACQUIRED_AFTER(resize_mutex_){...}`.
RANK_BRACE_DECL_RE = re.compile(
    r"\b(?:Mutex|SharedMutex|SpinLock)\s+(\w+)\s*"
    r"(?:\w+\s*\([^()]*\)\s*)*"
    r"[({]\s*LockRank::k(\w+)\s*[)}]"
)
RANK_SETRANK_RE = re.compile(
    r"\b(\w+)\s*(\[[^\]]*\])?\s*\.\s*SetRank\s*\(\s*LockRank::k(\w+)")


class RankTable:
    """Rank values from lock_rank.h plus per-lock rank declarations."""

    def __init__(self):
        self.values = {}         # rank name (kX) -> int
        self.same_rank = set()   # rank names with a sanctioned protocol
        self.decls = []          # (file_name, lock_name, rank_name)

    @classmethod
    def load(cls, repo=REPO, extra_texts=()):
        """Parses the enum from src/util/lock_rank.h and rank declarations
        from every src/ file (plus `extra_texts`: (file_name, text) pairs,
        used for fixtures)."""
        table = cls()
        header = repo / "src/util/lock_rank.h"
        if header.is_file():
            table.parse_enum(header.read_text(encoding="utf-8"))
        for path in sorted((repo / "src").rglob("*")):
            if path.suffix in (".h", ".cc"):
                table.parse_decls(path.name, path.read_text(encoding="utf-8"))
        for file_name, text in extra_texts:
            table.parse_decls(file_name, text)
        return table

    def parse_enum(self, text):
        in_enum = False
        for line in text.splitlines():
            if "enum class LockRank" in line:
                in_enum = True
            if not in_enum:
                continue
            match = ENUM_ENTRY_RE.search(line)
            if match:
                name = "k" + match.group(1)
                self.values[name] = int(match.group(2))
                if "lockrank:same-rank" in match.group(3):
                    self.same_rank.add(name)
            if "};" in line:
                break

    def parse_decls(self, file_name, text):
        for match in RANK_BRACE_DECL_RE.finditer(text):
            self.decls.append((file_name, match.group(1), "k" + match.group(2)))
        for match in RANK_SETRANK_RE.finditer(text):
            lock = match.group(1) + ("[]" if match.group(2) else "")
            self.decls.append((file_name, lock, "k" + match.group(3)))

    def resolve(self, file_path, lock_name):
        """(qualified id, rank name or None). Prefers a rank declaration in
        the same file; falls back to a unique cross-file declaration (locks
        acquired in a .cc but declared in the .h)."""
        file_name = Path(file_path).name
        same_file = [d for d in self.decls
                     if d[0] == file_name and d[1] == lock_name]
        if same_file:
            return f"{file_name}:{lock_name}", same_file[0][2]
        elsewhere = {(d[0], d[2]) for d in self.decls if d[1] == lock_name}
        if len(elsewhere) == 1:
            decl_file, rank = next(iter(elsewhere))
            return f"{decl_file}:{lock_name}", rank
        return f"{file_name}:{lock_name}", None

    def rank_value(self, rank_name):
        return self.values.get(rank_name)

    def allows_same_rank(self, rank_name):
        return rank_name in self.same_rank


# --- Rules -------------------------------------------------------------------

RULE_LOCK_ORDER = "lock-order"
RULE_BLOCKING = "blocking-in-morsel-body"
RULE_STATS = "stats-in-morsel-body"
RULE_FIXED_AGG = "fixed-aggregator-construction"
RULE_ARENA_ESCAPE = "arena-escape"
RULE_TASK_CAPTURE = "morsel-capture"
RULE_PACKED_SHIFT = "packed-shift"
ALL_RULES = (RULE_LOCK_ORDER, RULE_BLOCKING, RULE_STATS, RULE_FIXED_AGG,
             RULE_ARENA_ESCAPE, RULE_TASK_CAPTURE, RULE_PACKED_SHIFT)

BLOCKING_KINDS = ("blocking-lock", "wait", "global-new", "io")


@dataclass(frozen=True)
class Violation:
    file: str
    line: int
    rule: str
    message: str


def build_lock_graph(models, ranks):
    """Resolves every edge against the rank table. Returns (nodes, edges)
    where nodes maps qualified id -> rank name (or None) and edges is a list
    of dicts (held/acquired ids, location, ranks)."""
    nodes, edges = {}, []
    for model in models:
        for edge in model.edges:
            held_id, held_rank = ranks.resolve(edge.file, edge.held)
            acq_id, acq_rank = ranks.resolve(edge.file, edge.acquired)
            nodes.setdefault(held_id, held_rank)
            nodes.setdefault(acq_id, acq_rank)
            edges.append({
                "held": held_id, "held_rank": held_rank,
                "acquired": acq_id, "acquired_rank": acq_rank,
                "file": edge.file, "line": edge.line,
            })
    return nodes, edges


def find_cycles(edges, allows_same_rank):
    """Every elementary cycle in the acquires-while-holding graph, as node
    tuples canonicalized to start at the smallest id. A self-edge sanctioned
    by a same-rank protocol is not a cycle (address order breaks the tie)."""
    adjacency = {}
    for edge in edges:
        if edge["held"] != edge["acquired"]:
            adjacency.setdefault(edge["held"], set()).add(edge["acquired"])
    cycles = set()

    def walk(node, path, on_path):
        for succ in sorted(adjacency.get(node, ())):
            if succ == path[0]:
                cycles.add(tuple(path))
            elif succ not in on_path and succ > path[0]:
                # Only explore ids > the root: every cycle is found exactly
                # once, rooted at its smallest node.
                walk(succ, path + [succ], on_path | {succ})

    for edge in edges:
        if edge["held"] == edge["acquired"]:
            rank = edge["held_rank"]
            if rank is None or not allows_same_rank(rank):
                cycles.add((edge["held"],))
    for node in sorted(adjacency):
        walk(node, [node], {node})
    return sorted(cycles)


def check_lock_order(models, ranks):
    nodes, edges = build_lock_graph(models, ranks)
    del nodes
    violations = []
    for cycle in find_cycles(edges, ranks.allows_same_rank):
        members = set(cycle)
        site = min(
            (e for e in edges
             if e["held"] in members and e["acquired"] in members),
            key=lambda e: (e["file"], e["line"]))
        violations.append(Violation(
            site["file"], site["line"], RULE_LOCK_ORDER,
            "acquires-while-holding cycle: " + " -> ".join(
                cycle + (cycle[0],)) +
            " — a deadlock under the right interleaving; break the cycle or "
            "sanction it with a rank protocol"))
    for edge in edges:
        held_rank, acq_rank = edge["held_rank"], edge["acquired_rank"]
        if held_rank is None or acq_rank is None:
            continue
        held_value = ranks.rank_value(held_rank)
        acq_value = ranks.rank_value(acq_rank)
        if held_value is None or acq_value is None:
            continue
        if acq_value < held_value:
            violations.append(Violation(
                edge["file"], edge["line"], RULE_LOCK_ORDER,
                f"rank inversion: acquiring {edge['acquired']} "
                f"({acq_rank}={acq_value}) while holding {edge['held']} "
                f"({held_rank}={held_value}) — ranks must strictly increase"))
        elif (acq_value == held_value and edge["held"] != edge["acquired"]
              and not ranks.allows_same_rank(acq_rank)):
            violations.append(Violation(
                edge["file"], edge["line"], RULE_LOCK_ORDER,
                f"same-rank acquisition: {edge['acquired']} while holding "
                f"{edge['held']} (both {held_rank}) without a same-rank "
                "protocol"))
    return violations


def check_morsel_rules(models, _ranks):
    violations = []
    for model in models:
        if not model.path.startswith(("src/", "bench/", "examples/")):
            continue
        for flag in model.morsel_flags:
            if flag.kind in BLOCKING_KINDS:
                violations.append(Violation(
                    flag.file, flag.line, RULE_BLOCKING,
                    f"{flag.detail} inside a morsel body — morsel bodies "
                    "must not block (park on a mutex, wait on a group, hit "
                    "the global allocator, or do I/O); hoist it to the "
                    "per-worker setup or use the worker's arena"))
            elif flag.kind == "stats":
                violations.append(Violation(
                    flag.file, flag.line, RULE_STATS,
                    f"{flag.detail} inside a morsel body — accumulate "
                    "locally and flush once per worker (see "
                    "Executor::RecordWorkerClaims)"))
    return violations


def check_fixed_aggregator(models, _ranks):
    violations = []
    for model in models:
        path = model.path
        if not path.startswith(("src/", "bench/", "examples/")):
            continue
        if path in FIXED_AGG_EXEMPT_FILES:
            continue
        if path.startswith("src/core/") and path.endswith("_aggregator.h"):
            continue
        for ctor in model.aggregator_constructions:
            if ctor.name == "AdaptiveAggregator":
                continue
            violations.append(Violation(
                ctor.file, ctor.line, RULE_FIXED_AGG,
                f"direct construction of {ctor.name} — route operator "
                "choice through MakeVectorAggregator (core/engine.h) or "
                "AdaptiveAggregator"))
    return violations


LINTED_PREFIXES = ("src/", "bench/", "examples/")


def check_arena_escape(models, _ranks):
    violations = []
    for model in models:
        if not model.path.startswith(LINTED_PREFIXES):
            continue
        for escape in model.arena_escapes:
            violations.append(Violation(
                escape.file, escape.line, RULE_ARENA_ESCAPE,
                f"{escape.function}: {escape.detail} — the pointer outlives "
                f"the arena's Reset()/destruction; allocate from a "
                "caller-owned arena or copy out before the scope ends"))
    return violations


def check_task_capture(models, _ranks):
    violations = []
    for model in models:
        if not model.path.startswith(LINTED_PREFIXES):
            continue
        for capture in model.task_captures:
            violations.append(Violation(
                capture.file, capture.line, RULE_TASK_CAPTURE,
                f"{capture.function}: {capture.detail} — the task can "
                "outlive the captured frame; join with Wait() before the "
                "scope ends or capture by value"))
    return violations


def check_packed_shift(models, _ranks):
    violations = []
    for model in models:
        if not model.path.startswith(LINTED_PREFIXES):
            continue
        for site in model.shift_sites:
            if site.ok:
                continue
            if site.amount_max >= 10 ** 9:
                reason = (f"no width fact bounds '{site.amount}' — shifting "
                          f"a {site.operand_bits}-bit operand by an "
                          "unbounded amount is UB at the operand width")
            else:
                reason = (f"amount '{site.amount}' can reach "
                          f"{site.amount_max} on a {site.operand_bits}-bit "
                          "operand — shifts of >= operand width are UB")
            violations.append(Violation(
                site.file, site.line, RULE_PACKED_SHIFT,
                f"'{site.operand} {site.op} {site.amount}': {reason}; "
                "narrow the plan (PackedKeyCodec::TryBuild caps totals "
                "below kEncodedKeyBits) or guard the boundary value"))
    return violations


RULE_CHECKS = (check_lock_order, check_morsel_rules, check_fixed_aggregator,
               check_arena_escape, check_task_capture, check_packed_shift)


def run_rules(models, ranks):
    violations = []
    for check in RULE_CHECKS:
        violations.extend(check(models, ranks))
    return sorted(violations, key=lambda v: (v.file, v.line, v.rule))


def graph_json(models, ranks):
    """The acquires-while-holding graph as a JSON string (the CI artifact).
    Nodes include every rank-declared lock, even ones with no edges, so the
    artifact doubles as the repo's lock-rank map."""
    nodes, edges = build_lock_graph(models, ranks)
    for decl_file, lock_name, rank_name in ranks.decls:
        nodes.setdefault(f"{decl_file}:{lock_name}", rank_name)
    return json.dumps({
        "nodes": [
            {"id": node, "rank": rank,
             "rank_value": ranks.rank_value(rank) if rank else None,
             "same_rank_ok": bool(rank and ranks.allows_same_rank(rank))}
            for node, rank in sorted(nodes.items())
        ],
        "edges": sorted(edges, key=lambda e: (e["file"], e["line"])),
    }, indent=2)


def dataflow_json(models):
    """The Tier-6 dataflow facts as a JSON string (the astlint_dataflow.json
    CI artifact): every arena escape, task capture, and shift site — shift
    sites including the *clean* ones, so the artifact records the full
    audited set, not just failures."""
    escapes, captures, shifts = [], [], []
    functions = 0
    for model in sorted(models, key=lambda m: m.path):
        functions += len(model.functions)
        for e in model.arena_escapes:
            escapes.append({
                "kind": e.kind, "pointer": e.pointer, "arena": e.arena,
                "function": e.function, "file": e.file, "line": e.line,
                "detail": e.detail})
        for c in model.task_captures:
            captures.append({
                "variable": c.variable, "receiver": c.receiver,
                "function": c.function, "file": c.file, "line": c.line,
                "detail": c.detail})
        for s in model.shift_sites:
            shifts.append({
                "op": s.op, "operand": s.operand,
                "operand_bits": s.operand_bits, "amount": s.amount,
                "amount_min": s.amount_min,
                "amount_max": (None if s.amount_max >= 10 ** 9
                               else s.amount_max),
                "ok": s.ok, "file": s.file, "line": s.line})
    return json.dumps({
        "schema": "astlint-dataflow-v1",
        "functions_analyzed": functions,
        "arena_escapes": escapes,
        "task_captures": captures,
        "shift_sites": shifts,
    }, indent=2)
