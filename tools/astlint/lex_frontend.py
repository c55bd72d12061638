"""Lexical fallback frontend for astlint.

Reduces a source file to a FileModel without an AST: comments and strings
are blanked (preserving line breaks), lock events (guard constructions,
direct Lock/Unlock calls, REQUIRES entry conditions) are located by regex,
and a brace-scope walk replays them to find what was held at each
acquisition. Morsel-body and aggregator rules match brace spans over the
same stripped text (the text utilities live in dataflow.py).

The walk understands the repo's idioms:
  * RAII guards (MutexLock, SpinLockGuard, std::lock_guard, ...) hold from
    their declaration to the end of the enclosing brace scope.
  * Direct .Lock()/.Unlock() pairs (TaskGroup's DrainLocked) add/remove by
    canonical lock name, so unlock-run-relock windows hold nothing.
  * REQUIRES(x)/REQUIRES_SHARED(x) on a definition seeds the body scope
    with x already held (CuckooMap's MakeSpace and rehash helpers).
  * A StripePair construction acquires the aliased stripe family once; the
    pair's internal ordered locking shows up as a sanctioned same-rank
    self-edge from the ctor body itself.
try_lock acquisitions are recorded as held but emit no edges: they cannot
block, but a later blocking acquisition under them can.
"""

import re
from pathlib import Path

import dataflow
from dataflow import line_of, match_brace_span, strip_comments_and_strings
from model import (AcquireEdge, AggregatorConstruction, FileModel,
                   GUARD_CLASSES, MorselFlag, STRIPE_GUARD, canon_lock)


# --- Lock-event patterns -----------------------------------------------------

# A member-access chain: `mu`, `locks_[s]`, `state_->mutex`, `map.locks_[s1]`.
RECEIVER = (r"[A-Za-z_]\w*(?:\s*\[[^\]]*\])?"
            r"(?:\s*(?:->|\.)\s*[A-Za-z_]\w*(?:\s*\[[^\]]*\])?)*")

GUARD_RE = re.compile(
    r"\b(?:std::)?(" + "|".join(GUARD_CLASSES) + r")\s*(?:<[^;>{}]*>)?"
    r"\s+\w+\s*[({]([^;)}]*)[)}]")
STRIPE_RE = re.compile(r"\b" + STRIPE_GUARD + r"\s+\w+\s*\(")
DIRECT_LOCK_RE = re.compile(
    rf"\b({RECEIVER})\s*(?:->|\.)\s*(Lock|LockShared|lock)\s*\(\s*\)")
DIRECT_TRY_RE = re.compile(
    rf"\b({RECEIVER})\s*(?:->|\.)\s*(TryLock|try_lock)\s*\(\s*\)")
DIRECT_UNLOCK_RE = re.compile(
    rf"\b({RECEIVER})\s*(?:->|\.)\s*(Unlock|UnlockShared|unlock)\s*\(\s*\)")
REQUIRES_RE = re.compile(r"\b(?:REQUIRES|REQUIRES_SHARED)\s*\(([^)]*)\)")

# Guards that park the calling thread (flagged inside morsel bodies).
# SpinLockGuard and StripePair spin under a bounded protocol and are the
# sanctioned way aggregate state is protected inside morsel bodies.
BLOCKING_GUARDS = tuple(g for g in GUARD_CLASSES if g != "SpinLockGuard")

BLOCKING_GUARD_RE = re.compile(
    r"\b(?:std::)?(" + "|".join(BLOCKING_GUARDS) + r")\s*(?:<[^;>{}]*>)?"
    r"\s+\w+\s*[({]")
BLOCKING_CALL_RE = re.compile(
    rf"\b{RECEIVER}\s*(?:->|\.)\s*(Lock|LockShared)\s*\(")
WAIT_RE = re.compile(rf"\b{RECEIVER}\s*(?:->|\.)\s*Wait\s*\(")
GLOBAL_NEW_RE = re.compile(r"(?<![\w:])new\b(?!\s*\()")
IO_RE = re.compile(
    r"\b(?:printf|fprintf|fopen|fwrite|fputs|puts)\s*\("
    r"|std::(?:cout|cerr)\b|\bofstream\b")
MORSEL_LAMBDA_RE = re.compile(r"\(\s*const\s+Morsel\s*&")
STATS_CALL_RE = re.compile(
    r"StatCounter::|PhaseTimer\b|\bAddPhase\s*\(|\bWorkerShard\s*\(")
FIXED_AGG_CONSTRUCT_RE = re.compile(
    r"(?:std::make_unique\s*<\s*|new\s+)([A-Z]\w*Aggregator)\s*<"
    r"|\b([A-Z]\w*Aggregator)\s*<[\w:<>,\s]*>\s+\w+\s*[({]")


# --- Lock-graph extraction ---------------------------------------------------

def collect_lock_events(stripped, file_name):
    """(events, entry_held): events are (offset, kind, lock_name, lineno)
    with kind in {acquire, try, release}; entry_held maps a body-open brace
    offset to the locks REQUIRES() says are held on entry."""
    events = []

    def add(offset, kind, expr):
        name = canon_lock(expr, file_name)
        if name:
            events.append((offset, kind, name, line_of(stripped, offset)))

    for match in GUARD_RE.finditer(stripped):
        for arg in match.group(2).split(","):
            arg = arg.strip()
            if not arg or arg.startswith("std::"):
                continue  # std::defer_lock and friends.
            add(match.start(), "acquire", arg)
    for match in STRIPE_RE.finditer(stripped):
        add(match.start(), "acquire", "first_")  # Aliased stripe family.
    for match in DIRECT_LOCK_RE.finditer(stripped):
        add(match.start(), "acquire", match.group(1))
    for match in DIRECT_TRY_RE.finditer(stripped):
        add(match.start(), "try", match.group(1))
    for match in DIRECT_UNLOCK_RE.finditer(stripped):
        add(match.start(), "release", match.group(1))

    entry_held = {}
    for match in REQUIRES_RE.finditer(stripped):
        brace = stripped.find("{", match.end())
        if brace == -1:
            continue
        if ";" in stripped[match.end():brace]:
            continue  # Declaration without a body here.
        names = [canon_lock(a.strip(), file_name)
                 for a in match.group(1).split(",") if a.strip()]
        entry_held.setdefault(brace, []).extend(n for n in names if n)
    return events, entry_held


def replay_scopes(stripped, events, entry_held, path):
    """Replays lock events against the brace structure; emits an edge
    held -> acquired for every blocking acquisition made under a held lock.
    Guard acquisitions die with their scope; direct Lock()s die at their
    Unlock() (or, defensively, at scope end)."""
    actions = []
    for i, c in enumerate(stripped):
        if c == "{":
            actions.append((i, 0, "open", None))
        elif c == "}":
            actions.append((i, 0, "close", None))
    for offset, kind, name, lineno in events:
        actions.append((offset, 1, kind, (name, lineno)))
    actions.sort()

    stack = [[]]
    edges = []
    for offset, _, kind, payload in actions:
        if kind == "open":
            stack.append(list(entry_held.get(offset, ())))
        elif kind == "close":
            if len(stack) > 1:
                stack.pop()
        elif kind in ("acquire", "try"):
            name, lineno = payload
            if kind == "acquire":
                for scope in stack:
                    for held in scope:
                        edges.append(AcquireEdge(held, name, path, lineno))
            stack[-1].append(name)
        else:  # release
            name, _ = payload
            for scope in reversed(stack):
                if name in scope:
                    for i in range(len(scope) - 1, -1, -1):
                        if scope[i] == name:
                            del scope[i]
                            break
                    break
    seen = set()
    unique = []
    for edge in edges:
        if edge not in seen:
            seen.add(edge)
            unique.append(edge)
    return unique


# --- Morsel-body and aggregator extraction -----------------------------------

def morsel_body_spans(stripped):
    for match in MORSEL_LAMBDA_RE.finditer(stripped):
        open_brace = stripped.find("{", match.end())
        if open_brace != -1:
            yield open_brace, match_brace_span(stripped, open_brace)


def collect_morsel_flags(stripped, path):
    flags = []
    for begin, end in morsel_body_spans(stripped):
        body_checks = (
            (BLOCKING_GUARD_RE, "blocking-lock",
             lambda m: f"{m.group(1)} acquisition (parks the worker)"),
            (BLOCKING_CALL_RE, "blocking-lock",
             lambda m: f"blocking {m.group(1)}() call"),
            (WAIT_RE, "wait", lambda m: "Wait() on a task group or pool"),
            (GLOBAL_NEW_RE, "global-new",
             lambda m: "allocating `new` (global allocator lock)"),
            (IO_RE, "io", lambda m: "I/O call"),
            (STATS_CALL_RE, "stats", lambda m: "stats recording"),
        )
        for pattern, kind, detail in body_checks:
            for match in pattern.finditer(stripped, begin, end):
                flags.append(MorselFlag(kind, detail(match), path,
                                        line_of(stripped, match.start())))
    return flags


def collect_aggregator_constructions(stripped, path):
    ctors = []
    for match in FIXED_AGG_CONSTRUCT_RE.finditer(stripped):
        name = match.group(1) or match.group(2)
        ctors.append(AggregatorConstruction(name, path,
                                            line_of(stripped, match.start())))
    return ctors


# --- Entry point -------------------------------------------------------------

def extract(path, text):
    """Builds the FileModel for one file. `path` is repo-relative posix."""
    stripped = strip_comments_and_strings(text)
    file_name = Path(path).name
    events, entry_held = collect_lock_events(stripped, file_name)
    file_model = FileModel(
        path=path,
        edges=replay_scopes(stripped, events, entry_held, path),
        morsel_flags=collect_morsel_flags(stripped, path),
        aggregator_constructions=collect_aggregator_constructions(
            stripped, path),
    )
    # Tier-6 facts are extracted by shared lexical code in both frontends
    # (like rank extraction): see dataflow.py.
    return dataflow.extract_into(file_model, text)
