"""Text rules: repo invariants read straight off the source text.

These rules need no model of the code, only its text with comments and
string literals blanked. astlint.py runs them over the repo walk, outside
either frontend, so `--mode=lex` and `--mode=ast` run the same code and the
frontends agree on them by construction.

  raw-thread              std::thread is constructed only under src/exec/
                          (the morsel-driven execution layer owns every
                          thread; everything else submits to TaskGroup or
                          Executor). std::thread::hardware_concurrency and
                          std::this_thread are fine anywhere.
  libc-rand               rand()/srand()/std::rand share hidden global state
                          across threads and wreck benchmark
                          reproducibility: use util/rng.h (Rng).
  unguarded-global        a mutable namespace-scope global under src/ (g_
                          prefix, or an extern declaration of one) is
                          std::atomic, const, or GUARDED_BY-annotated, or
                          carries a waiver saying why it is safe.
  include-guard           src/ headers guard with a macro derived from their
                          path: src/hash/cuckoo_map.h guards with
                          MEMAGG_HASH_CUCKOO_MAP_H_.
  raw-node-alloc          node structures (src/hash/, src/tree/) allocate
                          through their Alloc policy (mem/allocator.h), never
                          raw new/delete or ::operator new/delete, or the
                          arena ablation measures the wrong allocator.
                          Placement new and `= delete`d members are fine.
  raw-simd-intrinsic      x86 vector intrinsics (_mm*_*, __m128/256/512)
                          appear only under src/util/simd*: every other file
                          goes through the SimdOps lanes, so each vector
                          kernel has a ScalarOps twin that the
                          lane-equivalence suite checks and that a build
                          without SSE2 runs.
  raw-key-type            key-typed declarations in the key-consuming layers
                          (src/hash/, src/tree/, src/core/, bench/) use the
                          EncodedKey alias (util/encoded_key.h), not raw
                          `uint64_t key`: the alias is the one place the
                          encoded key width is defined. Derived names
                          (key_count, keys) and other uint64_t values are
                          fine.
  unconstrained-typename  src/core/ headers declare no bare `template
                          <typename X>`/`<class X>` parameter: every
                          pluggable role of the operator layer has a named
                          contract (core/concepts.h, mem/allocator.h,
                          util/tracer.h). Concept definitions,
                          core/concepts.h itself, non-type parameters and
                          the inner `<typename>` of a template-template
                          parameter are exempt.
  include-layering        a quoted `#include "module/..."` under src/ reaches
                          only the modules MODULE_DEPS allows, so lower
                          layers never see the operator layer. bench/,
                          tests/ and examples/ may include any module.

The walk covers src/, bench/, examples/ and tests/. Tests spawn raw
std::thread to hammer the concurrent structures from outside the execution
layer, and the other rules are about the library's own structure, so only
libc-rand and raw-simd-intrinsic reach tests/.
"""

import re

from dataflow import line_of, strip_comments_and_strings

SCAN_DIRS = ("src", "bench", "examples", "tests")
LIBRARY_DIRS = ("src", "bench", "examples")

# module -> the modules its files may include from (besides itself). Keep in
# sync with the DAG diagram in docs/static_analysis.md.
MODULE_DEPS = {
    "util": set(),
    "mem": {"util"},
    "obs": {"util", "mem"},
    "exec": {"util", "mem", "obs"},
    "data": {"util"},
    "sort": {"util", "mem", "obs", "exec"},
    "hash": {"util", "mem", "obs", "exec", "sort"},
    "tree": {"util", "mem", "obs", "exec", "sort"},
    "core": {"util", "mem", "obs", "exec", "data", "sort", "hash", "tree"},
    "sim": {"util", "mem", "obs", "exec", "data", "sort", "hash", "tree",
            "core"},
}


def _hits(pattern, stripped):
    """(line, match) for every match of `pattern` in the stripped text."""
    for match in pattern.finditer(stripped):
        yield line_of(stripped, match.start()), match


RAW_THREAD_RE = re.compile(r"(?<![\w:])std::thread\b(?!\s*::)")


def raw_thread(path, stripped, _text):
    if path.startswith("src/exec/"):
        return
    for line, _ in _hits(RAW_THREAD_RE, stripped):
        yield line, ("std::thread outside src/exec/ — submit work through "
                     "TaskGroup/Executor instead")


LIBC_RAND_RE = re.compile(r"(?<![\w:])(?:std::)?s?rand\s*\(")


def libc_rand(_path, stripped, _text):
    for line, _ in _hits(LIBC_RAND_RE, stripped):
        yield line, "rand()/srand() share hidden global state — use util/rng.h"


GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:extern\s+)?[A-Za-z_][\w:]*[\w:<>,\s*&]*[*&\s]g_\w+\s*[=;{]")
GUARDED_GLOBAL_RE = re.compile(
    r"\bconst\b|\bconstexpr\b|std::atomic|GUARDED_BY")


def unguarded_global(path, stripped, _text):
    if not path.startswith("src/"):
        return
    for line, text in enumerate(stripped.splitlines(), start=1):
        if GLOBAL_DECL_RE.match(text) and not GUARDED_GLOBAL_RE.search(text):
            yield line, ("mutable global without std::atomic/const/"
                         "GUARDED_BY — annotate it or waive with a reason")


def include_guard(path, stripped, _text):
    if not (path.startswith("src/") and path.endswith(".h")):
        return
    want = "MEMAGG_" + re.sub(r"[^A-Za-z0-9]", "_",
                              path[len("src/"):]).upper() + "_"
    ifndef = re.search(r"^#ifndef\s+(\S+)", stripped, re.MULTILINE)
    if ifndef is None:
        yield 1, f"missing include guard (expected {want})"
    elif ifndef.group(1) != want:
        yield (line_of(stripped, ifndef.start()),
               f"include guard {ifndef.group(1)} does not match path "
               f"(expected {want})")
    elif not re.search(rf"^#define\s+{re.escape(want)}\s*$", stripped,
                       re.MULTILINE):
        yield (line_of(stripped, ifndef.start()),
               f"#ifndef {want} has no matching #define")


# Allocating `new` (not placement `new (addr)`) and any `delete` that is not
# an `= delete`d member. ::operator new/delete is matched separately because
# `operator new(bytes)` looks like placement syntax to the first pattern.
RAW_NEW_RE = re.compile(r"(?<![\w:])new\b(?!\s*\()")
RAW_DELETE_RE = re.compile(r"(?<![\w:])delete\b")
RAW_OPERATOR_ALLOC_RE = re.compile(r"\boperator\s+(?:new|delete)\b")


def raw_node_alloc(path, stripped, _text):
    if not path.startswith(("src/hash/", "src/tree/")):
        return
    message = ("raw new/delete in a node-based structure — allocate through "
               "the Alloc policy (mem/allocator.h) so the arena ablation "
               "stays honest")
    for line, match in _hits(RAW_NEW_RE, stripped):
        if stripped[:match.start()].rstrip().endswith("operator"):
            continue  # Reported by RAW_OPERATOR_ALLOC_RE below.
        line_start = stripped.rfind("\n", 0, match.start()) + 1
        if stripped[line_start:match.start()].lstrip().startswith("#"):
            continue  # `#include <new>` and friends.
        yield line, message
    for line, match in _hits(RAW_DELETE_RE, stripped):
        before = stripped[:match.start()].rstrip()
        if before.endswith("=") or before.endswith("operator"):
            continue  # `= delete`d member / reported below.
        yield line, message
    for line, _ in _hits(RAW_OPERATOR_ALLOC_RE, stripped):
        yield line, message


RAW_SIMD_RE = re.compile(r"\b(?:_mm\d*_\w+|__m(?:128|256|512)\w*)\b")


def raw_simd_intrinsic(path, stripped, _text):
    if path.startswith("src/util/simd"):
        return
    for line, match in _hits(RAW_SIMD_RE, stripped):
        yield line, (f"raw vector intrinsic {match.group(0)} outside "
                     "src/util/simd* — add a kernel to the SimdOps lanes so "
                     "the scalar oracle covers it")


RAW_KEY_TYPE_RE = re.compile(r"\buint64_t\s+key_?\b")


def raw_key_type(path, stripped, _text):
    if not path.startswith(("src/hash/", "src/tree/", "src/core/", "bench/")):
        return
    for line, _ in _hits(RAW_KEY_TYPE_RE, stripped):
        yield line, ("raw `uint64_t key` in a key-consuming layer — use "
                     "EncodedKey (util/encoded_key.h) so the encoded key "
                     "width stays defined in one place")


TEMPLATE_INTRO_RE = re.compile(r"\btemplate\s*<")
TYPE_PARAM_RE = re.compile(r"^\s*(typename|class)\b")


def split_template_params(stripped, open_angle):
    """Splits the template parameter list opening at stripped[open_angle]
    ('<') into top-level parameters. Returns (params, end_offset), each param
    a (text, start_offset) pair, or (None, open_angle) if unbalanced. Tracks
    <> and () depth so template-template parameters and defaults like
    `KeyOf = PairFirstKey` with nested angles stay one parameter."""
    params = []
    depth_angle, depth_paren = 1, 0
    start = open_angle + 1
    for i in range(start, len(stripped)):
        c = stripped[i]
        if c == "<":
            depth_angle += 1
        elif c == ">":
            depth_angle -= 1
            if depth_angle == 0:
                params.append((stripped[start:i], start))
                return params, i
        elif c == "(":
            depth_paren += 1
        elif c == ")":
            depth_paren -= 1
        elif c == "," and depth_angle == 1 and depth_paren == 0:
            params.append((stripped[start:i], start))
            start = i + 1
    return None, open_angle


def unconstrained_typename(path, stripped, _text):
    if not (path.startswith("src/core/") and path.endswith(".h")):
        return
    if path.endswith("/concepts.h"):
        return  # The vocabulary itself is built from bare typenames.
    consumed_until = 0
    for match in TEMPLATE_INTRO_RE.finditer(stripped):
        if match.start() < consumed_until:
            continue  # Inner `template <typename>` of a template-template.
        open_angle = stripped.index("<", match.start())
        params, end = split_template_params(stripped, open_angle)
        consumed_until = end
        if params is None:
            continue
        # A concept definition's parameters are the thing being constrained.
        if stripped[end + 1:end + 40].lstrip().startswith("concept"):
            continue
        for text, offset in params:
            if TYPE_PARAM_RE.match(text):
                yield (line_of(stripped, offset + len(text) -
                               len(text.lstrip())),
                       "bare typename/class template parameter in a core "
                       "header — constrain it with a concept "
                       "(core/concepts.h) or waive with a reason")


# The path of a quoted include is blanked in the stripped text, so the
# directive is found there (never inside a comment) and its path is read
# from the source at the same offsets: stripping preserves every offset.
INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"', re.MULTILINE)


def include_layering(path, stripped, text):
    parts = path.split("/")
    module = parts[1] if len(parts) > 2 else None  # src/<module>/...
    if module not in MODULE_DEPS:
        return
    for line, match in _hits(INCLUDE_RE, stripped):
        target = text[match.end():text.find('"', match.end())]
        dep = target.split("/", 1)[0]
        if dep in MODULE_DEPS and dep != module and \
                dep not in MODULE_DEPS[module]:
            yield line, (f"back-edge: module '{module}' may not include "
                         f"'{dep}' (saw #include \"{target}\") — see "
                         "MODULE_DEPS in tools/astlint/text_rules.py")


def unordered_modules():
    """The modules MODULE_DEPS cannot order, each on or above a cycle; empty
    when the table is a DAG. With an acyclic table every include cycle has a
    disallowed edge, which include-layering reports, so no pass over the
    include graph itself is needed."""
    remaining = {m: set(deps) for m, deps in MODULE_DEPS.items()}
    while True:
        leaves = {m for m, deps in remaining.items()
                  if not deps & remaining.keys()}
        if not leaves:
            return sorted(remaining)
        for leaf in leaves:
            del remaining[leaf]


# (rule, top-level directories it scans, check). A check yields (line,
# message) for the stripped text of one file; include-layering also reads
# the unstripped text.
RULES = (
    ("raw-thread", LIBRARY_DIRS, raw_thread),
    ("libc-rand", SCAN_DIRS, libc_rand),
    ("unguarded-global", LIBRARY_DIRS, unguarded_global),
    ("include-guard", LIBRARY_DIRS, include_guard),
    ("raw-node-alloc", LIBRARY_DIRS, raw_node_alloc),
    ("raw-simd-intrinsic", SCAN_DIRS, raw_simd_intrinsic),
    ("raw-key-type", LIBRARY_DIRS, raw_key_type),
    ("unconstrained-typename", LIBRARY_DIRS, unconstrained_typename),
    ("include-layering", ("src",), include_layering),
)


def scan(path, text):
    """Every text rule's raw (pre-waiver) hits on one file, as (line, rule,
    message) triples. `path` is repo-relative posix (or a fixture's pretend
    path)."""
    top = path.split("/", 1)[0]
    stripped = strip_comments_and_strings(text)
    return [(line, rule, message)
            for rule, dirs, check in RULES if top in dirs
            for line, message in check(path, stripped, text)]
