"""Tier-6 dataflow facts for astlint: arena escapes, scheduled-task
captures, and packed-shift widths.

Like rank extraction (model.py), Tier-6 fact extraction is deliberately
*lexical in both frontends*: the facts live in declarative source text
(declarations, capture lists, shift expressions), so both frontends call
the same code here and AST-vs-lex divergence is impossible for Tier 6 by
construction. The parity ctest (astlint.py --parity-test) guards the
Tier 4-5 facts where the frontends genuinely differ.

The engine is intraprocedural with call summaries, run in two phases:

  extract_into(model, text)   per file: discover function definitions
                              (name, qualifier, params, body span) from
                              the stripped text and stash the stripped
                              text for the link phase. Called by BOTH
                              frontends (lex_frontend.extract,
                              ast_frontend.extract_text/extract_repo).

  link(models)                whole-repo: per-function micro-facts (arena
                              declarations, allocation sites, aliases,
                              returns, member stores, Submit/Schedule
                              sites with parsed capture lists, Wait()
                              joins, Reset() calls), then call summaries
                              to a fixpoint, then findings onto each
                              FileModel:
      * returns-allocation summaries: a helper that returns a pointer
        allocated from an Arena&/Arena* parameter taints its call sites'
        results with the argument arena.
      * requires-join summaries: a function that Submit()s to a TaskGroup&
        parameter without joining it transfers the join obligation to its
        call sites (the recursive task-quicksort pattern).

Rule semantics (what gets flagged):

  arena-escape      a pointer allocated from a *function-local* arena
                    (Arena, WorkerArenas slot, or an allocator bound to
                    one) escapes the arena's lifetime: returned, stored
                    into a member / through a pointer-or-reference
                    parameter, captured into an unjoined scheduled task,
                    or used after the arena's Reset()/ResetAll().
                    Member-owned arenas are the owner's contract and are
                    not tracked (that is what WorkerArenas::Lease asserts
                    at runtime).

  morsel-capture    a lambda handed to Submit()/Schedule() captures a
                    named local by reference (&local) but no dominating
                    receiver.Wait() in the same function bounds the task's
                    lifetime, or captures by default reference ([&]) at
                    all: a bare [&] names no local to check, so it is
                    reported whether or not a Wait() follows. Reference
                    *parameters* are caller-owned: a submit to a
                    TaskGroup& parameter becomes a requires-join summary
                    checked at every call site instead of a local finding.
                    Executor::ParallelFor needs no special case: it joins
                    internally, so it carries no summary.

  packed-shift      every spaced shift in src/data/key_codec.*,
                    src/util/encoded_key.h, and src/data/lineitem.* is
                    checked symbolically: amount interval from the
                    width-fact table (grounded on kEncodedKeyBits parsed
                    from util/encoded_key.h: packed plans stay < 64 bits
                    by PackedKeyCodec::TryBuild, dense composites <= 128
                    by DictKeyCodec::Build) with ternary-guard refinement
                    (`x == 64 ? a : (1ULL << x)` excludes 64); operand
                    width from casts, u128 declarations, and literal
                    suffixes (`1 << k` is 32-bit). In lineitem files the
                    effective width is capped at 54: fixed-point cent
                    sums must stay below 2^53 for exact double
                    conversion, so 53 is the last safe shift. A shift
                    whose amount can reach the operand width — or whose
                    amount has no width fact at all — is flagged.
"""

import re
from dataclasses import dataclass, field

from model import ArenaEscape, ShiftSite, TaskCapture

# --- Text utilities (shared by lex_frontend and text_rules) ------------------


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving every
    offset and line break so reported lines match the file."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i > 1 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def match_brace_span(text, open_brace):
    """Offset one past the '}' matching text[open_brace]."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def match_paren_span(text, open_paren):
    """Offset one past the ')' matching text[open_paren]."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def split_top_level(text, sep=","):
    """Splits on top-level `sep`, respecting (), [], {}, and <> pairs."""
    parts, start, depth, angle = [], 0, 0, 0
    for i, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif c == sep and depth == 0 and angle == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def base_ident(expr):
    match = re.search(r"[A-Za-z_]\w*", expr or "")
    return match.group(0) if match else None


# --- Function discovery ------------------------------------------------------

CONTROL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "catch", "return", "else", "do",
    "sizeof", "alignof", "alignas", "decltype", "static_assert", "new",
    "delete", "case", "default", "requires", "noexcept", "throw", "assert",
    "defined", "typedef", "using", "constexpr", "consteval", "constinit",
    "co_await", "co_return", "co_yield",
))
CANDIDATE_RE = re.compile(r"([A-Za-z_][\w:]*)\s*\(")
TRAILER_WORDS = ("const", "noexcept", "override", "final", "mutable",
                 "volatile")


@dataclass
class FuncModel:
    """One function definition's shape, enough for the link phase."""
    name: str            # unqualified (EncodeRow)
    qualifier: str       # enclosing class or A:: prefix ("" for free funcs)
    file: str
    line: int            # of the function name
    body_line: int       # of the body's '{'
    params: tuple        # ((name, type_text), ...)
    body_start: int      # offsets into the stripped file text
    body_end: int
    body: str            # stripped body text


def body_line_of(func, body_offset):
    return func.body_line + func.body[:body_offset].count("\n")


def _class_spans(stripped):
    """[(name, start, end)] for every class/struct body."""
    spans = []
    for match in re.finditer(
            r"\b(?:class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?"
            r"([A-Za-z_]\w*)[^;{}()]*\{", stripped):
        start = match.end() - 1
        spans.append((match.group(1), start, match_brace_span(stripped, start)))
    return spans


def _param_entries(params_text):
    entries = []
    for part in split_top_level(params_text):
        if part in ("void", "...") or part.startswith("..."):
            continue
        head = part.split("=", 1)[0].rstrip()
        match = re.search(r"([A-Za-z_]\w*)$", head)
        if not match:
            continue
        entries.append((match.group(1), head[: match.start()].strip()))
    return entries


def _skip_trailer(stripped, pos):
    """Advances past `const noexcept -> T REQUIRES(x) : init_(a)` between a
    function's ')' and its body '{'. Returns the offset of the body '{', or
    None when this is not a definition."""
    n = len(stripped)
    while pos < n:
        while pos < n and stripped[pos].isspace():
            pos += 1
        if pos >= n:
            return None
        c = stripped[pos]
        if c == "{":
            return pos
        if c in ";,)=.+|^!<?[":
            return None
        if c == ":" and pos + 1 < n and stripped[pos + 1] == ":":
            return None
        if c == ":":
            # Constructor init list. entity{...} braces attach directly to a
            # word character; the body '{' follows a space or ')'.
            pos += 1
            while pos < n:
                c = stripped[pos]
                if c == "(":
                    pos = match_paren_span(stripped, pos)
                elif c == "{":
                    if stripped[pos - 1].isalnum() or stripped[pos - 1] == "_":
                        pos = match_brace_span(stripped, pos)
                    else:
                        return pos
                elif c == ";":
                    return None
                else:
                    pos += 1
            return None
        if c == "-" and pos + 1 < n and stripped[pos + 1] == ">":
            pos += 2
            while pos < n and stripped[pos] not in "{;":
                pos += 1
            continue
        word = re.match(r"[A-Za-z_]\w*", stripped[pos:])
        if word:
            token = word.group(0)
            pos += len(token)
            while pos < n and stripped[pos].isspace():
                pos += 1
            # Annotation macros (REQUIRES(mu), thread-safety attributes)
            # carry parenthesized arguments.
            if pos < n and stripped[pos] == "(" and token not in TRAILER_WORDS:
                if not token.isupper():
                    return None  # `Foo(a) Bar(b)` is not a definition header
                pos = match_paren_span(stripped, pos)
            continue
        if c in "&*":
            pos += 1
            continue
        return None
    return None


def discover_functions(path, stripped):
    """Finds every function definition in one stripped file."""
    classes = _class_spans(stripped)
    functions = []
    seen_bodies = set()
    for match in CANDIDATE_RE.finditer(stripped):
        full_name = match.group(1)
        last = full_name.rsplit("::", 1)[-1]
        if last in CONTROL_KEYWORDS or last.isupper():
            continue
        open_paren = stripped.index("(", match.end() - 1)
        paren_end = match_paren_span(stripped, open_paren)
        body_open = _skip_trailer(stripped, paren_end)
        if body_open is None:
            continue
        body_end = match_brace_span(stripped, body_open)
        if (body_open, body_end) in seen_bodies:
            continue
        seen_bodies.add((body_open, body_end))
        qualifier = full_name.rsplit("::", 1)[0] if "::" in full_name else ""
        if not qualifier:
            enclosing = [c for c in classes if c[1] < match.start() < c[2]]
            if enclosing:
                qualifier = min(enclosing, key=lambda c: c[2] - c[1])[0]
        functions.append(FuncModel(
            name=last, qualifier=qualifier, file=path,
            line=line_of(stripped, match.start()),
            body_line=line_of(stripped, body_open),
            params=tuple(_param_entries(
                stripped[open_paren + 1:paren_end - 1])),
            body_start=body_open, body_end=body_end,
            body=stripped[body_open:body_end]))
    return functions


# --- Expression helpers ------------------------------------------------------


def receiver_before(text, op_start):
    """The member-access chain ending at the `.`/`->` starting at op_start:
    `state_->group`, `pool()`, `arenas_->ForWorker(w)`. Returns (chain
    normalized whitespace-free, base identifier) or (None, None)."""
    i = op_start
    while i > 0 and text[i - 1].isspace():
        i -= 1
    end = i
    while i > 0:
        c = text[i - 1]
        if c in ")]":
            opener = "(" if c == ")" else "["
            depth, k = 0, i - 1
            while k >= 0:
                if text[k] == c:
                    depth += 1
                elif text[k] == opener:
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            if k < 0:
                break
            i = k
        elif c.isalnum() or c == "_":
            while i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
                i -= 1
        else:
            j = i
            while j > 0 and text[j - 1].isspace():
                j -= 1
            if j >= 1 and text[j - 1] == "." and not (
                    j >= 2 and text[j - 2].isdigit()):
                i = j - 1
            elif j >= 2 and text[j - 2:j] == "->":
                i = j - 2
            else:
                break
    chain = re.sub(r"\s+", "", text[i:end])
    if not chain or not re.match(r"[A-Za-z_(]", chain):
        return None, None
    return chain, base_ident(chain)


# --- Per-function micro-facts ------------------------------------------------

ARENA_DECL_RE = re.compile(r"\b(Arena|WorkerArenas)\s+([a-z]\w*)\s*[;({]")
ARENA_ALIAS_RE = re.compile(r"\bArena\s*[&*]\s*(\w+)\s*=\s*&?\s*([^;]+);")
ALLOC_DECL_RE = re.compile(
    r"\b(?:ArenaAllocator|PoolAllocator\s*<[^;{}]*?>)\s+(\w+)\s*"
    r"[({]\s*&\s*([^;)}]+?)\s*[)}]")
ATTACH_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*\.\s*Attach\s*\(\s*&\s*([^;)]+)\)")
ALLOC_CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*"
    r"((?:\.|->)\s*ForWorker\s*\([^()]*\)\s*)?"
    r"(?:\.|->)\s*(New|Allocate|AllocateBytes)\b")
ASSIGN_ALIAS_RE = re.compile(r"\b([A-Za-z_]\w*)\s*=\s*([A-Za-z_]\w*)\s*;")
RETURN_RE = re.compile(r"\breturn\b([^;]*);")
MEMBER_STORE_RE = re.compile(
    r"(?:this\s*->\s*)?\b([A-Za-z_]\w*_)\s*(?:\[[^\]]*\])?\s*=(?!=)([^;]*);")
DEREF_STORE_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:->|\.)\s*[A-Za-z_]\w*\s*=(?!=)([^;]*);")
RESET_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(Reset|ResetAll)\s*\(")
SUBMIT_RE = re.compile(r"(\.|->)\s*(Submit|Schedule)\s*\(")
WAIT_RE = re.compile(r"(\.|->)\s*Wait\s*\(\s*\)")
NAMED_LAMBDA_RE = re.compile(r"\bauto\s+(\w+)\s*=\s*\[")
CALL_RE = re.compile(r"(?<![\w.>:])([A-Za-z_]\w*)\s*\(")

ARENA_PARAM_TYPES = ("Arena", "ArenaAllocator", "WorkerArenas")
GROUP_PARAM_TYPES = ("TaskGroup", "Executor", "TaskScheduler", "ThreadPool")


def _typed_params(func, type_names):
    out = {}
    for idx, (name, type_text) in enumerate(func.params):
        if any(re.search(rf"\b{t}\b", type_text) for t in type_names):
            out[name] = idx
    return out


def _parse_lambda(body, open_bracket):
    """Parses a lambda literal at body[open_bracket] == '['. Returns
    (captures list, offset one past the lambda body) or (None, open)."""
    depth, close = 0, None
    for i in range(open_bracket, len(body)):
        if body[i] == "[":
            depth += 1
        elif body[i] == "]":
            depth -= 1
            if depth == 0:
                close = i
                break
    if close is None:
        return None, open_bracket
    captures = split_top_level(body[open_bracket + 1:close])
    i = close + 1
    while i < len(body) and body[i].isspace():
        i += 1
    if i < len(body) and body[i] == "(":
        i = match_paren_span(body, i)
    while i < len(body) and body[i] not in "{;":
        i += 1
    if i >= len(body) or body[i] == ";":
        return captures, close + 1
    return captures, match_brace_span(body, i)


@dataclass
class SubmitSite:
    offset: int          # into the function body
    line: int
    receiver: str        # normalized chain ("group", "pool()")
    base: str            # first identifier of the chain
    captures: tuple      # capture entries, or None (opaque argument)
    lambda_span: tuple   # (start, end) body offsets, or None


def _submit_sites(func):
    body = func.body
    named = {}
    for match in NAMED_LAMBDA_RE.finditer(body):
        captures, end = _parse_lambda(body, match.end() - 1)
        if captures is not None:
            named[match.group(1)] = (captures, (match.end() - 1, end))
    sites = []
    for match in SUBMIT_RE.finditer(body):
        chain, base = receiver_before(body, match.start())
        if chain is None:
            continue
        arg_open = body.index("(", match.end() - 1)
        i = arg_open + 1
        while i < len(body) and body[i].isspace():
            i += 1
        captures, span = None, None
        if i < len(body) and body[i] == "[":
            captures, end = _parse_lambda(body, i)
            span = (i, end)
        else:
            name = re.match(r"[A-Za-z_]\w*", body[i:])
            if name and name.group(0) in named:
                captures, span = named[name.group(0)]
        sites.append(SubmitSite(
            offset=match.start(), line=body_line_of(func, match.start()),
            receiver=chain, base=base, captures=captures, lambda_span=span))
    return sites


def _join_offsets(func):
    """{normalized receiver chain: [offsets]} of every receiver.Wait()."""
    joins = {}
    for match in WAIT_RE.finditer(func.body):
        chain, _ = receiver_before(func.body, match.start())
        if chain is not None:
            joins.setdefault(chain, []).append(match.start())
    return joins


def _joined_after(joins, receiver, offset):
    return any(o > offset for o in joins.get(receiver, ()))


@dataclass
class FuncFacts:
    """Everything link() needs about one function."""
    func: FuncModel
    arena_locals: dict       # name -> "Arena" | "WorkerArenas"
    arena_params: dict       # name -> param index
    group_params: dict       # name -> param index
    bound: dict              # allocator/alias name -> owning arena name
    submits: list            # [SubmitSite]
    joins: dict              # receiver chain -> [offsets]
    taints: dict             # var -> ("local", arena) | ("param", index)
    calls: list = field(default_factory=list)


def _stmt_start(body, offset):
    return max(body.rfind(";", 0, offset), body.rfind("{", 0, offset),
               body.rfind("}", 0, offset)) + 1


def _initial_facts(func):
    body = func.body
    arena_locals = {m.group(2): m.group(1)
                    for m in ARENA_DECL_RE.finditer(body)}
    arena_params = _typed_params(func, ARENA_PARAM_TYPES)
    group_params = _typed_params(func, GROUP_PARAM_TYPES)

    bound = {}
    for pattern in (ARENA_ALIAS_RE, ALLOC_DECL_RE, ATTACH_RE):
        for match in pattern.finditer(body):
            base = base_ident(match.group(2))
            if base in arena_locals or base in arena_params or base in bound:
                bound[match.group(1)] = bound.get(base, base)

    def resolve_origin(handle):
        base = bound.get(handle, handle)
        if base in arena_locals:
            return ("local", base)
        if base in arena_params:
            return ("param", arena_params[base])
        return None

    taints = {}
    for match in ALLOC_CALL_RE.finditer(body):
        origin = resolve_origin(match.group(1))
        if origin is None:
            continue
        prefix = body[_stmt_start(body, match.start()):match.start()]
        assign = re.search(
            r"([A-Za-z_]\w*)\s*=\s*(?:static_cast\s*<[^>]*>\s*\(\s*)?$",
            prefix)
        if assign:
            taints[assign.group(1)] = origin
        elif re.search(r"\breturn\b[^;=]*$", prefix):
            taints["$return%d" % match.start()] = origin

    for _ in range(2):  # alias chains: q = p;
        for match in ASSIGN_ALIAS_RE.finditer(body):
            lhs, rhs = match.group(1), match.group(2)
            if rhs in taints and lhs not in taints:
                taints[lhs] = taints[rhs]

    return FuncFacts(
        func=func, arena_locals=arena_locals, arena_params=arena_params,
        group_params=group_params, bound=bound, submits=_submit_sites(func),
        joins=_join_offsets(func), taints=taints)


def _collect_calls(func, interesting):
    calls = []
    for match in CALL_RE.finditer(func.body):
        name = match.group(1)
        if name not in interesting:
            continue
        open_paren = func.body.index("(", match.end() - 1)
        end = match_paren_span(func.body, open_paren)
        args = split_top_level(func.body[open_paren + 1:end - 1])
        calls.append((name, args, match.start(),
                      body_line_of(func, match.start())))
    return calls


# --- Packed-shift analysis ---------------------------------------------------

SHIFT_SCOPE = ("src/data/key_codec", "src/util/encoded_key",
               "src/data/lineitem")
# Fixed-point exactness: cent sums must stay below 2^53 (data/lineitem.h),
# so 53 is the widest safe shift and the effective operand width is 54.
FIXED_POINT_WIDTH = 54
KBITS_RE = re.compile(r"\bkEncodedKeyBits\s*=\s*(\d+)")
UNKNOWN = 10 ** 9
SHIFT_OP_RE = re.compile(r"(?<=[\s])(<<|>>)(?=[\s])")
LITERAL_RE = re.compile(r"^(0[xX][0-9a-fA-F]+|\d+)([uUlLzZ]*)$")
AMOUNT_RE = re.compile(r"\s*(\([^()]*\)|[A-Za-z_][\w.>\[\]-]*|\d\w*)")
TERNARY_GUARD_RE = re.compile(r"([\w.]+(?:->[\w.]+)*)\s*==\s*(\d+)\s*\?")


def width_facts(kbits):
    """Interval facts for shift amounts, grounded on kEncodedKeyBits.
    PackedKeyCodec::TryBuild rejects total_bits >= kEncodedKeyBits and every
    field is >= 1 bit, so packed per-field widths lie in [1, kbits-1] and
    the decode cursor in [0, kbits-2]. DictKeyCodec::Build caps composites
    at 2*kEncodedKeyBits and a single u64 column can need a full kbits."""
    packed = kbits - 1
    dense = 2 * kbits
    return {
        "PackedKeyCodec": {
            "bits": (1, packed),        # KeyFieldPlan::bits under TryBuild
            "shift": (0, packed - 1),   # width_bits_ minus a leading field
            "rest_bits": (0, packed - 1),
            "width_bits_": (1, packed),
            "total_bits": (1, packed),
        },
        "DictKeyCodec": {
            "bits": (1, kbits),         # one u64 column may need 64 bits
            "shift": (0, dense - 1),
            "composite_bits_": (1, dense),
            "total_bits": (1, dense),
        },
        "": {
            "kEncodedKeyBits": (kbits, kbits),
        },
    }


def _operand_before(text, op_start):
    """Text of the expression immediately left of the shift operator."""
    i = op_start
    while i > 0 and text[i - 1].isspace():
        i -= 1
    end = i
    while i > 0:
        c = text[i - 1]
        if c in ")>":
            opener = "(" if c == ")" else "<"
            depth, k = 0, i - 1
            while k >= 0:
                if text[k] == c:
                    depth += 1
                elif text[k] == opener:
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            if k < 0:
                break
            i = k
        elif c.isalnum() or c in "_~.]":
            i -= 1
        else:
            break
    return text[i:end].strip()


def _operand_bits(expr, u128_names, kbits):
    flat = re.sub(r"\s+", "", expr)
    if "__int128" in flat:
        return 128
    if "EncodedKey" in flat:
        return kbits
    literal = LITERAL_RE.match(flat.lstrip("~"))
    if literal:
        return 64 if "l" in literal.group(2).lower() else 32
    first = base_ident(flat)
    if first in u128_names:
        return 128
    return 64


def _amount_interval(amount, scope, facts, stmt, shift_pos_in_stmt):
    flat = re.sub(r"\s+", "", amount)
    literal = LITERAL_RE.match(flat)
    if literal:
        value = int(literal.group(1), 0)
        return value, value
    last = flat.rsplit(".", 1)[-1].rsplit("->", 1)[-1]
    interval = facts.get(scope, {}).get(last) or facts[""].get(last)
    if interval is None:
        return 0, UNKNOWN
    lo, hi = interval
    for guard in TERNARY_GUARD_RE.finditer(stmt):
        guard_last = guard.group(1).rsplit(".", 1)[-1].rsplit("->", 1)[-1]
        if guard_last != last or guard.end() > shift_pos_in_stmt:
            continue
        excluded = int(guard.group(2))
        if excluded == hi:
            hi -= 1
        elif excluded == lo:
            lo += 1
    return lo, hi


def analyze_shifts(path, stripped, functions, kbits):
    if not any(tag in path for tag in SHIFT_SCOPE):
        return []
    u128_names = set(re.findall(r"__int128\s+(\w+)", stripped))
    facts = width_facts(kbits)
    sites = []
    for match in SHIFT_OP_RE.finditer(stripped):
        after = stripped[match.end():].lstrip()
        if after[:1] in ("\"", "'"):
            continue  # stream insertion of a (blanked) literal
        operand = _operand_before(stripped, match.start())
        amount_match = AMOUNT_RE.match(stripped, match.end())
        amount = amount_match.group(1).strip() if amount_match else "?"
        if amount.startswith("(") and amount.endswith(")"):
            amount = amount[1:-1].strip()
        scope = ""
        for func in functions:
            if func.body_start <= match.start() < func.body_end:
                scope = func.qualifier
                break
        stmt_start = _stmt_start(stripped, match.start())
        stmt_end = stripped.find(";", match.end())
        stmt_end = len(stripped) if stmt_end == -1 else stmt_end
        bits = _operand_bits(operand, u128_names, kbits)
        if "lineitem" in path:
            bits = min(bits, FIXED_POINT_WIDTH)
        lo, hi = _amount_interval(
            amount, scope, facts, stripped[stmt_start:stmt_end],
            match.start() - stmt_start)
        sites.append(ShiftSite(
            op=match.group(1), operand=operand or "?", operand_bits=bits,
            amount=amount, amount_min=lo, amount_max=hi,
            ok=(hi < bits and lo >= 0),
            file=path, line=line_of(stripped, match.start())))
    return sites


# --- Entry points ------------------------------------------------------------


def extract_into(file_model, text):
    """Per-file phase, called by both frontends: attach function models and
    the stripped text (consumed and dropped by link())."""
    stripped = strip_comments_and_strings(text)
    file_model.functions = discover_functions(file_model.path, stripped)
    kb = KBITS_RE.search(stripped)
    if kb:
        file_model.encoded_key_bits = int(kb.group(1))
    file_model.stripped_text = stripped
    return file_model


def link(models):
    """Whole-repo phase: shift checks, call summaries to a fixpoint, and
    arena-escape / task-capture findings onto each FileModel."""
    kbits = next((m.encoded_key_bits for m in models
                  if getattr(m, "encoded_key_bits", None)), 64)

    facts_list = []
    for model in models:
        stripped = getattr(model, "stripped_text", "")
        functions = getattr(model, "functions", [])
        model.shift_sites = analyze_shifts(
            model.path, stripped, functions, kbits)
        for func in functions:
            facts_list.append(_initial_facts(func))

    # Summary A: functions returning an allocation from an arena parameter.
    returns_alloc = {}   # name -> {param index}
    # Summary B: functions submitting to a TaskGroup& parameter unjoined.
    requires_join = {}   # name -> {param index}
    for facts in facts_list:
        for var, origin in list(facts.taints.items()):
            if origin[0] != "param":
                continue
            if var.startswith("$return"):
                returns_alloc.setdefault(facts.func.name, set()).add(origin[1])
                continue
            for ret in RETURN_RE.finditer(facts.func.body):
                if re.search(rf"\b{re.escape(var)}\b(?!\s*(?:->|\.|\[))",
                             ret.group(1)):
                    returns_alloc.setdefault(
                        facts.func.name, set()).add(origin[1])
        for submit in facts.submits:
            if submit.base in facts.group_params and not _joined_after(
                    facts.joins, submit.receiver, submit.offset):
                requires_join.setdefault(facts.func.name, set()).add(
                    facts.group_params[submit.base])

    # Fixpoint: propagate both summaries through wrappers (a caller that
    # forwards its own parameter inherits the obligation; a caller that
    # assigns the callee's result inherits the taint).
    for _ in range(8):
        changed = False
        interesting = set(returns_alloc) | set(requires_join)
        for facts in facts_list:
            facts.calls = _collect_calls(facts.func, interesting)
            body = facts.func.body
            for callee, args, offset, _line in facts.calls:
                for idx in returns_alloc.get(callee, ()):
                    if idx >= len(args):
                        continue
                    base = base_ident(args[idx])
                    base = facts.bound.get(base, base)
                    origin = None
                    if base in facts.arena_locals:
                        origin = ("local", base)
                    elif base in facts.arena_params:
                        origin = ("param", facts.arena_params[base])
                    if origin is None:
                        continue
                    prefix = body[_stmt_start(body, offset):offset]
                    assign = re.search(r"([A-Za-z_]\w*)\s*=\s*$", prefix)
                    if assign:
                        if facts.taints.get(assign.group(1)) != origin:
                            facts.taints[assign.group(1)] = origin
                            changed = True
                    elif re.search(r"\breturn\b[^;=]*$", prefix):
                        key = "$return%d" % offset
                        if facts.taints.get(key) != origin:
                            facts.taints[key] = origin
                            changed = True
                for idx in requires_join.get(callee, ()):
                    if idx >= len(args):
                        continue
                    base = base_ident(args[idx])
                    if base in facts.group_params:
                        want = requires_join.setdefault(facts.func.name, set())
                        if facts.group_params[base] not in want:
                            want.add(facts.group_params[base])
                            changed = True
        # New $return taints feed summary A for the next round.
        for facts in facts_list:
            for var, origin in facts.taints.items():
                if var.startswith("$return") and origin[0] == "param":
                    have = returns_alloc.setdefault(facts.func.name, set())
                    if origin[1] not in have:
                        have.add(origin[1])
                        changed = True
        if not changed:
            break

    for facts in facts_list:  # re-run aliasing with interprocedural taints
        for _ in range(2):
            for match in ASSIGN_ALIAS_RE.finditer(facts.func.body):
                lhs, rhs = match.group(1), match.group(2)
                if rhs in facts.taints and lhs not in facts.taints:
                    facts.taints[lhs] = facts.taints[rhs]

    findings = {model.path: ([], []) for model in models}
    for facts in facts_list:
        escapes, captures = findings[facts.func.file]
        _arena_findings(facts, escapes)
        _capture_findings(facts, captures, requires_join)
    for model in models:
        escapes, captures = findings[model.path]
        model.arena_escapes = sorted(escapes, key=lambda e: e.line)
        model.task_captures = sorted(captures, key=lambda c: c.line)
        if hasattr(model, "stripped_text"):
            del model.stripped_text
    return models


# --- Findings ----------------------------------------------------------------


def _arena_findings(facts, out):
    func = facts.func
    body = func.body
    local_taints = {var: origin[1] for var, origin in facts.taints.items()
                    if origin[0] == "local" and not var.startswith("$return")}
    return_taints = {var: origin[1] for var, origin in facts.taints.items()
                     if origin[0] == "local" and var.startswith("$return")}

    for var, arena in return_taints.items():
        offset = int(var[len("$return"):])
        out.append(ArenaEscape(
            kind="return", pointer="<temporary>", arena=arena,
            function=func.name, file=func.file,
            line=body_line_of(func, offset),
            detail=f"returns a pointer allocated from local arena "
                   f"'{arena}'"))

    # `return row` escapes the pointer; `return row->value` copies a value
    # out through it — only bare (underef'd) mentions count for return and
    # store sinks.
    def bare(var):
        return rf"\b{re.escape(var)}\b(?!\s*(?:->|\.|\[))"

    for match in RETURN_RE.finditer(body):
        for var, arena in local_taints.items():
            if re.search(bare(var), match.group(1)):
                out.append(ArenaEscape(
                    kind="return", pointer=var, arena=arena,
                    function=func.name, file=func.file,
                    line=body_line_of(func, match.start()),
                    detail=f"returns '{var}', allocated from local arena "
                           f"'{arena}'"))

    param_ptr_refs = {name for name, type_text in func.params
                      if "*" in type_text or "&" in type_text}
    for pattern, describe in (
            (MEMBER_STORE_RE, lambda m: f"stores into member '{m.group(1)}'"),
            (DEREF_STORE_RE,
             lambda m: f"stores through parameter '{m.group(1)}'")):
        for match in pattern.finditer(body):
            if pattern is DEREF_STORE_RE and \
                    match.group(1) not in param_ptr_refs:
                continue
            for var, arena in local_taints.items():
                if re.search(bare(var), match.group(2)):
                    out.append(ArenaEscape(
                        kind="store", pointer=var, arena=arena,
                        function=func.name, file=func.file,
                        line=body_line_of(func, match.start()),
                        detail=f"{describe(match)} '{var}', allocated from "
                               f"local arena '{arena}'"))

    for submit in facts.submits:
        if submit.lambda_span is None:
            continue
        if _joined_after(facts.joins, submit.receiver, submit.offset):
            continue  # the Wait() precedes the local arena's destruction
        lam = body[submit.lambda_span[0]:submit.lambda_span[1]]
        for var, arena in local_taints.items():
            if re.search(rf"\b{re.escape(var)}\b", lam):
                out.append(ArenaEscape(
                    kind="task-capture", pointer=var, arena=arena,
                    function=func.name, file=func.file, line=submit.line,
                    detail=f"captures '{var}' (allocated from local arena "
                           f"'{arena}') into an unjoined scheduled task"))

    param_names = {idx: name for name, idx in facts.arena_params.items()}
    for match in RESET_RE.finditer(body):
        target = facts.bound.get(match.group(1), match.group(1))
        if target not in facts.arena_locals and \
                target not in facts.arena_params:
            continue
        for var, origin in facts.taints.items():
            if var.startswith("$return"):
                continue
            owner = origin[1] if origin[0] == "local" \
                else param_names.get(origin[1])
            if owner != target:
                continue
            for use in re.finditer(rf"\b{re.escape(var)}\b",
                                   body[match.end():]):
                tail = body[match.end() + use.end():]
                if re.match(r"\s*=[^=]", tail):
                    break  # reassigned: the stale pointer dies here
                out.append(ArenaEscape(
                    kind="use-after-reset", pointer=var, arena=target,
                    function=func.name, file=func.file,
                    line=body_line_of(func, match.end() + use.start()),
                    detail=f"uses '{var}' after '{target}' was "
                           f"{match.group(2)}()"))
                break


UNJOINED = (" — the task can outlive the captured frame; join with Wait() "
            "before the scope ends or capture by value")


def _capture_findings(facts, out, requires_join):
    func = facts.func
    param_names = {name for name, _ in func.params}
    for submit in facts.submits:
        if submit.captures is None:
            continue
        joined = _joined_after(facts.joins, submit.receiver, submit.offset)
        receiver_is_param = submit.base in facts.group_params
        for entry in submit.captures:
            if entry == "&":
                out.append(TaskCapture(
                    variable="[&]", receiver=submit.receiver,
                    function=func.name, file=func.file, line=submit.line,
                    detail="default [&] capture in a scheduled task — name "
                           "every captured local (each is then checked "
                           "against a dominating Wait()) or capture by "
                           "value"))
                continue
            if joined or not entry.startswith("&"):
                continue  # joined, by-value or this: lifetime-safe here
            name = base_ident(entry.split("=", 1)[0])
            if name is None:
                continue
            is_param = name in param_names
            if is_param and receiver_is_param:
                # Caller-owned on both sides: the requires-join summary
                # checks the call sites instead.
                continue
            out.append(TaskCapture(
                variable=f"&{name}", receiver=submit.receiver,
                function=func.name, file=func.file, line=submit.line,
                detail=f"captures {'parameter' if is_param else 'local'} "
                       f"'{name}' by reference into a scheduled task with "
                       "no dominating Wait() in this scope" + UNJOINED))

    # Call sites of requires-join functions: the argument group must be
    # joined later in this scope, or be our own parameter (in which case
    # the obligation propagated during the fixpoint), or be the recursive
    # self-call whose root call site owns the join.
    for callee, args, offset, line in facts.calls:
        if callee == facts.func.name:
            continue
        for idx in requires_join.get(callee, ()):
            if idx >= len(args):
                continue
            base = base_ident(args[idx])
            if base is None or base in facts.group_params:
                continue
            joined = any(
                _joined_after(facts.joins, chain, offset)
                for chain in facts.joins if base_ident(chain) == base)
            if not joined:
                out.append(TaskCapture(
                    variable=base, receiver=f"{callee}()",
                    function=func.name, file=func.file, line=line,
                    detail=f"'{callee}' submits tasks to '{base}' "
                           f"(requires-join summary) but no {base}.Wait() "
                           "follows in this scope" + UNJOINED))
