#!/usr/bin/env python3
"""Repo-specific lint rules for ADA-HEALTH that clang-tidy cannot express.

Usage:
    tools/ada_lint.py [--list-rules] [paths...]

With no paths, lints src/, tests/, bench/, tools/, and examples/
relative to the repo root
(the parent of this script's directory). Paths may be files or
directories; only .h/.cc/.cpp files are considered. Exit status is 0
when the tree is clean and 1 when any finding is reported.

Rules
-----
  include-guard     Headers use #ifndef/#define guards named
                    ADAHEALTH_<PATH>_H_, where <PATH> is the file path
                    uppercased with separators and dots as underscores.
                    Library headers drop the leading src/ (the include
                    root): src/kdb/query.h -> ADAHEALTH_KDB_QUERY_H_,
                    tests/test_util.h -> ADAHEALTH_TESTS_TEST_UTIL_H_.
  naked-new         No naked `new` / `malloc` family outside src/common/.
                    Library code owns memory through containers and
                    std::make_unique; the two sanctioned leaky singletons
                    live in common/.
  stdout-in-lib     No std::cout / std::cerr / printf in library code
                    (src/ outside src/common/): libraries must log
                    through common/logging (ADA_LOG) so severity and
                    filtering stay uniform. Tests, benches, examples and
                    tools may print.
  check-in-dataset  ADA_CHECK* in src/dataset/ must carry an "invariant"
                    justification (a comment containing the word
                    `invariant` on the same line or within the five
                    lines above). dataset/ is the input-parsing layer:
                    conditions derived from user input must return
                    Status, and every remaining CHECK must document why
                    it is a programmer invariant instead.
  direct-random     No #include <random> or std:: random engines outside
                    src/common/rng: all randomness flows through
                    common/rng so runs stay seed-reproducible.
  catch-swallow     A bare `catch (...)` must log (ADA_LOG) or rethrow
                    inside its body. Silently swallowing unknown
                    exceptions hides real failures from the resilience
                    layer, which relies on failures being observable to
                    degrade gracefully.
  raw-socket        Raw fd syscalls — socket()/accept()/close()/
                    connect()/bind()/listen()/send()/recv()/
                    setsockopt()/shutdown() — are allowed only in the
                    src/service/net_* wrappers. Everything else
                    (router and replication included) must hold
                    descriptors through service::FileDescriptor /
                    ServerSocket / LineReader and move bytes through
                    SendAll / ConnectLoopback / SetRecvTimeout, so no
                    error path can leak or double-close an fd.
  simd-intrinsics   x86 vector intrinsics — the <*intrin.h> header
                    family, _mm*/_mm256*/_mm512* calls and __m128/__m256/
                    __m512 vector types — are banned everywhere. The
                    distance kernels are portable scalar loops with one
                    code path on every target; an ISA-specific kernel
                    would bring back a dispatch layer whose measured
                    end-to-end effect was within noise.
  service-file-io   Direct file I/O — the fopen/fwrite/fread/fflush/
                    fsync/ftruncate/truncate/rename/unlink call family
                    and the <fstream>/<filesystem> includes — is allowed
                    in src/service/ only inside cohort_store.cc, the
                    streaming cohort store's crash-safe persistence
                    module. Every other service-layer component persists
                    through the K-DB storage layer (as the result cache
                    does), and the cohort store's manifest goes through
                    kdb::AtomicWriteFile, so the atomic-rename
                    discipline lives in one audited place.
  raw-mutex         std::mutex / std::lock_guard / std::unique_lock /
                    std::condition_variable (and their scoped/shared/
                    timed variants, plus the <mutex>,
                    <condition_variable> and <shared_mutex> includes)
                    are allowed only inside src/common/sync.h/.cc.
                    Everything else locks through common::Mutex /
                    MutexLock / CondVar so Clang's thread-safety
                    analysis (the ADA_THREAD_SAFETY build gate) sees
                    every critical section; one raw lock is a silent
                    hole in the compile-time race check.
  test-only-api     A function declared at namespace scope, or a member
                    function declared in a class or struct body, in a
                    src/**/*.h whose name, outside tests/, appears only
                    where a function of that name is declared or
                    defined: code that only its own unit test reaches.
                    Constructors, destructors, operators and overrides
                    are never flagged (an override's declaration still
                    counts as a declaration of the name, not a use).
                    Callers are always read from src/, tools/, bench/,
                    examples/ and perfbench/ under the repo root,
                    whatever paths are given (perfbench/ is only read).
                    The waiver goes in the comment block above the
                    declaration and must state why the function stays:
                    `// ada-lint: allow(test-only-api): reference ...`
                    for a reference implementation that tests check the
                    real code against, or `...: test hook ...` for an
                    API that exists for tests to drive the system.
                    tools/test_ada_lint.py tests the rule on fixture
                    trees.

An individual finding can be waived with a trailing comment
`// ada-lint: allow(<rule>)` on the offending line (for test-only-api,
as described above); use sparingly and say why next to it.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")

ALLOW_RE = re.compile(r"ada-lint:\s*allow\(([a-z-]+)\)")

NAKED_NEW_RE = re.compile(r"\bnew\b\s*(\(|[A-Za-z_:<])")
MALLOC_RE = re.compile(r"\b(malloc|calloc|realloc|free)\s*\(")
STDOUT_RE = re.compile(r"std::cout|std::cerr|\bstd::printf\s*\(|(?<![\w:])printf\s*\(")
CHECK_RE = re.compile(r"\bADA_CHECK(_MSG|_EQ|_NE|_LT|_LE|_GT|_GE|_OK)?\s*\(")
RANDOM_INCLUDE_RE = re.compile(r"#\s*include\s*<random>")
RANDOM_ENGINE_RE = re.compile(
    r"std::(mt19937(_64)?|minstd_rand0?|random_device|"
    r"(uniform_(int|real)|normal|bernoulli|poisson)_distribution)\b")
INVARIANT_RE = re.compile(r"invariant", re.IGNORECASE)
CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
CATCH_HANDLED_RE = re.compile(r"\bthrow\b|ADA_LOG")
# A call to socket/accept/close that is not a member access
# (`fd.close(`), a longer identifier (`fclose(`), or a pointer call
# (`->close(`). `::close(` deliberately matches: the global-namespace
# qualifier is exactly the raw-syscall spelling this rule polices.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w.>])(socket|accept|close|connect|bind|listen"
    r"|send|recv|setsockopt|shutdown)\s*\(")
FILE_IO_CALL_RE = re.compile(
    r"(?<![\w.>])(fopen|fwrite|fread|fflush|fsync|ftruncate|truncate"
    r"|rename|unlink|mkdir|rmdir)\s*\(")
FILE_IO_INCLUDE_RE = re.compile(r"#\s*include\s*<(fstream|filesystem)>")
RAW_MUTEX_RE = re.compile(
    r"std::(recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|mutex|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock|condition_variable_any|condition_variable)\b")
MUTEX_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>")
SIMD_INCLUDE_RE = re.compile(
    r"#\s*include\s*<((imm|x86|xmm|emm|pmm|tmm|smm|nmm|wmm|avx[\w]*)intrin"
    r"\.h)>")
SIMD_TOKEN_RE = re.compile(r"\b(_mm(256|512)?_\w+|__m(128|256|512)[di]?)\b")

BLOCK_COMMENT_OPEN_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def strip_strings_and_comments(line, in_block_comment):
    """Returns (code-only text, still_in_block_comment).

    Good enough for lint purposes: removes string/char literals, //
    comments and /* */ comments from one line, tracking multi-line block
    comments via `in_block_comment`.
    """
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(quote + quote)  # Keep an empty literal as a token.
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


def expected_guard(rel_path):
    parts = rel_path.split(os.sep)
    if parts[0] == "src":
        parts = parts[1:]  # src/ is the include root.
    token = "_".join(parts)
    token = re.sub(r"[^A-Za-z0-9]", "_", token)
    return "ADAHEALTH_" + token.upper() + "_"


def catch_body_handles(code_lines, catch_index):
    """True when the `catch (...)` starting at code_lines[catch_index]
    has a body containing a throw or an ADA_LOG call.

    The body is delimited by brace counting from the first `{` at or
    after the catch; an unclosed block (EOF) is treated as handled to
    avoid false positives on pathological input.
    """
    depth = 0
    opened = False
    for line in code_lines[catch_index:]:
        for c in line:
            if c == "{":
                depth += 1
                opened = True
            elif c == "}" and opened:
                depth -= 1
        if opened and CATCH_HANDLED_RE.search(line):
            return True
        if opened and depth <= 0:
            return False
    return True


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def lint_file(path, rel_path):
    findings = []
    try:
        raw_lines, code_lines = read_code_lines(path)
    except OSError as error:
        findings.append(Finding(rel_path, 0, "io", f"cannot read: {error}"))
        return findings

    in_src = rel_path.startswith("src" + os.sep)
    in_common = rel_path.startswith(os.path.join("src", "common") + os.sep)
    in_dataset = rel_path.startswith(os.path.join("src", "dataset") + os.sep)
    is_rng = rel_path in (os.path.join("src", "common", "rng.h"),
                          os.path.join("src", "common", "rng.cc"))
    is_net_wrapper = rel_path.startswith(
        os.path.join("src", "service", "net_"))
    is_sync = rel_path in (os.path.join("src", "common", "sync.h"),
                           os.path.join("src", "common", "sync.cc"))
    in_service = rel_path.startswith(
        os.path.join("src", "service") + os.sep)
    is_cohort_store = rel_path == os.path.join(
        "src", "service", "cohort_store.cc")

    def allowed(lineno, rule):
        m = ALLOW_RE.search(raw_lines[lineno - 1])
        return m is not None and m.group(1) == rule

    # --- include-guard ---------------------------------------------------
    if rel_path.endswith(".h"):
        guard = expected_guard(rel_path)
        ifndef = f"#ifndef {guard}"
        define = f"#define {guard}"
        stripped = [ln.strip() for ln in raw_lines]
        if ifndef not in stripped:
            findings.append(Finding(rel_path, 1, "include-guard",
                                    f"missing or misnamed guard; expected "
                                    f"`{ifndef}`"))
        elif define not in stripped:
            findings.append(Finding(rel_path, 1, "include-guard",
                                    f"`{ifndef}` without matching "
                                    f"`{define}`"))

    for lineno, code in enumerate(code_lines, start=1):
        if not code.strip():
            continue

        # --- naked-new ---------------------------------------------------
        if in_src and not in_common:
            if NAKED_NEW_RE.search(code) and not allowed(lineno, "naked-new"):
                findings.append(Finding(
                    rel_path, lineno, "naked-new",
                    "naked `new` outside src/common/; use containers or "
                    "std::make_unique"))
            m = MALLOC_RE.search(code)
            if m and not allowed(lineno, "naked-new"):
                findings.append(Finding(
                    rel_path, lineno, "naked-new",
                    f"`{m.group(1)}` outside src/common/; use C++ "
                    "ownership types"))

        # --- stdout-in-lib ----------------------------------------------
        if in_src and not in_common:
            if STDOUT_RE.search(code) and not allowed(lineno, "stdout-in-lib"):
                findings.append(Finding(
                    rel_path, lineno, "stdout-in-lib",
                    "stdout/stderr printing in library code; use ADA_LOG "
                    "from common/logging.h"))

        # --- check-in-dataset -------------------------------------------
        if in_dataset and CHECK_RE.search(code):
            window = raw_lines[max(0, lineno - 6):lineno]
            if (not any(INVARIANT_RE.search(w) for w in window)
                    and not allowed(lineno, "check-in-dataset")):
                findings.append(Finding(
                    rel_path, lineno, "check-in-dataset",
                    "ADA_CHECK in dataset/ without an `invariant` "
                    "justification comment; user-input-derived conditions "
                    "must return Status instead of aborting"))

        # --- catch-swallow ----------------------------------------------
        if CATCH_ALL_RE.search(code) and not allowed(lineno, "catch-swallow"):
            if not catch_body_handles(code_lines, lineno - 1):
                findings.append(Finding(
                    rel_path, lineno, "catch-swallow",
                    "`catch (...)` without ADA_LOG or rethrow in its "
                    "body; swallowed exceptions are invisible to the "
                    "resilience layer"))

        # --- raw-socket -------------------------------------------------
        if not is_net_wrapper:
            m = RAW_SOCKET_RE.search(code)
            if m and not allowed(lineno, "raw-socket"):
                findings.append(Finding(
                    rel_path, lineno, "raw-socket",
                    f"raw `{m.group(1)}()` outside src/service/net_*; "
                    "hold fds through service::FileDescriptor and the "
                    "socket wrappers"))

        # --- service-file-io --------------------------------------------
        if in_service and not is_cohort_store:
            m = FILE_IO_CALL_RE.search(code)
            if m and not allowed(lineno, "service-file-io"):
                findings.append(Finding(
                    rel_path, lineno, "service-file-io",
                    f"direct `{m.group(1)}()` in src/service/ outside "
                    "cohort_store.cc; service-layer persistence goes "
                    "through the K-DB storage layer or the cohort store"))
            m = FILE_IO_INCLUDE_RE.search(code)
            if m and not allowed(lineno, "service-file-io"):
                findings.append(Finding(
                    rel_path, lineno, "service-file-io",
                    f"#include <{m.group(1)}> in src/service/ outside "
                    "cohort_store.cc; service-layer persistence goes "
                    "through the K-DB storage layer or the cohort store"))

        # --- raw-mutex ---------------------------------------------------
        if not is_sync:
            m = RAW_MUTEX_RE.search(code)
            if m and not allowed(lineno, "raw-mutex"):
                findings.append(Finding(
                    rel_path, lineno, "raw-mutex",
                    f"raw `std::{m.group(1)}` outside common/sync; use "
                    "common::Mutex / MutexLock / CondVar so the "
                    "thread-safety analysis sees the lock"))
            m = MUTEX_INCLUDE_RE.search(code)
            if m and not allowed(lineno, "raw-mutex"):
                findings.append(Finding(
                    rel_path, lineno, "raw-mutex",
                    f"#include <{m.group(1)}> outside common/sync; "
                    "include common/sync.h instead"))

        # --- simd-intrinsics --------------------------------------------
        m = SIMD_INCLUDE_RE.search(code)
        if m and not allowed(lineno, "simd-intrinsics"):
            findings.append(Finding(
                rel_path, lineno, "simd-intrinsics",
                f"#include <{m.group(1)}>: x86 intrinsics are banned; "
                "write the kernel as a portable scalar loop"))
        m = SIMD_TOKEN_RE.search(code)
        if m and not allowed(lineno, "simd-intrinsics"):
            findings.append(Finding(
                rel_path, lineno, "simd-intrinsics",
                f"intrinsic `{m.group(1)}`: x86 intrinsics are banned; "
                "write the kernel as a portable scalar loop"))

        # --- direct-random ----------------------------------------------
        if not is_rng:
            if (RANDOM_INCLUDE_RE.search(code)
                    and not allowed(lineno, "direct-random")):
                findings.append(Finding(
                    rel_path, lineno, "direct-random",
                    "#include <random> outside common/rng; use "
                    "common::Rng for seed-reproducible randomness"))
            m = RANDOM_ENGINE_RE.search(code)
            if m and not allowed(lineno, "direct-random"):
                findings.append(Finding(
                    rel_path, lineno, "direct-random",
                    f"direct use of `std::{m.group(1)}`; use common::Rng"))

    return findings


# --- test-only-api ---------------------------------------------------------

# Directories whose C++ sources count as callers, always read whole and
# relative to the repo root whatever paths were passed on the command
# line. tests/ is deliberately absent: a function only tests reach is
# what the rule reports.
CALLER_DIRS = ("src", "tools", "bench", "examples", "perfbench")
IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")
TRAILING_NAME_RE = re.compile(r"(::\s*)?([A-Za-z_]\w*)\s*$")
NAMESPACE_HEAD_RE = re.compile(r"^(inline\s+)?namespace\b|^extern\s*\"")
NON_FUNCTION_HEAD_RE = re.compile(
    r"^(using|typedef|class|struct|enum|union|friend|static_assert|"
    r"extern\s+template)\b")
TEMPLATE_PREFIX_RE = re.compile(r"^template\s*<")
NOT_A_FUNCTION_NAME = {
    "auto", "bool", "char", "const", "decltype", "double", "float", "int",
    "long", "noexcept", "operator", "short", "signed", "sizeof", "unsigned",
    "void", "volatile",
}
CLASS_HEAD_RE = re.compile(r"^(class|struct|union)\b")
ACCESS_SPECIFIERS = ("public", "protected", "private")
OVERRIDE_RE = re.compile(r"\)[^(]*\b(override|final)\b")
TEST_ONLY_WAIVER_RE = re.compile(
    r"ada-lint:\s*allow\(test-only-api\):?\s*(reference|test hook)\b",
    re.IGNORECASE)


def strip_template_prefix(head):
    """Drops a leading `template <...>` (angle brackets balanced)."""
    if not TEMPLATE_PREFIX_RE.match(head):
        return head
    depth = 0
    for i, c in enumerate(head):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return head[i + 1:].lstrip()
    return head


def function_name_of(chars):
    """Names the function a namespace-scope statement declares.

    `chars` is the statement as (character, line, column) triples, with
    comments and literals already stripped. Returns (name, line, column,
    qualified) for the identifier just before the first top-level `(`,
    or None when the statement is not a function declaration or
    definition (a type, alias, variable or macro).
    """
    text = "".join(c for c, _, _ in chars)
    lead = len(text) - len(text.lstrip())
    head = strip_template_prefix(text.strip())
    offset = lead + (len(text.strip()) - len(head))
    if NAMESPACE_HEAD_RE.match(head) or NON_FUNCTION_HEAD_RE.match(head):
        return None
    angle = 0
    paren = -1
    for i, c in enumerate(head):
        if c == "<":
            angle += 1
        elif c == ">":
            angle -= 1
        elif c == "(" and angle <= 0:
            paren = i
            break
    if paren < 0:
        return None
    prefix = head[:paren]
    if "=" in prefix or "operator" in prefix:
        return None
    m = TRAILING_NAME_RE.search(prefix)
    if m is None or not prefix[:m.start()].strip() and m.group(1) is None:
        # A bare `Name(...)` with no return type is a macro call.
        return None
    name = m.group(2)
    if name in NOT_A_FUNCTION_NAME or name.upper() == name:
        return None
    _, line, column = chars[offset + m.start(2)]
    return name, line, column, m.group(1) is not None


def class_name_of(head):
    """Names the class a `class`/`struct`/`union` head opens, or None.

    The name is the last identifier before the base clause, after
    dropping `final` and any attribute macro (`class ADA_CAPABILITY("")
    Mutex`).
    """
    head = re.split(r"(?<!:):(?!:)", strip_template_prefix(head), 1)[0]
    if not CLASS_HEAD_RE.match(head):
        return None
    names = [n for n in IDENTIFIER_RE.findall(head)
             if n not in ("class", "struct", "union", "final")]
    return names[-1] if names else None


def declared_functions(code_lines):
    """Yields (name, line, column, qualified, first_line, member) for
    every function declared or defined at namespace scope or in a class
    body that only namespaces and classes enclose, in one file.

    `member` is None at namespace scope. In a class body it is True for
    a member the test-only-api rule may flag and False for one it skips:
    a constructor, a destructor or an `override`. Operators are never
    yielded.

    A brace-matching walk over comment-free code: a statement is
    collected while every enclosing brace is a namespace's or a
    class's, and ends at `;` (a declaration) or at the `{` that opens a
    body (a definition, or a class/enum body, which function_name_of
    rejects). Braces inside a parameter list (default `{}` arguments)
    do not open bodies, and access specifiers start a new statement.
    """
    # One entry per open brace: "namespace", a class name, or None for
    # any other brace (a function body, an enum, an initializer).
    stack = []
    statement = []
    paren = 0
    continued_directive = False

    def scanned():
        return all(s is not None for s in stack)

    for lineno, code in enumerate(code_lines, start=1):
        if continued_directive or code.lstrip().startswith("#"):
            continued_directive = code.rstrip().endswith("\\")
            continue
        in_scope = scanned()
        for column, c in enumerate(code):
            if not in_scope:
                if c == "{":
                    stack.append(None)
                elif c == "}":
                    stack.pop()
                    in_scope = scanned()
                    statement, paren = [], 0
                continue
            if c == "(":
                paren += 1
            elif c == ")":
                paren -= 1
            elif (paren == 0 and c == ":" and stack
                  and stack[-1] != "namespace"
                  and "".join(ch for ch, _, _ in statement).strip()
                  in ACCESS_SPECIFIERS):
                statement = []
                continue
            elif paren == 0 and c in ";{":
                head = "".join(ch for ch, _, _ in statement).strip()
                found = function_name_of(statement)
                if found is not None:
                    first_line = next(
                        (ln for ch, ln, _ in statement if not ch.isspace()),
                        lineno)
                    member = None
                    if stack and stack[-1] != "namespace":
                        # A constructor or destructor is named after
                        # its class.
                        member = (found[0] != stack[-1]
                                  and OVERRIDE_RE.search(head) is None)
                    yield found + (first_line, member)
                if c == "{":
                    if NAMESPACE_HEAD_RE.match(head):
                        stack.append("namespace")
                    else:
                        stack.append(class_name_of(head))
                    in_scope = scanned()
                statement, paren = [], 0
                continue
            elif paren == 0 and c == "}":
                if stack:
                    stack.pop()
                statement, paren = [], 0
                continue
            statement.append((c, lineno, column))
        statement.append((" ", lineno, len(code)))


def read_code_lines(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw_lines = f.read().splitlines()
    code_lines = []
    in_block = False
    for raw in raw_lines:
        code, in_block = strip_strings_and_comments(raw, in_block)
        code_lines.append(code)
    return raw_lines, code_lines


def lint_test_only_api(linted_files):
    """Flags functions declared at namespace scope or as class members
    in a src/ header whose name, outside tests/, appears only where a
    function of that name is declared or defined.
    """
    caller_files = collect_files(
        [os.path.join(REPO_ROOT, d) for d in CALLER_DIRS])
    sites = set()  # (file, line, column) of declarations/definitions.
    candidates = []
    code_by_file = {}
    for path in caller_files:
        rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
        raw_lines, code_lines = read_code_lines(path)
        code_by_file[rel] = code_lines
        for name, line, column, qualified, first, member in (
                declared_functions(code_lines)):
            sites.add((rel, line, column))
            if (rel.startswith("src" + os.sep) and rel.endswith(".h")
                    and not qualified and member is not False):
                candidates.append((rel, raw_lines, name, line, first))

    uses = set()
    for rel, code_lines in code_by_file.items():
        for lineno, code in enumerate(code_lines, start=1):
            for m in IDENTIFIER_RE.finditer(code):
                if (rel, lineno, m.start()) not in sites:
                    uses.add(m.group())

    linted = {os.path.relpath(os.path.abspath(p), REPO_ROOT)
              for p in linted_files}
    findings = []
    for rel, raw_lines, name, line, first in candidates:
        if rel not in linted or name in uses:
            continue
        # The waiver sits in the comment block right above the
        # declaration, or on one of its own lines.
        top = first - 1
        while top > 0 and raw_lines[top - 1].lstrip().startswith("//"):
            top -= 1
        if any(TEST_ONLY_WAIVER_RE.search(w) for w in raw_lines[top:line]):
            continue
        findings.append(Finding(
            rel, line, "test-only-api",
            f"`{name}` has no caller outside tests/; delete it, or waive "
            "a reference implementation or test hook with "
            "`// ada-lint: allow(test-only-api): <reason>`"))
    return findings


def collect_files(paths):
    files = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(SOURCE_EXTENSIONS):
                files.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [d for d in dirnames
                               if d not in ("build", ".git")
                               and not d.startswith("build-")]
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        else:
            print(f"ada_lint: no such path: {path}", file=sys.stderr)
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        description="ADA-HEALTH repo lint (see module docstring)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tests "
                             "bench under the repo root)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule documentation and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(__doc__)
        return 0

    paths = args.paths or [os.path.join(REPO_ROOT, d)
                           for d in ("src", "tests", "bench", "tools",
                                     "examples")]
    findings = []
    files = collect_files(paths)
    for path in files:
        rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
        findings.extend(lint_file(path, rel))
    findings.extend(lint_test_only_api(files))

    for finding in findings:
        print(finding)
    if findings:
        print(f"ada_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
