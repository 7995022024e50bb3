#!/usr/bin/env python3
"""Repo-specific invariant lint (docs/STATIC_ANALYSIS.md).

Machine-enforces the conventions this codebase relies on but that no
compiler flag checks:

  dense-alloc     No square Matrix(n, n)-shaped dense allocation outside
                  src/linalg/.  A pairs x pairs dense matrix is the one
                  allocation that cannot exist at scale (200 PoPs:
                  ~12.7 GB); every estimation-path consumer must go
                  through the sparse/factored kernels in src/linalg/.
  memory-order    Every operation on a raw std::atomic names an explicit
                  std::memory_order.  Defaulted seq_cst hides the
                  intended ordering contract and silently costs fences;
                  the THREADING.md audit table documents each choice.
                  (obs::MetricCell encapsulates its own relaxed ordering
                  and is exempt by construction.)  The table itself is
                  cross-checked against the tree: every row's Site file
                  must exist (paths relative to src/, or to the repo
                  root), and every backticked name in its Atomic column
                  must appear in the code of each of those files.
  layering        src/core/ and src/linalg/ never include src/engine/,
                  src/serve/ or (beyond the public counter interface
                  obs/counters.hpp) src/obs/ headers, and src/engine/ /
                  src/obs/ never include src/serve/.  The method and
                  kernel layers must stay embeddable without the online
                  engine, and the engine without the serving layer
                  (serve may include engine/obs, not vice versa).
  test-reference  The dense QP reference stays a test oracle: no call
                  of solve_eq_qp_nonneg( (the production solver is
                  solve_eq_qp_nonneg_operator) or solve_eq_qp( under
                  src/.  Each reference lives in exactly one place,
                  tests/linalg/dense_qp_reference.hpp.
  thread-owners   Only the thread owners src/engine/THREADING.md lists
                  (src/engine/thread_pool.hpp: each engine's workers;
                  src/engine/fleet.cpp: one worker per concurrent job)
                  name std::thread / std::jthread or call std::async /
                  pthread_create anywhere under src/.  Every other
                  component feeds the engine on its caller's thread,
                  so thread counts stay where the docs say they are.
                  std::thread::hardware_concurrency() and
                  std::this_thread are allowed everywhere.
  self-contained  Every header under src/ compiles standalone
                  (g++ -fsyntax-only, one compile per header, run
                  concurrently): a header that leans on its includer's
                  includes breaks the next reorganisation.

Suppression: append a comment containing `lint: allow(<rule>)` on the
offending line or the line directly above it, with a justification.
Suppressions are audited decisions, not escapes — the comment is the
audit trail.

Usage:
  tools/lint_invariants.py [--root DIR] [--no-headers]
  tools/lint_invariants.py --self-test

Exit status: 0 clean, 1 violations found (or self-test failure).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
import tempfile

HEADER_EXTS = (".hpp", ".h")
SOURCE_EXTS = (".cpp", ".cc") + HEADER_EXTS

SUPPRESS_RE = re.compile(r"lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Matches the call form Matrix(n, n...), the declaration form
# Matrix g(n, n...), and brace-init Matrix g{n, n...} — any square
# dense allocation whose two leading extents are the same identifier.
DENSE_ALLOC_RE = re.compile(
    r"\bMatrix\s+?(?:[A-Za-z_]\w*\s*)?[({]\s*([A-Za-z_]\w*)\s*,\s*\1\b|"
    r"\bMatrix\s*\(\s*([A-Za-z_]\w*)\s*,\s*\2\b")

ATOMIC_DECL_RE = re.compile(
    r"std::atomic(?:<[^<>]*(?:<[^<>]*>[^<>]*)*>|_flag|_bool|_int|_uint|"
    r"_llong|_ullong|_size_t)\s*[&*]?\s*([A-Za-z_]\w*)"
)
ATOMIC_OP_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*\.\s*"
    r"(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|wait|"
    r"test_and_set|clear)\s*\("
)
ATOMIC_INCDEC_RE = re.compile(
    r"(?:(?:\+\+|--)\s*([A-Za-z_]\w*)\b(?!\s*\.)|"
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:\+\+|--|[+\-|&^]=))"
)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# The memory-order audit table: its header row, and the backticked
# names / paths inside a cell.
THREADING_DOC = "src/engine/THREADING.md"
AUDIT_HEADER_RE = re.compile(r"^\|\s*Atomic\s*\|\s*Site\s*\|")
BACKTICKED_RE = re.compile(r"`([^`]+)`")
IDENTIFIER_RE = re.compile(r"^[A-Za-z_]\w*$")

# The test-only dense QP entry points (the `_operator` suffix is the
# production solver and does not match).
TEST_REFERENCE_RE = re.compile(r"\b(solve_eq_qp_nonneg|solve_eq_qp)\s*\(")

# Anything that starts an OS thread (or holds one): the thread types
# themselves — but not their static members (std::thread::
# hardware_concurrency, std::thread::id) — and the two spawning calls.
THREAD_SPAWN_RE = re.compile(
    r"\bstd::j?thread\b(?!\s*::)|\bstd::async\s*\(|"
    r"\bpthread_create\s*\(")
# The files src/engine/THREADING.md names as thread owners.
THREAD_OWNERS = {"src/engine/thread_pool.hpp", "src/engine/fleet.cpp"}

# The one obs/ header the method/kernel layers may use: the plain
# counter structs estimators fill in (no engine machinery behind it).
LAYERING_OBS_ALLOWED = {"obs/counters.hpp"}
# Directory -> include prefixes it must not reach into.  core/linalg
# stay embeddable without the engine/observability/serving layers;
# engine and obs stay embeddable without the serving layer (serve sits
# on top: it may include engine/ and obs/ freely).
LAYERING_RULES = {
    "src/core": ("engine/", "obs/", "serve/"),
    "src/linalg": ("engine/", "obs/", "serve/"),
    "src/engine": ("serve/",),
    "src/obs": ("serve/",),
    # fault/ is a base layer like obs/counters.hpp — every layer may
    # call into it, so it must depend on nothing above the std library.
    "src/fault": ("core/", "linalg/", "engine/", "obs/", "serve/",
                  "telemetry/", "scenario/", "topology/", "check/"),
}


class Violation:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure, so the regex rules never fire on prose or log text."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i > 1
                                                    else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def suppressed(raw_lines: list[str], lineno: int, rule: str) -> bool:
    """`lint: allow(rule)` on the flagged line or the one above it."""
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(raw_lines):
            m = SUPPRESS_RE.search(raw_lines[idx])
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return True
    return False


def iter_source_files(root: str, subdirs: tuple[str, ...],
                      exts: tuple[str, ...]):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def relpath(root: str, path: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


def check_dense_alloc(root: str) -> list[Violation]:
    violations = []
    for path in iter_source_files(root, ("src",), SOURCE_EXTS):
        rel = relpath(root, path)
        if rel.startswith("src/linalg/"):
            continue
        raw = open(path, encoding="utf-8", errors="replace").read()
        raw_lines = raw.splitlines()
        clean = strip_comments_and_strings(raw).splitlines()
        for lineno, line in enumerate(clean, 1):
            m = DENSE_ALLOC_RE.search(line)
            if m and not suppressed(raw_lines, lineno, "dense-alloc"):
                dim = m.group(1) or m.group(2)
                violations.append(Violation(
                    "dense-alloc", rel, lineno,
                    f"square dense Matrix({dim}, {dim}) "
                    "allocated outside src/linalg/ — use the sparse/"
                    "factored kernels, or justify with "
                    "// lint: allow(dense-alloc)"))
    return violations


def collect_atomic_names(root: str,
                         subdirs: tuple[str, ...]) -> set[str]:
    names = set()
    for path in iter_source_files(root, subdirs, SOURCE_EXTS):
        clean = strip_comments_and_strings(
            open(path, encoding="utf-8", errors="replace").read())
        for m in ATOMIC_DECL_RE.finditer(clean):
            names.add(m.group(1))
    # Never misclassify the relaxed-by-construction metric wrapper's
    # internals as unordered use sites (it passes explicit orders).
    return names


def balanced_args(text: str, open_paren: int) -> str:
    depth, j = 0, open_paren
    while j < len(text):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:j]
        j += 1
    return text[open_paren + 1:]


def check_memory_order(root: str,
                       subdirs: tuple[str, ...]) -> list[Violation]:
    atomic_names = collect_atomic_names(root, subdirs)
    violations = []
    for path in iter_source_files(root, subdirs, SOURCE_EXTS):
        rel = relpath(root, path)
        raw = open(path, encoding="utf-8", errors="replace").read()
        raw_lines = raw.splitlines()
        clean = strip_comments_and_strings(raw)
        for m in ATOMIC_OP_RE.finditer(clean):
            name, op = m.group(1), m.group(2)
            if name not in atomic_names:
                continue
            lineno = clean.count("\n", 0, m.start()) + 1
            args = balanced_args(clean, m.end() - 1)
            if "memory_order" in args:
                continue
            if suppressed(raw_lines, lineno, "memory-order"):
                continue
            violations.append(Violation(
                "memory-order", rel, lineno,
                f"std::atomic {name}.{op}() without an explicit "
                "std::memory_order (defaulted seq_cst hides the "
                "ordering contract; see THREADING.md)"))
        for m in ATOMIC_INCDEC_RE.finditer(clean):
            name = m.group(1) or m.group(2)
            if name not in atomic_names:
                continue
            lineno = clean.count("\n", 0, m.start()) + 1
            if suppressed(raw_lines, lineno, "memory-order"):
                continue
            violations.append(Violation(
                "memory-order", rel, lineno,
                f"implicit seq_cst operator on std::atomic {name} — "
                "use fetch_add/fetch_sub with an explicit order"))
    return violations


def check_audit_table(root: str) -> list[Violation]:
    """Cross-checks THREADING.md's memory-order table against the code."""
    doc = os.path.join(root, THREADING_DOC)
    if not os.path.isfile(doc):
        return []
    lines = open(doc, encoding="utf-8").read().splitlines()
    start = next((i for i, line in enumerate(lines)
                  if AUDIT_HEADER_RE.match(line)), None)
    if start is None:
        return [Violation("memory-order", THREADING_DOC, 1,
                          "memory-order audit table not found")]
    violations = []
    code_cache: dict[str, str] = {}
    for lineno in range(start + 3, len(lines) + 1):  # skip the rule row
        row = lines[lineno - 1].strip()
        if not row.startswith("|"):
            break
        cells = row.strip("|").split("|")
        if len(cells) < 2:
            continue
        names = [n for n in BACKTICKED_RE.findall(cells[0])
                 if IDENTIFIER_RE.match(n)]
        for site in BACKTICKED_RE.findall(cells[1]):
            path = next((c for c in (os.path.join(root, "src", site),
                                     os.path.join(root, site))
                         if os.path.isfile(c)), None)
            if path is None:
                violations.append(Violation(
                    "memory-order", THREADING_DOC, lineno,
                    f"audit table row names Site `{site}`, which does "
                    "not exist"))
                continue
            if path not in code_cache:
                code_cache[path] = strip_comments_and_strings(
                    open(path, encoding="utf-8", errors="replace").read())
            for name in names:
                if not re.search(rf"\b{re.escape(name)}\b",
                                 code_cache[path]):
                    violations.append(Violation(
                        "memory-order", THREADING_DOC, lineno,
                        f"audit table row `{name}` is stale: "
                        f"{site} does not use it"))
    return violations


def check_layering(root: str) -> list[Violation]:
    violations = []
    for sub, forbidden in LAYERING_RULES.items():
        for path in iter_source_files(root, (sub,), SOURCE_EXTS):
            rel = relpath(root, path)
            raw_lines = open(path, encoding="utf-8",
                             errors="replace").read().splitlines()
            for lineno, line in enumerate(raw_lines, 1):
                m = INCLUDE_RE.match(line)
                if not m:
                    continue
                inc = m.group(1)
                if not inc.startswith(tuple(forbidden)):
                    continue
                if inc in LAYERING_OBS_ALLOWED:
                    continue
                if suppressed(raw_lines, lineno, "layering"):
                    continue
                layers = "/".join(p.rstrip("/") for p in forbidden)
                violations.append(Violation(
                    "layering", rel, lineno,
                    f'#include "{inc}" — {sub}/ must stay embeddable '
                    f"without the {layers} layer(s) (allowed "
                    f"exceptions: {sorted(LAYERING_OBS_ALLOWED)})"))
    return violations


def check_test_reference(root: str) -> list[Violation]:
    violations = []
    for path in iter_source_files(root, ("src",), SOURCE_EXTS):
        rel = relpath(root, path)
        raw = open(path, encoding="utf-8", errors="replace").read()
        raw_lines = raw.splitlines()
        clean = strip_comments_and_strings(raw).splitlines()
        for lineno, line in enumerate(clean, 1):
            m = TEST_REFERENCE_RE.search(line)
            if m and not suppressed(raw_lines, lineno, "test-reference"):
                violations.append(Violation(
                    "test-reference", rel, lineno,
                    f"{m.group(1)}() is the test-only dense QP reference "
                    "(tests/linalg/dense_qp_reference.hpp) — production "
                    "code calls solve_eq_qp_nonneg_operator"))
    return violations


def check_thread_owners(root: str) -> list[Violation]:
    violations = []
    for path in iter_source_files(root, ("src",), SOURCE_EXTS):
        rel = relpath(root, path)
        if rel in THREAD_OWNERS:
            continue
        raw = open(path, encoding="utf-8", errors="replace").read()
        raw_lines = raw.splitlines()
        clean = strip_comments_and_strings(raw).splitlines()
        for lineno, line in enumerate(clean, 1):
            m = THREAD_SPAWN_RE.search(line)
            if m and not suppressed(raw_lines, lineno, "thread-owners"):
                violations.append(Violation(
                    "thread-owners", rel, lineno,
                    f"{m.group(0).rstrip('(').strip()} outside the "
                    f"thread owners {sorted(THREAD_OWNERS)} — run on "
                    "the caller's thread or on the engine's ThreadPool "
                    "(src/engine/THREADING.md)"))
    return violations


def check_self_contained(root: str,
                         compiler: str | None = None) -> list[Violation]:
    compiler = compiler or os.environ.get("CXX") or shutil.which("g++") \
        or shutil.which("c++")
    if compiler is None:
        print("lint: no C++ compiler found; skipping self-contained "
              "rule", file=sys.stderr)
        return []
    headers = []
    for path in iter_source_files(root, ("src",), HEADER_EXTS):
        raw_lines = open(path, encoding="utf-8",
                         errors="replace").read().splitlines()
        if not suppressed(raw_lines, 1, "self-contained"):
            headers.append(path)

    def compile_header(path: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [compiler, "-std=c++20", "-fsyntax-only",
             "-I", os.path.join(root, "src"), "-x", "c++", path],
            capture_output=True, text=True)

    # The compiles are independent; map() keeps the results (and so the
    # violations) in header order.
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=os.cpu_count() or 1) as pool:
        procs = list(pool.map(compile_header, headers))
    violations = []
    for path, proc in zip(headers, procs):
        if proc.returncode != 0:
            first = next((ln for ln in proc.stderr.splitlines()
                          if "error" in ln), proc.stderr.strip())
            violations.append(Violation(
                "self-contained", relpath(root, path), 1,
                f"header does not compile standalone: {first}"))
    return violations


def run_all(root: str, headers: bool = True) -> list[Violation]:
    violations = []
    violations += check_dense_alloc(root)
    violations += check_memory_order(root, ("src", "tests", "bench",
                                            "examples"))
    violations += check_audit_table(root)
    violations += check_layering(root)
    violations += check_test_reference(root)
    violations += check_thread_owners(root)
    if headers:
        violations += check_self_contained(root)
    return violations


# --------------------------------------------------------------------
# Self-test: seed one violation per rule in a scratch tree and assert
# the lint flags exactly it; then assert the suppression comment and
# the clean form are accepted.  Guards the lint itself against silent
# regex rot.  A case's optional fifth element holds further files
# written beside it in both trees.

AUDIT_TABLE = (
    "| Atomic | Site | Orders used | Why this is enough |\n"
    "| ------ | ---- | ----------- | ------------------ |\n"
    "| `ticket` | `engine/pool.cpp` | relaxed | pure ticket counter |\n"
)
AUDIT_SOURCE = {
    "src/engine/pool.cpp":
        "#include <atomic>\n"
        "std::atomic<int> ticket{0};\n"
        "int f() { return ticket.fetch_add(1, std::memory_order_relaxed); }\n",
}

SELF_TEST_CASES = [
    (
        "dense-alloc",
        "src/engine/bad_dense.cpp",
        "void f(std::size_t pairs) {\n"
        "    auto g = linalg::Matrix(pairs, pairs);\n"
        "}\n",
        "void f(std::size_t pairs) {\n"
        "    // Vardi transform is inherently dense; built once per "
        "epoch.  lint: allow(dense-alloc)\n"
        "    auto g = linalg::Matrix(pairs, pairs);\n"
        "}\n",
    ),
    (
        "memory-order",
        "src/engine/bad_atomic.cpp",
        "#include <atomic>\n"
        "std::atomic<int> hits{0};\n"
        "int f() { return hits.load(); }\n",
        "#include <atomic>\n"
        "std::atomic<int> hits{0};\n"
        "int f() { return hits.load(std::memory_order_relaxed); }\n",
    ),
    (
        "memory-order",
        "src/engine/bad_incr.cpp",
        "#include <atomic>\n"
        "std::atomic<int> misses{0};\n"
        "void f() { ++misses; }\n",
        "#include <atomic>\n"
        "std::atomic<int> misses{0};\n"
        "void f() { misses.fetch_add(1, std::memory_order_relaxed); }\n",
    ),
    (
        # A row whose atomic left its Site file.
        "memory-order",
        THREADING_DOC,
        AUDIT_TABLE +
        "| `remaining` | `engine/pool.cpp` | `acq_rel` fetch_sub | gone |\n",
        AUDIT_TABLE,
        AUDIT_SOURCE,
    ),
    (
        # A row whose Site file is gone.
        "memory-order",
        THREADING_DOC,
        AUDIT_TABLE +
        "| `next` | `engine/fleet.cpp` | relaxed fetch_add | ticket |\n",
        AUDIT_TABLE,
        AUDIT_SOURCE,
    ),
    (
        "layering",
        "src/core/bad_layer.cpp",
        '#include "engine/scheduler.hpp"\n',
        '#include "obs/counters.hpp"\n',
    ),
    (
        # core must not reach up into the serving layer.
        "layering",
        "src/core/bad_serve_layer.cpp",
        '#include "serve/store.hpp"\n',
        '#include "obs/counters.hpp"\n',
    ),
    (
        # engine must stay embeddable without serve (serve includes
        # engine, never the reverse); engine -> obs stays allowed.
        "layering",
        "src/engine/bad_serve_layer.cpp",
        '#include "serve/snapshot.hpp"\n',
        '#include "obs/histogram.hpp"\n',
    ),
    (
        "test-reference",
        "src/core/bad_reference.cpp",
        "auto r = linalg::solve_eq_qp_nonneg(h, f, e, d);\n",
        "auto r = linalg::solve_eq_qp_nonneg_operator(h, f, e, d);\n",
    ),
    (
        "test-reference",
        "src/linalg/bad_eq_qp.cpp",
        "Vector x = solve_eq_qp (h, f, e, d);\n",
        "// solve_eq_qp(h, f, e, d) lives with the tests.\n"
        "Vector x = solve_eq_qp_nonneg_operator(h, f, e, d).x;\n",
    ),
    (
        "thread-owners",
        "src/engine/bad_thread.cpp",
        "#include <thread>\n"
        "void f() {\n"
        "    std::thread producer([] {});\n"
        "    producer.join();\n"
        "}\n",
        "#include <thread>\n"
        "unsigned f() {\n"
        "    std::this_thread::yield();\n"
        "    return std::thread::hardware_concurrency();\n"
        "}\n",
    ),
    (
        "thread-owners",
        "src/scenario/bad_async.cpp",
        "#include <future>\n"
        "auto f() { return std::async([] { return 1; }); }\n",
        "// std::async([] { return 1; }) would start a thread.\n"
        "int f() { return 1; }\n",
    ),
    (
        "self-contained",
        "src/core/bad_header.hpp",
        "#pragma once\n"
        "inline std::string broken() { return {}; }\n",
        "#pragma once\n"
        "#include <string>\n"
        "inline std::string fixed() { return {}; }\n",
    ),
]


def self_test() -> int:
    failures = 0
    for rule, rel, bad, good, *extra in SELF_TEST_CASES:
        for label, content, expect_hit in (("seeded", bad, True),
                                           ("clean", good, False)):
            with tempfile.TemporaryDirectory() as tmp:
                files = {rel: content, **(extra[0] if extra else {})}
                for file_rel, text in files.items():
                    path = os.path.join(tmp, file_rel)
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    with open(path, "w", encoding="utf-8") as f:
                        f.write(text)
                found = [v for v in run_all(tmp) if v.rule == rule]
                ok = bool(found) == expect_hit
                status = "ok" if ok else "FAIL"
                print(f"self-test [{rule}/{label}]: {status}" +
                      ("" if ok else
                       f" (violations: {[str(v) for v in found]})"))
                failures += 0 if ok else 1
    # Suppression must silence the dense-alloc seed.
    rule, rel, _bad, suppressed_src = SELF_TEST_CASES[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(suppressed_src)
        found = [v for v in run_all(tmp) if v.rule == rule]
        ok = not found
        print(f"self-test [{rule}/suppressed]: "
              f"{'ok' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    print(f"self-test: {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description="repo invariant lint (see docs/STATIC_ANALYSIS.md)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--no-headers", action="store_true",
                        help="skip the header self-containment compiles")
    parser.add_argument("--self-test", action="store_true",
                        help="seed violations and assert detection")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    violations = run_all(root, headers=not args.no_headers)
    for v in violations:
        print(v)
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
