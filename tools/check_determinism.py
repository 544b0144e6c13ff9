#!/usr/bin/env python3
"""Custom determinism lint for the Rafiki tree.

Rafiki's headline numbers (throughput gain, prediction error, GA-vs-exhaustive
gap) are only trustworthy if the simulator, surrogate training, and GA search
are bit-for-bit reproducible from a seed. This pass bans the C++ constructs
that silently break that contract. The full rule specification, rationale, and
suppression syntax live in tools/lint_rules.md.

Rules (ids used in findings and det:ok() suppressions):
  c-rand          rand() / srand() / random()  — global-state C PRNG
  random-device   std::random_device           — hardware entropy
  mt19937         std::mt19937 / std::mt19937_64 and <random> engines
                  (seeded or not) — all randomness must flow through
                  rafiki::Rng (src/util/rng.h)
  wall-clock      time() / clock() / clock_gettime() / timespec_get() /
                  gettimeofday / localtime / gmtime /
                  std::chrono::*_clock::now() — wall-clock reads
  thread-id       std::this_thread::get_id() — thread ids differ run to run;
                  never key results, seeds, or ordering on them
  unordered-iter  range-for over a std::unordered_{map,set} in a result path —
                  iteration order is implementation-defined
  wire-memcpy     memcpy in src/net/ — the wire codec serializes byte-wise
                  with explicit little-endian helpers; struct layout is not
                  the wire format (path-scoped rule)
  fp-contract     a file under src/ that uses __attribute__((target(...)))
                  but is not listed with -ffp-contract=off in its directory's
                  CMakeLists.txt — a wider ISA can bring FMA, and a contracted
                  multiply-add breaks bit parity with the scalar path

Concurrency-contract rules (same suppression syntax):
  memory-order    atomic load/store/RMW without an explicit std::memory_order
                  argument under src/serve/, src/net/, src/tenant/,
                  src/tune/, src/util/ or src/collect/ — the bare seq_cst
                  default hides the intended ordering from reviewers and from
                  the registry/stats visibility audits. Named constexpr
                  aliases (kRelaxed, kAcquire, ...) count as explicit.
                  (path-scoped rule)
  tsa-justification  NO_THREAD_SAFETY_ANALYSIS without a `// tsa:ok: <reason>`
                  comment on the same line or the line above — escaping the
                  Clang capability analysis must be justified in place
                  (src/util/sync.h, which defines the macro, is exempt)

Suppress a finding by annotating the offending line (or the line directly
above it) with:  // det:ok(<rule-id>): <reason>

Exit status: 0 when the tree is clean, 1 when findings exist, 2 on usage
errors. `--selftest` checks the scanner itself against known-bad snippets.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

SCAN_DIRS = ("src", "tests", "bench", "examples")
EXTENSIONS = {".cpp", ".h", ".hpp", ".cc"}
# The one sanctioned randomness implementation.
EXEMPT_FILES = {Path("src/util/rng.h")}

SUPPRESS_RE = re.compile(r"//\s*det:ok\((?P<rules>[a-z0-9_,\- ]+)\)")
LINE_COMMENT_RE = re.compile(r"//.*$")

# rule id -> (regex, message)
PATTERN_RULES = {
    "c-rand": (
        re.compile(r"(?<![A-Za-z0-9_])s?rand(om)?\s*\("),
        "C PRNG (rand/srand/random) uses hidden global state; draw from rafiki::Rng",
    ),
    "random-device": (
        re.compile(r"std::random_device"),
        "std::random_device is nondeterministic hardware entropy; seed rafiki::Rng explicitly",
    ),
    "mt19937": (
        re.compile(
            r"std::(mt19937(_64)?|minstd_rand0?|ranlux(24|48)(_base)?|"
            r"knuth_b|default_random_engine)"
        ),
        "<random> engines are banned; all stochastic code draws from rafiki::Rng",
    ),
    "wall-clock": (
        re.compile(
            r"(?<![A-Za-z0-9_])(clock_gettime|timespec_get|time|clock|gettimeofday|"
            r"localtime|gmtime)\s*\(|"
            r"std::chrono::(system_clock|steady_clock|high_resolution_clock)::now"
        ),
        "wall-clock read; results must not depend on real time "
        "(annotate det:ok(wall-clock) if reporting-only)",
    ),
    "thread-id": (
        re.compile(r"std::this_thread::get_id\s*\("),
        "thread ids differ run to run; never key results, seeds, or ordering on them",
    ),
}

# Path-scoped rules: rule id -> (path prefix, regex, message). These fire only
# in files whose repo-relative path starts with the prefix.
PATH_PATTERN_RULES = {
    "wire-memcpy": (
        "src/net/",
        re.compile(r"(?<![A-Za-z0-9_])(?:std::)?memcpy\s*\("),
        "wire codec must serialize byte-wise via explicit little-endian helpers; "
        "memcpy of in-memory values bakes host layout into the wire format",
    ),
}

# --- fp-contract rule --------------------------------------------------------
# A function compiled for a wider ISA via __attribute__((target(...))) may be
# handed FMA (GCC's avx512f target implies it), and a multiply-add contracted
# into one FMA rounds once where the scalar code rounds twice, so the SIMD
# variant silently stops matching the scalar one. Every such file under src/
# must be built with -ffp-contract=off, named in a set_source_files_properties
# call of its directory's CMakeLists.txt.
TARGET_ATTR_RE = re.compile(r"__attribute__\s*\(\s*\(\s*target\s*\(")
SOURCE_PROPERTIES_RE = re.compile(r"set_source_files_properties\s*\((?P<args>[^)]*)\)")
CMAKE_COMMENT_RE = re.compile(r"#.*$", re.M)


def fp_contract_off_sources(cmake: Path) -> set[str]:
    """Source names that `cmake` builds with -ffp-contract=off."""
    try:
        text = CMAKE_COMMENT_RE.sub("", cmake.read_text(errors="replace"))
    except OSError:
        return set()
    names: set[str] = set()
    for m in SOURCE_PROPERTIES_RE.finditer(text):
        args = m.group("args")
        if "-ffp-contract=off" in args:
            names.update(args.split("PROPERTIES")[0].split())
    return names


# --- memory-order rule ------------------------------------------------------
# Member calls on std::atomic that take an optional std::memory_order. Bare
# calls default to seq_cst, which both over-synchronizes and — worse — hides
# whether the author *thought* about the required ordering. Scoped to the
# concurrent serving stack, the online tuning layer (whose screen state is
# shared with request threads), and the offline pipeline's fork-join layer:
# util::parallel_for and the collect plan executor that runs on it. The
# offline math code has no atomics to audit.
MEMORY_ORDER_PREFIXES = ("src/serve/", "src/net/", "src/tenant/", "src/tune/",
                         "src/util/", "src/collect/")
ATOMIC_CALL_RE = re.compile(
    r"(?:\.|->)\s*(?P<op>load|store|exchange|fetch_add|fetch_sub|fetch_and|"
    r"fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\("
)
# An explicit order is either the std token or one of the codebase's named
# constexpr aliases (e.g. `constexpr auto kRelaxed = std::memory_order_relaxed`).
EXPLICIT_ORDER_RE = re.compile(
    r"memory_order|(?<![A-Za-z0-9_])k(Relaxed|Consume|Acquire|Release|AcqRel|SeqCst)"
    r"(?![A-Za-z0-9_])"
)
# How many continuation lines to gather while balancing the call's parens.
ATOMIC_CALL_MAX_SPAN = 8

# --- tsa-justification rule -------------------------------------------------
# Every escape hatch from the Clang thread-safety analysis must say why, right
# where it is used. The macro's own definition site is exempt.
TSA_ESCAPE_RE = re.compile(r"(?<![A-Za-z0-9_])NO_THREAD_SAFETY_ANALYSIS(?![A-Za-z0-9_])")
TSA_JUSTIFY_RE = re.compile(r"//\s*tsa:ok:\s*\S")
TSA_EXEMPT_FILES = {Path("src/util/sync.h")}

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;({=]"
)
# Anchored form handles call expressions (`: obj.rows()) {`); the fallback
# covers single-line loop bodies (`for (auto k : m) use(k);`).
RANGE_FOR_RE = re.compile(r"for\s*\(.*?:\s*(?P<expr>.+?)\)\s*\{?\s*$")
RANGE_FOR_FALLBACK_RE = re.compile(r"for\s*\(.*?:\s*(?P<expr>[^)]+)\)")
# Accessors known (from this codebase) to expose an unordered container.
UNORDERED_ACCESSORS = (".rows()",)


def strip_strings(line: str) -> str:
    """Blank out string/char literals so patterns inside them don't fire."""
    return re.sub(r'"(\\.|[^"\\])*"|\'(\\.|[^\'\\])*\'', '""', line)


def suppressed_rules(lines: list[str], idx: int) -> set[str]:
    rules: set[str] = set()
    for i in (idx, idx - 1):
        if 0 <= i < len(lines):
            m = SUPPRESS_RE.search(lines[i])
            if m:
                rules.update(r.strip() for r in m.group("rules").split(","))
    return rules


def gather_call_args(code_lines: list[str], idx: int, start: int) -> str | None:
    """Collect the argument text of a call whose open paren is at
    code_lines[idx][start - 1], balancing parens across up to
    ATOMIC_CALL_MAX_SPAN lines. Returns None if the call never closes in that
    window (treated as no-finding rather than a guess)."""
    depth = 1
    parts: list[str] = []
    pos = start
    for i in range(idx, min(idx + ATOMIC_CALL_MAX_SPAN, len(code_lines))):
        segment = code_lines[i][pos:] if i == idx else code_lines[i]
        for j, ch in enumerate(segment):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    parts.append(segment[:j])
                    return "".join(parts)
        parts.append(segment)
        pos = 0
    return None


def scan_file(path: Path, rel: Path) -> list[tuple[Path, int, str, str]]:
    findings = []
    try:
        lines = path.read_text(errors="replace").splitlines()
    except OSError as err:
        print(f"warning: cannot read {path}: {err}", file=sys.stderr)
        return []

    unordered_names: set[str] = set()
    for line in lines:
        code = strip_strings(LINE_COMMENT_RE.sub("", line))
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))

    # Comment/string-stripped view of every line, for multi-line arg gathering.
    code_lines = [strip_strings(LINE_COMMENT_RE.sub("", line)) for line in lines]
    memory_order_scoped = rel.as_posix().startswith(MEMORY_ORDER_PREFIXES)
    # Checked once per file, at its first target attribute.
    fp_contract_pending = rel.as_posix().startswith("src/")

    for idx, raw in enumerate(lines):
        code = strip_strings(LINE_COMMENT_RE.sub("", raw))
        if not code.strip():
            continue
        allowed = suppressed_rules(lines, idx)
        for rule, (pattern, message) in PATTERN_RULES.items():
            if rule not in allowed and pattern.search(code):
                findings.append((rel, idx + 1, rule, message))
        for rule, (prefix, pattern, message) in PATH_PATTERN_RULES.items():
            if (
                rule not in allowed
                and rel.as_posix().startswith(prefix)
                and pattern.search(code)
            ):
                findings.append((rel, idx + 1, rule, message))
        if fp_contract_pending and "fp-contract" not in allowed and TARGET_ATTR_RE.search(code):
            fp_contract_pending = False
            cmake = path.parent / "CMakeLists.txt"
            if path.name not in fp_contract_off_sources(cmake):
                findings.append(
                    (
                        rel,
                        idx + 1,
                        "fp-contract",
                        f"__attribute__((target(...))) without -ffp-contract=off: list "
                        f"{path.name} with -ffp-contract=off in "
                        f"{rel.parent.as_posix()}/CMakeLists.txt (a contracted FMA "
                        "breaks bit parity with the scalar path)",
                    )
                )
        if memory_order_scoped and "memory-order" not in allowed:
            for m in ATOMIC_CALL_RE.finditer(code):
                args = gather_call_args(code_lines, idx, m.end())
                if args is not None and not EXPLICIT_ORDER_RE.search(args):
                    findings.append(
                        (
                            rel,
                            idx + 1,
                            "memory-order",
                            f"atomic {m.group('op')}() without an explicit "
                            "std::memory_order; the bare seq_cst default hides "
                            "the intended ordering — state it (or a kRelaxed-"
                            "style alias), or annotate det:ok(memory-order)",
                        )
                    )
        if (
            "tsa-justification" not in allowed
            and rel not in TSA_EXEMPT_FILES
            and TSA_ESCAPE_RE.search(code)
        ):
            justified = any(
                0 <= i < len(lines) and TSA_JUSTIFY_RE.search(lines[i])
                for i in (idx, idx - 1)
            )
            if not justified:
                findings.append(
                    (
                        rel,
                        idx + 1,
                        "tsa-justification",
                        "NO_THREAD_SAFETY_ANALYSIS requires a `// tsa:ok: "
                        "<reason>` comment on this line or the line above",
                    )
                )
        if "unordered-iter" not in allowed:
            m = RANGE_FOR_RE.search(code) or RANGE_FOR_FALLBACK_RE.search(code)
            if m:
                expr = m.group("expr").strip()
                hit = any(a in expr for a in UNORDERED_ACCESSORS) or any(
                    re.search(rf"(?<![A-Za-z0-9_]){re.escape(n)}(?![A-Za-z0-9_])", expr)
                    for n in unordered_names
                )
                if hit:
                    findings.append(
                        (
                            rel,
                            idx + 1,
                            "unordered-iter",
                            "iteration order of unordered containers is "
                            "implementation-defined; sort first, or annotate "
                            "det:ok(unordered-iter) when the sink is order-insensitive",
                        )
                    )
    return findings


def scan_tree(root: Path) -> list[tuple[Path, int, str, str]]:
    findings = []
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in EXTENSIONS:
                continue
            rel = path.relative_to(root)
            if rel in EXEMPT_FILES:
                continue
            findings.extend(scan_file(path, rel))
    return findings


SELFTEST_BAD = """\
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <thread>
#include <unordered_map>
void bad() {
  int a = rand();
  srand(42);
  std::random_device rd;
  std::mt19937 gen(rd());
  std::mt19937 unseeded;
  long t = time(nullptr);
  timespec ts;
  timespec_get(&ts, TIME_UTC);
  clock_gettime(CLOCK_MONOTONIC, &ts);
  auto now = std::chrono::steady_clock::now();
  auto tid = std::this_thread::get_id();
  std::unordered_map<int, double> acc;
  double sum = 0.0;
  for (const auto& [k, v] : acc) sum += v;  // order-dependent accumulation
}
"""

SELFTEST_CLEAN = """\
#include "util/rng.h"
#include <cstring>
#include <unordered_map>
double good(rafiki::Rng& rng) {
  // det:ok(wall-clock): reporting-only example
  auto t0 = std::chrono::steady_clock::now();
  double runtime = advance_time(acc);  // suffix match must not fire wall-clock
  std::memcpy(dst, srcbuf, n);  // memcpy outside src/net/ is allowed
  std::unordered_map<int, double> acc2;
  // det:ok(unordered-iter): sink is order-insensitive (sorted downstream)
  for (const auto& [k, v] : acc2) keys.push_back(k);
  return rng.uniform() + runtime;
}
"""

SELFTEST_WIRE_BAD = """\
#include <cstring>
void encode(std::uint8_t* out, double v) {
  std::memcpy(out, &v, sizeof v);  // host layout leaks onto the wire
}
"""

SELFTEST_WIRE_CLEAN = """\
#include <cstdint>
void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v & 0xff);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}
"""

SELFTEST_SERVE_BAD = """\
#include <atomic>
void hot(std::atomic<int>& a, std::atomic<bool>& flag) {
  int v = a.load();                       // bare seq_cst default
  flag.store(true);                       // bare seq_cst default
  a.fetch_add(
      1);                                 // multi-line call, still bare
  int expected = v;
  a.compare_exchange_weak(expected, v + 1);
  NO_THREAD_SAFETY_ANALYSIS               // no justification comment
}
"""

SELFTEST_SERVE_CLEAN = """\
#include <atomic>
constexpr auto kRelaxed = std::memory_order_relaxed;
void hot(std::atomic<int>& a, std::atomic<bool>& flag) {
  int v = a.load(std::memory_order_acquire);
  flag.store(true, std::memory_order_release);
  a.fetch_add(
      1, kRelaxed);                       // named alias counts as explicit
  // det:ok(memory-order): example of a reviewed seq_cst site
  a.fetch_sub(1);
  overloaded.store(v);                    // det:ok(memory-order): reviewed
  // tsa:ok: example justification on the line above
  NO_THREAD_SAFETY_ANALYSIS
  NO_THREAD_SAFETY_ANALYSIS  // tsa:ok: same-line justification also accepted
}
"""


SELFTEST_NET_WAKER_BAD = """\
#include <atomic>
// Mirrors the src/net/ poller Waker: the pending-flag handshake between
// wake() and drain() is exactly the kind of cross-thread edge the
// memory-order rule exists to audit.
struct Waker {
  std::atomic<bool> pending{false};
  void wake() {
    if (!pending.exchange(true)) ring();  // bare seq_cst RMW on the wake edge
  }
  void drain() {
    pending.store(false);                 // bare seq_cst store after fd drain
  }
  bool armed() { return pending.load(); } // bare seq_cst load
  void ring();
};
"""

SELFTEST_NET_WAKER_CLEAN = """\
#include <atomic>
struct Waker {
  std::atomic<bool> pending{false};
  void wake() {
    // acq_rel: the winning wake must publish pre-wake writes to the drainer,
    // and the drainer's store must be visible to the next winning exchange.
    if (!pending.exchange(true, std::memory_order_acq_rel)) ring();
  }
  void drain() { pending.store(false, std::memory_order_release); }
  bool armed() { return pending.load(std::memory_order_acquire); }
  void ring();
};
"""

SELFTEST_UTIL_BAD = """\
#include <atomic>
// Mirrors util::parallel_for: the index counter and the stop flag are the
// fork-join loop's only atomics, and their orderings must be spelled out.
void worker(std::atomic<unsigned long>& next, std::atomic<bool>& failed, unsigned long n) {
  while (!failed.load()) {                // bare seq_cst load
    const unsigned long i = next.fetch_add(1);  // bare seq_cst RMW
    if (i >= n) return;
    failed.store(true);                   // bare seq_cst store
  }
}
"""

SELFTEST_UTIL_CLEAN = """\
#include <atomic>
void worker(std::atomic<unsigned long>& next, std::atomic<bool>& failed, unsigned long n) {
  while (!failed.load(std::memory_order_relaxed)) {
    const unsigned long i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    failed.store(true, std::memory_order_relaxed);
  }
}
"""

SELFTEST_SIMD = """\
#include <cstddef>
__attribute__((target("avx512f")))
void axpy(double* y, const double* x, double a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];  // contractible
}
"""

# The SIMD file is listed, but only at -O3 (and a commented-out line with the
# flag must not count).
SELFTEST_SIMD_CMAKE_BAD = """\
add_library(simd simd.cpp plain.cpp)
# set_source_files_properties(simd.cpp PROPERTIES COMPILE_OPTIONS "-ffp-contract=off")
set_source_files_properties(simd.cpp plain.cpp
  PROPERTIES COMPILE_OPTIONS "-O3")
"""

SELFTEST_SIMD_CMAKE_CLEAN = """\
add_library(simd simd.cpp plain.cpp)
set_source_files_properties(plain.cpp simd.cpp
  PROPERTIES COMPILE_OPTIONS "-O3;-ffp-contract=off")
"""


def selftest() -> int:
    expected = {"c-rand", "random-device", "mt19937", "wall-clock", "thread-id",
                "unordered-iter", "wire-memcpy", "memory-order", "tsa-justification",
                "fp-contract"}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "src" / "net").mkdir(parents=True)
        (root / "src" / "serve").mkdir(parents=True)
        (root / "src" / "tune").mkdir(parents=True)
        (root / "src" / "bad.cpp").write_text(SELFTEST_BAD)
        (root / "src" / "net" / "codec.cpp").write_text(SELFTEST_WIRE_BAD)
        # src/net/ is memory-order scoped: the waker's bare atomic handshake
        # (exchange/store/load on the pending flag) must fire there.
        (root / "src" / "net" / "waker.cpp").write_text(SELFTEST_NET_WAKER_BAD)
        (root / "src" / "serve" / "hot.cpp").write_text(SELFTEST_SERVE_BAD)
        # src/tune/ is memory-order scoped too: the same bare atomics must
        # fire there (fixture shares the serve snippet).
        (root / "src" / "tune" / "screen.cpp").write_text(SELFTEST_SERVE_BAD)
        # src/util/ and src/collect/ are memory-order scoped: the fork-join
        # loop's bare index counter and stop flag must fire in both.
        (root / "src" / "util").mkdir(parents=True)
        (root / "src" / "collect").mkdir(parents=True)
        (root / "src" / "util" / "parallel.cpp").write_text(SELFTEST_UTIL_BAD)
        (root / "src" / "collect" / "runner.cpp").write_text(SELFTEST_UTIL_BAD)
        # The identical atomic calls outside src/serve+src/net must not fire;
        # NO_THREAD_SAFETY_ANALYSIS is checked everywhere (one more expected).
        (root / "src" / "outside.cpp").write_text(SELFTEST_SERVE_BAD)
        # A target-attributed file whose directory builds it without
        # -ffp-contract=off must fire fp-contract.
        (root / "src" / "simd").mkdir()
        (root / "src" / "simd" / "simd.cpp").write_text(SELFTEST_SIMD)
        (root / "src" / "simd" / "CMakeLists.txt").write_text(SELFTEST_SIMD_CMAKE_BAD)
        bad_findings = scan_tree(root)
        fired = {rule for (_, _, rule, _) in bad_findings}
        missing = expected - fired
        if missing:
            print(f"selftest FAILED: rules did not fire on bad input: {sorted(missing)}")
            return 1
        # Path scoping: the same construct outside its scoped prefix must not
        # fire (memcpy outside src/net/, bare atomics outside serve/net).
        for rule, prefixes in (("wire-memcpy", ("src/net/",)),
                               ("memory-order", MEMORY_ORDER_PREFIXES)):
            outside = [f for f in bad_findings
                       if f[2] == rule and not f[0].as_posix().startswith(prefixes)]
            if outside:
                print(f"selftest FAILED: {rule} fired outside {prefixes}")
                return 1
        # load, store, multi-line fetch_add, CAS in the serve/tune fixtures;
        # exchange, store, load in the waker fixture; load, fetch_add, store
        # in the fork-join fixture.
        for scoped, want in (("src/serve/hot.cpp", 4), ("src/tune/screen.cpp", 4),
                             ("src/net/waker.cpp", 3), ("src/util/parallel.cpp", 3),
                             ("src/collect/runner.cpp", 3)):
            bare = [f for f in bad_findings
                    if f[2] == "memory-order" and f[0].as_posix() == scoped]
            if len(bare) != want:
                print(f"selftest FAILED: expected {want} memory-order findings "
                      f"in {scoped}, got {len(bare)}")
                return 1
        (root / "src" / "bad.cpp").write_text(SELFTEST_CLEAN)
        (root / "src" / "net" / "codec.cpp").write_text(SELFTEST_WIRE_CLEAN)
        (root / "src" / "net" / "waker.cpp").write_text(SELFTEST_NET_WAKER_CLEAN)
        (root / "src" / "serve" / "hot.cpp").write_text(SELFTEST_SERVE_CLEAN)
        (root / "src" / "tune" / "screen.cpp").write_text(SELFTEST_SERVE_CLEAN)
        (root / "src" / "util" / "parallel.cpp").write_text(SELFTEST_UTIL_CLEAN)
        (root / "src" / "collect" / "runner.cpp").write_text(SELFTEST_UTIL_CLEAN)
        (root / "src" / "outside.cpp").unlink()
        (root / "src" / "simd" / "CMakeLists.txt").write_text(SELFTEST_SIMD_CMAKE_CLEAN)
        clean_findings = scan_tree(root)
        if clean_findings:
            for rel, lineno, rule, _ in clean_findings:
                print(f"selftest FAILED: false positive {rel}:{lineno} [{rule}]")
            return 1
    print(f"selftest ok: all {len(expected)} rules fire on violations, clean code passes")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files or directories (default: repo tree)")
    parser.add_argument("--root", default=None, help="repo root (default: parent of tools/)")
    parser.add_argument("--selftest", action="store_true", help="verify the scanner itself")
    args = parser.parse_args()

    if args.selftest:
        return selftest()

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    if args.paths:
        findings = []
        for p in args.paths:
            path = Path(p).resolve()
            if path.is_dir():
                for f in sorted(path.rglob("*")):
                    if f.suffix in EXTENSIONS:
                        findings.extend(scan_file(f, f.relative_to(root)))
            elif path.suffix in EXTENSIONS:
                findings.extend(scan_file(path, path.relative_to(root)))
    else:
        findings = scan_tree(root)

    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"\n{len(findings)} determinism finding(s). See tools/lint_rules.md.")
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
