#!/usr/bin/env python3
"""Determinism-contract linter for the prediction engine's contract paths.

The repo promises bit-identical predictions regardless of thread count
(see parallel_parity_test). That contract is easy to break silently: one
range-for over an unordered_map in an output-producing loop, one wall
clock read in a sampling stage, one pointer-keyed std::set, and results
depend on allocator addresses or the scheduler. This lint scans the
contract-path sources (src/engine, src/sampling, src/core, and
src/schedule — the SLO simulator promises byte-identical event logs at
every thread count and must never read a real clock — plus
src/service/fault.{h,cc}, whose injected-fault schedule is a pure
function of the configured seed so chaos runs replay bit-identically,
and src/service/feedback.{h,cc}, whose per-family feedback windows and
count-based circuit breaker must walk identically for a fixed sequence
of reports and stage verdicts)
for the constructs that have historically caused exactly that:

  banned-random        std::random_device, rand(), srand() — all sampling
                       randomness must flow through the seeded PRNG plumbing.
  banned-clock         time(), clock(), ::now() — wall/steady clock reads
                       belong in bench/ and the service layer, never in a
                       stage that produces prediction output.
  unordered-iteration  range-for over (or .begin()/.cbegin() on) a variable
                       declared as std::unordered_{map,set,...} — iteration
                       order is hash-seed- and allocator-dependent.
  pointer-key          std::{map,set,...} keyed on a pointer type —
                       ordered by allocation address, i.e. nondeterministic.
  unwaived-sort        std::sort / std::stable_sort without a waiver —
                       std::sort on equal keys is permutation-unstable, and
                       even stable_sort on a nondeterministically-ordered
                       input just launders the nondeterminism.

Waivers: a finding is suppressed by `// det-lint: <tag>` on the same line
or the immediately preceding line. The tag documents WHY the construct is
safe (conventions used in this tree: `fixed-shape` for sorts whose shape
is pinned independent of thread count, `order-independent` for reductions
that commute exactly, `sorted-output` for sorts that canonicalize order).
A waiver without a tag is itself a finding.

Usage:
  tools/determinism_lint.py                 # scan the contract paths
  tools/determinism_lint.py FILE...         # scan specific files
  tools/determinism_lint.py --self-test     # run the fixture suite

Exit status: 0 clean, 1 findings (or fixture failures), 2 usage error.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTRACT_DIRS = ("src/engine", "src/sampling", "src/core", "src/schedule")
# Individual contract files outside the contract dirs. The fault injector
# lives in the service layer (a test/bench seam), but its schedule is
# seed-derived by contract: the decision for (fingerprint, attempt) must be
# a pure function of the seed — no std::random_device, no clock reads — so
# chaos runs replay bit-identically across thread counts. The family table
# next to it holds the feedback windows and the circuit breaker, whose
# state trajectories are deterministic by the same contract. Same rules,
# same waiver tags; no new waiver categories.
CONTRACT_FILES = ("src/service/fault.cc", "src/service/fault.h",
                  "src/service/feedback.cc", "src/service/feedback.h")
FIXTURE_DIR = "tests/determinism_lint"
SOURCE_EXTS = (".cc", ".h")

WAIVER_RE = re.compile(r"det-lint:\s*([A-Za-z0-9_-]+)?")

RANDOM_RE = re.compile(r"\bstd::random_device\b|\b(?:s?rand)\s*\(")
CLOCK_RE = re.compile(r"\b(?:time|clock)\s*\(|::now\s*\(")
SORT_RE = re.compile(r"\bstd::(?:sort|stable_sort)\s*\(")
# std::map/std::set whose FIRST template argument is a pointer type. The
# first argument is everything up to the first top-level comma or the
# closing angle bracket; a '*' in it means pointer-keyed.
POINTER_KEY_RE = re.compile(
    r"\bstd::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*"
)
UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*\*?(\w+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule, self.message)


def strip_code(lines):
    """Returns (code_lines, waivers) where code_lines have comments and
    string/char literals blanked (lengths preserved) and waivers maps a
    line number to the waiver tag found in its comment (None = untagged).
    """
    code_lines = []
    waivers = {}
    in_block = False
    for lineno, line in enumerate(lines, start=1):
        out = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                comment = line[i:] if end < 0 else line[i:end]
                m = WAIVER_RE.search(comment)
                if m:
                    waivers[lineno] = m.group(1)
                if end < 0:
                    out.append(" " * (n - i))
                    i = n
                else:
                    out.append(" " * (end + 2 - i))
                    i = end + 2
                    in_block = False
                continue
            ch = line[i]
            if ch == "/" and i + 1 < n and line[i + 1] == "/":
                m = WAIVER_RE.search(line[i:])
                if m:
                    waivers[lineno] = m.group(1)
                out.append(" " * (n - i))
                i = n
            elif ch == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                out.append("  ")
                i += 2
            elif ch == '"' or ch == "'":
                quote = ch
                out.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\" and i + 1 < n:
                        out.append("  ")
                        i += 2
                    elif line[i] == quote:
                        out.append(quote)
                        i += 1
                        break
                    else:
                        out.append(" ")
                        i += 1
            else:
                out.append(ch)
                i += 1
        code_lines.append("".join(out))
    return code_lines, waivers


def unordered_decl_names(code_lines):
    """Names declared (anywhere in the file) with an unordered container
    type: `std::unordered_map<K, V> name ...`. Template arguments may nest,
    so the closing '>' is found by bracket counting, not regex."""
    names = set()
    text = "\n".join(code_lines)
    for m in UNORDERED_DECL_RE.finditer(text):
        i = m.end() - 1  # at '<'
        depth = 0
        while i < len(text):
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= len(text):
            continue
        # The declared name is the first identifier after the closing '>'
        # (skipping &, *, whitespace). `using Foo = std::unordered_...` and
        # function return types produce no match here, which is fine: the
        # lint tracks variables, not aliases.
        rest = text[i + 1 : i + 200]
        name_m = re.match(r"[\s&*]*(\w+)", rest)
        if name_m and not name_m.group(1)[0].isdigit():
            names.add(name_m.group(1))
    return names


def sibling_header_names(path):
    """Unordered-declared names from the same-stem .h next to a .cc, so
    member fields (`std::unordered_map<...> counts_;` in foo.h) are tracked
    when foo.cc iterates them."""
    stem, ext = os.path.splitext(path)
    if ext != ".cc":
        return set()
    header = stem + ".h"
    if not os.path.isfile(header):
        return set()
    with open(header, "r", encoding="utf-8", errors="replace") as f:
        code_lines, _ = strip_code(f.read().splitlines())
    return unordered_decl_names(code_lines)


def lint_file(path, display_path=None):
    display = display_path if display_path is not None else path
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()
    code_lines, waivers = strip_code(lines)
    unordered = unordered_decl_names(code_lines) | sibling_header_names(path)

    findings = []
    used_waivers = set()

    def waived(lineno):
        for candidate in (lineno, lineno - 1):
            if candidate in waivers:
                used_waivers.add(candidate)
                if waivers[candidate] is None:
                    findings.append(
                        Finding(display, candidate, "untagged-waiver",
                                "det-lint waiver without a tag: name the "
                                "reason (e.g. fixed-shape, order-independent)"))
                return True
        return False

    for lineno, code in enumerate(code_lines, start=1):
        if RANDOM_RE.search(code) and not waived(lineno):
            findings.append(Finding(
                display, lineno, "banned-random",
                "unseeded randomness on a contract path; route through the "
                "seeded PRNG plumbing"))
        if CLOCK_RE.search(code) and not waived(lineno):
            findings.append(Finding(
                display, lineno, "banned-clock",
                "clock read on a contract path; timing belongs in bench/ "
                "or the service layer"))
        if POINTER_KEY_RE.search(code) and not waived(lineno):
            findings.append(Finding(
                display, lineno, "pointer-key",
                "ordered container keyed on a pointer: iteration order is "
                "allocation-address order"))
        if SORT_RE.search(code) and not waived(lineno):
            findings.append(Finding(
                display, lineno, "unwaived-sort",
                "std::sort on a contract path needs a det-lint waiver "
                "stating why its result is thread-count-invariant"))
        for m in RANGE_FOR_RE.finditer(code):
            if m.group(1) in unordered and not waived(lineno):
                findings.append(Finding(
                    display, lineno, "unordered-iteration",
                    "range-for over unordered container '%s': iteration "
                    "order is hash-seed-dependent" % m.group(1)))
        for m in BEGIN_CALL_RE.finditer(code):
            if m.group(1) in unordered and not waived(lineno):
                findings.append(Finding(
                    display, lineno, "unordered-iteration",
                    "iterator over unordered container '%s': iteration "
                    "order is hash-seed-dependent" % m.group(1)))

    # A waiver nothing used is stale: it either outlived the construct it
    # excused or was misplaced — both worth a finding so waivers stay honest.
    for lineno in sorted(set(waivers) - used_waivers):
        findings.append(Finding(
            display, lineno, "stale-waiver",
            "det-lint waiver with no matching finding on this or the next "
            "line"))
    return findings


def contract_files():
    files = []
    for rel in CONTRACT_DIRS:
        root = os.path.join(REPO_ROOT, rel)
        for dirpath, _, filenames in sorted(os.walk(root)):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.join(dirpath, name))
    for rel in CONTRACT_FILES:
        path = os.path.join(REPO_ROOT, rel)
        if os.path.isfile(path):
            files.append(path)
    return files


def run_scan(paths):
    findings = []
    for path in paths:
        rel = os.path.relpath(path, REPO_ROOT)
        display = rel if not rel.startswith("..") else path
        findings.extend(lint_file(path, display))
    for f in findings:
        print(f)
    if findings:
        print("determinism-lint: %d finding(s)" % len(findings))
        return 1
    print("determinism-lint: clean (%d file(s) scanned)" % len(paths))
    return 0


def run_self_test():
    fixture_root = os.path.join(REPO_ROOT, FIXTURE_DIR)
    if not os.path.isdir(fixture_root):
        print("determinism-lint: fixture dir missing: %s" % fixture_root)
        return 1
    failures = 0
    checked = 0
    for name in sorted(os.listdir(fixture_root)):
        if not name.endswith(SOURCE_EXTS):
            continue
        path = os.path.join(fixture_root, name)
        findings = lint_file(path, os.path.join(FIXTURE_DIR, name))
        checked += 1
        if name.startswith("bad_"):
            if not findings:
                print("FAIL %s: expected >=1 finding, got none" % name)
                failures += 1
            else:
                print("ok   %s: %d finding(s) as expected" % (name, len(findings)))
        elif name.startswith("good_"):
            if findings:
                print("FAIL %s: expected clean, got:" % name)
                for f in findings:
                    print("     %s" % f)
                failures += 1
            else:
                print("ok   %s: clean as expected" % name)
        else:
            print("FAIL %s: fixture names must start with bad_ or good_" % name)
            failures += 1
    if checked == 0:
        print("determinism-lint: no fixtures found in %s" % fixture_root)
        return 1
    if failures:
        print("determinism-lint self-test: %d failure(s)" % failures)
        return 1
    print("determinism-lint self-test: %d fixture(s) ok" % checked)
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="determinism-contract lint (see module docstring)")
    parser.add_argument("paths", nargs="*",
                        help="files to scan (default: the contract paths)")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the linter against the fixture suite")
    args = parser.parse_args(argv)
    if args.self_test:
        if args.paths:
            parser.error("--self-test takes no paths")
        return run_self_test()
    paths = args.paths if args.paths else contract_files()
    for p in paths:
        if not os.path.isfile(p):
            print("determinism-lint: no such file: %s" % p)
            return 2
    return run_scan(paths)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
