#!/usr/bin/env python3
"""Repo-specific determinism lint for hxsp.

The simulator's contract is bit-identical output across worker counts,
shards, and checkpoint resumes (see README "Determinism"). That contract
dies quietly when code picks up entropy from outside the seeded Rng
streams, so this lint statically bans the known nondeterminism vectors
from src/:

  rule id               bans
  --------------------  --------------------------------------------------
  c-random              rand()/srand()/random()/drand48()/... (C RNGs)
  std-random            std::random_device / std::mt19937 / the <random>
                        engines (use util/rng.hpp's seeded Rng instead)
  wall-clock            time()/clock()/gettimeofday()/clock_gettime() and
                        std::chrono::*_clock::now() (wall-clock reads)
  unordered-container   std::unordered_map / std::unordered_set — their
                        iteration order is implementation-defined and has
                        fed "random" result drift before (PR 1 scrubbed
                        these out of the hot paths)
  mutable-static        mutable `static` variables (function- or
                        file-scope); shared across sweep workers
  thread-local          thread_local storage (scoped scratch buffers must
                        be instance members, the PR 1 rule)
  pointer-key           pointer keys in std::map/std::set — ordering then
                        depends on allocation addresses
  sync-primitive        std::atomic / std::mutex / std::condition_variable /
                        std::lock_guard / std::unique_lock — simulation
                        code runs on the thread that steps the Network;
                        only the allowlisted pool, sweep and flight-recorder
                        files may synchronise threads

Escapes, in decreasing locality:
  * a trailing comment `// det-lint: allow(<rule-id>)` on the flagged line;
  * an entry `<path-substring>:<rule-id>` (or `<path-substring>:*`) in
    scripts/determinism_allowlist.txt.
Every escape should say why in an adjacent comment; the allowlist file is
reviewed like code.

Usage: lint_determinism.py [--root DIR] [--allowlist FILE] [PATH...]
PATHs (default: src) are files or directories relative to --root.
Exit status: 0 clean, 1 violations found, 2 bad invocation.
"""

import argparse
import os
import re
import sys

# --- rules -----------------------------------------------------------------

RULES = [
    (
        "c-random",
        re.compile(r"\b(?:rand|srand|rand_r|drand48|lrand48|mrand48|random|srandom)\s*\("),
        "C library RNG; draw from a seeded hxsp::Rng instead",
    ),
    (
        "std-random",
        re.compile(
            r"\bstd::(?:random_device|mt19937(?:_64)?|minstd_rand0?|"
            r"default_random_engine|knuth_b|ranlux\w*)\b"
        ),
        "<random> engine/device; draw from a seeded hxsp::Rng instead",
    ),
    (
        "wall-clock",
        re.compile(
            r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)::now\b"
            r"|\b(?:gettimeofday|clock_gettime|timespec_get|time|clock)\s*\("
        ),
        "wall-clock read; simulation state may only depend on Cycle",
    ),
    (
        "unordered-container",
        re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
        "unordered container; iteration order is implementation-defined",
    ),
    (
        "thread-local",
        re.compile(r"\bthread_local\b"),
        "thread_local state; use instance-scoped scratch (the PR 1 rule)",
    ),
    (
        "pointer-key",
        re.compile(r"\bstd::(?:map|set|multimap|multiset)\s*<\s*[^,<>]*\*\s*[,>]"),
        "pointer-keyed ordered container; ordering depends on addresses",
    ),
    (
        "sync-primitive",
        re.compile(
            r"\bstd::(?:atomic\w*|mutex|condition_variable|lock_guard|unique_lock)\b"
        ),
        "thread synchronisation; simulation code runs on the stepping thread",
    ),
]

MUTABLE_STATIC_ID = "mutable-static"
MUTABLE_STATIC_MSG = "mutable static variable; shared across sweep workers"

ALLOW_MARKER = re.compile(r"//\s*det-lint:\s*allow\(([a-z*-]+)\)")

ALL_RULE_IDS = [rid for rid, _, _ in RULES] + [MUTABLE_STATIC_ID]


def _mutable_static_hit(stripped_line):
    """True when the line declares a mutable static *variable*.

    `static const`/`static constexpr` data and `static` functions (a `(`
    before any `=`, `;` or `{`) are deterministic and allowed.
    """
    m = re.match(r"\s*static\s+(.*)", stripped_line)
    if not m:
        return False
    rest = m.group(1)
    while True:
        q = re.match(r"(?:inline|struct|class|unsigned|signed)\s+(.*)", rest)
        if not q:
            break
        rest = q.group(1)
    if re.match(r"(?:const|constexpr)\b", rest):
        return False
    if re.match(r"(?:assert|_assert)\b", rest):  # static_assert safety net
        return False
    # Classify by the first structural character: a parameter list means a
    # function declaration, anything else is a variable definition.
    for ch in rest:
        if ch == "(":
            return False
        if ch in "=;{":
            return True
    return False


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure.

    Run AFTER collecting `det-lint: allow` markers (they live in comments).
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                i += 1
                out.append(" ")
                continue
            if c == "'":
                state = "char"
                i += 1
                out.append(" ")
                continue
            out.append(c)
            i += 1
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append(c)
            i += 1
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
            i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                state = "code"
            elif c == "\n":  # unterminated (raw string etc.): bail to code
                state = "code"
                out.append(c)
                i += 1
                continue
            i += 1
    return "".join(out)


class Violation:
    def __init__(self, path, line, rule, message, snippet):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.snippet = snippet

    def __str__(self):
        return "%s:%d: [%s] %s\n    %s" % (
            self.path, self.line, self.rule, self.message, self.snippet.strip())


def parse_allowlist(text):
    """`path-substring:rule-id` entries; '#' starts a comment."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError("allowlist line %d: expected path:rule" % lineno)
        path_part, rule = line.rsplit(":", 1)
        rule = rule.strip()
        if rule != "*" and rule not in ALL_RULE_IDS:
            raise ValueError("allowlist line %d: unknown rule %r" % (lineno, rule))
        entries.append((path_part.strip(), rule))
    return entries


def allowed(path, rule, inline_allows, line, allowlist):
    if rule in inline_allows.get(line, ()) or "*" in inline_allows.get(line, ()):
        return True
    norm = path.replace(os.sep, "/")
    for path_part, allowed_rule in allowlist:
        if path_part in norm and allowed_rule in ("*", rule):
            return True
    return False


def scan_text(path, text, allowlist=()):
    """Lints one translation unit; returns the Violation list."""
    inline_allows = {}
    raw_lines = text.splitlines()
    for lineno, raw in enumerate(raw_lines, 1):
        allows = ALLOW_MARKER.findall(raw)
        if allows:
            inline_allows[lineno] = tuple(allows)

    stripped = strip_comments_and_strings(text).splitlines()
    violations = []
    for lineno, line in enumerate(stripped, 1):
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else line
        for rule, pattern, message in RULES:
            if pattern.search(line) and not allowed(
                    path, rule, inline_allows, lineno, allowlist):
                violations.append(Violation(path, lineno, rule, message, raw))
        if _mutable_static_hit(line) and not allowed(
                path, MUTABLE_STATIC_ID, inline_allows, lineno, allowlist):
            violations.append(
                Violation(path, lineno, MUTABLE_STATIC_ID, MUTABLE_STATIC_MSG, raw))
    return violations


SOURCE_EXTS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")


def iter_source_files(root, paths):
    for p in paths:
        full = os.path.join(root, p)
        if os.path.isfile(full):
            yield p
        elif os.path.isdir(full):
            for dirpath, _, names in sorted(os.walk(full)):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        yield os.path.relpath(os.path.join(dirpath, name), root)
        else:
            raise FileNotFoundError(full)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to lint (default: src)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: the script's parent dir)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: scripts/determinism_allowlist.txt)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rid in ALL_RULE_IDS:
            print(rid)
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    allowlist_path = args.allowlist or os.path.join(
        root, "scripts", "determinism_allowlist.txt")
    allowlist = ()
    if os.path.exists(allowlist_path):
        with open(allowlist_path, "r", encoding="utf-8") as f:
            try:
                allowlist = parse_allowlist(f.read())
            except ValueError as e:
                print("lint_determinism: %s: %s" % (allowlist_path, e),
                      file=sys.stderr)
                return 2

    paths = args.paths or ["src"]
    total = 0
    files = 0
    try:
        for rel in iter_source_files(root, paths):
            files += 1
            with open(os.path.join(root, rel), "r", encoding="utf-8") as f:
                text = f.read()
            for v in scan_text(rel, text, allowlist):
                print(v)
                total += 1
    except FileNotFoundError as e:
        print("lint_determinism: no such path: %s" % e, file=sys.stderr)
        return 2

    if total:
        print("\nlint_determinism: %d violation(s) in %d file(s)" % (total, files),
              file=sys.stderr)
        return 1
    print("lint_determinism: %d file(s) clean" % files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
