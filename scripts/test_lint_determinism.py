#!/usr/bin/env python3
"""Unit tests for scripts/lint_determinism.py (rule engine + escapes).

Each rule gets a firing case and a non-firing near-miss, and both escape
mechanisms (inline marker, allowlist entry) are exercised. Registered in
CMake as the `lint_determinism_unit` test.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lint_determinism as lint  # noqa: E402


def rules_hit(text, path="src/x.cpp", allowlist=()):
    return [v.rule for v in lint.scan_text(path, text, allowlist)]


class CRandomRule(unittest.TestCase):
    def test_rand_call_fires(self):
        self.assertEqual(rules_hit("int x = rand() % 6;\n"), ["c-random"])

    def test_srand_fires(self):
        self.assertEqual(rules_hit("srand(42);\n"), ["c-random"])

    def test_drand48_fires(self):
        self.assertEqual(rules_hit("double d = drand48();\n"), ["c-random"])

    def test_identifier_containing_rand_clean(self):
        self.assertEqual(rules_hit("int operand(int a);\nrng.next_rand_like();\n"), [])


class StdRandomRule(unittest.TestCase):
    def test_random_device_fires(self):
        self.assertEqual(rules_hit("std::random_device rd;\n"), ["std-random"])

    def test_mt19937_fires(self):
        self.assertEqual(rules_hit("std::mt19937_64 gen(seed);\n"), ["std-random"])

    def test_hxsp_rng_clean(self):
        self.assertEqual(rules_hit("hxsp::Rng rng(seed);\n"), [])


class WallClockRule(unittest.TestCase):
    def test_steady_clock_now_fires(self):
        self.assertEqual(
            rules_hit("auto t = std::chrono::steady_clock::now();\n"),
            ["wall-clock"])

    def test_c_time_fires(self):
        self.assertEqual(rules_hit("time_t t = time(nullptr);\n"), ["wall-clock"])

    def test_clock_gettime_fires(self):
        self.assertEqual(
            rules_hit("clock_gettime(CLOCK_MONOTONIC, &ts);\n"), ["wall-clock"])

    def test_runtime_identifier_clean(self):
        self.assertEqual(rules_hit("double runtime(const Result& r);\n"), [])

    def test_drain_time_member_clean(self):
        self.assertEqual(rules_hit("Cycle drain_cycles = spec.drain_time;\n"), [])


class UnorderedContainerRule(unittest.TestCase):
    def test_unordered_map_fires(self):
        self.assertEqual(
            rules_hit("std::unordered_map<int, int> m;\n"), ["unordered-container"])

    def test_unordered_set_fires(self):
        self.assertEqual(
            rules_hit("std::unordered_set<SwitchId> seen;\n"),
            ["unordered-container"])

    def test_ordered_map_clean(self):
        self.assertEqual(rules_hit("std::map<int, int> m;\n"), [])


class MutableStaticRule(unittest.TestCase):
    def test_function_scope_counter_fires(self):
        self.assertEqual(rules_hit("  static int counter = 0;\n"), ["mutable-static"])

    def test_uninitialized_static_fires(self):
        self.assertEqual(rules_hit("static long total;\n"), ["mutable-static"])

    def test_static_const_clean(self):
        self.assertEqual(
            rules_hit('  static const std::vector<int> cols = {1, 2};\n'), [])

    def test_static_constexpr_clean(self):
        self.assertEqual(rules_hit("static constexpr long kMode = -2;\n"), [])

    def test_static_member_function_clean(self):
        self.assertEqual(rules_hit("static ServerId cbrt_floor(ServerId n) {\n"), [])

    def test_static_free_function_decl_clean(self):
        self.assertEqual(rules_hit("static int parse_port(const char* s);\n"), [])

    def test_static_assert_clean(self):
        self.assertEqual(
            rules_hit('static_assert(sizeof(Event) == 32, "packed");\n'), [])


class ThreadLocalRule(unittest.TestCase):
    def test_thread_local_fires(self):
        self.assertEqual(
            rules_hit("thread_local std::vector<int> scratch;\n"),
            ["thread-local"])

    def test_static_thread_local_reports_both(self):
        hits = rules_hit("static thread_local int depth = 0;\n")
        self.assertIn("thread-local", hits)


class PointerKeyRule(unittest.TestCase):
    def test_pointer_key_map_fires(self):
        self.assertEqual(
            rules_hit("std::map<Packet*, int> owners;\n"), ["pointer-key"])

    def test_pointer_key_set_fires(self):
        self.assertEqual(
            rules_hit("std::set<const Router*> visited;\n"), ["pointer-key"])

    def test_pointer_value_clean(self):
        self.assertEqual(rules_hit("std::map<int, Packet*> by_id;\n"), [])


class SyncPrimitiveRule(unittest.TestCase):
    def test_atomic_fires(self):
        self.assertEqual(
            rules_hit("mutable std::atomic<long> rows_built_{0};\n"),
            ["sync-primitive"])

    def test_mutex_and_lock_guard_fire(self):
        self.assertEqual(
            rules_hit("std::mutex mu_;\nstd::lock_guard<std::mutex> lock(mu_);\n"),
            ["sync-primitive", "sync-primitive"])

    def test_condition_variable_and_unique_lock_fire(self):
        self.assertEqual(
            rules_hit("std::condition_variable cv;\n"
                      "std::unique_lock<std::mutex> lock(mu);\n"),
            ["sync-primitive", "sync-primitive"])

    def test_plain_counter_and_include_clean(self):
        self.assertEqual(
            rules_hit("#include <atomic>\nmutable long rows_built_ = 0;\n"), [])

    def test_allowlisted_pool_clean(self):
        allow = lint.parse_allowlist("src/util/thread_pool:sync-primitive\n")
        self.assertEqual(
            rules_hit("std::mutex mu_;\n", path="src/util/thread_pool.hpp",
                      allowlist=allow),
            [])

    def test_repo_allowlist_does_not_cover_routing_or_topology(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "scripts", "determinism_allowlist.txt")) as f:
            allow = lint.parse_allowlist(f.read())
        for path in ("src/topology/computed_distance.hpp",
                     "src/routing/mechanism.cpp", "src/core/escape_updown.cpp",
                     "src/sim/network.cpp"):
            self.assertEqual(
                rules_hit("std::mutex mu_;\n", path=path, allowlist=allow),
                ["sync-primitive"], path)


class CommentAndStringStripping(unittest.TestCase):
    def test_line_comment_mention_clean(self):
        self.assertEqual(
            rules_hit("// not static/thread_local so sweep workers never share\n"), [])

    def test_block_comment_mention_clean(self):
        self.assertEqual(
            rules_hit("/* rand() and std::mt19937 are banned here */\nint x;\n"), [])

    def test_string_literal_mention_clean(self):
        self.assertEqual(
            rules_hit('log("falling back to rand() is forbidden");\n'), [])

    def test_line_numbers_survive_block_comments(self):
        text = "/* line one\n   line two */\nint x = rand();\n"
        vs = lint.scan_text("src/x.cpp", text)
        self.assertEqual([(v.rule, v.line) for v in vs], [("c-random", 3)])

    def test_code_after_comment_still_fires(self):
        self.assertEqual(
            rules_hit("int x = rand(); // seeded elsewhere, honest\n"),
            ["c-random"])


class InlineAllowEscape(unittest.TestCase):
    def test_inline_allow_suppresses(self):
        self.assertEqual(
            rules_hit("int x = rand();  // det-lint: allow(c-random)\n"), [])

    def test_inline_allow_wrong_rule_does_not_suppress(self):
        self.assertEqual(
            rules_hit("int x = rand();  // det-lint: allow(wall-clock)\n"),
            ["c-random"])

    def test_inline_allow_star_suppresses_everything(self):
        self.assertEqual(
            rules_hit("static thread_local int d = rand();  // det-lint: allow(*)\n"),
            [])

    def test_inline_allow_only_covers_its_line(self):
        text = ("int a = rand();  // det-lint: allow(c-random)\n"
                "int b = rand();\n")
        vs = lint.scan_text("src/x.cpp", text)
        self.assertEqual([(v.rule, v.line) for v in vs], [("c-random", 2)])


class AllowlistEscape(unittest.TestCase):
    def test_allowlist_entry_suppresses(self):
        allow = lint.parse_allowlist("src/legacy.cpp:c-random\n")
        self.assertEqual(
            rules_hit("int x = rand();\n", path="src/legacy.cpp", allowlist=allow),
            [])

    def test_allowlist_star_rule_suppresses_all(self):
        allow = lint.parse_allowlist("tools/:*\n")
        self.assertEqual(
            rules_hit("thread_local int d = rand();\n",
                      path="tools/gen.cpp", allowlist=allow),
            [])

    def test_allowlist_other_path_does_not_suppress(self):
        allow = lint.parse_allowlist("src/legacy.cpp:c-random\n")
        self.assertEqual(
            rules_hit("int x = rand();\n", path="src/fresh.cpp", allowlist=allow),
            ["c-random"])

    def test_allowlist_comments_and_blanks_ignored(self):
        allow = lint.parse_allowlist("# a comment line\n\n")
        self.assertEqual(allow, [])

    def test_allowlist_trailing_comment_stripped(self):
        allow = lint.parse_allowlist("src/a.cpp:c-random  # why: golden seed\n")
        self.assertEqual(allow, [("src/a.cpp", "c-random")])

    def test_allowlist_unknown_rule_rejected(self):
        with self.assertRaises(ValueError):
            lint.parse_allowlist("src/a.cpp:no-such-rule\n")

    def test_allowlist_missing_colon_rejected(self):
        with self.assertRaises(ValueError):
            lint.parse_allowlist("src/a.cpp\n")


class AcceptanceScenario(unittest.TestCase):
    """ISSUE acceptance: seeding rand() into a scratch file must fail."""

    def test_scratch_file_with_rand_fails(self):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            src = os.path.join(d, "src")
            os.makedirs(src)
            with open(os.path.join(src, "scratch.cpp"), "w") as f:
                f.write("int jitter() { return rand() % 7; }\n")
            rc = lint.main(["--root", d, "src"])
            self.assertEqual(rc, 1)

    def test_clean_tree_passes(self):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            src = os.path.join(d, "src")
            os.makedirs(src)
            with open(os.path.join(src, "ok.cpp"), "w") as f:
                f.write("int add(int a, int b) { return a + b; }\n")
            rc = lint.main(["--root", d, "src"])
            self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
