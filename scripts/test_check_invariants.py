#!/usr/bin/env python3
"""Unit tests for scripts/check_invariants.py.

Three layers, mirroring how the lint is trusted in CI:
  * the known-bad fixtures under tests/lint_fixtures/bad/ must each trip
    exactly their rule (a lint that stops firing is worse than no lint);
  * the known-good fixtures under tests/lint_fixtures/good/ must pass;
  * the live tree must pass (the same invocation CI runs).

Registered as ctest `invariant_lint_selftest`; run directly with
`python3 scripts/test_check_invariants.py`.
"""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import check_invariants as ci

REPO_ROOT = ci.REPO_ROOT
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def rules_by_file(findings):
    out = {}
    for rel, _line, rule, _msg in findings:
        out.setdefault(rel, set()).add(rule)
    return out


class BadFixtures(unittest.TestCase):
    def setUp(self):
        self.findings = ci.lint_tree(FIXTURES / "bad")
        self.by_file = rules_by_file(self.findings)

    def test_raw_decode_fires(self):
        self.assertEqual(self.by_file.get("src/net/bad_decode.cpp"),
                         {"raw-decode"})

    def test_atomic_rationale_fires(self):
        self.assertEqual(self.by_file.get("src/serve/bad_atomic.cpp"),
                         {"atomic-rationale"})

    def test_histogram_math_fires(self):
        self.assertEqual(self.by_file.get("src/exec/bad_histogram.cpp"),
                         {"histogram-math"})

    def test_exec_arena_fires(self):
        self.assertEqual(self.by_file.get("src/exec/bad_arena.cpp"),
                         {"exec-arena"})

    def test_no_other_files_flagged(self):
        self.assertEqual(
            set(self.by_file),
            {"src/net/bad_decode.cpp", "src/serve/bad_atomic.cpp",
             "src/exec/bad_histogram.cpp", "src/exec/bad_arena.cpp"})


class GoodFixtures(unittest.TestCase):
    def test_good_tree_passes(self):
        self.assertEqual(ci.lint_tree(FIXTURES / "good"), [])


class RuleDetails(unittest.TestCase):
    """Edge cases the tree relies on, pinned at the lint_file level."""

    def test_decl_comment_covers_all_uses(self):
        text = "\n".join([
            "// relaxed: stats counter",
            "std::atomic<uint64_t> hits{0};",
            "void A() { hits.fetch_add(1, std::memory_order_relaxed); }",
            "void B() { hits.fetch_add(1, std::memory_order_relaxed); }",
        ])
        self.assertEqual(ci.lint_file("src/x/a.cpp", text), [])

    def test_decl_block_shares_one_comment(self):
        decls = ["// relaxed: counters mirroring stats"] + [
            f"std::atomic<uint64_t> c{i}{{0}};" for i in range(8)]
        uses = [f"void F{i}() {{ c{i}.fetch_add(1, "
                "std::memory_order_relaxed); }" for i in range(8)]
        text = "\n".join(decls + uses)
        self.assertEqual(ci.lint_file("src/x/a.cpp", text), [])

    def test_wrapped_cas_call_resolves_to_decl(self):
        text = "\n".join([
            "// relaxed: max tracker, monotone",
            "std::atomic<uint64_t> max_{0};",
            "void Track(uint64_t v) {",
            "  uint64_t prev = max_.load(std::memory_order_relaxed);",
            "  while (v > prev && !max_.compare_exchange_weak(",
            "             prev, v, std::memory_order_relaxed)) {",
            "  }",
            "}",
        ])
        self.assertEqual(ci.lint_file("src/x/a.cpp", text), [])

    def test_undocumented_atomic_flagged(self):
        text = "\n".join([
            "std::atomic<uint64_t> hits{0};",
            "",
            "",
            "",
            "",
            "void A() { hits.fetch_add(1, std::memory_order_relaxed); }",
        ])
        findings = ci.lint_file("src/x/a.cpp", text)
        self.assertEqual([f[2] for f in findings], ["atomic-rationale"])

    def test_raw_ok_marker_line_above(self):
        text = "\n".join([
            "// lint: raw-ok (sockaddr ABI, not payload)",
            "bind(fd, reinterpret_cast<sockaddr*>(&a),",
            "     sizeof(a));",
        ])
        self.assertEqual(ci.lint_file("src/net/a.cpp", text), [])

    def test_codec_layer_files_exempt_from_raw_decode(self):
        text = "std::memcpy(&v, p, sizeof(v));"
        self.assertEqual(ci.lint_file("src/common/wire.cpp", text), [])
        self.assertEqual([f[2] for f in ci.lint_file("src/net/a.cpp", text)],
                         ["raw-decode"])

    def test_knum_buckets_allowed_outside_obs(self):
        # The wire decoder bounds-checks indexes against the bucket-space
        # size; that is consumption, not re-derivation.
        text = "if (index >= obs::kNumBuckets) return bad();"
        self.assertEqual(ci.lint_file("src/net/frame.cpp", text), [])


    def test_exec_arena_scoped_to_exec_and_code(self):
        text = "ArenaVector<uint32_t> rows_;"
        self.assertEqual([f[2] for f in ci.lint_file("src/exec/a.h", text)],
                         ["exec-arena"])
        self.assertEqual(ci.lint_file("src/storage/a.h", text), [])
        self.assertEqual(
            ci.lint_file("src/exec/a.h", "// not a MemArena: one query"), [])


class LiveTree(unittest.TestCase):
    def test_live_tree_is_clean(self):
        findings = ci.lint_tree(REPO_ROOT)
        self.assertEqual(
            findings, [],
            "the live tree must stay invariant-clean; fix the code or "
            "document the exception as the rule's message says")


if __name__ == "__main__":
    unittest.main()
