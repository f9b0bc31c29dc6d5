#!/usr/bin/env python3
"""Unit tests for tools/ada_lint.py's test-only-api rule.

Each case writes a small fixture tree (src/, tests/ and the caller
directories) into a temporary directory, points the linter's repo root
at it and lints src/. Run from the repo root:

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import os
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ada_lint  # noqa: E402

GUARD = "ADAHEALTH_LIB_API_H_"

FREE_HEADER = """\
#ifndef {guard}
#define {guard}
namespace lib {{
{waiver}int Measure(int value);
}}  // namespace lib
#endif  // {guard}
"""

FREE_SOURCE = """\
#include "lib/api.h"
namespace lib {
int Measure(int value) { return value * 2; }
}  // namespace lib
"""

MEMBER_HEADER = """\
#ifndef {guard}
#define {guard}
namespace lib {{
class Base {{
 public:
  virtual ~Base() = default;
  virtual int Kind() const = 0;
}};

class Gauge : public Base {{
 public:
  explicit Gauge(int size);
  ~Gauge() override;
  Gauge& operator=(const Gauge&) = delete;
  int Kind() const override {{ return 1; }}
  int Size() const {{ return size_; }}
{waiver}  void Measure(int value);

 private:
  int size_ = 0;
}};
}}  // namespace lib
#endif  // {guard}
"""

MEMBER_SOURCE = """\
#include "lib/api.h"
namespace lib {
Gauge::Gauge(int size) : size_(size) {}
Gauge::~Gauge() = default;
void Gauge::Measure(int value) { size_ = value; }
}  // namespace lib
"""

# Size has a caller outside tests/; Kind and Measure do not.
MEMBER_CALLERS = """\
#include "lib/api.h"
int Drive() {
  lib::Gauge gauge(3);
  return gauge.Size();
}
"""

TEST_CALL = """\
#include "lib/api.h"
void TestIt() { lib::Measure(1); }
"""

MEMBER_TEST_CALL = """\
#include "lib/api.h"
void TestIt() { lib::Gauge gauge(1); gauge.Measure(2); }
"""

CALLER = """\
#include "lib/api.h"
int Use() { return lib::Measure(3); }
"""

MEMBER_CALLER = """\
#include "lib/api.h"
void Use() { lib::Gauge gauge(1); gauge.Measure(3); }
"""

WAIVER = ("// ada-lint: allow(test-only-api): test hook: lets tests "
          "drive the gauge.\n")


class TestOnlyApiTest(unittest.TestCase):

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        self._saved_root = ada_lint.REPO_ROOT
        ada_lint.REPO_ROOT = self.root

    def tearDown(self):
        ada_lint.REPO_ROOT = self._saved_root
        self._tmp.cleanup()

    def write(self, rel_path, text):
        path = os.path.join(self.root, rel_path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(textwrap.dedent(text))

    def findings(self):
        files = ada_lint.collect_files([os.path.join(self.root, "src")])
        return [(f.path, f.line, f.message.split("`")[1])
                for f in ada_lint.lint_test_only_api(files)]

    def free_tree(self, waiver="", caller_dir=None):
        self.write("src/lib/api.h",
                   FREE_HEADER.format(guard=GUARD, waiver=waiver))
        self.write("src/lib/api.cc", FREE_SOURCE)
        self.write("tests/api_test.cc", TEST_CALL)
        if caller_dir is not None:
            self.write(os.path.join(caller_dir, "use.cc"), CALLER)

    def member_tree(self, waiver="", caller_dir=None):
        self.write("src/lib/api.h",
                   MEMBER_HEADER.format(guard=GUARD, waiver=waiver))
        self.write("src/lib/api.cc", MEMBER_SOURCE)
        self.write("src/lib/drive.cc", MEMBER_CALLERS)
        self.write("tests/api_test.cc", MEMBER_TEST_CALL)
        if caller_dir is not None:
            self.write(os.path.join(caller_dir, "use.cc"), MEMBER_CALLER)

    # --- namespace-scope functions ------------------------------------

    def test_function_reached_only_from_tests_is_flagged(self):
        self.free_tree()
        self.assertEqual(self.findings(),
                         [(os.path.join("src", "lib", "api.h"), 4,
                           "Measure")])

    def test_waived_function_is_not_flagged(self):
        self.free_tree(waiver=WAIVER)
        self.assertEqual(self.findings(), [])

    def test_function_used_from_bench_is_not_flagged(self):
        self.free_tree(caller_dir="bench")
        self.assertEqual(self.findings(), [])

    def test_function_used_only_from_perfbench_is_not_flagged(self):
        self.free_tree(caller_dir="perfbench")
        self.assertEqual(self.findings(), [])

    # --- class members ------------------------------------------------

    def test_member_reached_only_from_tests_is_flagged(self):
        # Base::Kind is flagged at its declaration; Gauge's override of
        # it, the constructor, the destructor and the operator are never
        # candidates, and Size has a caller.
        self.member_tree()
        header = os.path.join("src", "lib", "api.h")
        self.assertEqual(self.findings(),
                         [(header, 7, "Kind"), (header, 17, "Measure")])

    def flagged_members(self):
        return [name for _, _, name in self.findings() if name != "Kind"]

    def test_waived_member_is_not_flagged(self):
        self.member_tree(waiver="  " + WAIVER)
        self.assertEqual(self.flagged_members(), [])

    def test_member_used_from_bench_is_not_flagged(self):
        self.member_tree(caller_dir="bench")
        self.assertEqual(self.flagged_members(), [])

    def test_member_used_only_from_perfbench_is_not_flagged(self):
        self.member_tree(caller_dir="perfbench")
        self.assertEqual(self.flagged_members(), [])

    def test_waiver_without_a_reason_does_not_count(self):
        self.member_tree(waiver="  // ada-lint: allow(test-only-api)\n")
        self.assertEqual(self.flagged_members(), ["Measure"])


if __name__ == "__main__":
    unittest.main()
