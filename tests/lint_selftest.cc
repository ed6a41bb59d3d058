// Self-test for tools/colt_lint: every fixture in tests/lint_fixtures/
// fails with exactly the expected rule id, the suppression machinery works,
// and — the gate that matters — the real repository tree lints clean.
//
// Fixture files are read from LINT_FIXTURES_DIR and linted under a claimed
// repo-relative path (the path decides which rules and module DAG position
// apply); they are never compiled.
#include "lint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>

namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(LINT_FIXTURES_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::set<std::string> RulesHit(const std::vector<colt_lint::Violation>& vs) {
  std::set<std::string> rules;
  for (const auto& v : vs) rules.insert(v.rule);
  return rules;
}

struct FixtureCase {
  const char* fixture;
  const char* claimed_path;
  const char* expected_rule;
  int64_t min_findings;
};

// gtest lists each case with this rendering, and test discovery copies it
// into the ctest name. Without it gtest dumps the struct's bytes, whose
// string pointers move whenever the binary's layout does.
void PrintTo(const FixtureCase& c, std::ostream* os) { *os << c.fixture; }

class LintFixtureTest : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(LintFixtureTest, FailsWithExpectedRule) {
  const FixtureCase& c = GetParam();
  const auto violations = colt_lint::LintFileContent(
      c.claimed_path, ReadFixture(c.fixture));
  ASSERT_GE(static_cast<int64_t>(violations.size()), c.min_findings)
      << "fixture " << c.fixture;
  EXPECT_EQ(RulesHit(violations), std::set<std::string>{c.expected_rule})
      << "fixture " << c.fixture << " first: " << violations[0].ToString();
  for (const auto& v : violations) {
    EXPECT_EQ(v.file, c.claimed_path);
    EXPECT_GT(v.line, 0);
    EXPECT_FALSE(v.message.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintFixtureTest,
    ::testing::Values(
        FixtureCase{"layering_upward.cc", "src/catalog/bad.cc", "layering",
                    1},
        FixtureCase{"layering_sideways.cc", "src/storage/bad.cc", "layering",
                    1},
        FixtureCase{"status_discard.cc", "src/core/bad.cc", "status-discard",
                    1},
        FixtureCase{"determinism_rand.cc", "src/core/bad.cc", "determinism",
                    3},
        FixtureCase{"determinism_system_clock.cc", "src/core/bad.cc",
                    "determinism", 1},
        FixtureCase{"raw_new.cc", "src/core/bad.cc", "raw-new-delete", 2},
        FixtureCase{"naked_thread.cc", "src/core/bad.cc", "naked-thread", 3},
        FixtureCase{"iostream_include.cc", "src/core/bad.cc", "iostream", 1},
        FixtureCase{"metric_name_bad.cc", "src/core/bad.cc", "metric-name",
                    3},
        FixtureCase{"provenance_event_name_bad.cc", "src/core/bad.cc",
                    "metric-name", 3},
        FixtureCase{"unchecked_file_io.cc", "src/core/bad.cc",
                    "unchecked-file-io", 3},
        FixtureCase{"whitespace_bad.cc", "src/core/bad.cc", "whitespace", 3},
        FixtureCase{"suppression_unknown_rule.cc", "src/core/bad.cc",
                    "bad-suppression", 1},
        FixtureCase{"thread_role_owner_call.cc", "src/core/bad.cc",
                    "thread-role", 1},
        FixtureCase{"thread_role_transitive.cc", "src/core/bad.cc",
                    "thread-role", 1},
        FixtureCase{"thread_role_pool_unannotated.cc", "src/core/bad.cc",
                    "thread-role", 1},
        FixtureCase{"thread_role_conflict.cc", "src/core/bad.cc",
                    "thread-role", 1},
        FixtureCase{"thread_role_on_variable.cc", "src/core/bad.cc",
                    "thread-role", 1},
        FixtureCase{"thread_role_partial_suppression.cc", "src/core/bad.cc",
                    "thread-role", 1},
        FixtureCase{"worker_purity_provenance.cc", "src/core/bad.cc",
                    "worker-purity", 1},
        FixtureCase{"worker_purity_metrics.cc", "src/core/bad.cc",
                    "worker-purity", 1},
        FixtureCase{"worker_purity_rng.cc", "src/core/bad.cc",
                    "worker-purity", 1},
        FixtureCase{"worker_purity_member_write.cc", "src/core/bad.cc",
                    "worker-purity", 1}),
    [](const ::testing::TestParamInfo<FixtureCase>& info) {
      std::string name = info.param.fixture;
      return name.substr(0, name.find('.'));
    });

TEST(LintSuppressionTest, JustifiedAllowSilencesTheRule) {
  const auto violations = colt_lint::LintFileContent(
      "src/core/bad.cc", ReadFixture("suppression_ok.cc"));
  EXPECT_TRUE(violations.empty())
      << "first: " << violations[0].ToString();
}

TEST(LintSuppressionTest, MissingJustificationFailsAndDoesNotSilence) {
  const auto violations = colt_lint::LintFileContent(
      "src/core/bad.cc",
      ReadFixture("suppression_missing_justification.cc"));
  const std::set<std::string> expected = {"bad-suppression", "determinism"};
  EXPECT_EQ(RulesHit(violations), expected);
}

TEST(LintSuppressionTest, AllowNextLineSilencesExactlyThatLine) {
  const auto violations = colt_lint::LintFileContent(
      "src/core/bad.cc", ReadFixture("suppression_next_line_ok.cc"));
  EXPECT_TRUE(violations.empty())
      << "first: " << violations[0].ToString();
}

TEST(LintFalsePositiveTest, LegalConstructsProduceNoFindings) {
  const auto violations = colt_lint::LintFileContent(
      "src/core/ok.cc", ReadFixture("false_positive.cc"));
  EXPECT_TRUE(violations.empty())
      << "first: " << violations[0].ToString();
}

TEST(LintFalsePositiveTest, LegalRolePatternsProduceNoFindings) {
  const auto violations = colt_lint::LintFileContent(
      "src/core/ok.cc", ReadFixture("thread_role_false_positive.cc"));
  EXPECT_TRUE(violations.empty())
      << "first: " << violations[0].ToString();
}

TEST(LintCrossFileTest, RoleAnnotationsResolveAcrossFiles) {
  const auto violations = colt_lint::LintFiles(
      {{"src/optimizer/decl.h", ReadFixture("cross_file_decl.h")},
       {"src/core/use.cc", ReadFixture("cross_file_use.cc")}});
  ASSERT_EQ(violations.size(), 1u)
      << "first: " << violations[0].ToString();
  EXPECT_EQ(violations[0].file, "src/core/use.cc");
  EXPECT_EQ(violations[0].rule, "thread-role");
  EXPECT_NE(violations[0].message.find("BumpVersion"), std::string::npos)
      << violations[0].message;
}

TEST(LintFileIoTest, PersistLayerIsExempt) {
  // The same discards that fail under src/core pass inside the sanctioned
  // file-I/O layer.
  const auto violations = colt_lint::LintFileContent(
      "src/common/persist/checkpoint.cc", ReadFixture("unchecked_file_io.cc"));
  EXPECT_TRUE(violations.empty())
      << "first: " << violations[0].ToString();
}

TEST(LintMetricNameTest, ProvenanceImplementationIsExempt) {
  // The recorder implementation takes event names as parameters, like the
  // metrics registry; the literal rule applies at emission sites only.
  const auto violations = colt_lint::LintFileContent(
      "src/common/provenance.cc",
      ReadFixture("provenance_event_name_bad.cc"));
  EXPECT_TRUE(violations.empty())
      << "first: " << violations[0].ToString();
}

TEST(LintRuleCatalogTest, KnownRulesRoundTrip) {
  for (const std::string& rule : colt_lint::AllRules()) {
    EXPECT_TRUE(colt_lint::IsKnownRule(rule)) << rule;
  }
  EXPECT_FALSE(colt_lint::IsKnownRule("no-such-rule"));
  EXPECT_FALSE(colt_lint::IsKnownRule("bad-suppression"))
      << "bad-suppression must not be suppressible";
}

TEST(LintOutputTest, ViolationFormatsAsFileLineRuleMessage) {
  colt_lint::Violation v{"src/core/x.cc", 12, "layering", "boom"};
  EXPECT_EQ(v.ToString(), "src/core/x.cc:12: layering: boom");
}

// The acceptance gate: the real tree has zero violations. COLT_REPO_ROOT is
// injected by CMake and points at the source checkout.
TEST(LintTreeTest, RepositoryLintsClean) {
  const auto violations = colt_lint::LintTree(COLT_REPO_ROOT);
  for (const auto& v : violations) {
    ADD_FAILURE() << v.ToString();
  }
}

}  // namespace
