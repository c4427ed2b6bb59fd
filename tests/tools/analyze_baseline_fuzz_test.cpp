// Untrusted `tsce_analyze --baseline` input: baseline_keys_from_sarif on a
// truncated, byte-flipped, spliced or bracket-planted SARIF document must
// return keys or throw a std::exception — never crash or overflow the stack.
// The valid documents are the analyzer's own SARIF output.  Seeded, so a
// failure reproduces; tier 1, so the sanitizer legs run it too.

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <string>
#include <vector>

#include "analyze/baseline.hpp"
#include "analyze/sarif.hpp"
#include "testing/mutate.hpp"
#include "util/rng.hpp"

namespace tsce::analyze {
namespace {

std::vector<Finding> sample_findings(std::size_t count) {
  std::vector<Finding> findings;
  for (std::size_t i = 0; i < count; ++i) {
    findings.push_back({"src/core/file" + std::to_string(i) + ".cpp", 10 * i,
                        i % 2 == 0 ? "deterministic-rng" : "no-alloc-hot",
                        "message \"" + std::to_string(i) + "\"\n",
                        "fp" + std::to_string(1000 + i)});
  }
  findings.push_back({"src/whole_file.cpp", 0, "deterministic-rng", "whole file", ""});
  return findings;
}

TEST(SarifBaselineUntrusted, UnmutatedDocumentYieldsOneKeyPerFinding) {
  const std::vector<Finding> findings = sample_findings(3);
  const std::vector<std::string> keys =
      baseline_keys_from_sarif(to_sarif(findings, "1.0.0"));
  ASSERT_EQ(keys.size(), findings.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], baseline_key(findings[i]));
  }
}

TEST(SarifBaselineUntrusted, MutatedDocumentsReturnKeysOrThrow) {
  const std::string docs[] = {to_sarif(sample_findings(3), "1.0.0"),
                              to_sarif(sample_findings(8), "1.0.0")};
  util::Rng rng(2025);
  std::size_t parsed = 0;
  std::size_t errors = 0;
  for (int round = 0; round < 3000; ++round) {
    const std::string& doc = docs[round % 2];
    const std::string text = testing::mutate_text(doc, docs[(round + 1) % 2], rng);
    try {
      (void)baseline_keys_from_sarif(text);
      ++parsed;
    } catch (const std::exception&) {
      ++errors;
    }
  }
  // Both outcomes occur, so neither branch of the property is vacuous.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(errors, 0u);
}

}  // namespace
}  // namespace tsce::analyze
