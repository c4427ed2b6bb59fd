/// \file nested_json_test.cpp
/// Deeply nested JSON given to the three command-line readers of untrusted
/// JSON — `tsce_cli --load-model`, `tsce_analyze --baseline` and
/// `trace_report` — must end in an error message and a nonzero exit code,
/// not a signal.  Without a depth cap the recursive-descent parser overflows
/// its stack on these inputs (50,000 levels for the model loader, 200,000
/// for the other two on an 8 MB stack).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <string>

namespace {

struct RunResult {
  std::string output;  // stdout and stderr interleaved
  bool exited = false;  // false: killed by a signal
  int exit_code = -1;
};

RunResult run(const std::string& command) {
  RunResult result;
  std::FILE* pipe = popen((command + " 2>&1 </dev/null").c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return result;
  }
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  result.exited = WIFEXITED(status);
  result.exit_code = result.exited ? WEXITSTATUS(status) : -1;
  return result;
}

/// Writes \p levels open brackets (one line, newline-terminated) to a temp
/// file and returns its path.
std::string write_brackets(const std::string& name, std::size_t levels) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << std::string(levels, '[') << '\n';
  return path;
}

TEST(NestedJson, CliLoadModelReportsAnError) {
#ifndef TSCE_CLI_BIN
  GTEST_SKIP() << "examples not built (TSCE_BUILD_EXAMPLES=OFF)";
#else
  const std::string path = write_brackets("tsce_nested_model.json", 50000);
  const RunResult r = run(std::string(TSCE_CLI_BIN) + " --load-model " + path);
  ASSERT_TRUE(r.exited) << "killed by a signal: " << r.output;
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("error: nesting deeper than 512 levels"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
#endif
}

TEST(NestedJson, AnalyzeBaselineReportsAnError) {
  const std::string baseline = write_brackets("tsce_nested_baseline.sarif", 200000);
  const std::string source = ::testing::TempDir() + "tsce_nested_source.cpp";
  std::ofstream(source) << "int answer() { return 42; }\n";
  const RunResult r = run(std::string(TSCE_ANALYZE_BIN) + " --file " + source +
                          " --as src/core/fixture.cpp --baseline " + baseline);
  ASSERT_TRUE(r.exited) << "killed by a signal: " << r.output;
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("malformed baseline"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("nesting deeper than 512 levels"), std::string::npos)
      << r.output;
  std::remove(baseline.c_str());
  std::remove(source.c_str());
}

TEST(NestedJson, TraceReportCountsTheLineAsMalformed) {
  const std::string path = write_brackets("tsce_nested_trace.jsonl", 200000);
  const RunResult r = run(std::string(TSCE_TRACE_REPORT_BIN) + " " + path);
  ASSERT_TRUE(r.exited) << "killed by a signal: " << r.output;
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("(1 malformed lines)"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

}  // namespace
