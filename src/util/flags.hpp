/// \file flags.hpp
/// Tiny declarative command-line flag parser for bench harnesses and examples.
///
/// Supports `--name=value`, `--name value`, and boolean `--name` /
/// `--name false` / `--no-name`.  Unknown flags and stray positional
/// arguments are errors so typos surface immediately; `--help` prints
/// registered flags with defaults and descriptions.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tsce::util {

class Flags {
 public:
  /// \p program_doc is printed at the top of --help output.
  explicit Flags(std::string program_doc) : doc_(std::move(program_doc)) {}

  /// Registers a flag bound to \p target (which holds the default value).
  void add(std::string_view name, std::int64_t* target, std::string_view help);
  void add(std::string_view name, double* target, std::string_view help);
  void add(std::string_view name, bool* target, std::string_view help);
  void add(std::string_view name, std::string* target, std::string_view help);

  /// Lets parse() collect positional arguments instead of rejecting them.
  void accept_positionals() noexcept { accept_positionals_ = true; }

  /// Parses argv.  Returns false (after printing help or an error to
  /// stderr/stdout) when the caller should exit with exit_code().
  [[nodiscard]] bool parse(int argc, char** argv);

  /// The process exit status after parse() returned false: 0 for --help,
  /// 2 for a usage error.
  [[nodiscard]] int exit_code() const noexcept { return exit_code_; }

  /// Positional arguments remaining after flag parsing.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  enum class Type { kInt, kDouble, kBool, kString };
  struct Entry {
    std::string name;
    Type type;
    void* target;
    std::string help;
    std::string default_repr;
  };

  void print_help() const;
  Entry* find(std::string_view name);
  static bool assign(Entry& entry, std::string_view value);
  bool usage_error();

  std::string doc_;
  std::vector<Entry> entries_;
  std::vector<std::string> positional_;
  bool accept_positionals_ = false;
  int exit_code_ = 0;
};

}  // namespace tsce::util
