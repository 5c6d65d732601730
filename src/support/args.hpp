#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace beepmis::support {

/// Minimal self-contained command-line parser for the CLI tools:
/// `--name value`, `--name=value`, and boolean `--flag` forms. Unknown
/// arguments are errors; `--help` is recognized automatically.
class ArgParser {
 public:
  /// What parse() found: arguments to run with, a help request, or an error.
  enum class Parsed { Ok, Help, Error };

  explicit ArgParser(std::string program_description);

  /// Declares a boolean flag (default false).
  void add_flag(const std::string& name, const std::string& help);
  /// Declares a string-valued option with a default.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Parses argv. Returns Help for --help/-h, and Error (filling *error)
  /// on malformed or unknown arguments.
  Parsed parse(int argc, const char* const* argv, std::string* error);

  /// parse() for a tool's main(): on --help prints the usage to stdout and
  /// sets *exit_code to 0; on an error prints it to stderr and sets 2.
  /// Returns true when the tool should run.
  bool parse_or_exit_code(int argc, const char* const* argv, int* exit_code);

  bool flag(const std::string& name) const;
  const std::string& get(const std::string& name) const;
  /// Parses the option as integer/double. A value that does not parse
  /// exits 2 with a message naming the option, as does an integer outside
  /// [min, max].
  std::int64_t get_int(const std::string& name) const;
  std::int64_t get_int(const std::string& name, std::int64_t min,
                       std::int64_t max) const;
  double get_double(const std::string& name) const;

  std::string usage(const char* argv0) const;

 private:
  struct Spec {
    bool is_flag = false;
    std::string default_value;
    std::string help;
  };
  std::string description_;
  std::vector<std::string> order_;  // declaration order, for usage()
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> flags_;
};

}  // namespace beepmis::support
