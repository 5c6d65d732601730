#include "src/support/args.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/support/check.hpp"

namespace beepmis::support {
namespace {

/// Malformed option values come from outside the program, so they end the
/// tool with the usage-error code instead of a failed check.
[[noreturn]] void bad_value(const std::string& name, const std::string& what) {
  std::fprintf(stderr, "option --%s: %s\n", name.c_str(), what.c_str());
  std::exit(2);
}

}  // namespace

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  BEEPMIS_CHECK(!specs_.count(name), "duplicate argument declaration");
  specs_[name] = Spec{true, "", help};
  order_.push_back(name);
  flags_[name] = false;
}

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  BEEPMIS_CHECK(!specs_.count(name), "duplicate argument declaration");
  specs_[name] = Spec{false, default_value, help};
  order_.push_back(name);
  values_[name] = default_value;
}

ArgParser::Parsed ArgParser::parse(int argc, const char* const* argv,
                                   std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Parsed::Help;
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected positional argument: " + arg;
      return Parsed::Error;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = specs_.find(arg);
    if (it == specs_.end()) {
      *error = "unknown argument: --" + arg;
      return Parsed::Error;
    }
    if (it->second.is_flag) {
      if (has_value) {
        *error = "flag --" + arg + " does not take a value";
        return Parsed::Error;
      }
      flags_[arg] = true;
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          *error = "option --" + arg + " needs a value";
          return Parsed::Error;
        }
        value = argv[++i];
      }
      values_[arg] = value;
    }
  }
  return Parsed::Ok;
}

bool ArgParser::parse_or_exit_code(int argc, const char* const* argv,
                                   int* exit_code) {
  std::string error;
  const Parsed parsed = parse(argc, argv, &error);
  if (parsed == Parsed::Ok) return true;
  if (parsed == Parsed::Help) {
    std::fputs(usage(argv[0]).c_str(), stdout);
    *exit_code = 0;
  } else {
    std::fprintf(stderr, "%s\n", error.c_str());
    *exit_code = 2;
  }
  return false;
}

bool ArgParser::flag(const std::string& name) const {
  const auto it = flags_.find(name);
  BEEPMIS_CHECK(it != flags_.end(), "undeclared flag queried");
  return it->second;
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  BEEPMIS_CHECK(it != values_.end(), "undeclared option queried");
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string& v = get(name);
  char* end = nullptr;
  errno = 0;
  const std::int64_t x = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno == ERANGE)
    bad_value(name, "'" + v + "' is not an integer");
  return x;
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t min,
                                std::int64_t max) const {
  const std::int64_t x = get_int(name);
  if (x < min || x > max)
    bad_value(name, get(name) + " is outside [" + std::to_string(min) + ", " +
                        std::to_string(max) + "]");
  return x;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& v = get(name);
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0') bad_value(name, "'" + v + "' is not a number");
  return x;
}

std::string ArgParser::usage(const char* argv0) const {
  std::string out = description_;
  out += "\n\nusage: ";
  out += argv0;
  out += " [options]\n\noptions:\n";
  for (const auto& name : order_) {
    const Spec& s = specs_.at(name);
    out += "  --" + name;
    if (!s.is_flag) out += " <value>   (default: " + s.default_value + ")";
    out += "\n      " + s.help + "\n";
  }
  out += "  --help\n      print this message\n";
  return out;
}

}  // namespace beepmis::support
