// Minimal command-line flag parser for the CLI tool and paper-scale runs.
//
// Supports `--name value`, `--name=value` and boolean `--name`. Unknown
// flags, missing values and malformed numbers raise std::invalid_argument
// with a message naming the flag; `--help` output is generated from the
// registered flags.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace score::util {

class Flags {
 public:
  /// Register a flag with its default and help text (also defines its type).
  void add_string(const std::string& name, std::string default_value,
                  std::string help);
  void add_int(const std::string& name, long long default_value, std::string help);
  void add_double(const std::string& name, double default_value, std::string help);
  void add_bool(const std::string& name, bool default_value, std::string help);

  /// Parse argv (skipping argv[0]). Returns false when --help was requested
  /// (help text is available via help()).
  bool parse(int argc, const char* const* argv);

  std::string get_string(const std::string& name) const;
  long long get_int(const std::string& name) const;
  /// An int flag read as a count: throws std::invalid_argument naming
  /// `--name` on a negative value instead of wrapping it to a huge size_t.
  std::size_t get_count(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Was the flag given on the command line (as opposed to defaulted)?
  /// Lets a tool reject combinations like `--loss` with `--mode centralized`
  /// without forbidding the default value. Throws std::logic_error for a
  /// name that was never registered.
  bool is_set(const std::string& name) const;

  /// Generated usage text.
  std::string help(const std::string& program = "program") const;

 private:
  enum class Kind { kString, kInt, kDouble, kBool };
  struct Entry {
    Kind kind;
    std::string value;  // canonical string form
    std::string default_value;
    std::string help;
    bool set_by_user = false;
  };

  const Entry& lookup(const std::string& name, Kind kind) const;
  void set_value(const std::string& name, const std::string& value);

  std::map<std::string, Entry> entries_;
};

}  // namespace score::util
