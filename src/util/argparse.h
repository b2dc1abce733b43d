// Minimal command-line flag parser for the concord CLI.
//
// Supports `--flag value`, `--flag=value`, boolean `--flag`, repeated flags, and
// positional arguments. Unknown flags are an error so typos fail loudly. Flag
// names are kebab-case.
#ifndef SRC_UTIL_ARGPARSE_H_
#define SRC_UTIL_ARGPARSE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace concord {

class ArgParser {
 public:
  // Declares a flag taking a value, with an optional default.
  void AddFlag(const std::string& name, const std::string& help,
               std::optional<std::string> default_value = std::nullopt);

  // Declares a boolean flag (present => true).
  void AddBoolFlag(const std::string& name, const std::string& help);

  // Parses argv[start..]; returns false and sets `error()` on failure.
  bool Parse(int argc, const char* const* argv, int start = 1);

  bool Has(const std::string& name) const;
  std::string Get(const std::string& name) const;            // Empty if absent.
  std::vector<std::string> GetAll(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  std::optional<double> GetDouble(const std::string& name) const;
  std::optional<int64_t> GetInt(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }

  // Renders flag documentation for --help output.
  std::string Usage() const;

 private:
  struct FlagSpec {
    std::string help;
    bool is_bool = false;
    std::optional<std::string> default_value;
  };

  std::map<std::string, FlagSpec> specs_;
  std::map<std::string, std::vector<std::string>> values_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace concord

#endif  // SRC_UTIL_ARGPARSE_H_
