#ifndef COLOSSAL_COMMON_ARGS_H_
#define COLOSSAL_COMMON_ARGS_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace colossal {

// Minimal --key value argument parser shared by the CLI tools and the
// mining service's request lines. Every flag takes exactly one value,
// except --help which is a bare boolean; unknown flags are rejected by
// the caller via CheckKnown so typos fail loudly (with the list of known
// flags) instead of silently using defaults.
class Args {
 public:
  // Parses argv[first..argc). Expects alternating "--flag value" pairs;
  // "--help" (and "-h") and any flag named in `boolean_flags` stand
  // alone and parse as the value "true".
  static StatusOr<Args> Parse(int argc, const char* const* argv, int first,
                              const std::vector<std::string>& boolean_flags =
                                  {}) {
    Args args;
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key == "--help" || key == "-h") {
        args.values_["help"] = "true";
        continue;
      }
      if (key.rfind("--", 0) != 0 || key.size() <= 2) {
        return Status::InvalidArgument("expected --flag, got '" + key + "'");
      }
      bool is_boolean = false;
      for (const std::string& name : boolean_flags) {
        if (key.compare(2, std::string::npos, name) == 0) {
          is_boolean = true;
          break;
        }
      }
      if (is_boolean) {
        args.values_[key.substr(2)] = "true";
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag " + key + " needs a value");
      }
      args.values_[key.substr(2)] = argv[++i];
    }
    return args;
  }

  // Convenience for whitespace-delimited request lines (batch files and
  // the daemon loop): tokenizes `line` and parses it like an argv.
  static StatusOr<Args> ParseLine(const std::string& line) {
    std::vector<std::string> tokens;
    size_t pos = 0;
    while (pos < line.size()) {
      while (pos < line.size() && std::isspace(
                 static_cast<unsigned char>(line[pos]))) {
        ++pos;
      }
      const size_t start = pos;
      while (pos < line.size() && !std::isspace(
                 static_cast<unsigned char>(line[pos]))) {
        ++pos;
      }
      if (pos > start) tokens.push_back(line.substr(start, pos - start));
    }
    std::vector<const char*> argv;
    argv.reserve(tokens.size());
    for (const std::string& token : tokens) argv.push_back(token.c_str());
    return Parse(static_cast<int>(argv.size()), argv.data(), 0);
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  // True iff --help / -h appeared anywhere.
  bool HelpRequested() const { return Has("help"); }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  // Integer flag. Returns an error Status on a non-numeric value rather
  // than throwing (the CLI is exception-free like the library).
  StatusOr<int64_t> GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || errno != 0) {
      return Status::InvalidArgument("flag --" + key +
                                     " expects an integer, got '" +
                                     it->second + "'");
    }
    return static_cast<int64_t>(value);
  }

  StatusOr<double> GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    // strtod also reads "nan" and "inf"; NaN passes every range check
    // (it compares false), so no flag accepts a non-finite value.
    if (end == it->second.c_str() || *end != '\0' || errno != 0 ||
        !std::isfinite(value)) {
      return Status::InvalidArgument("flag --" + key +
                                     " expects a finite number, got '" +
                                     it->second + "'");
    }
    return value;
  }

  // Rejects any flag not in `known` (typo protection). "help" is always
  // accepted. The error names the offending flag and lists every known
  // one so the fix is one glance away.
  Status CheckKnown(const std::vector<std::string>& known) const {
    for (const auto& [key, value] : values_) {
      if (key == "help") continue;
      bool ok = false;
      for (const std::string& candidate : known) {
        if (key == candidate) {
          ok = true;
          break;
        }
      }
      if (!ok) {
        std::string message = "unknown flag --" + key + " (known flags:";
        for (const std::string& candidate : known) {
          message += " --" + candidate;
        }
        message += ")";
        return Status::InvalidArgument(message);
      }
    }
    return Status::Ok();
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace colossal

#endif  // COLOSSAL_COMMON_ARGS_H_
