// Minimal command-line flag parsing for the bench/example binaries.
// Accepts `--name=value`, `--name value`, and bare `--switch` forms.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace memcom {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  // Positional (non --flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  // Flags given on the command line that no has()/get_*() call has asked
  // about yet, in name order: a binary that reads every flag it knows up
  // front rejects typos with this.
  std::vector<std::string> unread() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace memcom
