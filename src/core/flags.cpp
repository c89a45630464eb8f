#include "core/flags.h"

#include <cstdlib>

#include "core/check.h"

namespace memcom {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  read_.insert(name);
  return values_.count(name) > 0;
}

std::vector<std::string> Flags::unread() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) {
      names.push_back(name);
    }
  }
  return names;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& name, double fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  return std::strtod(it->second.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace memcom
