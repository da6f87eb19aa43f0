#include "util/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace hxsp {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

Options::Options(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg.erase(0, 2);
    HXSP_CHECK_MSG(!arg.empty(), "bare '--' is not a valid option");
    std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0 &&
               argv[i + 1][0] != '\0') {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = ""; // bare flag
    }
  }
}

bool Options::has(const std::string& key) const {
  seen_.push_back(key);
  return kv_.count(key) > 0;
}

std::string Options::get(const std::string& key, const std::string& def) const {
  seen_.push_back(key);
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

long Options::get_int(const std::string& key, long def) const {
  seen_.push_back(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  HXSP_CHECK_MSG(end && *end == '\0' && !it->second.empty(),
                 ("--" + key + " expects an integer").c_str());
  HXSP_CHECK_MSG(errno != ERANGE,
                 range_error(key, it->second,
                             std::to_string(std::numeric_limits<long>::min()),
                             std::to_string(std::numeric_limits<long>::max()))
                     .c_str());
  return v;
}

std::string Options::range_error(const std::string& key,
                                 const std::string& value,
                                 const std::string& lo, const std::string& hi) {
  return "--" + key + " = " + value + " is not an integer in [" + lo + ", " +
         hi + "]";
}

double Options::get_double(const std::string& key, double def) const {
  seen_.push_back(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  HXSP_CHECK_MSG(end && *end == '\0' && !it->second.empty(),
                 ("--" + key + " expects a number").c_str());
  return v;
}

bool Options::get_bool(const std::string& key, bool def) const {
  seen_.push_back(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  HXSP_CHECK_MSG(false, ("--" + key + " expects a boolean").c_str());
  return def;
}

std::vector<double> Options::get_double_list(const std::string& key,
                                             const std::vector<double>& def) const {
  seen_.push_back(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  std::vector<double> out;
  for (const auto& f : split(it->second, ',')) {
    if (f.empty()) continue;
    char* end = nullptr;
    out.push_back(std::strtod(f.c_str(), &end));
    HXSP_CHECK_MSG(end && *end == '\0',
                   ("--" + key + " expects comma-separated numbers").c_str());
  }
  return out;
}

std::vector<std::string> Options::get_list(const std::string& key,
                                           const std::vector<std::string>& def) const {
  seen_.push_back(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  std::vector<std::string> out;
  for (auto& f : split(it->second, ','))
    if (!f.empty()) out.push_back(f);
  return out;
}

void Options::warn_unknown() const {
  for (const auto& [k, v] : kv_) {
    (void)v;
    if (std::find(seen_.begin(), seen_.end(), k) == seen_.end())
      std::fprintf(stderr, "warning: unrecognised option --%s\n", k.c_str());
  }
}

} // namespace hxsp
