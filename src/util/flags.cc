#include "util/flags.h"

#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "util/require.h"

namespace mcc::util {

std::vector<std::string> split_csv(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    out.push_back(
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

namespace {

/// Whole-string integer parse; nullopt on any trailing garbage.
std::optional<std::int64_t> parse_i64(const std::string& s) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(s, &used);
    if (used != s.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<double> parse_f64(const std::string& s) {
  // std::stod accepts "nan", "inf", and hexfloats ("0x12"); none of them is
  // a sane simulation parameter, so reject them up front.
  if (s.find_first_of("xX") != std::string::npos) return std::nullopt;
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size() || !std::isfinite(v)) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

flag_set::flag_set(std::string program_description)
    : description_(std::move(program_description)) {}

void flag_set::add(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  require(!entries_.contains(name), "duplicate flag", name);
  entry e{default_value, default_value, help, kind::other, {}, false};
  // An integer-looking default still marks the flag merely numeric: many
  // benches declare "--duration 120" but read it with f64(), so "12.5" must
  // stay a valid value.
  if (parse_f64(default_value).has_value()) e.k = kind::numeric;
  entries_[name] = std::move(e);
}

namespace {

std::string join_allowed(const std::vector<std::string>& allowed) {
  std::string out;
  for (const std::string& a : allowed) {
    if (!out.empty()) out += ", ";
    out += a;
  }
  return out;
}

bool enum_value_ok(const std::vector<std::string>& allowed, bool csv_list,
                   const std::string& value) {
  const auto ok_one = [&](const std::string& v) {
    for (const std::string& a : allowed) {
      if (v == a) return true;
    }
    return false;
  };
  if (!csv_list) return ok_one(value);
  for (const std::string& part : split_csv(value)) {
    // "all" names the whole list, so it cannot be one element of a list.
    if (!ok_one(part) || (part == "all" && part != value)) return false;
  }
  return true;
}

}  // namespace

void flag_set::add_enum(const std::string& name,
                        const std::string& default_value,
                        const std::string& help,
                        std::vector<std::string> allowed, bool csv_list) {
  require(!entries_.contains(name), "duplicate flag", name);
  require(!allowed.empty(), "add_enum: empty allowed set", name);
  entry e{default_value, default_value, help, kind::enumerated,
          std::move(allowed), csv_list};
  require(enum_value_ok(e.allowed, e.csv_list, default_value),
          "add_enum: default not in allowed set", name);
  entries_[name] = std::move(e);
}

bool flag_set::set_value(const std::string& name, const std::string& value) {
  auto it = entries_.find(name);
  require(it != entries_.end(), "set_value: undeclared flag", name);
  entry& e = it->second;
  if (e.k == kind::numeric && !parse_f64(value).has_value()) {
    std::fprintf(stderr, "bad value for --%s: '%s' (expected a number)\n",
                 name.c_str(), value.c_str());
    return false;
  }
  if (e.k == kind::enumerated &&
      !enum_value_ok(e.allowed, e.csv_list, value)) {
    std::fprintf(stderr, "bad value for --%s: '%s' (expected one of %s%s)\n",
                 name.c_str(), value.c_str(),
                 join_allowed(e.allowed).c_str(),
                 e.csv_list ? ", or a comma-separated list of them" : "");
    return false;
  }
  e.value = value;  // repeated flags are last-wins
  return true;
}

bool flag_set::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name;
    std::string value;
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
    } else {
      name = arg.substr(2);
      auto it = entries_.find(name);
      if (it == entries_.end()) {
        std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
        print_usage();
        return false;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s expects a value\n", name.c_str());
        print_usage();
        return false;
      }
      value = argv[++i];
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      print_usage();
      return false;
    }
    if (!set_value(name, value)) {
      print_usage();
      return false;
    }
  }
  return true;
}

std::string flag_set::str(const std::string& name) const {
  auto it = entries_.find(name);
  require(it != entries_.end(), "undeclared flag", name);
  return it->second.value;
}

std::int64_t flag_set::i64(const std::string& name) const {
  const std::string v = str(name);
  if (const auto parsed = parse_i64(v)) return *parsed;
  // Accept integral spellings like "1e6" or "250.0"; reject "2.5".
  const auto real = parse_f64(v);
  require(real.has_value() && *real == std::trunc(*real) &&
              *real >= -9.2e18 && *real <= 9.2e18,
          "bad value for --" + name + " (expected an integer)", v);
  return static_cast<std::int64_t>(*real);
}

double flag_set::f64(const std::string& name) const {
  const std::string v = str(name);
  const auto parsed = parse_f64(v);
  require(parsed.has_value(), "bad value for --" + name, v);
  return *parsed;
}

bool flag_set::boolean(const std::string& name) const {
  auto v = str(name);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

void flag_set::print_usage() const {
  if (!description_.empty()) std::fprintf(stderr, "%s\n", description_.c_str());
  std::fprintf(stderr, "flags:\n");
  for (const auto& [name, e] : entries_) {
    if (e.k == kind::enumerated) {
      std::fprintf(stderr, "  --%s (default: %s)  %s [one of: %s]\n",
                   name.c_str(), e.default_value.c_str(), e.help.c_str(),
                   join_allowed(e.allowed).c_str());
    } else {
      std::fprintf(stderr, "  --%s (default: %s)  %s\n", name.c_str(),
                   e.default_value.c_str(), e.help.c_str());
    }
  }
}

}  // namespace mcc::util
