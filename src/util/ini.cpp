#include "util/ini.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/string_util.hpp"
#include "util/wire.hpp"

namespace adaptviz {

IniDocument IniDocument::parse(const std::string& text) {
  IniDocument doc;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string s = trim(line);
    if (s.empty() || s[0] == '#' || s[0] == ';') continue;
    if (s.front() == '[') {
      if (s.back() != ']' || s.size() < 3) {
        throw std::runtime_error("ini: malformed section header at line " +
                                 std::to_string(lineno));
      }
      section = trim(s.substr(1, s.size() - 2));
      doc.sections_[section];  // allow empty sections
      continue;
    }
    const auto eq = s.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("ini: missing '=' at line " +
                               std::to_string(lineno));
    }
    const std::string key = trim(s.substr(0, eq));
    const std::string value = trim(s.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("ini: empty key at line " +
                               std::to_string(lineno));
    }
    if (!doc.sections_[section].emplace(key, value).second) {
      throw std::runtime_error("ini: duplicate key '" + key + "' in [" +
                               section + "] at line " +
                               std::to_string(lineno));
    }
  }
  return doc;
}

IniDocument IniDocument::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ini: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

std::string IniDocument::str() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [section, kvs] : sections_) {
    if (!first) out << "\n";
    first = false;
    if (!section.empty()) out << "[" << section << "]\n";
    for (const auto& [k, v] : kvs) out << k << " = " << v << "\n";
  }
  return out.str();
}

void IniDocument::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("ini: cannot write " + tmp);
    out << str();
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("ini: rename failed for " + path);
  }
}

void IniDocument::set(const std::string& section, const std::string& key,
                      const std::string& value) {
  sections_[section][key] = value;
}

void IniDocument::set_double(const std::string& section, const std::string& key,
                             double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  set(section, key, buf);
}

void IniDocument::set_int(const std::string& section, const std::string& key,
                          long value) {
  set(section, key, std::to_string(value));
}

void IniDocument::set_bool(const std::string& section, const std::string& key,
                           bool value) {
  set(section, key, value ? "true" : "false");
}

std::optional<std::string> IniDocument::get(const std::string& section,
                                            const std::string& key) const {
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return std::nullopt;
  const auto kit = sit->second.find(key);
  if (kit == sit->second.end()) return std::nullopt;
  return kit->second;
}

std::optional<double> IniDocument::get_double(const std::string& section,
                                              const std::string& key) const {
  double v = 0.0;
  if (!IniSection(*this, section).field(key.c_str(), v)) return std::nullopt;
  return v;
}

std::optional<long> IniDocument::get_int(const std::string& section,
                                         const std::string& key) const {
  long v = 0;
  if (!IniSection(*this, section).field(key.c_str(), v)) return std::nullopt;
  return v;
}

std::optional<bool> IniDocument::get_bool(const std::string& section,
                                          const std::string& key) const {
  bool v = false;
  if (!IniSection(*this, section).field(key.c_str(), v)) return std::nullopt;
  return v;
}

bool IniDocument::has_section(const std::string& section) const {
  return sections_.contains(section);
}

// ---- field tables ----

namespace ini {

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : text + ',') {
    if (c == ',' || std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!item.empty()) out.push_back(std::move(item));
      item.clear();
    } else {
      item += c;
    }
  }
  return out;
}

double to_number(const std::string& text) {
  const auto v = wire::parse_double(text);
  if (!v || !std::isfinite(*v)) {
    throw std::runtime_error("not a finite number: '" + text + "'");
  }
  return *v;
}

std::int64_t to_integer(const std::string& text) {
  const auto n = wire::parse_int(text);
  if (!n) throw std::runtime_error("not an integer: '" + text + "'");
  return *n;
}

bool to_bool(const std::string& text) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  throw std::runtime_error("not a boolean: '" + text + "'");
}

void check(double v, const IniRange& range) {
  const bool low_ok = range.lo_open ? v > range.lo : v >= range.lo;
  if (low_ok && v <= range.hi) return;
  if (std::isinf(range.hi)) {
    throw std::runtime_error(format("must be %s %g, got %g",
                                    range.lo_open ? ">" : ">=", range.lo, v));
  }
  throw std::runtime_error(format("must be in %c%g, %g], got %g",
                                  range.lo_open ? '(' : '[', range.lo,
                                  range.hi, v));
}

void check_whole(double v, double lo, double hi) {
  if (v != std::floor(v) || v < lo || v >= hi) {
    throw std::runtime_error(format("'%g' is not a whole number in range", v));
  }
}

}  // namespace ini

IniSection::IniSection(const IniDocument& doc, std::string name)
    : keys_(nullptr), name_(std::move(name)) {
  const auto it = doc.sections().find(name_);
  if (it != doc.sections().end()) keys_ = &it->second;
}

void IniSection::finish() const {
  if (keys_ == nullptr) return;
  for (const auto& entry : *keys_) {
    if (!named_.contains(entry.first)) fail(entry.first, "unknown key");
  }
}

void IniSection::fail(const std::string& key, const std::string& what) const {
  throw std::runtime_error("[" + name_ + "] " + key + ": " + what);
}

}  // namespace adaptviz
