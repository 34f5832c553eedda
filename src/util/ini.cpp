#include "util/ini.hpp"

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
    doc.sections_[section][key] = value;
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

std::string IniDocument::get_or(const std::string& section,
                                const std::string& key,
                                const std::string& fallback) const {
  auto v = get(section, key);
  return v ? *v : fallback;
}

std::optional<double> IniDocument::get_double(const std::string& section,
                                              const std::string& key) const {
  auto v = get(section, key);
  if (!v) return std::nullopt;
  const auto d = wire::parse_double(*v);
  if (!d || !std::isfinite(*d)) {
    throw std::runtime_error("ini: [" + section + "] " + key +
                             " is not a finite number: '" + *v + "'");
  }
  return d;
}

std::optional<long> IniDocument::get_int(const std::string& section,
                                         const std::string& key) const {
  auto v = get(section, key);
  if (!v) return std::nullopt;
  const auto n = wire::parse_int(*v);
  if (!n) {
    throw std::runtime_error("ini: [" + section + "] " + key +
                             " is not an integer: '" + *v + "'");
  }
  return static_cast<long>(*n);
}

std::optional<bool> IniDocument::get_bool(const std::string& section,
                                          const std::string& key) const {
  auto v = get(section, key);
  if (!v) return std::nullopt;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::runtime_error("ini: [" + section + "] " + key +
                           " is not a boolean: '" + *v + "'");
}

bool IniDocument::has_section(const std::string& section) const {
  return sections_.contains(section);
}

}  // namespace adaptviz
