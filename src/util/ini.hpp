// INI-style key/value document, used for the *application configuration
// file* through which the application manager communicates with the job
// handler and the simulation process (Section III of the paper), and for
// experiment scenario files.
//
// Format: `[section]` headers, `key = value` lines, `#` or `;` comments.
// Keys are case-sensitive and unique within a section; values are stored
// verbatim and converted on read.
//
// Scenario-style readers read each section through one field table: an
// IniSection walked by read_section(), whose field() calls name every key
// the section owns, decode it and check its range. Any key the table does
// not name is an error, so a misspelt key never silently falls back to a
// default.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace adaptviz {

class IniDocument {
 public:
  using Section = std::map<std::string, std::string>;

  /// Parses a document from text. Throws std::runtime_error with a line
  /// number on malformed input, including a key that repeats within a
  /// section.
  static IniDocument parse(const std::string& text);

  /// Loads from a file. Throws std::runtime_error if unreadable.
  static IniDocument load(const std::string& path);

  /// Serialized form, stable section/key order (lexicographic).
  [[nodiscard]] std::string str() const;

  /// Writes atomically (temp file + rename) so a concurrent reader never
  /// observes a torn configuration — the paper's components poll this file.
  void save(const std::string& path) const;

  void set(const std::string& section, const std::string& key,
           const std::string& value);
  void set_double(const std::string& section, const std::string& key,
                  double value);
  void set_int(const std::string& section, const std::string& key, long value);
  void set_bool(const std::string& section, const std::string& key,
                bool value);

  [[nodiscard]] std::optional<std::string> get(const std::string& section,
                                               const std::string& key) const;
  /// Typed getters throw std::runtime_error when present but malformed.
  /// get_double also rejects nan and inf, which would slip through every
  /// range check.
  [[nodiscard]] std::optional<double> get_double(const std::string& section,
                                                 const std::string& key) const;
  [[nodiscard]] std::optional<long> get_int(const std::string& section,
                                            const std::string& key) const;
  [[nodiscard]] std::optional<bool> get_bool(const std::string& section,
                                             const std::string& key) const;

  [[nodiscard]] bool has_section(const std::string& section) const;
  /// Every section by name. Keys written before the first header live in
  /// the section named "".
  [[nodiscard]] const std::map<std::string, Section>& sections() const {
    return sections_;
  }
  [[nodiscard]] bool empty() const { return sections_.empty(); }

  friend bool operator==(const IniDocument&, const IniDocument&) = default;

 private:
  std::map<std::string, Section> sections_;
};

/// A field's range check, applied to every number the field decodes:
/// lo <= v (lo < v when lo_open) and v <= hi.
struct IniRange {
  double lo = -std::numeric_limits<double>::infinity();
  bool lo_open = false;
  double hi = std::numeric_limits<double>::infinity();
};
constexpr IniRange at_least(double lo) { return {lo, false}; }
constexpr IniRange above(double lo) { return {lo, true}; }
constexpr IniRange between(double lo, double hi) { return {lo, false, hi}; }

namespace ini {

/// A list value: items separated by commas, whitespace or both; blank
/// items are skipped.
std::vector<std::string> split_list(const std::string& text);
/// A finite number ("not a finite number" otherwise).
double to_number(const std::string& text);
/// A decimal integer in the int64 range.
std::int64_t to_integer(const std::string& text);
/// true/1/yes or false/0/no.
bool to_bool(const std::string& text);
/// Throws unless `range` holds `v`.
void check(double v, const IniRange& range);
/// Throws unless `v` is a whole number in [lo, hi).
void check_whole(double v, double lo, double hi);

/// One value: strings verbatim, then bool, integers, and numbers (double,
/// or a type built from one, such as WallSeconds).
template <typename T>
void decode(const std::string& text, const IniRange& range, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_same_v<T, bool>) {
    out = to_bool(text);
  } else if constexpr (std::is_integral_v<T>) {
    const std::int64_t n = to_integer(text);
    check(static_cast<double>(n), range);
    out = static_cast<T>(n);
  } else {
    const double v = to_number(text);
    check(v, range);
    out = T(v);
  }
}

/// A list. Integer items are written as numbers ("2", "7.0") and must be
/// whole and fit T.
template <typename T>
void decode(const std::string& text, const IniRange& range,
            std::vector<T>& out) {
  out.clear();
  for (const std::string& item : split_list(text)) {
    T v{};
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      const double d = to_number(item);
      check(d, range);
      const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
      check_whole(d, std::is_signed_v<T> ? -hi : 0.0, hi);
      v = static_cast<T>(d);
    } else {
      decode(item, range, v);
    }
    out.push_back(std::move(v));
  }
}

}  // namespace ini

/// One section of a document, read through its field table. Each field()
/// names one key the section owns; finish() rejects every key no field()
/// named. Every error is a std::runtime_error naming `[section] key`.
class IniSection {
 public:
  /// [name] of `doc`; an absent section reads as empty.
  IniSection(const IniDocument& doc, std::string name);

  /// When `key` is present, decodes it into `out` and returns true. The
  /// decoder follows out's type: std::string, bool, an integer, double (or
  /// a type built from one), or a std::vector of those read as a list.
  /// `range` is checked on every number.
  template <typename T>
  bool field(const char* key, T& out, IniRange range = {}) {
    return read(key, [&](const std::string& text) {
      ini::decode(text, range, out);
    });
  }

  /// As above, decoding a `Raw` and storing convert(raw): unit factories
  /// such as SimSeconds::hours, and named values such as
  /// algorithm_from_name.
  template <typename Raw, typename T>
  bool field(const char* key, T& out, T (*convert)(Raw), IniRange range = {}) {
    return read(key, [&](const std::string& text) {
      std::decay_t<Raw> raw{};
      ini::decode(text, range, raw);
      out = convert(raw);
    });
  }

  /// As above for a list, converting each item.
  template <typename Raw, typename T>
  bool field(const char* key, std::vector<T>& out, T (*convert)(Raw),
             IniRange range = {}) {
    return read(key, [&](const std::string& text) {
      std::vector<std::decay_t<Raw>> raw;
      ini::decode(text, range, raw);
      out.clear();
      for (const auto& item : raw) out.push_back(convert(item));
    });
  }

  /// Throws naming the first key of the section that no field() named.
  void finish() const;

  /// Throws std::runtime_error "[section] key: what".
  [[noreturn]] void fail(const std::string& key,
                         const std::string& what) const;

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  template <typename Decode>
  bool read(const char* key, Decode&& decode) {
    if (keys_ == nullptr) return false;
    const auto it = keys_->find(key);
    if (it == keys_->end()) return false;
    named_.insert(it->first);
    try {
      decode(it->second);
    } catch (const std::exception& e) {
      fail(key, e.what());
    }
    return true;
  }

  const IniDocument::Section* keys_;
  std::string name_;
  std::set<std::string> named_;
};

/// Walks `table` (a callable taking IniSection&) over [name] of `doc`,
/// then rejects any key the table did not name.
template <typename Table>
void read_section(const IniDocument& doc, const std::string& name,
                  Table&& table) {
  IniSection section(doc, name);
  table(section);
  section.finish();
}

}  // namespace adaptviz
