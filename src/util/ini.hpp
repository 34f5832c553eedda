// INI-style key/value document, used for the *application configuration
// file* through which the application manager communicates with the job
// handler and the simulation process (Section III of the paper), and for
// experiment scenario files.
//
// Format: `[section]` headers, `key = value` lines, `#` or `;` comments.
// Keys are case-sensitive; values are stored verbatim and converted on read.
#pragma once

#include <map>
#include <optional>
#include <string>

namespace adaptviz {

class IniDocument {
 public:
  /// Parses a document from text. Throws std::runtime_error with a line
  /// number on malformed input.
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
  [[nodiscard]] std::string get_or(const std::string& section,
                                   const std::string& key,
                                   const std::string& fallback) const;
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
  [[nodiscard]] bool empty() const { return sections_.empty(); }

  friend bool operator==(const IniDocument&, const IniDocument&) = default;

 private:
  std::map<std::string, std::map<std::string, std::string>> sections_;
};

}  // namespace adaptviz
