// The one wire codec for every exact-round-trip boundary: the dispatch
// `ROW` line and campaign_manifest.json (campaign/manifest), the
// steering_log.jsonl and view keys (steering/control_plane), the metrics
// JSON (obs/export) and the BENCH_*.json reports (bench/bench_report).
//
//  * Strings that must survive any enclosing layer travel percent-encoded
//    over the RFC 3986 unreserved set, so an encoded value never holds a
//    space, quote, comma, ':', '/' or newline.
//  * Doubles that must round-trip bit for bit travel as hexfloats (`%a`);
//    parse_double() reads them back, and is the repo's one strict
//    full-token number parser.
//  * JSON documents are written with json_quote()/json_number() and read
//    with parse_json(), a minimal reader that rejects duplicate keys.
//
// This is its own library with no dependencies, so every layer — obs
// included, which sits below adaptviz_util — can link it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adaptviz::wire {

// ---- percent codec ----

/// Every byte outside `A-Z a-z 0-9 - . _ ~` becomes `%XX` (uppercase hex).
std::string percent_encode(std::string_view s);

/// Inverse of percent_encode. Literal characters pass through, so text
/// written under a wider unreserved set still decodes. Throws
/// std::runtime_error on a truncated or non-hex escape.
std::string percent_decode(std::string_view s);

// ---- numbers ----

/// `%a`: the only printf/scanf round trip that is exact for every double.
std::string hexfloat(double v);

/// Strict full-token parse: `s` must be exactly one number (decimal,
/// hexfloat, inf or nan) with no surrounding whitespace or trailing
/// characters, and must not overflow. nullopt otherwise; callers that need
/// a finite value check.
std::optional<double> parse_double(std::string_view s);

/// Strict full-token decimal integer within the int64 range.
std::optional<std::int64_t> parse_int(std::string_view s);

// ---- JSON ----

/// `s` as a quoted JSON string: '"', '\\' and control bytes are escaped;
/// every other byte (UTF-8 included) passes through unchanged.
std::string json_quote(std::string_view s);

/// `%.9g`, or `null` for a non-finite value (JSON has no inf/nan).
std::string json_number(double v);

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // keys unique

  /// The member named `key`, or null when absent (objects only).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parses one JSON document. `\u` escapes are limited to U+00FF. Throws
/// std::runtime_error naming the offset on malformed input, trailing
/// characters or a duplicate object key.
JsonValue parse_json(std::string_view text);

}  // namespace adaptviz::wire
