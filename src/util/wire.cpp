#include "util/wire.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace adaptviz::wire {
namespace {

bool unreserved(unsigned char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_' ||
         c == '~';
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Both number parsers hand strto* a NUL-terminated copy and require it to
/// stop exactly at the end; leading whitespace (which strto* would skip)
/// is rejected up front.
bool token_shape_ok(std::string_view s) {
  return !s.empty() && std::isspace(static_cast<unsigned char>(s[0])) == 0;
}

// JSON escapes: `\<letter>` stands for the byte at the same index. The
// reader accepts all of them; the writer emits only the first five and
// `\u00XX` for the other control bytes.
constexpr std::string_view kEscapeLetters = "\"\\nrt/bf";
constexpr std::string_view kEscapedBytes = "\"\\\n\r\t/\b\f";
constexpr std::size_t kWrittenEscapes = 5;

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  /// Advances past every character in `set`.
  void skip(std::string_view set) {
    while (pos_ < text_.size() && set.find(text_[pos_]) != set.npos) ++pos_;
  }
  void skip_ws() { skip(" \t\n\r"); }

  /// Consumes `token` (after whitespace) when it comes next.
  bool accept(std::string_view token) {
    skip_ws();
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  void expect(char c) {
    if (!accept(std::string_view(&c, 1))) {
      fail(std::string("expected '") + c + "'");
    }
  }

  char next() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }

  JsonValue value() {
    JsonValue v;
    skip_ws();
    if (accept("{")) {
      v.kind = JsonValue::Kind::kObject;
      if (accept("}")) return v;
      do {
        skip_ws();
        std::string key = string();
        if (v.find(key) != nullptr) fail("duplicate key '" + key + "'");
        expect(':');
        v.object.emplace_back(std::move(key), value());
      } while (accept(","));
      expect('}');
    } else if (accept("[")) {
      v.kind = JsonValue::Kind::kArray;
      if (accept("]")) return v;
      do {
        v.array.push_back(value());
      } while (accept(","));
      expect(']');
    } else if (pos_ < text_.size() && text_[pos_] == '"') {
      v.kind = JsonValue::Kind::kString;
      v.string = string();
    } else if (accept("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
    } else if (accept("false")) {
      v.kind = JsonValue::Kind::kBool;
    } else if (!accept("null")) {
      v.kind = JsonValue::Kind::kNumber;
      v.number = number();
    }
    return v;
  }

  std::string string() {
    if (next() != '"') fail("expected a string");
    std::string out;
    for (char c = next(); c != '"'; c = next()) {
      if (c == '\\') {
        const char e = next();
        const auto at = kEscapeLetters.find(e);
        if (e == 'u') {
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const int nib = hex_nibble(next());
            if (nib < 0) fail("malformed \\u escape");
            code = code * 16 + nib;
          }
          if (code > 0xFF) fail("non-ASCII \\u escape unsupported");
          c = static_cast<char>(code);
        } else if (at != std::string_view::npos) {
          c = kEscapedBytes[at];
        } else {
          fail("unknown escape");
        }
      }
      out += c;
    }
    return out;
  }

  double number() {
    const std::size_t start = pos_;
    skip("0123456789+-.eE");
    const auto v = parse_double(text_.substr(start, pos_ - start));
    if (!v) fail("expected a value");
    return *v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string percent_encode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const unsigned char c : s) {
    if (unreserved(c)) {
      out += static_cast<char>(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X", c);
      out += buf;
    }
  }
  return out;
}

std::string percent_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    const int hi = i + 2 < s.size() ? hex_nibble(s[i + 1]) : -1;
    const int lo = i + 2 < s.size() ? hex_nibble(s[i + 2]) : -1;
    if (hi < 0 || lo < 0) {
      throw std::runtime_error("wire: malformed percent escape in '" +
                               std::string(s) + "'");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::optional<double> parse_double(std::string_view s) {
  if (!token_shape_ok(s)) return std::nullopt;
  const std::string token(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(token.c_str(), &end);
  // Overflow is an error; underflow is not (exact subnormal hexfloats set
  // ERANGE too, and must round-trip).
  if (end != token.c_str() + token.size() ||
      (errno == ERANGE && std::isinf(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::int64_t> parse_int(std::string_view s) {
  if (!token_shape_ok(s)) return std::nullopt;
  const std::string token(s);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    const auto at = kEscapedBytes.substr(0, kWrittenEscapes).find(c);
    if (at != std::string_view::npos) {
      out += '\\';
      out += kEscapeLetters[at];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04X", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).document();
}

}  // namespace adaptviz::wire
