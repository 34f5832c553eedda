#include "campaign/manifest.hpp"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "util/wire.hpp"

namespace adaptviz {
namespace {

double decode_double(const std::string& s) {
  const auto v = wire::parse_double(s);
  if (!v) throw std::runtime_error("manifest: malformed double '" + s + "'");
  return *v;
}

std::int64_t decode_int(const std::string& s) {
  const auto v = wire::parse_int(s);
  if (!v) throw std::runtime_error("manifest: malformed integer '" + s + "'");
  return *v;
}

/// `k1=v1 k2=v2 ...` into a key -> value map; keys must be unique.
std::map<std::string, std::string> split_kv(const std::string& line) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    if (end > pos) {
      const std::string token = line.substr(pos, end - pos);
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::runtime_error("manifest: malformed token '" + token + "'");
      }
      if (!out.emplace(token.substr(0, eq), token.substr(eq + 1)).second) {
        throw std::runtime_error("manifest: duplicate key in '" + token + "'");
      }
    }
    pos = end + 1;
  }
  return out;
}

// One token per field type. Strings travel percent-encoded, so a value
// never contains a separator of an enclosing layer (spaces for the kv
// line, quotes for JSON, newlines for the pipe protocol). Doubles and
// durations travel as hexfloats, because the merged summary must
// reproduce the in-process CSV byte for byte. Integers, flags, enums and
// byte counts travel as decimal.
template <typename T>
std::string encode_value(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return wire::percent_encode(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return wire::hexfloat(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    return std::to_string(v.count());
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    return std::to_string(static_cast<std::int64_t>(v));
  } else {
    return wire::hexfloat(v.seconds());
  }
}

template <typename T>
void decode_value(const std::string& s, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = wire::percent_decode(s);
  } else if constexpr (std::is_same_v<T, double>) {
    out = decode_double(s);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    out = Bytes(decode_int(s));
  } else if constexpr (std::is_same_v<T, bool>) {
    out = decode_int(s) != 0;
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    out = static_cast<T>(decode_int(s));
  } else {
    out = T(decode_double(s));
  }
}

/// The record's wire fields, in wire order. One list drives both
/// directions, so the encoder and decoder cannot disagree on a key.
template <typename Record, typename Visitor>
void visit_record(Record& r, Visitor&& field) {
  auto& s = r.summary;
  field("label", r.label);
  field("site", r.site);
  field("algorithm", r.algorithm);
  field("seed", r.seed);
  field("disk_gb", r.disk_gb);
  field("failure_rate", r.failure_rate);
  field("codec", r.codec_enabled);
  field("failed", r.failed);
  field("error", r.error);
  field("completed", s.completed);
  field("wall_elapsed_s", s.wall_elapsed);
  field("sim_finished_wall_s", s.sim_finished_wall);
  field("sim_reached_s", s.sim_reached);
  field("peak_disk_bytes", s.peak_disk_used);
  field("min_free_disk_percent", s.min_free_disk_percent);
  field("stall_s", s.total_stall_time);
  field("frames_written", s.frames_written);
  field("frames_sent", s.frames_sent);
  field("frames_visualized", s.frames_visualized);
  field("transfer_failures", s.transfer_failures);
  field("transfer_retries", s.transfer_retries);
  field("restarts", s.restarts);
  field("decisions", s.decision_count);
  field("viewers", s.viewers);
  field("frames_served", s.frames_served);
  field("cache_hits", s.cache_hits);
  field("cache_misses", s.cache_misses);
  field("cache_evictions", s.cache_evictions);
  field("rerenders", s.rerenders);
  field("peak_cache_bytes", s.peak_cache_bytes);
  field("codec_mean_ratio", s.codec_mean_ratio);
  field("codec_saved_bytes", s.codec_bytes_saved);
  field("tree_tiers", s.tree_tiers);
  field("tree_leaves", s.tree_leaves);
  field("tree_viewers", s.tree_viewers);
  field("tree_frames_delivered", s.tree_frames_delivered);
  field("tree_origin_wan_bytes", s.tree_origin_wan_bytes);
  field("tree_fill_retries", s.tree_fill_retries);
  field("tree_degraded_events", s.tree_degraded_events);
}

}  // namespace

// ---- record codec ----

std::string encode_run_record(const CampaignRunRecord& record) {
  std::string out;
  visit_record(record, [&out](const char* key, const auto& value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += encode_value(value);
  });
  return out;
}

CampaignRunRecord decode_run_record(const std::string& line) {
  std::map<std::string, std::string> kv = split_kv(line);
  CampaignRunRecord r;
  visit_record(r, [&kv](const char* key, auto& value) {
    const auto it = kv.find(key);
    if (it == kv.end()) return;  // absent fields keep their defaults
    decode_value(it->second, value);
    kv.erase(it);
  });
  if (!kv.empty()) {
    throw std::runtime_error("manifest: unknown record key '" +
                             kv.begin()->first + "'");
  }
  return r;
}

// ---- entry codec ----
//
// `index=N files=p1:b1,p2:b2 <record kvs>` — the `files` value holds the
// percent-encoded path and decimal byte size of each stamped output file
// (or is empty for a failed run).

std::string encode_manifest_entry(const ManifestEntry& entry) {
  std::string files;
  for (const FileStamp& f : entry.files) {
    if (!files.empty()) files += ',';
    files += wire::percent_encode(f.path) + ':' + std::to_string(f.bytes);
  }
  return "index=" + std::to_string(entry.index) + " files=" + files + " " +
         encode_run_record(entry.record);
}

ManifestEntry decode_manifest_entry(const std::string& line) {
  ManifestEntry entry;
  // Peel the two entry-level tokens off the front; the rest is the record.
  std::size_t pos = 0;
  const auto take_token = [&line, &pos](const char* prefix) {
    const std::size_t plen = std::string(prefix).size();
    if (line.compare(pos, plen, prefix) != 0) {
      throw std::runtime_error("manifest: entry missing '" +
                               std::string(prefix) + "' at '" +
                               line.substr(pos, 24) + "'");
    }
    std::size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    const std::string value = line.substr(pos + plen, end - pos - plen);
    pos = std::min(end + 1, line.size());
    return value;
  };
  entry.index = static_cast<std::size_t>(decode_int(take_token("index=")));
  const std::string files = take_token("files=");
  if (!files.empty()) {
    std::size_t fpos = 0;
    while (fpos < files.size()) {
      std::size_t fend = files.find(',', fpos);
      if (fend == std::string::npos) fend = files.size();
      const std::string stamp = files.substr(fpos, fend - fpos);
      const std::size_t colon = stamp.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        throw std::runtime_error("manifest: malformed file stamp '" + stamp +
                                 "'");
      }
      entry.files.push_back(
          FileStamp{wire::percent_decode(stamp.substr(0, colon)),
                    decode_int(stamp.substr(colon + 1))});
      fpos = fend + 1;
    }
  }
  entry.record = decode_run_record(line.substr(pos));
  return entry;
}

// ---- JSON layer ----
//
// The manifest is real JSON (CI uploads it as an artifact; humans read it
// after a failed sweep), written with wire::json_quote and read back with
// wire::parse_json.

namespace {

using wire::JsonValue;

double require_number(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    throw std::runtime_error(std::string("manifest: missing number '") + key +
                             "'");
  }
  return v->number;
}

std::string require_string(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    throw std::runtime_error(std::string("manifest: missing string '") + key +
                             "'");
  }
  return v->string;
}

}  // namespace

// ---- CampaignManifest ----

const char* CampaignManifest::filename() { return "campaign_manifest.json"; }

void CampaignManifest::upsert(ManifestEntry entry) {
  const std::size_t index = entry.index;
  entries.insert_or_assign(index, std::move(entry));
}

std::string CampaignManifest::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"version\": " << kVersion << ",\n";
  out << "  \"campaign\": " << wire::json_quote(campaign) << ",\n";
  out << "  \"grid\": " << grid << ",\n";
  out << "  \"runs\": [";
  bool first = true;
  for (const auto& [index, entry] : entries) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"index\": " << index
        << ", \"label\": " << wire::json_quote(entry.record.label);
    out << ", \"failed\": " << (entry.record.failed ? "true" : "false");
    out << ", \"record\": " << wire::json_quote(encode_run_record(entry.record));
    out << ", \"files\": [";
    for (std::size_t i = 0; i < entry.files.size(); ++i) {
      if (i > 0) out << ", ";
      out << "{\"path\": " << wire::json_quote(entry.files[i].path);
      out << ", \"bytes\": " << entry.files[i].bytes << "}";
    }
    out << "]}";
  }
  out << (first ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

void CampaignManifest::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      throw std::runtime_error("manifest: cannot write " + tmp);
    }
    out << to_json();
  }
  std::filesystem::rename(tmp, path);
}

CampaignManifest CampaignManifest::from_json(const std::string& text) {
  const JsonValue root = wire::parse_json(text);
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error("manifest: top level is not an object");
  }
  if (static_cast<int>(require_number(root, "version")) != kVersion) {
    throw std::runtime_error("manifest: unsupported version");
  }
  CampaignManifest m;
  m.campaign = require_string(root, "campaign");
  m.grid = static_cast<std::size_t>(require_number(root, "grid"));
  const JsonValue* runs = root.find("runs");
  if (runs == nullptr || runs->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error("manifest: missing 'runs' array");
  }
  for (const JsonValue& run : runs->array) {
    if (run.kind != JsonValue::Kind::kObject) {
      throw std::runtime_error("manifest: run entry is not an object");
    }
    ManifestEntry entry;
    entry.index = static_cast<std::size_t>(require_number(run, "index"));
    entry.record = decode_run_record(require_string(run, "record"));
    if (const JsonValue* files = run.find("files");
        files != nullptr && files->kind == JsonValue::Kind::kArray) {
      for (const JsonValue& f : files->array) {
        entry.files.push_back(
            FileStamp{require_string(f, "path"),
                      static_cast<std::int64_t>(require_number(f, "bytes"))});
      }
    }
    m.upsert(std::move(entry));
  }
  return m;
}

std::optional<CampaignManifest> CampaignManifest::load(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return from_json(text.str());
  } catch (const std::exception&) {
    // A torn or stale manifest means "start fresh", never a crash.
    return std::nullopt;
  }
}

// ---- output integrity ----

std::vector<FileStamp> stamp_result_files(const std::string& label,
                                          const std::string& dir) {
  static const char* kSuffixes[] = {"_samples.csv", "_visualization.csv",
                                    "_decisions.csv", "_track.csv",
                                    "_summary.ini",  "_clients.csv"};
  std::vector<FileStamp> stamps;
  for (const char* suffix : kSuffixes) {
    const std::string name = label + suffix;
    std::error_code ec;
    const auto size = std::filesystem::file_size(dir + "/" + name, ec);
    if (ec) continue;  // optional outputs (e.g. _clients.csv) may not exist
    stamps.push_back(FileStamp{name, static_cast<std::int64_t>(size)});
  }
  return stamps;
}

bool entry_output_intact(const ManifestEntry& entry, const std::string& dir) {
  for (const FileStamp& f : entry.files) {
    const std::string path = dir + "/" + f.path;
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec || static_cast<std::int64_t>(size) != f.bytes || f.bytes <= 0) {
      return false;
    }
    // A crash mid-row leaves the final line unterminated even when the
    // byte count happens to collide; the trailing newline is the
    // "row complete" marker every writer in this repo emits.
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    in.seekg(-1, std::ios::end);
    char last = '\0';
    in.read(&last, 1);
    if (!in || last != '\n') return false;
  }
  return true;
}

}  // namespace adaptviz
