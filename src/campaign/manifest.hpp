// Campaign manifest + run-record wire codec.
//
// Two consumers share one serialization of a CampaignRunRecord:
//
//  * The dispatch protocol (campaign/dispatch.hpp): a worker process
//    reports each finished run as a single `ROW <entry>` line over its
//    stdout pipe.
//  * The resume manifest (`<output_dir>/campaign_manifest.json`): the
//    coordinator records every completed run so a restarted campaign
//    skips work that already finished.
//
// The encoding must round-trip *exactly* — the coordinator's merged
// campaign_summary.csv is asserted bitwise-identical to the in-process
// CampaignRunner's, so every double travels as a hexfloat (`%a`), every
// integer as decimal, and every string percent-encoded (no spaces,
// newlines or quotes survive into the line/JSON layer). The primitives
// are util/wire's, shared with the steering log and the JSON exporters.
//
// Partial-output handling: a manifest entry carries a byte-size stamp for
// every per-run CSV the worker wrote. On resume each stamped file must
// exist with exactly the recorded size and end in a newline — a header-only
// or mid-row-truncated CSV left behind by a crash fails the check and the
// run re-executes instead of being skipped.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace adaptviz {

/// Size stamp of one per-run output file, relative to the output dir.
struct FileStamp {
  std::string path;
  std::int64_t bytes = 0;
};

/// One completed (or terminally failed) run, as reported by a worker and
/// as persisted in the manifest.
struct ManifestEntry {
  std::size_t index = 0;  // position in the expanded grid
  CampaignRunRecord record;
  std::vector<FileStamp> files;  // empty for failed runs
};

// ---- Record / entry wire codec ----

/// One-line key=value encoding of a record; exact round-trip (hexfloat
/// doubles, percent-encoded strings). Never contains '\n'.
std::string encode_run_record(const CampaignRunRecord& record);

/// Inverse of encode_run_record. Unknown and duplicate keys are rejected;
/// throws std::runtime_error naming the malformed token.
CampaignRunRecord decode_run_record(const std::string& line);

/// One-line encoding of a full entry: `index=N files=<stamps> <record>`.
std::string encode_manifest_entry(const ManifestEntry& entry);
ManifestEntry decode_manifest_entry(const std::string& line);

// ---- The manifest document ----

class CampaignManifest {
 public:
  static constexpr int kVersion = 1;
  /// File name inside the campaign output directory.
  static const char* filename();

  std::string campaign;   // CampaignSpec::name — guards against reuse of an
                          // output dir by a different campaign
  std::size_t grid = 0;   // expand().size() — guards against axis edits
  std::map<std::size_t, ManifestEntry> entries;

  /// Adds or replaces the entry for its index.
  void upsert(ManifestEntry entry);

  /// Serializes to JSON (schema above each field in manifest.cpp).
  [[nodiscard]] std::string to_json() const;
  /// Writes atomically (temp file + rename): a coordinator crash mid-write
  /// never leaves a torn manifest, only the previous complete one.
  void save(const std::string& path) const;

  /// Parses a manifest document; throws std::runtime_error on malformed
  /// input (duplicate keys included) or a version mismatch.
  static CampaignManifest from_json(const std::string& text);
  /// Loads from disk; std::nullopt when the file is absent or unparseable
  /// (an unreadable manifest means "no resume", never a crash).
  static std::optional<CampaignManifest> load(const std::string& path);
};

/// Stamps the per-run result CSVs write_result() produced for `label`
/// under `dir` (the files that exist, with their current sizes).
std::vector<FileStamp> stamp_result_files(const std::string& label,
                                          const std::string& dir);

/// True when every stamped file still exists under `dir` with exactly the
/// recorded size and a trailing newline. False on any mismatch — the
/// resume path treats the run as incomplete and re-executes it.
bool entry_output_intact(const ManifestEntry& entry, const std::string& dir);

}  // namespace adaptviz
