// Golden-bytes tests for every exact-round-trip wire boundary: the dispatch
// ROW entry, the campaign manifest, the steering log, the metrics JSON and
// the BENCH_*.json report. The expected strings are the exact bytes these
// writers produce; a codec refactor must leave every one of them unchanged.
// Inputs deliberately carry a space, a quote, '%', a newline and non-ASCII
// bytes (manifest fields avoid ':' and '/', which older manifests left
// unencoded).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "campaign/manifest.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "steering/control_plane.hpp"

namespace adaptviz {
namespace {

namespace fs = std::filesystem;

// "é" as raw UTF-8 bytes.
const std::string kNonAscii = "\xC3\xA9";

CampaignRunRecord golden_record() {
  CampaignRunRecord r;
  r.label = "cell \"7\" 100%\nnext " + kNonAscii;
  r.site = "intra_country";
  r.algorithm = AlgorithmKind::kOptimization;
  r.seed = 42;
  r.disk_gb = 0.1;
  r.failure_rate = 1.0 / 3.0;
  r.codec_enabled = true;
  r.error = "crashed \"twice\" at 50%\nretry " + kNonAscii;
  ExperimentSummary& s = r.summary;
  s.completed = true;
  s.wall_elapsed = WallSeconds(118085.7301234567);
  s.sim_finished_wall = WallSeconds(100000.5);
  s.sim_reached = SimSeconds(86400.0000001);
  s.peak_disk_used = Bytes(29999999999);
  s.min_free_disk_percent = 0.23456789012345678;
  s.total_stall_time = WallSeconds(12.75);
  s.frames_written = 276;
  s.frames_sent = 270;
  s.frames_visualized = 268;
  s.transfer_retries = 12;
  s.restarts = 9;
  s.decision_count = 31;
  s.codec_mean_ratio = 2.0 / 7.0;
  s.tree_origin_wan_bytes = Bytes(1234567890123);
  return r;
}

// encode_run_record(golden_record()), split around its `failed` flag.
const std::string kRecordHead =
    "label=cell%20%227%22%20100%25%0Anext%20%C3%A9 "
    "site=intra_country algorithm=1 seed=42 "
    "disk_gb=0x1.999999999999ap-4 failure_rate=0x1.5555555555555p-2 "
    "codec=1 ";
const std::string kRecordTail =
    " error=crashed%20%22twice%22%20at%2050%25%0Aretry%20%C3%A9 "
    "completed=1 wall_elapsed_s=0x1.cd45bae95ef09p+16 "
    "sim_finished_wall_s=0x1.86a08p+16 "
    "sim_reached_s=0x1.5180000001ad8p+16 peak_disk_bytes=29999999999 "
    "min_free_disk_percent=0x1.e06521462cfdbp-3 stall_s=0x1.98p+3 "
    "frames_written=276 frames_sent=270 frames_visualized=268 "
    "transfer_failures=0 transfer_retries=12 restarts=9 decisions=31 "
    "viewers=0 frames_served=0 cache_hits=0 cache_misses=0 "
    "cache_evictions=0 rerenders=0 peak_cache_bytes=0 "
    "codec_mean_ratio=0x1.2492492492492p-2 codec_saved_bytes=0 "
    "tree_tiers=0 tree_leaves=0 tree_viewers=0 "
    "tree_frames_delivered=0 tree_origin_wan_bytes=1234567890123 "
    "tree_fill_retries=0 tree_degraded_events=0";

ManifestEntry golden_entry() {
  ManifestEntry entry;
  entry.index = 17;
  entry.record = golden_record();
  entry.files = {{"run one_samples.csv", 48211},
                 {"r\"%\n" + kNonAscii + "_summary.ini", 512}};
  return entry;
}

TEST(GoldenBytes, ManifestEntry) {
  EXPECT_EQ(encode_manifest_entry(golden_entry()),
            "index=17 files=run%20one_samples.csv:48211,"
            "r%22%25%0A%C3%A9_summary.ini:512 " +
                kRecordHead + "failed=0" + kRecordTail);
}

TEST(GoldenBytes, ManifestJson) {
  CampaignManifest m;
  m.campaign = "sweep \"smoke\" 100%\n" + kNonAscii;
  m.grid = 4;
  m.upsert(golden_entry());
  ManifestEntry failed{.index = 3, .record = golden_record()};
  failed.record.failed = true;
  m.upsert(failed);
  const std::string label = R"("cell \"7\" 100%\nnext )" + kNonAscii + "\"";
  EXPECT_EQ(m.to_json(),
            "{\n  \"version\": 1,\n"
            "  \"campaign\": \"sweep \\\"smoke\\\" 100%\\n\xC3\xA9\",\n"
            "  \"grid\": 4,\n  \"runs\": [\n"
            "    {\"index\": 3, \"label\": " +
                label + ", \"failed\": true, \"record\": \"" + kRecordHead +
                "failed=1" + kRecordTail + "\", \"files\": []},\n" +
                "    {\"index\": 17, \"label\": " + label +
                ", \"failed\": false, \"record\": \"" + kRecordHead +
                "failed=0" + kRecordTail +
                "\", \"files\": [{\"path\": \"run one_samples.csv\", "
                "\"bytes\": 48211}, {\"path\": \"r\\\"%\\n\xC3\xA9"
                "_summary.ini\", \"bytes\": 512}]}\n  ]\n}\n");
}

// Manifests written before the steering percent set left ':' and '/'
// unencoded in free text. The decoder passes literal characters through,
// so such a manifest still loads and its record round-trips.
TEST(GoldenBytes, LegacyManifestWithLiteralColonStillLoads) {
  const std::string text =
      "{\n  \"version\": 1,\n  \"campaign\": \"smoke\",\n  \"grid\": 2,\n"
      "  \"runs\": [\n    {\"index\": 1, \"label\": \"seed-7\", "
      "\"failed\": true, \"record\": \"label=seed-7 failed=1 "
      "error=disk%20full:%20see%20out/run-1.csv\", \"files\": []}\n  ]\n}\n";
  const CampaignManifest m = CampaignManifest::from_json(text);
  ASSERT_EQ(m.entries.count(1), 1u);
  const CampaignRunRecord& r = m.entries.at(1).record;
  EXPECT_EQ(r.error, "disk full: see out/run-1.csv");
  EXPECT_TRUE(r.failed);
  const CampaignRunRecord back = decode_run_record(encode_run_record(r));
  EXPECT_EQ(back.error, r.error);
  EXPECT_EQ(campaign_summary_row(back), campaign_summary_row(r));
}

TEST(GoldenBytes, SteeringJsonlEveryEventType) {
  using Type = SteeringEvent::Type;
  const std::string who = "viewer 7, \"the\nsteerer\" 100%" + kNonAscii;
  const std::string who_json =
      R"("client":"viewer%207%2C%20%22the%0Asteerer%22%20100%25%C3%A9",)";
  SteeringCommand bounds{.kind = SteeringCommand::Kind::kSetOutputBounds};
  bounds.bounds.min_output_interval = SimSeconds(180.0 + 1e-9);
  bounds.bounds.max_output_interval = SimSeconds(1500.0);
  bounds.reason = "landfall 100% \"now\"\n" + kNonAscii;
  const std::vector<std::pair<SteeringEvent, std::string>> cases = {
      {{.wall = WallSeconds(0.1),
        .client = who,
        .type = Type::kCommand,
        .command = bounds},
       R"({"wall":"0x1.999999999999ap-4",)" + who_json +
           R"("type":"command","kind":"set-output-bounds",)"
           R"("bounds_min_s":"0x1.680000000897p+7",)"
           R"("bounds_max_s":"0x1.77p+10","floor_km":"0x0p+0",)"
           R"("nest_deg":"0x0p+0","auto_resume_s":"0x0p+0",)"
           R"("reason":"landfall%20100%25%20%22now%22%0A%C3%A9"})"},
      {{.wall = WallSeconds(7200.0),
        .client = who,
        .type = Type::kView,
        .view = {.field = "wind speed",
                 .colormap = "\"vir\"%\n" + kNonAscii,
                 .zoom = 2.5,
                 .center_lat = 21.625,
                 .center_lon = 89.0 + 1.0 / 3.0}},
       R"({"wall":"0x1.c2p+12",)" + who_json +
           R"("type":"view","field":"wind%20speed",)"
           R"("colormap":"%22vir%22%25%0A%C3%A9","zoom":"0x1.4p+1",)"
           R"("lat":"0x1.5ap+4","lon":"0x1.6555555555555p+6"})"},
      {{.wall = WallSeconds(4.9406564584124654e-324),
        .client = who,
        .type = Type::kProposal,
        .proposal = {.max_output_interval = SimSeconds(360.0),
                     .resolution_floor_km = 12.000000000000002,
                     .reason = "budget 50%\n\"tight\" " + kNonAscii}},
       R"({"wall":"0x0.0000000000001p-1022",)" + who_json +
           R"("type":"proposal","max_oi_s":"0x1.68p+8",)"
           R"("floor_km":"0x1.8000000000001p+3",)"
           R"("reason":"budget%2050%25%0A%22tight%22%20%C3%A9"})"},
      {{.wall = WallSeconds(1.0e17),
        .client = who,
        .type = Type::kAttach,
        .attach = {.mode = "catch-up",
                   .downlink_mbps = 0.056,
                   .catchup_start_hours = 1.0 / 7.0}},
       R"({"wall":"0x1.6345785d8ap+56",)" + who_json +
           R"("type":"attach","mode":"catch-up",)"
           R"("downlink_mbps":"0x1.cac083126e979p-5",)"
           R"("catchup_start_h":"0x1.2492492492492p-3"})"},
      {{.wall = WallSeconds(86400.0), .client = who, .type = Type::kDetach},
       R"({"wall":"0x1.518p+16",)" + who_json + R"("type":"detach"})"},
  };
  for (const auto& [event, line] : cases) EXPECT_EQ(to_jsonl(event), line);
}

TEST(GoldenBytes, MetricsJson) {
  obs::Observability o;
  o.metrics().counter("sim steps \"all\" 100%\n" + kNonAscii).add(12);
  o.metrics().gauge("pool.queue_depth_peak").set(1.0 / 3.0);
  o.metrics().histogram("sim.step", {0.1, 1.0}).observe(0.05);
  o.tracer().record("stage \"x\"%\n" + kNonAscii, obs::TraceClock::kSim, 0.25,
                    1e-7, "k=\"v\" 5%\n" + kNonAscii);
  std::ostringstream out;
  obs::write_json(out, o.metrics().snapshot(), o.tracer().events());
  EXPECT_EQ(out.str(),
            "{\n  \"metrics\": {\n    \"counters\": {\n"
            "      \"sim steps \\\"all\\\" 100%\\n\xC3\xA9\": 12\n"
            "    },\n    \"gauges\": {\n"
            "      \"pool.queue_depth_peak\": 0.333333333\n"
            "    },\n    \"histograms\": {\n"
            "      \"sim.step\": {\"count\": 1, \"sum\": 0.05, \"min\": "
            "0.05, \"max\": 0.05, \"bounds\": [0.1, 1], \"buckets\": [1, 0, "
            "0]}\n    }\n  },\n  \"trace\": [\n"
            "    {\"stage\": \"stage \\\"x\\\"%\\n\xC3\xA9\", \"clock\": "
            "\"sim\", \"start\": 0.25, \"duration\": 1e-07, \"meta\": "
            "\"k=\\\"v\\\" 5%\\n\xC3\xA9\"}\n  ]\n}\n");
}

TEST(GoldenBytes, BenchReport) {
  benchio::BenchReport report;
  report.add("codec \"x\"\n" + kNonAscii, "100% case", "ratio", 2.0 / 7.0,
             "x");
  report.add("kernel_step", "96km", "step_seconds", 1.2e-05, "s");
  const fs::path path =
      fs::temp_directory_path() / "adaptviz_golden_bench.json";
  report.save(path.string());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  fs::remove(path);
  EXPECT_EQ(text.str(),
            "[\n  {\"bench\": \"codec \\\"x\\\"\\n\xC3\xA9\", \"scenario\": "
            "\"100% case\", \"metric\": \"ratio\", \"value\": 0.285714286, "
            "\"unit\": \"x\"},\n"
            "  {\"bench\": \"kernel_step\", \"scenario\": \"96km\", "
            "\"metric\": \"step_seconds\", \"value\": 1.2e-05, \"unit\": "
            "\"s\"}\n]\n");
}

}  // namespace
}  // namespace adaptviz
