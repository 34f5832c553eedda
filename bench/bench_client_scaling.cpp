// Client-scaling bench for the serving subsystem (src/serve).
//
// Part 1 — single-site scaling: the inter-department Aila run fanned out
// to 1/8/32/128 viewer clients over a sweep of cache capacities. For every
// cell it reports deliveries, cache hit rate, evictions, re-renders and
// the peak resident cache bytes, and *fails* (exit 1) if the cache ever
// exceeded its configured byte cap — the bounded-memory guarantee.
//
// Part 2 — tiered fan-out: the edge-cache distribution tree takes the
// same 64-leaf viewer population from a flat topology (64 caches pulling
// straight off the origin — the PR 2 shape, one WAN transfer per leaf) to
// 2- and 3-tier trees, with 1600 modeled viewers per leaf = 102,400
// clients. Asserted invariants: per-node cache bytes stay bounded, every
// tier's hit rate is > 0, the 2-tier tree cuts origin bytes-on-WAN by
// >= 10x vs flat, delivered-frame digests are bitwise identical across
// tree shapes (equal leaf count), and a 30% fill-failure rate on the
// regional uplinks still delivers every frame to every leaf exactly once
// with the identical content digest. Per-tier hit-rate / bytes-on-WAN /
// staleness curves land in BENCH_client_scaling.json.
//
// Part 3 — determinism: the synthetic single-site serving workload (late
// catch-up joiners forcing re-renders) run twice must produce bitwise
// identical delivery digests; a fixed-seed full experiment is run twice
// and digest-compared.
//
// --quick shrinks part 1 to one cell and the tree stream to 60 frames
// (the ctest smoke); --json=PATH overrides the report location.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "experiment_common.hpp"
#include "serve/edge_tree.hpp"
#include "serve/session_manager.hpp"
#include "util/logging.hpp"

using namespace adaptviz;
using namespace adaptviz::bench;

namespace {

// FNV-1a over raw bytes: digests must capture exact bit patterns.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
};

std::uint64_t digest_deliveries(const ViewerSessionManager& m) {
  Digest d;
  for (ClientId c{0}; c.value < m.viewer_count(); ++c.value) {
    d.i64(c.value);
    for (const DeliveryRecord& r : m.deliveries(c)) {
      d.f64(r.wall_time.seconds());
      d.f64(r.sim_time.seconds());
      d.i64(r.sequence);
      d.i64(r.size.count());
      d.i64(r.cache_hit ? 1 : 0);
    }
  }
  return d.h;
}

std::uint64_t digest_result(const ExperimentResult& r) {
  Digest d;
  for (const ClientSeries& c : r.clients) {
    for (const DeliveryRecord& rec : c.records) {
      d.f64(rec.wall_time.seconds());
      d.f64(rec.sim_time.seconds());
      d.i64(rec.sequence);
      d.i64(rec.size.count());
      d.i64(rec.cache_hit ? 1 : 0);
    }
  }
  d.i64(r.summary.cache_hits);
  d.i64(r.summary.cache_misses);
  d.i64(r.summary.cache_evictions);
  return d.h;
}

ExperimentConfig scaling_config(int clients, double cache_gb) {
  ExperimentConfig cfg;
  cfg.name = "client-scaling";
  cfg.site = inter_department_site();
  cfg.algorithm = AlgorithmKind::kOptimization;
  cfg.sim_window = SimSeconds::hours(60.0);
  cfg.max_wall = WallSeconds::hours(60.0);
  cfg.model.compute_scale = 8.0;
  cfg.seed = 42;
  cfg.serve.session.cache.capacity = Bytes::gigabytes(cache_gb);
  cfg.serve.session.cache.policy = EvictionPolicy::kStrideThinning;
  cfg.serve.session.rerender_workers = 2;
  // A quarter of the fleet connects 12 wall hours in and replays the run
  // from the start — the cache-miss / re-render load.
  cfg.serve.viewers =
      make_viewer_fleet(clients, Bandwidth::mbps(100.0),
                        /*catchup_fraction=*/0.25, SimSeconds(0.0),
                        /*catchup_join=*/WallSeconds::hours(12.0));
  return cfg;
}

// ---- Part 2: the tiered fan-out rig ----

TreeSpec make_tree_spec(const std::vector<int>& fan_out,
                        std::int64_t viewers_per_leaf,
                        double tier0_failure_rate) {
  TreeSpec spec;
  for (std::size_t t = 0; t < fan_out.size(); ++t) {
    EdgeTierSpec tier;
    tier.fan_out = fan_out[t];
    // Tier 0 rides the origin's WAN; deeper tiers are regional metro links.
    tier.uplink.nominal =
        t == 0 ? Bandwidth::mbps(1000.0) : Bandwidth::mbps(200.0);
    tier.uplink.latency = WallSeconds(t == 0 ? 0.04 : 0.005);
    tier.uplink.failure_probability = t == 0 ? tier0_failure_rate : 0.0;
    tier.cache.capacity =
        t == 0 ? Bytes::gigabytes(8.0) : Bytes::gigabytes(2.0);
    tier.cache.policy = EvictionPolicy::kStrideThinning;
    spec.tiers.push_back(tier);
  }
  spec.viewers_per_leaf = viewers_per_leaf;
  spec.retry.initial_backoff = WallSeconds(2.0);
  spec.retry.max_backoff = WallSeconds(30.0);
  spec.leaf_join_stagger = WallSeconds(5.0);
  return spec;
}

struct TreeRun {
  std::vector<EdgeTierStats> tiers;
  Bytes origin_wan{};
  std::int64_t leaf_frames = 0;
  std::int64_t viewers = 0;
  std::int64_t fill_retries = 0;
  std::uint64_t shape_digest = 0;  // content only: (leaf, seq, size, sim)
  double wall_hours = 0.0;
  bool bounded = true;
  bool exactly_once = true;
  bool all_tiers_hit = true;
};

/// Publishes a fixed synthetic frame stream (60 s cadence, the determinism
/// rig's size pattern) through a tree of the given shape and drains it.
TreeRun run_tree(const std::vector<int>& fan_out, int frames,
                 std::int64_t viewers_per_leaf, double tier0_failure_rate) {
  EventQueue queue;
  EdgeTree tree(queue, make_tree_spec(fan_out, viewers_per_leaf,
                                      tier0_failure_rate),
                /*seed=*/42);
  for (int i = 0; i < frames; ++i) {
    queue.schedule_at(WallSeconds(60.0 * i), [&tree, i] {
      Frame f;
      f.sequence = i;
      f.sim_time = SimSeconds(1800.0 * i);
      f.size = Bytes::megabytes(80.0 + 17.0 * (i % 7));
      tree.publish(f);
    });
  }
  queue.run_all();

  TreeRun out;
  for (int t = 0; t < tree.tier_count(); ++t) {
    EdgeTierStats ts = tree.tier_stats(t);
    const Bytes cap = tree.spec().tiers[static_cast<std::size_t>(t)]
                          .cache.capacity;
    out.bounded = out.bounded && ts.peak_node_bytes <= cap;
    out.all_tiers_hit = out.all_tiers_hit && ts.cache_hits > 0;
    out.fill_retries += ts.fill_retries;
    out.tiers.push_back(ts);
  }
  for (int leaf = 0; leaf < tree.leaf_count(); ++leaf) {
    const auto& records = tree.leaf_deliveries(leaf);
    if (static_cast<int>(records.size()) != frames) out.exactly_once = false;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].sequence != static_cast<std::int64_t>(i)) {
        out.exactly_once = false;
      }
    }
  }
  out.origin_wan = tree.origin_bytes_on_wan();
  out.leaf_frames = tree.leaf_frames_delivered();
  out.viewers = tree.modeled_viewers();
  out.shape_digest = tree.delivery_digest(/*include_wall_times=*/false);
  out.wall_hours = queue.now().as_hours();
  return out;
}

std::string shape_name(const std::vector<int>& fan_out) {
  std::string s = "tree";
  for (std::size_t i = 0; i < fan_out.size(); ++i) {
    s += (i == 0 ? "" : "x") + std::to_string(fan_out[i]);
  }
  return s;
}

void report_tree(benchio::BenchReport& report, const std::string& scenario,
                 const TreeRun& r) {
  report.add("client_scaling", scenario, "viewers",
             static_cast<double>(r.viewers), "clients");
  report.add("client_scaling", scenario, "leaf_frames",
             static_cast<double>(r.leaf_frames), "frames");
  report.add("client_scaling", scenario, "origin_wan_gb", r.origin_wan.gb(),
             "GB");
  report.add("client_scaling", scenario, "bounded", r.bounded ? 1.0 : 0.0,
             "flag");
  report.add("client_scaling", scenario, "wall_hours", r.wall_hours, "h");
  for (std::size_t t = 0; t < r.tiers.size(); ++t) {
    const EdgeTierStats& ts = r.tiers[t];
    const std::string tier = "t" + std::to_string(t);
    report.add("client_scaling", scenario, tier + "_hit_rate",
               ts.hit_rate(), "fraction");
    report.add("client_scaling", scenario, tier + "_wan_gb",
               ts.bytes_on_wan().gb(), "GB");
    report.add("client_scaling", scenario, tier + "_staleness_mean_s",
               ts.mean_staleness_s(), "s");
    report.add("client_scaling", scenario, tier + "_staleness_max_s",
               ts.staleness_max_s, "s");
    report.add("client_scaling", scenario, tier + "_evictions",
               static_cast<double>(ts.cache_evictions), "count");
    report.add("client_scaling", scenario, tier + "_fill_coalesced",
               static_cast<double>(ts.fill_coalesced), "count");
  }
}

void print_tree(const std::string& scenario, const TreeRun& r) {
  std::printf("  %-10s: %7lld viewers, %6lld leaf frames, origin WAN "
              "%8.2f GB, wall %5.1f h %s%s\n",
              scenario.c_str(), static_cast<long long>(r.viewers),
              static_cast<long long>(r.leaf_frames), r.origin_wan.gb(),
              r.wall_hours, r.bounded ? "(bounded)" : "** CAP EXCEEDED **",
              r.exactly_once ? "" : " ** DELIVERY LOST/DUPLICATED **");
  for (std::size_t t = 0; t < r.tiers.size(); ++t) {
    const EdgeTierStats& ts = r.tiers[t];
    std::printf("    tier %zu: %3d nodes, hit %5.1f%%, WAN %8.2f GB, "
                "staleness mean/max %6.1f/%6.1f s, evictions %5lld, "
                "coalesced %5lld\n",
                t, ts.nodes, ts.hit_rate() * 100.0, ts.bytes_on_wan().gb(),
                ts.mean_staleness_s(), ts.staleness_max_s,
                static_cast<long long>(ts.cache_evictions),
                static_cast<long long>(ts.fill_coalesced));
  }
}

/// Synthetic serving rig: a fixed 180-frame stream, 24 mixed clients and a
/// cache small enough to thin aggressively. Returns the delivery digest.
std::uint64_t run_determinism_rig() {
  EventQueue queue;
  ViewerSessionManager::Options opts;
  opts.cache.capacity = Bytes::megabytes(1500.0);
  opts.cache.policy = EvictionPolicy::kStrideThinning;
  opts.rerender_workers = 3;
  ViewerSessionManager manager(queue, opts, /*seed=*/7);
  for (const ViewerConfig& v :
       make_viewer_fleet(24, Bandwidth::mbps(40.0), /*catchup_fraction=*/0.5,
                         SimSeconds(0.0),
                         /*catchup_join=*/WallSeconds(3000.0))) {
    manager.attach(v);
  }
  for (int i = 0; i < 180; ++i) {
    queue.schedule_at(WallSeconds(60.0 * i), [&manager, i] {
      Frame f;
      f.sequence = i;
      f.sim_time = SimSeconds(1800.0 * i);
      f.size = Bytes::megabytes(80.0 + 17.0 * (i % 7));
      manager.on_frame(f);
    });
  }
  queue.run_all();
  return digest_deliveries(manager);
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  const benchio::BenchArgs args = benchio::parse_bench_args(argc, argv);
  const std::string json_path =
      args.json_path.empty() ? "BENCH_client_scaling.json" : args.json_path;
  benchio::BenchReport report;
  bool ok = true;

  std::printf("== client scaling: viewers x cache capacity "
              "(inter-department, optimization) ==\n");
  CsvTable table({"clients", "cache_gb", "frames_sent", "frames_served",
                  "hit_percent", "evictions", "rerenders", "peak_cache_gb",
                  "bounded", "wall_hours"});
  const std::vector<int> client_axis = args.quick ? std::vector<int>{8}
                                                  : std::vector<int>{1, 8, 32,
                                                                     128};
  const std::vector<double> cache_axis =
      args.quick ? std::vector<double>{4.0}
                 : std::vector<double>{2.0, 4.0, 16.0};
  for (const int clients : client_axis) {
    for (const double cache_gb : cache_axis) {
      const ExperimentConfig cfg = scaling_config(clients, cache_gb);
      const ExperimentResult r = run_experiment(cfg);
      const ExperimentSummary& s = r.summary;
      const double hit_pct =
          s.cache_hits + s.cache_misses == 0
              ? 100.0
              : 100.0 * static_cast<double>(s.cache_hits) /
                    static_cast<double>(s.cache_hits + s.cache_misses);
      const bool bounded =
          s.peak_cache_bytes <= cfg.serve.session.cache.capacity;
      ok = ok && bounded;
      std::printf("  %3d clients, %5.1f GB cache: served %6lld frames, "
                  "%5.1f%% hit, %4lld evictions, %3lld rerenders, peak "
                  "%5.2f GB %s, wall %.1f h\n",
                  clients, cache_gb, static_cast<long long>(s.frames_served),
                  hit_pct, static_cast<long long>(s.cache_evictions),
                  static_cast<long long>(s.rerenders),
                  s.peak_cache_bytes.gb(),
                  bounded ? "(bounded)" : "** CAP EXCEEDED **",
                  s.wall_elapsed.as_hours());
      table.add_row({static_cast<long>(clients), cache_gb, s.frames_sent,
                     s.frames_served, hit_pct, s.cache_evictions,
                     s.rerenders, s.peak_cache_bytes.gb(),
                     static_cast<long>(bounded), s.wall_elapsed.as_hours()});
      const std::string cell =
          "c" + std::to_string(clients) + "-" +
          std::to_string(static_cast<int>(cache_gb)) + "gb";
      report.add("client_scaling", cell, "hit_percent", hit_pct, "%");
      report.add("client_scaling", cell, "peak_cache_gb",
                 s.peak_cache_bytes.gb(), "GB");
      report.add("client_scaling", cell, "rerenders",
                 static_cast<double>(s.rerenders), "count");
      report.add("client_scaling", cell, "bounded", bounded ? 1.0 : 0.0,
                 "flag");
    }
  }
  save_csv(table, "client_scaling");

  std::printf("\n== tiered fan-out: 64 leaves, 1600 viewers/leaf = 102,400 "
              "modeled clients ==\n");
  const int tree_frames = args.quick ? 60 : 240;
  const std::int64_t viewers_per_leaf = 1600;
  const TreeRun flat = run_tree({64}, tree_frames, viewers_per_leaf,
                                /*failure=*/0.0);
  const TreeRun two = run_tree({4, 16}, tree_frames, viewers_per_leaf,
                               /*failure=*/0.0);
  const TreeRun three = run_tree({4, 4, 4}, tree_frames, viewers_per_leaf,
                                 /*failure=*/0.0);
  print_tree("flat64", flat);
  print_tree(shape_name({4, 16}), two);
  print_tree(shape_name({4, 4, 4}), three);
  report_tree(report, "flat64", flat);
  report_tree(report, shape_name({4, 16}), two);
  report_tree(report, shape_name({4, 4, 4}), three);
  for (const TreeRun* r : {&flat, &two, &three}) {
    ok = ok && r->bounded && r->exactly_once && r->all_tiers_hit &&
         r->viewers >= 100'000;
  }

  // 2-tier vs flat: one origin transfer now serves 16 leaves, so origin
  // bytes-on-WAN must drop by at least 10x (the tree's reason to exist).
  const double wan_reduction = flat.origin_wan / two.origin_wan;
  const bool wan_ok = wan_reduction >= 10.0;
  ok = ok && wan_ok;
  std::printf("  origin WAN reduction flat -> 2-tier: %.1fx %s\n",
              wan_reduction, wan_ok ? "(>= 10x)" : "** BELOW 10x **");
  report.add("client_scaling", "flat_vs_2tier", "wan_reduction",
             wan_reduction, "x");

  // Same leaf population => identical delivered content, whatever hangs
  // above the leaves.
  const bool shapes_same = flat.shape_digest == two.shape_digest &&
                           two.shape_digest == three.shape_digest;
  ok = ok && shapes_same;
  std::printf("  delivered-frame digest across shapes: %016llx %s\n",
              static_cast<unsigned long long>(two.shape_digest),
              shapes_same ? "== identical" : "** DIVERGED **");
  report.add("client_scaling", "shapes", "digest_match",
             shapes_same ? 1.0 : 0.0, "flag");

  // 30% of regional fills aborting mid-flight: retries happen, every leaf
  // still gets every frame exactly once, and the delivered *content* is
  // bit-identical to the clean run (only wall times shift).
  const TreeRun faulted = run_tree({4, 16}, tree_frames, viewers_per_leaf,
                                   /*failure=*/0.3);
  const bool fault_ok = faulted.exactly_once && faulted.fill_retries > 0 &&
                        faulted.shape_digest == two.shape_digest;
  ok = ok && fault_ok;
  std::printf("  2-tier @ 30%% fill failures: %lld retries, %s\n",
              static_cast<long long>(faulted.fill_retries),
              fault_ok ? "exactly-once, content digest identical"
                       : "** INVARIANT VIOLATED **");
  report.add("client_scaling", "faulted_2tier", "fill_retries",
             static_cast<double>(faulted.fill_retries), "count");
  report.add("client_scaling", "faulted_2tier", "exactly_once",
             fault_ok ? 1.0 : 0.0, "flag");

  std::printf("\n== determinism of the serving rig (run twice) ==\n");
  const std::uint64_t rig1 = run_determinism_rig();
  const std::uint64_t rig2 = run_determinism_rig();
  ok = ok && rig1 == rig2;
  std::printf("  run1 %016llx / run2 %016llx %s\n",
              static_cast<unsigned long long>(rig1),
              static_cast<unsigned long long>(rig2),
              rig1 == rig2 ? "== identical" : "** DIVERGED **");

  if (!args.quick) {
    std::printf("\n== determinism of the full experiment (fixed seed) ==\n");
    const ExperimentConfig cfg = scaling_config(32, 4.0);
    const std::uint64_t run1 = digest_result(run_experiment(cfg));
    const std::uint64_t run2 = digest_result(run_experiment(cfg));
    ok = ok && run1 == run2;
    std::printf("  run1 %016llx / run2 %016llx %s\n",
                static_cast<unsigned long long>(run1),
                static_cast<unsigned long long>(run2),
                run1 == run2 ? "== identical" : "** DIVERGED **");
  }

  report.save(json_path);
  std::printf("wrote %s (%zu rows)\n", json_path.c_str(),
              report.rows().size());
  std::printf("\n%s\n", ok ? "client scaling: all invariants held"
                           : "client scaling: INVARIANT VIOLATIONS");
  return ok ? 0 : 1;
}
