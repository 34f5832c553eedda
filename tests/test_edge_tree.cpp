// Edge-cache distribution tree (src/serve/edge_tree.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/run_context.hpp"
#include "serve/edge_tree.hpp"

namespace adaptviz {
namespace {

Frame mkframe(std::int64_t seq, double mb, double sim_seconds) {
  Frame f;
  f.sequence = seq;
  f.size = Bytes::megabytes(mb);
  f.sim_time = SimSeconds(sim_seconds);
  return f;
}

/// A tier on an exact uplink: no latency, no fluctuation, so fill timing
/// is arithmetic and tests are about protocol, not noise.
EdgeTierSpec exact_tier(int fan_out, double mbps = 800.0,
                        double failure_rate = 0.0) {
  EdgeTierSpec tier;
  tier.fan_out = fan_out;
  tier.uplink.nominal = Bandwidth::mbps(mbps);
  tier.uplink.latency = WallSeconds(0.0);
  tier.uplink.failure_probability = failure_rate;
  tier.cache.capacity = Bytes::gigabytes(4.0);
  return tier;
}

TreeSpec small_spec(std::vector<EdgeTierSpec> tiers,
                    double stagger_seconds = 0.0) {
  TreeSpec spec;
  spec.tiers = std::move(tiers);
  spec.leaf_join_stagger = WallSeconds(stagger_seconds);
  spec.retry.initial_backoff = WallSeconds(2.0);
  spec.retry.max_backoff = WallSeconds(30.0);
  spec.retry.jitter = 0.0;  // exact backoff arithmetic
  return spec;
}

void publish_cadence(EventQueue& queue, EdgeTree& tree, int frames,
                     double period_seconds = 10.0, double mb = 10.0) {
  for (int i = 0; i < frames; ++i) {
    queue.schedule_at(WallSeconds(period_seconds * i), [&tree, i, mb] {
      tree.publish(mkframe(i, mb, 100.0 * i));
    });
  }
}

// ------------------------------------------------------------- construction

TEST(EdgeTree, ValidationRejectsNonsensicalSpecs) {
  EventQueue queue;
  EXPECT_THROW(EdgeTree(queue, TreeSpec{}, 1), std::invalid_argument);

  TreeSpec spec = small_spec({exact_tier(2)});
  spec.viewers_per_leaf = 0;
  EXPECT_THROW(EdgeTree(queue, spec, 1), std::invalid_argument);

  spec = small_spec({exact_tier(0)});
  EXPECT_THROW(EdgeTree(queue, spec, 1), std::invalid_argument);

  spec = small_spec({exact_tier(2)});
  spec.tiers[0].codec_ratio = 0.5;
  EXPECT_THROW(EdgeTree(queue, spec, 1), std::invalid_argument);

  spec = small_spec({exact_tier(2)});
  spec.retry.jitter = 1.0;
  EXPECT_THROW(EdgeTree(queue, spec, 1), std::invalid_argument);

  spec = small_spec({exact_tier(2)});
  spec.retry.degrade_after = 0;
  EXPECT_THROW(EdgeTree(queue, spec, 1), std::invalid_argument);

  spec = small_spec({exact_tier(2)});
  spec.leaf_join_stagger = WallSeconds(-1.0);
  EXPECT_THROW(EdgeTree(queue, spec, 1), std::invalid_argument);

  // 100^3 = 1M is the cap; one more tier must be rejected, not allocated.
  spec = small_spec({exact_tier(100), exact_tier(100), exact_tier(100),
                     exact_tier(2)});
  EXPECT_THROW(EdgeTree(queue, spec, 1), std::invalid_argument);
}

TEST(EdgeTree, TopologyMultipliesFanOutTierByTier) {
  EventQueue queue;
  TreeSpec spec = small_spec({exact_tier(2), exact_tier(3)});
  spec.viewers_per_leaf = 50;
  EdgeTree tree(queue, spec, /*seed=*/1);
  EXPECT_EQ(tree.tier_count(), 2);
  EXPECT_EQ(tree.nodes_in_tier(0), 2);
  EXPECT_EQ(tree.nodes_in_tier(1), 6);
  EXPECT_EQ(tree.leaf_count(), 6);
  EXPECT_EQ(tree.modeled_viewers(), 300);
  EXPECT_EQ(EdgeTree::node_name(1, 5), "tree.t1.n5");
}

TEST(EdgeTree, PublishRejectsNonIncreasingSequences) {
  EventQueue queue;
  EdgeTree tree(queue, small_spec({exact_tier(1)}), /*seed=*/1);
  tree.publish(mkframe(3, 1, 0));
  EXPECT_THROW(tree.publish(mkframe(3, 1, 100)), std::invalid_argument);
  EXPECT_THROW(tree.publish(mkframe(1, 1, 100)), std::invalid_argument);
}

// ----------------------------------------------------------------- delivery

TEST(EdgeTree, EveryLeafReplaysEveryFrameInOrder) {
  EventQueue queue;
  TreeSpec spec = small_spec({exact_tier(1), exact_tier(2)});
  spec.viewers_per_leaf = 100;
  EdgeTree tree(queue, spec, /*seed=*/1);
  publish_cadence(queue, tree, 5);
  queue.run_all();
  EXPECT_TRUE(tree.idle());
  EXPECT_EQ(tree.frames_published(), 5);
  EXPECT_EQ(tree.leaf_frames_delivered(), 10);
  EXPECT_EQ(tree.frames_delivered(), 1000);  // x viewers_per_leaf
  for (int leaf = 0; leaf < tree.leaf_count(); ++leaf) {
    const auto& records = tree.leaf_deliveries(leaf);
    ASSERT_EQ(records.size(), 5u);
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].sequence, static_cast<std::int64_t>(i));
      EXPECT_GE(records[i].staleness.seconds(), 0.0);
    }
  }
}

TEST(EdgeTree, SingleFlightCoalescesConcurrentFills) {
  // Two leaves under one regional cache, joining at the same instant: for
  // every frame both leaf nodes miss and fetch from the parent, whose
  // second request must piggyback on the first's in-flight WAN transfer.
  EventQueue queue;
  EdgeTree tree(queue, small_spec({exact_tier(1), exact_tier(2)}),
                /*seed=*/1);
  publish_cadence(queue, tree, 4);
  queue.run_all();
  const EdgeTree::NodeStats& parent = tree.node(0, 0).stats;
  EXPECT_EQ(parent.fills, 4);           // one upstream flight per frame
  EXPECT_EQ(parent.fill_coalesced, 4);  // the sibling's request, every time
  EXPECT_EQ(tree.origin_requests(), 4);
  // The origin moved each frame exactly once; the leaf tier moved it once
  // per leaf.
  EXPECT_EQ(tree.origin_bytes_on_wan(), Bytes::megabytes(10.0) * 4.0);
  EXPECT_EQ(tree.tier_stats(1).bytes_filled, Bytes::megabytes(10.0) * 8.0);
}

TEST(EdgeTree, LateLeavesHitCachesEarlierSiblingsWarmed) {
  // Leaf 1 joins 500 s in, after leaf 0 pulled everything through the
  // shared parent: its replay is parent-cache hits, zero new origin bytes.
  EventQueue queue;
  EdgeTree tree(queue,
                small_spec({exact_tier(1), exact_tier(2)}, /*stagger=*/500.0),
                /*seed=*/1);
  publish_cadence(queue, tree, 4);
  queue.run_all();
  EXPECT_TRUE(tree.idle());
  const EdgeTree::NodeStats& parent = tree.node(0, 0).stats;
  EXPECT_EQ(parent.fills, 4);
  EXPECT_EQ(parent.fill_coalesced, 0);
  EXPECT_EQ(tree.node(0, 0).cache.stats().hits, 4);
  EXPECT_EQ(tree.origin_bytes_on_wan(), Bytes::megabytes(10.0) * 4.0);
  ASSERT_EQ(tree.leaf_deliveries(1).size(), 4u);
}

// ------------------------------------------------------- faults and retries

TEST(EdgeTree, FailingFillKeepsWaitersCoalescedAndLatchesDegraded) {
  // Origin uplink aborts every attempt: the single flight for frame 0
  // retries forever on the backoff ladder. Leaf 1's request, arriving
  // mid-backoff, must coalesce onto the failing flight (never start a
  // second one), and the node latches link_degraded after degrade_after
  // consecutive failures.
  EventQueue queue;
  TreeSpec spec =
      small_spec({exact_tier(1, 800.0, /*failure_rate=*/1.0), exact_tier(2)},
                 /*stagger=*/3.0);
  spec.retry.degrade_after = 3;
  EdgeTree tree(queue, spec, /*seed=*/1);
  tree.publish(mkframe(0, 10, 0));
  queue.run_until(WallSeconds(200.0));

  const EdgeTree::Node& parent = tree.node(0, 0);
  EXPECT_EQ(parent.stats.fills, 1);  // still the one single flight
  EXPECT_GE(parent.stats.fill_failures, 3);
  EXPECT_EQ(parent.stats.fill_retries, parent.stats.fill_failures - 1);
  EXPECT_EQ(parent.stats.fill_coalesced, 1);  // leaf 1, during a backoff
  EXPECT_TRUE(parent.ladder.degraded);
  EXPECT_EQ(parent.stats.degraded_events, 1);  // latched once, not per fail
  EXPECT_FALSE(parent.waiters.empty());
  EXPECT_FALSE(tree.idle());
  EXPECT_EQ(tree.tier_stats(0).links_degraded, 1);
  EXPECT_EQ(tree.leaf_frames_delivered(), 0);
  // Aborted attempts still burned wire bytes.
  EXPECT_GT(tree.tier_stats(0).bytes_wasted, Bytes(0));
}

TEST(EdgeTree, RetriesRecoverToExactlyOnceDeliveryAndClearDegraded) {
  EventQueue queue;
  TreeSpec spec =
      small_spec({exact_tier(1, 800.0, /*failure_rate=*/0.5), exact_tier(2)});
  spec.retry.degrade_after = 1;  // every failure latches, every success clears
  EdgeTree tree(queue, spec, /*seed=*/7);
  publish_cadence(queue, tree, 10);
  queue.run_all();
  EXPECT_TRUE(tree.idle());

  const EdgeTierStats t0 = tree.tier_stats(0);
  EXPECT_GT(t0.fill_failures, 0);
  EXPECT_EQ(t0.fill_retries, t0.fill_failures);  // every abort was retried
  EXPECT_GT(t0.degraded_events, 0);
  EXPECT_EQ(t0.links_degraded, 0);  // the last fill succeeded and cleared it
  EXPECT_FALSE(tree.node(0, 0).ladder.degraded);
  // Single-flight survived the retries: one successful fill per frame.
  EXPECT_EQ(t0.fills, 10);
  EXPECT_EQ(t0.bytes_filled, Bytes::megabytes(10.0) * 10.0);
  for (int leaf = 0; leaf < tree.leaf_count(); ++leaf) {
    const auto& records = tree.leaf_deliveries(leaf);
    ASSERT_EQ(records.size(), 10u);
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].sequence, static_cast<std::int64_t>(i));
    }
  }
}

// ----------------------------------------------- shapes, codec, boundedness

TEST(EdgeTree, DeliveredContentIsIdenticalAcrossShapesWithEqualLeaves) {
  auto run = [](std::vector<EdgeTierSpec> tiers) {
    EventQueue queue;
    EdgeTree tree(queue, small_spec(std::move(tiers), /*stagger=*/5.0),
                  /*seed=*/42);
    publish_cadence(queue, tree, 6);
    queue.run_all();
    return std::make_pair(tree.delivery_digest(/*include_wall_times=*/false),
                          tree.origin_bytes_on_wan());
  };
  const auto flat = run({exact_tier(4)});
  const auto tiered = run({exact_tier(2), exact_tier(2)});
  EXPECT_EQ(flat.first, tiered.first);
  // Four origin pulls per frame flat, two through the regional caches.
  EXPECT_EQ(flat.second, Bytes::megabytes(10.0) * 24.0);
  EXPECT_EQ(tiered.second, Bytes::megabytes(10.0) * 12.0);
}

TEST(EdgeTree, CodecRatioShrinksWireBytesNotCachedBytes) {
  EventQueue queue;
  TreeSpec spec = small_spec({exact_tier(1)});
  spec.tiers[0].codec_ratio = 4.0;
  EdgeTree tree(queue, spec, /*seed=*/1);
  tree.publish(mkframe(0, 8, 0));
  queue.run_all();
  EXPECT_EQ(tree.origin_bytes_on_wan(), Bytes::megabytes(2.0));
  EXPECT_EQ(tree.node(0, 0).cache.bytes_cached(), Bytes::megabytes(8.0));
}

TEST(EdgeTree, NodeCachesStayBoundedUnderEvictionPressure) {
  EventQueue queue;
  TreeSpec spec = small_spec({exact_tier(2)});
  spec.tiers[0].cache.capacity = Bytes::megabytes(25.0);  // two 10 MB frames
  spec.tiers[0].cache.policy = EvictionPolicy::kStrideThinning;
  EdgeTree tree(queue, spec, /*seed=*/1);
  publish_cadence(queue, tree, 12);
  queue.run_all();
  EXPECT_TRUE(tree.idle());
  const EdgeTierStats t0 = tree.tier_stats(0);
  EXPECT_LE(t0.peak_node_bytes, Bytes::megabytes(25.0));
  EXPECT_GT(t0.cache_evictions, 0);
  for (int leaf = 0; leaf < tree.leaf_count(); ++leaf) {
    EXPECT_EQ(tree.leaf_deliveries(leaf).size(), 12u);
  }
}

// ------------------------------------------------------------ observability

TEST(EdgeTree, PerTierMetricsLandInTheInstalledRegistry) {
  obs::Observability obs;
  RunContext ctx;
  ctx.observability = &obs;
  ScopedRunContext scope(&ctx);

  EventQueue queue;
  TreeSpec spec =
      small_spec({exact_tier(1, 800.0, /*failure_rate=*/0.5), exact_tier(2)});
  spec.retry.degrade_after = 1;
  spec.viewers_per_leaf = 10;
  EdgeTree tree(queue, spec, /*seed=*/7);
  publish_cadence(queue, tree, 10);
  queue.run_all();

  obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.counter("tree.published").value(), 10);
  EXPECT_EQ(m.counter("tree.viewer_frames").value(), 200);  // 2 leaves x 10
  // Tier-0 fill protocol, including the retry/degraded series the fault
  // ladder produces.
  const EdgeTierStats t0 = tree.tier_stats(0);
  EXPECT_EQ(m.counter("tree.t0.fills").value(), t0.fills);
  EXPECT_EQ(m.counter("tree.t0.fill_failures").value(), t0.fill_failures);
  EXPECT_GT(m.counter("tree.t0.fill_retries").value(), 0);
  EXPECT_EQ(m.counter("tree.t0.fill_retries").value(), t0.fill_retries);
  EXPECT_GT(m.counter("tree.t0.degraded_events").value(), 0);
  EXPECT_DOUBLE_EQ(m.gauge("tree.t0.links_degraded").value(), 0.0);
  EXPECT_EQ(m.counter("tree.t0.wan_bytes").value(),
            tree.origin_bytes_on_wan().count());
  // Staleness histograms fill per tier; leaf-tier cache counters carry the
  // obs_prefix wired through FrameCacheConfig (fan-out hits included).
  EXPECT_EQ(m.histogram("tree.t0.staleness_s").count(), t0.fills);
  EXPECT_GT(m.histogram("tree.t1.staleness_s").count(), 0);
  EXPECT_EQ(m.counter("tree.t1.cache_hits").value(),
            tree.tier_stats(1).cache_hits);
}

}  // namespace
}  // namespace adaptviz
