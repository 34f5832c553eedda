// Frame cache and multi-client serving subsystem (src/serve).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dataio/frame.hpp"
#include "resources/event_queue.hpp"
#include "serve/frame_cache.hpp"
#include "serve/session_manager.hpp"

namespace adaptviz {
namespace {

Frame mkframe(std::int64_t seq, double mb, double sim_seconds) {
  Frame f;
  f.sequence = seq;
  f.size = Bytes::megabytes(mb);
  f.sim_time = SimSeconds(sim_seconds);
  return f;
}

// Exact equality of two delivery series, wall times compared as doubles:
// a serving run must not depend on anything but its inputs.
void expect_same_series(const std::vector<DeliveryRecord>& a,
                        const std::vector<DeliveryRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sequence, b[i].sequence);
    EXPECT_EQ(a[i].wall_time.seconds(), b[i].wall_time.seconds());
    EXPECT_EQ(a[i].sim_time.seconds(), b[i].sim_time.seconds());
    EXPECT_EQ(a[i].cache_hit, b[i].cache_hit);
  }
}

// ---------------------------------------------------------------- FrameCache

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  FrameCache cache({.capacity = Bytes::megabytes(3),
                    .policy = EvictionPolicy::kLru});
  cache.insert(mkframe(0, 1, 0));
  cache.insert(mkframe(1, 1, 100));
  cache.insert(mkframe(2, 1, 200));
  ASSERT_TRUE(cache.lookup(0).has_value());  // touch 0: now 1 is coldest
  cache.insert(mkframe(3, 1, 300));
  EXPECT_EQ(cache.resident_sequences(),
            (std::vector<std::int64_t>{0, 2, 3}));
  EXPECT_EQ(cache.stats().insertions, 4);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 0);
}

TEST(Cache, StrideThinningPreservesEndpointsAndCoverage) {
  // 1 MB frames at sim times 0,10,...: capacity four frames.
  FrameCache cache({.capacity = Bytes::megabytes(4),
                    .policy = EvictionPolicy::kStrideThinning});
  for (int i = 0; i < 4; ++i) cache.insert(mkframe(i, 1, 10.0 * i));
  // Insert 4: interior victims are 1 (gap 20-0) and 2 (gap 30-10); the tie
  // breaks toward the lower sequence.
  cache.insert(mkframe(4, 1, 40));
  EXPECT_EQ(cache.resident_sequences(),
            (std::vector<std::int64_t>{0, 2, 3, 4}));
  // Insert 5: removing 2 opens a 30 s gap, removing 3 or 4 a 20 s gap; the
  // tie between 3 and 4 evicts 3. Endpoints 0 and 5 stay anchored.
  cache.insert(mkframe(5, 1, 50));
  EXPECT_EQ(cache.resident_sequences(),
            (std::vector<std::int64_t>{0, 2, 4, 5}));
}

TEST(Cache, EvictsBeforeInsertSoBytesStayBounded) {
  FrameCache cache({.capacity = Bytes::megabytes(10),
                    .policy = EvictionPolicy::kLru});
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cache.insert(mkframe(i, 3, 10.0 * i)));
    EXPECT_LE(cache.bytes_cached(), Bytes::megabytes(10)) << i;
  }
  EXPECT_EQ(cache.frame_count(), 3u);
  EXPECT_LE(cache.stats().peak_bytes, Bytes::megabytes(10));
}

TEST(Cache, OversizeFrameIsRejected) {
  FrameCache cache({.capacity = Bytes::megabytes(2)});
  cache.insert(mkframe(0, 1, 0));
  EXPECT_FALSE(cache.insert(mkframe(1, 3, 100)));
  EXPECT_EQ(cache.stats().rejected, 1);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(0));  // nothing was evicted for the reject
  EXPECT_EQ(cache.bytes_cached(), Bytes::megabytes(1));
}

TEST(Cache, ReinsertRefreshesRecencyWithoutRecounting) {
  FrameCache cache({.capacity = Bytes::megabytes(3),
                    .policy = EvictionPolicy::kLru});
  cache.insert(mkframe(0, 1, 0));
  cache.insert(mkframe(1, 1, 100));
  cache.insert(mkframe(0, 1, 0));  // refresh, not a second insertion
  EXPECT_EQ(cache.stats().insertions, 2);
  EXPECT_EQ(cache.frame_count(), 2u);
  cache.insert(mkframe(2, 1, 200));
  cache.insert(mkframe(3, 1, 300));  // evicts 1: 0 was refreshed above it
  EXPECT_EQ(cache.resident_sequences(),
            (std::vector<std::int64_t>{0, 2, 3}));
}

TEST(Cache, MaxFramesBoundsCountIndependentlyOfBytes) {
  FrameCache cache({.capacity = Bytes::gigabytes(1), .max_frames = 2});
  for (int i = 0; i < 3; ++i) cache.insert(mkframe(i, 1, 10.0 * i));
  EXPECT_EQ(cache.frame_count(), 2u);
  EXPECT_EQ(cache.resident_sequences(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(Cache, CountersAndContainsSideEffects) {
  FrameCache cache({.capacity = Bytes::megabytes(4)});
  cache.insert(mkframe(0, 1, 0));
  EXPECT_TRUE(cache.lookup(0).has_value());
  EXPECT_FALSE(cache.lookup(7).has_value());
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
  // contains() is a pure probe: no counter movement.
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(7));
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

// Snapshot, then touch, insert and evict, then restore: from there on the
// cache evicts in exactly the order of one that was never interrupted.
TEST(Cache, RestoreRewindsEvictionOrder) {
  for (const EvictionPolicy policy :
       {EvictionPolicy::kLru, EvictionPolicy::kStrideThinning}) {
    const FrameCacheConfig config{.capacity = Bytes::megabytes(4),
                                  .policy = policy};
    auto warm = [](FrameCache& cache) {
      for (int i = 0; i < 4; ++i) cache.insert(mkframe(i, 1, 10.0 * i));
      cache.lookup(0);
    };
    // Resident sets after each step of a fixed touch + insert sequence.
    auto churn = [](FrameCache& cache) {
      std::vector<std::vector<std::int64_t>> out;
      for (int i = 4; i < 10; ++i) {
        cache.lookup(i - 3);
        cache.insert(mkframe(i, 1, 10.0 * i + (i % 3)));
        out.push_back(cache.resident_sequences());
      }
      return out;
    };
    FrameCache reference(config);
    warm(reference);
    const auto expected = churn(reference);

    FrameCache cache(config);
    warm(cache);
    const FrameCache::State checkpoint = cache.snapshot();
    churn(cache);  // touches, inserts and evicts past the checkpoint
    cache.restore(checkpoint);
    EXPECT_EQ(churn(cache), expected) << to_string(policy);
    EXPECT_EQ(cache.stats().evictions, reference.stats().evictions);
    EXPECT_EQ(cache.stats().hits, reference.stats().hits);
    EXPECT_EQ(cache.bytes_cached(), reference.bytes_cached());
  }
}

TEST(Cache, PolicyNamesRoundTrip) {
  EXPECT_STREQ(to_string(EvictionPolicy::kLru), "lru");
  EXPECT_STREQ(to_string(EvictionPolicy::kStrideThinning), "stride-thin");
  EXPECT_EQ(eviction_policy_from("lru"), EvictionPolicy::kLru);
  EXPECT_EQ(eviction_policy_from("stride-thin"),
            EvictionPolicy::kStrideThinning);
  EXPECT_THROW(eviction_policy_from("mru"), std::runtime_error);
  EXPECT_THROW(FrameCache({.capacity = Bytes(0)}), std::invalid_argument);
}

// ----------------------------------------------------- ViewerSessionManager

/// A viewer on an exact link: no latency, no jitter, so delivery times are
/// arithmetic.
ViewerConfig exact_viewer(double megabytes_per_sec,
                          ViewerMode mode = ViewerMode::kLiveTail) {
  ViewerConfig v;
  v.downlink.nominal = Bandwidth::megabytes_per_second(megabytes_per_sec);
  v.downlink.latency = WallSeconds(0.0);
  v.mode = mode;
  return v;
}

TEST(Sessions, LiveTailDeliversEveryFrameWhenTheDownlinkKeepsUp) {
  EventQueue queue;
  ViewerSessionManager manager(queue, {}, /*seed=*/1);
  const ClientId fast = manager.attach(exact_viewer(1.0));
  for (int i = 0; i < 4; ++i) {
    queue.schedule_at(WallSeconds(1.0 * i), [&manager, i] {
      manager.on_frame(mkframe(i, 1, 100.0 * i));
    });
  }
  queue.run_all();
  const auto& records = manager.deliveries(fast);
  ASSERT_EQ(records.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].sequence, i);
    EXPECT_NEAR(records[static_cast<std::size_t>(i)].wall_time.seconds(),
                i + 1.0, 1e-9);  // 1 MB at 1 MB/s, back to back
    EXPECT_TRUE(records[static_cast<std::size_t>(i)].cache_hit);
  }
  EXPECT_EQ(manager.stats(fast).frames_skipped, 0);
  EXPECT_TRUE(manager.idle());
}

TEST(Sessions, SlowLiveTailSkipsToNewestAndCountsIt) {
  EventQueue queue;
  ViewerSessionManager manager(queue, {}, /*seed=*/1);
  // 0.25 MB/s: each 1 MB frame takes 4 s, but frames arrive every second.
  const ClientId slow = manager.attach(exact_viewer(0.25));
  for (int i = 0; i < 4; ++i) {
    queue.schedule_at(WallSeconds(1.0 * i), [&manager, i] {
      manager.on_frame(mkframe(i, 1, 100.0 * i));
    });
  }
  queue.run_all();
  // Delivers #0 at t=4; #1 and #2 were superseded by then, so it jumps to
  // #3 and finishes at t=8 with a lag bounded by one frame.
  const auto& records = manager.deliveries(slow);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sequence, 0);
  EXPECT_NEAR(records[0].wall_time.seconds(), 4.0, 1e-9);
  EXPECT_EQ(records[1].sequence, 3);
  EXPECT_NEAR(records[1].wall_time.seconds(), 8.0, 1e-9);
  EXPECT_EQ(manager.stats(slow).frames_skipped, 2);
  EXPECT_EQ(manager.stats(slow).frames_delivered, 2);
}

TEST(Sessions, CatchUpReplaysInOrderFromTheRequestedSimTime) {
  EventQueue queue;
  ViewerSessionManager manager(queue, {}, /*seed=*/1);
  for (int i = 0; i < 5; ++i) manager.on_frame(mkframe(i, 1, 100.0 * i));
  ViewerConfig v = exact_viewer(1.0, ViewerMode::kCatchUp);
  v.catchup_start = SimSeconds(150.0);  // first frame at or after: #2
  const ClientId idx = manager.attach(v);
  queue.run_all();
  const auto& records = manager.deliveries(idx);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].sequence, 2);
  EXPECT_EQ(records[1].sequence, 3);
  EXPECT_EQ(records[2].sequence, 4);
  EXPECT_NEAR(records[2].wall_time.seconds(), 3.0, 1e-9);
  EXPECT_EQ(manager.stats(idx).cache_hits, 3);
  EXPECT_EQ(manager.stats(idx).frames_skipped, 0);  // catch-up never skips
}

TEST(Sessions, LiveTailJoiningMidRunStartsAtTheHead) {
  EventQueue queue;
  ViewerSessionManager manager(queue, {}, /*seed=*/1);
  for (int i = 0; i < 3; ++i) manager.on_frame(mkframe(i, 1, 100.0 * i));
  const ClientId idx = manager.attach(exact_viewer(1.0));
  queue.run_all();
  const auto& records = manager.deliveries(idx);
  ASSERT_EQ(records.size(), 1u);  // the newest frame, not a replay
  EXPECT_EQ(records[0].sequence, 2);
  EXPECT_EQ(manager.stats(idx).frames_skipped, 0);
}

TEST(Sessions, JoinWallDefersActivation) {
  EventQueue queue;
  ViewerSessionManager manager(queue, {}, /*seed=*/1);
  ViewerConfig v = exact_viewer(1.0);
  v.join_wall = WallSeconds(100.0);
  const ClientId idx = manager.attach(v);
  for (int i = 0; i < 5; ++i) {
    queue.schedule_at(WallSeconds(1.0 * i), [&manager, i] {
      manager.on_frame(mkframe(i, 1, 100.0 * i));
    });
  }
  queue.run_until(WallSeconds(50.0));
  EXPECT_EQ(manager.deliveries(idx).size(), 0u);
  EXPECT_FALSE(manager.idle());  // the join is still owed
  queue.run_all();
  const auto& records = manager.deliveries(idx);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sequence, 4);
  EXPECT_NEAR(records[0].wall_time.seconds(), 101.0, 1e-9);
  EXPECT_TRUE(manager.idle());
}

TEST(Sessions, SlowClientNeverPerturbsAFastOne) {
  // The fast client's delivery series must be identical whether or not a
  // near-stalled straggler shares the manager.
  auto run = [](bool with_straggler) {
    EventQueue queue;
    ViewerSessionManager manager(queue, {}, /*seed=*/1);
    const ClientId fast = manager.attach(exact_viewer(1.0));
    if (with_straggler) manager.attach(exact_viewer(0.01));
    for (int i = 0; i < 4; ++i) {
      queue.schedule_at(WallSeconds(2.0 * i), [&manager, i] {
        manager.on_frame(mkframe(i, 1, 100.0 * i));
      });
    }
    queue.run_all();
    return manager.deliveries(fast);
  };
  const std::vector<DeliveryRecord> alone = run(false);
  const std::vector<DeliveryRecord> shared = run(true);
  ASSERT_EQ(alone.size(), shared.size());
  for (std::size_t i = 0; i < alone.size(); ++i) {
    EXPECT_EQ(alone[i].sequence, shared[i].sequence);
    EXPECT_DOUBLE_EQ(alone[i].wall_time.seconds(),
                     shared[i].wall_time.seconds());
  }
}

TEST(Sessions, EvictedFramesAreRerenderedOnceAndSharedByWaiters) {
  EventQueue queue;
  ViewerSessionManager::Options opts;
  opts.cache.max_frames = 1;  // almost everything a replay needs is evicted
  ViewerSessionManager manager(queue, opts, /*seed=*/1);
  for (int i = 0; i < 4; ++i) manager.on_frame(mkframe(i, 1, 100.0 * i));
  ViewerConfig v = exact_viewer(1.0, ViewerMode::kCatchUp);
  const ClientId a = manager.attach(v);
  const ClientId b = manager.attach(v);
  queue.run_all();
  // Both replay 0..3 in lockstep; every sequence is re-rendered exactly
  // once and fans out to both waiters, so 8 deliveries cost 4 re-renders.
  EXPECT_EQ(manager.rerenders(), 4);
  EXPECT_EQ(manager.frames_served(), 8);
  for (const ClientId idx : {a, b}) {
    const auto& records = manager.deliveries(idx);
    ASSERT_EQ(records.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(records[static_cast<std::size_t>(i)].sequence, i);
      EXPECT_FALSE(records[static_cast<std::size_t>(i)].cache_hit);
    }
    EXPECT_EQ(manager.stats(idx).rerender_waits, 4);
    EXPECT_EQ(manager.stats(idx).cache_hits, 0);
  }
  EXPECT_TRUE(manager.idle());
}

TEST(Sessions, RerenderedFramesReenterTheCache) {
  EventQueue queue;
  ViewerSessionManager::Options opts;
  opts.cache.max_frames = 1;  // one resident frame: every re-insert visible
  opts.rerender_fixed_seconds = 1.0;
  opts.rerender_seconds_per_gb = 0.0;
  ViewerSessionManager manager(queue, opts, /*seed=*/1);
  for (int i = 0; i < 4; ++i) manager.on_frame(mkframe(i, 1, 10.0 * i));
  ASSERT_EQ(manager.cache().resident_sequences(),
            (std::vector<std::int64_t>{3}));
  manager.attach(exact_viewer(1.0, ViewerMode::kCatchUp));
  // Replay cadence: re-render #k completes at t=2k+1 and is inserted into
  // the cache, then transfers over [2k+1, 2k+2).
  queue.schedule_at(WallSeconds(3.5), [&manager] {
    EXPECT_TRUE(manager.cache().contains(1));   // re-inserted at t=3
    EXPECT_FALSE(manager.cache().contains(0));  // displaced by #1
    EXPECT_FALSE(manager.cache().contains(3));  // displaced back at t=1
  });
  queue.run_all();
  EXPECT_EQ(manager.rerenders(), 4);
  // The last re-render is resident again: #3 was evicted at t=1 and owes
  // its residency to the re-insert path.
  EXPECT_EQ(manager.cache().resident_sequences(),
            (std::vector<std::int64_t>{3}));
  EXPECT_EQ(manager.cache().stats().insertions, 8);
}

TEST(Sessions, FleetDeliveriesAreBitwiseIdenticalRunToRun) {
  auto run = [] {
    EventQueue queue;
    ViewerSessionManager::Options opts;
    opts.cache.max_frames = 3;
    opts.cache.policy = EvictionPolicy::kStrideThinning;
    opts.rerender_workers = 2;
    ViewerSessionManager manager(queue, opts, /*seed=*/5);
    for (const ViewerConfig& v : make_viewer_fleet(
             10, Bandwidth::mbps(40.0), /*catchup_fraction=*/0.5,
             SimSeconds(0.0), /*catchup_join=*/WallSeconds(500.0))) {
      manager.attach(v);
    }
    for (int i = 0; i < 20; ++i) {
      queue.schedule_at(WallSeconds(30.0 * i), [&manager, i] {
        manager.on_frame(mkframe(i, 1, 100.0 * i));
      });
    }
    queue.run_all();
    std::vector<DeliveryRecord> all;
    for (ClientId c{0}; c.value < manager.viewer_count(); ++c.value) {
      const auto& records = manager.deliveries(c);
      all.insert(all.end(), records.begin(), records.end());
    }
    EXPECT_GT(manager.rerenders(), 0);
    return all;
  };
  const std::vector<DeliveryRecord> first = run();
  EXPECT_FALSE(first.empty());
  expect_same_series(first, run());
}

TEST(Sessions, StrideThinningSurvivesConcurrentRerenderReinsertion) {
  // The re-insert race: catch-up replays force re-renders whose completions
  // re-insert old frames into a stride-thinned cache *while* live publishes
  // keep inserting new ones at the same virtual times. The thinning
  // victim-selection must stay consistent (endpoints anchored, bytes
  // bounded, no lost insertions) with both writers interleaved.
  EventQueue queue;
  ViewerSessionManager::Options opts;
  opts.cache.capacity = Bytes::megabytes(3);
  opts.cache.policy = EvictionPolicy::kStrideThinning;
  opts.rerender_fixed_seconds = 10.0;  // completions land mid-stream
  opts.rerender_seconds_per_gb = 0.0;
  opts.rerender_workers = 2;
  ViewerSessionManager manager(queue, opts, /*seed=*/3);
  // Seed a history the cache has already thinned, then start the replay.
  for (int i = 0; i < 6; ++i) manager.on_frame(mkframe(i, 1, 10.0 * i));
  const ClientId replayer =
      manager.attach(exact_viewer(1.0, ViewerMode::kCatchUp));
  // Live stream continues at exactly the re-render completion cadence, so
  // re-insertions and fresh insertions hit the same virtual instants.
  for (int i = 6; i < 12; ++i) {
    queue.schedule_at(WallSeconds(10.0 * (i - 5)), [&manager, i] {
      manager.on_frame(mkframe(i, 1, 10.0 * i));
    });
  }
  queue.run_all();
  // The replay delivered the full history exactly once, in order, despite
  // every re-inserted frame being an eviction candidate again.
  const auto& records = manager.deliveries(replayer);
  ASSERT_EQ(records.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].sequence, i);
  }
  EXPECT_GT(manager.rerenders(), 0);
  // Boundedness held through the interleaving, and the stride invariant
  // (newest endpoint resident) survived the re-insertions.
  EXPECT_LE(manager.cache().stats().peak_bytes, Bytes::megabytes(3));
  EXPECT_TRUE(manager.cache().contains(11));
  EXPECT_EQ(manager.cache().stats().insertions,
            12 + static_cast<std::int64_t>(manager.rerenders()));
  EXPECT_TRUE(manager.idle());
}

TEST(Sessions, RerenderRaceIsIdenticalRunToRun) {
  // Same rig as above, run twice: the interleaving of re-insertions and
  // live insertions — and therefore every delivery's wall time and cache
  // outcome — is the same each time.
  auto run = [] {
    EventQueue queue;
    ViewerSessionManager::Options opts;
    opts.cache.capacity = Bytes::megabytes(3);
    opts.cache.policy = EvictionPolicy::kStrideThinning;
    opts.rerender_fixed_seconds = 10.0;
    opts.rerender_seconds_per_gb = 0.0;
    opts.rerender_workers = 2;
    ViewerSessionManager manager(queue, opts, /*seed=*/3);
    for (int i = 0; i < 6; ++i) manager.on_frame(mkframe(i, 1, 10.0 * i));
    const ClientId replayer =
        manager.attach(exact_viewer(1.0, ViewerMode::kCatchUp));
    for (int i = 6; i < 12; ++i) {
      queue.schedule_at(WallSeconds(10.0 * (i - 5)), [&manager, i] {
        manager.on_frame(mkframe(i, 1, 10.0 * i));
      });
    }
    queue.run_all();
    return manager.deliveries(replayer);
  };
  const std::vector<DeliveryRecord> first = run();
  ASSERT_EQ(first.size(), 12u);
  expect_same_series(first, run());
}

TEST(Sessions, Validation) {
  EventQueue queue;
  ViewerSessionManager manager(queue, {}, /*seed=*/1);
  manager.on_frame(mkframe(3, 1, 0));
  EXPECT_THROW(manager.on_frame(mkframe(3, 1, 100)), std::invalid_argument);
  EXPECT_THROW(manager.on_frame(mkframe(1, 1, 100)), std::invalid_argument);

  ViewerSessionManager::Options bad;
  bad.rerender_workers = 0;
  EXPECT_THROW(ViewerSessionManager(queue, bad, 1), std::invalid_argument);
  bad.rerender_workers = 1;
  bad.rerender_fixed_seconds = -1.0;
  EXPECT_THROW(ViewerSessionManager(queue, bad, 1), std::invalid_argument);

  EXPECT_THROW(make_viewer_fleet(-1, Bandwidth::mbps(1), 0.0, SimSeconds(0)),
               std::invalid_argument);
}

// ---------------------------------------- ClientId handles & control plane

TEST(Sessions, ClientIdHandlesAreValidatedAtTheBoundary) {
  EventQueue queue;
  ViewerSessionManager manager(queue, {}, /*seed=*/1);
  ViewerConfig cfg = exact_viewer(1.0);
  cfg.name = "alice";
  const ClientId alice = manager.attach(cfg);
  EXPECT_TRUE(alice.valid());
  EXPECT_EQ(manager.viewer(alice).name, "alice");

  // Stale/invalid handles throw instead of UB.
  EXPECT_THROW((void)manager.stats(ClientId{}), std::invalid_argument);
  EXPECT_THROW((void)manager.deliveries(ClientId{99}), std::invalid_argument);
  EXPECT_THROW((void)manager.viewer(ClientId{-1}), std::invalid_argument);
  EXPECT_THROW((void)manager.stats(ClientId{7}), std::invalid_argument);
  EXPECT_THROW(manager.detach(ClientId{42}), std::invalid_argument);
  EXPECT_THROW(manager.steer_view(ClientId{42}, ViewCommand{}),
               std::invalid_argument);

  // Name lookup resolves to the same handle; unknown names are nullopt.
  const auto found = manager.find_client("alice");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, alice);
  EXPECT_FALSE(manager.find_client("bob").has_value());

  EXPECT_FALSE(manager.attached(ClientId{99}));
}

TEST(Sessions, DetachStopsDeliveriesAndReattachResumes) {
  EventQueue queue;
  ViewerSessionManager manager(queue, {}, /*seed=*/1);
  const ClientId c = manager.attach(exact_viewer(1.0));
  manager.on_frame(mkframe(0, 1, 0.0));
  queue.run_all();
  ASSERT_EQ(manager.deliveries(c).size(), 1u);
  EXPECT_TRUE(manager.attached(c));

  // Gone: frames published while detached are never delivered, and the
  // detached session does not hold idle() open.
  manager.detach(c);
  EXPECT_FALSE(manager.attached(c));
  EXPECT_THROW(manager.detach(c), std::invalid_argument);  // already gone
  manager.on_frame(mkframe(1, 1, 100.0));
  manager.on_frame(mkframe(2, 1, 200.0));
  queue.run_all();
  EXPECT_EQ(manager.deliveries(c).size(), 1u);
  EXPECT_TRUE(manager.idle());
  EXPECT_EQ(manager.attached_count(), 0);

  // Back: the same handle resumes at the live head (live-tail skips the
  // missed era; the skips are counted).
  manager.reattach(c);
  EXPECT_TRUE(manager.attached(c));
  queue.run_all();
  const auto& records = manager.deliveries(c);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].sequence, 2);
  EXPECT_EQ(manager.stats(c).frames_skipped, 1);  // frame #1, missed
  manager.reattach(c);  // idempotent
  EXPECT_EQ(manager.attached_count(), 1);
}

TEST(Sessions, DetachMidTransferAbandonsTheFrame) {
  EventQueue queue;
  ViewerSessionManager manager(queue, {}, /*seed=*/1);
  const ClientId c = manager.attach(exact_viewer(1.0));
  manager.on_frame(mkframe(0, 1, 0.0));  // 1 MB at 1 MB/s: lands at t=1
  queue.schedule_at(WallSeconds(0.5), [&manager, c] { manager.detach(c); });
  queue.run_all();
  // The in-flight transfer completed after the detach: no record, no stats.
  EXPECT_EQ(manager.deliveries(c).size(), 0u);
  EXPECT_EQ(manager.stats(c).frames_delivered, 0);
  EXPECT_EQ(manager.frames_served(), 0);
}

TEST(Sessions, SteerViewRerendersOnceAndDedupsAcrossClients) {
  EventQueue queue;
  ViewerSessionManager manager(queue, {}, /*seed=*/1);
  const ClientId a = manager.attach(exact_viewer(1.0));
  const ClientId b = manager.attach(exact_viewer(1.0));
  manager.on_frame(mkframe(0, 1, 0.0));
  queue.run_all();
  ASSERT_EQ(manager.deliveries(a).size(), 1u);
  ASSERT_EQ(manager.deliveries(b).size(), 1u);

  // Malformed views are rejected before any state changes.
  EXPECT_THROW(manager.steer_view(a, ViewCommand{.zoom = -1.0}),
               std::invalid_argument);

  // Both clients steer to the same view of the same frame: one render.
  ViewCommand zoomed;
  zoomed.field = "pressure";
  zoomed.zoom = 2.0;
  manager.steer_view(a, zoomed);
  manager.steer_view(a, zoomed);  // unchanged view: no second request
  manager.steer_view(b, zoomed);
  EXPECT_EQ(manager.steer_renders(), 1);
  EXPECT_EQ(manager.steer_dedup(), 1);
  EXPECT_EQ(manager.view(a).zoom, 2.0);
  queue.run_all();

  // Each client received the steered frame as a re-render delivery.
  ASSERT_EQ(manager.deliveries(a).size(), 2u);
  ASSERT_EQ(manager.deliveries(b).size(), 2u);
  EXPECT_EQ(manager.deliveries(a)[1].sequence, 0);
  EXPECT_FALSE(manager.deliveries(a)[1].cache_hit);
  EXPECT_EQ(manager.deliveries(b)[1].sequence, 0);
  EXPECT_FALSE(manager.deliveries(b)[1].cache_hit);
  EXPECT_EQ(manager.deliveries(a)[1].wall_time.seconds(),
            manager.deliveries(b)[1].wall_time.seconds());
  EXPECT_EQ(manager.rerenders(), 1);  // one render served both clients

  // A different view is a different render — no dedup.
  ViewCommand other = zoomed;
  other.colormap = "viridis";
  manager.steer_view(b, other);
  queue.run_all();
  EXPECT_EQ(manager.steer_renders(), 2);
  EXPECT_EQ(manager.steer_dedup(), 1);
  EXPECT_EQ(manager.rerenders(), 2);
  ASSERT_EQ(manager.deliveries(b).size(), 3u);

  // Steering back to the default view re-renders under the shared
  // default key — and a detached client's steer is recorded but renders
  // nothing until it reattaches.
  manager.detach(a);
  manager.steer_view(a, ViewCommand{});
  queue.run_all();
  EXPECT_EQ(manager.steer_renders(), 2);  // no render for the detached one
  EXPECT_EQ(manager.rerenders(), 2);
  EXPECT_EQ(manager.deliveries(a).size(), 2u);
}

TEST(Sessions, SteeredRendersNeverPolluteTheSharedCache) {
  EventQueue queue;
  ViewerSessionManager manager(queue, {}, /*seed=*/1);
  const ClientId c = manager.attach(exact_viewer(1.0));
  manager.on_frame(mkframe(0, 1, 0.0));
  queue.run_all();
  const std::int64_t before = manager.cache().stats().insertions;
  ViewCommand v;
  v.zoom = 3.0;
  manager.steer_view(c, v);
  queue.run_all();
  ASSERT_EQ(manager.deliveries(c).size(), 2u);
  // The zoomed render is client-specific: the shared sequence-keyed cache
  // must not have been touched by it.
  EXPECT_EQ(manager.cache().stats().insertions, before);
}

TEST(Sessions, SteerAndDetachChurnIsIdenticalRunToRun) {
  // A replayed control-plane session — view steers, a detach and a
  // reattach at fixed virtual times — produces the same delivery series
  // every time it runs.
  auto run = [] {
    EventQueue queue;
    ViewerSessionManager::Options opts;
    opts.cache.capacity = Bytes::megabytes(3);
    opts.cache.policy = EvictionPolicy::kStrideThinning;
    opts.rerender_fixed_seconds = 10.0;
    opts.rerender_seconds_per_gb = 0.0;
    opts.rerender_workers = 2;
    ViewerSessionManager manager(queue, opts, /*seed=*/3);
    for (int i = 0; i < 6; ++i) manager.on_frame(mkframe(i, 1, 10.0 * i));
    const ClientId replayer =
        manager.attach(exact_viewer(1.0, ViewerMode::kCatchUp));
    const ClientId tail = manager.attach(exact_viewer(1.0));
    for (int i = 6; i < 12; ++i) {
      queue.schedule_at(WallSeconds(10.0 * (i - 5)), [&manager, i] {
        manager.on_frame(mkframe(i, 1, 10.0 * i));
      });
    }
    queue.schedule_at(WallSeconds(15.0), [&manager, tail] {
      ViewCommand v;
      v.field = "wind-speed";
      v.zoom = 2.0;
      manager.steer_view(tail, v);
    });
    queue.schedule_at(WallSeconds(25.0), [&manager, replayer] {
      ViewCommand v;
      v.field = "wind-speed";
      v.zoom = 2.0;
      manager.steer_view(replayer, v);
    });
    queue.schedule_at(WallSeconds(31.0),
                      [&manager, tail] { manager.detach(tail); });
    queue.schedule_at(WallSeconds(47.0),
                      [&manager, tail] { manager.reattach(tail); });
    queue.run_all();
    std::vector<DeliveryRecord> all = manager.deliveries(replayer);
    const auto& t = manager.deliveries(tail);
    all.insert(all.end(), t.begin(), t.end());
    EXPECT_GT(manager.steer_renders(), 0);
    return all;
  };
  const std::vector<DeliveryRecord> first = run();
  EXPECT_FALSE(first.empty());
  expect_same_series(first, run());
}

TEST(Sessions, FleetBuilderSplitsModes) {
  const std::vector<ViewerConfig> fleet = make_viewer_fleet(
      4, Bandwidth::mbps(10.0), /*catchup_fraction=*/0.5, SimSeconds(7.0),
      /*catchup_join=*/WallSeconds(99.0));
  ASSERT_EQ(fleet.size(), 4u);
  EXPECT_EQ(fleet[0].mode, ViewerMode::kCatchUp);
  EXPECT_EQ(fleet[1].mode, ViewerMode::kCatchUp);
  EXPECT_EQ(fleet[2].mode, ViewerMode::kLiveTail);
  EXPECT_EQ(fleet[3].mode, ViewerMode::kLiveTail);
  EXPECT_DOUBLE_EQ(fleet[0].join_wall.seconds(), 99.0);
  EXPECT_DOUBLE_EQ(fleet[2].join_wall.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(fleet[1].catchup_start.seconds(), 7.0);
  EXPECT_EQ(fleet[3].name, "viewer003");
}

}  // namespace
}  // namespace adaptviz
