// Frame sender/receiver daemons and bandwidth estimator over the event
// queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <utility>
#include <vector>

#include "dataio/frame.hpp"
#include "resources/disk.hpp"
#include "resources/event_queue.hpp"
#include "resources/network.hpp"
#include "transport/bandwidth_estimator.hpp"
#include "transport/receiver.hpp"
#include "transport/sender.hpp"

namespace adaptviz {
namespace {

struct Rig {
  EventQueue queue;
  // 1 MB/s link, no latency, no jitter: transfer times are exact.
  NetworkLink link{LinkSpec{.nominal = Bandwidth::megabytes_per_second(1),
                            .latency = WallSeconds(0.0)},
                   1};
  FrameCatalog catalog;
  DiskModel disk{Bytes::gigabytes(1), Bandwidth::megabytes_per_second(100)};
  BandwidthEstimator estimator{0.5};
  std::vector<std::pair<double, std::int64_t>> delivered;  // (time, seq)

  std::unique_ptr<FrameSender> sender;

  Rig() {
    sender = std::make_unique<FrameSender>(
        queue, link, catalog, disk, estimator,
        [this](const Frame& f) {
          delivered.push_back({queue.now().seconds(), f.sequence});
        },
        FrameSender::Options{.poll_interval = WallSeconds(10.0)});
  }

  Frame frame(std::int64_t seq, double mb) {
    Frame f;
    f.sequence = seq;
    f.size = Bytes::megabytes(mb);
    f.sim_time = SimSeconds(static_cast<double>(seq));
    EXPECT_TRUE(disk.allocate(f.size));
    return f;
  }
};

TEST(Sender, ShipsOldestFirstAndFreesDisk) {
  Rig rig;
  rig.catalog.push(rig.frame(0, 5));
  rig.catalog.push(rig.frame(1, 3));
  rig.sender->start();
  rig.queue.run_until(WallSeconds(100.0));
  ASSERT_EQ(rig.delivered.size(), 2u);
  EXPECT_EQ(rig.delivered[0].second, 0);
  EXPECT_NEAR(rig.delivered[0].first, 5.0, 1e-9);  // 5 MB at 1 MB/s
  EXPECT_EQ(rig.delivered[1].second, 1);
  EXPECT_NEAR(rig.delivered[1].first, 8.0, 1e-9);
  EXPECT_EQ(rig.disk.used(), Bytes(0));
  EXPECT_EQ(rig.sender->frames_sent(), 2);
  EXPECT_EQ(rig.sender->bytes_sent(), Bytes::megabytes(8));
}

TEST(Sender, PollsWhenIdleAndKickWakesImmediately) {
  Rig rig;
  rig.sender->start();
  rig.queue.run_until(WallSeconds(25.0));  // a few empty polls pass
  EXPECT_TRUE(rig.delivered.empty());
  rig.catalog.push(rig.frame(0, 1));
  rig.sender->kick();
  rig.queue.run_until(WallSeconds(100.0));
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_NEAR(rig.delivered[0].first, 26.0, 1e-9);
}

TEST(Sender, WithoutKickThePollPicksItUp) {
  Rig rig;
  rig.sender->start();
  rig.queue.run_until(WallSeconds(1.0));
  rig.catalog.push(rig.frame(0, 1));
  rig.queue.run_until(WallSeconds(100.0));
  ASSERT_EQ(rig.delivered.size(), 1u);
  // Poll fires at t=10, transfer takes 1 s.
  EXPECT_NEAR(rig.delivered[0].first, 11.0, 1e-9);
}

TEST(Sender, EstimatorLearnsFromTransfers) {
  Rig rig;
  rig.catalog.push(rig.frame(0, 10));
  rig.sender->start();
  rig.queue.run_until(WallSeconds(100.0));
  ASSERT_TRUE(rig.estimator.estimate().has_value());
  EXPECT_NEAR(rig.estimator.estimate()->bytes_per_sec(), 1e6, 1.0);
}

TEST(Sender, StopAbandonsInFlightTransferAndRequeuesTheFrame) {
  // A completion event already scheduled at stop() time must not mutate
  // disk or the estimator, nor invoke the delivery callback, on a stopped
  // sender. The undelivered frame returns to the catalog head.
  Rig rig;
  rig.catalog.push(rig.frame(0, 5));
  rig.catalog.push(rig.frame(1, 5));
  rig.sender->start();
  EXPECT_TRUE(rig.sender->transfer_in_flight());
  rig.sender->stop();
  rig.queue.run_until(WallSeconds(100.0));
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_FALSE(rig.sender->transfer_in_flight());
  ASSERT_EQ(rig.catalog.count(), 2u);
  EXPECT_EQ(rig.catalog.oldest()->sequence, 0);  // back at the head
  EXPECT_EQ(rig.catalog.total_bytes(), Bytes::megabytes(10));
  EXPECT_EQ(rig.disk.used(), Bytes::megabytes(10));  // nothing released
  EXPECT_FALSE(rig.estimator.estimate().has_value());
  EXPECT_EQ(rig.sender->frames_sent(), 0);
  // A restarted sender ships the requeued frame first, in order.
  rig.sender->start();
  rig.queue.run_until(WallSeconds(200.0));
  ASSERT_EQ(rig.delivered.size(), 2u);
  EXPECT_EQ(rig.delivered[0].second, 0);
  EXPECT_EQ(rig.delivered[1].second, 1);
  EXPECT_EQ(rig.disk.used(), Bytes(0));
}

TEST(Sender, KickStormWhileIdleKeepsASinglePollChain) {
  // kick() and poll_event() both funnel into try_send(); the
  // poll_scheduled_ guard must keep any number of kicks from stacking up
  // duplicate poll chains.
  Rig rig;
  rig.sender->start();  // empty catalog: one poll pending
  EXPECT_EQ(rig.queue.pending(), 1u);
  for (int i = 0; i < 20; ++i) rig.sender->kick();
  EXPECT_EQ(rig.queue.pending(), 1u);
  rig.queue.run_until(WallSeconds(95.0));  // nine empty polls re-arm
  EXPECT_EQ(rig.queue.pending(), 1u);
  // The cadence is intact: a frame written now waits for the t=100 poll.
  rig.catalog.push(rig.frame(0, 1));
  rig.queue.run_until(WallSeconds(200.0));
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_NEAR(rig.delivered[0].first, 101.0, 1e-9);
}

TEST(Sender, KickStormMidTransferNeitherDuplicatesNorReorders) {
  Rig rig;
  rig.catalog.push(rig.frame(0, 5));
  rig.catalog.push(rig.frame(1, 3));
  rig.sender->start();
  EXPECT_TRUE(rig.sender->transfer_in_flight());
  for (int i = 0; i < 50; ++i) rig.sender->kick();
  // Only the in-flight completion is scheduled; kicks were no-ops.
  EXPECT_EQ(rig.queue.pending(), 1u);
  rig.queue.run_until(WallSeconds(100.0));
  ASSERT_EQ(rig.delivered.size(), 2u);
  EXPECT_NEAR(rig.delivered[0].first, 5.0, 1e-9);
  EXPECT_NEAR(rig.delivered[1].first, 8.0, 1e-9);
  EXPECT_EQ(rig.sender->frames_sent(), 2);
}

TEST(Sender, StalePollDuringKickStartedTransferStaysHarmless) {
  // A kick can start a transfer while an idle-poll is already pending. The
  // stale poll then fires mid-flight (or after): it must neither start a
  // second transfer nor orphan the poll chain.
  Rig rig;
  rig.sender->start();  // poll armed for t=10
  rig.queue.run_until(WallSeconds(2.0));
  rig.catalog.push(rig.frame(0, 6));
  rig.catalog.push(rig.frame(1, 1));
  rig.sender->kick();  // transfer #0 runs [2, 8), #1 runs [8, 9)
  rig.queue.run_until(WallSeconds(9.5));
  ASSERT_EQ(rig.delivered.size(), 2u);
  EXPECT_NEAR(rig.delivered[0].first, 8.0, 1e-9);
  EXPECT_NEAR(rig.delivered[1].first, 9.0, 1e-9);
  // The t=10 poll fired into an idle sender and re-armed the chain: a
  // frame written at t=15 is picked up by the t=20 poll, exactly once.
  rig.queue.run_until(WallSeconds(15.0));
  rig.catalog.push(rig.frame(2, 1));
  rig.queue.run_until(WallSeconds(100.0));
  ASSERT_EQ(rig.delivered.size(), 3u);
  EXPECT_NEAR(rig.delivered[2].first, 21.0, 1e-9);
  EXPECT_EQ(rig.sender->frames_sent(), 3);
}

// Rig with an injectable failure rate and a tight, jitter-free retry
// policy so backoff arithmetic is exact.
struct FaultRig {
  EventQueue queue;
  NetworkLink link;
  FrameCatalog catalog;
  DiskModel disk{Bytes::gigabytes(1), Bandwidth::megabytes_per_second(100)};
  BandwidthEstimator estimator{0.5};
  std::vector<std::pair<double, std::int64_t>> delivered;
  std::unique_ptr<FrameSender> sender;

  explicit FaultRig(double failure_probability, std::uint64_t link_seed = 1,
                    double jitter = 0.0)
      : link(LinkSpec{.nominal = Bandwidth::megabytes_per_second(1),
                      .latency = WallSeconds(0.0),
                      .failure_probability = failure_probability},
             link_seed) {
    FrameSender::Options opts;
    opts.poll_interval = WallSeconds(10.0);
    opts.retry.initial_backoff = WallSeconds(2.0);
    opts.retry.multiplier = 2.0;
    opts.retry.max_backoff = WallSeconds(16.0);
    opts.retry.jitter = jitter;
    opts.retry.degrade_after = 3;
    opts.seed = 99;
    sender = std::make_unique<FrameSender>(
        queue, link, catalog, disk, estimator,
        [this](const Frame& f) {
          delivered.push_back({queue.now().seconds(), f.sequence});
        },
        opts);
  }

  void push(std::int64_t seq, double mb) {
    Frame f;
    f.sequence = seq;
    f.size = Bytes::megabytes(mb);
    f.sim_time = SimSeconds(static_cast<double>(seq));
    ASSERT_TRUE(disk.allocate(f.size));
    catalog.push(f);
  }

  void step_until_failures(std::int64_t n) {
    while (sender->transfer_failures() < n) ASSERT_TRUE(queue.step());
  }
};

TEST(SenderRetry, BackoffGrowsExponentiallyCapsAndDegrades) {
  FaultRig rig(/*failure_probability=*/1.0);
  rig.push(0, 4);
  rig.sender->start();

  rig.step_until_failures(1);
  EXPECT_TRUE(rig.sender->retry_pending());
  EXPECT_DOUBLE_EQ(rig.sender->current_backoff().seconds(), 2.0);
  EXPECT_FALSE(rig.sender->link_degraded());
  // The failed frame went back to the catalog head; disk stays allocated.
  EXPECT_EQ(rig.catalog.count(), 1u);
  EXPECT_EQ(rig.disk.used(), Bytes::megabytes(4));
  // A kick during backoff must not jump the queue.
  rig.sender->kick();
  EXPECT_FALSE(rig.sender->transfer_in_flight());

  rig.step_until_failures(2);
  EXPECT_DOUBLE_EQ(rig.sender->current_backoff().seconds(), 4.0);
  rig.step_until_failures(3);
  EXPECT_DOUBLE_EQ(rig.sender->current_backoff().seconds(), 8.0);
  EXPECT_TRUE(rig.sender->link_degraded());  // degrade_after = 3
  rig.step_until_failures(6);
  // 2 * 2^5 = 64 s, capped at 16 s.
  EXPECT_DOUBLE_EQ(rig.sender->current_backoff().seconds(), 16.0);

  // A dead link loses nothing: no delivery, no disk release, no EMA
  // sample, and the retry count tracks the re-attempts.
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.sender->frames_sent(), 0);
  EXPECT_EQ(rig.disk.used(), Bytes::megabytes(4));
  EXPECT_FALSE(rig.estimator.estimate().has_value());
  EXPECT_EQ(rig.sender->transfer_retries(), 5);
  EXPECT_EQ(rig.sender->consecutive_failures(), 6);
}

TEST(SenderRetry, FlakyLinkDeliversEveryFrameExactlyOnceInOrder) {
  FaultRig rig(/*failure_probability=*/0.3, /*link_seed=*/7,
               /*jitter=*/0.2);
  constexpr int kFrames = 30;
  for (int i = 0; i < kFrames; ++i) rig.push(i, 1.0 + (i % 5));
  rig.sender->start();
  rig.queue.run_until(WallSeconds::hours(3.0));

  ASSERT_EQ(rig.delivered.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) EXPECT_EQ(rig.delivered[i].second, i);
  // Failures actually fired (seed-dependent but deterministic) and every
  // byte was eventually released — exactly-once, zero loss.
  EXPECT_GT(rig.sender->transfer_failures(), 0);
  EXPECT_EQ(rig.sender->frames_sent(), kFrames);
  EXPECT_EQ(rig.disk.used(), Bytes(0));
  EXPECT_EQ(rig.catalog.count(), 0u);
  // The last transfer succeeded, so the escalation state is clear.
  EXPECT_EQ(rig.sender->consecutive_failures(), 0);
  EXPECT_FALSE(rig.sender->link_degraded());
  EXPECT_TRUE(rig.estimator.estimate().has_value());
}

TEST(SenderRetry, FixedSeedsReplayBitwiseIdentically) {
  auto run = [] {
    FaultRig rig(0.4, 11, 0.3);
    for (int i = 0; i < 12; ++i) rig.push(i, 2.0);
    rig.sender->start();
    rig.queue.run_until(WallSeconds::hours(2.0));
    return rig.delivered;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 12u);
  ASSERT_EQ(a, b);
}

TEST(SenderRetry, StopDuringBackoffKeepsFrameAndRestartResumes) {
  FaultRig rig(1.0);
  rig.push(0, 4);
  rig.sender->start();
  rig.step_until_failures(1);
  EXPECT_TRUE(rig.sender->retry_pending());
  rig.sender->stop();
  rig.queue.run_until(WallSeconds(1000.0));  // pending retry fires, no-ops
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.catalog.count(), 1u);
  EXPECT_EQ(rig.disk.used(), Bytes::megabytes(4));
}

TEST(SenderRetry, PolicyValidation) {
  FaultRig rig(0.0);
  auto make = [&](RetryPolicy retry) {
    FrameSender::Options opts;
    opts.retry = retry;
    return FrameSender(rig.queue, rig.link, rig.catalog, rig.disk,
                       rig.estimator, [](const Frame&) {}, opts);
  };
  EXPECT_THROW(make({.initial_backoff = WallSeconds(0.0)}),
               std::invalid_argument);
  EXPECT_THROW(make({.initial_backoff = WallSeconds(10.0),
                     .max_backoff = WallSeconds(5.0)}),
               std::invalid_argument);
  EXPECT_THROW(make({.multiplier = 0.5}), std::invalid_argument);
  EXPECT_THROW(make({.jitter = 1.0}), std::invalid_argument);
  EXPECT_THROW(make({.degrade_after = 0}), std::invalid_argument);
}

TEST(Sender, Validation) {
  Rig rig;
  EXPECT_THROW(FrameSender(rig.queue, rig.link, rig.catalog, rig.disk,
                           rig.estimator, nullptr, FrameSender::Options{}),
               std::invalid_argument);
  EXPECT_THROW(FrameSender(
                   rig.queue, rig.link, rig.catalog, rig.disk, rig.estimator,
                   [](const Frame&) {},
                   FrameSender::Options{.poll_interval = WallSeconds(0.0)}),
               std::invalid_argument);
}

TEST(Receiver, QueuesWhileRendering) {
  EventQueue queue;
  std::vector<double> visualized_at;
  FrameReceiver receiver(queue, [&](const Frame&) {
    visualized_at.push_back(queue.now().seconds());
    return WallSeconds(4.0);  // render cost
  });
  Frame f;
  f.sequence = 0;
  receiver.on_frame_arrival(f);
  f.sequence = 1;
  receiver.on_frame_arrival(f);  // arrives while #0 renders
  EXPECT_EQ(receiver.backlog(), 1u);
  queue.run_all();
  EXPECT_EQ(receiver.frames_received(), 2);
  EXPECT_EQ(receiver.frames_visualized(), 2);
  ASSERT_EQ(visualized_at.size(), 2u);
  EXPECT_NEAR(visualized_at[0], 0.0, 1e-9);
  EXPECT_NEAR(visualized_at[1], 4.0, 1e-9);  // starts after #0 finishes
}

TEST(Receiver, NullCallbackRejected) {
  EventQueue queue;
  EXPECT_THROW(FrameReceiver(queue, nullptr), std::invalid_argument);
  EXPECT_THROW(FrameReceiver(
                   queue, [](const Frame&) { return WallSeconds(1.0); }, 0),
               std::invalid_argument);
}

TEST(Receiver, ParallelWorkersDrainBacklogFaster) {
  // Four frames, 4-second renders. One worker: last done at 16 s.
  // Two workers: last done at 8 s.
  for (const auto& [workers, expect_end] : {std::pair{1, 16.0}, {2, 8.0}}) {
    EventQueue queue;
    FrameReceiver receiver(
        queue, [](const Frame&) { return WallSeconds(4.0); }, workers);
    for (int i = 0; i < 4; ++i) {
      Frame f;
      f.sequence = i;
      receiver.on_frame_arrival(f);
    }
    EXPECT_EQ(receiver.workers_busy(), std::min(workers, 4));
    queue.run_all();
    EXPECT_EQ(receiver.frames_visualized(), 4);
    EXPECT_DOUBLE_EQ(queue.now().seconds(), expect_end) << workers;
  }
}

TEST(Receiver, DispatchStaysInArrivalOrder) {
  EventQueue queue;
  std::vector<std::int64_t> order;
  FrameReceiver receiver(
      queue,
      [&order](const Frame& f) {
        order.push_back(f.sequence);
        return WallSeconds(2.0);
      },
      3);
  for (int i = 0; i < 6; ++i) {
    Frame f;
    f.sequence = i;
    receiver.on_frame_arrival(f);
  }
  queue.run_all();
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Receiver, PooledRenderRunsOncePerFrameBeforeBookkeeping) {
  // With a pool and a RenderFn, every dispatched frame's heavy render runs
  // exactly once (possibly on a pool lane) before its serial bookkeeping
  // callback, and the virtual-time behavior is unchanged.
  EventQueue queue;
  ThreadPool pool(2);
  std::array<std::atomic<int>, 6> rendered{};
  std::vector<std::int64_t> order;
  FrameReceiver receiver(
      queue,
      [&](const Frame& f) {
        // The render must already have happened when bookkeeping fires.
        EXPECT_EQ(rendered[static_cast<std::size_t>(f.sequence)].load(), 1);
        order.push_back(f.sequence);
        return WallSeconds(2.0);
      },
      3, &pool,
      [&](const Frame& f) {
        rendered[static_cast<std::size_t>(f.sequence)].fetch_add(1);
      });
  for (int i = 0; i < 6; ++i) {
    Frame f;
    f.sequence = i;
    receiver.on_frame_arrival(f);
  }
  queue.run_all();
  EXPECT_EQ(receiver.frames_visualized(), 6);
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
  for (const auto& r : rendered) EXPECT_EQ(r.load(), 1);
  EXPECT_DOUBLE_EQ(queue.now().seconds(), 4.0);  // two batches of 3 at 2 s
}

TEST(Receiver, BurstyArrivalsKeepBacklogAndBusyAccountsExact) {
  // Two workers, 4 s renders, a burst of five frames at t=0 and three more
  // landing mid-render at t=6: backlog() and workers_busy() must track the
  // queue through every dispatch batch.
  EventQueue queue;
  std::vector<std::int64_t> order;
  FrameReceiver receiver(
      queue,
      [&order](const Frame& f) {
        order.push_back(f.sequence);
        return WallSeconds(4.0);
      },
      2);
  for (int i = 0; i < 5; ++i) {
    Frame f;
    f.sequence = i;
    receiver.on_frame_arrival(f);
  }
  EXPECT_EQ(receiver.workers_busy(), 2);
  EXPECT_EQ(receiver.backlog(), 3u);
  queue.schedule_at(WallSeconds(5.0), [&] {
    // #0/#1 finished at t=4 and #2/#3 dispatched immediately.
    EXPECT_EQ(receiver.workers_busy(), 2);
    EXPECT_EQ(receiver.backlog(), 1u);
    EXPECT_EQ(receiver.frames_visualized(), 2);
  });
  queue.schedule_at(WallSeconds(6.0), [&] {
    for (int i = 5; i < 8; ++i) {
      Frame f;
      f.sequence = i;
      receiver.on_frame_arrival(f);
    }
    EXPECT_EQ(receiver.workers_busy(), 2);  // burst queues, doesn't preempt
    EXPECT_EQ(receiver.backlog(), 4u);
  });
  queue.run_all();
  EXPECT_EQ(receiver.frames_received(), 8);
  EXPECT_EQ(receiver.frames_visualized(), 8);
  EXPECT_EQ(receiver.workers_busy(), 0);
  EXPECT_EQ(receiver.backlog(), 0u);
  // Dispatch stayed in arrival order across both bursts.
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  // Batches of two every 4 s: {0,1}@0 {2,3}@4 {4,5}@8 {6,7}@12, done at 16.
  EXPECT_DOUBLE_EQ(queue.now().seconds(), 16.0);
}

TEST(Estimator, EmaSmoothsAndProbeCounts) {
  BandwidthEstimator est(0.5);
  EXPECT_FALSE(est.estimate().has_value());
  est.record_probe(Bandwidth::megabytes_per_second(2));
  est.record_transfer(Bytes::megabytes(4), WallSeconds(1.0));
  EXPECT_NEAR(est.estimate()->bytes_per_sec(), 3e6, 1.0);
  EXPECT_EQ(est.observation_count(), 2u);
}

TEST(Estimator, DegenerateSamplesAreIgnoredNotFatal) {
  // A zero-byte frame or a zero-elapsed completion arrives from inside an
  // event-loop callback; throwing there would crash the run. The samples
  // carry no information, so they are dropped.
  BandwidthEstimator est(0.5);
  est.record_transfer(Bytes(1), WallSeconds(0.0));
  est.record_transfer(Bytes(1), WallSeconds(-1.0));
  est.record_transfer(Bytes(0), WallSeconds(5.0));
  EXPECT_FALSE(est.estimate().has_value());
  EXPECT_EQ(est.observation_count(), 0u);
  est.record_transfer(Bytes::megabytes(2), WallSeconds(1.0));
  EXPECT_NEAR(est.estimate()->bytes_per_sec(), 2e6, 1.0);
  // The degenerate samples left the EMA untouched.
  est.record_transfer(Bytes(1), WallSeconds(0.0));
  EXPECT_NEAR(est.estimate()->bytes_per_sec(), 2e6, 1.0);
  EXPECT_EQ(est.observation_count(), 1u);
}

}  // namespace
}  // namespace adaptviz
