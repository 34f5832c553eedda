// The retry ladder every WAN-facing component shares.
//
// A failed attempt waits initial * multiplier^(failures - 1), capped at
// max_backoff and scaled by uniform jitter, before the next one; after
// `degrade_after` consecutive failures a degraded flag latches, and any
// success resets the ladder. The frame sender and the edge tree's cache
// fills each keep one RetryLadder (failure count, latch and jitter stream);
// the campaign dispatcher's re-dispatches call backoff() directly, so the
// arithmetic lives in one place.
#pragma once

#include <cstdint>
#include <string>

#include "util/ini.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace adaptviz {

/// Backoff policy for failed attempts.
struct RetryPolicy {
  /// Delay before the first retry.
  WallSeconds initial_backoff{5.0};
  /// Growth factor per additional consecutive failure (>= 1).
  double multiplier = 2.0;
  /// Ceiling on the backoff delay.
  WallSeconds max_backoff{300.0};
  /// Uniform jitter fraction in [0, 1): each delay is scaled by a factor
  /// drawn from [1 - jitter, 1 + jitter] so synchronized retry storms
  /// decorrelate. Drawn from the caller's own seeded RNG.
  double jitter = 0.2;
  /// Consecutive failures before the caller's degraded flag latches; any
  /// success clears the flag and resets the backoff ladder.
  int degrade_after = 5;
};

/// Throws std::invalid_argument naming the first out-of-range field.
void validate(const RetryPolicy& r);

/// Delay before the retry that follows `failures` (>= 1) consecutive
/// failures. Draws one jitter factor from `rng` only when jitter > 0.
WallSeconds backoff(const RetryPolicy& r, int failures, Rng& rng);

/// One retrying component's position on the ladder: its consecutive
/// failures, the degraded latch and its own seeded jitter stream. A plain
/// value, so it rides in the owner's State and rewinds with it.
struct RetryLadder {
  explicit RetryLadder(std::uint64_t seed = 0) : jitter_rng(seed) {}

  /// Outcome of one failed attempt: the delay before the next one, and
  /// whether this failure latched the degraded flag.
  struct Failure {
    WallSeconds backoff;
    bool latched = false;
  };
  /// Counts a failure, latches `degraded` at `policy.degrade_after`
  /// consecutive failures, then draws the backoff.
  Failure fail(const RetryPolicy& policy);
  /// A success resets the ladder. Returns true when it cleared a latched
  /// degraded flag.
  bool succeed();

  Rng jitter_rng;
  int consecutive_failures = 0;
  bool degraded = false;
};

/// `base` with the five retry keys of INI `section` (retry_initial_seconds,
/// retry_multiplier, retry_cap_seconds, retry_jitter, degrade_after)
/// applied, validated. Throws std::runtime_error naming the section.
RetryPolicy retry_policy_from_ini(const IniDocument& doc,
                                  const std::string& section,
                                  RetryPolicy base = {});

}  // namespace adaptviz
