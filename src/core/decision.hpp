// Decision-algorithm interface (Section IV).
//
// "The decision algorithm invoked by the application manager determines
// 1) the number of processors, and 2) the frequency of output of climate
// data ... for a given 1) resolution of simulation, 2) the bandwidth of the
// network ... and 3) the available free disk space."
#pragma once

#include <memory>
#include <string>

#include "perf/perf_model.hpp"
#include "util/units.hpp"

namespace adaptviz {

/// Output-interval policy shared by both algorithms. The paper's greedy runs
/// start at a 3-simulated-minute interval (Fig. 8) and both algorithms
/// respect the scientist's 25-simulated-minute upper bound
/// (upper_output_interval).
struct DecisionBounds {
  SimSeconds min_output_interval = SimSeconds::minutes(3.0);
  SimSeconds max_output_interval = SimSeconds::minutes(25.0);
};

/// Live application state shared by the framework's status callback
/// (ApplicationStatus) and the algorithm input (DecisionInput). These
/// fields used to be duplicated field-by-field in both structs, copied
/// manually inside ApplicationManager::invoke(); both now inherit this
/// one definition so the copy is a single slice assignment and the two
/// views can never drift apart.
struct ResourceSnapshot {
  double work_units = 1.0;            // per-step cost at current resolution
  Bytes frame_bytes{};                // O: output size of one frame
  SimSeconds integration_step{60.0};  // ts: simulated time per step
  SimSeconds remaining_sim_time{0.0};
  double resolution_km = 24.0;
  /// Frame-sender escalation: true after N consecutive transfer failures
  /// (exponential-backoff retries are in progress and the bandwidth
  /// estimate is stale). Algorithms may treat this like an outage.
  bool link_degraded = false;
};

/// The third decision input (alongside resource observations and the
/// application snapshot): what the attached observers are asking for.
/// The framework aggregates per-client KnobProposals into the
/// strictest request — smallest proposed max_output_interval, largest
/// proposed resolution floor — and the application manager tightens the
/// bounds the algorithms work within accordingly. Zero values mean "no
/// opinion on that knob".
struct ObserverDigest {
  int attached = 0;            // observers currently attached
  bool has_proposal = false;   // any live proposal at all
  SimSeconds max_output_interval{0.0};  // strictest "frames this often"
  double resolution_floor_km = 0.0;     // strictest "don't refine below"
};

/// Everything the application manager hands the algorithm on one
/// invocation. Application-state fields (work_units, frame_bytes,
/// integration_step, remaining_sim_time, resolution_km, link_degraded)
/// are inherited from ResourceSnapshot and remain accessible exactly as
/// before (`in.work_units`, ...).
struct DecisionInput : ResourceSnapshot {
  // --- Resource observations ---
  double free_disk_percent = 100.0;   // the `df` reading
  Bytes free_disk_bytes{};
  Bytes disk_capacity{};
  Bandwidth observed_bandwidth{};     // smoothed sim->vis estimate
  Bandwidth io_bandwidth{};           // parallel file system write rate

  // --- Current configuration ---
  int current_processors = 1;
  SimSeconds current_output_interval{180.0};

  // --- Capabilities ---
  const PerformanceModel* perf = nullptr;  // fitted t(p); never null
  int min_processors = 1;
  int max_processors = 1;  // min(machine, WRF decomposition limit)
  DecisionBounds bounds{};

  // --- Observer input (steering events) ---
  ObserverDigest observers{};
};

/// What the algorithm decides: the two knobs plus the CRITICAL flag.
struct Decision {
  int processors = 1;
  SimSeconds output_interval{180.0};
  bool critical = false;
  /// One-line rationale for logs/telemetry ("disk 42% -> stretch OI").
  std::string note;
};

class DecisionAlgorithm {
 public:
  virtual ~DecisionAlgorithm() = default;
  [[nodiscard]] virtual Decision decide(const DecisionInput& input) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Rounds an output interval to a positive multiple of the integration step
/// (OI must be a multiple of ts — eq. 9's premise), clamped to bounds.
SimSeconds quantize_output_interval(SimSeconds oi, SimSeconds ts,
                                    const DecisionBounds& bounds);

}  // namespace adaptviz
