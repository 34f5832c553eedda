// Simulation-site cluster model and the paper's Table IV presets.
//
// The decision algorithms never see this "ground truth": like the paper,
// they see only (a) profiling samples gathered by benchmark runs and (b) a
// fitted curve (perf/perf_model.hpp). The ground truth produces per-step
// times of the form
//
//   t(p, work) = (serial + work / p + comm * log2 p) * noise
//
// where `work` scales with the modeled grid (finer resolution => more points
// and more substeps) and `noise` is multiplicative lognormal jitter --
// machines are never perfectly repeatable, which is precisely why the paper
// fits a curve instead of tabulating.
#pragma once

#include <string>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace adaptviz {

struct MachineSpec {
  std::string name;
  /// Upper limit imposed by WRF decomposition rules (paper: >=6x6 parent
  /// points and >=9x9 nest points per MPI rank) and the machine itself.
  int max_cores = 1;
  /// Allocation floor: the job handler never schedules below this (running a
  /// mesoscale model on one core is pointless and would let the greedy
  /// algorithm "slow down" into absurdity).
  int min_cores = 4;
  /// Per-step ground-truth coefficients at work == 1.
  double serial_seconds = 0.0;
  double work_seconds = 1.0;  // perfectly parallel part, divided by p
  double comm_seconds = 0.0;  // multiplied by log2(p)
  /// Relative stddev of the multiplicative per-step noise.
  double noise_sigma = 0.0;
};

class GroundTruthMachine {
 public:
  GroundTruthMachine(MachineSpec spec, std::uint64_t seed);

  /// Noisy per-step execution time on `processors` cores for `work_units`
  /// of per-step work. processors is clamped to [1, max_cores].
  [[nodiscard]] WallSeconds step_time(int processors, double work_units);

  /// Noise-free expectation, used by tests and the Table I estimator.
  [[nodiscard]] WallSeconds expected_step_time(int processors,
                                               double work_units) const;

  [[nodiscard]] const MachineSpec& spec() const { return spec_; }

  /// Position of the per-step noise stream (the spec is a construction
  /// constant).
  struct State {
    Rng rng;
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  const MachineSpec spec_;
  State s_;
};

/// One simulation site: the machine plus its stable storage and WAN uplink
/// parameters (Table IV row).
struct SiteSpec {
  MachineSpec machine;
  Bytes disk_capacity{};
  Bandwidth io_bandwidth{};  // parallel file-system write rate
  Bandwidth wan_nominal{};   // average sim->vis bandwidth from Table IV
  /// Sustained single-stream efficiency of the WAN path (see LinkSpec).
  double wan_efficiency = 1.0;
  double wan_fluctuation_sigma = 0.0;
};

/// Table IV presets. Absolute step-time coefficients are calibrated so the
/// full Aila window takes tens of virtual hours, matching the paper's x-axes
/// (see EXPERIMENTS.md for the calibration note).
SiteSpec inter_department_site();  // fire,  48 cores, 182 GB, 56 Mbps
SiteSpec intra_country_site();     // gg-blr, 90 cores, 150 GB, 40 Mbps
SiteSpec cross_continent_site();   // moria, 56 cores, 100 GB, 60 Kbps

}  // namespace adaptviz
