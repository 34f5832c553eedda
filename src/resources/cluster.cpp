#include "resources/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adaptviz {

GroundTruthMachine::GroundTruthMachine(MachineSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), s_{Rng(seed)} {
  if (spec_.max_cores < 1 || spec_.min_cores < 1 ||
      spec_.min_cores > spec_.max_cores) {
    throw std::invalid_argument("GroundTruthMachine: bad core limits");
  }
  if (spec_.work_seconds <= 0.0 || spec_.serial_seconds < 0.0 ||
      spec_.comm_seconds < 0.0 || spec_.noise_sigma < 0.0) {
    throw std::invalid_argument("GroundTruthMachine: bad coefficients");
  }
}

WallSeconds GroundTruthMachine::expected_step_time(int processors,
                                                   double work_units) const {
  const int p = std::clamp(processors, 1, spec_.max_cores);
  const double pd = static_cast<double>(p);
  return WallSeconds(spec_.serial_seconds +
                     spec_.work_seconds * work_units / pd +
                     spec_.comm_seconds * std::log2(pd));
}

WallSeconds GroundTruthMachine::step_time(int processors, double work_units) {
  const double base = expected_step_time(processors, work_units).seconds();
  if (spec_.noise_sigma == 0.0) return WallSeconds(base);
  // Lognormal multiplicative jitter with unit mean.
  const double s = spec_.noise_sigma;
  const double f = std::exp(s_.rng.normal(-0.5 * s * s, s));
  return WallSeconds(base * f);
}

// Calibration note (see EXPERIMENTS.md): work_seconds is seconds per million
// grid-point updates per step; the Aila domain produces ~0.15 Mupdates/step
// at 24 km and ~0.9 at 10 km, placing full-resolution step times in the
// tens of seconds on each machine, as the paper's wall-clock axes imply.

SiteSpec inter_department_site() {
  SiteSpec s;
  s.machine = MachineSpec{
      .name = "fire",  // 12x2 dual-core Opteron 2218, 2.64 GHz
      .max_cores = 48,
      .min_cores = 4,
      .serial_seconds = 2.0,
      .work_seconds = 2000.0,
      .comm_seconds = 0.5,
      .noise_sigma = 0.05,
  };
  s.disk_capacity = Bytes::gigabytes(182);
  s.io_bandwidth = Bandwidth::megabytes_per_second(150);
  s.wan_nominal = Bandwidth::mbps(56);
  s.wan_efficiency = 0.10;  // sustained concurrent-transfer throughput incl. vis-side ingest (see EXPERIMENTS.md)
  s.wan_fluctuation_sigma = 0.15;
  return s;
}

SiteSpec intra_country_site() {
  SiteSpec s;
  s.machine = MachineSpec{
      .name = "gg-blr",  // HP Xeon X5460 quad-core, 3.16 GHz, Infiniband
      .max_cores = 90,
      .min_cores = 4,
      .serial_seconds = 1.5,
      .work_seconds = 3600.0,
      .comm_seconds = 0.4,
      .noise_sigma = 0.05,
  };
  s.disk_capacity = Bytes::gigabytes(150);
  s.io_bandwidth = Bandwidth::megabytes_per_second(200);
  s.wan_nominal = Bandwidth::mbps(40);  // National Knowledge Network path
  s.wan_efficiency = 0.35;
  s.wan_fluctuation_sigma = 0.15;
  return s;
}

SiteSpec cross_continent_site() {
  SiteSpec s;
  s.machine = MachineSpec{
      .name = "moria",  // dual Opteron 265, 1.8 GHz
      .max_cores = 56,
      .min_cores = 4,
      .serial_seconds = 2.5,
      .work_seconds = 3600.0,
      .comm_seconds = 0.6,
      .noise_sigma = 0.05,
  };
  s.disk_capacity = Bytes::gigabytes(100);
  s.io_bandwidth = Bandwidth::megabytes_per_second(100);
  s.wan_nominal = Bandwidth::kbps(60);  // intercontinental commodity path
  s.wan_efficiency = 0.80;
  s.wan_fluctuation_sigma = 0.25;
  return s;
}

}  // namespace adaptviz
