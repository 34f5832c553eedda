// WeatherModel — the WRF stand-in the rest of the framework drives.
//
// Two grids per domain, deliberately decoupled:
//
//  * The *modeled* grid is what the framework reasons about: the Table III
//    resolution ladder, per-step work units for the performance model, and
//    frame sizes for the disk/network models all derive from the modeled
//    resolution (e.g. 24 km parent, 8 km nest).
//  * The *compute* grid is what the shallow-water core actually integrates:
//    modeled resolution x compute_scale. With scale > 1 a 60-hour cyclone
//    experiment replays in seconds while the physics stays real; examples
//    use small scales for pretty fields, benches use larger ones.
//
// The time step always follows the modeled resolution (WRF's dt = 6*dx
// rule), so the framework sees the authentic step cadence; the CFL number on
// the compute grid only *drops* as scale grows.
//
// The model deliberately does NOT change its own resolution: like WRF under
// the paper's framework, it reports that a threshold was crossed
// (`recommended_resolution()` differs from `modeled_resolution_km()`) and
// the job handler stops it, checkpoints and restarts it with the new
// configuration.
#pragma once

#include <memory>
#include <optional>

#include "dataio/ncl.hpp"
#include "weather/analysis.hpp"
#include "weather/dynamics.hpp"
#include "weather/geography.hpp"
#include "weather/nest.hpp"
#include "weather/physics.hpp"
#include "weather/tracker.hpp"

namespace adaptviz {

struct ModelConfig {
  /// Geographic parent domain; paper: 60E-120E, 10S-40N (~32e6 sq km).
  double lon0 = 60.0;
  double lat0 = -10.0;
  double extent_lon_deg = 60.0;
  double extent_lat_deg = 50.0;

  /// Modeled parent resolution before the ladder engages (Table III row 1).
  double base_resolution_km = 24.0;
  /// Compute grid coarsening factor (>= 1); see file comment.
  double compute_scale = 4.0;
  /// Moving nest extent (degrees each way). The paper's minimum nest grid of
  /// 100x127 points at a 1:3 ratio corresponds to roughly this footprint.
  double nest_extent_deg = 9.0;

  AnalysisConfig analysis{};
  PhysicsConfig physics{};
  SwParams dynamics{};

  /// Modeled frame contents: values per grid point = variables x levels.
  /// 18 variables on 27 model levels at 4 bytes puts fine-resolution frames
  /// in the several-hundred-megabyte regime, the balance point where the
  /// Table IV networks are genuinely resource-constrained (see
  /// EXPERIMENTS.md calibration note).
  double frame_variables = 18.0;
  double frame_levels = 27.0;
  double frame_bytes_per_value = 4.0;
};

class WeatherModel {
 public:
  explicit WeatherModel(const ModelConfig& config,
                        const ResolutionLadder& ladder =
                            ResolutionLadder::table3());

  /// Advances one parent time step (dt = 6 * modeled resolution seconds):
  /// parent RK3 step, three nest substeps with boundary exchange and
  /// feedback, intensity ODE, tracking, nest spawn/recenter.
  /// Returns the simulated time advanced. The storm geometry is built on
  /// `pool`'s helpers (null: ThreadPool::shared()) beside the serial work:
  /// the nest's while the parent steps, the next step's parent geometry
  /// while the nest steps. All of it has finished when step() returns, and
  /// the state does not depend on the pool.
  SimSeconds step(ThreadPool* pool = nullptr);

  [[nodiscard]] SimSeconds sim_time() const { return sim_time_; }
  [[nodiscard]] double dt_seconds() const {
    return SwSolver::dt_for_resolution_km(modeled_res_km_);
  }

  [[nodiscard]] double modeled_resolution_km() const {
    return modeled_res_km_;
  }
  /// Resolution Table III prescribes for the deepest pressure seen so far.
  [[nodiscard]] double recommended_resolution_km() const;
  /// True once the storm warrants a finer grid than the model currently
  /// runs — the signal WRF sends the job handler.
  [[nodiscard]] bool resolution_change_pending() const;

  /// Re-grids parent (and nest) to a new modeled resolution. Called by the
  /// job handler as part of a restart, never mid-run by the model itself.
  void set_modeled_resolution(double res_km);

  [[nodiscard]] bool nest_active() const { return nest_.has_value(); }
  [[nodiscard]] const std::optional<NestDomain>& nest() const { return nest_; }
  [[nodiscard]] const DomainState& parent_state() const { return parent_; }
  [[nodiscard]] const CycloneTracker& tracker() const { return tracker_; }
  [[nodiscard]] const CyclonePhysics& physics() const { return physics_; }
  [[nodiscard]] double min_pressure_hpa() const {
    return tracker_.min_pressure_hpa();
  }
  [[nodiscard]] LatLon eye() const { return tracker_.eye(); }

  /// --- Quantities the resource/performance models consume (all derived
  /// --- from the *modeled* grids). ---
  /// Million grid-point updates per parent step (nest counts x3 substeps).
  [[nodiscard]] double work_units() const;
  /// Modeled on-disk size of one output frame.
  [[nodiscard]] Bytes frame_bytes() const;
  /// WRF decomposition limit: >= 6x6 parent and >= 9x9 nest points per rank.
  [[nodiscard]] int max_usable_processors() const;

  /// Snapshot of the compute fields for visualization (real data).
  [[nodiscard]] NclFile make_frame() const;

  /// Full-state checkpoint / restart (job handler reschedules WRF "using
  /// WRF checkpointed data with the new application configuration").
  [[nodiscard]] NclFile checkpoint() const;
  static WeatherModel restore(const ModelConfig& config,
                              const ResolutionLadder& ladder,
                              const NclFile& checkpoint);

  [[nodiscard]] const ModelConfig& config() const { return config_; }
  [[nodiscard]] const ResolutionLadder& ladder() const { return ladder_; }

 private:
  WeatherModel(const ModelConfig& config, const ResolutionLadder& ladder,
               bool defer_init);
  void init_from_analysis();
  void rebuild_compute_grids(const DomainState* old_parent);
  [[nodiscard]] GridSpec modeled_parent_grid() const;
  [[nodiscard]] GridSpec compute_parent_grid() const;
  void maybe_spawn_or_move_nest();

  ModelConfig config_;
  ResolutionLadder ladder_;
  SwSolver solver_;
  SyntheticAnalysis analysis_;
  double modeled_res_km_;
  SimSeconds sim_time_{0.0};

  DomainState parent_;
  std::optional<NestDomain> nest_;
  Field2D parent_land_;
  Field2D nest_land_;
  CycloneTracker tracker_;
  CyclonePhysics physics_;

  // One domain's forcing, reused across steps: the storm geometry and the
  // tendencies applied from it. The parent's geometry is built one step
  // ahead; step() uses it only if it is current for the step's grid and
  // storm (CyclonePhysics::geometry_current), and rebuilds it otherwise.
  struct DomainForcing {
    ForcingGeometry geometry;
    Field2D q, fu, fv;
  };
  DomainForcing parent_forcing_, nest_forcing_;
};

}  // namespace adaptviz
