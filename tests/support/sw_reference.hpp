// The shallow-water solver's scalar reference: the original per-point RK3
// step, with per-point branches for every optional term and the sponge.
// It is the readable spec of SwSolver::step and its bitwise oracle (the
// weather tests compare the two under memcmp), and bench_micro's baseline
// for the row kernels' speedup.
#pragma once

#include "weather/dynamics.hpp"

namespace adaptviz::testing_support {

class ReferenceSolver {
 public:
  explicit ReferenceSolver(SwParams params = {}) : params_(params) {}

  /// One RK3 step of length dt, as SwSolver::step.
  void step(DomainState& state, double dt_seconds, const SwForcing& forcing);

 private:
  void tendency(const DomainState& s, const SwForcing& f, double dt);

  SwParams params_;
  DomainState stage_;
  Field2D dh_, du_, dv_;
};

}  // namespace adaptviz::testing_support
