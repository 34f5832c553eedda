// Row kernels of the shallow-water solver, compiled once per instruction
// set from one source (sw_kernels.inl): for baseline x86-64 and, where the
// compiler can target it, for x86-64-v3 (AVX2). Both builds keep
// -ffp-contract=off, so no FMA appears and every lane rounds like the
// scalar IEEE operation it replaces: the two tables are bitwise equal.
// SwSolver::step uses kernels(), picked once from the running CPU.
#pragma once

#include <cstddef>

namespace adaptviz::sw {

/// One RK3 stage over an nx x ny grid: out = base + a * F(in), where F is
/// the shallow-water tendency (zero on the boundary ring) with its optional
/// forcing terms and the boundary sponge. `out` may be `in` (the stage
/// buffer updated in place) or `base` (the state's last stage). Every array
/// is row-major with nx columns.
struct StageArgs {
  std::size_t nx = 0;
  std::size_t ny = 0;
  const double* in_h = nullptr;
  const double* in_u = nullptr;
  const double* in_v = nullptr;
  const double* base_h = nullptr;
  const double* base_u = nullptr;
  const double* base_v = nullptr;
  double* out_h = nullptr;
  double* out_u = nullptr;
  double* out_v = nullptr;
  /// Optional forcing (null when off): mass, u and v tendencies, and the
  /// relaxation rate r(x,y).
  const double* q = nullptr;
  const double* fu = nullptr;
  const double* fv = nullptr;
  const double* relax = nullptr;
  /// Coriolis parameter of each row (ny values).
  const double* fcor = nullptr;
  /// Sponge rates by distance from the boundary, (1/tau)(1 - d/w)^2 for
  /// d < sponge_width; null when the sponge is off.
  const double* sponge_rates = nullptr;
  std::size_t sponge_width = 0;
  double su = 0.0;  // steering current
  double sv = 0.0;
  double inv2dx = 0.0;
  double nu_invdx2 = 0.0;
  double grav = 0.0;
  double hbar = 0.0;
  double dx = 0.0;
  double a = 0.0;  // stage fraction of dt
  /// Scratch of row_scratch_size(nx) doubles, zero when first handed to a
  /// stage: a stage never writes its first 3 nx (the boundary rows' zero
  /// tendency), nor the first and last column of any row.
  double* rows = nullptr;
};

/// Doubles of StageArgs::rows a stage needs on a grid nx points wide: three
/// blocks of h/u/v rows, the zero tendency and two rows in flight.
constexpr std::size_t row_scratch_size(std::size_t nx) { return 9 * nx; }

struct KernelTable {
  const char* isa;
  void (*stage)(const StageArgs& args);
};

/// The kernels built for baseline x86-64 (or the target's default ISA).
const KernelTable& baseline_kernels();
/// The kernels built for x86-64-v3, or null when they were not compiled in
/// or this CPU lacks x86-64-v3.
const KernelTable* x86_64_v3_kernels();
/// The widest table this CPU runs, picked on first use.
const KernelTable& kernels();

}  // namespace adaptviz::sw
