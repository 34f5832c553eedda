// The baseline build of the shallow-water row kernels, and the choice of
// table. The choice is made once per process, from the CPU: there is no
// option to force one, and the tests call each table directly.
#define ADAPTVIZ_SW_ISA baseline
#include "weather/sw_kernels.inl"

namespace adaptviz::sw {

#if defined(ADAPTVIZ_SW_X86_64_V3)
namespace x86_64_v3 {
void rk3_stage(const StageArgs& s);  // sw_kernels_x86_64_v3.cpp
}
#endif

const KernelTable& baseline_kernels() {
  static constexpr KernelTable table{"baseline", &baseline::rk3_stage};
  return table;
}

const KernelTable* x86_64_v3_kernels() {
#if defined(ADAPTVIZ_SW_X86_64_V3)
  static constexpr KernelTable table{"x86-64-v3", &x86_64_v3::rk3_stage};
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("x86-64-v3") != 0;
  }();
  return supported ? &table : nullptr;
#else
  return nullptr;
#endif
}

const KernelTable& kernels() {
  static const KernelTable& table = x86_64_v3_kernels() != nullptr
                                        ? *x86_64_v3_kernels()
                                        : baseline_kernels();
  return table;
}

}  // namespace adaptviz::sw
