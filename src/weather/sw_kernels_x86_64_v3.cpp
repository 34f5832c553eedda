// The x86-64-v3 (AVX2) build of the shallow-water row kernels. The weather
// library compiles this file alone with -march=x86-64-v3, keeping
// -ffp-contract=off; sw_kernels.cpp calls it only on a CPU that has it.
#define ADAPTVIZ_SW_ISA x86_64_v3
#include "weather/sw_kernels.inl"
