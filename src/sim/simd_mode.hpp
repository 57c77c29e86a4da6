// The HLP_SIMD knob: which word width the bit-parallel simulation engine
// evaluates stimulus with.
//
// Every backend is bit-identical to the scalar oracle (property-tested by
// tests/bit_sim_test.cpp); the mode only chooses how many simulation lanes
// one netlist traversal settles:
//
//   u64     64 lanes   scalar uint64_t word (the PR-2 engine, the default
//                      for direct simulate_* calls)
//   x2     128 lanes   portable 2 x u64 limb array
//   x4     256 lanes   portable 4 x u64 limb array
//   x8     512 lanes   portable 8 x u64 limb array
//   avx2   256 lanes   __m256i backend; needs AVX2 at build & run time
//   avx512 512 lanes   __m512i backend; needs AVX-512F at build & run time
//   auto               widest intrinsic backend the running CPU supports
//                      (avx512 > avx2 > u64) — the flow pipeline's default
//
// Parsing is strict, like HLP_JOBS: unset/empty falls back,
// anything else must be one of the names above or the sweep dies loudly.
// Requesting avx2/avx512 on a build or CPU without them is an error, not a
// silent downgrade (resolve_simd_mode throws).
#pragma once

#include <string>
#include <vector>

namespace hlp {

enum class SimdMode { kAuto, kU64, kX2, kX4, kX8, kAvx2, kAvx512 };

/// Every mode, kAuto first (handy for sweeps and option listings).
const std::vector<SimdMode>& all_simd_modes();

/// Canonical knob spelling: "auto", "u64", "x2", "x4", "x8", "avx2",
/// "avx512".
const char* simd_mode_name(SimdMode mode);

/// Strict parse of a knob value (the exact lowercase names above); throws
/// hlp::Error naming HLP_SIMD, the offending value and the accepted set.
SimdMode parse_simd_mode(const std::string& value);

/// HLP_SIMD env override, else `fallback`. Unset/empty falls back;
/// garbage throws (strict, like jobs_from_env).
SimdMode simd_mode_from_env(SimdMode fallback = SimdMode::kAuto);

/// Was this backend compiled into the library? Portable modes always;
/// avx2/avx512 only when the toolchain accepted -mavx2 / -mavx512f.
bool simd_mode_compiled(SimdMode mode);

/// Compiled in AND usable on the running CPU (CPUID avx2 / avx512f).
/// Portable modes are always supported; kAuto is trivially supported.
bool simd_mode_supported(SimdMode mode);

/// Resolve a requested mode to a concrete backend: kAuto picks the widest
/// supported intrinsic backend (avx512 > avx2 > u64); explicit modes pass
/// through after a support check. Throws hlp::Error for an explicit
/// avx2/avx512 request the build or CPU cannot honour. Never returns
/// kAuto.
SimdMode resolve_simd_mode(SimdMode requested);

/// The mode a pipeline/runner spec resolves to: an explicit spec wins,
/// kAuto consults HLP_SIMD, and the result goes through resolve_simd_mode.
SimdMode effective_simd_mode(SimdMode requested);

/// Lanes-aware variant: like effective_simd_mode, but when the request is
/// still kAuto after the HLP_SIMD default, pick the narrowest supported
/// backend that covers `lanes_needed` (u64 -> x2 -> avx2|x4 -> avx512|x8)
/// instead of the widest — a word wider than the batch pays full word
/// cost on empty lanes, so e.g. a 64-seed group stays on the u64 word and
/// a 512-seed group gets avx512. Explicit modes resolve unchanged.
SimdMode effective_simd_mode(SimdMode requested, std::size_t lanes_needed);

/// Lanes per word of a concrete mode (64..512). Throws on kAuto — resolve
/// first.
int simd_lanes(SimdMode mode);

}  // namespace hlp
