#pragma once

namespace qulrb::anneal::simd {

/// Instruction-set level used by the QUBO replica bank's construct kernel
/// (the one dispatched kernel; simulated annealing's batched reads run it).
///
/// Dispatch is two-stage: the `QULRB_SIMD` CMake option decides whether the
/// AVX2 translation unit is compiled at all, and at runtime the highest level
/// the CPU supports is selected once via CPUID. The vector kernel has a
/// scalar twin that produces bitwise-identical results (the vector lanes
/// replicate the scalar per-replica operation order exactly), so the level
/// is a pure performance knob — solver output never depends on it.
enum class Level {
  kScalar = 0,  ///< portable fallback, always available
  kAvx2 = 1,    ///< 4-wide double lanes (requires QULRB_SIMD=ON and CPU support)
};

/// Highest level this build + CPU combination can run (CPUID probe, cached).
Level detected_level() noexcept;

/// Level the kernels currently dispatch on. Defaults to detected_level().
Level active_level() noexcept;

/// Clamp-and-set the active level (never above detected_level()). Used by the
/// scalar/SIMD equivalence tests and the bench harness to force the fallback
/// path on hardware that supports AVX2. Returns the level actually set.
Level set_active_level(Level level) noexcept;

/// Stable lowercase name ("scalar", "avx2") — recorded in bench JSON context
/// so perf baselines are never compared across ISA levels silently.
const char* level_name(Level level) noexcept;

}  // namespace qulrb::anneal::simd
