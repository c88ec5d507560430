// AVX2 twin of the scalar QUBO bank construct kernel. This TU is compiled with
// -mavx2 (and deliberately not -mfma: contraction would change rounding and
// break bitwise identity with the scalar kernel) and is only entered behind
// the CPUID dispatch in anneal/simd.cpp.
//
// Vectorization discipline: lanes map to vector elements, so every vector
// instruction performs the *same* operation the scalar kernel performs on
// each lane, in the same order. Not-taken updates use blends (bit selects),
// never masked adds of +0.0, so accumulator bit patterns — including the
// sign of zero — match the scalar path exactly.

#include "anneal/replica_bank.hpp"

#if QULRB_HAVE_AVX2

#include <immintrin.h>

namespace qulrb::anneal::detail {

namespace {

/// All-ones mask per lane of block `base_lane..base_lane+3` whose bit is set
/// in the packed word. Blocks are 4-aligned, so one 64-bit word covers the
/// whole block.
inline __m256d lane_mask(const std::uint64_t* bits, std::size_t words_per_var,
                         model::VarId v, std::size_t base_lane) noexcept {
  const std::uint64_t word = bits[v * words_per_var + (base_lane >> 6)];
  const __m256i w = _mm256_set1_epi64x(static_cast<long long>(word));
  const __m256i unit = _mm256_set_epi64x(8, 4, 2, 1);
  const __m256i test = _mm256_slli_epi64(unit, static_cast<int>(base_lane & 63u));
  const __m256i hit = _mm256_and_si256(w, test);
  return _mm256_castsi256_pd(_mm256_cmpeq_epi64(hit, test));
}

/// take ? on_true : on_false per lane (blendv keys on the mask sign bit).
inline __m256d select(__m256d mask, __m256d on_true, __m256d on_false) noexcept {
  return _mm256_blendv_pd(on_false, on_true, mask);
}

}  // namespace

void qubo_construct_lanes_avx2(const QuboBankView& bank) noexcept {
  const model::QuboModel& qubo = *bank.qubo;
  const auto& adjacency = qubo.adjacency();
  const std::size_t stride = bank.stride;
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  for (std::size_t base = 0; base < stride; base += 4) {
    __m256d e = _mm256_set1_pd(qubo.offset());
    for (model::VarId v = 0; v < bank.num_vars; ++v) {
      const __m256d m = lane_mask(bank.bits, bank.words_per_var, v, base);
      e = select(m, _mm256_add_pd(e, _mm256_set1_pd(qubo.linear(v))), e);
    }
    qubo.for_each_quadratic([&](model::VarId i, model::VarId j, double coeff) {
      const __m256d mi = lane_mask(bank.bits, bank.words_per_var, i, base);
      const __m256d mj = lane_mask(bank.bits, bank.words_per_var, j, base);
      const __m256d m = _mm256_and_pd(mi, mj);
      e = select(m, _mm256_add_pd(e, _mm256_set1_pd(coeff)), e);
    });
    _mm256_storeu_pd(bank.energy + base, e);
    for (model::VarId v = 0; v < bank.num_vars; ++v) {
      __m256d delta = _mm256_set1_pd(qubo.linear(v));
      for (const auto& nb : adjacency[v]) {
        const __m256d m = lane_mask(bank.bits, bank.words_per_var, nb.other, base);
        delta = select(m, _mm256_add_pd(delta, _mm256_set1_pd(nb.coeff)), delta);
      }
      // state[v] ? -delta : delta — unary negation is an exact sign flip.
      const __m256d mv = lane_mask(bank.bits, bank.words_per_var, v, base);
      delta = select(mv, _mm256_xor_pd(delta, sign_bit), delta);
      _mm256_storeu_pd(bank.deltas + v * stride + base, delta);
    }
  }
}

}  // namespace qulrb::anneal::detail

#endif  // QULRB_HAVE_AVX2
