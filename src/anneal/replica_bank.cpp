#include "anneal/replica_bank.hpp"

#include "anneal/simd.hpp"
#include "util/error.hpp"

namespace qulrb::anneal {

using model::VarId;

namespace detail {

// Scalar reference kernel the AVX2 twin is proven against: it replicates the
// QuboDeltaCache constructor per lane, operation for operation.
void qubo_construct_lanes_scalar(const QuboBankView& bank) noexcept {
  const model::QuboModel& qubo = *bank.qubo;
  const auto& adjacency = qubo.adjacency();
  const std::size_t stride = bank.stride;
  const auto bit = [&](std::size_t lane, VarId v) -> bool {
    return (bank.bits[v * bank.words_per_var + (lane >> 6)] >> (lane & 63u)) & 1u;
  };
  for (std::size_t l = 0; l < stride; ++l) {
    // QuboModel::energy, per lane.
    double e = qubo.offset();
    for (VarId v = 0; v < bank.num_vars; ++v) {
      if (bit(l, v)) e += qubo.linear(v);
    }
    qubo.for_each_quadratic([&](VarId i, VarId j, double coeff) {
      if (bit(l, i) && bit(l, j)) e += coeff;
    });
    bank.energy[l] = e;
    // QuboModel::flip_delta, per (lane, variable).
    for (VarId v = 0; v < bank.num_vars; ++v) {
      double delta = qubo.linear(v);
      for (const auto& nb : adjacency[v]) {
        if (bit(l, nb.other)) delta += nb.coeff;
      }
      bank.deltas[v * stride + l] = bit(l, v) ? -delta : delta;
    }
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// QuboReplicaBank
// ---------------------------------------------------------------------------

QuboReplicaBank::QuboReplicaBank(const model::QuboModel& qubo,
                                 std::span<const model::State> initial)
    : qubo_(&qubo),
      adjacency_(&qubo.adjacency()),
      num_lanes_(initial.size()),
      stride_((initial.size() + 3) & ~std::size_t{3}),
      num_vars_(qubo.num_variables()),
      words_per_var_((((initial.size() + 3) & ~std::size_t{3}) + 63) / 64) {
  util::require(num_lanes_ >= 1, "QuboReplicaBank: need at least one lane");
  bits_.assign(num_vars_ * words_per_var_, 0);
  for (std::size_t l = 0; l < num_lanes_; ++l) {
    util::require(initial[l].size() == num_vars_,
                  "QuboReplicaBank: state size mismatch");
    for (VarId v = 0; v < num_vars_; ++v) {
      if (initial[l][v]) {
        bits_[v * words_per_var_ + (l >> 6)] |= std::uint64_t{1} << (l & 63u);
      }
    }
  }
  energy_.assign(stride_, 0.0);
  deltas_.assign(num_vars_ * stride_, 0.0);

  const detail::QuboBankView v = view();
#if QULRB_HAVE_AVX2
  if (simd::active_level() == simd::Level::kAvx2) {
    detail::qubo_construct_lanes_avx2(v);
    return;
  }
#endif
  detail::qubo_construct_lanes_scalar(v);
}

detail::QuboBankView QuboReplicaBank::view() const noexcept {
  detail::QuboBankView v;
  v.qubo = qubo_;
  v.num_vars = num_vars_;
  v.num_lanes = num_lanes_;
  v.stride = stride_;
  v.words_per_var = words_per_var_;
  v.bits = bits_.data();
  v.energy = const_cast<double*>(energy_.data());
  v.deltas = const_cast<double*>(deltas_.data());
  return v;
}

model::State QuboReplicaBank::extract_state(std::size_t lane) const {
  model::State s(num_vars_);
  for (VarId v = 0; v < num_vars_; ++v) {
    s[v] = state_bit(lane, v) ? 1u : 0u;
  }
  return s;
}

void QuboReplicaBank::apply_flip(std::size_t lane, VarId v) noexcept {
  const double d = deltas_[v * stride_ + lane];
  const bool was_set = state_bit(lane, v);
  bits_[v * words_per_var_ + (lane >> 6)] ^= std::uint64_t{1} << (lane & 63u);
  energy_[lane] += d;
  deltas_[v * stride_ + lane] = -d;
  const double sign_v = was_set ? -1.0 : 1.0;
  for (const auto& nb : (*adjacency_)[v]) {
    const double direction = state_bit(lane, nb.other) ? -1.0 : 1.0;
    deltas_[nb.other * stride_ + lane] += direction * sign_v * nb.coeff;
  }
}

}  // namespace qulrb::anneal
