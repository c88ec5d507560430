#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/qubo.hpp"

namespace qulrb::anneal {

namespace detail {

/// Raw-pointer view of a QuboReplicaBank's SoA storage, shared by the scalar
/// and AVX2 kernel translation units. Lane arrays hold `stride` doubles per
/// logical slot (stride = num_lanes rounded up to the 4-wide vector width);
/// pad lanes start from all-zero bits so the vector kernel can process full
/// blocks without masking the tail.
struct QuboBankView {
  const model::QuboModel* qubo = nullptr;
  std::size_t num_vars = 0;
  std::size_t num_lanes = 0;
  std::size_t stride = 0;
  std::size_t words_per_var = 0;
  const std::uint64_t* bits = nullptr;  ///< [num_vars * words_per_var]
  double* energy = nullptr;             ///< [stride]
  double* deltas = nullptr;             ///< [num_vars * stride]
};

/// Batched energy + all-variable flip-delta construction, replicating the
/// QuboDeltaCache constructor (QuboModel::energy + flip_delta) per lane.
void qubo_construct_lanes_scalar(const QuboBankView& bank) noexcept;
void qubo_construct_lanes_avx2(const QuboBankView& bank) noexcept;

}  // namespace detail

/// R QUBO replicas sharing one model: packed spin bits plus an SoA
/// flip-delta matrix (`deltas[v * stride + lane]`) and per-lane energies,
/// each lane bitwise identical to a scalar QuboDeltaCache evolved through
/// the same flip sequence. Construction is the vectorized kernel (all-lane
/// energy + delta evaluation off one model scan); apply_flip is the same
/// O(deg) row walk as the scalar cache.
class QuboReplicaBank {
 public:
  QuboReplicaBank(const model::QuboModel& qubo,
                  std::span<const model::State> initial);

  std::size_t num_lanes() const noexcept { return num_lanes_; }
  std::size_t lane_stride() const noexcept { return stride_; }
  std::size_t num_variables() const noexcept { return num_vars_; }

  bool state_bit(std::size_t lane, model::VarId v) const noexcept {
    return (bits_[v * words_per_var_ + (lane >> 6)] >> (lane & 63u)) & 1u;
  }
  double energy(std::size_t lane) const noexcept { return energy_[lane]; }
  double delta(std::size_t lane, model::VarId v) const noexcept {
    return deltas_[v * stride_ + lane];
  }
  model::State extract_state(std::size_t lane) const;

  /// Commit the flip of `v` on one lane, mirroring QuboDeltaCache::apply_flip.
  void apply_flip(std::size_t lane, model::VarId v) noexcept;

 private:
  detail::QuboBankView view() const noexcept;

  const model::QuboModel* qubo_;
  const model::CsrRows<model::QuboModel::Neighbor>* adjacency_;
  std::size_t num_lanes_;
  std::size_t stride_;
  std::size_t num_vars_;
  std::size_t words_per_var_;
  std::vector<std::uint64_t> bits_;
  std::vector<double> energy_;
  std::vector<double> deltas_;
};

}  // namespace qulrb::anneal
