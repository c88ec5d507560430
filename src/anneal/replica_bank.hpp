#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "anneal/cqm_anneal.hpp"
#include "anneal/sampleset.hpp"
#include "anneal/schedule.hpp"
#include "anneal/simd.hpp"
#include "model/cqm.hpp"
#include "model/qubo.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {

namespace detail {

/// Branchless bit-select: `take ? on_true : on_false`, compiled to mask
/// arithmetic on the raw bit patterns. The replica-bank kernels use this (and
/// never a masked add of +0.0) so that not-taken lanes keep their accumulator
/// bits untouched — adding +0.0 to a -0.0 accumulator would flip its sign bit
/// and break the bitwise-identity contract with the branchy scalar kernels.
inline double bit_select(bool take, double on_true, double on_false) noexcept {
  std::uint64_t t;
  std::uint64_t f;
  std::memcpy(&t, &on_true, sizeof(t));
  std::memcpy(&f, &on_false, sizeof(f));
  const std::uint64_t mask = -static_cast<std::uint64_t>(take);
  const std::uint64_t r = (t & mask) | (f & ~mask);
  double out;
  std::memcpy(&out, &r, sizeof(out));
  return out;
}

/// Branchless twin of CqmModel::violation_of. Bitwise identical to the
/// sense-switch form: `a > b` is exactly `a - b > 0` in IEEE-754 with gradual
/// underflow (the x86-64 default), and each selected value is the very
/// difference the legacy ternaries return.
inline double violation_branchless(model::Sense sense, double activity,
                                   double rhs) noexcept {
  const double over = activity - rhs;   // > 0 iff activity > rhs
  const double under = rhs - activity;  // > 0 iff rhs > activity
  const double le = bit_select(over > 0.0, over, 0.0);
  const double ge = bit_select(under > 0.0, under, 0.0);
  const double eq = bit_select(over > 0.0, over, under);
  return bit_select(sense == model::Sense::LE, le,
                    bit_select(sense == model::Sense::GE, ge, eq));
}

/// Raw-pointer view of a CqmReplicaBank's SoA storage, shared by the scalar
/// and AVX2 kernel translation units. Lane arrays hold `stride` doubles per
/// logical slot (stride = num_lanes rounded up to the 4-wide vector width);
/// pad lanes start from all-zero bits and zero penalty weights so the vector
/// kernels can process full blocks without masking the tail.
struct CqmBankView {
  const model::CqmModel* cqm = nullptr;
  std::size_t num_vars = 0;
  std::size_t num_lanes = 0;
  std::size_t stride = 0;
  std::size_t words_per_var = 0;
  std::uint64_t* bits = nullptr;  ///< [num_vars * words_per_var]
  double* objective = nullptr;    ///< [stride]
  double* penalty = nullptr;      ///< [stride]
  double* group_values = nullptr;       ///< [num_groups * stride]
  double* activities = nullptr;         ///< [num_cons * stride]
  const double* penalty_weights = nullptr;  ///< [num_cons * stride]
  const double* rhs = nullptr;              ///< [num_cons]
  const model::Sense* sense = nullptr;      ///< [num_cons]
  const double* linear = nullptr;           ///< [num_vars]
  const double* group_weights = nullptr;    ///< [num_groups]
  const model::CsrRows<model::CqmModel::GroupKernelTerm>* group_kernel = nullptr;
  const model::CsrRows<model::CqmModel::Incidence>* group_inc = nullptr;
  const model::CsrRows<model::CqmModel::QuadNeighbor>* quad_inc = nullptr;
  const model::CsrRows<model::CqmModel::Incidence>* con_inc = nullptr;
};

/// Batched from-scratch evaluation of every lane: objective, squared-group
/// values, constraint activities and penalty energy, replicating the per-lane
/// operation order of the CqmIncrementalState constructor exactly.
void cqm_construct_lanes_scalar(const CqmBankView& bank) noexcept;
void cqm_construct_lanes_avx2(const CqmBankView& bank) noexcept;

/// Batched flip delta of one variable across every lane (out[num_lanes]),
/// replicating CqmIncrementalState::flip_delta_parts per lane.
void cqm_batched_flip_delta_scalar(const CqmBankView& bank, model::VarId v,
                                   CqmIncrementalState::FlipDelta* out) noexcept;
void cqm_batched_flip_delta_avx2(const CqmBankView& bank, model::VarId v,
                                 CqmIncrementalState::FlipDelta* out) noexcept;

/// Raw-pointer view of a QuboReplicaBank (see CqmBankView for layout rules).
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

/// Joint (a, b) pair-flip delta for every lane, mirroring
/// CqmReplicaBank::pair_delta_parts per lane (canonical argument order; lanes
/// where bit(a) == bit(b) still get a value computed, the caller discards it).
void cqm_batched_pair_delta_scalar(const CqmBankView& bank, model::VarId a,
                                   model::VarId b,
                                   CqmIncrementalState::FlipDelta* out) noexcept;
void cqm_batched_pair_delta_avx2(const CqmBankView& bank, model::VarId a,
                                 model::VarId b,
                                 CqmIncrementalState::FlipDelta* out) noexcept;

/// Commit the flip of `v` on every lane whose `accept[lane]` byte is nonzero,
/// replicating CqmReplicaBank::apply_flip per accepted lane (non-accepted
/// lanes keep every aggregate bitwise untouched).
void cqm_batched_apply_flip_scalar(const CqmBankView& bank, model::VarId v,
                                   const std::uint8_t* accept) noexcept;
void cqm_batched_apply_flip_avx2(const CqmBankView& bank, model::VarId v,
                                 const std::uint8_t* accept) noexcept;

/// Batched energy + all-variable flip-delta construction, replicating the
/// QuboDeltaCache constructor (QuboModel::energy + flip_delta) per lane.
void qubo_construct_lanes_scalar(const QuboBankView& bank) noexcept;
void qubo_construct_lanes_avx2(const QuboBankView& bank) noexcept;

/// Tabu-search candidate scan: index of the admissible variable with the
/// smallest delta (ties resolved to the smallest index, matching the scalar
/// strict-less scan), or `n` when nothing is admissible. A move is admissible
/// when it is not tabu (`tabu_until[v] < iteration`) or when it aspirates
/// (`energy + deltas[v] < best_energy - 1e-12`).
std::size_t tabu_argmin_scalar(const double* deltas, const std::size_t* tabu_until,
                               std::size_t n, std::size_t iteration, double energy,
                               double best_energy) noexcept;
std::size_t tabu_argmin_avx2(const double* deltas, const std::size_t* tabu_until,
                             std::size_t n, std::size_t iteration, double energy,
                             double best_energy) noexcept;

}  // namespace detail

/// Dispatched tabu candidate scan (see detail::tabu_argmin_scalar for the
/// contract). Both levels return identical indices for identical inputs.
std::size_t tabu_argmin(std::span<const double> deltas,
                        std::span<const std::size_t> tabu_until,
                        std::size_t iteration, double energy,
                        double best_energy) noexcept;

/// R lockstep annealing replicas over one shared CQM, stored
/// structure-of-arrays: spin bits are packed per variable across replicas
/// (`bits[v * words_per_var + word]`, lane l at bit l%64), and every running
/// aggregate (objective, penalty, group values, constraint activities,
/// penalty weights) is a `[slot * stride + lane]` double array, so same-slot
/// accesses across replicas are one contiguous cache line instead of R
/// scattered CqmIncrementalState instances.
///
/// Hard contract: every lane evolves bitwise identically to a scalar
/// CqmIncrementalState walking the same flip sequence. The batched kernels
/// (construction, batched_flip_delta) replicate the scalar per-lane operation
/// order exactly — vectorization is strictly *across* lanes, never within a
/// lane's accumulation chain — and dispatch on simd::active_level() is a pure
/// performance knob.
class CqmReplicaBank {
 public:
  using FlipDelta = CqmIncrementalState::FlipDelta;

  /// One initial state and one penalty vector per lane. All states must have
  /// cqm.num_variables() entries; all penalty vectors cqm.num_constraints().
  CqmReplicaBank(const model::CqmModel& cqm, std::span<const model::State> initial,
                 std::span<const std::vector<double>> penalties);

  const model::CqmModel& cqm() const noexcept { return *cqm_; }
  std::size_t num_lanes() const noexcept { return num_lanes_; }
  std::size_t lane_stride() const noexcept { return stride_; }
  std::size_t num_variables() const noexcept { return num_vars_; }
  std::size_t num_constraints() const noexcept { return rhs_.size(); }

  bool state_bit(std::size_t lane, model::VarId v) const noexcept {
    return (bits_[v * words_per_var_ + (lane >> 6)] >> (lane & 63u)) & 1u;
  }

  double objective(std::size_t lane) const noexcept { return obj_[lane]; }
  double penalty_energy(std::size_t lane) const noexcept { return pen_[lane]; }
  double total_energy(std::size_t lane) const noexcept {
    return obj_[lane] + pen_[lane];
  }
  double total_violation(std::size_t lane) const noexcept;
  bool feasible(std::size_t lane, double tol = 1e-9) const noexcept;
  model::State extract_state(std::size_t lane) const;

  /// Single-lane operations: the lane-generic mirrors of the batched kernels
  /// below (tests check each batched kernel against them). A lone walk steps
  /// faster on a CqmIncrementalState.
  FlipDelta flip_delta_parts(std::size_t lane, model::VarId v) const noexcept;
  FlipDelta pair_delta_parts(std::size_t lane, model::VarId a,
                             model::VarId b) const noexcept;
  void apply_flip(std::size_t lane, model::VarId v) noexcept;

  /// Replace one lane's penalty weights and recompute its penalty energy
  /// (running activities are unaffected), mirroring
  /// CqmIncrementalState::set_penalties.
  void set_penalties(std::size_t lane, std::span<const double> penalties);

  /// Flip delta of `v` for every lane at once (out must hold num_lanes()
  /// entries). This is the vectorized kernel: with AVX2 active, four lanes
  /// are evaluated per instruction off the shared CSR row scan.
  void batched_flip_delta(model::VarId v, FlipDelta* out) const noexcept;

  /// Joint (a, b) pair-flip delta for every lane at once, evaluated in the
  /// canonical (a, b) argument order for all lanes (per-lane flip signs come
  /// from each lane's own bits). Lanes where bit(a) == bit(b) receive a value
  /// the caller must discard — a pair move is only meaningful on lanes whose
  /// bits differ.
  void batched_pair_delta(model::VarId a, model::VarId b,
                          FlipDelta* out) const noexcept;

  /// Commit the flip of `v` on every lane whose accept byte is nonzero
  /// (accept must hold num_lanes() entries). Non-accepting lanes keep every
  /// aggregate bitwise untouched.
  void batched_apply_flip(model::VarId v, const std::uint8_t* accept) noexcept;

 private:
  double lane_penalty_of(std::size_t c, std::size_t lane,
                         double activity) const noexcept {
    return pen_w_[c * stride_ + lane] *
           detail::violation_branchless(sense_[c], activity, rhs_[c]);
  }
  detail::CqmBankView view() const noexcept;

  const model::CqmModel* cqm_;
  std::size_t num_lanes_;
  std::size_t stride_;
  std::size_t num_vars_;
  std::size_t words_per_var_;
  std::vector<std::uint64_t> bits_;
  std::vector<double> obj_;
  std::vector<double> pen_;
  std::vector<double> group_vals_;
  std::vector<double> acts_;
  std::vector<double> pen_w_;
  std::vector<double> rhs_;
  std::vector<model::Sense> sense_;

  // Borrowed flat views into the model (valid for the model's lifetime).
  std::span<const double> linear_;
  std::span<const double> group_weights_;
  const model::CsrRows<model::CqmModel::GroupKernelTerm>* group_kernel_;
  const model::CsrRows<model::CqmModel::Incidence>* group_inc_;
  const model::CsrRows<model::CqmModel::Incidence>* con_inc_;
  const model::CsrRows<model::CqmModel::QuadNeighbor>* quad_inc_;
};

/// Per-lane inputs for BatchedCqmAnnealer::anneal_lanes. Each lane owns its
/// RNG stream (typically one pre-split restart stream), so the lane's draw
/// sequence is exactly the one the scalar CqmAnnealer would consume.
struct BatchedLaneSpec {
  util::Rng* rng = nullptr;                        ///< required
  const model::State* initial = nullptr;           ///< null/empty => random init
  const std::vector<double>* penalties = nullptr;  ///< required
  bool refinement = false;
  std::uint32_t trace_track = 0;
  AnnealTrace* trace = nullptr;
};

struct BatchedCqmAnnealParams {
  std::size_t sweeps = 2000;
  ScheduleKind schedule = ScheduleKind::kGeometric;
  std::optional<double> beta_hot;
  std::optional<double> beta_cold;
  double pair_move_prob = 0.5;
  /// Polled once per lockstep sweep; on expiry every lane returns its best
  /// sample so far (the scalar annealer polls per lane, so expiry timing —
  /// and only timing — can differ from R scalar runs).
  util::CancelToken cancel;
  obs::Recorder* recorder = nullptr;
  /// Bumped by the per-lane sweep count, matching what R scalar anneal_once
  /// calls would contribute.
  obs::Counter* sweep_counter = nullptr;
  /// Bumped by lane-sweeps executed (sweeps x lanes); feeds
  /// qulrb_solver_replica_sweeps.
  obs::Counter* replica_sweep_counter = nullptr;
  /// Optional always-on flight ring: one compact span per anneal_lanes call
  /// (value = lane-sweeps executed). Same null discipline as `recorder`.
  obs::FlightRecorder* flight = nullptr;
  std::uint16_t flight_name = 0;
  std::uint64_t flight_rid = 0;
};

/// Lockstep multi-replica twin of CqmAnnealer: R lanes anneal step by step
/// in one interleaved loop with one schedule, incumbent and trace pass.
///
/// Two proposal modes:
///  - Per-lane (default, `proposal_rng == nullptr`): each lane draws its own
///    moves from its own stream and walks its own CqmIncrementalState,
///    exactly like R scalar CqmAnnealer runs — trajectories are bitwise
///    identical to anneal_once with the same seeds. HybridCqmSolver runs its
///    restart lanes in this mode.
///  - Shared-proposal lockstep (`proposal_rng != nullptr`): the lanes live in
///    one CqmReplicaBank and one proposal stream draws each step's move (flip
///    variable or candidate pair) for all of them, so the delta evaluation
///    and the commit run through the batched across-lane SIMD kernels; each
///    lane keeps its own acceptance stream.
///    Proposal draws never depend on lane state, so a lane's trajectory
///    depends only on (proposal stream, its own stream) — independent of R
///    and of which other lanes share the bank — and is bitwise identical
///    between the SIMD and scalar builds.
class BatchedCqmAnnealer {
 public:
  explicit BatchedCqmAnnealer(BatchedCqmAnnealParams params = {})
      : params_(std::move(params)) {}

  /// Anneal every lane in lockstep; returns one best-seen sample per lane
  /// (index-aligned with `lanes`). When `pairs` is null and pair_move_prob
  /// is positive, a PairMoveIndex is built locally. A non-null `proposal_rng`
  /// selects shared-proposal lockstep mode (see the class comment).
  std::vector<Sample> anneal_lanes(const model::CqmModel& cqm,
                                   std::span<const BatchedLaneSpec> lanes,
                                   const PairMoveIndex* pairs = nullptr,
                                   util::Rng* proposal_rng = nullptr) const;

  const BatchedCqmAnnealParams& params() const noexcept { return params_; }

 private:
  BatchedCqmAnnealParams params_;
};

/// R lockstep QUBO replicas sharing one model: packed spin bits plus an SoA
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
