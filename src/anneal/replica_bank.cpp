#include "anneal/replica_bank.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "util/error.hpp"

namespace qulrb::anneal {

using model::CqmModel;
using model::Sense;
using model::VarId;

namespace detail {

// ---------------------------------------------------------------------------
// Scalar kernels. These are the reference implementations the AVX2 twins are
// proven against: each one replicates the corresponding single-chain code
// (CqmIncrementalState ctor / flip_delta_parts, QuboDeltaCache ctor, the tabu
// candidate scan) per lane, operation for operation.
// ---------------------------------------------------------------------------

void cqm_construct_lanes_scalar(const CqmBankView& bank) noexcept {
  const CqmModel& cqm = *bank.cqm;
  const auto groups = cqm.squared_groups();
  const auto constraints = cqm.constraints();
  const std::size_t stride = bank.stride;
  const auto bit = [&](std::size_t lane, VarId v) -> bool {
    return (bank.bits[v * bank.words_per_var + (lane >> 6)] >> (lane & 63u)) & 1u;
  };
  // Pad lanes (all-zero bits, zero penalty weights) are evaluated like real
  // lanes; their values are well-defined and never read.
  for (std::size_t l = 0; l < stride; ++l) {
    double objective = cqm.objective_offset();
    for (VarId v = 0; v < bank.num_vars; ++v) {
      if (bit(l, v)) objective += bank.linear[v];
    }
    for (const auto& q : cqm.objective_quadratic()) {
      if (bit(l, q.i) && bit(l, q.j)) objective += q.coeff;
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
      double gv = groups[g].expr.constant();
      for (const auto& t : groups[g].expr.terms()) {
        if (bit(l, t.var)) gv += t.coeff;
      }
      bank.group_values[g * stride + l] = gv;
      objective += groups[g].weight * gv * gv;
    }
    bank.objective[l] = objective;

    double penalty = 0.0;
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      double act = constraints[c].lhs.constant();
      for (const auto& t : constraints[c].lhs.terms()) {
        if (bit(l, t.var)) act += t.coeff;
      }
      bank.activities[c * stride + l] = act;
      penalty += bank.penalty_weights[c * stride + l] *
                 violation_branchless(bank.sense[c], act, bank.rhs[c]);
    }
    bank.penalty[l] = penalty;
  }
}

void cqm_batched_flip_delta_scalar(const CqmBankView& bank, VarId v,
                                   CqmIncrementalState::FlipDelta* out) noexcept {
  const std::size_t stride = bank.stride;
  const auto quad_row = (*bank.quad_inc)[v];
  const auto kernel_row = (*bank.group_kernel)[v];
  const auto con_row = (*bank.con_inc)[v];
  const auto bit = [&](std::size_t lane, VarId var) -> bool {
    return (bank.bits[var * bank.words_per_var + (lane >> 6)] >> (lane & 63u)) & 1u;
  };
  for (std::size_t l = 0; l < bank.num_lanes; ++l) {
    const double sign = bit(l, v) ? -1.0 : 1.0;
    double obj = sign * bank.linear[v];
    for (const auto& nb : quad_row) {
      obj = bit_select(bit(l, nb.other), obj + sign * nb.coeff, obj);
    }
    for (const auto& t : kernel_row) {
      obj += sign * t.alpha * bank.group_values[t.index * stride + l] + t.beta;
    }
    double pen = 0.0;
    for (const auto& inc : con_row) {
      const std::size_t c = inc.index;
      const double act = bank.activities[c * stride + l];
      const double w = bank.penalty_weights[c * stride + l];
      pen += w * violation_branchless(bank.sense[c], act + sign * inc.coeff,
                                      bank.rhs[c]) -
             w * violation_branchless(bank.sense[c], act, bank.rhs[c]);
    }
    out[l].objective = obj;
    out[l].penalty = pen;
  }
}

void cqm_batched_pair_delta_scalar(const CqmBankView& bank, VarId a, VarId b,
                                   CqmIncrementalState::FlipDelta* out) noexcept {
  const std::size_t stride = bank.stride;
  const auto bit = [&](std::size_t lane, VarId var) -> bool {
    return (bank.bits[var * bank.words_per_var + (lane >> 6)] >> (lane & 63u)) & 1u;
  };
  const auto quad_a = (*bank.quad_inc)[a];
  const auto quad_b = (*bank.quad_inc)[b];
  const auto group_a = (*bank.group_inc)[a];
  const auto group_b = (*bank.group_inc)[b];
  const auto con_a = (*bank.con_inc)[a];
  const auto con_b = (*bank.con_inc)[b];
  for (std::size_t l = 0; l < bank.num_lanes; ++l) {
    const bool bit_a = bit(l, a);
    const bool bit_b = bit(l, b);
    const double sign_a = bit_a ? -1.0 : 1.0;
    const double sign_b = bit_b ? -1.0 : 1.0;
    double obj = sign_a * bank.linear[a] + sign_b * bank.linear[b];

    for (const auto& nb : quad_a) {
      if (nb.other == b) {
        const double before = bit_a && bit_b ? 1.0 : 0.0;
        const double after = !bit_a && !bit_b ? 1.0 : 0.0;
        obj += nb.coeff * (after - before);
      } else {
        obj = bit_select(bit(l, nb.other), obj + sign_a * nb.coeff, obj);
      }
    }
    for (const auto& nb : quad_b) {
      if (nb.other != a) {
        obj = bit_select(bit(l, nb.other), obj + sign_b * nb.coeff, obj);
      }
    }

    {
      std::size_t ia = 0;
      std::size_t ib = 0;
      while (ia < group_a.size() || ib < group_b.size()) {
        std::uint32_t g;
        double d;
        if (ib == group_b.size() ||
            (ia < group_a.size() && group_a[ia].index < group_b[ib].index)) {
          g = group_a[ia].index;
          d = sign_a * group_a[ia].coeff;
          ++ia;
        } else if (ia == group_a.size() ||
                   group_b[ib].index < group_a[ia].index) {
          g = group_b[ib].index;
          d = sign_b * group_b[ib].coeff;
          ++ib;
        } else {
          g = group_a[ia].index;
          d = sign_a * group_a[ia].coeff + sign_b * group_b[ib].coeff;
          ++ia;
          ++ib;
        }
        const double gv = bank.group_values[g * stride + l];
        obj += bank.group_weights[g] * (2.0 * gv * d + d * d);
      }
    }

    double pen = 0.0;
    {
      std::size_t ia = 0;
      std::size_t ib = 0;
      while (ia < con_a.size() || ib < con_b.size()) {
        std::uint32_t c;
        double d;
        if (ib == con_b.size() ||
            (ia < con_a.size() && con_a[ia].index < con_b[ib].index)) {
          c = con_a[ia].index;
          d = sign_a * con_a[ia].coeff;
          ++ia;
        } else if (ia == con_a.size() || con_b[ib].index < con_a[ia].index) {
          c = con_b[ib].index;
          d = sign_b * con_b[ib].coeff;
          ++ib;
        } else {
          c = con_a[ia].index;
          d = sign_a * con_a[ia].coeff + sign_b * con_b[ib].coeff;
          ++ia;
          ++ib;
        }
        const double act = bank.activities[c * stride + l];
        const double w = bank.penalty_weights[c * stride + l];
        pen += w * violation_branchless(bank.sense[c], act + d, bank.rhs[c]) -
               w * violation_branchless(bank.sense[c], act, bank.rhs[c]);
      }
    }
    out[l].objective = obj;
    out[l].penalty = pen;
  }
}

void cqm_batched_apply_flip_scalar(const CqmBankView& bank, VarId v,
                                   const std::uint8_t* accept) noexcept {
  const std::size_t stride = bank.stride;
  const auto bit = [&](std::size_t lane, VarId var) -> bool {
    return (bank.bits[var * bank.words_per_var + (lane >> 6)] >> (lane & 63u)) & 1u;
  };
  const auto quad_row = (*bank.quad_inc)[v];
  const auto kernel_row = (*bank.group_kernel)[v];
  const auto con_row = (*bank.con_inc)[v];
  for (std::size_t l = 0; l < bank.num_lanes; ++l) {
    if (accept[l] == 0) continue;
    const double sign = bit(l, v) ? -1.0 : 1.0;
    double obj = bank.objective[l];
    obj += sign * bank.linear[v];
    for (const auto& nb : quad_row) {
      obj = bit_select(bit(l, nb.other), obj + sign * nb.coeff, obj);
    }
    for (const auto& t : kernel_row) {
      double& gv = bank.group_values[t.index * stride + l];
      obj += sign * t.alpha * gv + t.beta;
      gv += sign * t.coeff;
    }
    bank.objective[l] = obj;

    double pen = bank.penalty[l];
    for (const auto& inc : con_row) {
      const std::size_t c = inc.index;
      double& act = bank.activities[c * stride + l];
      const double w = bank.penalty_weights[c * stride + l];
      const double nact = act + sign * inc.coeff;
      pen += w * violation_branchless(bank.sense[c], nact, bank.rhs[c]) -
             w * violation_branchless(bank.sense[c], act, bank.rhs[c]);
      act = nact;
    }
    bank.penalty[l] = pen;

    bank.bits[v * bank.words_per_var + (l >> 6)] ^= std::uint64_t{1} << (l & 63u);
  }
}

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

std::size_t tabu_argmin_scalar(const double* deltas, const std::size_t* tabu_until,
                               std::size_t n, std::size_t iteration, double energy,
                               double best_energy) noexcept {
  std::size_t chosen = n;
  double chosen_delta = std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < n; ++v) {
    const bool tabu = tabu_until[v] >= iteration;
    const bool aspirates = energy + deltas[v] < best_energy - 1e-12;
    if (tabu && !aspirates) continue;
    if (deltas[v] < chosen_delta) {
      chosen_delta = deltas[v];
      chosen = v;
    }
  }
  return chosen;
}

}  // namespace detail

std::size_t tabu_argmin(std::span<const double> deltas,
                        std::span<const std::size_t> tabu_until,
                        std::size_t iteration, double energy,
                        double best_energy) noexcept {
#if QULRB_HAVE_AVX2
  if (simd::active_level() == simd::Level::kAvx2) {
    return detail::tabu_argmin_avx2(deltas.data(), tabu_until.data(),
                                    deltas.size(), iteration, energy,
                                    best_energy);
  }
#endif
  return detail::tabu_argmin_scalar(deltas.data(), tabu_until.data(),
                                    deltas.size(), iteration, energy,
                                    best_energy);
}

// ---------------------------------------------------------------------------
// CqmReplicaBank
// ---------------------------------------------------------------------------

CqmReplicaBank::CqmReplicaBank(const CqmModel& cqm,
                               std::span<const model::State> initial,
                               std::span<const std::vector<double>> penalties)
    : cqm_(&cqm),
      num_lanes_(initial.size()),
      stride_((initial.size() + 3) & ~std::size_t{3}),
      num_vars_(cqm.num_variables()),
      words_per_var_((((initial.size() + 3) & ~std::size_t{3}) + 63) / 64) {
  util::require(num_lanes_ >= 1, "CqmReplicaBank: need at least one lane");
  util::require(penalties.size() == num_lanes_,
                "CqmReplicaBank: one penalty vector per lane");

  group_kernel_ = &cqm.group_kernel();
  group_inc_ = &cqm.group_incidence();
  con_inc_ = &cqm.constraint_incidence();
  quad_inc_ = &cqm.quadratic_incidence();
  linear_ = cqm.objective_linear();
  group_weights_ = cqm.group_weight_flat();

  bits_.assign(num_vars_ * words_per_var_, 0);
  for (std::size_t l = 0; l < num_lanes_; ++l) {
    util::require(initial[l].size() == num_vars_,
                  "CqmReplicaBank: state size mismatch");
    for (VarId v = 0; v < num_vars_; ++v) {
      if (initial[l][v]) {
        bits_[v * words_per_var_ + (l >> 6)] |= std::uint64_t{1} << (l & 63u);
      }
    }
  }

  const auto constraints = cqm.constraints();
  const auto groups = cqm.squared_groups();
  obj_.assign(stride_, 0.0);
  pen_.assign(stride_, 0.0);
  group_vals_.assign(groups.size() * stride_, 0.0);
  acts_.assign(constraints.size() * stride_, 0.0);
  pen_w_.assign(constraints.size() * stride_, 0.0);
  rhs_.resize(constraints.size());
  sense_.resize(constraints.size());
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    rhs_[c] = constraints[c].rhs;
    sense_[c] = constraints[c].sense;
  }
  for (std::size_t l = 0; l < num_lanes_; ++l) {
    util::require(penalties[l].size() == constraints.size(),
                  "CqmReplicaBank: penalty count mismatch");
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      pen_w_[c * stride_ + l] = penalties[l][c];
    }
  }

  const detail::CqmBankView v = view();
#if QULRB_HAVE_AVX2
  if (simd::active_level() == simd::Level::kAvx2) {
    detail::cqm_construct_lanes_avx2(v);
    return;
  }
#endif
  detail::cqm_construct_lanes_scalar(v);
}

detail::CqmBankView CqmReplicaBank::view() const noexcept {
  detail::CqmBankView v;
  v.cqm = cqm_;
  v.num_vars = num_vars_;
  v.num_lanes = num_lanes_;
  v.stride = stride_;
  v.words_per_var = words_per_var_;
  v.bits = const_cast<std::uint64_t*>(bits_.data());
  v.objective = const_cast<double*>(obj_.data());
  v.penalty = const_cast<double*>(pen_.data());
  v.group_values = const_cast<double*>(group_vals_.data());
  v.activities = const_cast<double*>(acts_.data());
  v.penalty_weights = pen_w_.data();
  v.rhs = rhs_.data();
  v.sense = sense_.data();
  v.linear = linear_.data();
  v.group_weights = group_weights_.data();
  v.group_kernel = group_kernel_;
  v.group_inc = group_inc_;
  v.quad_inc = quad_inc_;
  v.con_inc = con_inc_;
  return v;
}

double CqmReplicaBank::total_violation(std::size_t lane) const noexcept {
  double v = 0.0;
  for (std::size_t c = 0; c < rhs_.size(); ++c) {
    v += detail::violation_branchless(sense_[c], acts_[c * stride_ + lane],
                                      rhs_[c]);
  }
  return v;
}

bool CqmReplicaBank::feasible(std::size_t lane, double tol) const noexcept {
  for (std::size_t c = 0; c < rhs_.size(); ++c) {
    if (detail::violation_branchless(sense_[c], acts_[c * stride_ + lane],
                                     rhs_[c]) > tol) {
      return false;
    }
  }
  return true;
}

model::State CqmReplicaBank::extract_state(std::size_t lane) const {
  model::State s(num_vars_);
  for (VarId v = 0; v < num_vars_; ++v) {
    s[v] = state_bit(lane, v) ? 1u : 0u;
  }
  return s;
}

CqmReplicaBank::FlipDelta CqmReplicaBank::flip_delta_parts(
    std::size_t lane, VarId v) const noexcept {
  const double sign = state_bit(lane, v) ? -1.0 : 1.0;
  FlipDelta delta;
  double obj = sign * linear_[v];

  for (const auto& nb : (*quad_inc_)[v]) {
    obj = detail::bit_select(state_bit(lane, nb.other), obj + sign * nb.coeff, obj);
  }
  for (const auto& t : (*group_kernel_)[v]) {
    obj += sign * t.alpha * group_vals_[t.index * stride_ + lane] + t.beta;
  }

  double pen = 0.0;
  for (const auto& inc : (*con_inc_)[v]) {
    const std::size_t c = inc.index;
    const double act = acts_[c * stride_ + lane];
    pen += lane_penalty_of(c, lane, act + sign * inc.coeff) -
           lane_penalty_of(c, lane, act);
  }
  delta.objective = obj;
  delta.penalty = pen;
  return delta;
}

CqmReplicaBank::FlipDelta CqmReplicaBank::pair_delta_parts(
    std::size_t lane, VarId a, VarId b) const noexcept {
  const bool bit_a = state_bit(lane, a);
  const bool bit_b = state_bit(lane, b);
  const double sign_a = bit_a ? -1.0 : 1.0;
  const double sign_b = bit_b ? -1.0 : 1.0;
  FlipDelta delta;
  double obj = sign_a * linear_[a] + sign_b * linear_[b];

  for (const auto& nb : (*quad_inc_)[a]) {
    if (nb.other == b) {
      const double before = bit_a && bit_b ? 1.0 : 0.0;
      const double after = !bit_a && !bit_b ? 1.0 : 0.0;
      obj += nb.coeff * (after - before);
    } else if (state_bit(lane, nb.other)) {
      obj += sign_a * nb.coeff;
    }
  }
  for (const auto& nb : (*quad_inc_)[b]) {
    if (nb.other != a && state_bit(lane, nb.other)) obj += sign_b * nb.coeff;
  }

  {
    const auto row_a = (*group_inc_)[a];
    const auto row_b = (*group_inc_)[b];
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < row_a.size() || ib < row_b.size()) {
      std::uint32_t g;
      double d;
      if (ib == row_b.size() ||
          (ia < row_a.size() && row_a[ia].index < row_b[ib].index)) {
        g = row_a[ia].index;
        d = sign_a * row_a[ia].coeff;
        ++ia;
      } else if (ia == row_a.size() || row_b[ib].index < row_a[ia].index) {
        g = row_b[ib].index;
        d = sign_b * row_b[ib].coeff;
        ++ib;
      } else {
        g = row_a[ia].index;
        d = sign_a * row_a[ia].coeff + sign_b * row_b[ib].coeff;
        ++ia;
        ++ib;
      }
      const double gv = group_vals_[g * stride_ + lane];
      obj += group_weights_[g] * (2.0 * gv * d + d * d);
    }
  }

  double pen = 0.0;
  {
    const auto row_a = (*con_inc_)[a];
    const auto row_b = (*con_inc_)[b];
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < row_a.size() || ib < row_b.size()) {
      std::uint32_t c;
      double d;
      if (ib == row_b.size() ||
          (ia < row_a.size() && row_a[ia].index < row_b[ib].index)) {
        c = row_a[ia].index;
        d = sign_a * row_a[ia].coeff;
        ++ia;
      } else if (ia == row_a.size() || row_b[ib].index < row_a[ia].index) {
        c = row_b[ib].index;
        d = sign_b * row_b[ib].coeff;
        ++ib;
      } else {
        c = row_a[ia].index;
        d = sign_a * row_a[ia].coeff + sign_b * row_b[ib].coeff;
        ++ia;
        ++ib;
      }
      const double act = acts_[c * stride_ + lane];
      pen += lane_penalty_of(c, lane, act + d) - lane_penalty_of(c, lane, act);
    }
  }
  delta.objective = obj;
  delta.penalty = pen;
  return delta;
}

void CqmReplicaBank::apply_flip(std::size_t lane, VarId v) noexcept {
  const double sign = state_bit(lane, v) ? -1.0 : 1.0;
  double obj = obj_[lane];
  obj += sign * linear_[v];

  for (const auto& nb : (*quad_inc_)[v]) {
    obj = detail::bit_select(state_bit(lane, nb.other), obj + sign * nb.coeff, obj);
  }
  for (const auto& t : (*group_kernel_)[v]) {
    double& gv = group_vals_[t.index * stride_ + lane];
    obj += sign * t.alpha * gv + t.beta;
    gv += sign * t.coeff;
  }
  obj_[lane] = obj;

  double pen = pen_[lane];
  for (const auto& inc : (*con_inc_)[v]) {
    const std::size_t c = inc.index;
    double& act = acts_[c * stride_ + lane];
    const double nact = act + sign * inc.coeff;
    pen += lane_penalty_of(c, lane, nact) - lane_penalty_of(c, lane, act);
    act = nact;
  }
  pen_[lane] = pen;

  bits_[v * words_per_var_ + (lane >> 6)] ^= std::uint64_t{1} << (lane & 63u);
}

void CqmReplicaBank::set_penalties(std::size_t lane,
                                   std::span<const double> penalties) {
  util::require(penalties.size() == rhs_.size(),
                "CqmReplicaBank: penalty count mismatch");
  double pen = 0.0;
  for (std::size_t c = 0; c < rhs_.size(); ++c) {
    pen_w_[c * stride_ + lane] = penalties[c];
    pen += lane_penalty_of(c, lane, acts_[c * stride_ + lane]);
  }
  pen_[lane] = pen;
}

void CqmReplicaBank::batched_flip_delta(VarId v, FlipDelta* out) const noexcept {
  const detail::CqmBankView bv = view();
#if QULRB_HAVE_AVX2
  if (simd::active_level() == simd::Level::kAvx2) {
    detail::cqm_batched_flip_delta_avx2(bv, v, out);
    return;
  }
#endif
  detail::cqm_batched_flip_delta_scalar(bv, v, out);
}

void CqmReplicaBank::batched_pair_delta(VarId a, VarId b,
                                        FlipDelta* out) const noexcept {
  const detail::CqmBankView bv = view();
#if QULRB_HAVE_AVX2
  if (simd::active_level() == simd::Level::kAvx2) {
    detail::cqm_batched_pair_delta_avx2(bv, a, b, out);
    return;
  }
#endif
  detail::cqm_batched_pair_delta_scalar(bv, a, b, out);
}

void CqmReplicaBank::batched_apply_flip(VarId v,
                                        const std::uint8_t* accept) noexcept {
  const detail::CqmBankView bv = view();
#if QULRB_HAVE_AVX2
  if (simd::active_level() == simd::Level::kAvx2) {
    detail::cqm_batched_apply_flip_avx2(bv, v, accept);
    return;
  }
#endif
  detail::cqm_batched_apply_flip_scalar(bv, v, accept);
}

// ---------------------------------------------------------------------------
// BatchedCqmAnnealer
// ---------------------------------------------------------------------------

std::vector<Sample> BatchedCqmAnnealer::anneal_lanes(
    const CqmModel& cqm, std::span<const BatchedLaneSpec> lanes,
    const PairMoveIndex* pairs, util::Rng* proposal_rng) const {
  const std::size_t n = cqm.num_variables();
  const std::size_t L = lanes.size();
  if (L == 0) return {};
  obs::prof::PhaseScope lanes_phase("anneal-lanes");
  const double flight_start_us =
      params_.flight != nullptr ? params_.flight->now_us() : 0.0;

  // Per-lane start states, drawn (when absent) from the lane's own stream in
  // the same order the scalar annealer would: lane l's draws are untouched by
  // any other lane.
  std::vector<model::State> starts(L);
  std::vector<std::vector<double>> penalties(L);
  for (std::size_t l = 0; l < L; ++l) {
    util::require(lanes[l].rng != nullptr && lanes[l].penalties != nullptr,
                  "BatchedCqmAnnealer: lane needs rng and penalties");
    const model::State* init = lanes[l].initial;
    util::require(init == nullptr || init->empty() || init->size() == n,
                  "BatchedCqmAnnealer: initial state size mismatch");
    if (init == nullptr || init->empty()) {
      starts[l].resize(n);
      for (auto& b : starts[l]) {
        b = static_cast<std::uint8_t>(lanes[l].rng->next_below(2));
      }
    } else {
      starts[l] = *init;
    }
    penalties[l] = *lanes[l].penalties;
  }

  // Shared-proposal mode keeps every lane in one bank so each step runs
  // through the batched across-lane kernels. Per-lane mode walks each lane on
  // its own CqmIncrementalState: its moves differ from lane to lane, so
  // nothing is batched and the scalar walk is the cheaper single-lane step.
  std::optional<CqmReplicaBank> bank;
  std::vector<CqmIncrementalState> walks;
  if (proposal_rng != nullptr) {
    bank.emplace(cqm, starts, penalties);
  } else {
    walks.reserve(L);
    for (std::size_t l = 0; l < L; ++l) {
      walks.emplace_back(cqm, std::move(starts[l]), std::move(penalties[l]));
    }
  }
  starts.clear();
  starts.shrink_to_fit();

  // Lane l's current sample, its state left out until it is kept.
  auto lane_sample = [&](std::size_t l) {
    return bank ? Sample{{}, bank->objective(l), bank->total_violation(l),
                         bank->feasible(l)}
                : Sample{{}, walks[l].objective(), walks[l].total_violation(),
                         walks[l].feasible()};
  };
  auto lane_state = [&](std::size_t l) {
    return bank ? bank->extract_state(l) : walks[l].state();
  };

  std::vector<Sample> best(L);
  for (std::size_t l = 0; l < L; ++l) {
    best[l] = lane_sample(l);
    best[l].state = lane_state(l);
  }
  if (n == 0) return best;

  // Per-lane schedule. In per-lane mode the probe consumes each lane's RNG
  // exactly like the scalar annealer's probe does; in shared-proposal mode
  // the probe variables come from the proposal stream (one batched delta per
  // probe) and each lane keeps its own maxima.
  std::vector<BetaSchedule> schedules;
  schedules.reserve(L);
  if (params_.beta_hot && params_.beta_cold) {
    for (std::size_t l = 0; l < L; ++l) {
      schedules.emplace_back(*params_.beta_hot, *params_.beta_cold,
                             params_.sweeps, params_.schedule);
    }
  } else if (proposal_rng != nullptr) {
    std::vector<double> max_abs_total(L, 1e-9);
    std::vector<double> max_abs_obj(L, 1e-9);
    std::vector<CqmReplicaBank::FlipDelta> probe_deltas(L);
    const std::size_t probes = std::min<std::size_t>(n, 512);
    for (std::size_t p = 0; p < probes; ++p) {
      const auto v = static_cast<VarId>(proposal_rng->next_below(n));
      bank->batched_flip_delta(v, probe_deltas.data());
      for (std::size_t l = 0; l < L; ++l) {
        max_abs_total[l] =
            std::max(max_abs_total[l], std::abs(probe_deltas[l].total()));
        max_abs_obj[l] =
            std::max(max_abs_obj[l], std::abs(probe_deltas[l].objective));
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      if (lanes[l].refinement) {
        schedules.push_back(BetaSchedule::for_energy_scale(
            max_abs_obj[l] * 1e-7, max_abs_obj[l], params_.sweeps,
            params_.schedule));
      } else {
        schedules.push_back(BetaSchedule::for_energy_scale(
            max_abs_obj[l] * 1e-6, max_abs_total[l], params_.sweeps,
            params_.schedule));
      }
    }
  } else {
    for (std::size_t l = 0; l < L; ++l) {
      util::Rng& rng = *lanes[l].rng;
      double max_abs_total = 1e-9;
      double max_abs_obj = 1e-9;
      const std::size_t probes = std::min<std::size_t>(n, 512);
      for (std::size_t p = 0; p < probes; ++p) {
        const auto v = static_cast<VarId>(rng.next_below(n));
        const auto d = walks[l].flip_delta_parts(v);
        max_abs_total = std::max(max_abs_total, std::abs(d.total()));
        max_abs_obj = std::max(max_abs_obj, std::abs(d.objective));
      }
      if (lanes[l].refinement) {
        schedules.push_back(BetaSchedule::for_energy_scale(
            max_abs_obj * 1e-7, max_abs_obj, params_.sweeps, params_.schedule));
      } else {
        schedules.push_back(BetaSchedule::for_energy_scale(
            max_abs_obj * 1e-6, max_abs_total, params_.sweeps, params_.schedule));
      }
    }
  }

  std::vector<std::unique_ptr<obs::Recorder::Span>> spans;
  spans.reserve(L);
  for (std::size_t l = 0; l < L; ++l) {
    spans.push_back(std::make_unique<obs::Recorder::Span>(
        params_.recorder, lanes[l].refinement ? "refine" : "anneal", "sampler",
        lanes[l].trace_track));
  }
  const std::size_t sample_every = std::max<std::size_t>(1, params_.sweeps / 64);
  std::size_t sweeps_done = 0;

  const PairMoveIndex local_pairs =
      (pairs == nullptr && params_.pair_move_prob > 0.0) ? PairMoveIndex::build(cqm)
                                                         : PairMoveIndex{};
  const PairMoveIndex& pair_index = pairs != nullptr ? *pairs : local_pairs;
  const bool use_pairs = params_.pair_move_prob > 0.0 && !pair_index.empty();

  std::vector<double> betas(L);
  std::vector<std::uint8_t> improved(L);
  std::vector<CqmReplicaBank::FlipDelta> deltas(L);
  std::vector<std::uint8_t> accept(L);
  const std::size_t total_sweeps = schedules[0].sweeps();

  for (std::size_t sweep = 0; sweep < total_sweeps; ++sweep) {
    if (params_.cancel.expired()) break;
    for (std::size_t l = 0; l < L; ++l) {
      betas[l] = schedules[l].at(sweep);
      improved[l] = 0;
    }
    if (proposal_rng != nullptr) {
      // Shared-proposal lockstep: one move proposal per step drives every
      // lane through the batched across-lane kernels. Proposal draws are
      // state-independent, acceptance draws come from each lane's own stream,
      // so lane trajectories stay independent of R and bank composition.
      for (std::size_t step = 0; step < n; ++step) {
        if (use_pairs && proposal_rng->next_bool(params_.pair_move_prob)) {
          const auto members = pair_index.class_at(static_cast<std::size_t>(
              proposal_rng->next_below(pair_index.num_classes())));
          const VarId a = members[static_cast<std::size_t>(
              proposal_rng->next_below(members.size()))];
          const VarId b = members[static_cast<std::size_t>(
              proposal_rng->next_below(members.size()))];
          for (std::size_t l = 0; l < L; ++l) {
            if (lanes[l].trace != nullptr) ++lanes[l].trace->pair_attempts;
          }
          if (a == b) continue;
          bank->batched_pair_delta(a, b, deltas.data());
          bool any = false;
          for (std::size_t l = 0; l < L; ++l) {
            accept[l] = 0;
            // A pair move only exists on lanes whose bits differ; equal-bit
            // lanes veto without touching their acceptance stream.
            if (bank->state_bit(l, a) == bank->state_bit(l, b)) continue;
            const auto& d = deltas[l];
            if (lanes[l].refinement && d.penalty > 0.0) continue;
            const double criterion =
                lanes[l].refinement ? d.objective : d.total();
            if (criterion <= 0.0 ||
                lanes[l].rng->next_double() <
                    std::exp(-betas[l] * criterion)) {
              accept[l] = 1;
              any = true;
              improved[l] = 1;
              if (lanes[l].trace != nullptr) ++lanes[l].trace->pair_accepts;
            }
          }
          if (any) {
            bank->batched_apply_flip(a, accept.data());
            bank->batched_apply_flip(b, accept.data());
          }
          continue;
        }
        const auto v = static_cast<VarId>(proposal_rng->next_below(n));
        bank->batched_flip_delta(v, deltas.data());
        bool any = false;
        for (std::size_t l = 0; l < L; ++l) {
          accept[l] = 0;
          if (lanes[l].trace != nullptr) ++lanes[l].trace->flip_attempts;
          const auto& d = deltas[l];
          if (lanes[l].refinement && d.penalty > 0.0) continue;
          const double criterion = lanes[l].refinement ? d.objective : d.total();
          if (criterion <= 0.0 ||
              lanes[l].rng->next_double() < std::exp(-betas[l] * criterion)) {
            accept[l] = 1;
            any = true;
            improved[l] = 1;
            if (lanes[l].trace != nullptr) ++lanes[l].trace->flip_accepts;
          }
        }
        if (any) bank->batched_apply_flip(v, accept.data());
      }
    } else {
      // Every lane advances one step per iteration. Lanes carry independent
      // RNG/state, so interleaving them changes nothing bitwise but overlaps
      // their dependency chains and keeps the shared CSR rows hot.
      for (std::size_t step = 0; step < n; ++step) {
        for (std::size_t l = 0; l < L; ++l) {
          util::Rng& rng = *lanes[l].rng;
          AnnealTrace* trace = lanes[l].trace;
          CqmIncrementalState& walk = walks[l];
          if (use_pairs && rng.next_bool(params_.pair_move_prob)) {
            const bool accepted =
                pair_index.attempt(walk, rng, betas[l], lanes[l].refinement);
            improved[l] = accepted ? 1 : improved[l];
            if (trace != nullptr) {
              ++trace->pair_attempts;
              if (accepted) ++trace->pair_accepts;
            }
            continue;
          }
          const auto v = static_cast<VarId>(rng.next_below(n));
          if (trace != nullptr) ++trace->flip_attempts;
          const auto d = walk.flip_delta_parts(v);
          if (lanes[l].refinement && d.penalty > 0.0) continue;
          const double criterion = lanes[l].refinement ? d.objective : d.total();
          if (criterion <= 0.0 ||
              rng.next_double() < std::exp(-betas[l] * criterion)) {
            walk.apply_flip(v);
            improved[l] = 1;
            if (trace != nullptr) ++trace->flip_accepts;
          }
        }
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      if (improved[l]) {
        Sample current = lane_sample(l);
        if (current.better_than(best[l])) {
          current.state = lane_state(l);
          best[l] = std::move(current);
        }
      }
      if (lanes[l].trace != nullptr) {
        lanes[l].trace->best_energy_per_sweep.push_back(best[l].energy +
                                                        best[l].violation);
        lanes[l].trace->violation_per_sweep.push_back(lane_sample(l).violation);
      }
      if (params_.recorder != nullptr &&
          (sweep % sample_every == 0 || sweep + 1 == total_sweeps)) {
        params_.recorder->sample("incumbent_energy", lanes[l].trace_track,
                                 best[l].energy + best[l].violation);
        params_.recorder->sample("incumbent_violation", lanes[l].trace_track,
                                 best[l].violation);
      }
    }
    ++sweeps_done;
  }
  const std::size_t lane_sweeps = sweeps_done * L;
  if (params_.sweep_counter != nullptr && lane_sweeps > 0) {
    params_.sweep_counter->inc(lane_sweeps);
  }
  if (params_.replica_sweep_counter != nullptr && lane_sweeps > 0) {
    params_.replica_sweep_counter->inc(lane_sweeps);
  }
  if (params_.flight != nullptr) {
    const double end_us = params_.flight->now_us();
    params_.flight->record(params_.flight_name, obs::FlightKind::kSpan, 0,
                           params_.flight_rid, end_us,
                           end_us - flight_start_us,
                           static_cast<double>(lane_sweeps));
  }
  return best;
}

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
