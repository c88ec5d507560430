#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "anneal/cqm_anneal.hpp"
#include "anneal/delta_cache.hpp"
#include "anneal/hybrid.hpp"
#include "anneal/replica_bank.hpp"
#include "anneal/sa.hpp"
#include "anneal/sampleset.hpp"
#include "anneal/simd.hpp"
#include "anneal/tempering.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/problem.hpp"
#include "model/cqm.hpp"
#include "model/qubo.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {
namespace {

// Every equality in this file is bitwise: the replica bank's contract is that
// each lane reproduces the scalar walk *exactly*, so doubles are compared
// with EXPECT_EQ (IEEE equality on identical bit patterns), never near().

// RAII guard: force a SIMD dispatch level for one scope, restore on exit.
class SimdLevelGuard {
 public:
  explicit SimdLevelGuard(simd::Level level) : saved_(simd::active_level()) {
    simd::set_active_level(level);
  }
  ~SimdLevelGuard() { simd::set_active_level(saved_); }
  SimdLevelGuard(const SimdLevelGuard&) = delete;
  SimdLevelGuard& operator=(const SimdLevelGuard&) = delete;

 private:
  simd::Level saved_;
};

bool avx2_available() {
  return simd::detected_level() == simd::Level::kAvx2;
}

// Small but structurally complete LRP instance: skewed loads, unequal task
// counts, tight migration bound — exercises squared groups, inequality and
// (for kFull) equality constraints, and non-trivial pair-move classes.
lrp::LrpProblem skewed_problem() {
  return lrp::LrpProblem({30.0, 9.0, 8.0, 4.0, 3.0, 2.0},
                         {12, 12, 12, 12, 12, 12});
}

model::CqmModel build_cqm(lrp::CqmVariant variant) {
  return lrp::build_lrp_cqm(skewed_problem(), variant, 8, {}).cqm();
}

model::State random_state(std::size_t n, util::Rng& rng) {
  model::State s(n);
  for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_below(2));
  return s;
}

void expect_sample_eq(const Sample& a, const Sample& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.feasible, b.feasible);
}

// ------------------------------------------------------- QUBO replica bank --

model::QuboModel random_qubo(std::size_t n, std::uint64_t seed) {
  model::QuboModel qubo(n);
  util::Rng gen(seed);
  for (std::size_t i = 0; i < n; ++i) {
    qubo.add_linear(static_cast<model::VarId>(i), gen.next_double() * 4.0 - 2.0);
    for (int t = 0; t < 4; ++t) {
      const auto j = static_cast<model::VarId>(gen.next_below(n));
      if (j == static_cast<model::VarId>(i)) continue;
      qubo.add_quadratic(static_cast<model::VarId>(i), j,
                         gen.next_double() * 2.0 - 1.0);
    }
  }
  qubo.add_offset(0.5);
  return qubo;
}

void check_qubo_bank(simd::Level level) {
  const model::QuboModel qubo = random_qubo(90, 5);
  constexpr std::size_t kLanes = 6;
  util::Rng setup(21);
  std::vector<model::State> starts;
  for (std::size_t r = 0; r < kLanes; ++r) starts.push_back(random_state(90, setup));

  SimdLevelGuard guard(level);
  QuboReplicaBank bank(qubo, starts);
  std::vector<model::State> ref_states = starts;
  std::vector<QuboDeltaCache> ref;
  for (std::size_t r = 0; r < kLanes; ++r) ref.emplace_back(qubo, ref_states[r]);

  util::Rng ops(17);
  for (std::size_t step = 0; step < 800; ++step) {
    const std::size_t r = ops.next_below(kLanes);
    const auto v = static_cast<model::VarId>(ops.next_below(90));
    ASSERT_EQ(bank.energy(r), ref[r].energy());
    ASSERT_EQ(bank.delta(r, v), ref[r].delta(v));
    ASSERT_EQ(bank.state_bit(r, v), ref_states[r][v] != 0);
    bank.apply_flip(r, v);
    ref[r].apply_flip(ref_states[r], v);
  }
  for (std::size_t r = 0; r < kLanes; ++r) {
    EXPECT_EQ(bank.extract_state(r), ref_states[r]);
    EXPECT_EQ(bank.energy(r), ref[r].energy());
  }
}

TEST(ReplicaBank, QuboLanesMatchDeltaCacheScalar) {
  check_qubo_bank(simd::Level::kScalar);
}

TEST(ReplicaBank, QuboLanesMatchDeltaCacheSimd) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available in this build";
  check_qubo_bank(simd::Level::kAvx2);
}

// --------------------------------------------------------- tempering swaps --

// Reference replica exchange with configuration swaps: walkers are scalar
// CqmIncrementalState instances and an exchange physically swaps the walker
// objects between ladder positions. The production ParallelTempering keeps
// configurations in bank lanes and swaps a lane permutation instead — the
// two must be indistinguishable draw for draw and bit for bit.
Sample reference_tempering(const model::CqmModel& cqm,
                           const std::vector<double>& penalties,
                           const TemperingParams& params,
                           const PairMoveIndex& pairs) {
  const std::size_t n = cqm.num_variables();
  util::Rng master(params.seed);
  std::vector<util::Rng> rngs;
  for (std::size_t r = 0; r < params.num_replicas; ++r) rngs.push_back(master.split());

  std::vector<CqmIncrementalState> walkers;
  for (std::size_t r = 0; r < params.num_replicas; ++r) {
    model::State start(n);
    for (auto& b : start) b = static_cast<std::uint8_t>(rngs[r].next_below(2));
    walkers.emplace_back(cqm, std::move(start), penalties);
  }

  double beta_hot = params.beta_hot;
  double beta_cold = params.beta_cold;
  if (beta_hot <= 0.0 || beta_cold <= 0.0) {
    double max_abs = 1e-9;
    const std::size_t probes = std::min<std::size_t>(n, 256);
    for (std::size_t p = 0; p < probes; ++p) {
      const auto v = static_cast<model::VarId>(rngs[0].next_below(n));
      max_abs = std::max(max_abs, std::abs(walkers[0].flip_delta(v)));
    }
    beta_hot = std::log(2.0) / max_abs;
    beta_cold = 1e4 / max_abs;
  }
  std::vector<double> betas(params.num_replicas);
  for (std::size_t r = 0; r < params.num_replicas; ++r) {
    const double t = static_cast<double>(r) /
                     static_cast<double>(params.num_replicas - 1);
    betas[r] = beta_hot * std::pow(beta_cold / beta_hot, t);
  }

  auto snapshot = [](const CqmIncrementalState& w) {
    return Sample{w.state(), w.objective(), w.total_violation(), w.feasible()};
  };
  Sample best = snapshot(walkers.back());

  for (std::size_t sweep = 0; sweep < params.sweeps; ++sweep) {
    for (std::size_t r = 0; r < walkers.size(); ++r) {
      auto& walk = walkers[r];
      auto& rng = rngs[r];
      const double beta = betas[r];
      for (std::size_t step = 0; step < n; ++step) {
        if (!pairs.empty() && rng.next_bool(0.5)) {
          pairs.attempt(walk, rng, beta);
          continue;
        }
        const auto v = static_cast<model::VarId>(rng.next_below(n));
        const double delta = walk.flip_delta(v);
        if (delta <= 0.0 || rng.next_double() < std::exp(-beta * delta)) {
          walk.apply_flip(v);
        }
      }
      Sample current{{}, walk.objective(), walk.total_violation(), walk.feasible()};
      if (current.better_than(best)) {
        current.state = walk.state();
        best = std::move(current);
      }
    }
    if ((sweep + 1) % params.swap_interval == 0) {
      for (std::size_t r = 0; r + 1 < walkers.size(); ++r) {
        const double ea = walkers[r].total_energy();
        const double eb = walkers[r + 1].total_energy();
        const double log_accept = (betas[r] - betas[r + 1]) * (ea - eb);
        if (log_accept >= 0.0 || rngs[0].next_double() < std::exp(log_accept)) {
          std::swap(walkers[r], walkers[r + 1]);
        }
      }
    }
  }
  return best;
}

// The ladder runs its slots in parallel between exchanges; the output must
// stay the sequential reference's for every thread count, including a sweep
// count that leaves a partial last block (33 sweeps, interval 5).
TEST(ReplicaBank, TemperingPermutationSwapMatchesConfigurationSwap) {
  for (const auto variant : {lrp::CqmVariant::kReduced, lrp::CqmVariant::kFull}) {
    const model::CqmModel cqm = build_cqm(variant);
    const PairMoveIndex pairs = PairMoveIndex::build(cqm);
    const std::vector<double> penalties(cqm.num_constraints(), 2.0);
    for (const std::size_t sweeps : {30u, 33u}) {
      TemperingParams params;
      params.num_replicas = 4;
      params.sweeps = sweeps;
      params.swap_interval = 5;
      params.seed = 31;
      const Sample expected = reference_tempering(cqm, penalties, params, pairs);
      for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
        params.threads = threads;
        const Sample got = ParallelTempering(params).run(cqm, penalties, {}, &pairs);
        SCOPED_TRACE(std::string(variant == lrp::CqmVariant::kReduced ? "Q_CQM1"
                                                                       : "Q_CQM2") +
                     " sweeps " + std::to_string(sweeps) + " threads " +
                     std::to_string(threads));
        expect_sample_eq(got, expected);
      }
    }
  }
}

// Flat objective: every feasible state (at most two of twelve bits set) has
// energy 0 and violation 0, and a random start violates, so many slots reach
// the tied optimum within the same blocks. The block merge must keep the
// first one in (sweep, slot) order, as the sequential reference scan does.
TEST(ReplicaBank, TemperingTiesResolveToTheSequentialScansSample) {
  model::CqmModel cqm;
  constexpr model::VarId kVars = 12;
  for (model::VarId v = 0; v < kVars; ++v) cqm.add_variable();
  model::LinearExpr cap;
  for (model::VarId v = 0; v < kVars; ++v) cap.add_term(v, 1.0);
  cqm.add_constraint(std::move(cap), model::Sense::LE, 2.0);
  const PairMoveIndex pairs = PairMoveIndex::build(cqm);
  const std::vector<double> penalties(cqm.num_constraints(), 1.0);
  for (const std::uint64_t seed : {3u, 4u, 5u, 6u}) {
    TemperingParams params;
    params.num_replicas = 6;
    params.sweeps = 40;
    params.swap_interval = 4;
    params.seed = seed;
    const Sample expected = reference_tempering(cqm, penalties, params, pairs);
    ASSERT_TRUE(expected.feasible);
    EXPECT_EQ(expected.energy, 0.0);
    for (const std::size_t threads : {1u, 3u, 6u}) {
      params.threads = threads;
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      expect_sample_eq(ParallelTempering(params).run(cqm, penalties, {}, &pairs),
                       expected);
    }
  }
}

TEST(ReplicaBank, TemperingDeterministicAndCountsLaneSweeps) {
  const model::CqmModel cqm = build_cqm(lrp::CqmVariant::kReduced);
  const PairMoveIndex pairs = PairMoveIndex::build(cqm);
  const std::vector<double> penalties(cqm.num_constraints(), 2.0);

  obs::MetricsRegistry reg;
  TemperingParams params;
  params.num_replicas = 4;
  params.sweeps = 20;
  params.swap_interval = 5;
  params.seed = 77;
  params.sweep_counter = &reg.counter("rounds");
  params.replica_sweep_counter = &reg.counter("lane_sweeps");

  const Sample a = ParallelTempering(params).run(cqm, penalties, {}, &pairs);
  EXPECT_EQ(reg.counter("rounds").value(), 20u);
  EXPECT_EQ(reg.counter("lane_sweeps").value(), 20u * 4u);

  const Sample b = ParallelTempering(params).run(cqm, penalties, {}, &pairs);
  expect_sample_eq(a, b);

  params.threads = 4;
  const Sample c = ParallelTempering(params).run(cqm, penalties, {}, &pairs);
  EXPECT_EQ(reg.counter("rounds").value(), 3u * 20u);
  EXPECT_EQ(reg.counter("lane_sweeps").value(), 3u * 20u * 4u);
  expect_sample_eq(a, c);
}

// ---------------------------------------------------------------------- SA --

// SimulatedAnnealer::sample's bank-batched multi-read path must emit exactly
// the sample set the legacy per-read scalar loop produced: one pre-split
// stream per read, each read bitwise equal to anneal_once on that stream.
TEST(ReplicaBank, SaBatchedReadsMatchScalarReads) {
  const model::QuboModel qubo = random_qubo(120, 7);
  SaParams params;
  params.sweeps = 40;
  params.num_reads = 6;
  params.seed = 17;

  const SimulatedAnnealer annealer(params);
  const SampleSet got = annealer.sample(qubo);
  ASSERT_EQ(got.size(), params.num_reads);

  util::Rng master(params.seed);
  for (std::size_t read = 0; read < params.num_reads; ++read) {
    SCOPED_TRACE("read " + std::to_string(read));
    util::Rng rng = master.split();
    const Sample expected = annealer.anneal_once(qubo, rng);
    expect_sample_eq(got.at(read), expected);
  }
}

// --------------------------------------------------- solver + observability -

anneal::HybridSolverParams solver_params(std::size_t lanes) {
  anneal::HybridSolverParams params;
  params.num_restarts = 4;
  params.sweeps = 60;
  params.seed = 42;
  params.threads = 1;
  params.exhaustive_max_vars = 0;  // force the sampling portfolio
  params.replica_lanes = lanes;
  return params;
}

// The solver contract the whole PR hangs on: the banked portfolio produces
// the same bytes at any bank width (width 1 degenerates to one restart per
// bank), and reports the width it ran with.
TEST(ReplicaBank, HybridSolverOutputInvariantAcrossBankWidth) {
  const model::CqmModel cqm = build_cqm(lrp::CqmVariant::kReduced);
  const auto wide = HybridCqmSolver(solver_params(8)).solve(cqm);
  const auto narrow = HybridCqmSolver(solver_params(1)).solve(cqm);

  EXPECT_EQ(wide.stats.replica_lanes, 8u);
  EXPECT_EQ(narrow.stats.replica_lanes, 1u);
  expect_sample_eq(wide.best, narrow.best);
  ASSERT_EQ(wide.samples.size(), narrow.samples.size());
  for (std::size_t i = 0; i < wide.samples.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    expect_sample_eq(wide.samples.at(i), narrow.samples.at(i));
  }
}

TEST(ReplicaBank, HybridSolverCountsReplicaSweeps) {
  const model::CqmModel cqm = build_cqm(lrp::CqmVariant::kReduced);
  obs::MetricsRegistry reg;
  auto params = solver_params(8);
  params.metrics = &reg;
  const auto result = HybridCqmSolver(params).solve(cqm);
  EXPECT_TRUE(result.best.feasible);
  EXPECT_EQ(result.stats.replica_lanes, 8u);
  // Every lane-sweep the bank executes lands in the counter; the portfolio
  // runs num_restarts chains of `sweeps` sweeps at minimum (penalty rounds
  // and tempering only add to it).
  EXPECT_GE(reg.counter("qulrb_solver_replica_sweeps").value(),
            params.num_restarts * params.sweeps);
}

TEST(ReplicaBank, SolveEventSerializesReplicasFieldWhenKnown) {
  obs::SolveEvent event;
  event.source = "test";
  EXPECT_EQ(obs::to_json_line(event).find("replicas"), std::string::npos);
  event.replicas = 8;
  EXPECT_NE(obs::to_json_line(event).find("\"replicas\":8"), std::string::npos);
}

}  // namespace
}  // namespace qulrb::anneal
