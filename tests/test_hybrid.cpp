#include <gtest/gtest.h>
#include "util/error.hpp"

#include <cstdint>
#include <cstring>

#include "anneal/hybrid.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/kselect.hpp"
#include "lrp/problem.hpp"
#include "util/rng.hpp"
#include "workloads/scenarios.hpp"

namespace qulrb::anneal {
namespace {

using model::CqmModel;
using model::LinearExpr;
using model::Sense;
using model::State;
using model::VarId;

/// min (sum x - 3)^2 subject to sum x <= 4 over 8 variables.
CqmModel target_three() {
  CqmModel m;
  for (int i = 0; i < 8; ++i) m.add_variable();
  LinearExpr g(-3.0);
  for (VarId v = 0; v < 8; ++v) g.add_term(v, 1.0);
  m.add_squared_group(std::move(g), 1.0);
  LinearExpr cap;
  for (VarId v = 0; v < 8; ++v) cap.add_term(v, 1.0);
  m.add_constraint(std::move(cap), Sense::LE, 4.0);
  return m;
}

HybridSolverParams fast_params() {
  HybridSolverParams p;
  p.num_restarts = 2;
  p.sweeps = 200;
  p.max_penalty_rounds = 2;
  p.seed = 9;
  return p;
}

TEST(Hybrid, SolvesToyToOptimum) {
  const CqmModel m = target_three();
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_DOUBLE_EQ(r.best.energy, 0.0);
  EXPECT_EQ(r.stats.num_variables, 8u);
  EXPECT_EQ(r.stats.num_constraints, 1u);
}

TEST(Hybrid, StatsArepopulated) {
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(target_three());
  EXPECT_GT(r.stats.cpu_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.stats.simulated_qpu_ms, 32.0);
  EXPECT_GE(r.stats.restarts_used, 1u);
  EXPECT_GE(r.samples.size(), 1u);
}

TEST(Hybrid, PresolveInfeasibleShortCircuits) {
  CqmModel m;
  m.add_variable();
  LinearExpr lhs;
  lhs.add_term(0, 1.0);
  m.add_constraint(std::move(lhs), Sense::GE, 2.0);  // impossible
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_TRUE(r.stats.presolve_infeasible);
  EXPECT_FALSE(r.best.feasible);
}

TEST(Hybrid, EqualityConstraintSatisfied) {
  CqmModel m;
  for (int i = 0; i < 6; ++i) m.add_variable();
  for (VarId v = 0; v < 6; ++v) m.add_objective_linear(v, -1.0);  // wants all on
  LinearExpr sum;
  for (VarId v = 0; v < 6; ++v) sum.add_term(v, 1.0);
  m.add_constraint(std::move(sum), Sense::EQ, 2.0);  // but only 2 allowed
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_DOUBLE_EQ(r.best.energy, -2.0);
}

TEST(Hybrid, DeterministicForSeed) {
  const CqmModel m = target_three();
  const auto a = HybridCqmSolver(fast_params()).solve(m);
  const auto b = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_EQ(a.best.state, b.best.state);
  EXPECT_EQ(a.best.energy, b.best.energy);
}

TEST(Hybrid, InitialHintIsHonored) {
  // A flat objective with a tight equality: the hint is already optimal, so
  // the refinement restart must return (at least) a solution this good.
  CqmModel m;
  for (int i = 0; i < 10; ++i) m.add_variable();
  LinearExpr sum;
  for (VarId v = 0; v < 10; ++v) sum.add_term(v, 1.0);
  m.add_constraint(std::move(sum), Sense::EQ, 5.0);
  HybridSolverParams p = fast_params();
  p.initial_hint = State{1, 1, 1, 1, 1, 0, 0, 0, 0, 0};
  const HybridSolveResult r = HybridCqmSolver(p).solve(m);
  EXPECT_TRUE(r.best.feasible);
}

TEST(Hybrid, GreedyDescentReachesLocalMinimum) {
  CqmModel m;
  for (int i = 0; i < 5; ++i) m.add_variable();
  for (VarId v = 0; v < 5; ++v) m.add_objective_linear(v, -1.0);
  util::Rng rng(4);
  CqmIncrementalState walk(m, State(5, 0), {});
  HybridCqmSolver::greedy_descent(walk, rng);
  EXPECT_DOUBLE_EQ(walk.objective(), -5.0);  // all bits turned on
}

TEST(Hybrid, ThreadedRestartsMatchSequentialQuality) {
  const CqmModel m = target_three();
  HybridSolverParams p = fast_params();
  p.threads = 4;
  p.num_restarts = 4;
  const HybridSolveResult r = HybridCqmSolver(p).solve(m);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_DOUBLE_EQ(r.best.energy, 0.0);
}

// Threads reach the tempering ladder too (the slots the other portfolio
// units leave free), and every unit builds banks over the shared model. Each
// solve gets a freshly built Q_CQM1 model whose lazily built incidence has
// never been read, so the concurrent bank constructors would race on its
// first build unless the solver builds it before fanning out.
TEST(Hybrid, ThreadCountInvariantWithTempering) {
  const lrp::LrpProblem problem({30.0, 9.0, 8.0, 4.0, 3.0, 2.0},
                                {12, 12, 12, 12, 12, 12});
  HybridSolverParams p;
  p.num_restarts = 3;
  p.sweeps = 120;
  p.max_penalty_rounds = 2;
  p.use_tempering = true;
  p.tempering_replicas = 6;
  p.exhaustive_max_vars = 0;  // force the sampling portfolio
  p.seed = 13;
  auto solve_fresh = [&](std::size_t threads) {
    const lrp::LrpCqm built =
        lrp::build_lrp_cqm(problem, lrp::CqmVariant::kReduced, 8, {});
    HybridSolverParams params = p;
    params.threads = threads;
    return HybridCqmSolver(params).solve(built.cqm());
  };
  const HybridSolveResult one = solve_fresh(1);
  const HybridSolveResult four = solve_fresh(4);
  ASSERT_EQ(one.samples.size(), 3u);
  ASSERT_EQ(four.samples.size(), one.samples.size());
  for (std::size_t i = 0; i < one.samples.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(four.samples.at(i).state, one.samples.at(i).state);
    EXPECT_EQ(four.samples.at(i).energy, one.samples.at(i).energy);
    EXPECT_EQ(four.samples.at(i).violation, one.samples.at(i).violation);
    EXPECT_EQ(four.samples.at(i).feasible, one.samples.at(i).feasible);
  }
  EXPECT_EQ(four.best.state, one.best.state);
  EXPECT_EQ(four.stats.penalty_rounds_used, one.stats.penalty_rounds_used);
}

TEST(Hybrid, ZeroVariableModel) {
  CqmModel m;
  m.add_objective_offset(5.0);
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_DOUBLE_EQ(r.best.energy, 5.0);
}

TEST(Hybrid, RefinementSkippedWhenZerosInfeasible) {
  // All-zeros violates the GE constraint; the solver must still find the
  // optimum via penalty annealing.
  CqmModel m;
  for (int i = 0; i < 6; ++i) m.add_variable();
  for (VarId v = 0; v < 6; ++v) m.add_objective_linear(v, 1.0);
  LinearExpr sum;
  for (VarId v = 0; v < 6; ++v) sum.add_term(v, 1.0);
  m.add_constraint(std::move(sum), Sense::GE, 2.0);
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_DOUBLE_EQ(r.best.energy, 2.0);
}

/// FNV-1a over every sample, in order: its state bytes and the bit patterns
/// of its energy and violation, then its feasibility flag.
std::uint64_t sample_set_hash(const SampleSet& samples) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
  };
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples.at(i);
    mix(s.state.data(), s.state.size());
    std::uint64_t bits;
    std::memcpy(&bits, &s.energy, sizeof(bits));
    mix(&bits, sizeof(bits));
    std::memcpy(&bits, &s.violation, sizeof(bits));
    mix(&bits, sizeof(bits));
    const unsigned char feasible = s.feasible ? 1 : 0;
    mix(&feasible, 1);
  }
  return h;
}

// The other tests compare one walk against another (threads, bank lanes,
// scalar state), so a drift that moves every walk at once passes them. These
// constants pin the portfolio's output bits: the refinement lane (Q_CQM1),
// random lanes, the tempered restart, penalty escalation (Q_CQM2) and polish.
TEST(Hybrid, PinnedSampleSetBits) {
  const auto scenario = workloads::scenarios::node_scaling(8);
  const std::int64_t k1 = lrp::select_k(scenario.problem).k1;
  struct Case {
    lrp::CqmVariant variant;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {lrp::CqmVariant::kReduced, 0xf28e5b2be58d5f96ull},
      {lrp::CqmVariant::kFull, 0xef936dd9b12469acull},
  };
  for (const Case& c : cases) {
    const lrp::LrpCqm built = lrp::build_lrp_cqm(scenario.problem, c.variant, k1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(lrp::to_string(c.variant)) + " threads=" +
                   std::to_string(threads));
      HybridSolverParams p;
      p.num_restarts = 3;
      p.sweeps = 200;
      p.use_tempering = true;
      p.use_refinement_start = true;
      p.seed = 2024;
      p.threads = threads;
      const HybridSolveResult r = HybridCqmSolver(p).solve(built.cqm());
      ASSERT_EQ(r.samples.size(), 3u);
      EXPECT_EQ(sample_set_hash(r.samples), c.hash)
          << std::hex << "0x" << sample_set_hash(r.samples);
    }
  }
}

}  // namespace
}  // namespace qulrb::anneal
