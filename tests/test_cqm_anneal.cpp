#include <gtest/gtest.h>
#include "util/error.hpp"

#include "anneal/cqm_anneal.hpp"
#include "anneal/tempering.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {
namespace {

using model::CqmModel;
using model::LinearExpr;
using model::Sense;
using model::State;
using model::VarId;

/// Random CQM with linear + quadratic + squared-group objective and mixed
/// constraints, for cross-checking incremental evaluation.
CqmModel random_cqm(util::Rng& rng, std::size_t n) {
  CqmModel m;
  for (std::size_t i = 0; i < n; ++i) m.add_variable();
  for (VarId v = 0; v < n; ++v) m.add_objective_linear(v, rng.next_normal());
  for (VarId i = 0; i < n; ++i) {
    for (VarId j = i + 1; j < n; ++j) {
      if (rng.next_bool(0.3)) m.add_objective_quadratic(i, j, rng.next_normal());
    }
  }
  for (int g = 0; g < 3; ++g) {
    LinearExpr e(rng.next_normal());
    for (VarId v = 0; v < n; ++v) {
      if (rng.next_bool(0.5)) e.add_term(v, rng.next_normal());
    }
    m.add_squared_group(std::move(e), std::abs(rng.next_normal()) + 0.1);
  }
  for (int c = 0; c < 3; ++c) {
    LinearExpr lhs;
    for (VarId v = 0; v < n; ++v) {
      if (rng.next_bool(0.5)) lhs.add_term(v, rng.next_normal());
    }
    const Sense sense = c == 0 ? Sense::LE : (c == 1 ? Sense::GE : Sense::EQ);
    m.add_constraint(std::move(lhs), sense, rng.next_normal());
  }
  return m;
}

State random_state(util::Rng& rng, std::size_t n) {
  State s(n);
  for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_below(2));
  return s;
}

TEST(CqmIncrementalState, InitialValuesMatchModel) {
  util::Rng rng(5);
  const CqmModel m = random_cqm(rng, 10);
  const State s = random_state(rng, 10);
  CqmIncrementalState walk(m, s, std::vector<double>(m.num_constraints(), 2.0));
  EXPECT_NEAR(walk.objective(), m.objective_value(s), 1e-9);
  EXPECT_NEAR(walk.total_violation(), m.total_violation(s), 1e-9);
  EXPECT_EQ(walk.feasible(), m.is_feasible(s));
}

TEST(CqmIncrementalState, FlipDeltaMatchesRecompute) {
  util::Rng rng(7);
  const CqmModel m = random_cqm(rng, 10);
  State s = random_state(rng, 10);
  const std::vector<double> penalties(m.num_constraints(), 3.0);
  CqmIncrementalState walk(m, s, penalties);
  for (VarId v = 0; v < 10; ++v) {
    const auto d = walk.flip_delta_parts(v);
    State flipped = s;
    flipped[v] ^= 1u;
    const double obj_delta = m.objective_value(flipped) - m.objective_value(s);
    EXPECT_NEAR(d.objective, obj_delta, 1e-8) << "var " << v;
    double pen_before = 0.0, pen_after = 0.0;
    for (std::size_t c = 0; c < m.num_constraints(); ++c) {
      pen_before += 3.0 * m.constraint_violation(c, s);
      pen_after += 3.0 * m.constraint_violation(c, flipped);
    }
    EXPECT_NEAR(d.penalty, pen_after - pen_before, 1e-8) << "var " << v;
  }
}

TEST(CqmIncrementalState, ApplyFlipKeepsRunningValuesConsistent) {
  util::Rng rng(11);
  const CqmModel m = random_cqm(rng, 12);
  State s = random_state(rng, 12);
  CqmIncrementalState walk(m, s, std::vector<double>(m.num_constraints(), 1.5));
  // Long random walk; verify against full recomputation at the end.
  for (int step = 0; step < 500; ++step) {
    walk.apply_flip(static_cast<VarId>(rng.next_below(12)));
  }
  EXPECT_NEAR(walk.objective(), m.objective_value(walk.state()), 1e-6);
  EXPECT_NEAR(walk.total_violation(), m.total_violation(walk.state()), 1e-8);
}

TEST(CqmIncrementalState, SetPenaltiesRescalesPenaltyEnergy) {
  util::Rng rng(13);
  const CqmModel m = random_cqm(rng, 8);
  const State s = random_state(rng, 8);
  CqmIncrementalState walk(m, s, std::vector<double>(m.num_constraints(), 1.0));
  const double base = walk.penalty_energy();
  walk.set_penalties(std::vector<double>(m.num_constraints(), 2.0));
  EXPECT_NEAR(walk.penalty_energy(), 2.0 * base, 1e-9);
}

TEST(CqmIncrementalState, MismatchedSizesThrow) {
  util::Rng rng(15);
  const CqmModel m = random_cqm(rng, 4);
  EXPECT_THROW(CqmIncrementalState(m, State(3, 0),
                                   std::vector<double>(m.num_constraints(), 1.0)),
               util::InvalidArgument);
  EXPECT_THROW(CqmIncrementalState(m, State(4, 0), std::vector<double>{}),
               util::InvalidArgument);
}

TEST(PairMoves, IndexGroupsEqualCoefficients) {
  CqmModel m;
  for (int i = 0; i < 4; ++i) m.add_variable();
  LinearExpr lhs;
  lhs.add_term(0, 1.0);
  lhs.add_term(1, 1.0);
  lhs.add_term(2, 2.0);
  lhs.add_term(3, 2.0);
  m.add_constraint(lhs, Sense::LE, 3.0);
  const PairMoveIndex index = PairMoveIndex::build(m);
  EXPECT_EQ(index.num_classes(), 2u);  // the 1.0 pair and the 2.0 pair
}

TEST(PairMoves, SingletonCoefficientsFormNoClass) {
  CqmModel m;
  for (int i = 0; i < 3; ++i) m.add_variable();
  LinearExpr lhs;
  lhs.add_term(0, 1.0);
  lhs.add_term(1, 2.0);
  lhs.add_term(2, 4.0);
  m.add_constraint(lhs, Sense::LE, 3.0);
  EXPECT_TRUE(PairMoveIndex::build(m).empty());
}

TEST(PairMoves, AttemptPreservesConstraintActivity) {
  CqmModel m;
  for (int i = 0; i < 4; ++i) m.add_variable();
  LinearExpr lhs;
  for (VarId v = 0; v < 4; ++v) lhs.add_term(v, 1.0);
  m.add_constraint(lhs, Sense::EQ, 2.0);
  // Objective prefers x2, x3 over x0, x1.
  m.add_objective_linear(0, 1.0);
  m.add_objective_linear(1, 1.0);
  m.add_objective_linear(2, -1.0);
  m.add_objective_linear(3, -1.0);
  const PairMoveIndex index = PairMoveIndex::build(m);
  ASSERT_FALSE(index.empty());
  CqmIncrementalState walk(m, State{1, 1, 0, 0},
                           std::vector<double>(m.num_constraints(), 100.0));
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) index.attempt(walk, rng, 1e30);
  // Pair moves must keep the equality satisfied and reach the optimum.
  EXPECT_TRUE(walk.feasible());
  EXPECT_DOUBLE_EQ(walk.objective(), -2.0);
  EXPECT_EQ(walk.state(), (State{0, 0, 1, 1}));
}

TEST(CqmAnnealer, SolvesConstrainedToyToOptimum) {
  // min (x0 + x1 + x2 - 2)^2 - x2   s.t.  x0 + x1 <= 1.
  CqmModel m;
  for (int i = 0; i < 3; ++i) m.add_variable();
  LinearExpr g(-2.0);
  for (VarId v = 0; v < 3; ++v) g.add_term(v, 1.0);
  m.add_squared_group(std::move(g), 1.0);
  m.add_objective_linear(2, -1.0);
  LinearExpr cap;
  cap.add_term(0, 1.0);
  cap.add_term(1, 1.0);
  m.add_constraint(std::move(cap), Sense::LE, 1.0);

  util::Rng rng(21);
  CqmAnnealParams params;
  params.sweeps = 300;
  const Sample s = CqmAnnealer(params).anneal_once(
      m, std::vector<double>(m.num_constraints(), 50.0), rng);
  EXPECT_TRUE(s.feasible);
  // Optimum: x2 = 1 plus one of x0/x1 -> group hits 2 exactly, objective -1.
  EXPECT_DOUBLE_EQ(s.energy, -1.0);
}

TEST(CqmAnnealer, BestSeenIsReturnedNotFinal) {
  // With zero constraints the annealer tracks objective only; its returned
  // energy must match a fresh evaluation of its returned state.
  util::Rng rng(23);
  CqmModel m = random_cqm(rng, 8);
  CqmAnnealParams params;
  params.sweeps = 100;
  util::Rng walk_rng(5);
  const Sample s = CqmAnnealer(params).anneal_once(
      m, std::vector<double>(m.num_constraints(), 10.0), walk_rng);
  EXPECT_NEAR(s.energy, m.objective_value(s.state), 1e-7);
  EXPECT_NEAR(s.violation, m.total_violation(s.state), 1e-8);
}

TEST(CqmAnnealer, RefinementModeKeepsFeasibility) {
  // Start feasible; refinement mode must never leave the feasible region.
  CqmModel m;
  for (int i = 0; i < 6; ++i) m.add_variable();
  LinearExpr g(-3.0);
  for (VarId v = 0; v < 6; ++v) g.add_term(v, 1.0);
  m.add_squared_group(std::move(g), 1.0);
  LinearExpr cap;
  for (VarId v = 0; v < 6; ++v) cap.add_term(v, 1.0);
  m.add_constraint(std::move(cap), Sense::LE, 3.0);

  util::Rng rng(31);
  CqmAnnealParams params;
  params.sweeps = 200;
  params.refinement = true;
  const Sample s = CqmAnnealer(params).anneal_once(
      m, std::vector<double>(m.num_constraints(), 100.0), rng, State(6, 0));
  EXPECT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.energy, 0.0);  // reaches exactly 3 bits set
}

TEST(ParallelTempering, FindsToyOptimum) {
  CqmModel m;
  for (int i = 0; i < 4; ++i) m.add_variable();
  LinearExpr g(-2.0);
  for (VarId v = 0; v < 4; ++v) g.add_term(v, 1.0);
  m.add_squared_group(std::move(g), 1.0);
  TemperingParams params;
  params.num_replicas = 4;
  params.sweeps = 100;
  params.seed = 9;
  const Sample s = ParallelTempering(params).run(
      m, std::vector<double>(m.num_constraints(), 1.0));
  EXPECT_DOUBLE_EQ(s.energy, 0.0);
  EXPECT_TRUE(s.feasible);
}

// A budget that expires mid-run at threads=4 ends the ladder after the cut
// block; the returned incumbent must still be a real, consistent sample.
TEST(ParallelTempering, CancelMidRunAtFourThreadsKeepsIncumbent) {
  CqmModel m;
  constexpr VarId kVars = 40;
  for (VarId v = 0; v < kVars; ++v) m.add_variable();
  LinearExpr g(-7.0);
  for (VarId v = 0; v < kVars; ++v) g.add_term(v, 1.0 + 0.25 * (v % 3));
  m.add_squared_group(std::move(g), 1.0);
  LinearExpr cap;
  for (VarId v = 0; v < kVars; ++v) cap.add_term(v, 1.0);
  m.add_constraint(std::move(cap), Sense::LE, 5.0);

  obs::MetricsRegistry reg;
  TemperingParams params;
  params.num_replicas = 6;
  params.sweeps = 50'000'000;  // far more than the budget allows
  params.seed = 21;
  params.threads = 4;
  params.cancel = util::CancelToken().with_deadline_ms(30.0);
  params.sweep_counter = &reg.counter("rounds");
  params.replica_sweep_counter = &reg.counter("lane_sweeps");
  const Sample s = ParallelTempering(params).run(
      m, std::vector<double>(m.num_constraints(), 4.0));

  ASSERT_EQ(s.state.size(), static_cast<std::size_t>(kVars));
  EXPECT_NEAR(s.energy, m.objective_value(s.state), 1e-9);
  EXPECT_NEAR(s.violation, m.total_violation(s.state), 1e-9);
  EXPECT_EQ(s.feasible, m.is_feasible(s.state));
  const std::uint64_t rounds = reg.counter("rounds").value();
  EXPECT_LT(rounds, params.sweeps);
  EXPECT_GE(reg.counter("lane_sweeps").value(), rounds * params.num_replicas);
}

TEST(ParallelTempering, RequiresTwoReplicas) {
  CqmModel m;
  m.add_variable();
  TemperingParams params;
  params.num_replicas = 1;
  EXPECT_THROW(ParallelTempering(params).run(m, std::vector<double>{}), util::InvalidArgument);
}

}  // namespace
}  // namespace qulrb::anneal
