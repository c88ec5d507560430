#include <gtest/gtest.h>

#include "lrp/solver.hpp"
#include "runtime/bsp_sim.hpp"
#include "runtime/chameleon.hpp"
#include "runtime/comm_model.hpp"
#include "util/error.hpp"

namespace qulrb::runtime {
namespace {

const lrp::LrpProblem kPaper = lrp::LrpProblem::uniform({1.87, 1.97, 3.12, 2.81}, 5);

// ---------------------------------------------------------- comm model -----

TEST(CommModel, ZeroTasksCostNothing) {
  CommModel comm;
  EXPECT_DOUBLE_EQ(comm.transfer_ms(0), 0.0);
  EXPECT_DOUBLE_EQ(comm.transfer_ms(-3), 0.0);
}

TEST(CommModel, LatencyPlusBandwidth) {
  CommModel comm;
  comm.latency_ms = 1.0;
  comm.bytes_per_task = 100.0;
  comm.bandwidth_bytes_per_ms = 50.0;
  EXPECT_DOUBLE_EQ(comm.transfer_ms(1), 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(comm.transfer_ms(5), 1.0 + 10.0);
}

TEST(CommModel, BatchingBeatsPerTaskMessages) {
  CommModel comm;
  EXPECT_LT(comm.transfer_ms(10), 10.0 * comm.transfer_ms(1));
}

// ------------------------------------------------------------- bsp sim -----

TEST(BspSim, BaselineMakespanIsMaxLoad) {
  BspConfig config;
  config.comp_threads = 1;
  config.iterations = 1;
  const BspResult r = BspSimulator(config).run_baseline(kPaper);
  EXPECT_NEAR(r.first_iteration_ms, kPaper.max_load(), 1e-9);
  EXPECT_NEAR(r.steady_iteration_ms, kPaper.max_load(), 1e-9);
  EXPECT_DOUBLE_EQ(r.migration_overhead_ms, 0.0);
}

TEST(BspSim, BaselineImbalanceMatchesProblem) {
  const BspResult r = BspSimulator(BspConfig{}).run_baseline(kPaper);
  EXPECT_NEAR(r.compute_imbalance, kPaper.imbalance_ratio(), 1e-9);
}

TEST(BspSim, IdleTimeAccounting) {
  BspConfig config;
  config.comp_threads = 1;
  const BspResult r = BspSimulator(config).run_baseline(kPaper);
  // The straggler (P2, 15.6 ms) has zero idle; others wait for it.
  EXPECT_NEAR(r.processes[2].idle_ms, 0.0, 1e-9);
  EXPECT_NEAR(r.processes[0].idle_ms, 15.6 - 9.35, 1e-9);
}

TEST(BspSim, MultiThreadScaling) {
  // 4 uniform tasks of 1 ms on one process: 2 threads halve the makespan.
  const lrp::LrpProblem p = lrp::LrpProblem::uniform({1.0, 1.0}, 4);
  BspConfig one;
  one.comp_threads = 1;
  BspConfig two;
  two.comp_threads = 2;
  EXPECT_NEAR(BspSimulator(one).run_baseline(p).steady_iteration_ms, 4.0, 1e-9);
  EXPECT_NEAR(BspSimulator(two).run_baseline(p).steady_iteration_ms, 2.0, 1e-9);
}

TEST(BspSim, RebalancedRunIsFasterOverIterations) {
  lrp::GreedySolver greedy;
  const lrp::SolveOutput out = greedy.solve(kPaper);
  BspConfig config;
  config.iterations = 50;
  const BspSimulator sim(config);
  const BspResult base = sim.run_baseline(kPaper);
  const BspResult rebal = sim.run(kPaper, out.plan);
  EXPECT_LT(rebal.total_ms, base.total_ms);
  EXPECT_LT(rebal.steady_iteration_ms, base.steady_iteration_ms);
}

TEST(BspSim, MigrationTrafficCostsTime) {
  lrp::GreedySolver greedy;
  const lrp::SolveOutput out = greedy.solve(kPaper);
  // Without a dedicated comm thread the serialization cost is exposed.
  BspConfig config;
  config.overlap_migration = false;
  const BspResult r = BspSimulator(config).run(kPaper, out.plan);
  EXPECT_GT(r.migration_overhead_ms, 0.0);
  EXPECT_GT(r.first_iteration_ms, r.steady_iteration_ms);
  std::int64_t sent = 0, received = 0;
  for (const auto& p : r.processes) {
    sent += p.tasks_sent;
    received += p.tasks_received;
  }
  EXPECT_EQ(sent, out.plan.total_migrated());
  EXPECT_EQ(received, out.plan.total_migrated());
}

TEST(BspSim, FewerMigrationsLessOverhead) {
  // The paper's headline motivation: ProactLB-sized migration traffic costs
  // less than Greedy-sized traffic.
  lrp::GreedySolver greedy;
  lrp::ProactLbSolver proactlb;
  const lrp::LrpProblem p =
      lrp::LrpProblem::uniform({4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, 50);
  const BspSimulator sim{BspConfig{}};
  const BspResult g = sim.run(p, greedy.solve(p).plan);
  const BspResult pr = sim.run(p, proactlb.solve(p).plan);
  EXPECT_LT(pr.migration_overhead_ms, g.migration_overhead_ms);
}

TEST(BspSim, OverlapHidesSenderCost) {
  lrp::GreedySolver greedy;
  const lrp::SolveOutput out = greedy.solve(kPaper);
  BspConfig overlap;
  overlap.overlap_migration = true;
  BspConfig blocking;
  blocking.overlap_migration = false;
  const BspResult with = BspSimulator(overlap).run(kPaper, out.plan);
  const BspResult without = BspSimulator(blocking).run(kPaper, out.plan);
  EXPECT_LE(with.first_iteration_ms, without.first_iteration_ms);
}

TEST(BspSim, ParallelEfficiencyInUnitRange) {
  const BspResult r = BspSimulator(BspConfig{}).run_baseline(kPaper);
  EXPECT_GT(r.parallel_efficiency, 0.0);
  EXPECT_LE(r.parallel_efficiency, 1.0 + 1e-9);
}

TEST(BspSim, PerfectBalanceGivesFullEfficiency) {
  const lrp::LrpProblem p = lrp::LrpProblem::uniform({2.0, 2.0, 2.0}, 10);
  const BspResult r = BspSimulator(BspConfig{}).run_baseline(p);
  EXPECT_NEAR(r.parallel_efficiency, 1.0, 1e-9);
  EXPECT_NEAR(r.compute_imbalance, 0.0, 1e-12);
}

TEST(BspSim, InvalidPlanRejected) {
  lrp::MigrationPlan bad(4);
  EXPECT_THROW(BspSimulator(BspConfig{}).run(kPaper, bad), util::InvalidArgument);
}

TEST(BspSim, InvalidConfigRejected) {
  BspConfig config;
  config.comp_threads = 0;
  EXPECT_THROW(BspSimulator(config).run_baseline(kPaper), util::InvalidArgument);
  config.comp_threads = 1;
  config.iterations = 0;
  EXPECT_THROW(BspSimulator(config).run_baseline(kPaper), util::InvalidArgument);
}

TEST(BspSim, TotalTimeAddsIterations) {
  BspConfig config;
  config.iterations = 10;
  const BspResult r = BspSimulator(config).run_baseline(kPaper);
  EXPECT_NEAR(r.total_ms, r.first_iteration_ms + 9.0 * r.steady_iteration_ms, 1e-9);
}

// ----------------------------------------------------------- chameleon -----

TEST(MiniChameleon, BuildsProblemFromTasks) {
  MiniChameleon cham(3);
  cham.add_tasks(0, 10, 2.0);
  cham.add_tasks(1, 10, 1.0);
  cham.add_tasks(2, 10, 1.5);
  const lrp::LrpProblem p = cham.problem();
  EXPECT_EQ(p.num_processes(), 3u);
  EXPECT_DOUBLE_EQ(p.load(0), 20.0);
}

TEST(MiniChameleon, RejectsNonUniformLoadPerProcess) {
  MiniChameleon cham(2);
  cham.add_tasks(0, 5, 2.0);
  EXPECT_THROW(cham.add_tasks(0, 5, 3.0), util::InvalidArgument);
  EXPECT_NO_THROW(cham.add_tasks(0, 5, 2.0));  // same load is fine
}

TEST(MiniChameleon, TaskwaitReportsSpeedup) {
  MiniChameleon cham(4, BspConfig{.comp_threads = 1, .iterations = 20,
                                  .overlap_migration = true, .comm = {},
                                  .trace = {}});
  cham.add_tasks(0, 5, 1.87);
  cham.add_tasks(1, 5, 1.97);
  cham.add_tasks(2, 5, 3.12);
  cham.add_tasks(3, 5, 2.81);
  lrp::ProactLbSolver solver;
  const auto report = cham.distributed_taskwait(solver);
  EXPECT_EQ(report.solver_name, "ProactLB");
  EXPECT_GT(report.simulated_speedup, 1.0);
  EXPECT_LT(report.metrics.imbalance_after, report.metrics.imbalance_before);
}

TEST(MiniChameleon, InvalidProcessIndexRejected) {
  MiniChameleon cham(2);
  EXPECT_THROW(cham.add_tasks(5, 1, 1.0), util::InvalidArgument);
  EXPECT_THROW(cham.add_tasks(0, -1, 1.0), util::InvalidArgument);
  EXPECT_THROW(cham.add_tasks(0, 1, -1.0), util::InvalidArgument);
}

}  // namespace
}  // namespace qulrb::runtime
