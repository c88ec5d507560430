// Micro-benchmarks (google-benchmark): the algorithm-runtime column of
// Table II (classical methods on the 8-node / 50-task setting) plus the
// throughput of the solver building blocks (CQM flip evaluation, annealer
// sweeps, QUBO energy, PIMC sweeps).

#include <benchmark/benchmark.h>

#include <chrono>

#include "anneal/cqm_anneal.hpp"
#include "anneal/pimc.hpp"
#include "anneal/replica_bank.hpp"
#include "anneal/sa.hpp"
#include "anneal/simd.hpp"
#include "classical/greedy.hpp"
#include "classical/kk.hpp"
#include "classical/proactlb.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/kselect.hpp"
#include "lrp/solver.hpp"
#include "model/cqm_to_qubo.hpp"
#include "util/rng.hpp"
#include "workloads/mxm.hpp"
#include "workloads/scenarios.hpp"

namespace {

using namespace qulrb;

// Record which delta-evaluation kernel this run dispatched to, so exported
// bench JSON is comparable across builds (context.qulrb_simd_level).
const bool g_simd_context_registered = [] {
  benchmark::AddCustomContext(
      "qulrb_simd_level", anneal::simd::level_name(anneal::simd::active_level()));
  return true;
}();

const lrp::LrpProblem& table2_problem() {
  static const lrp::LrpProblem problem =
      workloads::scenarios::imbalance_levels()[4].problem;  // M=8, n=50
  return problem;
}

// ----- Table II runtime column: classical algorithms ------------------------

void BM_Table2_Greedy(benchmark::State& state) {
  const auto items = table2_problem().flatten_tasks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(classical::greedy_partition(items, 8));
  }
}
BENCHMARK(BM_Table2_Greedy);

void BM_Table2_KK(benchmark::State& state) {
  const auto items = table2_problem().flatten_tasks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(classical::kk_partition(items, 8));
  }
}
BENCHMARK(BM_Table2_KK);

void BM_Table2_ProactLB(benchmark::State& state) {
  const classical::UniformLoads input{table2_problem().task_loads(),
                                      table2_problem().task_counts()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(classical::proactlb(input));
  }
}
BENCHMARK(BM_Table2_ProactLB);

// ----- solver building blocks ------------------------------------------------

void BM_CqmBuild(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto scenario = workloads::scenarios::node_scaling(m);
  for (auto _ : state) {
    const lrp::LrpCqm cqm(scenario.problem, lrp::CqmVariant::kReduced, 100);
    benchmark::DoNotOptimize(cqm.num_binary_variables());
  }
}
BENCHMARK(BM_CqmBuild)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_CqmFlipDelta(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto scenario = workloads::scenarios::node_scaling(m);
  const lrp::LrpCqm cqm(scenario.problem, lrp::CqmVariant::kReduced, 100);
  const std::vector<double> penalties(cqm.cqm().num_constraints(), 1.0);
  anneal::CqmIncrementalState walk(
      cqm.cqm(), model::State(cqm.num_binary_variables(), 0), penalties);
  util::Rng rng(3);
  const auto n = cqm.num_binary_variables();
  for (auto _ : state) {
    const auto v = static_cast<model::VarId>(rng.next_below(n));
    benchmark::DoNotOptimize(walk.flip_delta(v));
  }
}
BENCHMARK(BM_CqmFlipDelta)->Arg(8)->Arg(32)->Arg(64);

void BM_CqmAnnealSweep(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto scenario = workloads::scenarios::node_scaling(m);
  const lrp::LrpCqm cqm(scenario.problem, lrp::CqmVariant::kReduced, 500);
  const std::vector<double> penalties(cqm.cqm().num_constraints(), 1.0);
  // The batched SIMD kernels: 8 replicas anneal in lockstep over one
  // CqmReplicaBank (shared-proposal mode), with delta evaluation and commit
  // running through the batched across-lane kernels. No solver runs this
  // mode; BM_CqmWalkSweep times the walk the solver steps. Reported time is
  // per replica, comparable against the single-chain baseline in
  // bench/baseline_kernel_seed.json.
  constexpr std::size_t kLanes = 8;
  std::vector<util::Rng> rngs;
  rngs.reserve(kLanes);
  for (std::size_t r = 0; r < kLanes; ++r) rngs.emplace_back(5 + r);
  util::Rng proposal(5);
  anneal::BatchedCqmAnnealParams params;
  params.sweeps = 1;
  const anneal::BatchedCqmAnnealer annealer(params);
  // The pair-move index depends only on the model; every production caller
  // (hybrid portfolio, tempering) builds it once per solve and shares it
  // across restarts, so the sweep benchmark measures that hot path. The
  // one-time build cost is tracked separately by BM_CqmPairIndexBuild.
  const auto pairs = anneal::PairMoveIndex::build(cqm.cqm());
  std::vector<anneal::BatchedLaneSpec> specs(kLanes);
  for (std::size_t r = 0; r < kLanes; ++r) {
    specs[r].rng = &rngs[r];
    specs[r].penalties = &penalties;
  }
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto out = annealer.anneal_lanes(cqm.cqm(), specs, &pairs, &proposal);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(out);
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count() /
                           static_cast<double>(kLanes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cqm.num_binary_variables()));
}
BENCHMARK(BM_CqmAnnealSweep)->Arg(8)->Arg(32)->UseManualTime();

void BM_CqmWalkSweep(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto scenario = workloads::scenarios::node_scaling(m);
  const lrp::LrpCqm cqm(scenario.problem, lrp::CqmVariant::kReduced, 500);
  const std::vector<double> penalties(cqm.cqm().num_constraints(), 1.0);
  // The production sweep path: the hybrid solver's restart chunks run two
  // lanes in per-lane mode, each lane drawing its own moves and walking its
  // own CqmIncrementalState, interleaved step by step (the tempering ladder
  // steps the same walk). Reported time is per lane.
  constexpr std::size_t kLanes = 2;
  std::vector<util::Rng> rngs;
  rngs.reserve(kLanes);
  for (std::size_t r = 0; r < kLanes; ++r) rngs.emplace_back(5 + r);
  anneal::BatchedCqmAnnealParams params;
  params.sweeps = 1;
  const anneal::BatchedCqmAnnealer annealer(params);
  const auto pairs = anneal::PairMoveIndex::build(cqm.cqm());
  std::vector<anneal::BatchedLaneSpec> specs(kLanes);
  for (std::size_t r = 0; r < kLanes; ++r) {
    specs[r].rng = &rngs[r];
    specs[r].penalties = &penalties;
  }
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto out = annealer.anneal_lanes(cqm.cqm(), specs, &pairs);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(out);
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count() /
                           static_cast<double>(kLanes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cqm.num_binary_variables()));
}
BENCHMARK(BM_CqmWalkSweep)->Arg(32)->UseManualTime();

void BM_CqmPairIndexBuild(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto scenario = workloads::scenarios::node_scaling(m);
  const lrp::LrpCqm cqm(scenario.problem, lrp::CqmVariant::kReduced, 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(anneal::PairMoveIndex::build(cqm.cqm()));
  }
}
BENCHMARK(BM_CqmPairIndexBuild)->Arg(8)->Arg(32);

void BM_QuboEnergy(benchmark::State& state) {
  const std::vector<int> sizes = {128, 192, 320, 448};
  const lrp::LrpProblem problem = workloads::make_mxm_problem(sizes, 8);
  const lrp::LrpCqm cqm(problem, lrp::CqmVariant::kReduced, 16);
  const auto conv = model::cqm_to_qubo(cqm.cqm());
  model::State s(conv.qubo.num_variables(), 0);
  util::Rng rng(9);
  for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_below(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.qubo.energy(s));
  }
}
BENCHMARK(BM_QuboEnergy);

void BM_PimcSweep(benchmark::State& state) {
  const std::vector<int> sizes = {128, 192, 320, 448};
  const lrp::LrpProblem problem = workloads::make_mxm_problem(sizes, 8);
  const lrp::LrpCqm cqm(problem, lrp::CqmVariant::kReduced, 16);
  const auto conv = model::cqm_to_qubo(cqm.cqm());
  anneal::PimcParams params;
  params.sweeps = 1;
  params.trotter_slices = 8;
  const anneal::PimcAnnealer annealer(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(annealer.sample_qubo(conv.qubo));
  }
}
BENCHMARK(BM_PimcSweep);

void BM_KSelect(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrp::select_k(table2_problem()));
  }
}
BENCHMARK(BM_KSelect);

}  // namespace
