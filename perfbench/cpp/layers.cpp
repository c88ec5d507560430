#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "anneal/cqm_anneal.hpp"
#include "fleet.hpp"
#include "lrp/kselect.hpp"
#include "lrp/metrics.hpp"
#include "lrp/quantum_solver.hpp"
#include "lrp/registry.hpp"
#include "lrp/solver.hpp"
#include "model/presolve.hpp"
#include "obs/convergence.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "plan_check.hpp"
#include "requests.hpp"
#include "service/protocol.hpp"
#include "service/session_cache.hpp"

namespace perfbench {

namespace {

using namespace qulrb;

/// Median wall time in microseconds of `reps` calls of `f` (for calls too
/// short to time once).
template <class F>
double median_us(int reps, F&& f) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    f();
    us.push_back((now_ms() - t0) * 1e3);
  }
  return median(us);
}

struct PlainSolve {
  double wall_ms = 0.0;
  double cpu_s = 0.0;
  double hybrid_ms = 0.0;
  std::uint64_t hash = 0;
};

/// One untraced solve through lrp::make_solver, the `qulrb solve` path.
PlainSolve solve_plain(const service::RebalanceRequest& req, const lrp::LrpProblem& problem,
                       std::size_t threads) {
  lrp::SolverSpec spec;
  spec.name = "qcqm1";
  spec.k = req.k;
  spec.seed = req.hybrid.seed;
  spec.sweeps = req.hybrid.sweeps;
  spec.restarts = req.hybrid.num_restarts;
  std::unique_ptr<lrp::RebalanceSolver> solver = lrp::make_solver(spec, problem);
  // SolverSpec has no thread knob: make_solver leaves threads at 0 (all
  // hardware threads). Other counts go through the same QcqmOptions.
  if (threads != 0) {
    auto* qcqm = dynamic_cast<lrp::QcqmSolver*>(solver.get());
    lrp::QcqmOptions options = qcqm->options();
    options.hybrid.threads = threads;
    solver = std::make_unique<lrp::QcqmSolver>(options);
  }
  PlainSolve out;
  const double cpu0 = process_cpu_s();
  const double t0 = now_ms();
  const lrp::SolveOutput result = solver->solve(problem);
  out.wall_ms = now_ms() - t0;
  out.cpu_s = process_cpu_s() - cpu0;
  out.hash = plan_hash(result.plan);
  const auto& diag = dynamic_cast<lrp::QcqmSolver&>(*solver).last_diagnostics();
  out.hybrid_ms = diag.has_value() ? diag->hybrid_stats.cpu_ms : out.wall_ms;
  return out;
}

}  // namespace

ReplayResult replay_layers(const std::vector<ReplayInstance>& instances, SpanLog* spans,
                           std::uint64_t trace_base) {
  ReplayResult out;
  std::vector<double> parse_us, encode_us, kselect_ms, proactlb_ms, build_ms, presolve_ms,
      pairs_ms, decode_ms, vars, fixed, hybrid_s, cores_busy, sweeps, replica_sweeps, sweep_us,
      ttff_ms, ttt_ms, miss_ms, hit_ms;
  double t1_total = 0.0, tn_total = 0.0, traced_total = 0.0, plain_same_threads_total = 0.0;

  // One profiler for the whole replay at ~1 kHz (the fleet's solves take a
  // millisecond or two); only samples inside a traced solve are counted.
  obs::Profiler::Params prof_params;
  prof_params.hz = 999;
  prof_params.ring_capacity = 1 << 17;
  obs::Profiler profiler(prof_params);
  profiler.start();
  std::vector<std::pair<double, double>> traced_windows_us;
  const std::size_t nproc = hardware_threads();

  for (std::size_t i = 0; i < instances.size(); ++i) {
    const service::RebalanceRequest& req = instances[i].request;
    const std::size_t threads = instances[i].threads;
    const std::uint64_t trace = trace_base + i;
    const double t_instance = now_ms();
    const auto fail = [&](const std::string& what) {
      out.errors.push_back("instance " + std::to_string(i) + ": " + what);
    };

    // service: wire parse of the request.
    const std::string line = solve_line(req, i);
    parse_us.push_back(median_us(25, [&] { (void)service::parse_request_line(line); }));
    const lrp::LrpProblem problem = problem_of(req);

    {
      ScopedSpan s(spans, "lrp.select_k", trace);
      (void)lrp::select_k(problem);
      kselect_ms.push_back(s.elapsed_ms());
    }
    {
      ScopedSpan s(spans, "classical.proactlb", trace);
      lrp::ProactLbSolver proactlb;
      (void)proactlb.solve(problem);
      proactlb_ms.push_back(s.elapsed_ms());
    }

    // Untraced solves: all threads, then one thread.
    PlainSolve plain_n, plain_1;
    {
      ScopedSpan s(spans, "lrp.make_solver.solve threads=" + std::to_string(nproc), trace);
      plain_n = solve_plain(req, problem, 0);
    }
    {
      ScopedSpan s(spans, "lrp.make_solver.solve threads=1", trace);
      plain_1 = solve_plain(req, problem, 1);
    }
    if (plain_1.hash != plain_n.hash) fail("plan differs between threads=1 and threads=nproc");
    out.plan_hashes.push_back(plain_n.hash);
    tn_total += plain_n.wall_ms;
    t1_total += plain_1.wall_ms;
    cores_busy.push_back(plain_n.cpu_s / (plain_n.wall_ms * 1e-3));
    plain_same_threads_total += threads == 1 ? plain_1.hybrid_ms : plain_n.hybrid_ms;

    // Traced layer-by-layer solve.
    std::unique_ptr<lrp::LrpCqm> lrp_cqm;
    {
      ScopedSpan s(spans, "lrp.build", trace);
      lrp_cqm = std::make_unique<lrp::LrpCqm>(problem, lrp::CqmVariant::kReduced, req.k);
      build_ms.push_back(s.elapsed_ms());
    }
    model::PresolveResult pre;
    {
      ScopedSpan s(spans, "model.presolve", trace);
      pre = model::presolve(lrp_cqm->cqm());
      presolve_ms.push_back(s.elapsed_ms());
    }
    vars.push_back(static_cast<double>(lrp_cqm->num_binary_variables()));
    fixed.push_back(static_cast<double>(pre.num_fixed));
    std::unique_ptr<anneal::PairMoveIndex> pairs;
    {
      ScopedSpan s(spans, "anneal.pair_index", trace);
      pairs = std::make_unique<anneal::PairMoveIndex>(anneal::PairMoveIndex::build(lrp_cqm->cqm()));
      pairs_ms.push_back(s.elapsed_ms());
    }
    obs::Recorder recorder("perfbench replay");
    obs::MetricsRegistry registry;
    anneal::HybridSolverParams hybrid;
    hybrid.seed = req.hybrid.seed;
    hybrid.sweeps = req.hybrid.sweeps;
    hybrid.num_restarts = req.hybrid.num_restarts;
    hybrid.threads = threads;
    hybrid.reuse_presolve = &pre;
    hybrid.reuse_pairs = pairs.get();
    hybrid.recorder = &recorder;
    hybrid.metrics = &registry;
    lrp::QcqmDiagnostics diag;
    std::optional<lrp::SolveOutput> solved;
    double solve_cpu_s = 0.0;
    {
      ScopedSpan s(spans, "lrp.solve_lrp_cqm", trace);
      const double cpu0 = process_cpu_s();
      const double t0_us = obs::clock::raw_us();
      solved.emplace(lrp::solve_lrp_cqm(problem, *lrp_cqm, hybrid, &diag));
      traced_windows_us.emplace_back(t0_us, obs::clock::raw_us());
      solve_cpu_s = process_cpu_s() - cpu0;
    }
    hybrid_s.push_back(diag.hybrid_stats.cpu_ms * 1e-3);
    traced_total += diag.hybrid_stats.cpu_ms;
    if (plan_hash(solved->plan) != plain_n.hash) {
      fail("layer-by-layer plan differs from the QcqmSolver::solve plan");
    }
    {
      ScopedSpan s(spans, "lrp.decode_repair", trace);
      lrp::MigrationPlan plan = lrp_cqm->decode(diag.best_state);
      lrp::repair_plan(problem, plan);
      decode_ms.push_back(s.elapsed_ms());
      if (plan_hash(plan) != plan_hash(solved->plan)) fail("decode/repair replay differs");
    }
    const PlanCheck check = check_plan(problem, solved->plan, req.k);
    if (!check.ok) fail(check.error);

    const double n_sweeps =
        static_cast<double>(registry.counter("qulrb_solver_sweeps_total").value());
    const double n_replica =
        static_cast<double>(registry.counter("qulrb_solver_replica_sweeps").value());
    sweeps.push_back(n_sweeps);
    replica_sweeps.push_back(n_replica);
    const double per = n_replica > 0.0 ? n_replica : n_sweeps;
    if (per > 0.0) sweep_us.push_back(solve_cpu_s * 1e6 / per);

    obs::ConvergenceConfig conv;
    conv.target_objective = lrp::objective_target_for_imbalance(problem, 0.05);
    const obs::ConvergenceReport report = obs::ConvergenceDiagnostics(conv).analyze(recorder);
    if (report.reached_feasible()) ttff_ms.push_back(report.time_to_first_feasible_ms);
    if (report.reached_target()) ttt_ms.push_back(report.time_to_target_ms);

    service::RebalanceResponse response;
    response.id = i + 1;
    response.outcome = service::RequestOutcome::kOk;
    response.feasible = solved->feasible;
    response.metrics = lrp::evaluate_plan(problem, solved->plan);
    response.plan = solved->plan;
    encode_us.push_back(
        median_us(25, [&] { (void)service::encode_response(i + 1, response, true); }));
    if (spans != nullptr) spans->add("instance", trace, 0, t_instance, now_ms());
  }

  // service: session-cache checkouts over the instance stream, in order (a
  // miss the first time a topology is seen, a retarget hit after), each
  // followed by a checkout of the same topology with loads moved by 1%.
  service::SessionCache cache(16);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const service::RebalanceRequest& req = instances[i].request;
    service::RebalanceRequest drifted = req;
    for (double& w : drifted.task_loads) w *= 1.01;
    const service::RebalanceRequest* stream[] = {&req, &drifted};
    for (const service::RebalanceRequest* r : stream) {
      const lrp::LrpProblem problem = problem_of(*r);
      ScopedSpan s(spans, "service.checkout", trace_base + i);
      auto checkout = cache.checkout(problem, lrp::CqmVariant::kReduced, r->k, {});
      (checkout.hit == service::CacheHit::kMiss ? miss_ms : hit_ms).push_back(s.elapsed_ms());
      cache.give_back(std::move(checkout));
    }
  }

  // anneal: where the traced solves' CPU samples fell, by innermost phase.
  profiler.stop();
  std::size_t tempering = 0, annealing = 0, polish = 0, labelled = 0;
  for (const obs::ProfileSample& sample : profiler.snapshot(0.0)) {
    const bool in_traced_solve =
        std::any_of(traced_windows_us.begin(), traced_windows_us.end(), [&](const auto& w) {
          return sample.t_us >= w.first && sample.t_us <= w.second;
        });
    if (sample.phase == nullptr || !in_traced_solve) continue;
    ++labelled;
    const std::string phase = sample.phase;
    // With the Recorder attached, the tempered restart's span labels its
    // samples "tempering"; the banked and refinement restarts run inside
    // "anneal-lanes" / "anneal" / "refine".
    if (phase == "tempering") ++tempering;
    else if (phase == "anneal-lanes" || phase == "anneal" || phase == "refine") ++annealing;
    else if (phase == "polish") ++polish;
  }
  out.profile_samples = labelled;
  const auto frac = [&](std::size_t n) {
    return labelled == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(labelled);
  };

  Metrics& m = out.metrics;
  m.set("anneal.hybrid_s", median(hybrid_s), "s");
  m.set("anneal.cores_busy", median(cores_busy), "cores");
  m.set("anneal.pool_speedup", tn_total > 0.0 ? t1_total / tn_total : 0.0, "x");
  m.set("anneal.sweeps", median(sweeps), "count");
  m.set("anneal.replica_sweeps", median(replica_sweeps), "count");
  m.set("anneal.sweep_us", median(sweep_us), "us");
  m.set("anneal.phase_tempering_frac", frac(tempering), "fraction");
  m.set("anneal.phase_anneal_frac", frac(annealing), "fraction");
  m.set("anneal.phase_polish_frac", frac(polish), "fraction");
  m.set("anneal.ttff_ms", median(ttff_ms), "ms");
  m.set("anneal.ttt_005_ms", median(ttt_ms), "ms");
  m.set("anneal.pairs_build_ms", median(pairs_ms), "ms");
  m.set("lrp.kselect_ms", median(kselect_ms), "ms");
  m.set("lrp.build_ms", median(build_ms), "ms");
  m.set("lrp.decode_repair_ms", median(decode_ms), "ms");
  m.set("model.presolve_ms", median(presolve_ms), "ms");
  m.set("model.vars", median(vars), "count");
  m.set("model.presolve_fixed", median(fixed), "count");
  m.set("classical.proactlb_ms", median(proactlb_ms), "ms");
  m.set("service.checkout_miss_ms", median(miss_ms), "ms");
  m.set("service.checkout_hit_ms", median(hit_ms), "ms");
  m.set("service.parse_us", median(parse_us), "us");
  m.set("service.encode_us", median(encode_us), "us");
  m.set("obs.trace_overhead",
        plain_same_threads_total > 0.0 ? traced_total / plain_same_threads_total : 0.0, "x");
  return out;
}

}  // namespace perfbench
