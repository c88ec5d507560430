// perfbench — runs one workload of the qulrb end-to-end benchmark.
//
//   perfbench --workload samoa-solve|fleet-retarget|fleet-cold
//             --seed N --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR
//             [--source-digest STR]
//
// --bin-dir holds qulrb_serve and qulrb_router; --out-dir receives the run
// record, span traces and process logs. The last line of stdout is the
// result: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exit code 0 when every output check passed, 1 when one
// failed, 2 on a usage or set-up error.

#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet.hpp"
#include "io/json_value.hpp"
#include "layers.hpp"
#include "lrp/kselect.hpp"
#include "lrp/metrics.hpp"
#include "lrp/registry.hpp"
#include "lrp/solver.hpp"
#include "plan_check.hpp"
#include "requests.hpp"
#include "workloads/scenarios.hpp"

namespace perfbench {
namespace {

using qulrb::io::JsonValue;
using qulrb::service::RebalanceRequest;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string out_dir;
  std::string source_digest;
};

struct RunResult {
  Metrics metrics;             ///< what the result line reports
  std::string notes;           ///< human-readable lines printed before it
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks

  void fail(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
};

// ---------------------------------------------------------------- samoa-solve

/// The `qulrb solve --solver qcqm1` defaults: k1 auto, 2000 sweeps,
/// 3 restarts, seed 2024, all hardware threads.
qulrb::lrp::SolverSpec samoa_spec() {
  qulrb::lrp::SolverSpec spec;
  spec.name = "qcqm1";
  return spec;
}

/// Plans of the samoa solve are deterministic for a fixed solver seed; the
/// first run in a checkout records the hash and later runs must match it.
void check_samoa_hash(const Options& opt, std::int64_t k, std::uint64_t hash, RunResult& run) {
  const qulrb::lrp::SolverSpec spec = samoa_spec();
  const std::string key = "sources=" + opt.source_digest + " samoa qcqm1 seed=" +
                          std::to_string(spec.seed) +
                          " k=" + std::to_string(k) + " sweeps=" + std::to_string(spec.sweeps) +
                          " restarts=" + std::to_string(spec.restarts);
  const std::string path = opt.out_dir + "/samoa_plan_hash.txt";
  std::ifstream in(path);
  std::string stored_key, stored_hash;
  if (in && std::getline(in, stored_key) && std::getline(in, stored_hash) && stored_key == key) {
    if (stored_hash != std::to_string(hash)) {
      run.fail("samoa plan hash " + std::to_string(hash) + " differs from an earlier run's " +
               stored_hash + " (" + key + ")");
    }
    return;
  }
  std::ofstream(path) << key << "\n" << hash << "\n";
}

std::string join_values(const std::vector<double>& values, const char* unit = "") {
  std::string out;
  char buf[48];
  for (const double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.2f%s", out.empty() ? "" : ", ", v, unit);
    out += buf;
  }
  return out;
}

/// A samoa run solves at least this often (and keeps solving while --seconds
/// has not passed): one solve's wall time moves by ~10% with the machine.
constexpr std::size_t kMinSamoaSolves = 2;

RunResult run_samoa(const Options& opt, SpanLog* spans) {
  namespace lrp = qulrb::lrp;
  RunResult run;
  const std::size_t nproc = hardware_threads();

  // Set-up: instance, k1, the ProactLB reference and the solver, five times.
  std::vector<double> setup_s;
  std::optional<lrp::LrpProblem> problem;
  std::unique_ptr<lrp::RebalanceSolver> solver;
  std::int64_t k = 0;
  double proactlb_rimb = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan span(spans, "setup", 0);
    problem.emplace(qulrb::workloads::scenarios::samoa_oscillating_lake().problem);
    k = lrp::select_k(*problem).k1;
    lrp::ProactLbSolver proactlb;
    proactlb_rimb = lrp::evaluate_plan(*problem, proactlb.solve(*problem).plan).imbalance_after;
    solver = lrp::make_solver(samoa_spec(), *problem);
    setup_s.push_back(span.elapsed_ms() * 1e-3);
  }

  if (opt.trace) {
    ReplayInstance inst;
    inst.request.task_loads = problem->task_loads();
    inst.request.task_counts = problem->task_counts();
    inst.request.k = k;
    inst.request.hybrid.seed = samoa_spec().seed;
    inst.request.hybrid.sweeps = samoa_spec().sweeps;
    inst.request.hybrid.num_restarts = samoa_spec().restarts;
    inst.threads = 0;
    ReplayResult replay = replay_layers({inst}, spans, 1);
    for (const std::string& e : replay.errors) run.fail(e);
    if (!replay.plan_hashes.empty()) check_samoa_hash(opt, k, replay.plan_hashes.front(), run);
    run.attempted = 3;
    run.failed = replay.errors.empty() ? 0 : 1;
    run.metrics = replay.metrics;
    run.notes += "  profile samples: " + std::to_string(replay.profile_samples) + "\n";
    return run;
  }

  std::vector<double> solve_s, rimb;
  std::optional<std::uint64_t> first_hash;
  const double start = now_ms();
  do {
    ScopedSpan span(spans, "lrp.QcqmSolver.solve", run.attempted + 1);
    const lrp::SolveOutput out = solver->solve(*problem);
    ++run.attempted;
    solve_s.push_back(span.elapsed_ms() * 1e-3);
    const PlanCheck check = check_plan(*problem, out.plan, k);
    const std::uint64_t hash = plan_hash(out.plan);
    if (!check.ok) {
      ++run.failed;
      run.fail("samoa plan: " + check.error);
    } else if (first_hash.has_value() && hash != *first_hash) {
      ++run.failed;
      run.fail("samoa plan changed between two solves with one seed");
    }
    if (!first_hash.has_value()) {
      first_hash = hash;
      check_samoa_hash(opt, k, hash, run);
    }
    rimb.push_back(check.r_imb);
  } while (solve_s.size() < kMinSamoaSolves || now_ms() - start < opt.seconds * 1e3);

  const double solve_med = median(solve_s);
  const double rimb_med = median(rimb);
  Metrics& m = run.metrics;
  m.set("setup_s", median(setup_s), "s");
  m.set("solve_s", solve_med, "s");
  m.set("rimb_ratio", rimb_med / proactlb_rimb, "ratio");
  m.set("latency_p50_ms", solve_med * 1e3, "ms");
  m.set("latency_tail_ms", *std::max_element(solve_s.begin(), solve_s.end()) * 1e3, "ms");
  m.set("throughput_rps", static_cast<double>(solve_s.size()) /
                              std::accumulate(solve_s.begin(), solve_s.end(), 0.0),
        "1/s");
  m.set("rimb_mean", rimb_med, "ratio");
  run.notes += "  samoa: M=" + std::to_string(problem->num_processes()) +
               " k1=" + std::to_string(k) + " threads=" + std::to_string(nproc) +
               " solves=" + std::to_string(solve_s.size()) + " (" + join_values(solve_s, " s") + ")" +
               " R_imb=" + std::to_string(rimb_med) +
               " ProactLB R_imb=" + std::to_string(proactlb_rimb) + "\n" +
               "  latency_tail_ms is the slowest solve (n=" + std::to_string(solve_s.size()) +
               " < 20 resolves no percentile)\n";
  return run;
}

// ---------------------------------------------------------------- fleet

struct FleetShape {
  RequestMaker make;
  std::size_t warmup;  ///< set-up requests, one per topology for retarget
  RequestMaker warmup_request;
};

/// Open-loop rate of both fleet workloads. A routed response leaves when the
/// next request arrives on its connection, so the open loop's latency is
/// quantised by the send interval. At 30 req/s the interval (33 ms) stays
/// above the routed processing time even when the machine runs slow; at
/// 125 req/s (8 ms) the median flipped between one and two intervals with
/// the machine's speed.
constexpr double kOpenRatePerS = 30.0;

FleetShape fleet_shape(const Options& opt) {
  const std::uint64_t seed = opt.seed;
  if (opt.workload == "fleet-retarget") {
    return {[seed](std::uint64_t i) { return retarget_request(seed, i); }, kRetargetTopologies, [seed](std::uint64_t t) {
              return retarget_request_on(seed, kWarmupIndexBase + t, t);
            }};
  }
  return {[seed](std::uint64_t i) { return cold_request(seed, i); }, 8,
          [seed](std::uint64_t w) { return cold_request(seed, kWarmupIndexBase + w); }};
}

/// What one exchange's response says, after every check.
struct Checked {
  bool ok = false;
  double rimb = 0.0;
  double queue_ms = 0.0, solve_ms = 0.0, total_ms = 0.0;
};

Checked check_exchange(const Exchange& ex, const RebalanceRequest& req, RunResult& run) {
  Checked c;
  ++run.attempted;
  const std::string where = "request " + std::to_string(ex.index) + ": ";
  if (ex.recv_ms < 0.0) {
    ++run.failed;
    run.fail(where + "no response");
    return c;
  }
  try {
    const JsonValue doc = JsonValue::parse(ex.response);
    if (doc.string_or("outcome", "") != "ok") {
      ++run.failed;
      run.fail(where + "outcome " + doc.string_or("outcome", "?") + " " +
               doc.string_or("error", ""));
      return c;
    }
    const qulrb::lrp::LrpProblem problem = problem_of(req);
    const JsonValue* plan_json = doc.find("plan");
    const auto plan =
        plan_json ? plan_from_json(*plan_json, problem.num_processes()) : std::nullopt;
    if (!plan.has_value()) {
      ++run.failed;
      run.fail(where + "response has no well-formed plan");
      return c;
    }
    const PlanCheck check = check_plan(problem, *plan, req.k, doc.number_or("imbalance_after", -1));
    if (!check.ok) {
      ++run.failed;
      run.fail(where + check.error);
      return c;
    }
    c.ok = true;
    c.rimb = check.r_imb;
    c.queue_ms = doc.number_or("queue_ms", 0.0);
    c.solve_ms = doc.number_or("solve_ms", 0.0);
    c.total_ms = doc.number_or("total_ms", 0.0);
  } catch (const std::exception& e) {
    ++run.failed;
    run.fail(where + "unparsable response: " + e.what());
  }
  return c;
}

/// Spans of one routed request, rebuilt from the client's clock and the
/// backend's reported queue/solve/total times. The residual (client time
/// minus backend total) is router plus network, split evenly either side.
void add_request_spans(SpanLog& spans, const Exchange& ex, const Checked& c) {
  const std::uint64_t trace = ex.index + 1;
  const std::uint64_t root = spans.add("request", trace, 0, ex.due_ms, ex.recv_ms);
  if (ex.sent_ms > ex.due_ms) spans.add("gen.late", trace, root, ex.due_ms, ex.sent_ms);
  const double residual = std::max(0.0, (ex.recv_ms - ex.sent_ms) - c.total_ms);
  const double backend_start = ex.sent_ms + residual / 2;
  spans.add("router+net in", trace, root, ex.sent_ms, backend_start);
  const std::uint64_t backend =
      spans.add("backend", trace, root, backend_start, backend_start + c.total_ms);
  spans.add("service.queue", trace, backend, backend_start, backend_start + c.queue_ms);
  spans.add("service.solve", trace, backend, backend_start + c.queue_ms,
            backend_start + c.queue_ms + c.solve_ms);
  spans.add("router+net out", trace, root, backend_start + c.total_ms, ex.recv_ms);
}

double sum_backend_stat(const JsonValue& stats, const char* object, const char* field,
                        bool take_max) {
  double total = 0.0;
  const JsonValue* list = stats.find("backend_stats");
  if (list == nullptr || !list->is_array()) return 0.0;
  for (const JsonValue& b : list->as_array()) {
    const JsonValue* s = b.find("stats");
    if (s == nullptr) continue;
    if (object != nullptr) s = s->find(object);
    if (s == nullptr) continue;
    const double v = s->number_or(field, 0.0);
    total = take_max ? std::max(total, v) : total + v;
  }
  return total;
}

double prometheus_value(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const std::size_t after = pos + name.size();
    if (line_start && after < text.size() && (text[after] == ' ' || text[after] == '{')) {
      const std::size_t space = text.find(' ', after);
      return std::strtod(text.c_str() + space + 1, nullptr);
    }
    pos = after;
  }
  return 0.0;
}

RunResult run_fleet(const Options& opt, SpanLog* spans) {
  RunResult run;
  const FleetShape shape = fleet_shape(opt);
  const std::size_t nproc = hardware_threads();
  const double open_s = 0.5 * opt.seconds;
  const double closed_s = opt.seconds - open_s;
  const std::size_t planned = static_cast<std::size_t>(kOpenRatePerS * open_s);
  const double tail_pct = tail_percentile(planned);

  // Set-up, seven times: spawn the fleet and wait until health reports 2
  // healthy backends. The last fleet is then warmed up and serves the
  // measured phases. The warm-up is left out of setup_s: about one routed
  // request in sixteen stalls ~40 ms at random, which moved the median
  // warm-up time by a third between sets of ten runs.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < 7; ++rep) {
    fleet.reset();
    ScopedSpan span(spans, "setup", 0);
    fleet = std::make_unique<Fleet>(opt.bin_dir, opt.out_dir + "/logs");
    setup_s.push_back(span.elapsed_ms() * 1e-3);
  }
  // Warm-up: one request per topology on retarget, 8 cold requests on cold,
  // each on its own connection.
  const double warmup_start = now_ms();
  for (std::size_t w = 0; w < shape.warmup; ++w) {
    const RebalanceRequest req = shape.warmup_request(w);
    Exchange ex;
    ex.index = kWarmupIndexBase + w;
    LineConn conn(fleet->port());
    if (conn.send_line(solve_line(req, ex.index)) && conn.read_line(ex.response, 30000.0)) {
      ex.recv_ms = now_ms();
    }
    check_exchange(ex, req, run);
  }
  const double warmup_ms = now_ms() - warmup_start;

  // The open loop is one pipelined client: over several connections the
  // latency would also hinge on how their sends happen to interleave.
  const Phase open =
      run_open_loop(fleet->port(), shape.make, 0, planned, kOpenRatePerS);
  const Phase closed = run_closed_loop(fleet->port(), shape.make, planned, closed_s * 1e3, nproc);
  JsonValue stats;
  std::string prometheus;
  if (opt.trace) {
    const JsonValue reply = JsonValue::parse(ask(fleet->port(), "{\"op\":\"stats\"}"));
    if (const JsonValue* s = reply.find("stats")) stats = *s;
    prometheus = JsonValue::parse(ask(fleet->port(), "{\"op\":\"metrics\"}")).string_or("metrics", "");
  }
  fleet.reset();

  std::vector<double> latency, late, queue, solve, residual, rimb, rimb_ref;
  std::vector<ReplayInstance> replay;
  // Closed-loop completions per second, in (about) one-second bins of the
  // measured window; the median bin is the throughput.
  const std::size_t bins = std::max<std::size_t>(1, static_cast<std::size_t>(closed_s));
  const double bin_s = closed_s / static_cast<double>(bins);
  std::vector<double> per_second(bins, 0.0);
  for (const Phase* phase : {&open, &closed}) {
    for (const Exchange& ex : phase->exchanges) {
      const RebalanceRequest req = shape.make(ex.index);
      const Checked c = check_exchange(ex, req, run);
      if (!c.ok) continue;
      queue.push_back(c.queue_ms);
      solve.push_back(c.solve_ms);
      residual.push_back((ex.recv_ms - ex.sent_ms) - c.total_ms);
      if (spans != nullptr) add_request_spans(*spans, ex, c);
      rimb.push_back(c.rimb);
      qulrb::lrp::ProactLbSolver proactlb;
      const qulrb::lrp::LrpProblem problem = problem_of(req);
      rimb_ref.push_back(
          qulrb::lrp::evaluate_plan(problem, proactlb.solve(problem).plan).imbalance_after);
      if (phase == &closed) {
        const double bin = (ex.recv_ms - closed.start_ms) / 1000.0 / bin_s;
        if (bin >= 0.0 && bin < static_cast<double>(bins)) {
          per_second[static_cast<std::size_t>(bin)] += 1.0 / bin_s;
        }
        continue;
      }
      latency.push_back(ex.recv_ms - ex.due_ms);
      late.push_back(ex.sent_ms - ex.due_ms);
      if (opt.trace && replay.size() < 48) replay.push_back({req, 1});
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
  };
  const Summary lat = summarize_at(latency, tail_pct);
  const Summary lateness = summarize(late);
  const double throughput = median(per_second);
  const std::size_t threads = std::max(open.threads, closed.threads);
  if (threads > nproc || std::max(open.connections, closed.connections) > nproc) {
    run.fail("generator used " + std::to_string(threads) + " threads for nproc=" +
             std::to_string(nproc));
  }

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  open loop: %.1f req/s for %.1f s over %zu connections, %zu sent; latency "
                "from due time p50 %.3f ms, p%g %.3f ms (n=%zu)\n"
                "  generator lateness p50 %.3f ms, p%g %.3f ms (n=%zu)\n"
                "  closed loop: %zu connections for %.1f s, median %.1f ok responses/s over %zu bins\n"
                "  fail_frac = %.6g (%zu of %zu)\n",
                kOpenRatePerS, open_s, open.connections, open.exchanges.size(), lat.p50,
                lat.tail_pct, lat.tail, lat.n, lateness.p50, lateness.tail_pct, lateness.tail,
                lateness.n, closed.connections, closed_s, throughput, per_second.size(),
                run.attempted ? static_cast<double>(run.failed) / static_cast<double>(run.attempted) : 0.0,
                run.failed, run.attempted);
  run.notes += buf;
  run.notes += "  closed-loop bins (1/s): " + join_values(per_second) + "\n";
  std::snprintf(buf, sizeof(buf), "  warm-up: %zu requests in %.1f ms (not in setup_s)\n",
                shape.warmup, warmup_ms);
  run.notes += buf;

  Metrics& m = run.metrics;
  if (!opt.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("solve_s", median(solve) * 1e-3, "s");
    m.set("rimb_ratio", mean(rimb_ref) > 0.0 ? mean(rimb) / mean(rimb_ref) : 0.0, "ratio");
    m.set("latency_p50_ms", lat.p50, "ms");
    m.set("latency_tail_ms", lat.tail, "ms");
    m.set("throughput_rps", throughput, "1/s");
    m.set("rimb_mean", mean(rimb), "ratio");
    return run;
  }

  ReplayResult layers = replay_layers(replay, spans, 1u << 30);
  for (const std::string& e : layers.errors) run.fail("replay " + e);
  run.notes += "  replayed " + std::to_string(replay.size()) + " requests; profile samples: " +
               std::to_string(layers.profile_samples) + "\n";
  m = layers.metrics;
  const double hits = sum_backend_stat(stats, "cache", "exact_hits", false) +
                      sum_backend_stat(stats, "cache", "retarget_hits", false);
  const double misses = sum_backend_stat(stats, "cache", "misses", false);
  m.set("service.queue_ms_p50", percentile(queue, 50), "ms");
  m.set("service.queue_ms_p99", percentile(queue, 99), "ms");
  m.set("service.solve_ms_p50", percentile(solve, 50), "ms");
  m.set("service.solve_ms_p99", percentile(solve, 99), "ms");
  m.set("service.cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction");
  m.set("service.cache_misses", misses, "count");
  m.set("service.evictions", sum_backend_stat(stats, "cache", "evictions", false), "count");
  m.set("service.queue_depth_hwm", sum_backend_stat(stats, nullptr, "queue_depth_hwm", true),
        "count");
  m.set("net.residual_ms_p50", percentile(residual, 50), "ms");
  m.set("net.residual_ms_p99", percentile(residual, 99), "ms");
  m.set("router.coalesced", stats.number_or("coalesced_total", 0.0), "count");
  m.set("router.retries", prometheus_value(prometheus, "qulrb_router_retries_total"), "count");
  m.set("gen.late_p99_ms", percentile(late, 99), "ms");
  m.set("gen.sent", static_cast<double>(open.exchanges.size() + closed.exchanges.size()), "count");
  m.set("gen.connections", static_cast<double>(std::max(open.connections, closed.connections)),
        "count");
  return run;
}

/// The per-layer metrics only the fleet measures, as 0 for samoa-solve
/// (it sends no request over the network).
void add_fleet_only_layers(Metrics& m) {
  for (const char* name : {"service.queue_ms_p50", "service.queue_ms_p99", "service.solve_ms_p50",
                           "service.solve_ms_p99", "net.residual_ms_p50", "net.residual_ms_p99",
                           "gen.late_p99_ms"}) {
    m.set(name, 0.0, "ms");
  }
  m.set("service.cache_hit_rate", 0.0, "fraction");
  for (const char* name : {"service.cache_misses", "service.evictions", "service.queue_depth_hwm",
                           "router.coalesced", "router.retries", "gen.sent", "gen.connections"}) {
    m.set(name, 0.0, "count");
  }
}

// ---------------------------------------------------------------- main

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload samoa-solve|fleet-retarget|fleet-cold "
               "--seed N --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR\n";
  return 2;
}

int run_main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--bin-dir") opt.bin_dir = value;
    else if (key == "--out-dir") opt.out_dir = value;
    else if (key == "--source-digest") opt.source_digest = value;
    else return usage("unknown option " + key);
  }
  if (opt.workload != "samoa-solve" && opt.workload != "fleet-retarget" &&
      opt.workload != "fleet-cold") {
    return usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.bin_dir.empty() || opt.out_dir.empty() || !(opt.seconds > 0.0)) {
    return usage("--bin-dir, --out-dir and a positive --seconds are required");
  }
  for (const std::string& dir : {opt.out_dir, opt.out_dir + "/logs", opt.out_dir + "/traces",
                                opt.out_dir + "/results"}) {
    ::mkdir(dir.c_str(), 0755);
  }

  const double load_before = load_average_1m();
  SpanLog span_log;
  SpanLog* spans = opt.trace ? &span_log : nullptr;
  RunResult run;
  if (opt.workload == "samoa-solve") {
    run = run_samoa(opt, spans);
    if (opt.trace) add_fleet_only_layers(run.metrics);
  } else {
    run = run_fleet(opt, spans);
  }
  const bool correct = run.errors.empty();
  const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed) + "-trace" +
                          (opt.trace ? "1" : "0");
  if (opt.trace) span_log.write(opt.out_dir + "/traces/" + tag + ".json");

  const std::string context = machine_context_json(load_before, opt.source_digest);
  const std::string result = std::string("{\"correct\":") + (correct ? "true" : "false") +
                             ",\"attempted\":" + std::to_string(run.attempted) +
                             ",\"failed\":" + std::to_string(run.failed) +
                             ",\"metrics\":" + run.metrics.json() + "}";
  std::ofstream(opt.out_dir + "/results/" + tag + ".json")
      << "{\"workload\":" << json_string(opt.workload) << ",\"seed\":" << opt.seed
      << ",\"seconds\":" << opt.seconds << ",\"trace\":" << (opt.trace ? 1 : 0)
      << ",\"context\":" << context << ",\"result\":" << result << "}\n";

  for (const std::string& e : run.errors) std::cerr << "check failed: " << e << "\n";
  std::cout << "workload " << opt.workload << " seed " << opt.seed << " trace "
            << (opt.trace ? 1 : 0) << "\n"
            << "context: " << context << "\n"
            << run.notes << run.metrics.text() << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
