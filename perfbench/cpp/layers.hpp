#pragma once

// The traced run's layer-by-layer replay: a workload's instances are pushed
// through each module's public functions one call at a time, with the
// benchmark's own span around every call, so each layer's share can be read
// off without instrumenting the program.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/request.hpp"

namespace perfbench {

struct ReplayInstance {
  qulrb::service::RebalanceRequest request;
  /// Solver threads the workload runs this instance with (0 = all hardware
  /// threads, the CLI default; 1 = what a `qulrb_serve` worker uses).
  std::size_t threads = 0;
};

struct ReplayResult {
  Metrics metrics;                  ///< the anneal/lrp/model/classical/service/obs layers
  std::vector<std::string> errors;  ///< failed output checks
  std::vector<std::uint64_t> plan_hashes;  ///< per instance, of the agreed plan
  std::size_t profile_samples = 0;
};

/// For every instance: parse its wire line, select k, run ProactLB, solve it
/// through lrp::make_solver with all threads and with one thread (both
/// untraced), then build -> presolve -> pair index -> lrp::solve_lrp_cqm with
/// reuse_presolve/reuse_pairs under the Recorder, metrics registry and
/// Profiler -> decode/repair -> evaluate -> encode the response. All three
/// solves must return the same plan. A SessionCache replay of the instances,
/// in order, times cache misses and retarget hits. Spans go to `spans` with
/// trace id `trace_base + i` for instance i.
ReplayResult replay_layers(const std::vector<ReplayInstance>& instances, SpanLog* spans,
                           std::uint64_t trace_base);

}  // namespace perfbench
