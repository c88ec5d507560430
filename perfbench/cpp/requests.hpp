#pragma once

// Request generators of the fleet workloads. Every request is a pure function
// of (workload seed, request index), so a run's inputs are fixed by its seed
// and any thread can build request i without coordination.

#include <cstddef>
#include <cstdint>

#include "lrp/problem.hpp"
#include "service/request.hpp"

namespace perfbench {

using qulrb::service::RebalanceRequest;

/// fleet-retarget: M=8 processes with n_i = 8 tasks, except one slot bumped
/// per topology so the 16 topologies have distinct session-cache keys. The
/// topologies and their base loads are fixed; each request draws its
/// topology with Zipf(1.1) popularity and drifts every load, so repeat
/// topologies hit the backends' session cache on the retarget path. k=8,
/// 50 sweeps, 1 restart.
inline constexpr std::size_t kRetargetTopologies = 16;
inline constexpr double kRetargetZipf = 1.1;
std::size_t retarget_topology(std::uint64_t seed, std::uint64_t index);
RebalanceRequest retarget_request(std::uint64_t seed, std::uint64_t index);
/// Request `index` forced onto topology `topo` (used to warm every topology).
RebalanceRequest retarget_request_on(std::uint64_t seed, std::uint64_t index, std::size_t topo);

/// fleet-cold: M=16 processes with n_i in [56, 72]. The first five counts
/// spell `index` in base 17, so no two indices below kColdIndexLimit share a
/// topology and every request misses the session cache. k = ProactLB's
/// migration count k1 (lrp::select_k), 20 sweeps, 1 restart.
inline constexpr std::uint64_t kColdIndexLimit = 17ull * 17 * 17 * 17 * 17;
RebalanceRequest cold_request(std::uint64_t seed, std::uint64_t index);

/// Index offset for set-up (warm-up) requests, disjoint from every index a
/// measured phase uses.
inline constexpr std::uint64_t kWarmupIndexBase = 1'000'000;

qulrb::lrp::LrpProblem problem_of(const RebalanceRequest& request);

}  // namespace perfbench
