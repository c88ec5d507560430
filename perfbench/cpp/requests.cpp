#include "requests.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "lrp/kselect.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  return splitmix(splitmix(splitmix(a) ^ b) ^ c);
}

double unit(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

/// Four decimals: exactly what the wire's 12 significant digits carry, so
/// the backend solves the same instance the benchmark checks against.
double wire_round(double x) { return std::round(x * 1e4) / 1e4; }

std::int64_t request_seed(std::uint64_t seed, std::uint64_t index, std::uint64_t salt) {
  return static_cast<std::int64_t>(mix(seed, index, salt) & 0x7fffffffull);
}

constexpr std::uint64_t kRetargetSalt = 0x7265747267ull;
constexpr std::uint64_t kColdSalt = 0x636f6c64ull;

}  // namespace

std::size_t retarget_topology(std::uint64_t seed, std::uint64_t index) {
  // Zipf(s) over the topologies, topology t being the (t+1)-th most popular.
  static const std::array<double, kRetargetTopologies> cdf = [] {
    std::array<double, kRetargetTopologies> c{};
    double total = 0.0;
    for (std::size_t r = 0; r < kRetargetTopologies; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kRetargetZipf);
      c[r] = total;
    }
    for (double& v : c) v /= total;
    return c;
  }();
  const double u = unit(mix(seed, index, kRetargetSalt + 1));
  for (std::size_t r = 0; r < kRetargetTopologies; ++r) {
    if (u <= cdf[r]) return r;
  }
  return kRetargetTopologies - 1;
}

RebalanceRequest retarget_request_on(std::uint64_t seed, std::uint64_t index, std::size_t topo) {
  constexpr std::size_t m = 8;
  RebalanceRequest r;
  r.task_counts.assign(m, 8);
  r.task_counts[topo % m] += 1 + static_cast<std::int64_t>(topo / m);
  r.task_loads.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    // The topology universe (base loads, one hot process) is the same for
    // every seed; the seed moves the draws and the +-10% drift per request.
    double base = 1.0 + unit(mix(0, topo, kRetargetSalt + 3 + j));
    if (j == topo % m) base *= 3.0;
    const double drift = 1.0 + 0.2 * (unit(mix(seed, index, kRetargetSalt + 100 + j)) - 0.5);
    r.task_loads[j] = wire_round(base * drift);
  }
  r.k = 8;
  r.hybrid.sweeps = 50;
  r.hybrid.num_restarts = 1;
  r.hybrid.seed = static_cast<std::uint64_t>(request_seed(seed, index, kRetargetSalt));
  return r;
}

RebalanceRequest retarget_request(std::uint64_t seed, std::uint64_t index) {
  return retarget_request_on(seed, index, retarget_topology(seed, index));
}

RebalanceRequest cold_request(std::uint64_t seed, std::uint64_t index) {
  if (index >= kColdIndexLimit) throw std::out_of_range("cold_request: index too large");
  constexpr std::size_t m = 16;
  RebalanceRequest r;
  r.task_counts.resize(m);
  std::uint64_t rest = index;
  for (std::size_t j = 0; j < m; ++j) {
    std::uint64_t digit;
    if (j < 5) {
      digit = rest % 17;
      rest /= 17;
    } else {
      digit = mix(seed, index, kColdSalt + j) % 17;
    }
    r.task_counts[j] = 56 + static_cast<std::int64_t>(digit);
  }
  const std::size_t hot_a = mix(seed, index, kColdSalt + 50) % m;
  const std::size_t hot_b = mix(seed, index, kColdSalt + 51) % m;
  r.task_loads.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    double w = 1.0 + 2.0 * unit(mix(seed, index, kColdSalt + 100 + j));
    if (j == hot_a || j == hot_b) w *= 3.0;
    r.task_loads[j] = wire_round(w);
  }
  // The paper's protocol: bound the solve by ProactLB's migration count k1.
  r.k = std::max<std::int64_t>(1, qulrb::lrp::select_k(problem_of(r)).k1);
  r.hybrid.sweeps = 20;
  r.hybrid.num_restarts = 1;
  r.hybrid.seed = static_cast<std::uint64_t>(request_seed(seed, index, kColdSalt));
  return r;
}

qulrb::lrp::LrpProblem problem_of(const RebalanceRequest& request) {
  return qulrb::lrp::LrpProblem(request.task_loads, request.task_counts);
}

}  // namespace perfbench
