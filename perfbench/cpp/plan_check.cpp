#include "plan_check.hpp"

#include <cmath>

#include "lrp/metrics.hpp"

namespace perfbench {

using qulrb::lrp::LrpProblem;
using qulrb::lrp::MigrationPlan;

PlanCheck check_plan(const LrpProblem& problem, const MigrationPlan& plan, std::int64_t k,
                     std::optional<double> reported_rimb) {
  PlanCheck out;
  const std::size_t m = problem.num_processes();
  if (plan.num_processes() != m) {
    out.error = "plan is " + std::to_string(plan.num_processes()) + "x" +
                std::to_string(plan.num_processes()) + " for M=" + std::to_string(m);
    return out;
  }
  for (std::size_t from = 0; from < m; ++from) {
    std::int64_t column = 0;
    for (std::size_t to = 0; to < m; ++to) {
      const std::int64_t x = plan.count(to, from);
      if (x < 0) {
        out.error = "negative entry at (" + std::to_string(to) + "," + std::to_string(from) + ")";
        return out;
      }
      column += x;
      if (to != from) out.migrated += x;
    }
    if (column != problem.tasks_on(from)) {
      out.error = "process " + std::to_string(from) + " has " + std::to_string(column) +
                  " tasks after the plan, " + std::to_string(problem.tasks_on(from)) + " before";
      return out;
    }
  }
  if (out.migrated > k) {
    out.error = "plan migrates " + std::to_string(out.migrated) + " tasks, bound k=" +
                std::to_string(k);
    return out;
  }
  out.r_imb = qulrb::lrp::evaluate_plan(problem, plan).imbalance_after;
  if (reported_rimb.has_value()) {
    // Responses carry 12 significant digits.
    const double tol = 1e-9 + 1e-9 * std::fabs(out.r_imb);
    if (!(std::fabs(*reported_rimb - out.r_imb) <= tol)) {
      out.error = "reported imbalance_after " + std::to_string(*reported_rimb) +
                  " but the plan's R_imb is " + std::to_string(out.r_imb);
      return out;
    }
  }
  out.ok = true;
  return out;
}

std::optional<MigrationPlan> plan_from_json(const qulrb::io::JsonValue& plan, std::size_t m) {
  if (!plan.is_array() || plan.as_array().size() != m) return std::nullopt;
  MigrationPlan out(m);
  for (std::size_t to = 0; to < m; ++to) {
    const qulrb::io::JsonValue& row = plan.as_array()[to];
    if (!row.is_array() || row.as_array().size() != m) return std::nullopt;
    for (std::size_t from = 0; from < m; ++from) {
      const qulrb::io::JsonValue& cell = row.as_array()[from];
      if (cell.kind() != qulrb::io::JsonValue::Kind::kNumber) return std::nullopt;
      const double v = cell.as_number();
      if (v != std::floor(v)) return std::nullopt;
      out.set_count(to, from, static_cast<std::int64_t>(v));
    }
  }
  return out;
}

std::uint64_t plan_hash(const MigrationPlan& plan) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(plan.num_processes());
  for (std::size_t to = 0; to < plan.num_processes(); ++to) {
    for (std::size_t from = 0; from < plan.num_processes(); ++from) {
      mix(static_cast<std::uint64_t>(plan.count(to, from)));
    }
  }
  return h;
}

}  // namespace perfbench
