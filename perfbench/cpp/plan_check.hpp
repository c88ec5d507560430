#pragma once

// Output checks the benchmark applies to every plan the program returns.

#include <cstdint>
#include <optional>
#include <string>

#include "io/json_value.hpp"
#include "lrp/plan.hpp"
#include "lrp/problem.hpp"

namespace perfbench {

struct PlanCheck {
  bool ok = false;
  std::string error;         ///< first violated rule (empty when ok)
  double r_imb = 0.0;        ///< lrp::evaluate_plan's R_imb of the plan
  std::int64_t migrated = 0;
};

/// Check `plan` for `problem` under migration bound `k`: every entry is
/// non-negative, column j sums to process j's task count (no task lost or
/// invented), at most `k` tasks migrate, and, when `reported_rimb` is given,
/// the R_imb recomputed with lrp::evaluate_plan matches it.
PlanCheck check_plan(const qulrb::lrp::LrpProblem& problem,
                     const qulrb::lrp::MigrationPlan& plan, std::int64_t k,
                     std::optional<double> reported_rimb = std::nullopt);

/// The "plan" array of a solve response as a MigrationPlan; nullopt when it
/// is missing or not an m x m array of integers.
std::optional<qulrb::lrp::MigrationPlan> plan_from_json(const qulrb::io::JsonValue& plan,
                                                         std::size_t m);

/// FNV-1a over the plan's entries: equal plans hash equal.
std::uint64_t plan_hash(const qulrb::lrp::MigrationPlan& plan);

}  // namespace perfbench
