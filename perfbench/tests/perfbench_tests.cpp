// Tests of the benchmark's own code: the percentile rule, the plan checks,
// and the fleet request generators.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common.hpp"
#include "io/json_value.hpp"
#include "lrp/plan.hpp"
#include "plan_check.hpp"
#include "requests.hpp"

namespace perfbench {
namespace {

using qulrb::lrp::LrpProblem;
using qulrb::lrp::MigrationPlan;

TEST(PercentileRule, KeepsTenSamplesBeyondTheTail) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(400), 97.5);
  EXPECT_EQ(tail_percentile(999), 98.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  // The rule's promise, checked against the nearest-rank percentile itself.
  for (std::size_t n : {20u, 57u, 100u, 399u, 400u, 504u, 999u, 1000u, 1540u, 2000u}) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    const Summary s = summarize(v);
    std::size_t beyond = 0;
    for (double x : v) beyond += x > s.tail ? 1 : 0;
    EXPECT_GE(beyond, 10u) << "n=" << n;
    EXPECT_EQ(s.n, n);
  }
}

TEST(PercentileRule, NearestRankAndUnresolvableTail) {
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile({3, 1, 2}, 50), 2.0);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 50), 2.0);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 100), 4.0);
  const Summary few = summarize({5, 1, 9});
  EXPECT_EQ(few.tail_pct, 0.0);
  EXPECT_EQ(few.tail, 9.0);  // the maximum stands in when no percentile resolves
  EXPECT_EQ(few.p50, 5.0);
}

LrpProblem small_problem() { return LrpProblem({4.0, 1.0, 1.0}, {3, 3, 3}); }

MigrationPlan good_plan() {
  // Two tasks leave process 0: one to process 1, one to process 2.
  MigrationPlan plan(3);
  plan.set_count(0, 0, 1);
  plan.set_count(1, 0, 1);
  plan.set_count(2, 0, 1);
  plan.set_count(1, 1, 3);
  plan.set_count(2, 2, 3);
  return plan;
}

TEST(PlanCheck, AcceptsAValidPlanAndMatchingImbalance) {
  const PlanCheck ok = check_plan(small_problem(), good_plan(), 2);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.migrated, 2);
  EXPECT_TRUE(check_plan(small_problem(), good_plan(), 2, ok.r_imb).ok);
}

TEST(PlanCheck, RejectsCorruptedPlans) {
  MigrationPlan lost = good_plan();
  lost.set_count(2, 0, 0);  // a task of process 0 vanishes
  EXPECT_FALSE(check_plan(small_problem(), lost, 2).ok);

  MigrationPlan invented = good_plan();
  invented.add_count(1, 1, 1);  // a task appears on process 1
  EXPECT_FALSE(check_plan(small_problem(), invented, 2).ok);

  MigrationPlan negative = good_plan();
  negative.set_count(0, 0, -1);
  negative.set_count(1, 0, 3);
  EXPECT_FALSE(check_plan(small_problem(), negative, 5).ok);

  EXPECT_FALSE(check_plan(small_problem(), good_plan(), 1).ok);  // exceeds k

  const double r = check_plan(small_problem(), good_plan(), 2).r_imb;
  const PlanCheck wrong = check_plan(small_problem(), good_plan(), 2, r + 1e-3);
  EXPECT_FALSE(wrong.ok);
  EXPECT_NE(wrong.error.find("imbalance_after"), std::string::npos);

  EXPECT_FALSE(check_plan(small_problem(), MigrationPlan(2), 2).ok);  // wrong shape
}

TEST(PlanCheck, ParsesWirePlansAndHashesByContent) {
  const auto doc = qulrb::io::JsonValue::parse("[[1,0,0],[1,3,0],[1,0,3]]");
  const auto plan = plan_from_json(doc, 3);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan_hash(*plan), plan_hash(good_plan()));
  MigrationPlan other = good_plan();
  other.set_count(0, 0, 2);
  EXPECT_NE(plan_hash(other), plan_hash(good_plan()));
  EXPECT_FALSE(plan_from_json(qulrb::io::JsonValue::parse("[[1,0],[0,1]]"), 3).has_value());
  EXPECT_FALSE(plan_from_json(qulrb::io::JsonValue::parse("[[1.5,0,0],[1,3,0],[1,0,3]]"), 3)
                   .has_value());
}

TEST(Requests, ColdTopologiesAreAllDistinct) {
  std::set<std::vector<std::int64_t>> seen;
  const std::uint64_t seed = 7;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const auto r = cold_request(seed, i);
    ASSERT_EQ(r.task_counts.size(), 16u);
    for (auto n : r.task_counts) {
      EXPECT_GE(n, 56);
      EXPECT_LE(n, 72);
    }
    EXPECT_TRUE(seen.insert(r.task_counts).second) << "index " << i << " repeats a topology";
  }
  for (std::uint64_t w = 0; w < 8; ++w) {
    EXPECT_TRUE(seen.insert(cold_request(seed, kWarmupIndexBase + w).task_counts).second)
        << "warm-up request " << w << " repeats a measured topology";
  }
  EXPECT_THROW(cold_request(seed, kColdIndexLimit), std::out_of_range);
}

TEST(Requests, SameSeedSameInputs) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(cold_request(3, i).task_loads, cold_request(3, i).task_loads);
    EXPECT_EQ(retarget_request(3, i).task_loads, retarget_request(3, i).task_loads);
    EXPECT_EQ(retarget_request(3, i).hybrid.seed, retarget_request(3, i).hybrid.seed);
  }
  EXPECT_NE(cold_request(3, 0).task_loads, cold_request(4, 0).task_loads);
}

TEST(Requests, RetargetDrawsSixteenTopologiesWithDriftingLoads) {
  std::set<std::vector<std::int64_t>> topologies;
  std::vector<std::size_t> hits(kRetargetTopologies, 0);
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const auto r = retarget_request(11, i);
    topologies.insert(r.task_counts);
    ++hits[retarget_topology(11, i)];
  }
  EXPECT_EQ(topologies.size(), kRetargetTopologies);
  // Zipf(1.1): the most popular topology is drawn far more often than the
  // least popular one.
  const auto [lo, hi] = std::minmax_element(hits.begin(), hits.end());
  EXPECT_GT(*hi, 8 * *lo);
  // Same topology, different loads: the session cache retargets.
  std::uint64_t j = 1;
  while (retarget_topology(11, j) != retarget_topology(11, 0)) ++j;
  EXPECT_EQ(retarget_request(11, 0).task_counts, retarget_request(11, j).task_counts);
  EXPECT_NE(retarget_request(11, 0).task_loads, retarget_request(11, j).task_loads);
}

}  // namespace
}  // namespace perfbench
