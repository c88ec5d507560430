// Seeded mutational fuzzing of the wire-facing parsers: every line a client
// or backend can send ends up in one of these four functions. The corpus is
// what the protocol's own encoders emit; each iteration applies a few random
// byte-level and structural mutations with a fixed seed, so a failure
// reproduces exactly. The contract under test: every input either returns
// or throws util::InvalidArgument — never another exception, and (under the
// sanitizer build) never a memory or UB error.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "io/json_value.hpp"
#include "router/coalesce.hpp"
#include "router/router.hpp"
#include "service/protocol.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qulrb {
namespace {

constexpr std::uint64_t kSeed = 0xF022u;
constexpr int kIterations = 20000;

std::vector<std::string> corpus() {
  service::RebalanceRequest request;
  request.task_loads = {10.0, 2.5, 2.0, 2.0};
  request.task_counts = {8, 8, 8, 8};
  request.k = 6;
  request.priority = 2;
  request.deadline_ms = 50.0;
  request.hybrid.sweeps = 300;
  request.hybrid.num_restarts = 2;
  request.hybrid.seed = 7;
  request.trace_id = 42;
  request.router_ms = 0.25;
  request.simulate = true;

  service::RebalanceResponse ok;
  ok.outcome = service::RequestOutcome::kOk;
  ok.feasible = true;
  ok.metrics.imbalance_after = 0.125;
  lrp::MigrationPlan plan(3);
  plan.set_count(0, 1, 3);
  ok.plan = plan;
  service::RebalanceResponse rejected;
  rejected.outcome = service::RequestOutcome::kRejected;
  rejected.error = "queue full";

  return {
      service::encode_solve_request(request, 5, /*include_plan=*/true),
      service::encode_response(5, ok, /*include_plan=*/true),
      service::encode_response(6, rejected, /*include_plan=*/false),
      service::encode_stats(service::ServiceStats{}),
      service::encode_health(3, 1, 0.5),
      service::encode_metrics("# HELP x help\n# TYPE x counter\nx 1\n"),
      service::encode_traces({R"({"traceEvents":[{"name":"a","ts":1}]})"}),
      service::encode_obs_request(7),
      service::encode_obs_response(7, R"({"role":"serve","registry":[]})"),
      service::encode_flight_dump_request(3, 1.5, 42),
      service::encode_flight_response(3, R"({"traceEvents":[]})"),
      service::encode_profile_request(4, 2.0),
      service::encode_profile_response(4, "null"),
      service::encode_error("bad \"thing\"\n", 9),
      R"({"op":"trace","n":4})",
      R"({"op":"cancel","id":7})",
  };
}

/// Bytes that steer a JSON parser into its interesting branches.
const std::string kAlphabet = "{}[]\":,\\-+.0123456789eEtrufalsn \t\r\x01\x7f\xff";
/// Literals at the edges of what the number and string paths accept.
const std::vector<std::string> kTokens = {
    "1e309", "-1e309", "9223372036854775808", "-9223372036854775809", "1e19",
    "-0", "1e-400", "0.5", "\"\\u0000\"", "\"\\ud800\"", "\"\\u12\"", "null",
    "\"id\":", "\"stats\":", "\"op\":\"solve\"", "\"loads\":[", "\"counts\":["};

class Mutator {
 public:
  explicit Mutator(const std::vector<std::string>& corpus)
      : corpus_(corpus), rng_(kSeed) {}

  std::string next() {
    std::string s = corpus_[pick(corpus_.size())];
    const std::size_t rounds = 1 + pick(4);
    for (std::size_t r = 0; r < rounds; ++r) mutate(s);
    return s;
  }

 private:
  std::size_t pick(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_.next_below(n));
  }

  void mutate(std::string& s) {
    const std::size_t at = pick(s.size() + 1);
    switch (pick(8)) {
      case 0:  // flip one bit
        if (!s.empty()) {
          s[at % s.size()] = static_cast<char>(
              s[at % s.size()] ^ static_cast<char>(1u << pick(8)));
        }
        break;
      case 1:  // insert a JSON-significant byte
        s.insert(at, 1, kAlphabet[pick(kAlphabet.size())]);
        break;
      case 2:  // delete a range
        s.erase(at, 1 + pick(16));
        break;
      case 3: {  // duplicate a range in place
        const std::string piece = s.substr(at, 1 + pick(32));
        s.insert(at, piece);
        break;
      }
      case 4: {  // splice: our prefix, another entry's suffix
        const std::string& other = corpus_[pick(corpus_.size())];
        s = s.substr(0, at) + other.substr(pick(other.size() + 1));
        break;
      }
      case 5: {  // nest past the parser's depth cap
        const std::size_t depth = 1 + pick(2 * io::JsonValue::kMaxDepth);
        const std::string open = pick(2) == 0 ? "[" : "{\"a\":";
        std::string run;
        for (std::size_t d = 0; d < depth; ++d) run += open;
        s.insert(at, run);
        break;
      }
      case 6:  // insert an edge-case literal
        s.insert(at, kTokens[pick(kTokens.size())]);
        break;
      default:  // truncate
        s.resize(at);
        break;
    }
  }

  const std::vector<std::string>& corpus_;
  util::Rng rng_;
};

/// Feed kIterations mutants to `target`. It may return or throw
/// util::InvalidArgument; anything else fails the test with the input.
void fuzz(const std::function<void(const std::string&)>& target) {
  const std::vector<std::string> seeds = corpus();
  Mutator mutator(seeds);
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = mutator.next();
    try {
      target(input);
    } catch (const util::InvalidArgument&) {
      // rejected cleanly
    } catch (const std::exception& e) {
      FAIL() << "iteration " << i << " threw " << e.what() << " on: " << input;
    }
  }
}

TEST(Fuzz, CorpusLinesAreValidJson) {
  for (const std::string& line : corpus()) {
    EXPECT_NO_THROW(io::JsonValue::parse(line)) << line;
  }
}

TEST(Fuzz, ParseRequestLine) {
  fuzz([](const std::string& line) { (void)service::parse_request_line(line); });
}

TEST(Fuzz, JsonValueParse) {
  fuzz([](const std::string& line) { (void)io::JsonValue::parse(line); });
}

TEST(Fuzz, ExtractRawField) {
  fuzz([](const std::string& line) {
    for (const char* key : {"stats", "traces", "profile", "flight", "obs", "id"}) {
      const std::string raw = router::extract_raw_field(line, key);
      // The splice is a verbatim slice of the line, never invented bytes.
      ASSERT_NE(line.find(raw), std::string::npos) << key << " in " << line;
    }
  });
}

TEST(Fuzz, RewriteResponseId) {
  fuzz([](const std::string& line) {
    const std::string out = router::rewrite_response_id(line, 123456789);
    // Either the id was spliced in, or the line passed through untouched.
    ASSERT_TRUE(out == line || out.find("123456789") != std::string::npos)
        << line;
  });
}

}  // namespace
}  // namespace qulrb
