#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "anneal/simd.hpp"
#include "obs/build_info.hpp"

namespace perfbench {

double now_ms() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double, std::milli>(clock::now() - epoch).count();
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[idx - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double tail_percentile(std::size_t n) {
  static const double kLadder[] = {99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    // Samples strictly beyond the nearest-rank p-th percentile.
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

Summary summarize_at(const std::vector<double>& values, double tail_pct) {
  Summary s;
  s.n = values.size();
  s.p50 = median(values);
  s.tail_pct = tail_pct;
  s.tail = tail_pct > 0.0 ? percentile(values, tail_pct)
                          : (values.empty() ? 0.0 : *std::max_element(values.begin(), values.end()));
  return s;
}

Summary summarize(const std::vector<double>& values) {
  return summarize_at(values, tail_percentile(values.size()));
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

namespace {

std::string full_digits(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(entries_[i].name) + ":{\"value\":" + full_digits(entries_[i].value) +
           ",\"unit\":" + json_string(entries_[i].unit) + "}";
  }
  return out + "}";
}

std::string Metrics::text() const {
  std::ostringstream out;
  for (const Entry& e : entries_) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", e.value);
    out << "  " << e.name << " = " << buf << " " << e.unit << "\n";
  }
  return out.str();
}

std::uint64_t SpanLog::add(const std::string& name, std::uint64_t trace_id,
                           std::uint64_t parent, double start_ms, double end_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, trace_id, id, parent, start_ms, end_ms});
  return id;
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",\n";
    char ts[64];
    std::snprintf(ts, sizeof(ts), "\"ts\":%.3f,\"dur\":%.3f", s.start_ms * 1e3,
                  (s.end_ms - s.start_ms) * 1e3);
    out << "{\"name\":" << json_string(s.name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.trace_id << "," << ts << ",\"args\":{\"trace_id\":" << s.trace_id
        << ",\"span_id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::uint64_t trace_id,
                       std::uint64_t parent)
    : log_(log), name_(std::move(name)), trace_id_(trace_id), parent_(parent),
      start_ms_(now_ms()) {}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->add(name_, trace_id_, parent_, start_ms_, now_ms());
}

double ScopedSpan::elapsed_ms() const { return now_ms() - start_ms_; }

std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double load_average_1m() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  in >> load;
  return load;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string machine_context_json(double load_before, const std::string& source_digest) {
  using qulrb::anneal::simd::active_level;
  using qulrb::anneal::simd::level_name;
  const qulrb::obs::BuildInfo info = qulrb::obs::build_info(level_name(active_level()));
  std::ostringstream out;
  out << "{\"nproc\":" << hardware_threads() << ",\"cpu_model\":" << json_string(cpu_model())
      << ",\"loadavg_before\":" << full_digits(load_before)
      << ",\"loadavg_after\":" << full_digits(load_average_1m())
      << ",\"build_type\":" << json_string(info.build_type)
      << ",\"simd\":" << json_string(info.simd_level)
      << ",\"version\":" << json_string(info.version)
      << ",\"revision\":" << json_string(info.revision)
      << ",\"source_digest\":" << json_string(source_digest) << "}";
  return out.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
