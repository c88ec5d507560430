#pragma once

// Pieces every workload of the benchmark shares: clocks, the percentile rule,
// the metric set a run prints, the benchmark's own span log, and the machine
// context recorded with every result.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock milliseconds since an arbitrary process-wide epoch.
double now_ms();

/// User plus system CPU seconds consumed by this process so far.
double process_cpu_s();

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);

/// The percentile rule: the highest percentile of a fixed ladder
/// (99.9, 99.5, 99, 98, 97.5, 95, 90, 75, 50) that leaves at least ten of `n`
/// samples beyond it. 0 when n < 20, i.e. no percentile is resolvable.
double tail_percentile(std::size_t n);

/// A timing as the percentile rule reports it: median, the resolvable tail
/// percentile and its value (the maximum when no percentile is resolvable),
/// and the sample count.
struct Summary {
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
  std::size_t n = 0;
};
Summary summarize(const std::vector<double>& values);
/// Like summarize(), but the tail percentile is fixed by a planned sample
/// count, so every run of a workload reports the same percentile.
Summary summarize_at(const std::vector<double>& values, double tail_pct);

/// Ordered name -> (value, unit) list, printed as the result's "metrics".
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"name":{"value":v,"unit":"u"},...} with every digit of each value.
  std::string json() const;
  /// One "name = value unit" line per metric.
  std::string text() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The benchmark's own spans, kept in memory and written out as one Chrome
/// trace-event document when the run ends. Spans of one request share a
/// trace id; `parent` is the span that caused this one (0 = root).
class SpanLog {
 public:
  std::uint64_t add(const std::string& name, std::uint64_t trace_id,
                    std::uint64_t parent, double start_ms, double end_ms);
  /// Write {"traceEvents":[...]} to `path`; false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t trace_id;
    std::uint64_t id;
    std::uint64_t parent;
    double start_ms;
    double end_ms;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times one layer call and records it as a span on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t trace_id,
             std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Milliseconds since the span opened.
  double elapsed_ms() const;

 private:
  SpanLog* log_;
  std::string name_;
  std::uint64_t trace_id_;
  std::uint64_t parent_;
  double start_ms_;
};

/// Number of hardware threads (`nproc`), at least 1.
std::size_t hardware_threads();

/// {"nproc":..,"cpu_model":..,"loadavg":..,...} for the run's record.
/// `load_before` is the 1-minute load average sampled at start;
/// `source_digest` identifies the sources built (the checkout may not be a
/// git repository, so the stamped revision can read "unknown").
std::string machine_context_json(double load_before, const std::string& source_digest);
double load_average_1m();

/// Escape `s` as a JSON string literal (with quotes).
std::string json_string(const std::string& s);

}  // namespace perfbench
