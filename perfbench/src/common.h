// Shared plumbing of the end-to-end benchmark: run options, statistics,
// the result record every workload fills, the span tracer of the traced
// mode, and the correctness checks (which the self-test also drives).

#ifndef CDCL_PERFBENCH_COMMON_H_
#define CDCL_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cl/metrics.h"
#include "models/compact_transformer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `start`.
double SecondsSince(Clock::time_point start);

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON (traced mode)
  std::string work_dir;   // scratch directory for checkpoints
};

/// Time the process started (a static initializer of the benchmark binary),
/// the zero point of `setup_s`.
Clock::time_point ProcessStart();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1] (0 when empty).
double Percentile(std::vector<double> values, double q);

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

/// Derives a per-purpose seed from the run seed, so inputs change with
/// `--seed` and two purposes never share a stream.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

// ---------------------------------------------------------------------------
// Traced mode: spans recorded around the calls the benchmark makes into each
// module. Spans stay in memory and are written once, at the end, as Chrome
// trace-event JSON. A span's self time is its duration minus the time its
// child spans (same thread, nested inside it) cover.
// ---------------------------------------------------------------------------
class Tracer {
 public:
  /// Process-wide tracer; disabled unless Enable() was called.
  static Tracer& Get();
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t id = 0;
    int64_t parent = -1;  // id of the enclosing span on the same thread
    uint64_t thread = 0;
  };

  int64_t Begin(const std::string& name);
  void End(int64_t id);

  /// Self time (ms) of every finished span, grouped by name.
  std::map<std::string, std::vector<double>> SelfTimesMs() const;
  size_t span_count() const;
  /// Writes the Chrome trace-event JSON. False on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Tracer() = default;
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index == id
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  explicit ScopedSpan(const std::string& name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_ = -1;
};

// ---------------------------------------------------------------------------
// Result of one run.
// ---------------------------------------------------------------------------
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// First failed check, printed to stderr by main.
  std::vector<std::string> failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed check. `detail` is a check's "expected ... actual ..."
  /// description.
  void Fail(const std::string& workload, const std::string& operation,
            const std::string& detail);
};

// ---------------------------------------------------------------------------
// Correctness checks. Each returns an empty string when the output is right
// and otherwise a description "expected ... actual ...". None of them reads
// a time, a batch size, or which snapshot happened to answer: each holds on
// every thread interleaving. perfbench/src/selftest.cc feeds each one a
// deliberately wrong output.
// ---------------------------------------------------------------------------

/// Bitwise equality of two float payloads (a served response against its
/// reference eval).
std::string CheckBitwiseEqual(const std::vector<float>& expected,
                              const std::vector<float>& actual);

/// Bitwise equality of every named parameter of two models.
std::string CheckParametersEqual(const cdcl::models::CompactTransformer& expected,
                                 const cdcl::models::CompactTransformer& actual);

/// Bitwise equality of two accuracy matrices over their lower triangle.
std::string CheckMatricesEqual(const cdcl::cl::AccuracyMatrix& expected,
                               const cdcl::cl::AccuracyMatrix& actual);

/// Row `row` of `matrix` equals `values` bitwise.
std::string CheckRowEquals(const cdcl::cl::AccuracyMatrix& matrix, int64_t row,
                           const std::vector<double>& values);

/// Every step loss is finite.
std::string CheckLossesFinite(const std::vector<float>& losses);

/// Accuracy strictly above chance.
std::string CheckAboveChance(double accuracy, double chance);

/// `version` names a snapshot that a publish produced.
std::string CheckVersionPublished(
    uint32_t version, const std::map<uint32_t, int64_t>& published_tasks);

/// Exact count.
std::string CheckCount(const char* what, int64_t expected, int64_t actual);

/// Formats a double with all its digits.
std::string FormatDouble(double value);

}  // namespace perfbench

#endif  // CDCL_PERFBENCH_COMMON_H_
