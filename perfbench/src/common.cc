#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

// Initialized before main() runs: the closest in-process point to exec.
const Clock::time_point g_process_start = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - g_process_start)
      .count();
}

uint64_t ThreadTag() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t tag = next.fetch_add(1);
  return tag;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open_spans;

std::string Bits(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g (0x%08x)", static_cast<double>(value),
                bits);
  return buf;
}

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Clock::time_point ProcessStart() { return g_process_start; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::max(1.0, rank)) - 1;  // nearest rank
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  // splitmix64 finalizer over (seed, purpose).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % 1000000007ULL + 1;
}

// --- Tracer ----------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.thread = ThreadTag();
  span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(span));
  t_open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  const int64_t now = NowNs();
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& span : spans_) {
    const int64_t self =
        span.end_ns - span.start_ns - child_ns[static_cast<size_t>(span.id)];
    out[span.name].push_back(static_cast<double>(self) * 1e-6);
  }
  return out;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld}}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.thread),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (Tracer::Get().enabled()) id_ = Tracer::Get().Begin(name);
}

ScopedSpan::ScopedSpan(const std::string& name) {
  if (Tracer::Get().enabled()) id_ = Tracer::Get().Begin(name);
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) Tracer::Get().End(id_);
}

// --- Result ------------------------------------------------------------------

void RunResult::Fail(const std::string& workload, const std::string& operation,
                     const std::string& detail) {
  correct = false;
  if (failures.size() < 8) {
    failures.push_back("CHECK FAILED workload=" + workload +
                       " operation=" + operation + ": " + detail);
  }
}

// --- Checks ------------------------------------------------------------------

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string CheckBitwiseEqual(const std::vector<float>& expected,
                              const std::vector<float>& actual) {
  if (expected.size() != actual.size()) {
    return "expected " + std::to_string(expected.size()) + " values, actual " +
           std::to_string(actual.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (std::memcmp(&expected[i], &actual[i], sizeof(float)) != 0) {
      return "value[" + std::to_string(i) + "]: expected " + Bits(expected[i]) +
             " actual " + Bits(actual[i]);
    }
  }
  return "";
}

std::string CheckParametersEqual(const cdcl::models::CompactTransformer& expected,
                                 const cdcl::models::CompactTransformer& actual) {
  const auto want = expected.NamedParameters();
  const auto got = actual.NamedParameters();
  if (want.size() != got.size()) {
    return "expected " + std::to_string(want.size()) + " parameters, actual " +
           std::to_string(got.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].name != got[i].name) {
      return "parameter " + std::to_string(i) + ": expected name " +
             want[i].name + " actual " + got[i].name;
    }
    const int64_t n = want[i].tensor.NumElements();
    if (got[i].tensor.NumElements() != n) {
      return want[i].name + ": expected " + std::to_string(n) +
             " elements, actual " +
             std::to_string(got[i].tensor.NumElements());
    }
    const float* a = want[i].tensor.data();
    const float* b = got[i].tensor.data();
    for (int64_t j = 0; j < n; ++j) {
      if (std::memcmp(a + j, b + j, sizeof(float)) != 0) {
        return want[i].name + "[" + std::to_string(j) + "]: expected " +
               Bits(a[j]) + " actual " + Bits(b[j]);
      }
    }
  }
  return "";
}

std::string CheckMatricesEqual(const cdcl::cl::AccuracyMatrix& expected,
                               const cdcl::cl::AccuracyMatrix& actual) {
  if (expected.num_tasks() != actual.num_tasks()) {
    return "expected " + std::to_string(expected.num_tasks()) +
           " tasks, actual " + std::to_string(actual.num_tasks());
  }
  for (int64_t i = 0; i < expected.num_tasks(); ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      const double a = expected.Get(i, j);
      const double b = actual.Get(i, j);
      if (std::memcmp(&a, &b, sizeof(double)) != 0) {
        return "R[" + std::to_string(i) + "][" + std::to_string(j) +
               "]: expected " + FormatDouble(a) + " actual " + FormatDouble(b);
      }
    }
  }
  return "";
}

std::string CheckRowEquals(const cdcl::cl::AccuracyMatrix& matrix, int64_t row,
                           const std::vector<double>& values) {
  for (size_t j = 0; j < values.size(); ++j) {
    const double a = matrix.Get(row, static_cast<int64_t>(j));
    if (std::memcmp(&a, &values[j], sizeof(double)) != 0) {
      return "R[" + std::to_string(row) + "][" + std::to_string(j) +
             "]: expected " + FormatDouble(a) + " actual " +
             FormatDouble(values[j]);
    }
  }
  return "";
}

std::string CheckLossesFinite(const std::vector<float>& losses) {
  if (losses.empty()) return "expected step losses, actual none";
  for (size_t i = 0; i < losses.size(); ++i) {
    if (!std::isfinite(losses[i])) {
      return "loss[" + std::to_string(i) + "]: expected finite, actual " +
             Bits(losses[i]);
    }
  }
  return "";
}

std::string CheckAboveChance(double accuracy, double chance) {
  if (accuracy > chance) return "";
  return "expected accuracy > " + FormatDouble(chance) + ", actual " +
         FormatDouble(accuracy);
}

std::string CheckVersionPublished(
    uint32_t version, const std::map<uint32_t, int64_t>& published_tasks) {
  if (published_tasks.count(version) > 0) return "";
  std::ostringstream want;
  for (const auto& [v, tasks] : published_tasks) want << v << "/";
  return "expected one of published versions " + want.str() + " actual " +
         std::to_string(version);
}

std::string CheckCount(const char* what, int64_t expected, int64_t actual) {
  if (expected == actual) return "";
  return std::string(what) + ": expected " + std::to_string(expected) +
         " actual " + std::to_string(actual);
}

}  // namespace perfbench
