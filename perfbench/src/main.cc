// cdcl_perfbench: runs one workload of the end-to-end benchmark and prints a
// host descriptor first and one JSON result object as the last line of its
// standard output. perfbench/run.py builds this binary and calls it; see
// perfbench/README.md.
//
//   cdcl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--trace-out <file>] [--commit <id>]
//   cdcl_perfbench --selftest --work-dir <dir>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_internal.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/kernels/vec_math.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace cdcl;  // NOLINT: benchmark brevity

struct PerLayer {
  const char* name;
  const char* unit;
};

// Every per-layer metric the traced mode reports, on every workload. A
// layer that a workload does not reach reads 0 there.
constexpr PerLayer kPerLayer[] = {
    {"core.observe_task_ms", "ms"},
    {"baselines.eval_til_ms", "ms"},
    {"baselines.eval_cil_ms", "ms"},
    {"uda.pseudo_labels_ms", "ms"},
    {"uda.pair_set_ms", "ms"},
    {"cl.replay_sample_us", "us"},
    {"optim.adamw_step_us", "us"},
    {"models.train_step_ms", "ms"},
    {"models.encode_batched_us", "us"},
    {"kernels.region_dispatch_ns", "ns"},
    {"ckpt.commit_file_ms", "ms"},
    {"ckpt.decode_ms", "ms"},
    {"ckpt.bytes", "bytes"},
    {"ckpt.restore_ms", "ms"},
    {"core.train_steps", "count"},
    {"core.pair_count", "count"},
    {"cl.memory_records", "count"},
    {"core.pseudo_label_acc", "ratio"},
    {"baselines.cell_s.DER", "s"},
    {"baselines.cell_s.DERpp", "s"},
    {"baselines.cell_s.HAL", "s"},
    {"baselines.cell_s.MSL", "s"},
    {"baselines.cell_s.CDTrans-S", "s"},
    {"baselines.cell_s.CDTrans-B", "s"},
    {"baselines.cell_s.CDCL", "s"},
    {"baselines.cell_s.TVT", "s"},
    {"baselines.longest_cell_s", "s"},
    {"kernels.fanout_busy_ratio", "ratio"},
    {"serve.engine_us_per_req.b1", "us"},
    {"serve.engine_us_per_req.bmax", "us"},
    {"serve.protocol_us_per_req", "us"},
    {"serve.mean_batch", "requests"},
    {"serve.publish_ms", "ms"},
    {"serve.live_p99_ms", "ms"},
    {"loadgen.late_ms_p99", "ms"},
    {"process.peak_rss_mb", "MB"},
    {"trace.spans", "count"},
};

// Per-layer metrics taken from the median self time of a span the workload
// recorded around its own calls.
constexpr struct {
  const char* metric;
  const char* span;
} kFromSpans[] = {
    {"core.observe_task_ms", "core.observe_task"},
    {"ckpt.restore_ms", "ckpt.restore_trainer"},
    {"serve.publish_ms", "serve.publish"},
};

const char* IsaName(bool avx512, bool avx2) {
  return avx512 ? "avx512" : avx2 ? "avx2" : "scalar";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// The host descriptor heading every report.
std::string HostDescriptor(const std::string& commit) {
  const bool avx512 = kernels::internal::Avx512Available();
  const bool avx2 = kernels::internal::Avx2Available();
  const char* gemm_kernel = "auto";
  if (kernels::GetGemmKernel() == kernels::GemmKernel::kScalar) {
    gemm_kernel = "scalar";
  } else if (kernels::GetGemmKernel() == kernels::GemmKernel::kPacked) {
    gemm_kernel = "packed";
  }
  const char* vec_isa = "scalar";
  switch (kernels::GetVecMathIsa()) {
    case kernels::VecMathIsa::kAuto:
      vec_isa = IsaName(avx512, avx2);
      break;
    case kernels::VecMathIsa::kAvx512:
      vec_isa = IsaName(avx512, false);
      break;
    case kernels::VecMathIsa::kAvx2:
      vec_isa = IsaName(false, avx2);
      break;
    case kernels::VecMathIsa::kScalar:
      break;
  }
  std::string env = "{";
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CDCL_", 5) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    if (env.size() > 1) env += ", ";
    env += "\"" + JsonEscape(std::string(*e, static_cast<size_t>(eq - *e))) + "\": \"" +
           JsonEscape(eq + 1) + "\"";
  }
  env += "}";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %u, \"threads\": %lld, \"gemm\": \"%s/%s\", "
      "\"vec_math\": \"%s/%s\", \"compiler\": \"g++ %s\", \"commit\": \"%s\", ",
      std::thread::hardware_concurrency(),
      static_cast<long long>(kernels::GetNumThreads()), gemm_kernel,
      IsaName(avx512, avx2), kernels::VecMathEnabled() ? "on" : "off", vec_isa,
      __VERSION__, JsonEscape(commit).c_str());
  return std::string(buf) + "\"cdcl_env\": " + env + "}";
}

void PrintResult(const RunResult& result, bool trace) {
  std::string out = std::string("{\"correct\": ") +
                    (result.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    const bool per_layer = name.find('.') != std::string::npos;
    if (per_layer != trace) continue;
    if (!first) out += ", ";
    first = false;
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    out += "\"" + name + "\": {\"value\": " + FormatDouble(value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string commit = "unknown";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (arg == "--commit" && has_value) {
      commit = argv[++i];
    } else {
      std::fprintf(stderr, "cdcl_perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.work_dir.empty()) {
    std::fprintf(stderr, "cdcl_perfbench: --work-dir is required\n");
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);
  if (selftest) return RunSelfTest(options.work_dir) == 0 ? 0 : 1;

  RunResult (*run)(const RunOptions&) = nullptr;
  if (options.workload == "table_digits") run = RunTableDigits;
  if (options.workload == "serve_training") run = RunServeTraining;
  if (run == nullptr) {
    std::fprintf(stderr, "cdcl_perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  std::printf("# host %s\n", HostDescriptor(commit).c_str());
  std::fflush(stdout);
  if (options.trace) Tracer::Get().Enable();
  RunResult result = run(options);
  if (options.trace) {
    std::fprintf(stderr, "traced end-to-end (compare with an untraced run "
                 "for the tracing overhead):");
    for (const auto& [name, metric] : result.metrics) {
      if (name.find('.') == std::string::npos) {
        std::fprintf(stderr, " %s=%.6g", name.c_str(), metric.value);
      }
    }
    std::fprintf(stderr, "\n");
    RunLayerProbes(options, &result);
    const auto self_ms = Tracer::Get().SelfTimesMs();
    for (const auto& entry : kFromSpans) {
      const auto it = self_ms.find(entry.span);
      if (it != self_ms.end()) result.Set(entry.metric, Median(it->second), "ms");
    }
    result.Set("trace.spans", static_cast<double>(Tracer::Get().span_count()),
               "count");
    for (const PerLayer& layer : kPerLayer) {
      if (result.metrics.count(layer.name) == 0) result.Set(layer.name, 0.0, layer.unit);
    }
    if (!options.trace_out.empty() &&
        !Tracer::Get().WriteChromeTrace(options.trace_out)) {
      std::fprintf(stderr, "cdcl_perfbench: cannot write %s\n",
                   options.trace_out.c_str());
    }
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "%s\n", failure.c_str());
  }
  PrintResult(result, options.trace);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
