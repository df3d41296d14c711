// table_digits: the Table I digits block as bench/bench_table1_digits.cc
// defines it (8 methods x 2 pairs, 5 tasks x 2 classes, d=24, 2 layers, 16
// epochs) per round. The 16 cells fan out over the kernel pool, so the
// kernels inside each cell run serially inline.

#include <algorithm>
#include <cstdio>

#include "core/driver.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/parallel.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cdcl;  // NOLINT: benchmark brevity

struct Pair {
  const char* source;
  const char* target;
};

// Metric-name form of a method name ('+' is not allowed in a metric name).
std::string MetricName(const std::string& method) {
  std::string out;
  for (char c : method) out += c == '+' ? std::string("p") : std::string(1, c);
  return out;
}

}  // namespace

RunResult RunTableDigits(const RunOptions& options) {
  const std::string kName = "table_digits";
  RunResult result;

  const std::vector<std::string> methods = {
      "DER", "DER++", "HAL", "MSL", "CDTrans-S", "CDTrans-B", "CDCL", "TVT"};
  const std::vector<Pair> pairs = {{"MN", "US"}, {"US", "MN"}};

  core::ExperimentSpec spec;
  spec.family = "digits";
  spec.num_tasks = 5;
  spec.classes_per_task = 2;
  spec.train_per_class = 24;
  spec.test_per_class = 12;
  spec.seed = SubSeed(options.seed, 3);
  baselines::TrainerOptions trainer_options;
  trainer_options.model.channels = 1;
  trainer_options.model.embed_dim = 24;
  trainer_options.model.num_layers = 2;
  trainer_options.epochs = 16;
  trainer_options.warmup_epochs = 5;
  trainer_options.memory_size = 100;

  struct Cell {
    std::string method;
    size_t pair;
  };
  std::vector<Cell> cells;
  for (const std::string& method : methods) {
    for (size_t p = 0; p < pairs.size(); ++p) cells.push_back({method, p});
  }
  auto cell_spec = [&](size_t pair) {
    core::ExperimentSpec s = spec;
    s.source_domain = pairs[pair].source;
    s.target_domain = pairs[pair].target;
    return s;
  };

  // Set-up: the reference for determinism property #1, the CDCL MN->US
  // cell run outside the fan-out, so its kernels run in parallel. Every
  // round's inline run of that cell must give the same matrices bit for bit.
  const Result<cl::ContinualResult> reference =
      core::RunMethodOnPair("CDCL", cell_spec(0), trainer_options);
  if (!reference.ok()) {
    result.Fail(kName, "CDCL MN->US reference run",
                "expected ok, actual " + reference.status().ToString());
    return result;
  }

  const int64_t threads = kernels::GetNumThreads();
  std::vector<double> round_s, mean_cell_ms, longest_s, busy_ratio;
  std::map<std::string, std::vector<double>> method_s;
  double lowest_cdcl_til = 1.0;
  const double setup_s = SecondsSince(ProcessStart());

  const Clock::time_point run_start = Clock::now();
  int64_t round = 0;
  while (round == 0 || SecondsSince(run_start) < options.seconds) {
    ScopedSpan round_span("round");
    std::vector<double> seconds(cells.size(), 0.0);
    std::vector<Result<cl::ContinualResult>> runs(
        cells.size(), Status::Internal("cell did not run"));
    const Clock::time_point start = Clock::now();
    kernels::ParallelFor(static_cast<int64_t>(cells.size()), 1, [&](int64_t i) {
      const Cell& cell = cells[static_cast<size_t>(i)];
      ScopedSpan span("baselines.cell." + MetricName(cell.method));
      const Clock::time_point cell_start = Clock::now();
      runs[static_cast<size_t>(i)] =
          core::RunMethodOnPair(cell.method, cell_spec(cell.pair),
                                trainer_options);
      seconds[static_cast<size_t>(i)] = SecondsSince(cell_start);
    });
    const double table_s = SecondsSince(start);
    round_s.push_back(table_s);

    // Checks (untimed).
    double busy = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      const std::string op = "round " + std::to_string(round) + " " +
                             cell.method + " " + pairs[cell.pair].source +
                             "->" + pairs[cell.pair].target;
      ++result.attempted;
      busy += seconds[i];
      method_s[MetricName(cell.method)].push_back(seconds[i]);
      if (!runs[i].ok()) {
        ++result.failed;
        result.Fail(kName, op, "expected ok, actual " + runs[i].status().ToString());
        continue;
      }
      if (cell.method != "CDCL") continue;
      lowest_cdcl_til = std::min(lowest_cdcl_til, runs[i]->til_acc());
      std::string bad = CheckAboveChance(runs[i]->til_acc(), 0.5);
      if (!bad.empty()) result.Fail(kName, op + " TIL ACC", bad);
      if (cell.pair != 0) continue;
      bad = CheckMatricesEqual(reference->til, runs[i]->til);
      if (!bad.empty()) result.Fail(kName, op + " TIL matrix", bad);
      bad = CheckMatricesEqual(reference->cil, runs[i]->cil);
      if (!bad.empty()) result.Fail(kName, op + " CIL matrix", bad);
    }
    mean_cell_ms.push_back(busy * 1e3 / static_cast<double>(cells.size()));
    longest_s.push_back(*std::max_element(seconds.begin(), seconds.end()));
    busy_ratio.push_back(busy / (table_s * static_cast<double>(threads)));
    // Memory of set-up plus one round: later rounds repeat the same work.
    if (round == 0) result.Set("process.peak_rss_mb", PeakRssMb(), "MB");
    ++round;
  }

  std::fprintf(stderr, "table_digits: %lld rounds, median table %.4f s, "
               "median mean cell %.4f ms, %lld pool threads, lowest CDCL TIL "
               "ACC %.4f\n",
               static_cast<long long>(round), Median(round_s),
               Median(mean_cell_ms), static_cast<long long>(threads),
               lowest_cdcl_til);

  result.Set("setup_s", setup_s, "s");
  result.Set("round_s", Median(round_s), "s");
  result.Set("p50_ms", Median(mean_cell_ms), "ms");
  if (options.trace) {
    for (const auto& [method, values] : method_s) {
      result.Set("baselines.cell_s." + method, Median(values), "s");
    }
    result.Set("baselines.longest_cell_s", Median(longest_s), "s");
    result.Set("kernels.fanout_busy_ratio", Median(busy_ratio), "ratio");
  }
  return result;
}

}  // namespace perfbench
