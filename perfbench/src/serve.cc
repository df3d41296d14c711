// serve_training: the serving plane under an open loop while a
// ContinualServer trains, publishes and checkpoints.
//
// No request can ever be refused: the load keeps fewer requests in flight
// than the server's queue bound (InferenceServer::Options::queue_max, 1024
// by default). A refusal would then be a fault of the server, not of the
// load, and it is counted as a failed operation.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <tuple>

#include "ckpt/checkpoint.h"
#include "core/cdcl_trainer.h"
#include "data/benchmarks.h"
#include "data/task_stream.h"
#include "serve/client.h"
#include "serve/continual.h"
#include "serve/server.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/tensor.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cdcl;  // NOLINT: benchmark brevity
using serve::MessageType;

constexpr MessageType kTypes[] = {MessageType::kClassifyTil,
                                  MessageType::kClassifyCil,
                                  MessageType::kEncode};

/// Distinct digit images (the "US" domain, all ten classes) the request mix
/// draws from.
std::vector<std::vector<float>> ImagePool(uint64_t seed) {
  std::vector<int64_t> classes;
  for (int64_t c = 0; c < 10; ++c) classes.push_back(c);
  Result<data::TensorDataset> dataset =
      data::MakeDomainDataset("digits", "US", classes, 26, 0, seed);
  std::vector<std::vector<float>> pool;
  if (!dataset.ok()) return pool;
  for (int64_t i = 0; i < dataset->size(); ++i) {
    const Tensor& image = dataset->Get(i).image;
    pool.emplace_back(image.data(), image.data() + image.NumElements());
  }
  return pool;
}

/// One request of the mix: which image, which message type, which task.
struct RequestKey {
  uint32_t image = 0;
  uint32_t type = 0;  // index into kTypes
  uint32_t task = 0;
};

RequestKey DrawKey(Rng* rng, size_t images, int64_t tasks) {
  RequestKey key;
  key.image = static_cast<uint32_t>(rng->NextBelow(images));
  key.type = static_cast<uint32_t>(rng->NextBelow(3));
  key.task = static_cast<uint32_t>(rng->NextBelow(static_cast<uint64_t>(tasks)));
  return key;
}

serve::Request MakeRequest(const models::ModelConfig& config,
                           const std::vector<std::vector<float>>& pool,
                           const RequestKey& key, uint32_t id) {
  serve::Request request;
  request.type = kTypes[key.type];
  request.request_id = id;
  request.task = key.task;
  request.channels = config.channels;
  request.height = config.image_hw;
  request.width = config.image_hw;
  request.pixels = pool[key.image];
  return request;
}

/// Quiesced single-request eval of `request` against `model` under the
/// batch-invariant GEMM dispatch the engine pins: the bitwise reference for
/// a response that `model` computed (serving determinism properties #4 and #5).
std::vector<float> Reference(const models::CompactTransformer& model,
                             const serve::Request& request) {
  kernels::BatchInvariantGemmScope invariant_dispatch;
  const models::ModelConfig& config = model.config();
  Tensor image = Tensor::Uninitialized(
      Shape{1, config.channels, config.image_hw, config.image_hw});
  std::memcpy(image.data(), request.pixels.data(),
              request.pixels.size() * sizeof(float));
  Tensor z = model.EncodeSelfBatched(image, request.task);
  if (request.type == MessageType::kEncode) {
    return std::vector<float>(z.data(), z.data() + z.NumElements());
  }
  NoGradGuard no_grad;
  Tensor logits = request.type == MessageType::kClassifyTil
                      ? model.TilLogits(z, request.task)
                      : model.CilLogits(z);
  return std::vector<float>(logits.data(),
                            logits.data() + logits.NumElements());
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Seeded input sets serve_training rotates through, one per round.
constexpr uint64_t kInputSets = 8;
constexpr double kLiveRate = 2000.0;   // requests per second, open loop
constexpr int64_t kLiveWindow = 256;   // most requests ever in flight

struct SentRequest {
  Clock::time_point due;
  RequestKey key;
};

struct LiveResponse {
  uint32_t id = 0;
  serve::ResponseStatus status = serve::ResponseStatus::kOk;
  uint32_t version = 0;
  std::vector<float> values;
};

}  // namespace

RunResult RunServeTraining(const RunOptions& options) {
  const std::string kName = "serve_training";
  RunResult result;
  // Training and serving share the kernel pool. With one kernel thread per
  // core the training time of a round spread 12-23% from run to run; with
  // two it spread about 1% (perfbench/README.md).
  kernels::SetNumThreads(std::min<int64_t>(2, kernels::GetNumThreads()));

  // The trainer cdcl_continual_serve trains.
  core::CdclOptions trainer_options;
  baselines::TrainerOptions& base = trainer_options.base;
  base.model.image_hw = 16;
  base.model.channels = 1;
  base.model.embed_dim = 16;
  base.model.num_layers = 1;
  base.epochs = 6;
  base.warmup_epochs = 2;
  base.batch_size = 8;
  base.memory_size = 40;

  // Set-up: kInputSets seeded streams (the one cdcl_continual_serve trains),
  // each with task 0 trained and checkpointed here, so every snapshot has a
  // task to serve and no request can be refused for naming a task the model
  // lacks. Round r restores set r % kInputSets and trains the remaining
  // tasks live.
  std::vector<data::CrossDomainTaskStream> streams;
  std::vector<uint64_t> trainer_seeds;
  for (uint64_t i = 0; i < kInputSets; ++i) {
    data::TaskStreamOptions stream_options;
    stream_options.family = "digits";
    stream_options.source_domain = "MN";
    stream_options.target_domain = "US";
    stream_options.num_tasks = 3;
    stream_options.classes_per_task = 2;
    stream_options.train_per_class = 12;
    stream_options.test_per_class = 6;
    stream_options.seed = SubSeed(options.seed, 200 + i);
    Result<data::CrossDomainTaskStream> stream =
        data::CrossDomainTaskStream::Make(stream_options);
    base.seed = SubSeed(options.seed, 300 + i);
    core::CdclTrainer first(trainer_options);
    const std::string dir = options.work_dir + "/serve_base" + std::to_string(i);
    std::filesystem::remove_all(dir);
    if (!stream.ok() || !first.ObserveTask(stream->task(0)).ok() ||
        !ckpt::SaveTrainer(dir, first, 1).ok()) {
      result.Fail(kName, "train task 0", "expected ok, actual error");
      return result;
    }
    streams.push_back(std::move(*stream));
    trainer_seeds.push_back(base.seed);
  }
  const std::vector<std::vector<float>> pool =
      ImagePool(SubSeed(options.seed, 5));
  if (pool.empty()) {
    result.Fail(kName, "image pool", "expected images, actual none");
    return result;
  }
  const int64_t tasks_trained = streams[0].num_tasks() - 1;
  const std::string ckpt_dir = options.work_dir + "/serve_ckpt";
  const double setup_s = SecondsSince(ProcessStart());

  std::vector<double> train_s, latency_ms, late_ms;
  double batched = 0.0, batches = 0.0;
  const Clock::time_point run_start = Clock::now();
  int64_t round = 0;
  while (round == 0 || SecondsSince(run_start) < options.seconds) {
    ScopedSpan round_span("round");
    const std::string op = "round " + std::to_string(round);
    const size_t set = static_cast<size_t>(round) % kInputSets;
    const data::CrossDomainTaskStream& stream = streams[set];
    base.seed = trainer_seeds[set];
    std::filesystem::remove_all(ckpt_dir);
    core::CdclTrainer trainer(trainer_options);
    if (!ckpt::RestoreTrainer(options.work_dir + "/serve_base" +
                                  std::to_string(set),
                              &trainer)
             .ok()) {
      result.Fail(kName, op + " restore task 0", "expected ok, actual error");
      break;
    }
    // The round's request mix: the same draws whatever the timing.
    Rng mix_rng(SubSeed(options.seed, 400 + static_cast<uint64_t>(round)));
    serve::ContinualServer::Options server_options;
    server_options.server.port = 0;
    server_options.publish_every = 1;
    server_options.ckpt_dir = ckpt_dir;
    serve::ContinualServer server(server_options, &trainer);

    std::mutex published_mu;
    std::map<uint32_t, std::shared_ptr<const models::CompactTransformer>>
        published;  // guarded by published_mu
    std::atomic<int64_t> served_tasks{0};
    int64_t publish_span = -1;  // training thread only
    const bool trace = options.trace;
    server.SetPublishObserver(
        [&](uint32_t version,
            std::shared_ptr<const models::CompactTransformer> snapshot) {
          if (publish_span >= 0) {
            Tracer::Get().End(publish_span);
            publish_span = -1;
          }
          served_tasks.store(snapshot->num_tasks());
          std::lock_guard<std::mutex> lock(published_mu);
          published[version] = std::move(snapshot);
        });
    if (!server.Start()) {
      result.Fail(kName, op + " Start", "expected a bound port, actual none");
      break;
    }
    serve::Client client;
    if (!client.Connect(server.port())) {
      result.Fail(kName, op + " Connect", "expected a connection, actual none");
      break;
    }

    int64_t observe_span = -1;  // training thread only
    cl::ExperimentOptions experiment;
    experiment.first_task = 1;
    experiment.evaluate = true;
    experiment.stop_requested = [&] {
      if (trace) observe_span = Tracer::Get().Begin("core.observe_task");
      return false;
    };
    experiment.after_task = [&](int64_t) {
      if (observe_span >= 0) Tracer::Get().End(observe_span);
      observe_span = -1;
      if (trace) publish_span = Tracer::Get().Begin("serve.publish");
    };

    // Open loop: request i is due at start + i / rate. The generator stops
    // sending the moment training is done, so traffic spans exactly the
    // training window.
    std::mutex sent_mu;
    std::vector<SentRequest> sent;  // guarded by sent_mu; index == id
    std::atomic<int64_t> sent_count{0};
    std::atomic<int64_t> in_flight{0};
    std::atomic<bool> sending_done{false};
    std::vector<LiveResponse> responses;
    std::vector<double> round_latency, round_late;
    bool receive_ok = true;

    const Clock::time_point start = Clock::now();
    server.BeginTraining(stream, experiment);
    std::thread sender([&] {
      const auto period = std::chrono::duration<double>(1.0 / kLiveRate);
      for (int64_t i = 0;; ++i) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(period * i);
        std::this_thread::sleep_until(due);
        while (in_flight.load() >= kLiveWindow && !server.training_done()) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        if (server.training_done()) break;
        const RequestKey key =
            DrawKey(&mix_rng, pool.size(), served_tasks.load());
        {
          std::lock_guard<std::mutex> lock(sent_mu);
          sent.push_back({due, key});
        }
        round_late.push_back(MsBetween(due, Clock::now()));
        in_flight.fetch_add(1);
        sent_count.store(i + 1);
        if (!client.Send(MakeRequest(base.model, pool, key,
                                     static_cast<uint32_t>(i)))) {
          break;
        }
      }
      sending_done.store(true);
      // A ping marks the end of the traffic: its echo tells the receiver to
      // stop once every request is answered.
      serve::Request ping;
      ping.type = MessageType::kPing;
      ping.request_id = 0xFFFFFFFFu;
      client.Send(ping);
    });
    std::thread receiver([&] {
      bool ping_seen = false;
      while (!ping_seen ||
             static_cast<int64_t>(responses.size()) < sent_count.load()) {
        serve::Response response;
        if (!client.Receive(&response)) {
          receive_ok = false;
          return;
        }
        const Clock::time_point now = Clock::now();
        if (response.type == MessageType::kPing) {
          ping_seen = true;
          continue;
        }
        in_flight.fetch_sub(1);
        Clock::time_point due;
        {
          std::lock_guard<std::mutex> lock(sent_mu);
          if (response.request_id < sent.size()) {
            due = sent[response.request_id].due;
          }
        }
        round_latency.push_back(MsBetween(due, now));
        responses.push_back({response.request_id, response.status,
                             response.version, std::move(response.values)});
      }
    });
    Result<cl::ContinualResult> trained = server.WaitForTraining();
    train_s.push_back(SecondsSince(start));
    sender.join();
    receiver.join();
    const serve::MicroBatcher::Stats stats = server.server().batcher_stats();
    client.Close();
    server.Stop();
    batched += static_cast<double>(stats.requests);
    batches += static_cast<double>(stats.batches);
    latency_ms.insert(latency_ms.end(), round_latency.begin(),
                      round_latency.end());
    late_ms.insert(late_ms.end(), round_late.begin(), round_late.end());

    // Checks (untimed). Operations: each task trained, each checkpoint
    // commit, each request.
    result.attempted += 2 * tasks_trained + sent_count.load();
    if (!trained.ok()) {
      result.failed += tasks_trained;
      result.Fail(kName, op + " training",
                  "expected ok, actual " + trained.status().ToString());
      break;
    }
    if (!receive_ok) {
      result.failed += sent_count.load() -
                       static_cast<int64_t>(responses.size());
      result.Fail(kName, op + " receive", "expected every response, actual "
                  "a lost connection");
    }
    const int64_t commits = static_cast<int64_t>(server.checkpoints());
    std::string bad = CheckCount("checkpoint commits", tasks_trained, commits);
    if (!bad.empty()) {
      result.failed += std::max<int64_t>(0, tasks_trained - commits);
      result.Fail(kName, op, bad);
    }
    bad = CheckCount("publishes", tasks_trained + 1,
                     static_cast<int64_t>(published.size()));
    if (!bad.empty()) result.Fail(kName, op, bad);
    bad = CheckLossesFinite(trainer.loss_trace());
    if (!bad.empty()) result.Fail(kName, op + " step losses", bad);
    std::vector<uint8_t> answered(sent.size(), 0);
    // Reference per (version, image, type, task).
    std::map<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>,
             std::vector<float>>
        references;
    std::map<uint32_t, int64_t> published_tasks;
    for (const auto& [version, snapshot] : published) {
      published_tasks[version] = snapshot->num_tasks();
    }
    for (const LiveResponse& response : responses) {
      const std::string rop = op + " request " + std::to_string(response.id);
      if (response.id >= sent.size() || answered[response.id] != 0) {
        result.Fail(kName, rop, "expected exactly one response, actual another");
        continue;
      }
      answered[response.id] = 1;
      if (response.status != serve::ResponseStatus::kOk) {
        ++result.failed;
        result.Fail(kName, rop, "expected status kOk, actual " +
                    std::to_string(static_cast<int>(response.status)));
        continue;
      }
      bad = CheckVersionPublished(response.version, published_tasks);
      if (!bad.empty()) {
        result.Fail(kName, rop + " version", bad);
        continue;
      }
      const RequestKey& key = sent[response.id].key;
      std::vector<float>& ref =
          references[{response.version, key.image, key.type, key.task}];
      if (ref.empty()) {
        ref = Reference(*published[response.version],
                        MakeRequest(base.model, pool, key, 0));
      }
      bad = CheckBitwiseEqual(ref, response.values);
      if (!bad.empty()) result.Fail(kName, rop + " values", bad);
    }
    core::CdclTrainer restored(trainer_options);
    Result<ckpt::CheckpointInfo> info = Status::Internal("not restored");
    {
      ScopedSpan span("ckpt.restore_trainer");
      info = ckpt::RestoreTrainer(ckpt_dir, &restored);
    }
    if (!info.ok() || published.empty()) {
      result.Fail(kName, op + " restore newest checkpoint",
                  "expected ok, actual error");
    } else {
      bad = CheckParametersEqual(*published.rbegin()->second, restored.model());
      if (!bad.empty()) {
        result.Fail(kName, op + " checkpoint vs final snapshot", bad);
      }
      // The restored trainer re-evaluates the last TIL/CIL row bit for bit.
      const int64_t last = stream.num_tasks() - 1;
      std::vector<double> til_row, cil_row;
      for (int64_t j = 0; j <= last; ++j) {
        const data::TensorDataset& test = stream.task(j).target_test;
        til_row.push_back(restored.EvaluateTil(test, j));
        cil_row.push_back(restored.EvaluateCil(test));
      }
      bad = CheckRowEquals(trained->til, last, til_row);
      if (!bad.empty()) result.Fail(kName, op + " TIL re-evaluation", bad);
      bad = CheckRowEquals(trained->cil, last, cil_row);
      if (!bad.empty()) result.Fail(kName, op + " CIL re-evaluation", bad);
    }
    if (options.trace) {
      result.Set("core.train_steps",
                 static_cast<double>(trainer.loss_trace().size()), "count");
      result.Set("core.pair_count",
                 static_cast<double>(trainer.last_pair_count()), "count");
      result.Set("cl.memory_records",
                 static_cast<double>(trainer.memory().size()), "count");
      result.Set("core.pseudo_label_acc", trainer.last_pseudo_label_accuracy(),
                 "ratio");
    }
    // Memory of set-up plus one round: later rounds repeat the same work.
    if (round == 0) result.Set("process.peak_rss_mb", PeakRssMb(), "MB");
    ++round;
  }
  std::filesystem::remove_all(ckpt_dir);
  for (uint64_t i = 0; i < kInputSets; ++i) {
    std::filesystem::remove_all(options.work_dir + "/serve_base" +
                                std::to_string(i));
  }
  std::fprintf(stderr, "serve_training: %lld rounds, median train %.4f s, "
               "%zu requests, live p50 %.4f ms, p99 %.4f ms, late p99 "
               "%.4f ms, mean batch %.2f\n",
               static_cast<long long>(round), Median(train_s),
               latency_ms.size(), Median(latency_ms),
               Percentile(latency_ms, 0.99), Percentile(late_ms, 0.99),
               batches > 0 ? batched / batches : 0.0);

  result.Set("setup_s", setup_s, "s");
  result.Set("round_s", Median(train_s), "s");
  result.Set("p50_ms", Median(latency_ms), "ms");
  if (options.trace) {
    result.Set("serve.live_p99_ms", Percentile(latency_ms, 0.99), "ms");
    result.Set("loadgen.late_ms_p99", Percentile(late_ms, 0.99), "ms");
    result.Set("serve.mean_batch", batches > 0 ? batched / batches : 0.0,
               "requests");
  }
  return result;
}

}  // namespace perfbench
