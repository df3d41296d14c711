// Layer probes of the traced mode. Each probe times calls into one module's
// public functions, from here, on inputs made from the run seed: a small
// CDCL run at quickstart's shape (digits MN->US, 2 tasks, d=24, 2 layers)
// gives a trained model, a rehearsal memory and a real checkpoint to time
// against. Sub-millisecond calls are timed in blocks; a value is the median
// over blocks of the time per call.

#include <cstdio>
#include <filesystem>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "core/cdcl_trainer.h"
#include "data/benchmarks.h"
#include "data/task_stream.h"
#include "nn/losses.h"
#include "optim/optimizer.h"
#include "serve/inference.h"
#include "serve/protocol.h"
#include "tensor/arena.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/tensor_ops.h"
#include "uda/pseudo_label.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cdcl;  // NOLINT: benchmark brevity

/// Median over `blocks` of the milliseconds per call of `fn`, each block of
/// `reps` calls under one span named `span`.
template <typename F>
double MsPerCall(const char* span, int blocks, int reps, F&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < blocks; ++b) {
    ScopedSpan s(span);
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    per_call.push_back(SecondsSince(start) * 1e3 / reps);
  }
  return Median(per_call);
}

std::vector<int64_t> Range(int64_t n) {
  std::vector<int64_t> out;
  for (int64_t i = 0; i < n; ++i) out.push_back(i);
  return out;
}

serve::InferenceRequest EngineRequest(const data::TensorDataset& images,
                                      int64_t index, serve::MessageType type,
                                      int64_t task) {
  serve::InferenceRequest in;
  const Tensor& image = images.Get(index).image;
  in.request.type = type;
  in.request.request_id = static_cast<uint32_t>(index);
  in.request.task = task;
  in.request.channels = image.dim(0);
  in.request.height = image.dim(1);
  in.request.width = image.dim(2);
  in.request.pixels.assign(image.data(), image.data() + image.NumElements());
  return in;
}

}  // namespace

void RunLayerProbes(const RunOptions& options, RunResult* result) {
  ScopedSpan probes_span("probes");
  data::TaskStreamOptions stream_options;
  stream_options.family = "digits";
  stream_options.source_domain = "MN";
  stream_options.target_domain = "US";
  stream_options.num_tasks = 2;
  stream_options.classes_per_task = 2;
  stream_options.train_per_class = 24;
  stream_options.test_per_class = 12;
  stream_options.seed = SubSeed(options.seed, 20);
  Result<data::CrossDomainTaskStream> stream =
      data::CrossDomainTaskStream::Make(stream_options);
  if (!stream.ok()) {
    result->Fail(options.workload, "probe stream", "expected ok, actual error");
    return;
  }
  core::CdclOptions trainer_options;
  baselines::TrainerOptions& base = trainer_options.base;
  base.model.image_hw = 16;
  base.model.channels = 1;
  base.model.embed_dim = 24;
  base.model.num_layers = 2;
  base.epochs = 4;
  base.warmup_epochs = 1;
  base.memory_size = 100;
  base.seed = stream_options.seed;
  core::CdclTrainer trainer(trainer_options);
  for (int64_t t = 0; t < stream->num_tasks(); ++t) {
    if (!trainer.ObserveTask(stream->task(t)).ok()) {
      result->Fail(options.workload, "probe training", "expected ok, actual error");
      return;
    }
  }
  const data::CrossDomainTask& task = stream->task(1);
  const int64_t task_id = 1;

  // baselines: the experiment loop's TIL and CIL evaluation of one task.
  result->Set("baselines.eval_til_ms", MsPerCall("baselines.eval_til", 20, 2, [&] {
                trainer.EvaluateTil(task.target_test, task_id);
              }),
              "ms");
  result->Set("baselines.eval_cil_ms", MsPerCall("baselines.eval_cil", 20, 2, [&] {
                trainer.EvaluateCil(task.target_test);
              }),
              "ms");

  // kernels: an empty parallel region over one chunk per pool thread.
  const int64_t threads = kernels::GetNumThreads();
  result->Set("kernels.region_dispatch_ns",
              1e6 * MsPerCall("kernels.region_dispatch", 20, 500, [&] {
                kernels::ParallelChunks(threads, 1, [](int64_t, int64_t) {});
              }),
              "ns");

  // models: batched self-attention encode, per sample.
  const data::Batch eval_batch =
      task.target_test.MakeBatch(Range(std::min<int64_t>(
          24, task.target_test.size())));
  const int64_t eval_n = eval_batch.size();
  result->Set("models.encode_batched_us",
              1e3 / static_cast<double>(eval_n) *
                  MsPerCall("models.encode_batched", 20, 20, [&] {
                    trainer.model().EncodeSelfBatched(eval_batch.images,
                                                      task_id);
                  }),
              "us");

  // uda: center-aware pseudo-labels and the pair set, on the model's
  // features of the task's source and target training data.
  const data::Batch source = task.source_train.MakeBatch(
      Range(task.source_train.size()));
  const data::Batch target = task.target_train.MakeBatch(
      Range(task.target_train.size()));
  const Tensor source_z = trainer.model().EncodeSelfBatched(source.images,
                                                            task_id);
  const Tensor target_z = trainer.model().EncodeSelfBatched(target.images,
                                                            task_id);
  Tensor target_probs;
  {
    NoGradGuard no_grad;
    target_probs = ops::Softmax(trainer.model().TilLogits(target_z, task_id));
  }
  uda::PseudoLabelResult pseudo;
  result->Set("uda.pseudo_labels_ms",
              MsPerCall("uda.pseudo_labels", 20, 10, [&] {
                pseudo = uda::CenterAwarePseudoLabels(
                    target_z, target_probs, uda::DistanceMetric::kCosine);
              }),
              "ms");
  result->Set("uda.pair_set_ms", MsPerCall("uda.pair_set", 20, 10, [&] {
                uda::BuildPairSet(source_z, source.task_labels, target_z,
                                  pseudo.labels, uda::DistanceMetric::kCosine,
                                  base.pair_keep_fraction);
              }),
              "ms");

  // cl: a replay draw from the trained memory.
  Rng replay_rng(SubSeed(options.seed, 21));
  result->Set("cl.replay_sample_us",
              1e3 * MsPerCall("cl.replay_sample", 20, 200, [&] {
                trainer.memory().Sample(base.replay_batch, &replay_rng);
              }),
              "us");

  // models + optim: one CDCL paired training step (cross encoding, the six
  // L_CIL/L_TIL terms, backward, AdamW) at the trainer's batch, on a
  // separate model so the trained one stays as it is.
  {
    Rng init_rng(SubSeed(options.seed, 22));
    models::CompactTransformer model(base.model, &init_rng);
    model.AddTask(2);
    model.AddTask(2);
    optim::AdamW adamw(model.TrainableParameters(), base.base_lr);
    Arena arena;
    const std::vector<int64_t> rows = Range(base.batch_size);
    const data::Batch xs = task.source_train.MakeBatch(rows);
    const data::Batch xt = task.target_train.MakeBatch(rows);
    std::vector<int64_t> labels;
    for (int64_t l : xs.task_labels) labels.push_back(l + 2);
    auto forward_backward = [&] {
      auto enc = model.EncodeCross(xs.images, xt.images, task_id);
      Tensor loss = ops::CrossEntropy(model.CilLogits(enc.z_source), labels);
      loss = ops::Add(loss, ops::CrossEntropy(model.CilLogits(enc.z_target),
                                              labels));
      loss = ops::Add(loss, nn::MixingLoss(model.CilLogits(enc.z_mixed),
                                           model.CilLogits(enc.z_target)));
      loss = ops::Add(loss, ops::CrossEntropy(
                                model.TilLogits(enc.z_source, task_id),
                                xs.task_labels));
      loss = ops::Add(loss, ops::CrossEntropy(
                                model.TilLogits(enc.z_target, task_id),
                                xs.task_labels));
      loss = ops::Add(loss, nn::MixingLoss(
                                model.TilLogits(enc.z_mixed, task_id),
                                model.TilLogits(enc.z_target, task_id)));
      loss.Backward();
    };
    result->Set("models.train_step_ms",
                MsPerCall("models.train_step", 20, 3, [&] {
                  ArenaScope scope(&arena);
                  adamw.ZeroGrad();
                  forward_backward();
                  adamw.Step();
                }),
                "ms");
    {
      ArenaScope scope(&arena);
      forward_backward();
    }
    result->Set("optim.adamw_step_us",
                1e3 * MsPerCall("optim.adamw_step", 20, 20,
                                [&] { adamw.Step(); }),
                "us");
  }

  // ckpt: commit and decode of the trained trainer's real checkpoint bytes.
  const std::string dir = options.work_dir + "/probe_ckpt";
  std::filesystem::remove_all(dir);
  const Result<ckpt::CheckpointInfo> saved =
      ckpt::SaveTrainer(dir, trainer, stream->num_tasks());
  std::vector<uint8_t> bytes;
  if (!saved.ok() || !ckpt::ReadFileBytes(saved->path, &bytes).ok()) {
    result->Fail(options.workload, "probe checkpoint", "expected ok, actual error");
  } else {
    result->Set("ckpt.bytes", static_cast<double>(bytes.size()), "bytes");
    bool committed = true;
    result->Set("ckpt.commit_file_ms", MsPerCall("ckpt.commit_file", 20, 1, [&] {
                  committed =
                      ckpt::CommitFile(dir, "probe.bin", bytes, "probe").ok() &&
                      committed;
                }),
                "ms");
    std::vector<ckpt::Section> sections;
    bool decoded = true;
    result->Set("ckpt.decode_ms", MsPerCall("ckpt.decode", 20, 5, [&] {
                  decoded = ckpt::DecodeSections(bytes, &sections).ok() &&
                            decoded;
                }),
                "ms");
    if (!committed || !decoded) {
      result->Fail(options.workload, "probe commit/decode",
                   "expected ok, actual error");
    }
  }
  std::filesystem::remove_all(dir);

  // serve: the engine on one request and on a full mixed batch, and the
  // wire protocol's four codec calls per request.
  {
    serve::InferenceEngine engine(trainer.model().CloneSnapshot());
    const serve::MessageType types[] = {serve::MessageType::kClassifyTil,
                                        serve::MessageType::kClassifyCil,
                                        serve::MessageType::kEncode};
    std::vector<serve::InferenceRequest> one = {
        EngineRequest(task.target_test, 0, types[0], task_id)};
    std::vector<serve::InferenceRequest> full;
    for (int64_t i = 0; i < 32; ++i) {
      full.push_back(EngineRequest(task.target_test,
                                   i % task.target_test.size(), types[i % 3],
                                   i % 2));
    }
    result->Set("serve.engine_us_per_req.b1",
                1e3 * MsPerCall("serve.engine_b1", 20, 20,
                                [&] { engine.Run(one); }),
                "us");
    result->Set("serve.engine_us_per_req.bmax",
                1e3 / 32.0 * MsPerCall("serve.engine_bmax", 20, 5,
                                       [&] { engine.Run(full); }),
                "us");
    serve::Response response;
    response.request_id = 7;
    response.version = 1;
    response.type = types[2];
    response.values.assign(static_cast<size_t>(base.model.embed_dim), 0.5f);
    serve::Buffer wire;
    serve::FrameParser frame_parser;
    serve::ResponseParser response_parser;
    serve::Request parsed_request;
    serve::Response parsed_response;
    result->Set("serve.protocol_us_per_req",
                1e3 * MsPerCall("serve.protocol", 20, 200, [&] {
                  serve::AppendRequest(full[0].request, &wire);
                  frame_parser.Next(&wire, &parsed_request);
                  serve::AppendResponse(response, &wire);
                  response_parser.Next(&wire, &parsed_response);
                }),
                "us");
  }
}

}  // namespace perfbench
