// Self-test of the correctness checks: every check the workloads run must
// accept a right output and reject a deliberately wrong one. A check that
// cannot fail proves nothing.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "ckpt/checkpoint.h"
#include "core/cdcl_trainer.h"
#include "data/task_stream.h"
#include "serve/protocol.h"
#include "tensor/kernels/matmul_kernel.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cdcl;  // NOLINT: benchmark brevity

int g_broken = 0;

void Expect(const char* check, const char* wrong_output,
            const std::string& on_right, const std::string& on_wrong) {
  const bool ok = on_right.empty() && !on_wrong.empty();
  if (!ok) ++g_broken;
  std::fprintf(stderr, "selftest %-22s %-42s %s%s%s\n", check, wrong_output,
               ok ? "rejected: " : "NOT TOLD APART",
               on_wrong.empty() ? "" : on_wrong.c_str(),
               on_right.empty() ? "" : (" / right output refused: " + on_right).c_str());
}

}  // namespace

int RunSelfTest(const std::string& work_dir) {
  // A small trained CDCL model and its checkpoint.
  data::TaskStreamOptions stream_options;
  stream_options.family = "digits";
  stream_options.source_domain = "MN";
  stream_options.target_domain = "US";
  stream_options.num_tasks = 1;
  stream_options.train_per_class = 12;
  stream_options.test_per_class = 6;
  stream_options.seed = 5;
  Result<data::CrossDomainTaskStream> stream =
      data::CrossDomainTaskStream::Make(stream_options);
  core::CdclOptions options;
  options.base.model.image_hw = 16;
  options.base.model.channels = 1;
  options.base.model.embed_dim = 16;
  options.base.model.num_layers = 1;
  options.base.epochs = 2;
  options.base.warmup_epochs = 1;
  options.base.batch_size = 8;
  options.base.memory_size = 20;
  options.base.seed = 5;
  core::CdclTrainer trainer(options);
  if (!stream.ok() || !trainer.ObserveTask(stream->task(0)).ok()) {
    std::fprintf(stderr, "selftest: could not train the test model\n");
    return 1;
  }

  // A served response, one bit flipped on the wire.
  {
    const data::TensorDataset& test = stream->task(0).target_test;
    const Tensor& image = test.Get(0).image;
    Tensor batch = Tensor::Uninitialized(
        Shape{1, image.dim(0), image.dim(1), image.dim(2)});
    std::memcpy(batch.data(), image.data(), image.NumElements() * sizeof(float));
    std::vector<float> reference;
    {
      kernels::BatchInvariantGemmScope invariant_dispatch;
      Tensor z = trainer.model().EncodeSelfBatched(batch, 0);
      reference.assign(z.data(), z.data() + z.NumElements());
    }
    serve::Response response;
    response.type = serve::MessageType::kEncode;
    response.version = 1;
    response.values = reference;
    serve::Buffer wire;
    serve::AppendResponse(response, &wire);
    std::vector<uint8_t> bytes(wire.Peek(), wire.Peek() + wire.ReadableBytes());
    bytes[bytes.size() - 5] ^= 0x10;  // inside the second-to-last value
    serve::Buffer flipped;
    flipped.Append(bytes.data(), bytes.size());
    serve::ResponseParser parser;
    serve::Response right, wrong;
    parser.Next(&wire, &right);
    parser.Next(&flipped, &wrong);
    Expect("response bytes", "one flipped bit in a response",
           CheckBitwiseEqual(reference, right.values),
           CheckBitwiseEqual(reference, wrong.values));
  }

  // A version no publish produced.
  {
    const std::map<uint32_t, int64_t> published = {{1, 1}, {2, 2}, {3, 3}};
    Expect("response version", "a version that no publish produced",
           CheckVersionPublished(2, published),
           CheckVersionPublished(4, published));
  }

  // One perturbed restored parameter.
  {
    const std::string dir = work_dir + "/selftest_ckpt";
    std::filesystem::remove_all(dir);
    core::CdclTrainer restored(options);
    core::CdclTrainer perturbed(options);
    const bool ok = ckpt::SaveTrainer(dir, trainer, 1).ok() &&
                    ckpt::RestoreTrainer(dir, &restored).ok() &&
                    ckpt::RestoreTrainer(dir, &perturbed).ok();
    std::filesystem::remove_all(dir);
    if (!ok) {
      std::fprintf(stderr, "selftest: checkpoint round trip failed\n");
      return 1;
    }
    const auto params = perturbed.mutable_model()->NamedParameters();
    Tensor tensor = params[params.size() / 2].tensor;
    float* value = tensor.data();
    *value = std::nextafter(*value, 1e9f);
    Expect("restored parameters", "one perturbed restored parameter",
           CheckParametersEqual(trainer.model(), restored.model()),
           CheckParametersEqual(trainer.model(), perturbed.model()));
  }

  // A CDCL accuracy at chance.
  Expect("TIL ACC above chance", "an accuracy at chance (0.5)",
         CheckAboveChance(0.75, 0.5), CheckAboveChance(0.5, 0.5));

  // The remaining checks the workloads run.
  {
    cl::AccuracyMatrix matrix(2), same(2), off(2);
    for (cl::AccuracyMatrix* m : {&matrix, &same, &off}) {
      m->Set(0, 0, 0.75);
      m->Set(1, 0, 0.5);
      m->Set(1, 1, 0.875);
    }
    off.Set(1, 1, std::nextafter(0.875, 1.0));
    Expect("matrices equal", "one accuracy off by one ulp",
           CheckMatricesEqual(matrix, same), CheckMatricesEqual(matrix, off));
    Expect("re-evaluation row", "one re-evaluated accuracy off by one ulp",
           CheckRowEquals(matrix, 1, {0.5, 0.875}),
           CheckRowEquals(matrix, 1, {0.5, std::nextafter(0.875, 0.0)}));
  }
  Expect("step losses finite", "a NaN step loss",
         CheckLossesFinite(trainer.loss_trace()),
         CheckLossesFinite({0.5f, std::numeric_limits<float>::quiet_NaN()}));
  Expect("publish count", "one publish too many", CheckCount("publishes", 3, 3),
         CheckCount("publishes", 3, 4));

  std::fprintf(stderr, "selftest: %d check(s) failed to reject a wrong output\n",
               g_broken);
  return g_broken;
}

}  // namespace perfbench
