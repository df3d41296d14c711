// Crash-safety suite for the checkpoint/restore subsystem (src/ckpt/).
//
// The headline pin: a run killed at a task boundary and restored into a
// FRESH trainer continues with losses, parameters, and eval accuracies
// bitwise identical to the run that never died. Around it, a deterministic
// fault matrix (util/fault.h — no sleeps, no subprocesses): injected crashes
// at every syscall of the commit protocol, short writes, ENOSPC/EIO, and
// direct on-disk corruption (truncation, bit flips) — every wreckage must be
// detected via CRC and restore must fall back to the newest generation that
// verifies. scripts/verify.sh runs this suite under ASan/UBSan and repeats
// the resume-determinism pin as a standalone pass.

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "cl/experiment.h"
#include "core/cdcl_trainer.h"
#include "data/task_stream.h"
#include "gtest/gtest.h"
#include "models/compact_transformer.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace cdcl {
namespace {

using ckpt::CheckpointInfo;
using ckpt::RestoreTrainer;
using ckpt::SaveOptions;
using ckpt::SaveTrainer;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

data::CrossDomainTaskStream TinyDigitsStream(int64_t tasks) {
  data::TaskStreamOptions opt;
  opt.family = "digits";
  opt.source_domain = "MN";
  opt.target_domain = "US";
  opt.num_tasks = tasks;
  opt.classes_per_task = 2;
  opt.train_per_class = 8;
  opt.test_per_class = 4;
  opt.seed = 1;
  return *data::CrossDomainTaskStream::Make(opt);
}

core::CdclOptions TinyCdclOptions() {
  core::CdclOptions opt;
  opt.base.model.image_hw = 16;
  opt.base.model.channels = 1;
  opt.base.model.embed_dim = 16;
  opt.base.model.num_layers = 1;
  opt.base.epochs = 2;
  opt.base.warmup_epochs = 1;
  opt.base.batch_size = 8;
  opt.base.memory_size = 32;
  opt.base.seed = 3;
  return opt;
}

/// Fresh scratch directory under TMPDIR, removed (recursively, one level —
/// checkpoints are flat) by the guard's destructor.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cdcl_ckpt_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "";
  }
  ~TempDir() {
    if (path_.empty()) return;
    DIR* d = ::opendir(path_.c_str());
    if (d != nullptr) {
      for (dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<float> FlatParams(const models::CompactTransformer& model) {
  std::vector<float> flat;
  for (const auto& np : model.NamedParameters()) {
    flat.insert(flat.end(), np.tensor.data(),
                np.tensor.data() + np.tensor.NumElements());
  }
  return flat;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Byte-level surgery on a committed checkpoint file (corruption sweep).
std::vector<uint8_t> ReadAll(const std::string& path) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ckpt::ReadFileBytes(path, &bytes).ok()) << path;
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Container + serialization primitives
// ---------------------------------------------------------------------------

TEST(CkptIoTest, SectionsRoundTripAndRejectCorruption) {
  std::vector<ckpt::Section> sections(2);
  sections[0].tag = 7;
  sections[0].payload = {1, 2, 3, 4, 5};
  sections[1].tag = 9;
  sections[1].payload = {};  // empty payloads are legal
  const std::vector<uint8_t> bytes = ckpt::EncodeSections(sections);

  std::vector<ckpt::Section> decoded;
  ASSERT_TRUE(ckpt::DecodeSections(bytes, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].tag, 7u);
  EXPECT_EQ(decoded[0].payload, sections[0].payload);
  EXPECT_EQ(decoded[1].tag, 9u);
  EXPECT_TRUE(decoded[1].payload.empty());

  // Every single-byte flip anywhere in the container must be detected: the
  // magic, the counts/lengths, the payloads (CRC), and the CRCs themselves.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> evil = bytes;
    evil[i] ^= 0x40;
    std::vector<ckpt::Section> out;
    EXPECT_FALSE(ckpt::DecodeSections(evil, &out).ok()) << "byte " << i;
  }
  // Truncation at every boundary must be detected too.
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::vector<uint8_t> torn(bytes.begin(), bytes.begin() + n);
    std::vector<ckpt::Section> out;
    EXPECT_FALSE(ckpt::DecodeSections(torn, &out).ok()) << "len " << n;
  }
  // Trailing garbage is rejected (a concatenated/doubled write is not a
  // valid checkpoint).
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  std::vector<ckpt::Section> out;
  EXPECT_FALSE(ckpt::DecodeSections(padded, &out).ok());
}

TEST(CkptIoTest, ImpossibleSectionCountIsRejectedBeforeAllocating) {
  // A header claiming 2^32 - 1 sections over a one-section file: every
  // section frames at least 16 bytes, so the count alone proves corruption.
  // Sizing the section list from it would ask for ~137 GB.
  std::vector<ckpt::Section> sections(1);
  sections[0].tag = 7;
  sections[0].payload = {1, 2, 3};
  std::vector<uint8_t> bytes = ckpt::EncodeSections(sections);
  constexpr size_t kCountOffset = 8;  // right after the magic
  for (size_t i = 0; i < 4; ++i) bytes[kCountOffset + i] = 0xFF;
  std::vector<ckpt::Section> out;
  const Status st = ckpt::DecodeSections(bytes, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(CkptIoTest, GenerationNamesAndListing) {
  TempDir dir;
  EXPECT_EQ(ckpt::GenerationFileName(7), "ckpt-00000007.bin");
  std::vector<uint64_t> gens;
  ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
  EXPECT_TRUE(gens.empty());

  ASSERT_TRUE(ckpt::CommitFile(dir.path(), ckpt::GenerationFileName(2),
                               {1, 2, 3}, "data")
                  .ok());
  ASSERT_TRUE(ckpt::CommitFile(dir.path(), ckpt::GenerationFileName(10),
                               {4, 5}, "data")
                  .ok());
  // Stray files must not parse as generations.
  WriteAll(dir.path() + "/ckpt-0000000x.bin", {0});
  WriteAll(dir.path() + "/manifest.bin", {0});
  ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], 2u);
  EXPECT_EQ(gens[1], 10u);

  ASSERT_TRUE(ckpt::RemoveGeneration(dir.path(), 2).ok());
  ASSERT_TRUE(ckpt::RemoveGeneration(dir.path(), 2).ok());  // idempotent
  ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
  ASSERT_EQ(gens.size(), 1u);
  EXPECT_EQ(gens[0], 10u);
}

// ---------------------------------------------------------------------------
// Round trip: everything the trainer is made of survives save + restore
// ---------------------------------------------------------------------------

TEST(CheckpointTest, RoundTripIsBitwiseComplete) {
  auto stream = TinyDigitsStream(2);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(1)).ok());

  TempDir dir;
  const Result<CheckpointInfo> saved = SaveTrainer(dir.path(), trainer, 2);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved->generation, 1u);
  EXPECT_EQ(saved->next_task, 2);

  core::CdclTrainer restored(TinyCdclOptions());
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->generation, 1u);
  EXPECT_EQ(info->next_task, 2);

  // Model: task structure, freeze flags (implied by AddTask replay), bits.
  ASSERT_EQ(restored.model().num_tasks(), trainer.model().num_tasks());
  ASSERT_EQ(restored.tasks_seen(), trainer.tasks_seen());
  EXPECT_TRUE(BitwiseEqual(FlatParams(restored.model()),
                           FlatParams(trainer.model())));

  // Optimizer: per-parameter Adam moments and step counts.
  const auto want_opt = trainer.optimizer().ExportState();
  const auto got_opt = restored.optimizer().ExportState();
  ASSERT_EQ(got_opt.size(), want_opt.size());
  for (size_t i = 0; i < want_opt.size(); ++i) {
    EXPECT_EQ(got_opt[i].present, want_opt[i].present) << i;
    EXPECT_EQ(got_opt[i].step, want_opt[i].step) << i;
    EXPECT_TRUE(BitwiseEqual(got_opt[i].m, want_opt[i].m)) << i;
    EXPECT_TRUE(BitwiseEqual(got_opt[i].v, want_opt[i].v)) << i;
  }

  // RNG: xoshiro state words and the Box-Muller cache.
  const Rng::StateSnapshot want_rng = trainer.rng().SaveState();
  const Rng::StateSnapshot got_rng = restored.rng().SaveState();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got_rng.state[i], want_rng.state[i]);
  EXPECT_EQ(got_rng.has_cached_gaussian, want_rng.has_cached_gaussian);
  EXPECT_EQ(got_rng.cached_gaussian, want_rng.cached_gaussian);

  // Rehearsal memory: same record count, labels, and compressed logit codes.
  ASSERT_EQ(restored.memory().size(), trainer.memory().size());
  ASSERT_GT(trainer.memory().size(), 0);
  for (int64_t i = 0; i < trainer.memory().size(); ++i) {
    const cl::MemoryRecord& want = trainer.memory().records()[i];
    const cl::MemoryRecord& got = restored.memory().records()[i];
    EXPECT_EQ(got.label, want.label) << i;
    EXPECT_EQ(got.task_label, want.task_label) << i;
    EXPECT_EQ(got.task_id, want.task_id) << i;
    EXPECT_EQ(got.logit_tasks, want.logit_tasks) << i;
    EXPECT_EQ(got.confidence, want.confidence) << i;
    ASSERT_EQ(got.source_image.NumElements(), want.source_image.NumElements());
    EXPECT_EQ(std::memcmp(got.source_image.data(), want.source_image.data(),
                          static_cast<size_t>(want.source_image.NumElements()) *
                              sizeof(float)),
              0)
        << i;
  }

  // Trainer extras: CdclTrainer's loss trace and diagnostics.
  EXPECT_TRUE(BitwiseEqual(restored.loss_trace(), trainer.loss_trace()));
  EXPECT_EQ(restored.last_pair_count(), trainer.last_pair_count());
  EXPECT_EQ(restored.last_pseudo_label_accuracy(),
            trainer.last_pseudo_label_accuracy());
}

TEST(CheckpointTest, RestoreDemandsAFreshTrainer) {
  auto stream = TinyDigitsStream(1);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  TempDir dir;
  ASSERT_TRUE(SaveTrainer(dir.path(), trainer, 1).ok());

  // A trainer that already grew a task must be rejected — restore replays
  // AddTask and cannot merge into existing structure.
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &trainer);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, EmptyDirectoryIsNotFound) {
  TempDir dir;
  core::CdclTrainer trainer(TinyCdclOptions());
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &trainer);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// The headline: kill at a task boundary, restore, finish — bitwise identical
// ---------------------------------------------------------------------------

TEST(CheckpointTest, KillAndResumeIsBitwiseIdenticalToUninterruptedRun) {
  auto stream = TinyDigitsStream(3);

  // Run A: never dies.
  core::CdclTrainer uninterrupted(TinyCdclOptions());
  const Result<cl::ContinualResult> full =
      cl::RunContinualExperiment(&uninterrupted, stream);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  // Run B: stops at the task-0 boundary (the graceful-shutdown path),
  // checkpoints, and "dies".
  TempDir dir;
  core::CdclTrainer victim(TinyCdclOptions());
  cl::ExperimentOptions stop_after_first;
  stop_after_first.stop_requested = [&victim] {
    return victim.tasks_seen() >= 1;
  };
  const Result<cl::ContinualResult> before =
      cl::RunContinualExperiment(&victim, stream, stop_after_first);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_TRUE(before->stopped_early);
  EXPECT_EQ(before->last_task_observed, 0);
  ASSERT_TRUE(SaveTrainer(dir.path(), victim, 1).ok());

  // Run C: a fresh process restores and finishes the stream.
  core::CdclTrainer resumed(TinyCdclOptions());
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &resumed);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_EQ(info->next_task, 1);
  cl::ExperimentOptions resume;
  resume.first_task = info->next_task;
  const Result<cl::ContinualResult> rest =
      cl::RunContinualExperiment(&resumed, stream, resume);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();

  // Parameters: bitwise equal to the run that never died.
  EXPECT_TRUE(BitwiseEqual(FlatParams(resumed.model()),
                           FlatParams(uninterrupted.model())))
      << "resumed parameters diverged from the uninterrupted run";

  // Loss trace: the full trace (task 0 saved + tasks 1..2 resumed) must be
  // the uninterrupted trace, float for float.
  EXPECT_TRUE(BitwiseEqual(resumed.loss_trace(), uninterrupted.loss_trace()))
      << "resumed loss trajectory diverged";

  // Eval matrices: every lower-triangle cell the resumed run computed
  // (rows >= 1) must equal the uninterrupted run's exactly.
  for (int64_t i = 1; i < 3; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      ASSERT_TRUE(rest->til.IsSet(i, j)) << i << "," << j;
      EXPECT_EQ(rest->til.Get(i, j), full->til.Get(i, j)) << i << "," << j;
      EXPECT_EQ(rest->cil.Get(i, j), full->cil.Get(i, j)) << i << "," << j;
    }
  }
  // And the pre-kill run's own row 0 matches too (sanity: the two runs were
  // identical before the kill).
  EXPECT_EQ(before->til.Get(0, 0), full->til.Get(0, 0));
  EXPECT_EQ(before->cil.Get(0, 0), full->cil.Get(0, 0));
}

// ---------------------------------------------------------------------------
// Deterministic fault matrix: crash at every syscall of the commit protocol
// ---------------------------------------------------------------------------

struct CrashCase {
  const char* point;
  fault::Kind kind;
};

class CrashPointSweep : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashPointSweep, SaveDiesRestoreFallsBackToAVerifiedGeneration) {
  const CrashCase param = GetParam();
  auto stream = TinyDigitsStream(2);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  const std::vector<float> state1 = FlatParams(trainer.model());

  TempDir dir;
  ASSERT_TRUE(SaveTrainer(dir.path(), trainer, 1).ok());

  ASSERT_TRUE(trainer.ObserveTask(stream.task(1)).ok());
  const std::vector<float> state2 = FlatParams(trainer.model());
  ASSERT_FALSE(BitwiseEqual(state1, state2));

  // The process "dies" at the parametrized syscall while committing
  // generation 2. No cleanup runs — the directory is left exactly as a
  // SIGKILL there would leave it.
  fault::Plan plan;
  plan.point = param.point;
  plan.kind = param.kind;
  fault::Arm(plan);
  const Result<CheckpointInfo> died = SaveTrainer(dir.path(), trainer, 2);
  fault::Disarm();
  ASSERT_FALSE(died.ok()) << param.point;
  EXPECT_TRUE(ckpt::IsInjectedCrash(died.status()))
      << param.point << ": " << died.status().ToString();

  // Restore from the wreckage: some generation must verify. Faults before
  // the data file's rename leave only generation 1; faults after it may
  // legitimately surface the durable generation 2 — either way the restored
  // bits must match the state that generation captured.
  core::CdclTrainer restored(TinyCdclOptions());
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
  ASSERT_TRUE(info.ok()) << param.point << ": " << info.status().ToString();
  ASSERT_TRUE(info->generation == 1 || info->generation == 2) << param.point;
  const std::vector<float>& want = info->generation == 1 ? state1 : state2;
  EXPECT_EQ(info->next_task, info->generation == 1 ? 1 : 2) << param.point;
  EXPECT_TRUE(BitwiseEqual(FlatParams(restored.model()), want))
      << param.point << ": restored generation " << info->generation
      << " does not match the state that generation captured";
}

INSTANTIATE_TEST_SUITE_P(
    AllCommitSyscalls, CrashPointSweep,
    ::testing::Values(
        CrashCase{"ckpt.write.data", fault::Kind::kCrash},
        CrashCase{"ckpt.write.data", fault::Kind::kShortWrite},  // torn tail
        CrashCase{"ckpt.fsync.data", fault::Kind::kCrash},
        CrashCase{"ckpt.rename.data", fault::Kind::kCrash},
        CrashCase{"ckpt.fsync.dir.data", fault::Kind::kCrash},
        CrashCase{"ckpt.write.manifest", fault::Kind::kCrash},
        CrashCase{"ckpt.write.manifest", fault::Kind::kShortWrite},
        CrashCase{"ckpt.fsync.manifest", fault::Kind::kCrash},
        CrashCase{"ckpt.rename.manifest", fault::Kind::kCrash},
        CrashCase{"ckpt.fsync.dir.manifest", fault::Kind::kCrash}));

TEST(CheckpointFaultTest, InjectedErrnoFailsCleanlyAndNextSaveSucceeds) {
  auto stream = TinyDigitsStream(1);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  TempDir dir;

  for (const int err : {ENOSPC, EIO}) {
    fault::Plan plan;
    plan.point = "ckpt.write.data";
    plan.kind = fault::Kind::kErrno;
    plan.error = err;
    fault::Arm(plan);
    const Result<CheckpointInfo> failed = SaveTrainer(dir.path(), trainer, 1);
    fault::Disarm();
    ASSERT_FALSE(failed.ok()) << err;
    EXPECT_FALSE(ckpt::IsInjectedCrash(failed.status())) << err;
  }

  // Unlike a crash, an errno failure unwinds normally: the temp file is
  // cleaned up and the very next save commits generation 1 as if nothing
  // happened.
  const Result<CheckpointInfo> saved = SaveTrainer(dir.path(), trainer, 1);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved->generation, 1u);
  std::vector<uint64_t> gens;
  ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
  ASSERT_EQ(gens.size(), 1u);
}

// ---------------------------------------------------------------------------
// On-disk corruption: CRC detection and generation fallback
// ---------------------------------------------------------------------------

TEST(CheckpointCorruptionTest, CorruptNewestFallsBackCorruptAllFails) {
  auto stream = TinyDigitsStream(2);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  const std::vector<float> state1 = FlatParams(trainer.model());

  TempDir dir;
  ASSERT_TRUE(SaveTrainer(dir.path(), trainer, 1).ok());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(1)).ok());
  const Result<CheckpointInfo> second = SaveTrainer(dir.path(), trainer, 2);
  ASSERT_TRUE(second.ok());
  const std::vector<uint8_t> good_gen2 = ReadAll(second->path);

  struct Corruption {
    const char* name;
    std::vector<uint8_t> (*mutate)(std::vector<uint8_t>);
  };
  const Corruption corruptions[] = {
      {"truncated to half",
       [](std::vector<uint8_t> b) {
         b.resize(b.size() / 2);
         return b;
       }},
      {"bit flip mid-file",
       [](std::vector<uint8_t> b) {
         b[b.size() / 2] ^= 0x01;
         return b;
       }},
      {"bad magic",
       [](std::vector<uint8_t> b) {
         b[0] ^= 0xFF;
         return b;
       }},
      {"empty file", [](std::vector<uint8_t>) {
         return std::vector<uint8_t>();
       }}};

  for (const Corruption& corruption : corruptions) {
    WriteAll(second->path, corruption.mutate(good_gen2));
    core::CdclTrainer restored(TinyCdclOptions());
    const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
    ASSERT_TRUE(info.ok()) << corruption.name << ": "
                           << info.status().ToString();
    EXPECT_EQ(info->generation, 1u) << corruption.name;
    EXPECT_EQ(info->next_task, 1) << corruption.name;
    EXPECT_TRUE(BitwiseEqual(FlatParams(restored.model()), state1))
        << corruption.name;
  }
  WriteAll(second->path, good_gen2);  // heal generation 2 again

  // A torn manifest alone must not matter: the directory scan finds the
  // newest good generation regardless.
  {
    const std::string manifest_path = dir.path() + "/MANIFEST";
    std::vector<uint8_t> manifest = ReadAll(manifest_path);
    manifest[manifest.size() / 2] ^= 0x20;
    WriteAll(manifest_path, manifest);
    core::CdclTrainer restored(TinyCdclOptions());
    const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->generation, 2u);
  }

  // Every generation corrupt -> a hard error, never silent garbage.
  {
    std::vector<uint64_t> gens;
    ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
    for (const uint64_t g : gens) {
      const std::string path =
          dir.path() + "/" + ckpt::GenerationFileName(g);
      std::vector<uint8_t> bytes = ReadAll(path);
      bytes[bytes.size() / 3] ^= 0x08;
      WriteAll(path, bytes);
    }
    core::CdclTrainer restored(TinyCdclOptions());
    const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
    ASSERT_FALSE(info.ok());
    EXPECT_EQ(info.status().code(), StatusCode::kIoError);
  }
}

/// Payload of section `tag` of an intact checkpoint file.
std::vector<uint8_t> SectionPayload(const std::vector<uint8_t>& good,
                                    uint32_t tag) {
  std::vector<ckpt::Section> sections;
  EXPECT_TRUE(ckpt::DecodeSections(good, &sections).ok());
  for (ckpt::Section& s : sections) {
    if (s.tag == tag) return std::move(s.payload);
  }
  ADD_FAILURE() << "no section tag " << tag;
  return {};
}

/// Rewrites one u64 inside section `tag` of a decoded checkpoint and
/// re-encodes it with fresh CRCs: the container verifies, so only the payload
/// parser stands between the forged count and an allocation sized from it.
std::vector<uint8_t> ForgeSectionU64(const std::vector<uint8_t>& good,
                                     uint32_t tag, size_t offset,
                                     uint64_t value) {
  std::vector<ckpt::Section> sections;
  EXPECT_TRUE(ckpt::DecodeSections(good, &sections).ok());
  for (ckpt::Section& s : sections) {
    if (s.tag != tag) continue;
    EXPECT_LE(offset + 8, s.payload.size());
    for (size_t i = 0; i < 8; ++i) {
      s.payload[offset + i] = static_cast<uint8_t>(value >> (8 * i));
    }
  }
  return ckpt::EncodeSections(sections);
}

/// Payload offset of the float count of the first model parameter.
size_t FirstParamFloatCountOffset(const std::vector<uint8_t>& good) {
  const std::vector<uint8_t> payload = SectionPayload(good, ckpt::kModel);
  ByteReader r(payload);
  uint64_t params = 0;
  std::string name;
  uint8_t requires_grad = 0, ndim = 0;
  int64_t dim = 0;
  EXPECT_TRUE(r.GetU64(&params) && params > 0);
  EXPECT_TRUE(r.GetString(&name) && r.GetU8(&requires_grad) && r.GetU8(&ndim));
  for (uint8_t d = 0; d < ndim; ++d) EXPECT_TRUE(r.GetI64(&dim));
  return payload.size() - r.remaining();
}

/// Payload offset of the element count of the first rehearsal record's
/// source_logits (the first CompactFloats in the memory section).
size_t FirstCompactFloatsCountOffset(const std::vector<uint8_t>& good) {
  const std::vector<uint8_t> payload = SectionPayload(good, ckpt::kMemory);
  ByteReader r(payload);
  int64_t num_tasks = 0;
  uint64_t records = 0;
  EXPECT_TRUE(r.GetI64(&num_tasks) && r.GetU64(&records) && records > 0);
  for (int image = 0; image < 2; ++image) {  // source_image, target_image
    uint8_t ndim = 0;
    int64_t dim = 0;
    std::vector<float> values;
    EXPECT_TRUE(r.GetU8(&ndim));
    for (uint8_t d = 0; d < ndim; ++d) EXPECT_TRUE(r.GetI64(&dim));
    EXPECT_TRUE(r.GetFloats(&values));
  }
  int64_t label = 0;
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(r.GetI64(&label));  // labels, id
  uint8_t mode = 0;
  EXPECT_TRUE(r.GetU8(&mode));
  return payload.size() - r.remaining();
}

TEST(CheckpointCorruptionTest, ForgedPayloadCountsFailRestoreWithoutAllocating) {
  // CRC-valid generations whose payload counts claim far more elements than
  // their section holds. Each must fail the restore with an IoError; sizing
  // a container from the count first would throw (or exhaust memory).
  auto stream = TinyDigitsStream(1);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  ASSERT_GT(trainer.memory().size(), 0);
  TempDir dir;
  const Result<CheckpointInfo> saved = SaveTrainer(dir.path(), trainer, 1);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  const std::vector<uint8_t> good = ReadAll(saved->path);

  const uint64_t huge = uint64_t{1} << 40;
  struct Forgery {
    const char* name;
    std::vector<uint8_t> bytes;
  };
  // meta: version u32, next_task i64, then tasks_seen i64 == count u64 (the
  // parser demands they agree, so both are forged).
  const std::vector<uint8_t> meta_forged = ForgeSectionU64(
      ForgeSectionU64(good, ckpt::kMeta, 4 + 8, huge), ckpt::kMeta, 4 + 16,
      huge);
  const Forgery forgeries[] = {
      {"meta class counts", meta_forged},
      {"model parameter count", ForgeSectionU64(good, ckpt::kModel, 0, huge)},
      {"optimizer state count", ForgeSectionU64(good, ckpt::kOptim, 0, huge)},
      {"memory record count", ForgeSectionU64(good, ckpt::kMemory, 8, huge)},
      {"compact float count",
       ForgeSectionU64(good, ckpt::kMemory, FirstCompactFloatsCountOffset(good),
                       huge)},
      {"parameter float count wrapping n * 4",
       ForgeSectionU64(good, ckpt::kModel, FirstParamFloatCountOffset(good),
                       uint64_t{1} << 62)},
  };
  for (const Forgery& forgery : forgeries) {
    WriteAll(saved->path, forgery.bytes);
    core::CdclTrainer restored(TinyCdclOptions());
    const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
    ASSERT_FALSE(info.ok()) << forgery.name;
    EXPECT_EQ(info.status().code(), StatusCode::kIoError) << forgery.name;
  }
  // The untouched bytes still restore: the forgeries, not the surgery, failed.
  WriteAll(saved->path, good);
  core::CdclTrainer restored(TinyCdclOptions());
  EXPECT_TRUE(RestoreTrainer(dir.path(), &restored).ok());
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

TEST(CheckpointTest, RetentionKeepsNewestGenerations) {
  auto stream = TinyDigitsStream(1);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());
  TempDir dir;

  SaveOptions keep2;
  keep2.retain = 2;
  for (int64_t next = 1; next <= 4; ++next) {
    const Result<CheckpointInfo> saved =
        SaveTrainer(dir.path(), trainer, next, keep2);
    ASSERT_TRUE(saved.ok()) << next;
    EXPECT_EQ(saved->generation, static_cast<uint64_t>(next));
  }
  std::vector<uint64_t> gens;
  ASSERT_TRUE(ckpt::ListGenerations(dir.path(), &gens).ok());
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], 3u);
  EXPECT_EQ(gens[1], 4u);

  core::CdclTrainer restored(TinyCdclOptions());
  const Result<CheckpointInfo> info = RestoreTrainer(dir.path(), &restored);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->generation, 4u);
  EXPECT_EQ(info->next_task, 4);
}

}  // namespace
}  // namespace cdcl
