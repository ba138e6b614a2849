// ExperienceStore crash-safety and SearchCheckpointer atomicity: torn-write
// recovery at every byte offset, CRC rejection of corrupted payloads,
// fingerprint-keyed invalidation, experience export, and the warm-rerun
// contract (a repeat evaluation runs zero real strategy executions).
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "gtest/gtest.h"
#include "nn/trainer.h"
#include "search/evaluator.h"
#include "search/search_space.h"
#include "store/checkpoint.h"
#include "store/experience_store.h"
#include "test_util.h"

namespace automc {
namespace store {
namespace {

namespace fs = std::filesystem;
using automc::testing::ScopedTempDir;

EvalRecord MakeRecord(std::vector<int> scheme, double acc, int64_t params) {
  EvalRecord rec;
  rec.scheme = std::move(scheme);
  rec.acc = acc;
  rec.params = params;
  rec.flops = 2 * params;
  rec.ar = acc - 0.8;
  rec.pr = 1.0 - static_cast<double>(params) / 1000.0;
  rec.fr = rec.pr;
  return rec;
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(ExperienceStoreTest, RoundTripAcrossReopen) {
  ScopedTempDir dir("roundtrip");
  std::string path = dir.File("store.bin");
  Fingerprint fp{11, 22};

  {
    auto opened = ExperienceStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& st = **opened;
    st.Bind(fp);
    st.set_task_features({1.0f, 2.0f, 3.0f});
    ASSERT_TRUE(st.Append(MakeRecord({}, 0.8, 1000)).ok());
    ASSERT_TRUE(st.Append(MakeRecord({3}, 0.78, 700)).ok());
    ASSERT_TRUE(st.Append(MakeRecord({3, 5}, 0.74, 400)).ok());
    EXPECT_EQ(st.appends(), 3);
    EXPECT_EQ(st.size(), 3u);
    EXPECT_EQ(st.loaded_size(), 0u);  // nothing was on disk at open
  }

  auto reopened = ExperienceStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& st = **reopened;
  EXPECT_EQ(st.size(), 3u);
  EXPECT_EQ(st.recovered(), 3);
  EXPECT_EQ(st.loaded_size(), 3u);
  EXPECT_EQ(st.truncated_bytes(), 0);

  st.Bind(fp);
  const EvalRecord* rec = st.Lookup({3, 5});
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->acc, 0.74);
  EXPECT_EQ(rec->params, 400);
  ASSERT_EQ(rec->task_features.size(), 3u);
  EXPECT_FLOAT_EQ(rec->task_features[1], 2.0f);
  EXPECT_EQ(st.hits(), 1);
  EXPECT_EQ(st.Lookup({9, 9}), nullptr);
  EXPECT_EQ(st.misses(), 1);
}

TEST(ExperienceStoreTest, DuplicateAppendIsNoOp) {
  ScopedTempDir dir("dup");
  std::string path = dir.File("store.bin");
  auto opened = ExperienceStore::Open(path);
  ASSERT_TRUE(opened.ok());
  auto& st = **opened;
  st.Bind({1, 1});
  ASSERT_TRUE(st.Append(MakeRecord({4}, 0.7, 500)).ok());
  uintmax_t size_after_first = fs::file_size(path);
  // Same key, different value: the determinism contract says the value
  // cannot actually have changed, so nothing is written.
  ASSERT_TRUE(st.Append(MakeRecord({4}, 0.1, 999)).ok());
  EXPECT_EQ(st.appends(), 1);
  EXPECT_EQ(st.size(), 1u);
  EXPECT_EQ(fs::file_size(path), size_after_first);
  EXPECT_DOUBLE_EQ(st.Lookup({4})->acc, 0.7);
}

TEST(ExperienceStoreTest, FingerprintChangeInvalidatesRecords) {
  ScopedTempDir dir("fp");
  std::string path = dir.File("store.bin");
  auto opened = ExperienceStore::Open(path);
  ASSERT_TRUE(opened.ok());
  auto& st = **opened;
  st.Bind({100, 200});
  ASSERT_TRUE(st.Append(MakeRecord({2}, 0.75, 600)).ok());
  ASSERT_TRUE(st.Contains({2}));

  // A different search space or a retrained base model gets a different
  // fingerprint: old records are never served for it.
  st.Bind({100, 201});
  EXPECT_FALSE(st.Contains({2}));
  EXPECT_EQ(st.Lookup({2}), nullptr);
  st.Bind({101, 200});
  EXPECT_FALSE(st.Contains({2}));

  st.Bind({100, 200});
  EXPECT_NE(st.Lookup({2}), nullptr);
}

TEST(ExperienceStoreTest, RejectsForeignFile) {
  ScopedTempDir dir("foreign");
  std::string path = dir.File("store.bin");
  WriteFileBytes(path, "this is definitely not an experience store file");
  auto opened = ExperienceStore::Open(path);
  EXPECT_FALSE(opened.ok());
  // The foreign file must not have been destroyed by the failed open.
  EXPECT_EQ(ReadFileBytes(path),
            "this is definitely not an experience store file");
}

TEST(ExperienceStoreTest, TornHeaderStartsFresh) {
  ScopedTempDir dir("tornheader");
  std::string path = dir.File("store.bin");
  WriteFileBytes(path, "AMX");  // crash during creation: 3 of 8 header bytes
  auto opened = ExperienceStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->size(), 0u);
  EXPECT_EQ((*opened)->truncated_bytes(), 3);
  // The store is usable again after the recovery.
  (*opened)->Bind({1, 2});
  ASSERT_TRUE((*opened)->Append(MakeRecord({7}, 0.7, 500)).ok());
}

// The core crash-safety property: write N records, then simulate a crash
// that tears the final append at EVERY byte offset. Each reopen must
// recover exactly the first N-1 records, report the torn tail, and chop
// the file back so subsequent appends continue from a clean state.
TEST(ExperienceStoreTest, TruncationAtEveryOffsetRecoversPrefix) {
  ScopedTempDir dir("fault");
  std::string path = dir.File("store.bin");
  Fingerprint fp{7, 8};

  uintmax_t size_before_last = 0;
  {
    auto opened = ExperienceStore::Open(path);
    ASSERT_TRUE(opened.ok());
    auto& st = **opened;
    st.Bind(fp);
    st.set_task_features({0.5f, 0.25f});
    ASSERT_TRUE(st.Append(MakeRecord({}, 0.8, 1000)).ok());
    ASSERT_TRUE(st.Append(MakeRecord({1}, 0.79, 800)).ok());
    ASSERT_TRUE(st.Append(MakeRecord({1, 2}, 0.77, 640)).ok());
    size_before_last = fs::file_size(path);  // appends are flushed per record
    ASSERT_TRUE(st.Append(MakeRecord({1, 2, 3}, 0.72, 512)).ok());
  }
  const std::string full = ReadFileBytes(path);
  ASSERT_GT(full.size(), size_before_last);

  std::string victim = dir.File("victim.bin");
  for (uintmax_t cut = size_before_last; cut < full.size(); ++cut) {
    WriteFileBytes(victim, full.substr(0, cut));
    auto opened = ExperienceStore::Open(victim);
    ASSERT_TRUE(opened.ok()) << "cut=" << cut << ": "
                             << opened.status().ToString();
    auto& st = **opened;
    EXPECT_EQ(st.size(), 3u) << "cut=" << cut;
    EXPECT_EQ(st.recovered(), 3) << "cut=" << cut;
    EXPECT_EQ(st.truncated_bytes(),
              static_cast<int64_t>(cut - size_before_last))
        << "cut=" << cut;
    // The torn tail was physically removed.
    EXPECT_EQ(fs::file_size(victim), size_before_last) << "cut=" << cut;
    st.Bind(fp);
    EXPECT_TRUE(st.Contains({}));
    EXPECT_TRUE(st.Contains({1}));
    EXPECT_TRUE(st.Contains({1, 2}));
    EXPECT_FALSE(st.Contains({1, 2, 3})) << "cut=" << cut;
  }

  // The untouched file still yields all four records.
  auto intact = ExperienceStore::Open(path);
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ((*intact)->size(), 4u);
  EXPECT_EQ((*intact)->truncated_bytes(), 0);
}

TEST(ExperienceStoreTest, CorruptedPayloadIsDropped) {
  ScopedTempDir dir("corrupt");
  std::string path = dir.File("store.bin");
  {
    auto opened = ExperienceStore::Open(path);
    ASSERT_TRUE(opened.ok());
    (*opened)->Bind({1, 2});
    ASSERT_TRUE((*opened)->Append(MakeRecord({5}, 0.7, 500)).ok());
    ASSERT_TRUE((*opened)->Append(MakeRecord({5, 6}, 0.6, 300)).ok());
  }
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 5] ^= 0x40;  // flip a bit inside the last payload
  WriteFileBytes(path, bytes);

  auto reopened = ExperienceStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 1u);  // CRC rejected the damaged record
  EXPECT_GT((*reopened)->truncated_bytes(), 0);
}

// A CRC-valid record whose task-feature count claims 2^62 floats must be
// treated like any undecodable tail: truncated, never thrown on.
TEST(ExperienceStoreTest, HostileFloatCountIsTruncatedNotThrown) {
  ScopedTempDir dir("hostile");
  std::string path = dir.File("store.bin");
  {
    auto opened = ExperienceStore::Open(path);
    ASSERT_TRUE(opened.ok());
    (*opened)->Bind({1, 2});
    ASSERT_TRUE((*opened)->Append(MakeRecord({5}, 0.7, 500)).ok());
  }
  const uintmax_t good_size = fs::file_size(path);
  ByteWriter payload;
  payload.U64(1);
  payload.U64(2);
  payload.Ints({6});
  payload.F64(0.5);
  payload.I64(100);
  payload.I64(200);
  payload.F64(0.0);
  payload.F64(0.0);
  payload.F64(0.0);
  payload.U64(uint64_t{1} << 62);
  ByteWriter frame;
  frame.U32(static_cast<uint32_t>(payload.str().size()));
  frame.U32(Crc32(payload.str()));
  frame.Raw(payload.str().data(), payload.str().size());
  WriteFileBytes(path, ReadFileBytes(path) + frame.str());

  auto reopened = ExperienceStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 1u);
  EXPECT_EQ((*reopened)->truncated_bytes(),
            static_cast<int64_t>(frame.str().size()));
  EXPECT_EQ(fs::file_size(path), good_size);
}

TEST(ExperienceStoreTest, ExportStepsDerivesTransitions) {
  ScopedTempDir dir("export");
  std::string path = dir.File("store.bin");
  auto opened = ExperienceStore::Open(path);
  ASSERT_TRUE(opened.ok());
  auto& st = **opened;
  st.Bind({42, 1});
  st.set_task_features({9.0f});
  ASSERT_TRUE(st.Append(MakeRecord({}, 0.8, 1000)).ok());
  ASSERT_TRUE(st.Append(MakeRecord({3}, 0.76, 700)).ok());
  ASSERT_TRUE(st.Append(MakeRecord({3, 1}, 0.7, 490)).ok());
  // Same scheme indices under another space: must not leak into the export.
  st.Bind({43, 1});
  ASSERT_TRUE(st.Append(MakeRecord({}, 0.5, 100)).ok());
  ASSERT_TRUE(st.Append(MakeRecord({3}, 0.4, 50)).ok());

  std::vector<ExperienceStep> steps = st.ExportSteps(42);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].strategy, 3);
  EXPECT_FLOAT_EQ(steps[0].ar_step, static_cast<float>(0.76 / 0.8 - 1.0));
  EXPECT_FLOAT_EQ(steps[0].pr_step, static_cast<float>(1.0 - 700.0 / 1000.0));
  EXPECT_EQ(steps[1].strategy, 1);
  ASSERT_EQ(steps[1].task_features.size(), 1u);
  EXPECT_FLOAT_EQ(steps[1].task_features[0], 9.0f);

  // A record cutoff scoped to the first two log records sees only the
  // depth-1 transition — the replayable-export contract for resumed runs.
  EXPECT_EQ(st.ExportSteps(42, 2).size(), 1u);
}

// End-to-end warm-rerun contract: a second evaluator over the same space,
// base model, and store serves every evaluation from the log — zero real
// strategy executions — while still charging budget identically.
TEST(ExperienceStoreTest, WarmRerunRunsZeroRealExecutions) {
  ScopedTempDir dir("warm");
  std::string path = dir.File("store.bin");

  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 3;
  cfg.train_per_class = 12;
  cfg.test_per_class = 4;
  cfg.seed = 77;
  data::TaskData task = MakeSyntheticTask(cfg);

  nn::ModelSpec spec;
  spec.family = "vgg";
  spec.depth = 13;
  spec.num_classes = 3;
  spec.base_width = 4;
  Rng rng(5);
  std::unique_ptr<nn::Model> model = std::move(nn::BuildModel(spec, &rng)).value();
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 12;
  nn::Trainer trainer(tc);
  ASSERT_TRUE(trainer.Fit(model.get(), task.train).ok());

  compress::CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 1;
  ctx.batch_size = 12;
  ctx.seed = 3;
  search::SearchSpace space = search::SearchSpace::SingleMethod("NS");

  const std::vector<std::vector<int>> schemes = {{0}, {0, 2}, {4}, {0, 2, 1}};
  std::vector<search::EvalPoint> cold_points;
  int64_t cold_charged = 0;
  {
    auto opened = ExperienceStore::Open(path);
    ASSERT_TRUE(opened.ok());
    search::SchemeEvaluator ev(&space, model.get(), ctx, {});
    ASSERT_TRUE(ev.AttachStore(opened->get()).ok());
    for (const auto& s : schemes) {
      auto p = ev.Evaluate(s);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      cold_points.push_back(*p);
    }
    EXPECT_GT(ev.strategy_executions(), 0);
    cold_charged = ev.charged_executions();
  }

  auto reopened = ExperienceStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  search::SchemeEvaluator warm(&space, model.get(), ctx, {});
  ASSERT_TRUE(warm.AttachStore(reopened->get()).ok());
  for (size_t i = 0; i < schemes.size(); ++i) {
    auto p = warm.Evaluate(schemes[i]);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_DOUBLE_EQ(p->acc, cold_points[i].acc);
    EXPECT_EQ(p->params, cold_points[i].params);
    EXPECT_EQ(p->flops, cold_points[i].flops);
    EXPECT_DOUBLE_EQ(p->ar, cold_points[i].ar);
    EXPECT_DOUBLE_EQ(p->pr, cold_points[i].pr);
  }
  EXPECT_EQ(warm.strategy_executions(), 0);  // everything store-served
  EXPECT_EQ(warm.charged_executions(), cold_charged);
  EXPECT_GT(warm.store_hits(), 0);
  EXPECT_EQ((*reopened)->appends(), 0);  // nothing new to persist
}

TEST(CheckpointTest, WriteLoadRoundTrip) {
  ScopedTempDir dir("ckpt");
  SearchCheckpointer::Options opts;
  opts.dir = dir.path().string();
  SearchCheckpointer writer(opts);
  EXPECT_EQ(writer.LoadPending().code(), StatusCode::kNotFound);

  std::string binary("\x00\x01\xff payload", 11);
  ASSERT_TRUE(writer.Write({{"alpha", "hello"}, {"beta", binary}}).ok());

  SearchCheckpointer reader(opts);
  ASSERT_TRUE(reader.LoadPending().ok());
  ASSERT_TRUE(reader.has_pending());
  auto alpha = reader.TakePending("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(*alpha, "hello");
  auto beta = reader.TakePending("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(*beta, binary);
  EXPECT_EQ(reader.TakePending("alpha").status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, CorruptedCheckpointIsRejected) {
  ScopedTempDir dir("ckpt_corrupt");
  SearchCheckpointer::Options opts;
  opts.dir = dir.path().string();
  SearchCheckpointer writer(opts);
  ASSERT_TRUE(writer.Write({{"s", "state"}}).ok());

  std::string bytes = ReadFileBytes(writer.checkpoint_path());
  bytes[bytes.size() - 2] ^= 0x01;
  WriteFileBytes(writer.checkpoint_path(), bytes);

  SearchCheckpointer reader(opts);
  Status st = reader.LoadPending();
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(reader.has_pending());
}

TEST(CheckpointTest, StickySectionsMergeIntoEveryWrite) {
  ScopedTempDir dir("ckpt_sticky");
  SearchCheckpointer::Options opts;
  opts.dir = dir.path().string();
  SearchCheckpointer writer(opts);
  writer.SetStickySection("pin", "42");
  ASSERT_TRUE(writer.Write({{"s", "round1"}}).ok());
  ASSERT_TRUE(writer.Write({{"s", "round2"}}).ok());

  SearchCheckpointer reader(opts);
  ASSERT_TRUE(reader.LoadPending().ok());
  EXPECT_EQ(reader.pending().at("pin"), "42");
  EXPECT_EQ(reader.pending().at("s"), "round2");
}

TEST(CheckpointTest, FaultInjectionLeavesValidCheckpoint) {
  ScopedTempDir dir("ckpt_fault");
  SearchCheckpointer::Options opts;
  opts.dir = dir.path().string();
  SearchCheckpointer writer(opts);
  {
    // The power fails while the second checkpoint is being written.
    automc::testing::PowerCutAfter cut(
        "checkpoint.bin", automc::testing::kCutInSecondCheckpoint);
    ASSERT_TRUE(writer.Write({{"s", "survives"}}).ok());
    Status st = writer.Write({{"s", "never lands"}});
    EXPECT_EQ(st.code(), StatusCode::kInternal);
  }
  EXPECT_EQ(writer.writes(), 1);

  SearchCheckpointer reader({dir.path().string()});
  ASSERT_TRUE(reader.LoadPending().ok());
  EXPECT_EQ(reader.pending().at("s"), "survives");
}

TEST(CheckpointTest, CadenceFollowsEveryRounds) {
  SearchCheckpointer::Options opts;
  opts.dir = "/tmp";
  opts.every_rounds = 3;
  SearchCheckpointer ckpt(opts);
  std::vector<bool> ticks;
  for (int i = 0; i < 7; ++i) ticks.push_back(ckpt.ShouldCheckpoint());
  EXPECT_EQ(ticks, (std::vector<bool>{false, false, true, false, false, true,
                                      false}));
}

}  // namespace
}  // namespace store
}  // namespace automc
