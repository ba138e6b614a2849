// Coverage of the fleet's shared experience tier: the mmap-indexed AMXI
// hash index over AMXP segments, its publish/rebuild lifecycle, the
// reader-never-blocks concurrency contract, and the end-to-end payoff —
// a warm rerun on a different worker performs zero real strategy
// executions yet returns a bit-identical outcome.
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/run_spec.h"
#include "gtest/gtest.h"
#include "search/report.h"
#include "server/job_manager.h"
#include "store/experience_index.h"
#include "store/experience_store.h"
#include "test_util.h"

namespace automc {
namespace {

using store::EvalRecord;
using store::ExperienceIndex;
using store::Fingerprint;
using testing::CompressorInvocations;
using testing::ScopedTempDir;

Fingerprint FP(uint64_t space, uint64_t model) {
  Fingerprint fp;
  fp.space = space;
  fp.model = model;
  return fp;
}

// A record whose every field is a deterministic function of `tag`, so a
// round-trip mismatch pinpoints the corrupted field.
EvalRecord Rec(int tag) {
  EvalRecord rec;
  rec.scheme = {tag, tag + 1, (tag * 7) % 13};
  rec.acc = 0.5 + 0.001 * tag;
  rec.params = 1000 + tag;
  rec.flops = 50000 + tag;
  rec.ar = 0.01 * tag;
  rec.pr = 0.02 * tag;
  rec.fr = 0.03 * tag;
  rec.task_features = {1.0f * tag, 2.0f * tag};
  return rec;
}

void ExpectSame(const EvalRecord& got, const EvalRecord& want) {
  EXPECT_EQ(got.scheme, want.scheme);
  EXPECT_EQ(got.acc, want.acc);
  EXPECT_EQ(got.params, want.params);
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(got.ar, want.ar);
  EXPECT_EQ(got.pr, want.pr);
  EXPECT_EQ(got.fr, want.fr);
  EXPECT_EQ(got.task_features, want.task_features);
}

std::vector<std::pair<Fingerprint, EvalRecord>> Batch(uint64_t model,
                                                      int from, int count) {
  std::vector<std::pair<Fingerprint, EvalRecord>> recs;
  for (int i = from; i < from + count; ++i) {
    recs.emplace_back(FP(/*space=*/1, model), Rec(i));
  }
  return recs;
}

int64_t CounterValue(const std::string& name) {
  return metrics::MetricsRegistry::Global().GetCounter(name).value();
}

TEST(ExperienceIndexTest, MultiSegmentRoundTripThroughMmapIndex) {
  ScopedTempDir dir("amxi_rt");
  // Two publishers (two workers), each appending to its own segment.
  ASSERT_TRUE(
      store::PublishExperience(dir.File(""), "seg-1.bin", Batch(7, 0, 3))
          .ok());
  ASSERT_TRUE(
      store::PublishExperience(dir.File(""), "seg-2.bin", Batch(9, 10, 4))
          .ok());

  auto idx = ExperienceIndex::OpenOrRebuild(dir.File(""));
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_FALSE((*idx)->rebuilt()) << "a published index must mmap cleanly";
  EXPECT_EQ((*idx)->size(), 7u);
  EXPECT_EQ((*idx)->generation(), 2u);

  EvalRecord got;
  for (int i = 0; i < 3; ++i) {
    auto found = (*idx)->Find(FP(1, 7), Rec(i).scheme, &got);
    ASSERT_TRUE(found.ok() && *found) << "missing seg-1 record " << i;
    ExpectSame(got, Rec(i));
  }
  for (int i = 10; i < 14; ++i) {
    auto found = (*idx)->Find(FP(1, 9), Rec(i).scheme, &got);
    ASSERT_TRUE(found.ok() && *found) << "missing seg-2 record " << i;
    ExpectSame(got, Rec(i));
  }

  // Same scheme under a different fingerprint is a different key: the
  // index must never serve another model's measurement.
  auto wrong_model = (*idx)->Find(FP(1, 8), Rec(0).scheme, &got);
  ASSERT_TRUE(wrong_model.ok());
  EXPECT_FALSE(*wrong_model);
  auto absent = (*idx)->Find(FP(1, 7), {99, 98, 97}, &got);
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);
}

TEST(ExperienceIndexTest, RepublishDedupsAndStaysIncremental) {
  ScopedTempDir dir("amxi_dedup");
  ASSERT_TRUE(
      store::PublishExperience(dir.File(""), "seg-1.bin", Batch(7, 0, 3))
          .ok());
  const auto size_once = std::filesystem::file_size(dir.File("seg-1.bin"));
  // Re-publishing the same records appends nothing (first writer wins)...
  ASSERT_TRUE(
      store::PublishExperience(dir.File(""), "seg-1.bin", Batch(7, 0, 3))
          .ok());
  EXPECT_EQ(std::filesystem::file_size(dir.File("seg-1.bin")), size_once);
  // ...while novel records still land.
  ASSERT_TRUE(
      store::PublishExperience(dir.File(""), "seg-1.bin", Batch(7, 0, 5))
          .ok());
  auto idx = ExperienceIndex::OpenOrRebuild(dir.File(""));
  ASSERT_TRUE(idx.ok());
  EXPECT_FALSE((*idx)->rebuilt());
  EXPECT_EQ((*idx)->size(), 5u);
}

TEST(ExperienceIndexTest, CorruptOrMissingIndexFallsBackToSegmentReplay) {
  ScopedTempDir dir("amxi_corrupt");
  ASSERT_TRUE(
      store::PublishExperience(dir.File(""), "seg-1.bin", Batch(3, 0, 4))
          .ok());

  // Flip a byte in the middle of the index: the CRC guard must reject the
  // whole image and serve from a replay of the segments instead.
  {
    std::fstream f(dir.File(ExperienceIndex::kIndexFile),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(40);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(40);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  const int64_t rebuilds_before = CounterValue("store.index_rebuilds");
  {
    auto idx = ExperienceIndex::OpenOrRebuild(dir.File(""));
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    EXPECT_TRUE((*idx)->rebuilt());
    EXPECT_EQ((*idx)->size(), 4u);
    EvalRecord got;
    for (int i = 0; i < 4; ++i) {
      auto found = (*idx)->Find(FP(1, 3), Rec(i).scheme, &got);
      ASSERT_TRUE(found.ok() && *found) << "record " << i << " lost";
      ExpectSame(got, Rec(i));
    }
  }
  EXPECT_EQ(CounterValue("store.index_rebuilds"), rebuilds_before + 1);

  // Truncation (a torn rename never produces this, but a dying disk can):
  // same fallback.
  std::filesystem::resize_file(dir.File(ExperienceIndex::kIndexFile), 17);
  {
    auto idx = ExperienceIndex::OpenOrRebuild(dir.File(""));
    ASSERT_TRUE(idx.ok());
    EXPECT_TRUE((*idx)->rebuilt());
    EXPECT_EQ((*idx)->size(), 4u);
  }

  // The next publish heals the file: a fresh reader mmaps again.
  ASSERT_TRUE(store::PublishIndex(dir.File("")).ok());
  auto healed = ExperienceIndex::OpenOrRebuild(dir.File(""));
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE((*healed)->rebuilt());
  EXPECT_EQ((*healed)->size(), 4u);
}

TEST(ExperienceIndexTest, TornSegmentTailIsIgnoredNotFatal) {
  ScopedTempDir dir("amxi_torn");
  ASSERT_TRUE(
      store::PublishExperience(dir.File(""), "seg-1.bin", Batch(5, 0, 3))
          .ok());
  // A crash mid-append leaves a frame header promising more bytes than
  // exist. Every replay path must stop cleanly at the tear.
  {
    std::ofstream f(dir.File("seg-1.bin"),
                    std::ios::app | std::ios::binary);
    const uint32_t torn[2] = {4096u, 0xdeadbeefu};
    f.write(reinterpret_cast<const char*>(torn), sizeof(torn));
    f.write("xx", 2);
  }
  std::filesystem::remove(dir.File(ExperienceIndex::kIndexFile));
  auto idx = ExperienceIndex::OpenOrRebuild(dir.File(""));
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_TRUE((*idx)->rebuilt());
  EXPECT_EQ((*idx)->size(), 3u);
  EvalRecord got;
  auto found = (*idx)->Find(FP(1, 5), Rec(2).scheme, &got);
  ASSERT_TRUE(found.ok() && *found);
  ExpectSame(got, Rec(2));
  // And a republish over the torn segment still indexes the intact prefix.
  ASSERT_TRUE(store::PublishIndex(dir.File("")).ok());
  auto healed = ExperienceIndex::OpenOrRebuild(dir.File(""));
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE((*healed)->rebuilt());
  EXPECT_EQ((*healed)->size(), 3u);
}

// TSan-facing: one publisher appending batches while readers continuously
// open the directory and resolve lookups. Readers never take the lock, so
// nothing here may block or race — every opened generation serves a
// consistent snapshot.
TEST(ExperienceIndexTest, ReadersNeverBlockDuringPublish) {
  ScopedTempDir dir("amxi_conc");
  ASSERT_TRUE(
      store::PublishExperience(dir.File(""), "seg-1.bin", Batch(2, 0, 4))
          .ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int round = 1; round <= 8; ++round) {
      ASSERT_TRUE(store::PublishExperience(dir.File(""), "seg-1.bin",
                                           Batch(2, round * 10, 4))
                      .ok());
    }
    stop.store(true);
  });
  std::thread reader([&] {
    EvalRecord got;
    while (!stop.load()) {
      auto idx = ExperienceIndex::OpenOrRebuild(dir.File(""));
      ASSERT_TRUE(idx.ok()) << idx.status().ToString();
      // The first batch predates every publish in flight: it must be
      // visible in every snapshot.
      for (int i = 0; i < 4; ++i) {
        auto found = (*idx)->Find(FP(1, 2), Rec(i).scheme, &got);
        ASSERT_TRUE(found.ok() && *found);
      }
    }
  });
  writer.join();
  reader.join();

  auto idx = ExperienceIndex::OpenOrRebuild(dir.File(""));
  ASSERT_TRUE(idx.ok());
  EXPECT_FALSE((*idx)->rebuilt());
  EXPECT_EQ((*idx)->size(), 4u + 8u * 4u);
}

// The payoff the tier exists for: worker B reruns a spec worker A already
// solved. Every evaluation is served from the shared index (zero real
// strategy executions) and the outcome is byte-identical — warm never
// changes results, it only removes work. Worker B never executed the
// winner, so it rebuilds the published model from its own base model, one
// compressor run per step, into worker A's bytes.
TEST(ExperienceIndexTest, CrossWorkerWarmRerunChargesZeroExecutions) {
  ScopedTempDir dir("amxi_warm");
  core::RunSpec spec;
  spec.family = "vgg";
  spec.depth = 13;
  spec.dataset = "tiny";
  spec.searcher = "random";
  spec.budget = 4;
  spec.pretrain = 1;
  spec.eval_batch = 2;
  spec.seed = 77;

  // The job's outcome bytes and its published model bytes.
  auto run_on_worker = [&](const std::string& workdir,
                           const std::string& segment)
      -> std::pair<std::string, std::string> {
    server::JobManager::Options jopts;
    jopts.workdir = dir.File(workdir);
    jopts.shared_dir = dir.File("experience");
    jopts.shared_segment = segment;
    jopts.artifact_dir = dir.File(workdir + "-artifacts");
    auto mgr = server::JobManager::Open(jopts);
    EXPECT_TRUE(mgr.ok()) << mgr.status().ToString();
    auto id = (*mgr)->Submit(spec);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE((*mgr)->WaitIdle(/*timeout_seconds=*/120.0));
    auto bytes = (*mgr)->OutcomeBytes(*id);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto model = (*mgr)->registry()->FetchBlob("job-" + std::to_string(*id));
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return {bytes.ok() ? *bytes : std::string(),
            model.ok() ? *model : std::string()};
  };

  const auto [cold, cold_model] = run_on_worker("worker-1", "seg-1.bin");
  ASSERT_FALSE(cold.empty());
  ASSERT_FALSE(cold_model.empty());

  // Worker B: different job dir, different segment, same shared tier.
  const int64_t execs_before = CounterValue("search.strategy_executions");
  const int64_t shared_before = CounterValue("store.shared_hits");
  const int64_t invocations_before = CompressorInvocations();
  const auto [warm, warm_model] = run_on_worker("worker-2", "seg-2.bin");
  ASSERT_FALSE(warm.empty());

  EXPECT_EQ(warm, cold)
      << "shared-tier warm rerun must be byte-identical to the cold run";
  EXPECT_EQ(CounterValue("search.strategy_executions"), execs_before)
      << "warm rerun executed real strategies despite the shared index";
  EXPECT_GT(CounterValue("store.shared_hits"), shared_before);

  // The outcome still reports the budget it *charged* — identical to the
  // cold run's — even though no execution actually happened.
  auto outcome = search::LoadOutcomeBytes(warm);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->executions, 4);

  auto win = core::PickWinningScheme(*outcome);
  ASSERT_TRUE(win.ok()) << win.status().ToString();
  const std::vector<int>& scheme = outcome->pareto_schemes[*win];
  ASSERT_FALSE(scheme.empty());
  EXPECT_EQ(CompressorInvocations() - invocations_before,
            static_cast<int64_t>(scheme.size()));
  EXPECT_EQ(warm_model, cold_model)
      << "the rebuilt winner differs from the model the cold run measured";
}

}  // namespace
}  // namespace automc
