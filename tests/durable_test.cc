// The durable-file layer: crash consistency of every durable writer under a
// power cut at each of its durable operations, the publish order
// (sync file -> move into place -> sync directory), deletes that sync their
// directory, same-path writers that never tear each other, FIFO and symlink
// targets written in place, and golden files written before the layer
// existed that must still decode to the same values.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <barrier>
#include <cstring>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "artifact/chunk_store.h"
#include "artifact/manifest.h"
#include "common/bytes.h"
#include "common/durable.h"
#include "common/metrics.h"
#include "core/run_spec.h"
#include "gtest/gtest.h"
#include "search/report.h"
#include "server/job_manager.h"
#include "server/protocol.h"
#include "store/checkpoint.h"
#include "store/experience_index.h"
#include "store/experience_store.h"
#include "test_util.h"

namespace automc {
namespace {

namespace fs = std::filesystem;
using durable::fault::Op;
using durable::fault::OpRecord;
using store::EvalRecord;
using store::Fingerprint;
using testing::ScopedTempDir;

int64_t CounterValue(const std::string& name) {
  return metrics::MetricsRegistry::Global().GetCounter(name).value();
}

std::string Blob(size_t n, uint64_t seed) {
  std::string blob(n, '\0');
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (char& c : blob) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(x >> 56);
  }
  return blob;
}

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

std::vector<std::pair<Fingerprint, EvalRecord>> Batch(int from, int count) {
  std::vector<std::pair<Fingerprint, EvalRecord>> recs;
  for (int i = from; i < from + count; ++i) {
    recs.emplace_back(Fingerprint{1, 7}, Rec(i));
  }
  return recs;
}

core::RunSpec TinySpec() {
  core::RunSpec spec;
  spec.family = "vgg";
  spec.depth = 13;
  spec.dataset = "tiny";
  spec.searcher = "random";
  spec.budget = 2;
  spec.pretrain = 1;
  spec.eval_batch = 2;
  spec.seed = 41;
  return spec;
}

// Files named like the temp file a crashed replace leaves behind, planted
// next to the data files each directory scan reads.
void PlantTempDecoys(const std::string& dir,
                     const std::vector<std::string>& names) {
  fs::create_directories(dir);
  for (const std::string& name : names) {
    ASSERT_TRUE(durable::AtomicWriteFile(dir + "/" + name + ".tmp.1.1",
                                         "leftover")
                    .ok());
  }
}

// Every replace must sync its file before moving it into place and sync the
// directory right after.
void ExpectPublishOrder(const std::vector<OpRecord>& log) {
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].op != Op::kRename) continue;
    const std::string& path = log[i].path;
    size_t prev = i, next = i + 1;
    while (prev > 0 && log[--prev].path != path) {
    }
    while (next < log.size() && log[next].path != path) ++next;
    ASSERT_LT(next, log.size()) << path;
    EXPECT_EQ(log[prev].op, Op::kSync) << "moved unsynced " << path;
    EXPECT_EQ(log[next].op, Op::kSyncDir) << "directory unsynced " << path;
  }
}

// Runs `write` once per crash point: for k = 0, 1, ... the power is cut
// after k durable operations under `root`, and `check` then reopens the
// state with power restored. Ends with the first run that completes without
// a cut, whose operation log it checks for the publish order.
void ForEveryCrashPoint(const std::string& root,
                        const std::function<void()>& setup,
                        const std::function<Status()>& write,
                        const std::function<void(bool crashed)>& check) {
  for (int k = 0; k < 1000; ++k) {
    setup();
    Status st;
    bool crashed = false;
    std::vector<OpRecord> log;
    {
      testing::PowerCutAfter cut(root, k);
      st = write();
      crashed = durable::fault::PowerIsCut();
      log = durable::fault::Log();
    }
    SCOPED_TRACE("power cut after " + std::to_string(k) + " operations");
    if (crashed) {
      EXPECT_FALSE(st.ok()) << "a write survived the power cut";
    } else {
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    check(crashed);
    if (!crashed) {
      EXPECT_GT(k, 0);
      ExpectPublishOrder(log);
      return;
    }
  }
  ADD_FAILURE() << "the writer never completed";
}

TEST(CrashConsistencyTest, JobSubmitAndCancel) {
  ScopedTempDir dir("crash_job");
  const std::string wd = dir.File("wd");
  auto open = [&]() {
    server::JobManager::Options opts;
    opts.workdir = wd;
    opts.start_paused = true;
    return server::JobManager::Open(opts);
  };
  const std::string summary = core::RunSpecSummary(TinySpec());

  // Submit: no job (old) or job 1 QUEUED with its spec (new).
  ForEveryCrashPoint(
      wd,
      [&] {
        fs::remove_all(wd);
        PlantTempDecoys(wd + "/jobs", {"1"});
      },
      [&]() -> Status {
        AUTOMC_ASSIGN_OR_RETURN(auto mgr, open());
        return mgr->Submit(TinySpec()).status();
      },
      [&](bool crashed) {
        auto mgr = open();
        ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
        std::vector<server::JobInfo> jobs = (*mgr)->List();
        if (crashed && jobs.empty()) return;
        ASSERT_EQ(jobs.size(), 1u);
        EXPECT_EQ(jobs[0].state, server::JobState::kQueued);
        EXPECT_EQ(jobs[0].summary, summary);
      });

  // Cancel: QUEUED (old) or CANCELLED (new).
  ForEveryCrashPoint(
      wd,
      [&] {
        fs::remove_all(wd);
        ASSERT_TRUE((*open())->Submit(TinySpec()).ok());
      },
      [&]() -> Status {
        AUTOMC_ASSIGN_OR_RETURN(auto mgr, open());
        return mgr->Cancel(1);
      },
      [&](bool crashed) {
        auto info = (*open())->Info(1);
        ASSERT_TRUE(info.ok());
        if (crashed && info->state == server::JobState::kQueued) return;
        EXPECT_EQ(info->state, server::JobState::kCancelled);
      });
}

// The finish of a real job: outcome.bin, then the DONE state. The cut
// points are the start of the run and every operation on outcome.bin.
TEST(CrashConsistencyTest, JobOutcomeAndDoneState) {
  ScopedTempDir dir("crash_outcome");
  const std::string wd = dir.File("wd");
  auto open = [&](bool paused) {
    server::JobManager::Options opts;
    opts.workdir = wd;
    opts.start_paused = paused;
    return server::JobManager::Open(opts);
  };
  for (int k = 0;; ++k) {
    fs::remove_all(wd);
    ASSERT_TRUE((*open(true))->Submit(TinySpec()).ok());
    bool crashed = false;
    {
      testing::PowerCutAfter cut("/outcome.bin", k);
      auto mgr = open(false);
      if (mgr.ok()) (*mgr)->WaitIdle(/*timeout_seconds=*/120.0);
      crashed = durable::fault::PowerIsCut();
    }
    SCOPED_TRACE("power cut after " + std::to_string(k) +
                 " outcome.bin operations");
    auto mgr = open(true);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    auto info = (*mgr)->Info(1);
    ASSERT_TRUE(info.ok());
    if (info->state == server::JobState::kQueued) {
      EXPECT_TRUE(crashed) << "an uninterrupted job did not finish";
    } else {
      ASSERT_EQ(info->state, server::JobState::kDone) << info->error;
      auto bytes = (*mgr)->OutcomeBytes(1);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      ASSERT_TRUE(search::LoadOutcomeBytes(*bytes).ok());
    }
    if (!crashed) break;
    ASSERT_LT(k, 20);
  }
}

TEST(CrashConsistencyTest, Checkpoint) {
  ScopedTempDir dir("crash_ckpt");
  const std::string root = dir.File("ckpt");
  store::SearchCheckpointer::Options opts;
  opts.dir = root;
  ForEveryCrashPoint(
      root,
      [&] {
        fs::remove_all(root);
        fs::create_directories(root);
        ASSERT_TRUE(store::SearchCheckpointer(opts).Write({{"s", "old"}}).ok());
      },
      [&] { return store::SearchCheckpointer(opts).Write({{"s", "new"}}); },
      [&](bool crashed) {
        store::SearchCheckpointer reader(opts);
        ASSERT_TRUE(reader.LoadPending().ok());
        const std::string s = reader.pending().at("s");
        EXPECT_TRUE(s == "new" || (crashed && s == "old")) << s;
      });
}

artifact::Registry::Options SmallChunks(const std::string& dir) {
  artifact::Registry::Options opts;
  opts.dir = dir;
  opts.chunk_size = 4096;
  return opts;
}

TEST(CrashConsistencyTest, ManifestPublish) {
  ScopedTempDir dir("crash_manifest");
  const std::string root = dir.File("reg");
  const std::string old_blob = Blob(3 * 4096, 1), new_blob = Blob(10000, 2);
  ForEveryCrashPoint(
      root,
      [&] {
        fs::remove_all(root);
        ASSERT_TRUE(
            (*artifact::Registry::Open(SmallChunks(root)))
                ->Publish("m", old_blob, {})
                .ok());
        PlantTempDecoys(root + "/manifests", {"m.mf", "x.mf"});
      },
      [&]() -> Status {
        AUTOMC_ASSIGN_OR_RETURN(auto reg,
                                artifact::Registry::Open(SmallChunks(root)));
        return reg->Publish("m", new_blob, {}).status();
      },
      [&](bool crashed) {
        auto reg = artifact::Registry::Open(SmallChunks(root));
        ASSERT_TRUE(reg.ok());
        std::vector<artifact::Manifest> listed = (*reg)->List();
        ASSERT_EQ(listed.size(), 1u);
        EXPECT_EQ(listed[0].name, "m");
        auto blob = (*reg)->FetchBlob("m");
        ASSERT_TRUE(blob.ok()) << blob.status().ToString();
        EXPECT_TRUE(*blob == new_blob || (crashed && *blob == old_blob));
      });
}

TEST(CrashConsistencyTest, PutBlobAndIndex) {
  ScopedTempDir dir("crash_chunks");
  const std::string root = dir.File("chunks");
  artifact::ChunkStore::Options opts;
  opts.dir = root;
  opts.chunk_size = 4096;
  const std::string old_blob = Blob(2 * 4096, 3), new_blob = Blob(3 * 4096, 4);
  std::vector<Sha256Digest> old_digests;
  ForEveryCrashPoint(
      root,
      [&] {
        fs::remove_all(root);
        auto put = (*artifact::ChunkStore::Open(opts))->PutBlob(old_blob);
        ASSERT_TRUE(put.ok());
        old_digests = put->digests;
        PlantTempDecoys(root + "/packs",
                        {"pack-000001.bin", "pack-000009.bin"});
      },
      [&]() -> Status {
        AUTOMC_ASSIGN_OR_RETURN(auto chunks, artifact::ChunkStore::Open(opts));
        return chunks->PutBlob(new_blob).status();
      },
      [&](bool crashed) {
        auto chunks = artifact::ChunkStore::Open(opts);
        ASSERT_TRUE(chunks.ok());
        for (const Sha256Digest& d : old_digests) {
          EXPECT_TRUE((*chunks)->GetChunk(d).ok());
        }
        const size_t known = (*chunks)->KnownChunks();
        EXPECT_TRUE(known == 5 || (crashed && known == 2)) << known;
        // Republishing heals whatever the cut left: every chunk is served
        // and verifies.
        auto put = (*chunks)->PutBlob(new_blob);
        ASSERT_TRUE(put.ok()) << put.status().ToString();
        for (const Sha256Digest& d : put->digests) {
          auto got = (*chunks)->GetChunk(d);
          EXPECT_TRUE(got.ok()) << got.status().ToString();
        }
        EXPECT_EQ((*chunks)->KnownChunks(), 5u);
        // The decoy named after pack 9 was never taken for a pack.
        EXPECT_FALSE(fs::exists(root + "/packs/pack-000009.bin"));
      });
}

// A delete is durable only once its directory is synced, or the file can
// come back after a power loss: a removed manifest naming chunks a later GC
// reclaimed, or a reclaimed pack no index lists.
TEST(CrashConsistencyTest, EveryArtifactDeleteSyncsItsDirectory) {
  ScopedTempDir dir("remove_log");
  auto reg = artifact::Registry::Open(SmallChunks(dir.File("reg")));
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  ASSERT_TRUE((*reg)->Publish("a", Blob(3 * 4096, 5), {}).ok());
  ASSERT_TRUE((*reg)->Publish("b", Blob(2 * 4096, 6), {}).ok());
  std::vector<OpRecord> log;
  {
    testing::PowerCutAfter record_only("", -1);
    ASSERT_TRUE((*reg)->Remove("a").ok());
    auto reclaimed = (*reg)->CollectGarbage();
    ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
    EXPECT_GT(*reclaimed, 0u);
    log = durable::fault::Log();
  }
  int deletes = 0;
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].op != Op::kUnlink) continue;
    ++deletes;
    size_t next = i + 1;
    while (next < log.size() && log[next].path != log[i].path) ++next;
    ASSERT_LT(next, log.size()) << "directory unsynced " << log[i].path;
    EXPECT_EQ(log[next].op, Op::kSyncDir) << "directory unsynced "
                                          << log[i].path;
  }
  EXPECT_GE(deletes, 2) << "the manifest and the reclaimed pack";
}

TEST(CrashConsistencyTest, PowerCutAtTheDirectorySyncFailsRemove) {
  ScopedTempDir dir("remove_cut");
  auto reg = artifact::Registry::Open(SmallChunks(dir.File("reg")));
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  ASSERT_TRUE((*reg)->Publish("m", Blob(4096, 7), {}).ok());
  Status st;
  std::vector<OpRecord> log;
  {
    // The unlink is the manifest's one operation; the power fails at the
    // next, the directory sync.
    testing::PowerCutAfter cut("m.mf", 1);
    st = (*reg)->Remove("m");
    log = durable::fault::Log();
  }
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].op, Op::kUnlink);
  EXPECT_FALSE(st.ok()) << "a delete whose directory was never synced "
                           "reported success";
}

TEST(CrashConsistencyTest, PublishExperience) {
  ScopedTempDir dir("crash_experience");
  const std::string root = dir.File("exp");
  ForEveryCrashPoint(
      root,
      [&] {
        fs::remove_all(root);
        ASSERT_TRUE(store::PublishExperience(root, "seg-1.bin", Batch(0, 3))
                        .ok());
        PlantTempDecoys(root, {"seg-1.bin", "seg-2.bin", "index.amxi"});
      },
      [&] { return store::PublishExperience(root, "seg-1.bin", Batch(0, 6)); },
      [&](bool crashed) {
        auto idx = store::ExperienceIndex::OpenOrRebuild(root);
        ASSERT_TRUE(idx.ok());
        EXPECT_FALSE((*idx)->rebuilt());
        EXPECT_TRUE((*idx)->size() == 6 || (crashed && (*idx)->size() == 3))
            << (*idx)->size();
        // Republishing heals a torn segment tail.
        ASSERT_TRUE(
            store::PublishExperience(root, "seg-1.bin", Batch(0, 6)).ok());
        auto healed = store::ExperienceIndex::OpenOrRebuild(root);
        ASSERT_TRUE(healed.ok());
        EXPECT_EQ((*healed)->size(), 6u);
        EvalRecord got;
        for (int i = 0; i < 6; ++i) {
          auto found = (*healed)->Find(Fingerprint{1, 7}, Rec(i).scheme, &got);
          EXPECT_TRUE(found.ok() && *found) << "record " << i;
        }
        // The index never dropped below the segment's own replay.
        fs::remove(root + "/" + store::ExperienceIndex::kIndexFile);
        auto replay = store::ExperienceIndex::OpenOrRebuild(root);
        ASSERT_TRUE(replay.ok());
        EXPECT_EQ((*replay)->size(), 6u);
      });
}

TEST(CrashConsistencyTest, ExperienceStoreAppend) {
  ScopedTempDir dir("crash_store");
  const std::string root = dir.File("store");
  const std::string path = root + "/store.bin";
  ForEveryCrashPoint(
      root,
      [&] {
        fs::remove_all(root);
        fs::create_directories(root);
        auto st = store::ExperienceStore::Open(path);
        ASSERT_TRUE(st.ok());
        (*st)->Bind({1, 2});
        ASSERT_TRUE((*st)->Append(Rec(1)).ok());
      },
      [&]() -> Status {
        AUTOMC_ASSIGN_OR_RETURN(auto st, store::ExperienceStore::Open(path));
        st->Bind({1, 2});
        return st->Append(Rec(2));
      },
      [&](bool crashed) {
        auto st = store::ExperienceStore::Open(path);
        ASSERT_TRUE(st.ok());
        (*st)->Bind({1, 2});
        EXPECT_TRUE((*st)->Contains(Rec(1).scheme));
        EXPECT_TRUE((*st)->size() == 2 || (crashed && (*st)->size() == 1));
      });
}

TEST(CrashConsistencyTest, StreamToFile) {
  ScopedTempDir dir("crash_stream");
  const std::string root = dir.File("out");
  const std::string path = root + "/model.bin";
  const std::string new_bytes = Blob(30000, 5);
  ForEveryCrashPoint(
      root,
      [&] {
        fs::remove_all(root);
        fs::create_directories(root);
        ASSERT_TRUE(durable::AtomicWriteFile(path, "old").ok());
      },
      [&] {
        return server::WriteStreamToFile(
            path, [&](const server::Client::ChunkSink& sink) -> Status {
              for (size_t pos = 0; pos < new_bytes.size(); pos += 10000) {
                AUTOMC_RETURN_IF_ERROR(
                    sink(std::string_view(new_bytes).substr(pos, 10000)));
              }
              return Status::OK();
            });
      },
      [&](bool crashed) {
        auto got = durable::ReadFile(path);
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(*got == new_bytes || (crashed && *got == "old"));
      });
}

// A whole-file output over an existing one: the old bytes or the new ones.
TEST(CrashConsistencyTest, OutcomeFile) {
  ScopedTempDir dir("crash_outcome_file");
  const std::string root = dir.File("out");
  const std::string path = root + "/outcome.txt";
  search::SearchOutcome old_outcome, new_outcome;
  old_outcome.executions = 3;
  old_outcome.history = {{3, 0.5, 0.6}};
  new_outcome.executions = 9;
  new_outcome.history = {{4, 0.7, 0.7}, {9, 0.75, 0.8}};
  new_outcome.pareto_schemes = {{1, 2}};
  new_outcome.pareto_points = {{0.8, 100, 2000, 0.01, 0.4, 0.3}};
  std::ostringstream old_bytes, new_bytes;
  ASSERT_TRUE(search::SaveOutcome(old_outcome, &old_bytes).ok());
  ASSERT_TRUE(search::SaveOutcome(new_outcome, &new_bytes).ok());
  ForEveryCrashPoint(
      root,
      [&] {
        fs::remove_all(root);
        fs::create_directories(root);
        ASSERT_TRUE(search::SaveOutcomeFile(old_outcome, path).ok());
      },
      [&] { return search::SaveOutcomeFile(new_outcome, path); },
      [&](bool crashed) {
        auto got = durable::ReadFile(path);
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(*got == new_bytes.str() ||
                    (crashed && *got == old_bytes.str()));
      });
}

// A target that is not a regular file is written through, not replaced:
// moving a temp file over a FIFO, a device or a symlink would swap it for
// a plain file.
TEST(AtomicWriteTest, FifoTargetStaysAFifoAndItsReaderGetsTheBytes) {
  ScopedTempDir dir("fifo_target");
  const std::string path = dir.File("out.fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  // With the read end open first the writer's open does not block, and the
  // bytes fit in the pipe's buffer.
  const int reader = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  ASSERT_GE(reader, 0);
  const std::string bytes = Blob(3000, 9);
  EXPECT_TRUE(durable::AtomicWriteFile(path, bytes).ok());
  std::string got;
  char buf[4096];
  for (ssize_t n; (n = ::read(reader, buf, sizeof(buf))) > 0;) {
    got.append(buf, static_cast<size_t>(n));
  }
  ::close(reader);
  EXPECT_EQ(got, bytes);
  EXPECT_EQ(fs::symlink_status(path).type(), fs::file_type::fifo);
}

TEST(AtomicWriteTest, SymlinkTargetStaysALinkToTheNewBytes) {
  ScopedTempDir dir("symlink_target");
  const std::string file = dir.File("model.bin"), link = dir.File("link");
  ASSERT_TRUE(durable::AtomicWriteFile(file, "old").ok());
  fs::create_symlink("model.bin", link);
  EXPECT_TRUE(durable::AtomicWriteFile(link, "new bytes").ok());
  EXPECT_TRUE(fs::is_symlink(link));
  auto got = durable::ReadFile(file);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "new bytes");
}

// Two writers of one path interleave mid-file; each must replace the file
// whole, through its own temp file, and leave no temp file behind.
TEST(AtomicWriteTest, SamePathWritersNeverTearEachOther) {
  ScopedTempDir dir("same_path");
  const std::string path = dir.File("model.bin");
  const std::string a(64 << 10, 'a'), b(64 << 10, 'b');
  std::barrier both_mid_file(2);
  auto write = [&](const std::string& payload) {
    return server::WriteStreamToFile(
        path, [&](const server::Client::ChunkSink& sink) -> Status {
          const std::string_view bytes(payload);
          AUTOMC_RETURN_IF_ERROR(sink(bytes.substr(0, bytes.size() / 2)));
          both_mid_file.arrive_and_wait();
          return sink(bytes.substr(bytes.size() / 2));
        });
  };
  Status status_a, status_b;
  std::thread writer_a([&] { status_a = write(a); });
  std::thread writer_b([&] { status_b = write(b); });
  writer_a.join();
  writer_b.join();
  EXPECT_TRUE(status_a.ok()) << status_a.ToString();
  EXPECT_TRUE(status_b.ok()) << status_b.ToString();
  auto got = durable::ReadFile(path);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got == a || *got == b) << "the writers mixed their bytes";
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << "leftover " << entry.path();
  }
}

// ---- golden files written by the code before the durable layer ----

class GoldenFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::copy(AUTOMC_DURABLE_FIXTURES, dir_.path(),
             fs::copy_options::recursive);
  }
  std::string File(const std::string& name) const { return dir_.File(name); }

  ScopedTempDir dir_{"golden"};
};

TEST_F(GoldenFileTest, JobFilesDecodeToTheSameValues) {
  const std::string job = File("wd/jobs/7");
  fs::create_directories(job);
  for (const char* name : {"spec.bin", "state", "outcome.bin"}) {
    fs::copy_file(File(std::string("job/") + name), job + "/" + name);
  }
  auto spec_body = durable::ReadSealedFile(job + "/spec.bin", "AMCJ");
  ASSERT_TRUE(spec_body.ok()) << spec_body.status().ToString();
  ByteWriter want_spec;
  core::EncodeRunSpec(TinySpec(), &want_spec);
  EXPECT_EQ(*spec_body, want_spec.str());

  server::JobManager::Options opts;
  opts.workdir = File("wd");
  opts.start_paused = true;
  auto mgr = server::JobManager::Open(opts);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  auto info = (*mgr)->Info(7);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, server::JobState::kDone);
  EXPECT_EQ(info->executions, 5);
  EXPECT_EQ(info->summary, core::RunSpecSummary(TinySpec()));

  auto bytes = (*mgr)->OutcomeBytes(7);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto outcome = search::LoadOutcomeBytes(*bytes);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->executions, 5);
  ASSERT_EQ(outcome->pareto_schemes.size(), 1u);
  EXPECT_EQ(outcome->pareto_schemes[0],
            (std::vector<int>{550, 1048, 3875, 1512, 437}));
  EXPECT_EQ(outcome->pareto_points[0].acc, 0.33333333333333331);
  EXPECT_EQ(outcome->pareto_points[0].params, 21734);
  EXPECT_EQ(search::SaveOutcomeBytes(*outcome), *bytes);
}

TEST_F(GoldenFileTest, CheckpointAndStoreDecodeToTheSameValues) {
  store::SearchCheckpointer ckpt({dir_.path().string()});
  ASSERT_TRUE(ckpt.LoadPending().ok());
  EXPECT_EQ(ckpt.pending().at("alpha"), "hello");
  EXPECT_EQ(ckpt.pending().at("beta"), std::string("\x00\x01\xff payload", 11));
  EXPECT_EQ(ckpt.pending().at("pin"), "42");

  auto st = store::ExperienceStore::Open(File("store.bin"));
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ((*st)->recovered(), 3);
  EXPECT_EQ((*st)->truncated_bytes(), 0);
  (*st)->Bind({11, 22});
  for (int i = 0; i < 3; ++i) {
    const EvalRecord* rec = (*st)->Lookup(Rec(i).scheme);
    ASSERT_NE(rec, nullptr) << i;
    EXPECT_EQ(rec->acc, Rec(i).acc);
    EXPECT_EQ(rec->params, Rec(i).params);
    EXPECT_EQ(rec->fr, Rec(i).fr);
    EXPECT_EQ(rec->task_features, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  }
}

uint32_t IndexVersion(const std::string& path) {
  auto bytes = durable::ReadFile(path);
  uint32_t version = 0;
  if (bytes.ok() && bytes->size() >= 8) {
    std::memcpy(&version, bytes->data() + 4, 4);
  }
  return version;
}

TEST_F(GoldenFileTest, OldExperienceIndexIsRebuiltThenRepublished) {
  const std::string exp = File("experience");
  EXPECT_EQ(IndexVersion(exp + "/index.amxi"), 1u);
  const int64_t rebuilds = CounterValue("store.index_rebuilds");
  auto idx = store::ExperienceIndex::OpenOrRebuild(exp);
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE((*idx)->rebuilt());
  EXPECT_EQ(CounterValue("store.index_rebuilds"), rebuilds + 1);
  EXPECT_EQ((*idx)->size(), 4u);
  EvalRecord got;
  for (int i = 0; i < 4; ++i) {
    auto found = (*idx)->Find(Fingerprint{1, 7}, Rec(i).scheme, &got);
    ASSERT_TRUE(found.ok() && *found) << i;
    EXPECT_EQ(got.acc, Rec(i).acc);
    EXPECT_EQ(got.task_features, Rec(i).task_features);
  }

  ASSERT_TRUE(store::PublishIndex(exp).ok());
  EXPECT_EQ(IndexVersion(exp + "/index.amxi"), 2u);
  auto fresh = store::ExperienceIndex::OpenOrRebuild(exp);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE((*fresh)->rebuilt());
  EXPECT_EQ((*fresh)->size(), 4u);
}

// Lookups open the files the index's file table names, so a name that is
// not a data file name makes the index unusable, even under a valid CRC.
TEST_F(GoldenFileTest, IndexNamingANonDataFileIsUnusable) {
  const std::string exp = File("experience");
  ASSERT_TRUE(store::PublishIndex(exp).ok());
  std::string image = *durable::ReadFile(exp + "/index.amxi");
  const size_t at = image.find("seg-1.bin");
  ASSERT_NE(at, std::string::npos);
  image.replace(at, 9, "../x1.bin");
  const uint32_t crc = Crc32(image.data(), image.size() - 4);
  std::memcpy(image.data() + image.size() - 4, &crc, 4);
  ASSERT_TRUE(durable::AtomicWriteFile(exp + "/index.amxi", image).ok());

  const int64_t rebuilds = CounterValue("store.index_rebuilds");
  auto idx = store::ExperienceIndex::OpenOrRebuild(exp);
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE((*idx)->rebuilt());
  EXPECT_EQ(CounterValue("store.index_rebuilds"), rebuilds + 1);
  EXPECT_EQ((*idx)->size(), 4u);
}

TEST_F(GoldenFileTest, OldChunkIndexIsRebuiltThenRepublished) {
  const std::string reg_dir = File("artifacts");
  EXPECT_EQ(IndexVersion(reg_dir + "/chunks.idx"), 1u);
  const int64_t rebuilds = CounterValue("artifact.index_rebuilds");
  auto reg = artifact::Registry::Open(SmallChunks(reg_dir));
  ASSERT_TRUE(reg.ok());
  EXPECT_EQ(CounterValue("artifact.index_rebuilds"), rebuilds + 1);

  auto m = (*reg)->GetManifest("golden");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->total_size, 10000u);
  EXPECT_EQ(m->chunks.size(), 3u);
  EXPECT_EQ(m->prov.job_id, 9u);
  EXPECT_EQ(m->prov.scheme, "1,4");
  EXPECT_EQ(m->prov.summary, "golden fixture");
  EXPECT_EQ(m->prov.acc, 0.625);
  EXPECT_EQ(m->prov.params, 4321);
  EXPECT_EQ(m->prov.flops, 98765);
  auto blob = (*reg)->FetchBlob("golden");
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(*blob, Blob(10000, 3));

  ASSERT_TRUE((*reg)->Publish("next", Blob(5000, 8), {}).ok());
  EXPECT_EQ(IndexVersion(reg_dir + "/chunks.idx"), 2u);
  auto reopened = artifact::Registry::Open(SmallChunks(reg_dir));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(CounterValue("artifact.index_rebuilds"), rebuilds + 1);
  EXPECT_EQ(*(*reopened)->FetchBlob("golden"), Blob(10000, 3));
}

}  // namespace
}  // namespace automc
