// End-to-end coverage of the fleet subsystem: a coordinator sharding jobs
// across forked automc_serve --worker processes. The contract under test is
// the same one the single-process server honors — every acknowledged job
// completes with an outcome byte-identical to a direct in-process run —
// now including a worker killed with SIGKILL mid-job.
//
// Needs the built daemon binary: ctest exports AUTOMC_SERVE_BIN; running
// the test binary by hand without it skips these tests.
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <thread>

#include "common/bytes.h"
#include "common/net.h"
#include "core/run_spec.h"
#include "fleet/coordinator.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "search/report.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"

namespace automc {
namespace {

using server::Client;
using server::JobState;
using testing::ScopedTempDir;

const char* ServeBin() { return std::getenv("AUTOMC_SERVE_BIN"); }

// The in-process coordinator may write to a worker a test just SIGKILLed.
// Like automc_serve, this process ignores SIGPIPE so that write fails with
// EPIPE and the coordinator retries, instead of the signal killing the test.
const bool kSigpipeIgnored = ::signal(SIGPIPE, SIG_IGN) != SIG_ERR;

core::RunSpec TinySpec(uint64_t seed, int budget) {
  core::RunSpec spec;
  spec.family = "vgg";
  spec.depth = 13;
  spec.dataset = "tiny";
  spec.searcher = "random";
  spec.budget = budget;
  spec.pretrain = 1;
  spec.eval_batch = 2;
  spec.seed = seed;
  return spec;
}

std::string DirectOutcomeBytes(const core::RunSpec& spec) {
  auto result = core::RunSearch(spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return search::SaveOutcomeBytes(result->outcome);
}

Result<server::JobInfo> PollUntil(Client* client, uint64_t id,
                                  const std::function<bool(JobState)>& pred,
                                  double timeout_s = 120.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    AUTOMC_ASSIGN_OR_RETURN(server::JobInfo info, client->JobStatus(id));
    if (pred(info.state)) return info;
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::Internal(std::string("timed out waiting; job is ") +
                              server::JobStateName(info.state));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

struct Fleet {
  std::unique_ptr<fleet::Coordinator> coordinator;
  std::unique_ptr<server::Server> server;

  Fleet() = default;
  Fleet(Fleet&&) = default;
  Fleet& operator=(Fleet&&) = default;

  ~Fleet() {
    if (server != nullptr) server->Stop();
    if (coordinator != nullptr) coordinator->Shutdown();
  }
};

// Coordinator (N real forked workers) fronted by an in-process Server on a
// unix socket, exactly the wiring `automc_serve --fleet N` builds.
Fleet StartFleet(const ScopedTempDir& dir, int workers) {
  Fleet fleet;
  fleet::Coordinator::Options copts;
  copts.num_workers = workers;
  copts.workdir = dir.File("fleet");
  copts.worker_exe = ServeBin();
  auto coord = fleet::Coordinator::Start(copts);
  EXPECT_TRUE(coord.ok()) << coord.status().ToString();
  if (!coord.ok()) return fleet;
  fleet.coordinator = std::move(*coord);

  server::Server::Options sopts;
  sopts.socket_path = dir.File("fleet.sock");
  sopts.handler = fleet.coordinator.get();
  auto srv = server::Server::Start(std::move(sopts));
  EXPECT_TRUE(srv.ok()) << srv.status().ToString();
  if (srv.ok()) fleet.server = std::move(*srv);
  return fleet;
}

// The parameter is the worker count: one worker owns every job, two split
// them (ids 1, 2, 3 land on workers 1, 2, 1).
class FleetShardTest : public ::testing::TestWithParam<int> {};

TEST_P(FleetShardTest, ShardedJobsMatchDirectRunsAndListMerges) {
  if (ServeBin() == nullptr) GTEST_SKIP() << "AUTOMC_SERVE_BIN not set";
  ScopedTempDir dir("fleet_rt");
  Fleet fleet = StartFleet(dir, GetParam());
  ASSERT_NE(fleet.server, nullptr);

  auto client = Client::Connect(dir.File("fleet.sock"));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const core::RunSpec specs[3] = {TinySpec(101, 4), TinySpec(102, 4),
                                  TinySpec(103, 6)};
  uint64_t ids[3];
  for (int i = 0; i < 3; ++i) {
    auto id = client->Submit(specs[i]);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids[i] = *id;
    EXPECT_EQ(*id, static_cast<uint64_t>(i + 1));
  }

  for (int i = 0; i < 3; ++i) {
    auto done = PollUntil(&*client, ids[i], server::JobStateIsTerminal);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    ASSERT_EQ(done->state, JobState::kDone) << done->error;
    auto bytes = client->FetchOutcomeBytes(ids[i]);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(*bytes, DirectOutcomeBytes(specs[i]))
        << "sharded outcome " << ids[i] << " differs from a direct run";
  }

  // ListJobs fans out to every worker and merges into one namespace.
  auto list = client->ListJobs();
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  ASSERT_EQ(list->size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*list)[i].id, i + 1);
    EXPECT_EQ((*list)[i].state, JobState::kDone);
  }

  // Per-worker metrics: a u32 worker id selects one worker's registry.
  ByteWriter w;
  w.U32(1);
  auto metrics = client->Call(server::MsgType::kGetMetrics, w.str());
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->payload.find("search.strategy_executions"),
            std::string::npos);
  ByteWriter bad;
  bad.U32(99);
  EXPECT_FALSE(client->Call(server::MsgType::kGetMetrics, bad.str()).ok());

  // The internal submit-with-id type is coordinator-to-worker only.
  EXPECT_FALSE(client->Call(server::MsgType::kSubmitWithId, "").ok());
}

INSTANTIATE_TEST_SUITE_P(Workers, FleetShardTest, ::testing::Values(1, 2));

TEST(FleetTest, SigkilledWorkerRespawnsAndJobFinishesBitIdentical) {
  if (ServeBin() == nullptr) GTEST_SKIP() << "AUTOMC_SERVE_BIN not set";
  ScopedTempDir dir("fleet_kill");
  Fleet fleet = StartFleet(dir, /*workers=*/2);
  ASSERT_NE(fleet.server, nullptr);

  auto client = Client::Connect(dir.File("fleet.sock"));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const core::RunSpec spec = TinySpec(/*seed=*/53, /*budget=*/200);
  auto id = client->Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_EQ(*id, 1u);  // job 1 is owned by worker 1

  auto running = PollUntil(&*client, *id, [](JobState s) {
    return s == JobState::kRunning;
  });
  ASSERT_TRUE(running.ok()) << running.status().ToString();

  const pid_t victim = fleet.coordinator->worker_pid(1);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // The monitor respawns worker 1; its recovery re-queues the job from its
  // durable checkpoint, and the finished outcome is the one an
  // uninterrupted run produces.
  auto done = PollUntil(&*client, *id, server::JobStateIsTerminal,
                        /*timeout_s=*/300.0);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->state, JobState::kDone) << done->error;

  const pid_t respawned = fleet.coordinator->worker_pid(1);
  EXPECT_GT(respawned, 0);
  EXPECT_NE(respawned, victim);

  auto bytes = client->FetchOutcomeBytes(*id);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, DirectOutcomeBytes(spec))
      << "outcome after a SIGKILL'd worker differs from an uninterrupted run";
}

// Artifacts flow through the fleet: a job runs on one worker's shard, but
// its published model is fetchable through the coordinator front door —
// byte-identical to a direct materialization, and still there after the
// publishing worker is SIGKILL'd and respawned (the registry is durable
// shared state, not worker memory).
TEST(FleetTest, PublishedModelSurvivesThePublishingWorker) {
  if (ServeBin() == nullptr) GTEST_SKIP() << "AUTOMC_SERVE_BIN not set";
  ScopedTempDir dir("fleet_artifact");
  Fleet fleet = StartFleet(dir, /*workers=*/2);
  ASSERT_NE(fleet.server, nullptr);

  auto client = Client::Connect(dir.File("fleet.sock"));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const core::RunSpec spec = TinySpec(/*seed=*/61, /*budget=*/4);
  auto id = client->Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_EQ(*id, 1u);  // job 1 runs on worker 1's shard
  auto done = PollUntil(&*client, *id, server::JobStateIsTerminal);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->state, JobState::kDone) << done->error;

  // Reference bytes: the server-side publish recipe run directly.
  auto direct = core::RunSearch(spec);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto winner = core::PickWinningScheme(direct->outcome);
  ASSERT_TRUE(winner.ok()) << winner.status().ToString();
  auto model = core::MaterializeScheme(
      spec, direct->outcome.pareto_schemes[*winner]);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  std::ostringstream want;
  ASSERT_TRUE(nn::SerializeModel(model->get(), &want).ok());

  const auto fetch = [&](const char* when) {
    std::string got;
    auto info = client->FetchModel("job-1", [&](std::string_view chunk) {
      got.append(chunk);
      return Status::OK();
    });
    ASSERT_TRUE(info.ok()) << when << ": " << info.status().ToString();
    EXPECT_EQ(got, want.str()) << "fleet-fetched model differs from a "
                               << "direct materialization " << when;
    EXPECT_EQ(info->job_id, 1u);
  };
  fetch("before the kill");

  auto artifacts = client->ListArtifacts();
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  ASSERT_EQ(artifacts->size(), 1u);
  EXPECT_EQ((*artifacts)[0].name, "job-1");

  // Kill the worker that published the artifact; the model must not die
  // with it. Wait for the monitor to respawn the shard so the fleet is
  // healthy again, then fetch the same bytes.
  const pid_t victim = fleet.coordinator->worker_pid(1);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (fleet.coordinator->worker_pid(1) == victim ||
         fleet.coordinator->worker_pid(1) <= 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "worker 1 never respawned";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  fetch("after SIGKILL + respawn of the publishing worker");
}

// A kFetchModel whose payload is not a name gets a typed InvalidArgument
// stream, and a request pipelined behind it on the same connection is still
// answered, in order.
void ExpectMalformedFetchAnswered(const std::string& address) {
  auto fd = net::ConnectAddress(address);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(
      server::WriteFrame(*fd, server::MsgType::kFetchModel, "\x01").ok());
  ASSERT_TRUE(server::WriteFrame(*fd, server::MsgType::kListJobs, "").ok());
  auto error = server::ReadFrame(*fd);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  ASSERT_EQ(error->type, static_cast<uint32_t>(server::MsgType::kError));
  EXPECT_EQ(server::DecodeError(error->payload).code(),
            StatusCode::kInvalidArgument);
  auto list = server::ReadFrame(*fd);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list->type, static_cast<uint32_t>(server::MsgType::kJobList));
  ::close(*fd);
}

TEST(FleetTest, MalformedFetchModelIsTypedOnServerAndFleet) {
  ScopedTempDir dir("fleet_bad_fetch");
  {
    server::Server::Options opts;
    opts.socket_path = dir.File("single.sock");
    opts.jobs.workdir = dir.File("single");
    auto single = server::Server::Start(std::move(opts));
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ExpectMalformedFetchAnswered(dir.File("single.sock"));
    (*single)->Stop();
  }
  if (ServeBin() == nullptr) GTEST_SKIP() << "AUTOMC_SERVE_BIN not set";
  Fleet fleet = StartFleet(dir, /*workers=*/2);
  ASSERT_NE(fleet.server, nullptr);
  ExpectMalformedFetchAnswered(dir.File("fleet.sock"));
}

}  // namespace
}  // namespace automc
