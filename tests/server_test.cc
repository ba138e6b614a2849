// End-to-end coverage of the automc_serve subsystem: framed protocol over a
// real Unix-domain socket, the durable job lifecycle, and the determinism
// contract — an outcome fetched from the server is bit-identical to a
// direct in-process RunSearch of the same spec, including under concurrent
// jobs, cancellation, graceful drain, and crash-recovery restarts.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/net.h"
#include "core/run_spec.h"
#include "fleet/event_loop.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "search/report.h"
#include "server/job_manager.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"

namespace automc {
namespace {

using server::Client;
using server::JobState;
using testing::ScopedTempDir;

// Small enough that a full search runs in a second or two, large enough
// (via `budget`) to span several evaluation rounds.
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

// The reference result: a direct, in-process run of the same spec.
std::string DirectOutcomeBytes(const core::RunSpec& spec) {
  auto result = core::RunSearch(spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return search::SaveOutcomeBytes(result->outcome);
}

Result<server::JobInfo> PollUntil(Client* client, uint64_t id,
                                  const std::function<bool(JobState)>& pred,
                                  double timeout_s = 60.0) {
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

TEST(ProtocolTest, FrameRoundTripAndCorruptionOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  std::string payload = "hello automc";
  ASSERT_TRUE(
      server::WriteFrame(fds[0], server::MsgType::kGetMetrics, payload).ok());
  auto frame = server::ReadFrame(fds[1]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type,
            static_cast<uint32_t>(server::MsgType::kGetMetrics));
  EXPECT_EQ(frame->payload, payload);

  // Bad magic is garbage, not EOF.
  const char junk[16] = "###garbage####";
  ASSERT_EQ(::write(fds[0], junk, sizeof(junk)),
            static_cast<ssize_t>(sizeof(junk)));
  auto bad = server::ReadFrame(fds[1]);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
  ::close(fds[1]);

  // A close at a frame boundary is NotFound (clean EOF), distinct from the
  // InvalidArgument garbage above.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  auto eof = server::ReadFrame(fds[1]);
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  ::close(fds[1]);
}

TEST(ProtocolTest, TruncatedFrameIsInvalidNotEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A valid header promising 100 payload bytes, then EOF after 3.
  ByteWriter w;
  w.U32(server::kFrameMagic);
  w.U32(static_cast<uint32_t>(server::MsgType::kListJobs));
  w.U32(100);
  w.Raw("abc", 3);
  ASSERT_EQ(::write(fds[0], w.str().data(), w.str().size()),
            static_cast<ssize_t>(w.str().size()));
  ::close(fds[0]);
  auto truncated = server::ReadFrame(fds[1]);
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
  ::close(fds[1]);
}

TEST(ProtocolTest, FrameDecoderReassemblesSplitFramesAndPoisonsOnGarbage) {
  using server::FrameDecoder;
  // Two frames dribbled in one-byte feeds: the decoder must emit exactly
  // two kFrame events, in order, with kNeedMore everywhere in between.
  const std::string wire =
      server::EncodeFrame(server::MsgType::kListJobs, "") +
      server::EncodeFrame(server::MsgType::kGetMetrics, "payload!");
  FrameDecoder decoder;
  std::vector<server::Frame> frames;
  for (char byte : wire) {
    decoder.Feed(&byte, 1);
    server::Frame frame;
    Status error;
    while (decoder.Next(&frame, &error) == FrameDecoder::Event::kFrame) {
      frames.push_back(frame);
    }
    ASSERT_TRUE(error.ok()) << error.ToString();
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, static_cast<uint32_t>(server::MsgType::kListJobs));
  EXPECT_EQ(frames[1].type,
            static_cast<uint32_t>(server::MsgType::kGetMetrics));
  EXPECT_EQ(frames[1].payload, "payload!");
  EXPECT_FALSE(decoder.mid_frame());

  // A header promising more than the payload cap poisons the decoder
  // permanently — framing is unrecoverable after a violation.
  FrameDecoder poisoned;
  ByteWriter w;
  w.U32(server::kFrameMagic);
  w.U32(static_cast<uint32_t>(server::MsgType::kListJobs));
  w.U32(server::kMaxFramePayload + 1);
  poisoned.Feed(w.str().data(), w.str().size());
  server::Frame frame;
  Status error;
  ASSERT_EQ(poisoned.Next(&frame, &error), FrameDecoder::Event::kError);
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(error.message().find("cap"), std::string::npos) << error.message();
  // Still dead on the next call, even after more (valid-looking) bytes.
  poisoned.Feed(wire.data(), wire.size());
  EXPECT_EQ(poisoned.Next(&frame, &error), FrameDecoder::Event::kError);

  FrameDecoder garbage;
  garbage.Feed("not a frame at all##", 20);
  ASSERT_EQ(garbage.Next(&frame, &error), FrameDecoder::Event::kError);
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, TcpTransportServesByteIdenticalOutcomes) {
  ScopedTempDir dir("server_tcp");
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.tcp_address = "tcp:127.0.0.1:0";  // kernel-assigned port
  opts.jobs.workdir = dir.File("wd");
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  const std::string tcp = (*srv)->tcp_address();
  ASSERT_EQ(tcp.rfind("tcp:127.0.0.1:", 0), 0u) << tcp;
  ASSERT_NE(tcp, "tcp:127.0.0.1:0") << "port was not resolved";

  auto client = Client::Connect(tcp);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const core::RunSpec spec = TinySpec(/*seed=*/61, /*budget=*/4);
  auto id = client->Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto done = PollUntil(&*client, *id, server::JobStateIsTerminal);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->state, JobState::kDone) << done->error;
  auto bytes = client->FetchOutcomeBytes(*id);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, DirectOutcomeBytes(spec))
      << "TCP-served outcome differs from direct in-process run";

  // Both transports front the same job manager: the unix socket sees the
  // TCP-submitted job.
  auto unix_client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(unix_client.ok());
  auto list = unix_client->ListJobs();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].id, *id);
  (*srv)->Stop();
}

TEST(ServerTest, DribbledAndHalfClosedFramesAreStillServed) {
  ScopedTempDir dir("server_dribble");
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.tcp_address = "tcp:127.0.0.1:0";
  opts.jobs.workdir = dir.File("wd");
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  // One byte per write over TCP: the event loop must buffer partial frames
  // across reads and answer once the frame completes.
  auto fd = net::ConnectAddress((*srv)->tcp_address());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string wire = server::EncodeFrame(server::MsgType::kListJobs, "");
  for (char byte : wire) {
    ASSERT_EQ(::send(*fd, &byte, 1, 0), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto reply = server::ReadFrame(*fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, static_cast<uint32_t>(server::MsgType::kJobList));
  ::close(*fd);

  // Request-then-half-close: shutdown(SHUT_WR) right after the request is
  // the classic one-shot client; the buffered frame must still be served.
  auto fd2 = net::ConnectAddress((*srv)->tcp_address());
  ASSERT_TRUE(fd2.ok());
  ASSERT_EQ(::send(*fd2, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  ASSERT_EQ(::shutdown(*fd2, SHUT_WR), 0);
  auto oneshot = server::ReadFrame(*fd2);
  ASSERT_TRUE(oneshot.ok()) << oneshot.status().ToString();
  EXPECT_EQ(oneshot->type, static_cast<uint32_t>(server::MsgType::kJobList));
  ::close(*fd2);
  (*srv)->Stop();
}

TEST(ServerTest, OversizedPayloadGetsTypedErrorFrame) {
  ScopedTempDir dir("server_cap");
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.jobs.workdir = dir.File("wd");
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  auto fd = net::ConnectAddress(opts.socket_path);
  ASSERT_TRUE(fd.ok());
  // A header whose size field exceeds the cap — sent without any payload;
  // the server must reply with a typed kError frame (not silently drop the
  // connection) and then close.
  ByteWriter w;
  w.U32(server::kFrameMagic);
  w.U32(static_cast<uint32_t>(server::MsgType::kSubmitJob));
  w.U32(server::kMaxFramePayload + 1);
  ASSERT_EQ(::send(*fd, w.str().data(), w.str().size(), 0),
            static_cast<ssize_t>(w.str().size()));
  auto reply = server::ReadFrame(*fd);
  ASSERT_TRUE(reply.ok()) << "expected a typed error frame, got: "
                          << reply.status().ToString();
  EXPECT_EQ(reply->type, static_cast<uint32_t>(server::MsgType::kError));
  Status decoded = server::DecodeError(reply->payload);
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.message().find("cap"), std::string::npos)
      << decoded.message();
  // The violation closes the connection once the error frame is flushed.
  auto eof = server::ReadFrame(*fd);
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  ::close(*fd);
  (*srv)->Stop();
}

// Answers every request with a list reply declaring 2^32 - 1 entries and
// holding none.
class HostileListHandler : public fleet::RequestHandler {
 public:
  server::Frame Handle(uint64_t client, const server::Frame& request) override {
    (void)client;
    ByteWriter count;
    count.U32(0xffffffffu);
    server::Frame reply;
    reply.type = static_cast<uint32_t>(
        request.type == static_cast<uint32_t>(server::MsgType::kListJobs)
            ? server::MsgType::kJobList
            : server::MsgType::kArtifactList);
    reply.payload = count.Take();
    return reply;
  }
};

TEST(ServerTest, ListRepliesDeclaringMoreEntriesThanTheyHoldAreTypedErrors) {
  // The client used to size its result vector from the declared count
  // before reading one entry: std::bad_alloc instead of an error.
  ScopedTempDir dir("server_hostile_list");
  HostileListHandler handler;
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.handler = &handler;
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto jobs = client->ListJobs();
  ASSERT_FALSE(jobs.ok());
  EXPECT_EQ(jobs.status().code(), StatusCode::kInternal);
  auto artifacts = client->ListArtifacts();
  ASSERT_FALSE(artifacts.ok());
  EXPECT_EQ(artifacts.status().code(), StatusCode::kInternal);
  (*srv)->Stop();
}

TEST(ServerTest, IdleConnectionsAreReapedBySweep) {
  ScopedTempDir dir("server_idle");
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.jobs.workdir = dir.File("wd");
  opts.idle_timeout_s = 1;
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  const int64_t reaped_before = metrics::MetricsRegistry::Global()
                                    .GetCounter("server.idle_reaped")
                                    .value();
  // A half-open connection that never sends a byte (slow-loris shape):
  // the sweep must close it shortly after the timeout.
  auto fd = net::ConnectAddress(opts.socket_path);
  ASSERT_TRUE(fd.ok());
  const auto start = std::chrono::steady_clock::now();
  auto reply = server::ReadFrame(*fd);  // blocks until the server closes us
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound)
      << reply.status().ToString();
  EXPECT_LT(waited, 10.0) << "idle reap took too long";
  ::close(*fd);
  EXPECT_GT(metrics::MetricsRegistry::Global()
                .GetCounter("server.idle_reaped")
                .value(),
            reaped_before);

  // An active connection with the same lifetime is untouched.
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->ListJobs().ok()) << "active connection was reaped";
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
  }
  (*srv)->Stop();
}

// Descriptors open in this process; the server under test runs in it too.
size_t OpenFds() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

bool WaitForOpenFds(size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (OpenFds() != want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Mean microseconds per synchronous status round trip.
double StatusPollUs(Client* client, int polls) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < polls; ++i) {
    // No job 1 exists; the NotFound reply still makes the full round trip.
    EXPECT_EQ(client->JobStatus(1).status().code(), StatusCode::kNotFound);
  }
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
             .count() /
         polls;
}

// Idle sockets raise no epoll events, so 1,000 parked connections may slow
// the status polls of one active connection by at most 2x, with the idle
// sweep off (0) and on (an hour: it walks the connections, reaps none).
// Short poll windows alternate without and with the parked connections;
// the median of the paired ratios is the slowdown, so neither a busy moment
// nor a drift in the machine's load over the run biases it. The timing is
// too noisy to tell a sweep after every wakeup from one a second, so the
// sweep count is checked too: at most one walk per elapsed second.
class IdleConnectionsTest : public ::testing::TestWithParam<int> {};

TEST_P(IdleConnectionsTest, ThousandIdleConnectionsSlowStatusPollsUnder2x) {
  constexpr int kIdle = 1000, kRounds = 9, kPolls = 2000;
  // Each parked connection holds two descriptors here: the client end and
  // the server's accepted end.
  rlimit files{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &files), 0);
  const rlim_t need = OpenFds() + 2 * kIdle + 64;
  if (files.rlim_cur < need) {
    ASSERT_GE(files.rlim_max, need) << "the hard descriptor limit is too low";
    files.rlim_cur = need;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &files), 0);
  }

  ScopedTempDir dir("server_idle_conns");
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.jobs.workdir = dir.File("wd");
  opts.idle_timeout_s = GetParam();
  const metrics::Counter& sweeps =
      metrics::MetricsRegistry::Global().GetCounter("server.idle_sweeps");
  const int64_t sweeps_before = sweeps.value();
  const auto start = std::chrono::steady_clock::now();
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  StatusPollUs(&*client, kPolls);  // warm-up
  const size_t base_fds = OpenFds();

  std::vector<double> slowdowns;
  for (int round = 0; round < kRounds; ++round) {
    const double without = StatusPollUs(&*client, kPolls);
    std::vector<int> idle;
    for (int i = 0; i < kIdle; ++i) {
      auto fd = net::ConnectAddress(opts.socket_path);
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();
      idle.push_back(*fd);
    }
    ASSERT_TRUE(WaitForOpenFds(base_fds + 2 * kIdle))
        << "the server did not accept every idle connection";
    const double with = StatusPollUs(&*client, kPolls);
    slowdowns.push_back(with / without);
    for (int fd : idle) ::close(fd);
    ASSERT_TRUE(WaitForOpenFds(base_fds))
        << "the server did not close every idle connection";
  }
  const auto whole_seconds = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LE(sweeps.value() - sweeps_before, whole_seconds.count() + 2)
      << "the idle sweep walked the connections more than once a second";
  std::sort(slowdowns.begin(), slowdowns.end());
  const double median = slowdowns[kRounds / 2];
  RecordProperty("idle_conn_slowdown", std::to_string(median));
  EXPECT_LE(median, 2.0) << "1000 idle connections slowed status polls "
                         << median << "x (paired ratios from "
                         << slowdowns.front() << "x to " << slowdowns.back()
                         << "x)";
  (*srv)->Stop();
}

INSTANTIATE_TEST_SUITE_P(IdleTimeoutS, IdleConnectionsTest,
                         ::testing::Values(0, 3600));

TEST(ServerTest, SubmitPollFetchMatchesDirectRun) {
  ScopedTempDir dir("server_rt");
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.jobs.workdir = dir.File("wd");
  opts.jobs.max_concurrent = 1;
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const core::RunSpec spec = TinySpec(/*seed=*/7, /*budget=*/4);
  auto id = client->Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto done = PollUntil(&*client, *id, server::JobStateIsTerminal);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->state, JobState::kDone) << done->error;
  EXPECT_EQ(done->executions, 4);
  EXPECT_NE(done->summary.find("random vgg-13 tiny"), std::string::npos);

  auto bytes = client->FetchOutcomeBytes(*id);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, DirectOutcomeBytes(spec))
      << "server outcome differs from direct in-process run";

  // The fetched payload decodes back into a structurally sane outcome.
  auto outcome = search::LoadOutcomeBytes(*bytes);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->executions, 4);
  EXPECT_FALSE(outcome->pareto_points.empty());

  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("server.requests"), std::string::npos);
  (*srv)->Stop();
}

// The determinism contract extended to model bytes: the "job-<id>" artifact
// a finished job publishes is bit-identical to MaterializeScheme of the
// winning pareto scheme, over both transports, and loads back through
// nn/serialize.
TEST(ServerTest, FetchedModelMatchesDirectMaterialization) {
  ScopedTempDir dir("server_model");
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.tcp_address = "tcp:127.0.0.1:0";
  opts.jobs.workdir = dir.File("wd");
  opts.jobs.artifact_dir = dir.File("artifacts");
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const core::RunSpec spec = TinySpec(/*seed=*/31, /*budget=*/4);
  auto id = client->Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto done = PollUntil(&*client, *id, server::JobStateIsTerminal);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->state, JobState::kDone) << done->error;

  // Reference: a direct in-process run of the same spec, winner picked and
  // materialized by the exact recipe the server uses.
  auto direct = core::RunSearch(spec);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto winner = core::PickWinningScheme(direct->outcome);
  ASSERT_TRUE(winner.ok()) << winner.status().ToString();
  const std::vector<int>& scheme = direct->outcome.pareto_schemes[*winner];
  auto model = core::MaterializeScheme(spec, scheme);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  std::ostringstream want;
  ASSERT_TRUE(nn::SerializeModel(model->get(), &want).ok());

  const std::string name = "job-" + std::to_string(*id);
  for (const std::string& address :
       {opts.socket_path, (*srv)->tcp_address()}) {
    auto conn = Client::Connect(address);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    std::string got;
    auto info = conn->FetchModel(name, [&](std::string_view chunk) {
      got.append(chunk);
      return Status::OK();
    });
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(got, want.str())
        << "fetched model differs from direct materialization over "
        << address;
    EXPECT_EQ(info->job_id, *id);
    EXPECT_EQ(info->scheme, core::SchemeIndicesToString(scheme));
    EXPECT_EQ(info->acc, direct->outcome.pareto_points[*winner].acc);
  }

  // The streamed file round-trips through nn/serialize.
  const std::string path = dir.File("fetched.model");
  ASSERT_TRUE(client->FetchModelToFile(name, path).ok());
  auto reloaded = nn::LoadModel(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::ostringstream again;
  ASSERT_TRUE(nn::SerializeModel(reloaded->get(), &again).ok());
  EXPECT_EQ(again.str(), want.str());
  (*srv)->Stop();
}

// Each step of a served job runs once: the job publishes the model its
// search already built, so a fresh job invokes a compressor exactly once per
// strategy execution and trains exactly the epochs an in-process RunSearch
// of the same spec trains.
TEST(ServerTest, PublishingTheWinnerRerunsNothing) {
  ScopedTempDir dir("server_once");
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.jobs.workdir = dir.File("wd");
  opts.jobs.artifact_dir = dir.File("artifacts");
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  registry.Reset();
  const core::RunSpec spec = TinySpec(/*seed=*/37, /*budget=*/4);
  auto id = client->Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto done = PollUntil(&*client, *id, server::JobStateIsTerminal);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->state, JobState::kDone) << done->error;
  ASSERT_EQ(registry.GetCounter("server.models_published").value(), 1);

  EXPECT_EQ(testing::CompressorInvocations(), done->executions);
  EXPECT_EQ(registry.GetCounter("search.strategy_executions").value(),
            done->executions);
  const int64_t job_epochs = registry.GetCounter("trainer.epochs").value();
  (*srv)->Stop();

  registry.Reset();
  ASSERT_TRUE(core::RunSearch(spec).ok());
  EXPECT_EQ(job_epochs, registry.GetCounter("trainer.epochs").value());
}

TEST(ServerTest, TwoConcurrentJobsStayBitIdentical) {
  ScopedTempDir dir("server_conc");
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.jobs.workdir = dir.File("wd");
  opts.jobs.max_concurrent = 2;
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const core::RunSpec spec_a = TinySpec(/*seed=*/11, /*budget=*/4);
  const core::RunSpec spec_b = TinySpec(/*seed=*/23, /*budget=*/6);
  auto id_a = client->Submit(spec_a);
  auto id_b = client->Submit(spec_b);
  ASSERT_TRUE(id_a.ok() && id_b.ok());

  ASSERT_TRUE((*srv)->jobs()->WaitIdle(/*timeout_seconds=*/120.0));
  auto bytes_a = client->FetchOutcomeBytes(*id_a);
  auto bytes_b = client->FetchOutcomeBytes(*id_b);
  ASSERT_TRUE(bytes_a.ok()) << bytes_a.status().ToString();
  ASSERT_TRUE(bytes_b.ok()) << bytes_b.status().ToString();
  // Both jobs ran on overlapping job threads; neither may perturb the other.
  EXPECT_EQ(*bytes_a, DirectOutcomeBytes(spec_a));
  EXPECT_EQ(*bytes_b, DirectOutcomeBytes(spec_b));
  (*srv)->Stop();
}

TEST(ServerTest, CancelStopsARunningJob) {
  ScopedTempDir dir("server_cancel");
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.jobs.workdir = dir.File("wd");
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok());
  // A budget large enough that the search is still running when the cancel
  // lands (cooperative: it stops at the next evaluation round).
  auto id = client->Submit(TinySpec(/*seed=*/3, /*budget=*/500));
  ASSERT_TRUE(id.ok());
  auto running = PollUntil(&*client, *id, [](JobState s) {
    return s == JobState::kRunning;
  });
  ASSERT_TRUE(running.ok()) << running.status().ToString();

  ASSERT_TRUE(client->Cancel(*id).ok());
  auto ended = PollUntil(&*client, *id, server::JobStateIsTerminal);
  ASSERT_TRUE(ended.ok()) << ended.status().ToString();
  EXPECT_EQ(ended->state, JobState::kCancelled);
  // No outcome to fetch from a cancelled job.
  EXPECT_FALSE(client->FetchOutcomeBytes(*id).ok());
  // Cancelling a terminal job is an error, not a state change.
  EXPECT_FALSE(client->Cancel(*id).ok());
  (*srv)->Stop();
}

TEST(ServerTest, GarbageFramesCloseOnlyTheBadConnection) {
  ScopedTempDir dir("server_garbage");
  server::Server::Options opts;
  opts.socket_path = dir.File("s.sock");
  opts.jobs.workdir = dir.File("wd");
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  // Raw connection spewing garbage: the server must answer with an error
  // frame (or just close) without taking down the accept loop.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opts.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char junk[32] = "this is not a protocol frame...";
  ASSERT_EQ(::write(fd, junk, sizeof(junk)),
            static_cast<ssize_t>(sizeof(junk)));
  auto reply = server::ReadFrame(fd);
  if (reply.ok()) {
    EXPECT_EQ(reply->type, static_cast<uint32_t>(server::MsgType::kError));
  }
  ::close(fd);

  // An unknown request type on a well-formed frame is an error *reply* and
  // the connection survives for the next request.
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok());
  auto unknown = client->Call(static_cast<server::MsgType>(77), "");
  EXPECT_FALSE(unknown.ok());
  auto list = client->ListJobs();
  ASSERT_TRUE(list.ok()) << "connection died after an unknown-type request: "
                         << list.status().ToString();
  EXPECT_TRUE(list->empty());

  // And a fresh connection is served as if nothing happened.
  auto fresh = Client::Connect(opts.socket_path);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->ListJobs().ok());
  (*srv)->Stop();
}

TEST(ServerTest, QueuedJobsSurviveARestart) {
  ScopedTempDir dir("server_requeue");
  const core::RunSpec spec_a = TinySpec(/*seed=*/31, /*budget=*/4);
  const core::RunSpec spec_b = TinySpec(/*seed=*/37, /*budget=*/4);
  uint64_t id_a = 0, id_b = 0;
  {
    // start_paused: jobs are durably accepted but never started — the disk
    // state a server killed right after two submits leaves behind.
    server::JobManager::Options jopts;
    jopts.workdir = dir.File("wd");
    jopts.start_paused = true;
    auto mgr = server::JobManager::Open(jopts);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    auto a = (*mgr)->Submit(spec_a);
    auto b = (*mgr)->Submit(spec_b);
    ASSERT_TRUE(a.ok() && b.ok());
    id_a = *a;
    id_b = *b;
  }
  // "Restarted" manager: recovery re-queues and completes both.
  server::JobManager::Options jopts;
  jopts.workdir = dir.File("wd");
  auto mgr = server::JobManager::Open(jopts);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  ASSERT_TRUE((*mgr)->WaitIdle(/*timeout_seconds=*/120.0));
  auto bytes_a = (*mgr)->OutcomeBytes(id_a);
  auto bytes_b = (*mgr)->OutcomeBytes(id_b);
  ASSERT_TRUE(bytes_a.ok()) << bytes_a.status().ToString();
  ASSERT_TRUE(bytes_b.ok()) << bytes_b.status().ToString();
  EXPECT_EQ(*bytes_a, DirectOutcomeBytes(spec_a));
  EXPECT_EQ(*bytes_b, DirectOutcomeBytes(spec_b));
}

TEST(ServerTest, RunningJobResumesFromCheckpointAfterCrash) {
  ScopedTempDir dir("server_crash");
  const core::RunSpec spec = TinySpec(/*seed=*/41, /*budget=*/8);
  uint64_t id = 0;
  {
    // The power fails while the job writes its second checkpoint, leaving
    // exactly what a crash leaves — state RUNNING on disk with a valid
    // mid-search checkpoint and store beside it.
    testing::PowerCutAfter cut("checkpoint.bin",
                               testing::kCutInSecondCheckpoint);
    server::JobManager::Options jopts;
    jopts.workdir = dir.File("wd");
    auto mgr = server::JobManager::Open(jopts);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    auto submitted = (*mgr)->Submit(spec);
    ASSERT_TRUE(submitted.ok());
    id = *submitted;
    ASSERT_TRUE((*mgr)->WaitIdle(/*timeout_seconds=*/120.0));
    // In-memory the job failed; durably it is still RUNNING.
    auto info = (*mgr)->Info(id);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->state, JobState::kFailed);
    auto on_disk = durable::ReadFile(dir.File("wd") + "/jobs/" +
                                     std::to_string(id) + "/state");
    ASSERT_TRUE(on_disk.ok());
    EXPECT_EQ(*on_disk, "RUNNING\n");
  }
  auto& store_hits =
      metrics::MetricsRegistry::Global().GetCounter("store.hits");
  const int64_t hits_before = store_hits.value();
  server::JobManager::Options jopts;
  jopts.workdir = dir.File("wd");
  auto mgr = server::JobManager::Open(jopts);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  ASSERT_TRUE((*mgr)->WaitIdle(/*timeout_seconds=*/120.0));
  auto info = (*mgr)->Info(id);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->state, JobState::kDone) << info->error;
  // The round evaluated between the checkpoint and the crash is replayed
  // from the job's store.
  EXPECT_GT(store_hits.value(), hits_before);
  auto bytes = (*mgr)->OutcomeBytes(id);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, DirectOutcomeBytes(spec))
      << "crash-resumed outcome differs from an uninterrupted run";
}

TEST(ServerTest, GracefulDrainParksAndANewServerFinishes) {
  ScopedTempDir dir("server_drain");
  const core::RunSpec spec = TinySpec(/*seed=*/43, /*budget=*/200);
  uint64_t id = 0;
  {
    server::Server::Options opts;
    opts.socket_path = dir.File("a.sock");
    opts.jobs.workdir = dir.File("wd");
    auto srv = server::Server::Start(opts);
    ASSERT_TRUE(srv.ok()) << srv.status().ToString();
    auto client = Client::Connect(opts.socket_path);
    ASSERT_TRUE(client.ok());
    auto submitted = client->Submit(spec);
    ASSERT_TRUE(submitted.ok());
    id = *submitted;
    auto running = PollUntil(&*client, id, [](JobState s) {
      return s == JobState::kRunning;
    });
    ASSERT_TRUE(running.ok()) << running.status().ToString();
    (*srv)->Stop();  // graceful: checkpoints and re-queues the running job
  }
  server::Server::Options opts;
  opts.socket_path = dir.File("b.sock");
  opts.jobs.workdir = dir.File("wd");
  auto srv = server::Server::Start(opts);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  ASSERT_TRUE((*srv)->jobs()->WaitIdle(/*timeout_seconds=*/300.0));
  auto info = (*srv)->jobs()->Info(id);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->state, JobState::kDone) << info->error;
  auto bytes = (*srv)->jobs()->OutcomeBytes(id);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, DirectOutcomeBytes(spec))
      << "drain-resumed outcome differs from an uninterrupted run";
  (*srv)->Stop();
}

TEST(ServerTest, SubmitValidatesAndBoundsTheQueue) {
  ScopedTempDir dir("server_bounds");
  server::JobManager::Options jopts;
  jopts.workdir = dir.File("wd");
  jopts.start_paused = true;  // nothing drains, so the bound is exact
  jopts.queue_capacity = 2;
  auto mgr = server::JobManager::Open(jopts);
  ASSERT_TRUE(mgr.ok());

  core::RunSpec bad = TinySpec(/*seed=*/1, /*budget=*/4);
  bad.searcher = "not_a_searcher";
  EXPECT_EQ((*mgr)->Submit(bad).status().code(),
            StatusCode::kInvalidArgument);

  const core::RunSpec good = TinySpec(/*seed=*/1, /*budget=*/4);
  EXPECT_TRUE((*mgr)->Submit(good).ok());
  EXPECT_TRUE((*mgr)->Submit(good).ok());
  auto full = (*mgr)->Submit(good);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kFailedPrecondition);

  EXPECT_EQ((*mgr)->List().size(), 2u);
  EXPECT_EQ((*mgr)->Info(999).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace automc
