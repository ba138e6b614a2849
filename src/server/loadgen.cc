#include "server/loadgen.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <random>
#include <sstream>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/net.h"
#include "server/protocol.h"

namespace automc {
namespace server {
namespace loadgen {

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kOpNames[kNumOps] = {"status", "list",  "submit",
                                           "cancel", "fetch", "fetch_model"};

MsgType RequestType(Op op) {
  switch (op) {
    case Op::kStatus: return MsgType::kJobStatus;
    case Op::kList: return MsgType::kListJobs;
    case Op::kSubmit: return MsgType::kSubmitJob;
    case Op::kCancel: return MsgType::kCancelJob;
    case Op::kFetch: return MsgType::kFetchOutcome;
    case Op::kFetchModel: return MsgType::kFetchModel;
  }
  return MsgType::kJobStatus;
}

// The frame that *completes* the reply; kFetchModel's kModelStart/kModelChunk
// interior frames are absorbed without popping the pending FIFO.
MsgType ExpectedReply(Op op) {
  switch (op) {
    case Op::kStatus: return MsgType::kStatus;
    case Op::kList: return MsgType::kJobList;
    case Op::kSubmit: return MsgType::kSubmitted;
    case Op::kCancel: return MsgType::kOk;
    case Op::kFetch: return MsgType::kOutcome;
    case Op::kFetchModel: return MsgType::kModelEnd;
  }
  return MsgType::kStatus;
}

// [0, 1) from the top 53 bits — an explicitly pinned mapping, unlike the
// implementation-defined std::uniform_real_distribution.
double Unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::string JsonDouble(double v) {
  std::ostringstream os;
  os.precision(6);
  if (!std::isfinite(v)) v = 0.0;
  os << v;
  return os.str();
}

}  // namespace

const char* OpName(Op op) { return kOpNames[static_cast<int>(op)]; }

Result<Mix> Mix::Parse(std::string_view text) {
  Mix mix;
  if (text.empty()) return mix;
  for (double& w : mix.weight) w = 0.0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view entry = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("mix entry '" + std::string(entry) +
                                     "' is not name=weight");
    }
    const std::string_view name = entry.substr(0, eq);
    int found = -1;
    for (int i = 0; i < kNumOps; ++i) {
      if (name == kOpNames[i]) found = i;
    }
    if (found < 0) {
      return Status::InvalidArgument("unknown mix op '" + std::string(name) +
                                     "'");
    }
    char* end = nullptr;
    const std::string value(entry.substr(eq + 1));
    const double w = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !(w >= 0.0)) {
      return Status::InvalidArgument("bad mix weight '" + value + "'");
    }
    mix.weight[found] = w;
  }
  double total = 0.0;
  for (double w : mix.weight) total += w;
  if (total <= 0.0) {
    return Status::InvalidArgument("mix has no positive weight");
  }
  return mix;
}

std::string Mix::ToString() const {
  std::ostringstream os;
  for (int i = 0; i < kNumOps; ++i) {
    if (i) os << ",";
    os << kOpNames[i] << "=" << JsonDouble(weight[i]);
  }
  return os.str();
}

std::vector<ScheduledOp> BuildSchedule(const ScheduleParams& params) {
  std::vector<ScheduledOp> schedule;
  if (params.qps <= 0.0 || params.duration_s <= 0.0 ||
      params.connections <= 0) {
    return schedule;
  }
  double cumulative[kNumOps];
  double total = 0.0;
  for (int i = 0; i < kNumOps; ++i) {
    total += std::max(params.mix.weight[i], 0.0);
    cumulative[i] = total;
  }
  if (total <= 0.0) return schedule;

  std::mt19937_64 rng(params.seed);
  schedule.reserve(static_cast<size_t>(params.qps * params.duration_s * 1.1));
  double t = 0.0;
  for (;;) {
    // Poisson arrivals: exponential inter-arrival via inverse CDF.
    t += -std::log1p(-Unit(rng)) / params.qps;
    if (t >= params.duration_s) break;
    const double pick = Unit(rng) * total;
    Op op = Op::kFetch;
    for (int i = 0; i < kNumOps; ++i) {
      if (pick < cumulative[i]) {
        op = static_cast<Op>(i);
        break;
      }
    }
    ScheduledOp entry;
    entry.at_ns = static_cast<int64_t>(t * 1e9);
    entry.op = op;
    entry.conn = static_cast<uint32_t>(
        rng() % static_cast<uint64_t>(params.connections));
    // Distinct-timestamp guarantee (ns resolution can collide at high QPS).
    if (!schedule.empty() && entry.at_ns <= schedule.back().at_ns) {
      entry.at_ns = schedule.back().at_ns + 1;
    }
    schedule.push_back(entry);
  }
  return schedule;
}

OpStats Report::Total() const {
  OpStats t;
  for (const OpStats& s : per_op) {
    t.sent += s.sent;
    t.ok += s.ok;
    t.rejected += s.rejected;
    t.errors += s.errors;
    t.timeouts += s.timeouts;
  }
  return t;
}

double Report::ErrorRate() const {
  const OpStats t = Total();
  if (t.sent == 0) return 0.0;
  return static_cast<double>(t.errors + t.timeouts) /
         static_cast<double>(t.sent);
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"offered_qps\": " << JsonDouble(offered_qps)
     << ",\n  \"achieved_qps\": " << JsonDouble(achieved_qps)
     << ",\n  \"wall_s\": " << JsonDouble(wall_s)
     << ",\n  \"conns_opened\": " << conns_opened
     << ",\n  \"reconnects\": " << reconnects
     << ",\n  \"conn_failures\": " << conn_failures
     << ",\n  \"submitted_jobs\": " << submitted_jobs << ",\n  \"ops\": {";
  bool first = true;
  for (int i = 0; i < kNumOps; ++i) {
    const OpStats& s = per_op[i];
    if (s.sent == 0) continue;
    os << (first ? "" : ",") << "\n    \"" << kOpNames[i] << "\": {"
       << "\"sent\": " << s.sent << ", \"ok\": " << s.ok
       << ", \"rejected\": " << s.rejected << ", \"errors\": " << s.errors
       << ", \"timeouts\": " << s.timeouts
       << ", \"p50_ms\": " << JsonDouble(p50_ms[i])
       << ", \"p95_ms\": " << JsonDouble(p95_ms[i])
       << ", \"p99_ms\": " << JsonDouble(p99_ms[i])
       << ", \"p999_ms\": " << JsonDouble(p999_ms[i]) << "}";
    first = false;
  }
  const OpStats t = Total();
  os << (first ? "" : "\n  ") << "},\n  \"totals\": {\"sent\": " << t.sent
     << ", \"ok\": " << t.ok << ", \"rejected\": " << t.rejected
     << ", \"errors\": " << t.errors << ", \"timeouts\": " << t.timeouts
     << ", \"error_rate\": " << JsonDouble(ErrorRate()) << "}\n}";
  return os.str();
}

std::vector<std::string> CheckSlo(const Report& report, const SloBudget& slo) {
  std::vector<std::string> violations;
  if (slo.p99_ms > 0.0) {
    for (int i = 0; i < kNumOps; ++i) {
      if (report.per_op[i].sent == 0) continue;
      if (report.p99_ms[i] > slo.p99_ms) {
        std::ostringstream os;
        os << kOpNames[i] << " p99 " << JsonDouble(report.p99_ms[i])
           << " ms exceeds the " << JsonDouble(slo.p99_ms) << " ms budget";
        violations.push_back(os.str());
      }
    }
  }
  if (slo.max_error_rate >= 0.0 && report.ErrorRate() > slo.max_error_rate) {
    std::ostringstream os;
    os << "error rate " << JsonDouble(report.ErrorRate()) << " exceeds the "
       << JsonDouble(slo.max_error_rate) << " budget";
    violations.push_back(os.str());
  }
  return violations;
}

namespace {

struct Pending {
  Op op = Op::kStatus;
  int64_t scheduled_ns = 0;
  bool timed_out = false;
};

struct Conn {
  int fd = -1;
  bool dead = false;  // reconnect failed; ops routed here become errors
  FrameDecoder decoder;
  std::string outbuf;
  size_t outpos = 0;
  std::deque<Pending> pending;
  int64_t answered = 0;  // since the last churn cycle
  bool want_out = false; // EPOLLOUT currently armed
};

// The single-threaded replay engine: one epoll over all connections, the
// schedule replayed on the wall clock, replies matched FIFO per
// connection (the AMCS server answers frames in arrival order).
class Replayer {
 public:
  Replayer(const ReplayOptions& options, std::vector<ScheduledOp> schedule)
      : options_(options), schedule_(std::move(schedule)) {
    id_rng_.seed(options.schedule.seed ^ 0x9e3779b97f4a7c15ull);
    for (int i = 0; i < kNumOps; ++i) {
      latency_[i] = std::make_unique<metrics::Histogram>(
          metrics::Histogram::LatencyBounds());
    }
  }

  Result<Report> Run();

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  Status OpenConn(Conn* conn);
  void SendScheduled(const ScheduledOp& entry, int64_t now_ns);
  std::string EncodeRequest(Op op);
  void FlushConn(Conn* conn);
  void ReadConn(Conn* conn);
  void FailConn(Conn* conn);
  void MaybeChurn(Conn* conn);
  void UpdateEpollOut(Conn* conn);
  void SweepTimeouts(int64_t now_ns);
  void OnReply(Conn* conn, const Frame& frame, int64_t now_ns);
  uint64_t PickKnownId();

  const ReplayOptions& options_;
  std::vector<ScheduledOp> schedule_;
  Clock::time_point start_;
  net::Epoll epoll_;
  std::vector<Conn> conns_;
  Report report_;
  std::vector<uint64_t> known_ids_;
  std::mt19937_64 id_rng_;
  uint64_t next_submit_seed_ = 0;
  std::unique_ptr<metrics::Histogram> latency_[kNumOps];
  int64_t timeout_ns_ = 0;
};

Status Replayer::OpenConn(Conn* conn) {
  AUTOMC_ASSIGN_OR_RETURN(int fd, net::ConnectAddress(options_.address));
  AUTOMC_RETURN_IF_ERROR(net::SetNonBlocking(fd, true));
  conn->fd = fd;
  conn->dead = false;
  conn->decoder = FrameDecoder();
  conn->outbuf.clear();
  conn->outpos = 0;
  conn->pending.clear();
  conn->answered = 0;
  conn->want_out = false;
  ++report_.conns_opened;
  const uint64_t tag = static_cast<uint64_t>(conn - conns_.data());
  return epoll_.Add(fd, EPOLLIN, tag);
}

uint64_t Replayer::PickKnownId() {
  // Before any submit is acknowledged there is nothing real to target;
  // probing id 1 exercises the lookup path and is an expected rejection.
  if (known_ids_.empty()) return 1;
  return known_ids_[id_rng_() % known_ids_.size()];
}

std::string Replayer::EncodeRequest(Op op) {
  ByteWriter w;
  switch (op) {
    case Op::kList:
      break;
    case Op::kStatus:
    case Op::kCancel:
    case Op::kFetch:
      w.U64(PickKnownId());
      break;
    case Op::kSubmit: {
      core::RunSpec spec = options_.submit_spec;
      spec.seed += next_submit_seed_++;
      core::EncodeRunSpec(spec, &w);
      break;
    }
    case Op::kFetchModel:
      w.Str(options_.artifact_name.empty() ? "loadgen-seed"
                                           : options_.artifact_name);
      break;
  }
  return EncodeFrame(RequestType(op), w.str());
}

void Replayer::SendScheduled(const ScheduledOp& entry, int64_t now_ns) {
  Conn* conn = &conns_[entry.conn];
  OpStats& stats = report_.per_op[static_cast<int>(entry.op)];
  ++stats.sent;
  if (conn->dead) {
    ++stats.errors;
    return;
  }
  MaybeChurn(conn);
  if (conn->dead) {
    ++stats.errors;
    return;
  }
  conn->outbuf += EncodeRequest(entry.op);
  Pending p;
  p.op = entry.op;
  // Charged from the *scheduled* arrival, not the moment the bytes leave:
  // queueing delay caused by a slow server is part of its latency.
  p.scheduled_ns = entry.at_ns;
  conn->pending.push_back(p);
  (void)now_ns;
  FlushConn(conn);
}

void Replayer::FlushConn(Conn* conn) {
  if (conn->fd < 0) return;
  while (conn->outpos < conn->outbuf.size()) {
    ssize_t w = ::send(conn->fd, conn->outbuf.data() + conn->outpos,
                       conn->outbuf.size() - conn->outpos, MSG_NOSIGNAL);
    if (w > 0) {
      conn->outpos += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      conn->outbuf.erase(0, conn->outpos);
      conn->outpos = 0;
      UpdateEpollOut(conn);
      return;
    }
    FailConn(conn);
    return;
  }
  conn->outbuf.clear();
  conn->outpos = 0;
  UpdateEpollOut(conn);
}

void Replayer::UpdateEpollOut(Conn* conn) {
  const bool want = conn->outpos < conn->outbuf.size();
  if (want == conn->want_out || conn->fd < 0) return;
  conn->want_out = want;
  epoll_.Mod(conn->fd, EPOLLIN | (want ? EPOLLOUT : 0u),
             static_cast<uint64_t>(conn - conns_.data()));
}

void Replayer::FailConn(Conn* conn) {
  if (conn->fd >= 0) {
    epoll_.Del(conn->fd);
    ::close(conn->fd);
    conn->fd = -1;
  }
  ++report_.conn_failures;
  // Requests stranded on the dead connection can never be answered.
  for (const Pending& p : conn->pending) {
    if (!p.timed_out) ++report_.per_op[static_cast<int>(p.op)].errors;
  }
  conn->pending.clear();
  if (!OpenConn(conn).ok()) conn->dead = true;
}

void Replayer::MaybeChurn(Conn* conn) {
  if (options_.churn_every <= 0 || conn->answered < options_.churn_every)
    return;
  // Only churn a quiet connection — tearing down in-flight requests would
  // manufacture errors the server never caused.
  if (!conn->pending.empty() || conn->outpos < conn->outbuf.size()) return;
  epoll_.Del(conn->fd);
  ::close(conn->fd);
  conn->fd = -1;
  if (OpenConn(conn).ok()) {
    --report_.conns_opened;  // a reconnect, not a new stream
    ++report_.reconnects;
  } else {
    conn->dead = true;
  }
}

void Replayer::OnReply(Conn* conn, const Frame& frame, int64_t now_ns) {
  const MsgType type = static_cast<MsgType>(frame.type);
  if (type == MsgType::kModelStart || type == MsgType::kModelChunk) {
    // Interior frames of a streaming kFetchModel reply: the request stays
    // pending (and keeps its scheduled-send charge) until kModelEnd.
    if (conn->pending.empty() ||
        conn->pending.front().op != Op::kFetchModel) {
      ++report_.per_op[static_cast<int>(Op::kStatus)].errors;
    }
    return;
  }
  if (conn->pending.empty()) {
    // A reply with no matching request: protocol confusion.
    ++report_.per_op[static_cast<int>(Op::kStatus)].errors;
    return;
  }
  Pending p = conn->pending.front();
  conn->pending.pop_front();
  ++conn->answered;
  if (p.timed_out) return;  // already charged as a timeout; discard late data

  OpStats& stats = report_.per_op[static_cast<int>(p.op)];
  const double ms = static_cast<double>(now_ns - p.scheduled_ns) / 1e6;
  if (static_cast<MsgType>(frame.type) == MsgType::kError) {
    const Status st = DecodeError(frame.payload);
    const bool expected = st.code() == StatusCode::kNotFound ||
                          st.code() == StatusCode::kFailedPrecondition;
    if (expected) {
      ++stats.rejected;
    } else {
      ++stats.errors;
      return;  // latency of a hard failure is not an SLO sample
    }
  } else if (static_cast<MsgType>(frame.type) == ExpectedReply(p.op)) {
    ++stats.ok;
    if (p.op == Op::kSubmit) {
      ByteReader r(frame.payload);
      uint64_t id = 0;
      if (r.U64(&id)) {
        known_ids_.push_back(id);
        ++report_.submitted_jobs;
      }
    }
  } else {
    ++stats.errors;
    return;
  }
  latency_[static_cast<int>(p.op)]->Observe(ms);
  switch (p.op) {
    case Op::kStatus: AUTOMC_METRIC_OBSERVE("load.status_ms", ms); break;
    case Op::kList: AUTOMC_METRIC_OBSERVE("load.list_ms", ms); break;
    case Op::kSubmit: AUTOMC_METRIC_OBSERVE("load.submit_ms", ms); break;
    case Op::kCancel: AUTOMC_METRIC_OBSERVE("load.cancel_ms", ms); break;
    case Op::kFetch: AUTOMC_METRIC_OBSERVE("load.fetch_ms", ms); break;
    case Op::kFetchModel:
      AUTOMC_METRIC_OBSERVE("load.fetch_model_ms", ms);
      break;
  }
}

void Replayer::ReadConn(Conn* conn) {
  char chunk[64 << 10];
  for (;;) {
    ssize_t r = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (r > 0) {
      conn->decoder.Feed(chunk, static_cast<size_t>(r));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or hard error with requests possibly in flight.
    FailConn(conn);
    return;
  }
  Frame frame;
  Status error;
  const int64_t now_ns = NowNs();
  for (;;) {
    FrameDecoder::Event ev = conn->decoder.Next(&frame, &error);
    if (ev == FrameDecoder::Event::kNeedMore) break;
    if (ev == FrameDecoder::Event::kError) {
      FailConn(conn);
      return;
    }
    OnReply(conn, frame, now_ns);
  }
}

void Replayer::SweepTimeouts(int64_t now_ns) {
  for (Conn& conn : conns_) {
    for (Pending& p : conn.pending) {
      if (p.timed_out) continue;
      if (p.scheduled_ns + timeout_ns_ <= now_ns) {
        p.timed_out = true;
        ++report_.per_op[static_cast<int>(p.op)].timeouts;
      } else {
        break;  // FIFO: later entries were scheduled later
      }
    }
  }
}

Result<Report> Replayer::Run() {
  if (schedule_.empty()) {
    return Status::InvalidArgument("empty load schedule (qps/duration/mix)");
  }
  timeout_ns_ = static_cast<int64_t>(options_.timeout_ms * 1e6);
  AUTOMC_ASSIGN_OR_RETURN(epoll_, net::Epoll::Create());
  conns_.resize(static_cast<size_t>(options_.schedule.connections));
  for (Conn& conn : conns_) AUTOMC_RETURN_IF_ERROR(OpenConn(&conn));

  report_.offered_qps =
      static_cast<double>(schedule_.size()) / options_.schedule.duration_s;
  start_ = Clock::now();
  size_t next = 0;
  // After the horizon, linger until every request is answered or timed
  // out — plus one extra timeout so late replies to timed-out requests
  // drain (and are discarded) rather than being misread as losses.
  const int64_t drain_ns = schedule_.back().at_ns + 2 * timeout_ns_;
  struct epoll_event events[64];
  for (;;) {
    int64_t now_ns = NowNs();
    while (next < schedule_.size() && schedule_[next].at_ns <= now_ns) {
      SendScheduled(schedule_[next], now_ns);
      ++next;
    }
    SweepTimeouts(now_ns);

    bool pending_left = false;
    for (const Conn& conn : conns_) {
      for (const Pending& p : conn.pending) {
        if (!p.timed_out) pending_left = true;
      }
    }
    if (next >= schedule_.size() && !pending_left) break;
    if (now_ns >= drain_ns) break;

    int64_t wake_ns = drain_ns;
    if (next < schedule_.size()) {
      wake_ns = std::min(wake_ns, schedule_[next].at_ns);
    }
    if (pending_left) wake_ns = std::min(wake_ns, now_ns + timeout_ns_ / 4);
    const int timeout_ms = static_cast<int>(
        std::max<int64_t>(0, (wake_ns - now_ns) / 1000000) + 1);
    Result<int> n = epoll_.Wait(events, 64, std::min(timeout_ms, 50));
    if (!n.ok()) return n.status();
    for (int i = 0; i < *n; ++i) {
      const size_t idx = static_cast<size_t>(events[i].data.u64);
      if (idx >= conns_.size()) continue;
      Conn* conn = &conns_[idx];
      if (conn->fd < 0) continue;
      if ((events[i].events & EPOLLOUT) != 0) FlushConn(conn);
      if (conn->fd >= 0 &&
          (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        ReadConn(conn);
      }
    }
  }
  // Anything still unanswered after the drain window is a timeout.
  for (Conn& conn : conns_) {
    for (Pending& p : conn.pending) {
      if (!p.timed_out) {
        p.timed_out = true;
        ++report_.per_op[static_cast<int>(p.op)].timeouts;
      }
    }
    if (conn.fd >= 0) {
      epoll_.Del(conn.fd);
      ::close(conn.fd);
      conn.fd = -1;
    }
  }

  report_.wall_s = static_cast<double>(NowNs()) / 1e9;
  const OpStats total = report_.Total();
  report_.achieved_qps =
      report_.wall_s > 0.0
          ? static_cast<double>(total.ok + total.rejected) / report_.wall_s
          : 0.0;
  for (int i = 0; i < kNumOps; ++i) {
    if (latency_[i]->count() == 0) continue;
    report_.p50_ms[i] = latency_[i]->Percentile(0.50);
    report_.p95_ms[i] = latency_[i]->Percentile(0.95);
    report_.p99_ms[i] = latency_[i]->Percentile(0.99);
    report_.p999_ms[i] = latency_[i]->Percentile(0.999);
  }
  return report_;
}

}  // namespace

Result<Report> RunReplay(const ReplayOptions& options) {
  Replayer replayer(options, BuildSchedule(options.schedule));
  return replayer.Run();
}

}  // namespace loadgen
}  // namespace server
}  // namespace automc
