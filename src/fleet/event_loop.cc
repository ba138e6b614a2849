#include "fleet/event_loop.h"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/metrics.h"

namespace automc {
namespace fleet {

using server::Frame;
using server::MsgType;

Result<std::unique_ptr<EventLoop>> EventLoop::Start(Options options) {
  if (options.handler == nullptr) {
    return Status::InvalidArgument("EventLoop needs a RequestHandler");
  }
  if (options.listen_fds.empty()) {
    return Status::InvalidArgument("EventLoop needs at least one listen fd");
  }
  std::unique_ptr<EventLoop> loop(new EventLoop());
  loop->options_ = std::move(options);
  AUTOMC_ASSIGN_OR_RETURN(loop->epoll_, net::Epoll::Create());
  loop->wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (loop->wake_fd_ < 0) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  AUTOMC_RETURN_IF_ERROR(loop->epoll_.Add(
      loop->wake_fd_, EPOLLIN, static_cast<uint64_t>(loop->wake_fd_)));
  for (int fd : loop->options_.listen_fds) {
    AUTOMC_RETURN_IF_ERROR(net::SetNonBlocking(fd, true));
    AUTOMC_RETURN_IF_ERROR(
        loop->epoll_.Add(fd, EPOLLIN, static_cast<uint64_t>(fd)));
  }
  loop->loop_thread_ = std::thread([l = loop.get()] { l->Run(); });
  return loop;
}

EventLoop::~EventLoop() {
  Stop();
  // If Start failed before the loop thread ran, Run never closed these.
  for (int fd : options_.listen_fds) ::close(fd);
  options_.listen_fds.clear();
}

void EventLoop::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  // Async-signal-safe: one write(2); a full counter still wakes the loop.
  [[maybe_unused]] ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  // A finite wait is only needed for the idle sweep.
  const int timeout_ms = options_.idle_timeout_s > 0 ? 1000 : -1;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    Result<int> n = epoll_.Wait(events, kMaxEvents, timeout_ms);
    if (!n.ok()) break;
    for (int i = 0; i < *n; ++i) {
      const int fd = static_cast<int>(events[i].data.u64);
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      bool is_listener = false;
      for (int lfd : options_.listen_fds) is_listener = is_listener || fd == lfd;
      if (is_listener) {
        AcceptAll(fd);
        continue;
      }
      auto it = conns_.find(fd);
      if (it != conns_.end()) HandleConn(it->second.get(), events[i].events);
    }
    SweepIdle();
  }

  // Drain: give pending replies a bounded chance to reach slow readers,
  // then close everything.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (auto& [fd, conn] : conns_) {
    while (conn->outpos < conn->outbuf.size() &&
           std::chrono::steady_clock::now() < deadline) {
      pollfd pfd = {conn->fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      ssize_t w = ::send(conn->fd, conn->outbuf.data() + conn->outpos,
                         conn->outbuf.size() - conn->outpos, MSG_NOSIGNAL);
      if (w > 0) {
        conn->outpos += static_cast<size_t>(w);
      } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        break;
      }
    }
    ::close(conn->fd);
  }
  conns_.clear();
  for (int fd : options_.listen_fds) ::close(fd);
  options_.listen_fds.clear();
}

void EventLoop::AcceptAll(int listen_fd) {
  for (;;) {
    int fd = ::accept4(listen_fd, nullptr, nullptr,
                       SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: accepted everything pending
    }
    AUTOMC_METRIC_COUNT("server.connections");
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->serial = next_conn_serial_++;
    conn->last_active = std::chrono::steady_clock::now();
    if (!epoll_.Add(fd, EPOLLIN, static_cast<uint64_t>(fd)).ok()) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
  }
}

void EventLoop::HandleConn(Conn* conn, uint32_t events) {
  conn->last_active = std::chrono::steady_clock::now();
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && (events & EPOLLIN) == 0) {
    CloseConn(conn->fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!Flush(conn)) return;
  }
  if ((events & EPOLLIN) == 0 || conn->paused) return;

  bool eof = false;
  char chunk[64 << 10];
  while (!eof) {
    ssize_t r = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (r > 0) {
      if (!conn->closing) conn->decoder.Feed(chunk, static_cast<size_t>(r));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (r < 0) {
      CloseConn(conn->fd);
      return;
    }
    eof = true;
  }

  if (!ServeDecoded(conn)) return;

  if (eof && !conn->closing) {
    // EOF inside a frame is a torn request, not a clean close. Either way
    // close once pending replies flush (the peer may still be reading).
    if (conn->decoder.mid_frame()) AUTOMC_METRIC_COUNT("server.bad_frames");
    conn->closing = true;
  }
  Flush(conn);
}

bool EventLoop::ServeDecoded(Conn* conn) {
  // Serve every complete frame that arrived — a peer may send its request
  // and half-close before reading the reply; the buffered frame must
  // still be answered.
  if (conn->closing) return true;
  Frame frame;
  Status error;
  for (;;) {
    // An in-flight model stream goes first: later requests stay parked in
    // the decoder until it completes, which keeps replies in request order.
    PumpStream(conn);
    if (Backlog(*conn) > kOutbufHighWatermark || conn->stream != nullptr) {
      // The peer is pipelining requests faster than it reads replies (or a
      // stream filled the write budget). Stop reading — and serving frames
      // already decoded — until Flush drains the backlog under the low
      // watermark; the kernel's receive window then pushes the stall back
      // to the sender.
      if (!conn->paused) {
        conn->paused = true;
        AUTOMC_METRIC_COUNT("server.backpressure_stalls");
      }
      break;
    }
    server::FrameDecoder::Event ev = conn->decoder.Next(&frame, &error);
    if (ev == server::FrameDecoder::Event::kNeedMore) break;
    if (ev == server::FrameDecoder::Event::kError) {
      // Typed error frame instead of a silent drop, then close once it
      // flushes. Framing is lost, so stop reading immediately.
      AUTOMC_METRIC_COUNT("server.bad_frames");
      QueueReply(conn, MsgType::kError, server::EncodeError(error));
      conn->closing = true;
      ::shutdown(conn->fd, SHUT_RD);
      break;
    }
    AUTOMC_METRIC_COUNT("server.requests");
    conn->stream = options_.handler->HandleStream(conn->serial, frame);
    if (conn->stream != nullptr) continue;  // pumped at the top of the loop
    Frame reply = options_.handler->Handle(conn->serial, frame);
    QueueReply(conn, static_cast<MsgType>(reply.type), reply.payload);
  }
  return true;
}

void EventLoop::PumpStream(Conn* conn) {
  Frame frame;
  while (conn->stream != nullptr &&
         Backlog(*conn) <= kOutbufHighWatermark) {
    if (!conn->stream->Next(&frame)) {
      conn->stream.reset();
      return;
    }
    QueueReply(conn, static_cast<MsgType>(frame.type), frame.payload);
  }
}

void EventLoop::QueueReply(Conn* conn, MsgType type, std::string_view payload) {
  const std::string encoded = server::EncodeFrame(type, payload);
  AccountBuffered(static_cast<ssize_t>(encoded.size()));
  conn->outbuf.append(encoded);
}

void EventLoop::AccountBuffered(ssize_t delta) {
  total_buffered_ =
      static_cast<size_t>(static_cast<ssize_t>(total_buffered_) + delta);
  if (total_buffered_ > peak_buffered_) {
    peak_buffered_ = total_buffered_;
    AUTOMC_METRIC_GAUGE("server.backpressure_peak_bytes",
                        static_cast<double>(peak_buffered_));
  }
  AUTOMC_METRIC_GAUGE("server.backpressure_bytes",
                      static_cast<double>(total_buffered_));
}

bool EventLoop::Flush(Conn* conn) {
  for (;;) {
    while (conn->outpos < conn->outbuf.size()) {
      ssize_t w = ::send(conn->fd, conn->outbuf.data() + conn->outpos,
                         conn->outbuf.size() - conn->outpos, MSG_NOSIGNAL);
      if (w > 0) {
        conn->outpos += static_cast<size_t>(w);
        AccountBuffered(-w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // Slow writer: compact the sent prefix, buffer the rest, wait for
        // EPOLLOUT. A peer that never reads while paused still grows via
        // frames decoded before the stall; past the hard cap it is dropped.
        conn->outbuf.erase(0, conn->outpos);
        conn->outpos = 0;
        if (conn->outbuf.size() > kMaxOutputBuffer) {
          AUTOMC_METRIC_COUNT("server.backpressure_drops");
          CloseConn(conn->fd);
          return false;
        }
        if (conn->paused && conn->outbuf.size() <= kOutbufLowWatermark) {
          conn->paused = false;
          AUTOMC_METRIC_COUNT("server.backpressure_resumes");
          if (!ServeDecoded(conn)) return false;  // may re-pause
        }
        // A closing (or paused) connection only waits for the drain —
        // re-arming EPOLLIN would busy-wake until the buffer empties.
        epoll_.Mod(conn->fd,
                   ((conn->closing || conn->paused) ? 0u : EPOLLIN) | EPOLLOUT,
                   static_cast<uint64_t>(conn->fd));
        return true;
      }
      CloseConn(conn->fd);
      return false;
    }
    conn->outbuf.clear();
    conn->outpos = 0;
    if (conn->closing) {
      CloseConn(conn->fd);
      return false;
    }
    if (conn->paused) {
      conn->paused = false;
      AUTOMC_METRIC_COUNT("server.backpressure_resumes");
      if (!ServeDecoded(conn)) return false;
      // Frames parked during the stall just produced new replies; send
      // them now rather than waiting for the next epoll wakeup.
      if (conn->outpos < conn->outbuf.size() || conn->closing) continue;
    }
    epoll_.Mod(conn->fd, EPOLLIN, static_cast<uint64_t>(conn->fd));
    return true;
  }
}

void EventLoop::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  AccountBuffered(-static_cast<ssize_t>(Backlog(*it->second)));
  epoll_.Del(fd);
  ::close(fd);
  conns_.erase(it);
}

void EventLoop::SweepIdle() {
  if (options_.idle_timeout_s <= 0 || conns_.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  // Timeouts are whole seconds, so one pass a second reaps on time without
  // walking every connection after each wakeup.
  if (now - last_sweep_ < std::chrono::seconds(1)) return;
  last_sweep_ = now;
  AUTOMC_METRIC_COUNT("server.idle_sweeps");
  const auto limit = std::chrono::seconds(options_.idle_timeout_s);
  std::vector<int> stale;
  for (const auto& [fd, conn] : conns_) {
    if (now - conn->last_active > limit) stale.push_back(fd);
  }
  for (int fd : stale) {
    AUTOMC_METRIC_COUNT("server.idle_reaped");
    CloseConn(fd);
  }
}

void EventLoop::Wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

void EventLoop::Stop() {
  RequestStop();
  Wait();
}

}  // namespace fleet
}  // namespace automc
