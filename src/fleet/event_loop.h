#ifndef AUTOMC_FLEET_EVENT_LOOP_H_
#define AUTOMC_FLEET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/net.h"
#include "common/result.h"
#include "server/protocol.h"

namespace automc {
namespace fleet {

// A pull-model multi-frame reply (FetchModel's chunked model stream). The
// transport calls Next() for one frame at a time, only while the
// connection's write backlog is under the high watermark — so a stream of
// any total size costs at most ~watermark + one frame of buffered memory,
// and a slow reader throttles the producer instead of ballooning the
// output buffer toward the drop limit. Returning false ends the stream;
// to fail mid-stream, emit one kError frame and then return false.
class ReplyStream {
 public:
  virtual ~ReplyStream() = default;
  virtual bool Next(server::Frame* out) = 0;
};

// A decoded request frame in, a reply frame out. Handle() runs on the
// event-loop thread, so implementations must not block on long work —
// the JobManager-backed handler only enqueues/inspects (job execution has
// its own threads), and the coordinator handler does one bounded
// round-trip to a worker. `client` identifies the submitting connection (a
// monotonic serial, never a recycled fd; the fleet worker's control
// channel passes 0), so handlers can keep per-client state — the
// JobManager uses it as the fairness key for round-robin job scheduling.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  virtual server::Frame Handle(uint64_t client,
                               const server::Frame& request) = 0;
  // Streaming requests: return a ReplyStream whose Next() yields every
  // reply frame (head included), or nullptr — the default — to mean "not a
  // streaming request; call Handle() instead". While a stream is active the
  // connection serves it to completion before decoding further requests,
  // so replies stay in request order even when a fetch is pipelined
  // between control calls.
  virtual std::unique_ptr<ReplyStream> HandleStream(
      uint64_t client, const server::Frame& request) {
    (void)client;
    (void)request;
    return nullptr;
  }
};

// Single-threaded epoll reactor speaking AMCS framing over any mix of
// listening sockets (unix + TCP). Replaces thread-per-connection reads:
// thousands of idle connections cost one epoll registration each, no
// threads. Handles the nonblocking-transport edge cases the blocking
// server never saw:
//
//   * partial frames  — an incremental FrameDecoder per connection; a
//     request dribbled one byte at a time is reassembled, and EOF inside a
//     frame counts as a bad frame rather than a clean close;
//   * slow writers    — replies queue in a per-connection output buffer
//     flushed under EPOLLOUT; a peer that stops reading stalls only its
//     own buffer (capped at kMaxOutputBuffer, then the connection drops);
//   * protocol errors — bad magic / CRC mismatch / payload over the cap
//     get a typed kError frame (best effort) before the connection closes;
//   * idle timeout    — connections quiet for longer than
//     `idle_timeout_s` are reaped (slow-loris / half-open peers), swept at
//     ~1s granularity.
class EventLoop {
 public:
  struct Options {
    // Listening sockets, already bound; the loop takes ownership and
    // closes them on shutdown.
    std::vector<int> listen_fds;
    // Seconds of inactivity before a connection is reaped; 0 disables.
    int idle_timeout_s = 0;
    // Not owned; must outlive the loop.
    RequestHandler* handler = nullptr;
  };

  static Result<std::unique_ptr<EventLoop>> Start(Options options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Async-signal-safe stop request (one eventfd write).
  void RequestStop();
  // Blocks until a stop is requested, then flushes pending replies
  // (bounded) and closes every connection.
  void Wait();
  // RequestStop() + Wait().
  void Stop();

  // Flow-control contract, public so tests and capacity docs can pin it.
  // A reply backlog larger than kMaxOutputBuffer means the peer stopped
  // reading; drop the connection instead of buffering without bound.
  static constexpr size_t kMaxOutputBuffer = 256u << 20;
  // Write backpressure: a connection whose reply backlog crosses the high
  // watermark stops being *read* (EPOLLIN disarmed, frames already decoded
  // stay parked) and any active chunked stream stops being pumped, until
  // the backlog drains under the low watermark — so a peer that pipelines
  // requests without reading replies (or reads a model stream slowly) caps
  // its own memory at ~4 MiB instead of marching toward the 256 MiB drop
  // limit. server.backpressure_* metrics count stalls/resumes/drops and
  // track the buffered-byte total and peak.
  static constexpr size_t kOutbufHighWatermark = 4u << 20;
  static constexpr size_t kOutbufLowWatermark = 1u << 20;

 private:

  struct Conn {
    int fd = -1;
    uint64_t serial = 0;  // stable client id (fds get recycled)
    server::FrameDecoder decoder;
    std::string outbuf;
    size_t outpos = 0;
    std::chrono::steady_clock::time_point last_active;
    bool closing = false;  // close as soon as outbuf drains
    bool paused = false;   // reading stopped until the backlog drains
    // Active multi-frame reply; while set, decoded requests stay parked.
    std::unique_ptr<ReplyStream> stream;
  };

  EventLoop() = default;

  void Run();
  void AcceptAll(int listen_fd);
  void HandleConn(Conn* conn, uint32_t events);
  // Serves every frame the decoder has buffered, pausing at the output
  // high watermark. Returns false if the connection was closed.
  bool ServeDecoded(Conn* conn);
  // Pulls frames off the connection's active ReplyStream until it ends or
  // the backlog crosses the high watermark (stream kept for later).
  void PumpStream(Conn* conn);
  void QueueReply(Conn* conn, server::MsgType type, std::string_view payload);
  // Writes as much of outbuf as the socket accepts; re-arms EPOLLOUT when
  // bytes remain and resumes a paused connection once the backlog drains
  // under the low watermark. Returns false if the connection was closed.
  bool Flush(Conn* conn);
  void CloseConn(int fd);
  void SweepIdle();
  size_t Backlog(const Conn& conn) const {
    return conn.outbuf.size() - conn.outpos;
  }
  void AccountBuffered(ssize_t delta);

  Options options_;
  net::Epoll epoll_;
  int wake_fd_ = -1;  // eventfd; written by RequestStop
  std::atomic<bool> stop_requested_{false};
  std::thread loop_thread_;
  std::map<int, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_serial_ = 1;
  size_t total_buffered_ = 0;  // reply bytes queued across all connections
  size_t peak_buffered_ = 0;
  std::chrono::steady_clock::time_point last_sweep_;  // SweepIdle's last pass
};

}  // namespace fleet
}  // namespace automc

#endif  // AUTOMC_FLEET_EVENT_LOOP_H_
