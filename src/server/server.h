#ifndef AUTOMC_SERVER_SERVER_H_
#define AUTOMC_SERVER_SERVER_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "fleet/event_loop.h"
#include "server/job_manager.h"

namespace automc {
namespace server {

// The request->reply dispatch over a JobManager: one decoded AMCS frame
// in, one reply frame out (kError carrying the Status on failure). Used
// by the single-process server's event loop and, unchanged, by the fleet
// worker's blocking control-channel loop — both transports speak to the
// same dispatch, so a sharded job takes exactly the code path a direct
// one does.
class JobRequestHandler : public fleet::RequestHandler {
 public:
  explicit JobRequestHandler(JobManager* jobs) : jobs_(jobs) {}
  // `client` (the connection serial; 0 on the fleet worker's control
  // channel) becomes the JobManager fairness tenant for kSubmitJob, so
  // concurrent submitters share job slots round-robin instead of strictly
  // FIFO.
  Frame Handle(uint64_t client, const Frame& request) override;
  // Every kFetchModel gets a chunked multi-frame reply (see
  // server/artifact_stream.h); everything else falls through to Handle.
  std::unique_ptr<fleet::ReplyStream> HandleStream(
      uint64_t client, const Frame& request) override;

 private:
  JobManager* jobs_;
};

// The automc_serve transport: a Unix-domain socket and (optionally) a TCP
// listener, both speaking the framed protocol through one epoll event
// loop (fleet::EventLoop) — no per-connection threads. Requests dispatch
// to a JobManager by default, or to a caller-supplied handler (the fleet
// coordinator frontend). Job execution happens on the manager's own
// threads, so a status poll never waits behind a running search.
//
// Shutdown is graceful by design: RequestStop() is async-signal-safe (one
// eventfd write), and Wait() then stops accepting, answers every frame
// already buffered, flushes pending replies (bounded), checkpoints +
// re-queues running jobs (JobManager::Shutdown(drain)), flushes the
// metrics JSON when $AUTOMC_METRICS_OUT is set, and returns — the
// SIGTERM/SIGINT path of automc_serve exits 0 through here.
class Server {
 public:
  struct Options {
    // Unix socket path; empty reads $AUTOMC_SOCKET.
    std::string socket_path;
    // Optional TCP listener, "tcp:HOST:PORT" (port 0 = kernel-assigned);
    // empty reads $AUTOMC_TCP; unset in both places = unix only.
    std::string tcp_address;
    // Idle-connection timeout in seconds; 0 disables, -1 reads
    // $AUTOMC_SERVER_IDLE_TIMEOUT (default 0).
    int idle_timeout_s = -1;
    // Custom dispatch (not owned; must outlive the server). When null the
    // server opens a JobManager from `jobs` and serves it.
    fleet::RequestHandler* handler = nullptr;
    JobManager::Options jobs;
  };

  // Opens (or recovers) the job manager, binds the listeners and starts
  // the event loop. Bound unix paths are unlinked first, so a stale
  // socket from a killed server never blocks a restart.
  static Result<std::unique_ptr<Server>> Start(Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Async-signal-safe stop request (callable from a signal handler).
  void RequestStop();
  // Blocks until a stop is requested, then drains and shuts down.
  void Wait();
  // RequestStop() + Wait(); for tests and embedders.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }
  // The bound TCP address with the real port ("tcp:IP:PORT"), empty when
  // no TCP listener was configured.
  const std::string& tcp_address() const { return tcp_address_; }
  // Null when a custom handler was supplied.
  JobManager* jobs() { return jobs_.get(); }

 private:
  Server() = default;

  std::string socket_path_;
  std::string tcp_address_;
  std::unique_ptr<JobManager> jobs_;
  std::unique_ptr<JobRequestHandler> default_handler_;
  std::unique_ptr<fleet::EventLoop> loop_;
  bool stopped_ = false;
};

}  // namespace server
}  // namespace automc

#endif  // AUTOMC_SERVER_SERVER_H_
