#include "fleet/worker.h"

#include <signal.h>
#include <unistd.h>

#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "server/protocol.h"
#include "server/server.h"

namespace automc {
namespace fleet {

int WorkerMain(int control_fd, server::JobManager::Options jobs) {
  // The coordinator owns this process's lifecycle through the control
  // channel; a ^C in the terminal must reach only the coordinator.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  ::signal(SIGPIPE, SIG_IGN);

  Result<std::unique_ptr<server::JobManager>> mgr =
      server::JobManager::Open(std::move(jobs));
  if (!mgr.ok()) {
    AUTOMC_LOG(Error) << "worker: cannot open job manager: "
                      << mgr.status().ToString();
    return 1;
  }
  server::JobRequestHandler handler(mgr->get());

  for (;;) {
    Result<server::Frame> frame = server::ReadFrame(control_fd);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kNotFound) {
        // Clean EOF: the coordinator closed the channel. Drain — running
        // jobs checkpoint and re-queue durably for the next process.
        (*mgr)->Shutdown(/*drain=*/true);
        metrics::MetricsRegistry::Global().DumpIfConfigured();
        return 0;
      }
      AUTOMC_LOG(Error) << "worker: control channel broken: "
                        << frame.status().ToString();
      (*mgr)->Shutdown(/*drain=*/true);
      return 1;
    }
    server::Frame reply = handler.Handle(/*client=*/0, *frame);
    if (automc::Status st =
            server::WriteFrame(control_fd,
                               static_cast<server::MsgType>(reply.type),
                               reply.payload);
        !st.ok()) {
      AUTOMC_LOG(Error) << "worker: control channel write failed: "
                        << st.ToString();
      (*mgr)->Shutdown(/*drain=*/true);
      return 1;
    }
  }
}

}  // namespace fleet
}  // namespace automc
