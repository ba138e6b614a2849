// perfbench_harness WORKLOAD --seed N --seconds S --trace 0|1
//                   --serve-bin PATH --workdir DIR
//
// WORKLOAD is search, serve, fleet-jobs, or recompose-selftest. Prints raw
// measurements as one JSON object on the last stdout line; exit code 0
// means the run completed (output-check failures are reported in the JSON,
// not by the exit code).
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "harness.h"

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness search|serve|fleet-jobs|"
               "recompose-selftest --seed N --seconds S --trace 0|1 "
               "--serve-bin PATH --workdir DIR\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  automc::SetLogLevel(automc::LogLevel::kWarning);
  if (argc < 2) Usage();
  perfbench::Args args;
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const char* value = argv[++i];
    if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (flag == "--serve-bin") {
      args.serve_bin = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage();
    }
  }
  if (args.seconds <= 0 || args.workdir.empty()) Usage();
  // Work inside the run directory with relative paths: unix socket
  // paths must fit in 108 bytes wherever the checkout lives. Spawned
  // daemons and workers inherit this directory.
  if (::chdir(args.workdir.c_str()) != 0) {
    std::perror("perfbench_harness: chdir --workdir");
    return 1;
  }
  args.workdir = ".";

  if (args.workload == "search") return perfbench::RunSearchWorkload(args);
  if (args.workload == "recompose-selftest") {
    return perfbench::RunRecomposeSelfTest(args);
  }
  if (args.serve_bin.empty()) Usage();
  if (args.workload == "serve") return perfbench::RunServeWorkload(args);
  if (args.workload == "fleet-jobs") return perfbench::RunFleetWorkload(args);
  Usage();
}
