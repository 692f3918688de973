// hangdoctord: the standalone HDSL collector daemon. Binds a loopback TCP port, accepts
// hangdoctor wire-protocol connections (src/netd/), streams their telemetry into one shared
// DetectorService, and on SIGTERM/SIGINT drains gracefully — stop accepting, flush every
// in-flight session, print the merged fleet Hang Bug Report, exit 0.
//
// Usage:
//   hangdoctord [--port=N] [--workers=N] [--shards=N] [--budget-mb=N]
//               [--max-connections=N] [--worker] [--watchdog-ms=N] [--drain-ms=N]
//
// --port=0 (default) binds an ephemeral port; the banner line "listening on port N" names
// it, which is how scripts/netd_smoke.sh and the loadgen find the daemon. An unknown flag
// or a malformed numeric value (--port=abc) exits with status 2.
//
// --workers=N epoll threads each read, decode and apply their connections' records: one
// connection's sessions apply on one thread, so more connections (or more worker daemons
// under fleetd) are how ingest scales out. --shards=N spreads the session map's locks.
//
// --worker runs the daemon as a fleetd shard-group member: worker-role HELLOs are accepted
// (coordinator control frames + per-close kSessionResult replies) and the self-watchdog is
// armed (default 2000 ms; tune with --watchdog-ms). A record that wedges an epoll worker
// past it forfeits the lease: heartbeats on links the other epoll workers serve report it,
// and links the wedged worker serves stop answering until the coordinator's lease expires;
// either way the coordinator migrates this worker's sessions. --drain-ms bounds the shutdown
// drain: a drain that cannot finish inside the deadline reports the undrained session ids
// (the coordinator recovers them by HDSL replay) instead of hanging the exit.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/hangdoctor/detector_service.h"
#include "src/netd/server.h"
#include "src/simkit/flags.h"

int main(int argc, char** argv) {
  using simkit::FlagInt;
  netd::ServerOptions options;
  int64_t drain_ms = 0;
  try {
    simkit::CheckKnownFlags(argc, argv,
                            {"--port=", "--workers=", "--shards=", "--budget-mb=",
                             "--max-connections=", "--watchdog-ms=", "--drain-ms="},
                            {"--worker"});
    options.port = static_cast<uint16_t>(FlagInt(argc, argv, "--port=", 0));
    options.workers = static_cast<int32_t>(FlagInt(argc, argv, "--workers=", 2));
    options.service.shards =
        static_cast<int32_t>(FlagInt(argc, argv, "--shards=", options.workers));
    options.session_budget_bytes = FlagInt(argc, argv, "--budget-mb=", 256) << 20;
    options.max_connections =
        static_cast<int32_t>(FlagInt(argc, argv, "--max-connections=", 4096));
    options.allow_worker_role = simkit::HasFlag(argc, argv, "--worker");
    options.watchdog_timeout_ms =
        FlagInt(argc, argv, "--watchdog-ms=", options.allow_worker_role ? 2000 : 0);
    drain_ms = FlagInt(argc, argv, "--drain-ms=", 0);
  } catch (const simkit::FlagError& e) {
    std::fprintf(stderr, "hangdoctord: %s\n", e.what());
    return 2;
  }

  // Block the shutdown signals before any server thread exists, so every thread inherits
  // the mask and sigwait below is the one consumer.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  try {
    netd::NetServer server(options);
    std::printf("hangdoctord listening on port %u (%d workers, %d shards%s)\n",
                server.port(), options.workers, server.service().shards(),
                options.allow_worker_role ? ", worker mode" : "");
    std::fflush(stdout);

    int sig = 0;
    sigwait(&mask, &sig);
    std::printf("hangdoctord: signal %d, draining\n", sig);
    std::fflush(stdout);

    if (drain_ms > 0) {
      std::vector<uint64_t> undrained = server.Stop(drain_ms);
      if (!undrained.empty()) {
        std::printf("drain timed out: %zu sessions undrained:", undrained.size());
        for (uint64_t id : undrained) {
          std::printf(" %llu", static_cast<unsigned long long>(id));
        }
        std::printf("\n");
        std::fflush(stdout);
        // A wedged epoll worker cannot be joined; the coordinator replays the undrained
        // sessions elsewhere. Exit without running the blocking destructor.
        std::_Exit(2);
      }
    } else {
      server.Stop();
    }
    std::vector<netd::NetSessionOutcome> outcomes = server.TakeResults();
    std::vector<hangdoctor::SessionResult> closed;
    size_t aborted = 0;
    for (auto& outcome : outcomes) {
      if (outcome.aborted) {
        ++aborted;
      } else {
        closed.push_back(std::move(outcome.result));
      }
    }
    // The bit-identity contract merges in ascending-SessionId order.
    std::sort(closed.begin(), closed.end(),
              [](const auto& a, const auto& b) { return a.id.value < b.id.value; });
    hangdoctor::HangBugReport merged = hangdoctor::MergeSessionReports(closed);
    int32_t devices = static_cast<int32_t>(closed.size());
    std::printf("%s", merged.Render(devices > 0 ? devices : 1).c_str());
    // Worker-role closes shipped their results to the coordinator and are not retained, so
    // the count comes from the server's own close counter.
    std::printf("drained clean: %lld sessions, %zu aborted\n",
                static_cast<long long>(server.stats().sessions_closed.load()), aborted);
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hangdoctord: %s\n", e.what());
    return 1;
  }
  return 0;
}
