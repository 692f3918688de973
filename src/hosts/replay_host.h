// The replay Telemetry Host: re-feeds a recorded session log (session_log.h) to a fresh
// DetectorCore, offline, with no simulator. Because the core is a pure function of
// (SessionInfo, config, telemetry stream), the replayed core's execution log, action-table
// transitions, bug reports, and overhead accounting are bit-identical to the live run that
// produced the log — the property the round-trip tests pin down.
//
// Replay is detection-only: the simulator's ground truth is not in the log, so precision /
// recall scoring is unavailable offline (a replayed FleetJobResult carries zeroed stats).
// Report `discovered` markers depend on the BlockingApiDatabase the caller supplies — pass a
// database seeded the same way as the live run to reproduce them.
#ifndef SRC_HOSTS_REPLAY_HOST_H_
#define SRC_HOSTS_REPLAY_HOST_H_

#include <memory>
#include <string>

#include "src/hangdoctor/detector_core.h"
#include "src/hosts/session_log.h"

namespace hangdoctor {

class ReplaySession {
 public:
  // Takes ownership of the parsed log (the core references its symbol table). `database`
  // behaves as in the live host: optional, shared across sessions when given.
  explicit ReplaySession(SessionLog log, BlockingApiDatabase* database = nullptr);
  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  // Pushes every recorded SPI record into the core, in recorded order.
  void Run();

  const DetectorCore& core() const { return core_; }
  const SessionLog& log() const { return log_; }

  // Overhead percentage per the recorded usage footer; 0 when the log has no footer.
  double OverheadPercent() const;

 private:
  SessionLog log_;
  DetectorCore core_;
};

// Convenience: load `path`, replay it, and return the session (null + `error` on parse
// failure).
std::unique_ptr<ReplaySession> ReplaySessionLog(const std::string& path,
                                                std::string* error,
                                                BlockingApiDatabase* database = nullptr);

}  // namespace hangdoctor

#endif  // SRC_HOSTS_REPLAY_HOST_H_
