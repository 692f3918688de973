#include "src/hosts/replay_host.h"

#include <utility>

namespace hangdoctor {

ReplaySession::ReplaySession(SessionLog log, BlockingApiDatabase* database,
                             HangBugReport* fleet_report)
    : log_(std::move(log)),
      core_(log_.info, log_.config, database, fleet_report) {}

void ReplaySession::Run() {
  SpiPayload payload;
  for (SessionRecord& record : log_.records) {
    // The directives drove the *live* host's mechanisms; their effects are already baked
    // into the recorded stream, so replay discards them.
    if (ToSpiPayload(std::move(record), &payload)) {
      PushSpiPayload(core_, payload);
      record.samples.swap(payload.samples);  // hand the samples back: log() stays whole
    }
  }
}

double ReplaySession::OverheadPercent() const {
  if (!log_.has_usage) {
    return 0.0;
  }
  return core_.overhead().OverheadPercent(log_.usage_cpu, log_.usage_bytes);
}

std::unique_ptr<ReplaySession> ReplaySessionLog(const std::string& path, std::string* error,
                                                BlockingApiDatabase* database,
                                                HangBugReport* fleet_report) {
  SessionLog log;
  if (!LoadSessionLog(path, &log, error)) {
    return nullptr;
  }
  auto session = std::make_unique<ReplaySession>(std::move(log), database, fleet_report);
  session->Run();
  return session;
}

}  // namespace hangdoctor
